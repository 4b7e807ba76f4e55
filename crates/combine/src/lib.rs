//! # bgpq-combine — dynamic batch-coalescing submission front
//!
//! BGPQ's native API is `k`-wide ([`pq_api::BatchPriorityQueue`], §3.2
//! of the paper), but serving traffic arrives one operation at a time —
//! and a single-op caller wastes the entire batch machinery on 1-item
//! batches. This crate adds a **flat-combining submission front**: many
//! threads submit single `insert` / `delete_min` requests, one of them
//! (the *combiner*) drains everyone's requests and issues up-to-`k`-wide
//! `insert_batch` / `delete_min_batch` calls on the wrapped queue,
//! then distributes results back through per-request completion slots.
//!
//! The pieces:
//!
//! * [`Combiner`] — wraps any [`pq_api::TryBatchPriorityQueue`]
//!   (`CpuBgpq`, `CpuShardedBgpq`, any [`pq_api::ItemwiseBatch`]
//!   baseline) and implements [`pq_api::PriorityQueue`], so existing
//!   single-op callers run through it unchanged:
//!
//!   ```
//!   use bgpq_combine::Combiner;
//!   use bgpq::{BgpqOptions, CpuBgpq};
//!   use pq_api::PriorityQueue;
//!
//!   let q = Combiner::wrap(CpuBgpq::<u32, ()>::new(BgpqOptions::with_capacity_for(64, 1_000)));
//!   q.insert(42, ());
//!   assert_eq!(q.delete_min().map(|e| e.key), Some(42));
//!   ```
//!
//! * [`CombineShared`] / [`CombineBackend`] — the platform-agnostic
//!   engine and its driver trait, public so simulated agents drive the
//!   same protocol by polling (`CAN_PARK = false`).
//! * [`WorkerBackend`] — the backend of such an agent: a shared
//!   [`bgpq::Bgpq`] driven through the agent's own platform worker.
//! * [`CombinerOptions`] — the self-test mutation switch.
//!
//! A submitter that finds nothing pending calls the queue directly, so
//! a lone request is never delayed waiting for peers that are not
//! coming. The combiner lock covers only the gather: each gathered
//! round is issued outside it, so several rounds run through the
//! queue at once, and the front is linearizable exactly when the
//! wrapped queue is. See `DESIGN.md` §9 for the ring layout, the
//! no-lost-request protocol, and the backpressure semantics.

pub mod cell;
pub mod core;
pub mod cpu;
pub mod worker;

pub use cell::{Op, OpCell, OpOutcome};
pub use core::{CombineBackend, CombineShared, CombinerOptions};
pub use cpu::Combiner;
pub use worker::WorkerBackend;

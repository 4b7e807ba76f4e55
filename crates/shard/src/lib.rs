//! # bgpq-shard — a sharded, relaxation-aware multi-queue front over BGPQ
//!
//! A single BGPQ serializes every operation through its root lock
//! (§4 of the paper); that is the right design *inside* one GPU, but it
//! caps scale-out. This crate composes `S` independent BGPQ instances
//! behind a MultiQueue-style router (Rihani et al.'s `c`-of-`S` sampled
//! relaxed delete-min, as popularized by SprayList-era relaxed queues):
//!
//! * **Inserts** stay batched and sticky — a worker always feeds the
//!   same shard, so BGPQ's partial buffer and root cache fire exactly
//!   as they do unsharded.
//! * **Deletes** sample `c` shards' published root minima (a single
//!   relaxed atomic load per shard, no locks) and take a whole batch
//!   from the best; misses fall back to work stealing and then to an
//!   exact full sweep, so emptiness at quiescence is precise and drains
//!   are complete.
//! * **Observability** — the router keeps one [`pq_api::OpStats`]
//!   record ([`ShardedBgpq::quality`]) holding per-delete rank error
//!   (how many shards advertised smaller minima than what a delete
//!   returned), steals, sweeps, breaker events and the buffered front's
//!   traffic, and it exposes per-shard load imbalance, so the
//!   relaxation is measured, not assumed. With exact hints at
//!   quiescence the rank error of a delete is bounded by `S - c`.
//! * **Buffered mode** — with [`ShardedOptions::buffer`] set
//!   ([`pq_api::BufferPolicy`]), each worker stages inserts in a
//!   bounded per-slot buffer (flushed as k-wide batches) and serves
//!   deletes from a local deletion buffer refilled by one wide
//!   `delete_min` from a sticky sampled shard — the "Engineering
//!   MultiQueues" buffering/stickiness optimizations, amortizing the
//!   router's sampling and the shards' root locks over whole batches.
//!   Parked keys stay visible to `len`, drains and emptiness sweeps.
//!
//! The router ([`ShardedBgpq`]) is generic over the same
//! [`bgpq_runtime::Platform`] as the heap itself; [`CpuShardedBgpq`]
//! instantiates it on real threads, and the gpu-sim platform models an
//! SM-partitioned or multi-GPU deployment (one shard per partition).
//!
//! Relaxed ordering is safe for the workspace's applications: A*, SSSP
//! and knapsack B&B all tolerate out-of-order pops via stale-label
//! guards and incumbent pruning (they already run on SprayList), and
//! their termination tests rely only on the exact-emptiness property
//! the full sweep provides.

mod breaker;
mod buffer;
pub mod cpu;
pub mod router;

pub use cpu::{worker_id, CpuShardedBgpq};
pub use pq_api::BufferPolicy;
/// The router record's snapshot under the name perfbench imports.
pub use pq_api::StatsSnapshot as QualitySnapshot;
pub use router::{BreakerState, RecoveryOptions, ShardedBgpq, ShardedOptions};

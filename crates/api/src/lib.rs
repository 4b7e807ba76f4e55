//! # pq-api — shared vocabulary for the BGPQ reproduction
//!
//! This crate defines the types and traits every other crate in the
//! workspace speaks:
//!
//! * [`KeyType`] / [`ValueType`] — bounds for priority-queue keys and
//!   payloads (keys are totally ordered `Copy` scalars, as in the paper,
//!   which evaluates 30/32-bit integer keys carrying a value payload).
//! * [`Entry`] — a `(key, value)` pair ordered by key.
//! * [`PriorityQueue`] — the classical single-item concurrent priority
//!   queue ADT (`INSERT`, `DELETEMIN`) implemented by all CPU baselines.
//! * [`BatchPriorityQueue`] — the batched ADT BGPQ exposes: insert **1..=k**
//!   items and delete the **1..=k** smallest items per call (§3.2 of the
//!   paper). Every [`PriorityQueue`] is trivially a [`BatchPriorityQueue`]
//!   via [`ItemwiseBatch`].
//! * [`OpStats`] — cheap atomic operation counters shared by all
//!   implementations so the bench harness can report contention metrics.
//! * [`QueueError`] — typed failures (`Full`, `Poisoned`, `LockTimeout`,
//!   `Unavailable`) returned by the hardened `try_*` queue entry points.
//! * [`BufferPolicy`] — the knobs of a buffered, sticky front
//!   (insertion-buffer capacity, refill width, stickiness).
//! * [`ScratchSlot`] — the type-keyed per-worker parking spot through
//!   which queue implementations keep their hot-path scratch arenas
//!   alive between operations (zero steady-state allocations).
//!
//! The crate is dependency-free so that substrates (simulator, baselines)
//! can depend on it without pulling anything else in.

pub mod entry;
pub mod error;
pub mod key;
pub mod policy;
pub mod pq;
pub mod scratch;
pub mod stats;

pub use entry::Entry;
pub use error::QueueError;
pub use key::{KeyType, ValueType};
pub use policy::BufferPolicy;
pub use pq::{BatchPriorityQueue, ItemwiseBatch, PriorityQueue, TryBatchPriorityQueue};
pub use scratch::ScratchSlot;
pub use stats::{occupancy_bucket, OpStats, StatsSnapshot, OCCUPANCY_BUCKETS};

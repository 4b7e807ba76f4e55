//! # baseline-heaps — CPU heap baselines from the paper's evaluation
//!
//! * [`CoarseLockPq`] — a binary heap behind one mutex. Stand-in for
//!   Intel TBB's `concurrent_priority_queue` (the "TBB" column of
//!   Table 2), which aggregates operations behind a lock-protected heap;
//!   the serialization bottleneck BGPQ is compared against is the same.
//! * [`FineHeapPq`] — a fine-grained, one-key-per-node concurrent heap
//!   with one lock per node and *top-down* insertions and deletions,
//!   the classical design of Nageshwara Rao & Kumar \[21\] that Hunt et
//!   al. \[14\] build on (the paper notes in §3.3 that its Hunt-style
//!   bottom-up variant performed the same as the simple top-down
//!   approach, so the top-down form is the representative baseline).
//!
//! Both implement [`pq_api::PriorityQueue`]; wrap in
//! [`pq_api::ItemwiseBatch`] for the batched drivers.

pub mod coarse;
pub mod fine;

pub use coarse::CoarseLockPq;
pub use fine::FineHeapPq;

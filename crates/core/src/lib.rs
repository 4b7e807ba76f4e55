//! # bgpq — a heap-based, batched, linearizable priority queue for
//! (simulated) GPUs
//!
//! Reproduction of *BGPQ: A Heap-Based Priority Queue Design for GPUs*
//! (Chen, Hua, Jin, Zhang — ICPP 2021). The queue stores `k` sorted keys
//! per heap node, exploits **data parallelism** inside node operations
//! (bitonic sort + merge path `SORT_SPLIT`s) and **task parallelism**
//! across nodes (one fine-grained lock per node, hand-over-hand,
//! top-down traversal for both INSERT and DELETEMIN), and is
//! linearizable with every operation's linearization point inside its
//! root-lock critical section.
//!
//! Thread-collaboration features (§4.3):
//! * the **partial buffer** batches many INSERTs into one insert-heapify;
//! * the **root cache** serves many DELETEMINs from one refill;
//! * **TARGET/MARKED key stealing** lets a DELETEMIN that finds its
//!   refill node still in flight delegate the root refill to the
//!   inserting thread.
//!
//! ```
//! use bgpq::{BgpqOptions, CpuBgpq};
//! use pq_api::{BatchPriorityQueue, Entry};
//!
//! let q: CpuBgpq<u32, ()> = CpuBgpq::new(BgpqOptions::with_capacity_for(16, 1_000));
//! q.insert_batch(&[Entry::new(7, ()), Entry::new(3, ())]);
//! let mut out = Vec::new();
//! q.delete_min_batch(&mut out, 2);
//! assert_eq!(out.iter().map(|e| e.key).collect::<Vec<_>>(), vec![3, 7]);
//! ```
//!
//! For the simulated-GPU instantiation, build a
//! [`bgpq_runtime::SimPlatform`] inside a [`gpu_sim::launch`] setup
//! closure and share the [`Bgpq`] across blocks; see the `bench` crate
//! and `examples/` for complete kernels.

pub mod cpu;
pub mod heap;
pub mod history;
pub mod options;
pub mod scratch;
pub(crate) mod split;
pub mod storage;
pub mod tree;

pub use cpu::CpuBgpq;
pub use heap::{Bgpq, SalvageReport};
pub use history::{
    check_collaboration, check_history, HistoryEvent, HistoryOp, HistoryViolation, ProtocolEvent,
    ProtocolKind,
};
pub use options::{BgpqOptions, Mutation};
pub use pq_api::QueueError;
pub use scratch::OpScratch;
pub use storage::NodeState;

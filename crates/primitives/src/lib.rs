//! # bgpq-gpu-primitives — data-parallel building blocks
//!
//! BGPQ's node-level operations are built from three GPU primitives
//! (§4 of the paper):
//!
//! * **Bitonic sort** (Peters et al. \[22\]) — sorting a batch of keys held
//!   in shared memory. No host network exists: the host sorts insert
//!   batches with the standard library, and the cost model charges the
//!   network's closed-form step count
//!   ([`CostModel::bitonic_sort_cycles`]).
//! * **GPU Merge Path** (Green, McColl, Bader \[11\]) — merging two sorted
//!   batches by splitting the merge matrix along cross diagonals so that
//!   every thread (partition) merges an independent, equal-sized chunk.
//! * **`SORT_SPLIT`** — the paper's core node operation: merge two sorted
//!   nodes and split the result into the `Ma` smallest and the remaining
//!   largest keys (formal definition in §4). Built on merge path.
//!
//! [`cost`] prices each primitive in closed form, as a function of batch
//! size and thread-block width, so the virtual-time simulator (`gpu-sim`)
//! can charge a faithful cycle cost without this crate depending on the
//! simulator.

pub mod cost;
pub mod merge_path;
pub mod simd;
pub mod sort_split;

pub use cost::{CostModel, PrimitiveCost, SortAlgo};
pub use merge_path::{
    merge_into, merge_into_scalar, merge_into_vec, merge_path_partition, merge_path_search,
};
pub use sort_split::{sort_split, sort_split_full, SortSplitResult};

//! # bgpq-apps — the paper's real-world applications (§6.5)
//!
//! Three best-first searches, generic over any
//! [`pq_api::BatchPriorityQueue`], so one driver runs BGPQ and every
//! CPU baseline:
//!
//! * [`knapsack`] — branch-and-bound 0/1 knapsack: "all visited nodes in
//!   the search tree are stored in the priority queue … its two branches
//!   in the search tree may be inserted into the heap, depending on if
//!   it is pruned by a bound condition. A thread block in BGPQ always
//!   retrieves a full node from the priority queue for load balancing."
//! * [`astar`] — A* route planning on 2-D obstacle grids with
//!   8-direction movement and the Manhattan heuristic.
//! * [`sssp`] — single-source shortest paths (parallel Dijkstra).
//!
//! All three run the one loop of [`search`], on CPU threads here and on
//! simulated thread blocks in the bench crate's GPU kernels.
//!
//! Each module ships a sequential reference solver (SSSP's is
//! `workloads::Graph::dijkstra_reference`) used by the tests to
//! validate the parallel results exactly.

pub mod astar;
pub mod knapsack;
pub mod search;
pub mod sssp;
mod watchdog;

pub use astar::{solve_astar, solve_astar_sequential, AstarNode, AstarResult};
pub use knapsack::{
    solve_knapsack, solve_knapsack_budgeted, solve_knapsack_sequential, KsNode, KsResult,
};
pub use sssp::{solve_sssp, SsspNode, SsspResult};

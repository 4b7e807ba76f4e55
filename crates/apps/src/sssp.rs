//! Single-source shortest paths (Dijkstra) over a concurrent priority
//! queue — the paper's introductory motivating workload (§1) and the
//! problem the prior GPU priority-queue work it cites targets.
//!
//! Same parallel relaxation pattern as the A* driver, without a
//! heuristic: workers pop batches of tentative `(dist, vertex)` labels,
//! discard stale ones, relax outgoing edges through per-vertex atomic
//! distances, and push improvements. Terminates when the open set
//! drains; with non-negative weights the distance array then equals the
//! sequential Dijkstra's.

use crate::search::{self, Search};
use pq_api::{BatchPriorityQueue, Entry};
use std::sync::atomic::{AtomicU64, Ordering};
use workloads::Graph;

/// An open-list label: vertex reached at tentative distance `dist`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SsspNode {
    pub vertex: u32,
    pub dist: u64,
}

/// Result of a parallel SSSP run.
#[derive(Debug)]
pub struct SsspResult {
    /// Final distances (`u64::MAX` = unreachable).
    pub dist: Vec<u64>,
    /// Labels processed.
    pub nodes_expanded: u64,
}

/// SSSP's expansion: the source and the per-vertex best distances.
struct SsspSearch<'g> {
    graph: &'g Graph,
    source: usize,
    best: Vec<AtomicU64>,
}

impl Search for SsspSearch<'_> {
    type Node = SsspNode;
    const NAME: &'static str = "SSSP";

    fn root(&self) -> Entry<u64, SsspNode> {
        Entry::new(0, SsspNode { vertex: self.source as u32, dist: 0 })
    }

    fn expand(&self, popped: &[Entry<u64, SsspNode>], children: &mut Vec<Entry<u64, SsspNode>>) {
        let (graph, best) = (self.graph, &self.best);
        for e in popped {
            let node = e.value;
            let v = node.vertex as usize;
            if node.dist > best[v].load(Ordering::Acquire) {
                continue; // stale label
            }
            for &(t, w) in graph.neighbors(v) {
                let nd = node.dist + w as u64;
                if search::improve(&best[t as usize], nd) {
                    children.push(Entry::new(nd, SsspNode { vertex: t, dist: nd }));
                }
            }
        }
    }
}

/// Compute shortest paths from `source` with `threads` workers sharing
/// queue `q`.
pub fn solve_sssp<Q>(graph: &Graph, source: usize, q: &Q, threads: usize) -> SsspResult
where
    Q: BatchPriorityQueue<u64, SsspNode> + ?Sized,
{
    let best: Vec<AtomicU64> = (0..graph.vertices()).map(|_| AtomicU64::new(u64::MAX)).collect();
    best[source].store(0, Ordering::Release);
    let search = SsspSearch { graph, source, best };
    let nodes_expanded = search::solve(&search, q, threads, None);
    SsspResult {
        dist: search.best.iter().map(|a| a.load(Ordering::Acquire)).collect(),
        nodes_expanded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpq::{BgpqOptions, CpuBgpq};
    use pq_api::ItemwiseBatch;
    use workloads::GraphSpec;

    fn graphs() -> Vec<Graph> {
        vec![
            Graph::generate(GraphSpec::new(200, 3, 1)),
            Graph::generate(GraphSpec::new(500, 5, 2)),
            Graph::generate(GraphSpec::new(50, 2, 3)),
        ]
    }

    #[test]
    fn bgpq_matches_reference_dijkstra() {
        for g in graphs() {
            let q: CpuBgpq<u64, SsspNode> = CpuBgpq::new(BgpqOptions {
                node_capacity: 32,
                max_nodes: 1 << 14,
                ..Default::default()
            });
            let r = solve_sssp(&g, 0, &q, 4);
            assert_eq!(r.dist, g.dijkstra_reference(0));
            assert!(q.is_empty());
        }
    }

    #[test]
    fn baselines_match_reference() {
        let g = Graph::generate(GraphSpec::new(300, 4, 7));
        let expect = g.dijkstra_reference(0);

        let coarse = ItemwiseBatch::new(baseline_heaps::CoarseLockPq::<u64, SsspNode>::new(), 16);
        assert_eq!(solve_sssp(&g, 0, &coarse, 4).dist, expect);

        let spray = ItemwiseBatch::new(skiplist_pq::SprayListPq::<u64, SsspNode>::new(4, 16), 16);
        assert_eq!(solve_sssp(&g, 0, &spray, 4).dist, expect, "relaxed order, same fixpoint");
    }

    #[test]
    fn source_other_than_zero() {
        let g = Graph::generate(GraphSpec::new(150, 4, 9));
        let q: CpuBgpq<u64, SsspNode> = CpuBgpq::new(BgpqOptions {
            node_capacity: 16,
            max_nodes: 1 << 12,
            ..Default::default()
        });
        let src = 42;
        let r = solve_sssp(&g, src, &q, 2);
        assert_eq!(r.dist, g.dijkstra_reference(src));
        assert_eq!(r.dist[src], 0);
    }

    #[test]
    fn single_vertex_graph() {
        let g = Graph::generate(GraphSpec::new(1, 1, 0));
        let q: CpuBgpq<u64, SsspNode> =
            CpuBgpq::new(BgpqOptions { node_capacity: 4, max_nodes: 16, ..Default::default() });
        let r = solve_sssp(&g, 0, &q, 2);
        assert_eq!(r.dist, vec![0]);
    }
}

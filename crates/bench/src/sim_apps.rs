//! The paper's applications running *inside simulated GPU kernels* —
//! §6.5's actual setup: "A thread block in BGPQ always retrieves a full
//! node from the priority queue for load balancing purposes."
//!
//! Each thread block runs the CPU solvers' loop and expansions
//! ([`apps::search`]), one thread per popped node, charging that work to
//! the virtual clock; an empty pop backs off in virtual time.
//!
//! The search itself is performed for real — results are validated
//! against the sequential references by the integration tests.

use crate::sim::sim_bgpq;
use apps::search::{Search, SearchWorker, Shared};
use apps::{astar::AstarSearch, knapsack::KnapsackSearch};
use bgpq::{Bgpq, BgpqOptions};
use bgpq_runtime::SimPlatform;
use gpu_sim::{launch, BlockCtx, GpuConfig};
use pq_api::{Entry, ValueType};
use primitives::PrimitiveCost;
use workloads::{Grid, KnapsackInstance};

/// Result of a simulated-GPU application run.
#[derive(Debug, Clone, Copy)]
pub struct SimAppResult {
    /// Simulated milliseconds at the device clock.
    pub sim_ms: f64,
    /// Application answer (best profit / path cost).
    pub answer: u64,
    /// Search nodes processed.
    pub expanded: u64,
}

/// One thread block's worker; its hooks charge the search's own work.
struct Block<'a, V: ValueType> {
    ctx: &'a mut BlockCtx,
    q: &'a Bgpq<u64, V, SimPlatform>,
    /// Virtual work for one thread to expand one node.
    node_ops: u64,
    /// The cost of publishing an expansion with this many children.
    publish: fn(usize) -> PrimitiveCost,
}

impl<V: ValueType> SearchWorker<V> for Block<'_, V> {
    fn pop(&mut self, out: &mut Vec<Entry<u64, V>>, count: usize) -> usize {
        self.q.delete_min(self.ctx.worker(), out, count)
    }

    fn push(&mut self, batch: &[Entry<u64, V>]) {
        self.q.insert(self.ctx.worker(), batch);
    }

    fn queue_len(&self) -> usize {
        self.q.len()
    }

    fn back_off(&mut self) {
        self.ctx.advance(self.ctx.cost_model().c_spin);
    }

    /// Data-parallel node evaluation.
    fn after_pop(&mut self, got: usize) {
        let rounds = (got as u64).div_ceil(u64::from(self.ctx.block_dim()));
        self.ctx.charge(PrimitiveCost::Compute { ops: rounds * self.node_ops });
    }

    fn after_expand(&mut self, children: usize) {
        self.ctx.charge((self.publish)(children));
    }
}

/// Run `search` in a simulated kernel over a BGPQ of node capacity `k`
/// with room for `items` entries; returns (simulated ms, nodes expanded).
fn run<S: Search>(
    gpu: GpuConfig,
    k: usize,
    items: usize,
    search: &S,
    budget: Option<u64>,
    node_ops: u64,
    publish: fn(usize) -> PrimitiveCost,
) -> (f64, u64) {
    let opts = BgpqOptions::with_capacity_for(k, items);
    let shared = Shared::new(budget);
    let (report, _q) = launch(
        gpu,
        |sched| sim_bgpq(sched, gpu, opts),
        |ctx: &mut BlockCtx, q: &Bgpq<u64, S::Node, SimPlatform>| {
            // Block 0 seeds the root node.
            if ctx.block_id() == 0 {
                q.insert(ctx.worker(), &[search.root()]);
            }
            shared.run(search, Block { ctx, q, node_ops, publish }, k);
        },
    );
    (gpu.cost.cycles_to_ms(report.makespan_cycles), shared.finish())
}

/// Branch-and-bound 0/1 knapsack on BGPQ inside a simulated kernel.
pub fn knapsack_sim(
    gpu: GpuConfig,
    k: usize,
    inst: &KnapsackInstance,
    budget: Option<u64>,
) -> SimAppResult {
    let items = budget.map(|b| 4 * b as usize).unwrap_or(1 << 22).max(16 * k);
    let search = KnapsackSearch::new(inst);
    // Per-node bound evaluation: the Dantzig loop scans density-sorted
    // items; one thread evaluates one node, so a block pays
    // ceil(batch/block_dim) rounds of roughly items/2 steps.
    let node_ops = (inst.items() as u64) / 2 + 24;
    let (sim_ms, expanded) =
        run(gpu, k, items, &search, budget, node_ops, |_| PrimitiveCost::Atomic);
    SimAppResult { sim_ms, answer: search.best_profit(), expanded }
}

/// A* route planning on BGPQ inside a simulated kernel.
pub fn astar_sim(gpu: GpuConfig, k: usize, grid: &Grid) -> SimAppResult {
    let search = AstarSearch::new(grid);
    // Per-node work: 8 neighbour probes + heuristic arithmetic.
    // Relaxations are global atomics issued warp-wide.
    let (sim_ms, expanded) = run(gpu, k, grid.cells() * 2 + 16 * k, &search, None, 64, |n| {
        PrimitiveCost::GlobalWrite { n }
    });
    SimAppResult { sim_ms, answer: search.incumbent(), expanded }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{Correlation, GridSpec, KnapsackSpec};

    #[test]
    fn knapsack_sim_finds_the_optimum() {
        let inst = KnapsackInstance::generate(KnapsackSpec::new(24, Correlation::Weak, 3));
        let r = knapsack_sim(GpuConfig::new(4, 128), 16, &inst, None);
        assert_eq!(r.answer, inst.optimum_dp());
        assert!(r.sim_ms > 0.0);
    }

    #[test]
    fn astar_sim_matches_sequential() {
        let grid = Grid::generate(GridSpec::new(32, 0.2, 5));
        let seq = apps::solve_astar_sequential(&grid);
        let r = astar_sim(GpuConfig::new(4, 128), 16, &grid);
        assert_eq!(Some(r.answer), seq.cost);
    }

    /// Exact simulated results at table2's small configuration (16
    /// blocks × 512 threads, k = 256): any change to where the kernels
    /// charge device cost, or to the host reads between the charges,
    /// moves these bits.
    #[test]
    fn kernels_reproduce_their_pinned_results() {
        let gpu = GpuConfig::new(16, 512);
        let pin = |r: SimAppResult| (r.sim_ms.to_bits(), r.answer, r.expanded);
        let ks = |n, seed, budget| {
            let inst = KnapsackInstance::generate(KnapsackSpec::new(n, Correlation::Weak, seed));
            pin(knapsack_sim(gpu, 256, &inst, budget))
        };
        let astar =
            |side, seed| pin(astar_sim(gpu, 256, &Grid::generate(GridSpec::new(side, 0.2, seed))));
        assert_eq!(ks(24, 3, None), (0x3fc2_3497_b741_4a4d, 6281, 4617));
        assert_eq!(ks(200, 7, Some(50_000)), (0x3ff0_d5cf_aacd_9e84, 9155, 51199));
        assert_eq!(astar(32, 5), (0x3fcb_e97b_d3f3_5069, 95, 910));
        assert_eq!(astar(128, 11), (0x3fee_632b_85de_75a9, 392, 14710));
    }

    #[test]
    fn more_blocks_do_not_change_the_answer() {
        let inst = KnapsackInstance::generate(KnapsackSpec::new(20, Correlation::Strong, 8));
        let a = knapsack_sim(GpuConfig::new(1, 128), 8, &inst, None);
        let b = knapsack_sim(GpuConfig::new(8, 128), 8, &inst, None);
        assert_eq!(a.answer, b.answer);
        assert_eq!(a.answer, inst.optimum_dp());
    }
}

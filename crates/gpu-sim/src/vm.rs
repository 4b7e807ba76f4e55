//! Kernel launch harness: runs one closure per simulated thread block
//! and reports the virtual makespan.

use crate::config::GpuConfig;
use crate::sched::{Scheduler, SimMetrics, SimWorker, ABORTED};
use primitives::{CostModel, PrimitiveCost};
use std::sync::Arc;

/// Per-block execution context handed to the kernel closure.
///
/// Wraps the raw [`SimWorker`] with the launch's cost model so kernels
/// charge primitives (`ctx.charge(PrimitiveCost::Sort { n })`) instead of
/// raw cycles.
pub struct BlockCtx {
    worker: SimWorker,
    block_id: usize,
    block_dim: u32,
    cost: CostModel,
}

impl BlockCtx {
    /// This block's index within the launch grid.
    pub fn block_id(&self) -> usize {
        self.block_id
    }

    /// Threads in this block.
    pub fn block_dim(&self) -> u32 {
        self.block_dim
    }

    /// The launch's cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Current virtual time (cycles).
    pub fn now(&self) -> u64 {
        self.worker.now()
    }

    /// Charge the virtual cost of executing `p` with this block's width.
    pub fn charge(&mut self, p: PrimitiveCost) {
        let cycles = self.cost.cycles(p, self.block_dim);
        self.worker.advance(cycles);
    }

    /// Charge a raw cycle count.
    pub fn advance(&mut self, cycles: u64) {
        self.worker.advance(cycles);
    }

    /// Access the underlying scheduler worker (locks, barriers).
    pub fn worker(&mut self) -> &mut SimWorker {
        &mut self.worker
    }

    /// The scheduler owning this run (for lock/barrier creation).
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        self.worker.scheduler()
    }
}

/// Result of a simulated kernel launch.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Virtual cycles from launch to the last block's retirement.
    pub makespan_cycles: u64,
    /// Simulated milliseconds at the device clock.
    pub makespan_ms: f64,
    /// Scheduler counters.
    pub metrics: SimMetrics,
    /// Per-block finish times (virtual cycles) — load-balance
    /// diagnostics.
    pub block_finish_cycles: Vec<u64>,
}

impl SimReport {
    /// Mean block utilization: average finish time over makespan (1.0 =
    /// perfectly balanced blocks).
    pub fn balance(&self) -> f64 {
        if self.makespan_cycles == 0 || self.block_finish_cycles.is_empty() {
            return 1.0;
        }
        let mean = self.block_finish_cycles.iter().sum::<u64>() as f64
            / self.block_finish_cycles.len() as f64;
        mean / self.makespan_cycles as f64
    }
}

/// Run one wave (one kernel) over an existing scheduler.
fn run_wave<T: Sync>(
    sched: &Arc<Scheduler>,
    config: GpuConfig,
    slot_base: usize,
    shared: &T,
    kernel: &(dyn Fn(&mut BlockCtx, &T) + Sync),
) {
    let resident = config.resident_blocks().min(config.num_blocks).max(1);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(config.num_blocks);
        for block_id in 0..config.num_blocks {
            let worker = sched.worker(block_id);
            let cost = config.cost;
            let block_dim = config.block_dim;
            handles.push(scope.spawn(move || {
                let mut ctx = BlockCtx { worker, block_id, block_dim, cost };
                ctx.worker.begin();
                // SM occupancy: at most `resident` blocks execute
                // concurrently; excess blocks wait for a slot in launch
                // order (wave execution, as on real hardware).
                let slot = slot_base + block_id % resident;
                ctx.worker.lock(slot, 0);
                ctx.charge(PrimitiveCost::Dispatch);
                kernel(&mut ctx, shared);
                ctx.worker.unlock(slot, 0);
                ctx.worker.finish();
            }));
        }
        // Re-raise the panic that ended the run, not that of an agent
        // aborted because of it (a deadlock or a fault panics in one
        // agent and aborts the rest, in any block order).
        let mut cause = None;
        for h in handles {
            if let Err(e) = h.join() {
                let aborted = e.downcast_ref::<String>().is_some_and(|m| m.contains(ABORTED));
                if cause.as_ref().is_none_or(|(was_aborted, _)| *was_aborted && !aborted) {
                    cause = Some((aborted, e));
                }
            }
        }
        if let Some((_, e)) = cause {
            std::panic::resume_unwind(e);
        }
    });
}

fn report_of(sched: &Scheduler, config: &GpuConfig) -> SimReport {
    SimReport {
        makespan_cycles: sched.makespan(),
        makespan_ms: config.cost.cycles_to_ms(sched.makespan()),
        metrics: sched.metrics(),
        block_finish_cycles: sched.agent_vtimes(),
    }
}

/// Launch `kernel` on a simulated GPU: one agent per thread block, each
/// charged a per-block dispatch cost, executing concurrently in virtual
/// time. Blocks communicate through whatever shared state the closure
/// captures plus scheduler locks/barriers.
///
/// The closure receives a fresh [`BlockCtx`] per block. `setup` runs
/// before the launch with the scheduler, letting callers allocate locks
/// and barriers; its output is passed by reference to every block.
///
/// **Occupancy rule** (as on real CUDA cooperative launches): a
/// device-wide barrier across all `num_blocks` blocks is only legal
/// when `num_blocks <= config.resident_blocks()` — blocks beyond the
/// residency limit run in later waves and can never reach an in-kernel
/// grid barrier. Use [`launch_phased`] (kernel relaunch) instead.
pub fn launch<S, F, T>(config: GpuConfig, setup: S, kernel: F) -> (SimReport, T)
where
    S: FnOnce(&Arc<Scheduler>) -> T,
    F: Fn(&mut BlockCtx, &T) + Sync,
    T: Sync,
{
    let (mut reports, shared) = launch_phased(config, setup, &[&kernel]);
    (reports.pop().expect("one phase, one report"), shared)
}

/// A phase kernel: one closure per relaunch in [`launch_phased`].
pub type PhaseKernel<'a, T> = &'a (dyn Fn(&mut BlockCtx, &T) + Sync);

/// Launch a *sequence* of kernels against shared state — the CUDA
/// "relaunch" pattern for device-wide phase separation. Each phase runs
/// all `num_blocks` blocks to completion; the next phase starts at the
/// previous phase's makespan plus one dispatch latency. Returns one
/// report per phase (cumulative makespans) plus the shared state.
pub fn launch_phased<S, T>(
    config: GpuConfig,
    setup: S,
    phases: &[PhaseKernel<'_, T>],
) -> (Vec<SimReport>, T)
where
    S: FnOnce(&Arc<Scheduler>) -> T,
    T: Sync,
{
    assert!(!phases.is_empty(), "need at least one phase");
    let sched = Scheduler::new(config.num_blocks);
    if let Some(seed) = config.fuzz_seed {
        sched.set_tie_seed(seed);
    }
    let resident = config.resident_blocks().min(config.num_blocks).max(1);
    let slot_base = sched.create_locks(resident);
    let shared = setup(&sched);
    let mut reports = Vec::with_capacity(phases.len());
    for (i, phase) in phases.iter().enumerate() {
        if i > 0 {
            sched.begin_wave(config.cost.c_dispatch);
        }
        run_wave(&sched, config, slot_base, &shared, *phase);
        reports.push(report_of(&sched, &config));
    }
    (reports, shared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn launch_runs_every_block_once() {
        let cfg = GpuConfig::new(16, 128);
        let (report, hits) = launch(
            cfg,
            |_s| AtomicU64::new(0),
            |ctx, hits: &AtomicU64| {
                hits.fetch_add(1, Ordering::Relaxed);
                ctx.charge(PrimitiveCost::Sort { n: 256 });
            },
        );
        assert_eq!(hits.load(Ordering::Relaxed), 16);
        assert!(report.makespan_cycles > 0);
    }

    #[test]
    fn independent_blocks_overlap_in_virtual_time() {
        // N blocks doing identical independent work should take barely
        // more than one block's time (perfect task parallelism).
        let one = launch(
            GpuConfig::new(1, 128),
            |_s| (),
            |ctx, _| {
                ctx.advance(10_000);
            },
        )
        .0;
        let many = launch(
            GpuConfig::new(32, 128),
            |_s| (),
            |ctx, _| {
                ctx.advance(10_000);
            },
        )
        .0;
        assert_eq!(one.makespan_cycles, many.makespan_cycles);
    }

    #[test]
    fn serialized_blocks_accumulate_in_virtual_time() {
        // N blocks fighting over one lock serialize: makespan scales
        // with N (contention — the downside of Fig. 6c's right edge).
        let run = |blocks| {
            launch(
                GpuConfig::new(blocks, 128),
                |s: &Arc<Scheduler>| s.create_locks(1),
                |ctx, &lock| {
                    ctx.worker().lock(lock, 100);
                    ctx.advance(10_000);
                    ctx.worker().unlock(lock, 100);
                },
            )
            .0
            .makespan_cycles
        };
        let one = run(1);
        let eight = run(8);
        assert!(eight >= 7 * one, "serialized work must accumulate: {one} vs {eight}");
    }

    #[test]
    fn launch_is_deterministic() {
        let run = || {
            launch(
                GpuConfig::new(8, 256),
                |s: &Arc<Scheduler>| s.create_locks(4),
                |ctx, &base| {
                    for i in 0..10usize {
                        let l = base + (ctx.block_id() + i) % 4;
                        ctx.worker().lock(l, 50);
                        ctx.charge(PrimitiveCost::Merge { n: 512 });
                        ctx.worker().unlock(l, 50);
                    }
                },
            )
            .0
        };
        let a = run();
        let b = run();
        assert_eq!(a.makespan_cycles, b.makespan_cycles);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn dispatch_cost_is_charged() {
        let (report, _) = launch(GpuConfig::new(1, 128), |_s| (), |_ctx, _| {});
        assert_eq!(report.makespan_cycles, CostModel::default().c_dispatch);
    }
}

//! Virtual-time platform backed by the `gpu-sim` scheduler.

use crate::fault::{FaultAction, FaultPlan, InjectionPoint};
use crate::platform::{Place, Platform};
use gpu_sim::{LockId, Scheduler, SimWorker};
use pq_api::ScratchSlot;
use primitives::{CostModel, PrimitiveCost};
use std::sync::Arc;

/// Footprint address of [`Place::Front`], the same on every platform
/// instance: below `gpu_sim::AGENT_BASE`, far above any realistic lock
/// arena.
const FRONT_ADDR: u64 = 1 << 62;

/// A platform whose locks live in a `gpu-sim` scheduler's lock arena and
/// whose primitive costs advance the simulated block's virtual clock.
///
/// Create one per kernel launch (inside the `launch` setup closure) and
/// share it with every block; each block passes its own
/// [`SimWorker`] — obtained from `BlockCtx::worker()` — as the platform
/// worker.
///
/// A [`FaultPlan`] attached via [`SimPlatform::with_faults`] executes
/// against the simulator's deterministic schedule, so a rule like "panic
/// on the 7th `MidInsertHeapify`" faults the same agent at the same
/// virtual time on every run with the same seed — stalls and delays are
/// virtual-clock advances, and a schedule-fuzzing seed (`GpuConfig`'s
/// `fuzz_seed`) picks which agent reaches the nth hit first.
pub struct SimPlatform {
    base_lock: LockId,
    num_locks: usize,
    cost: CostModel,
    block_dim: u32,
    faults: Option<Arc<FaultPlan>>,
}

impl SimPlatform {
    /// Allocate `n` locks in `sched`'s arena for blocks of `block_dim`
    /// threads costed by `cost`.
    pub fn new(sched: &Arc<Scheduler>, n: usize, cost: CostModel, block_dim: u32) -> Self {
        assert!(n >= 1, "need at least one lock");
        let base_lock = sched.create_locks(n);
        Self { base_lock, num_locks: n, cost, block_dim, faults: None }
    }

    /// Attach a fault-injection plan (crash drills at exact virtual
    /// times).
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The cost model used for charging.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Simulated threads per block.
    pub fn block_dim(&self) -> u32 {
        self.block_dim
    }
}

impl Platform for SimPlatform {
    type Worker = SimWorker;

    fn num_locks(&self) -> usize {
        self.num_locks
    }

    #[inline]
    fn scratch_slot<'a>(&self, w: &'a mut SimWorker) -> &'a mut ScratchSlot {
        w.scratch_slot()
    }

    fn lock(&self, w: &mut SimWorker, lock: usize) {
        debug_assert!(lock < self.num_locks);
        w.lock(self.base_lock + lock, self.cost.c_atomic);
    }

    fn try_lock(&self, w: &mut SimWorker, lock: usize) -> bool {
        debug_assert!(lock < self.num_locks);
        w.try_lock(self.base_lock + lock, self.cost.c_atomic)
    }

    fn try_lock_uncharged(&self, w: &mut SimWorker, lock: usize) -> bool {
        debug_assert!(lock < self.num_locks);
        w.try_lock(self.base_lock + lock, 0)
    }

    fn unlock(&self, w: &mut SimWorker, lock: usize) {
        debug_assert!(lock < self.num_locks);
        w.unlock(self.base_lock + lock, self.cost.c_atomic);
    }

    fn unlock_uncharged(&self, w: &mut SimWorker, lock: usize) {
        debug_assert!(lock < self.num_locks);
        w.unlock(self.base_lock + lock, 0);
    }

    fn charge(&self, w: &mut SimWorker, c: PrimitiveCost) {
        w.advance(self.cost.cycles(c, self.block_dim));
    }

    fn backoff(&self, w: &mut SimWorker) {
        // Spin-flavored yield: under a schedule-exploration controller
        // this marks switching away as free (the agent is only polling).
        w.spin(self.cost.c_spin);
    }

    fn backoff_long(&self, w: &mut SimWorker) {
        // An escalated spin models a sleeping wait: one big clock jump
        // instead of many cheap ones, letting the waited-on agent run.
        w.spin(self.cost.c_spin * 64);
    }

    /// Maps `place` to an explorer address interval: one lock word,
    /// this platform's whole lock arena, or the one front address.
    #[inline]
    fn tag(&self, w: &mut SimWorker, place: Place, write: bool) {
        let (lo, hi) = match place {
            Place::Lock(lock) => {
                debug_assert!(lock < self.num_locks);
                let addr = (self.base_lock + lock) as u64;
                (addr, addr)
            }
            Place::Queue => (self.base_lock as u64, (self.base_lock + self.num_locks - 1) as u64),
            Place::Front => (FRONT_ADDR, FRONT_ADDR),
        };
        w.touch(lo, hi, write);
    }

    fn inject(&self, w: &mut SimWorker, point: InjectionPoint) {
        let Some(plan) = self.faults.as_ref() else { return };
        // The plan's per-point hit counters are shared state: every
        // injection on this platform races every other one.
        self.tag(w, Place::Queue, true);
        match plan.check(point) {
            None => {}
            Some(FaultAction::Panic) => {
                panic!("injected fault: panic at {point:?} (vtime {})", w.now())
            }
            // Both are virtual-clock advances: a Stall is long enough to
            // trip bounds, a Delay is a schedule wobble under them.
            Some(FaultAction::Stall { units }) | Some(FaultAction::Delay { units }) => {
                w.advance(units);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{launch, GpuConfig};

    #[test]
    fn sim_platform_serializes_critical_sections_in_virtual_time() {
        let cfg = GpuConfig::new(4, 128);
        let cost = cfg.cost;
        let (report, _) = launch(
            cfg,
            |sched| SimPlatform::new(sched, 1, cost, 128),
            |ctx, platform: &SimPlatform| {
                let w = ctx.worker();
                platform.lock(w, 0);
                platform.charge(w, PrimitiveCost::Sort { n: 1024 });
                platform.unlock(w, 0);
            },
        );
        let one_sort = cost.bitonic_sort_cycles(1024, 128);
        assert!(
            report.makespan_cycles >= 4 * one_sort,
            "4 contended sorts must serialize: {} < {}",
            report.makespan_cycles,
            4 * one_sort
        );
    }

    #[test]
    fn uncontended_blocks_overlap() {
        let cfg = GpuConfig::new(4, 128);
        let cost = cfg.cost;
        let (report, _) = launch(
            cfg,
            |sched| SimPlatform::new(sched, 4, cost, 128),
            |ctx, platform: &SimPlatform| {
                let id = ctx.block_id();
                let w = ctx.worker();
                platform.lock(w, id);
                platform.charge(w, PrimitiveCost::Sort { n: 1024 });
                platform.unlock(w, id);
            },
        );
        let one_sort = cost.bitonic_sort_cycles(1024, 128);
        assert!(
            report.makespan_cycles < 2 * one_sort + 10_000,
            "independent sorts must overlap: {}",
            report.makespan_cycles
        );
    }

    #[test]
    fn charge_advances_virtual_time_by_model_cost() {
        let cfg = GpuConfig::new(1, 256);
        let cost = cfg.cost;
        let (report, _) = launch(
            cfg,
            |sched| SimPlatform::new(sched, 1, cost, 256),
            |ctx, platform: &SimPlatform| {
                let w = ctx.worker();
                platform.charge(w, PrimitiveCost::Merge { n: 2048 });
            },
        );
        assert_eq!(report.makespan_cycles, cost.c_dispatch + cost.merge_cycles(2048, 256));
    }
}

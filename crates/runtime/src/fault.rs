//! Seeded, deterministic fault injection for crash drills.
//!
//! A [`FaultPlan`] is attached to a platform ([`crate::CpuPlatform`] or
//! [`crate::SimPlatform`]) and consulted at named [`InjectionPoint`]s
//! that the heap code threads through its critical sections. Each rule
//! fires exactly once, on the *nth* process-wide hit of its point, so a
//! drill is reproducible: the same plan against the same (deterministic)
//! schedule faults the same operation at the same step. On the
//! simulator, where the schedule itself is deterministic per seed, this
//! pins a fault to an exact virtual time.
//!
//! Three actions cover the failure model (DESIGN.md "Failure model"):
//!
//! * [`FaultAction::Panic`] — the worker dies mid-critical-section,
//!   exercising the RAII lock-chain release and queue poisoning;
//! * [`FaultAction::Stall`] — the worker freezes long enough to trip
//!   lock watchdogs and bounded spins, then resumes;
//! * [`FaultAction::Delay`] — a short wobble that perturbs the schedule
//!   without tripping any bound (recovery must be a no-op).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Named instants inside the heap's critical sections where a fault can
/// be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InjectionPoint {
    /// Immediately before a lock acquisition (no lock gained yet).
    PreLockAcquire,
    /// Immediately after a lock acquisition (lock held, nothing done).
    PostLockAcquire,
    /// Immediately before a lock release (protected work finished).
    PreLockRelease,
    /// Between hand-over-hand steps of an insert heapify (one or two
    /// path locks held, batch in flight).
    MidInsertHeapify,
    /// Between hand-over-hand steps of a delete heapify (one to three
    /// node locks held, result set possibly uncommitted).
    MidDeleteHeapify,
    /// Inside the DELETEMIN wait spin (MARKED collaboration spin, or
    /// the no-collaboration TARGET wait) — root lock held.
    MarkedSpin,
    /// Inside a salvage walk over poisoned node storage (recovery
    /// drills: a second failure while recovery itself is running).
    /// Deliberately the *last* variant: [`FaultPlan::seeded`] draws
    /// only the six heap points, so existing seeded schedules are
    /// unchanged and recovery faults are always explicit rules.
    SalvageWalk,
}

impl InjectionPoint {
    /// Every registered point, for drills that must cover all of them.
    pub const ALL: [InjectionPoint; 7] = [
        InjectionPoint::PreLockAcquire,
        InjectionPoint::PostLockAcquire,
        InjectionPoint::PreLockRelease,
        InjectionPoint::MidInsertHeapify,
        InjectionPoint::MidDeleteHeapify,
        InjectionPoint::MarkedSpin,
        InjectionPoint::SalvageWalk,
    ];

    /// Dense index (for the per-point hit counters).
    pub fn index(self) -> usize {
        match self {
            InjectionPoint::PreLockAcquire => 0,
            InjectionPoint::PostLockAcquire => 1,
            InjectionPoint::PreLockRelease => 2,
            InjectionPoint::MidInsertHeapify => 3,
            InjectionPoint::MidDeleteHeapify => 4,
            InjectionPoint::MarkedSpin => 5,
            InjectionPoint::SalvageWalk => 6,
        }
    }
}

/// What happens when a rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic the worker (simulated crash mid-critical-section).
    Panic,
    /// Freeze the worker for `units` platform time units (microseconds
    /// on `CpuPlatform`, virtual cycles on `SimPlatform`) — long enough
    /// to trip watchdogs, after which the worker resumes.
    Stall { units: u64 },
    /// A short schedule wobble of `units` platform time units that must
    /// stay under every bound (spin-loop iterations on `CpuPlatform`,
    /// virtual cycles on `SimPlatform`).
    Delay { units: u64 },
}

/// One fault: fire `action` on the `nth` process-wide hit of `point`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    pub point: InjectionPoint,
    /// 1-based hit ordinal across all workers sharing the plan.
    pub nth: u64,
    pub action: FaultAction,
}

/// A deterministic schedule of one-shot faults, shared by every worker
/// of one platform. Hit counting is global (one atomic per point), so
/// "the 7th MidInsertHeapify" is well-defined even with many workers —
/// on the simulator it is the *same* step every run.
#[derive(Debug, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    fired: Vec<AtomicBool>,
    hits: [AtomicU64; InjectionPoint::ALL.len()],
}

impl FaultPlan {
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: add one rule.
    pub fn with_rule(mut self, point: InjectionPoint, nth: u64, action: FaultAction) -> Self {
        assert!(nth >= 1, "hit ordinals are 1-based");
        self.rules.push(FaultRule { point, nth, action });
        self.fired.push(AtomicBool::new(false));
        self
    }

    /// Generate `count` pseudo-random rules from `seed` (splitmix64):
    /// uniformly chosen points, hit ordinals in `1..=max_nth`, and a
    /// mix of panic / stall / delay actions. Same seed ⇒ same plan.
    pub fn seeded(seed: u64, count: usize, max_nth: u64) -> Self {
        assert!(max_nth >= 1);
        let mut plan = Self::new();
        let mut z = seed;
        let mut next = move || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        for _ in 0..count {
            // Seeded plans draw only the six heap points — never
            // `SalvageWalk` — so seeded soak schedules stay stable and
            // recovery-time faults are always explicit rules.
            let point = InjectionPoint::ALL[(next() % 6) as usize];
            let nth = next() % max_nth + 1;
            let action = match next() % 3 {
                0 => FaultAction::Panic,
                1 => FaultAction::Stall { units: next() % 5_000 + 500 },
                _ => FaultAction::Delay { units: next() % 200 + 1 },
            };
            plan = plan.with_rule(point, nth, action);
        }
        plan
    }

    /// Build a plan from an explicit rule list (e.g. one deserialized
    /// from a `.sched` artifact).
    pub fn from_rules(rules: &[FaultRule]) -> Self {
        let mut plan = Self::new();
        for r in rules {
            plan = plan.with_rule(r.point, r.nth, r.action);
        }
        plan
    }

    /// Compose several plans into one (fresh hit counters, nothing
    /// fired): the rule lists are concatenated in argument order. Lets a
    /// crash drill be layered onto an explored schedule — e.g. a seeded
    /// plan plus a hand-pinned rule from a shrunk counterexample.
    pub fn compose<'a>(plans: impl IntoIterator<Item = &'a FaultPlan>) -> Self {
        let mut out = Self::new();
        for plan in plans {
            for r in &plan.rules {
                out = out.with_rule(r.point, r.nth, r.action);
            }
        }
        out
    }

    /// The configured rules.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// Called by platforms at each injection point: counts the hit and
    /// returns the action of the first unfired rule matching this exact
    /// hit, if any. A plan with no rules counts hits and never fires.
    pub fn check(&self, point: InjectionPoint) -> Option<FaultAction> {
        let n = self.hits[point.index()].fetch_add(1, Ordering::Relaxed) + 1;
        for (i, r) in self.rules.iter().enumerate() {
            if r.point == point && r.nth == n && !self.fired[i].swap(true, Ordering::Relaxed) {
                return Some(r.action);
            }
        }
        None
    }

    /// Hits recorded at `point` so far.
    pub fn hits(&self, point: InjectionPoint) -> u64 {
        self.hits[point.index()].load(Ordering::Relaxed)
    }

    /// How many rules have fired.
    pub fn fired_count(&self) -> usize {
        self.fired.iter().filter(|f| f.load(Ordering::Relaxed)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_fires_exactly_once_on_the_nth_hit() {
        let plan =
            FaultPlan::new().with_rule(InjectionPoint::MidInsertHeapify, 3, FaultAction::Panic);
        assert_eq!(plan.check(InjectionPoint::MidInsertHeapify), None);
        assert_eq!(plan.check(InjectionPoint::MidInsertHeapify), None);
        assert_eq!(plan.check(InjectionPoint::MidInsertHeapify), Some(FaultAction::Panic));
        assert_eq!(plan.check(InjectionPoint::MidInsertHeapify), None);
        assert_eq!(plan.hits(InjectionPoint::MidInsertHeapify), 4);
        assert_eq!(plan.fired_count(), 1);
    }

    #[test]
    fn points_count_independently() {
        let plan = FaultPlan::new()
            .with_rule(InjectionPoint::MarkedSpin, 1, FaultAction::Stall { units: 10 })
            .with_rule(InjectionPoint::PreLockRelease, 2, FaultAction::Delay { units: 5 });
        assert_eq!(plan.check(InjectionPoint::PreLockRelease), None);
        assert_eq!(plan.check(InjectionPoint::MarkedSpin), Some(FaultAction::Stall { units: 10 }));
        assert_eq!(
            plan.check(InjectionPoint::PreLockRelease),
            Some(FaultAction::Delay { units: 5 })
        );
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::new();
        for p in InjectionPoint::ALL {
            assert_eq!(plan.check(p), None);
            assert_eq!(plan.hits(p), 1, "an empty plan still counts each hit");
        }
    }

    #[test]
    fn seeded_plans_are_reproducible_and_bounded() {
        let a = FaultPlan::seeded(42, 8, 100);
        let b = FaultPlan::seeded(42, 8, 100);
        assert_eq!(a.rules(), b.rules());
        assert_eq!(a.rules().len(), 8);
        for r in a.rules() {
            assert!(r.nth >= 1 && r.nth <= 100);
        }
        let c = FaultPlan::seeded(43, 8, 100);
        assert_ne!(a.rules(), c.rules(), "different seeds, different plans");
    }

    #[test]
    fn seeded_plans_never_draw_the_salvage_point() {
        for seed in 0..64 {
            for r in FaultPlan::seeded(seed, 16, 50).rules() {
                assert_ne!(r.point, InjectionPoint::SalvageWalk, "seed {seed}");
            }
        }
    }

    #[test]
    fn compose_concatenates_rules_with_fresh_state() {
        let a = FaultPlan::new().with_rule(InjectionPoint::MarkedSpin, 1, FaultAction::Panic);
        // Fire `a`'s rule so composing provably resets fired/hit state.
        assert_eq!(a.check(InjectionPoint::MarkedSpin), Some(FaultAction::Panic));
        let b = FaultPlan::new().with_rule(
            InjectionPoint::MidDeleteHeapify,
            2,
            FaultAction::Delay { units: 7 },
        );
        let c = FaultPlan::compose([&a, &b]);
        assert_eq!(c.rules().len(), 2);
        assert_eq!(c.fired_count(), 0);
        assert_eq!(c.hits(InjectionPoint::MarkedSpin), 0);
        assert_eq!(c.check(InjectionPoint::MarkedSpin), Some(FaultAction::Panic));
        let d = FaultPlan::from_rules(c.rules());
        assert_eq!(d.rules(), c.rules());
        assert_eq!(d.fired_count(), 0);
    }

    #[test]
    fn concurrent_hits_fire_each_rule_once() {
        let plan = std::sync::Arc::new(
            FaultPlan::new()
                .with_rule(InjectionPoint::PostLockAcquire, 50, FaultAction::Panic)
                .with_rule(InjectionPoint::PostLockAcquire, 51, FaultAction::Panic),
        );
        let fired = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let plan = plan.clone();
                let fired = &fired;
                s.spawn(move || {
                    for _ in 0..100 {
                        if plan.check(InjectionPoint::PostLockAcquire).is_some() {
                            fired.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(fired.load(Ordering::Relaxed), 2, "each rule fires exactly once");
        assert_eq!(plan.hits(InjectionPoint::PostLockAcquire), 400);
    }
}

//! Sleep-set partial-order reduction + multi-queue front exploration
//! (bgpq-explore over bgpq-shard and bgpq-combine).
//!
//! Three claims are on trial here:
//!
//! 1. **Reduction soundness, differentially.** Sleep sets under a
//!    preemption bound are a heuristic (DESIGN §5.1): the reduced DFS
//!    must reach the *same oracle verdict* as the unreduced DFS on
//!    every single-queue spec while exploring no more runs.
//! 2. **Cross-front falsification.** The sharded router and the
//!    flat-combining front run under the same oracles, and a
//!    deliberately re-introduced bug in each front is caught at a
//!    minimal preemption budget, shrunk to a tiny `.sched`, and
//!    replayed bit-for-bit.
//! 3. **Shrinking is a function.** Greedy override deletion is
//!    deterministic and idempotent, proptested across random
//!    inflations of known-failing schedules.

use bgpq::Mutation;
use bgpq_explore::{
    explore, install_quiet_panic_hook, overrides_of, replay, shrink, Counterexample, ExploreConfig,
    ExploreReport, SchedFile, Violation, WorkloadSpec,
};
use proptest::prelude::*;
use std::sync::OnceLock;

fn run(spec: &WorkloadSpec, budget: usize, sleep_sets: bool) -> ExploreReport {
    explore(
        spec,
        &ExploreConfig { preemption_budget: budget, max_runs: 0, use_sleep_sets: sleep_sets },
    )
}

/// Differential soundness of the reduction on every single-queue spec
/// at budget 2: identical verdicts, no more runs, and on the specs with
/// real commuting structure strictly fewer runs.
#[test]
fn sleep_sets_match_unreduced_verdicts_on_single_queue_specs() {
    let specs = [
        ("key-steal k=2", WorkloadSpec::key_steal_mix(2)),
        ("path-race k=4", WorkloadSpec::path_race_mix(4)),
        ("collab-deep k=4", WorkloadSpec::collab_deep_mix(4)),
        ("generated(11)", WorkloadSpec::generated(11, 2, 4, 4)),
    ];
    for (name, spec) in specs {
        let reduced = run(&spec, 2, true);
        let unreduced = run(&spec, 2, false);
        assert!(reduced.exhausted && unreduced.exhausted, "{name}: both must exhaust");
        assert_eq!(
            reduced.counterexample.is_some(),
            unreduced.counterexample.is_some(),
            "{name}: verdicts must agree"
        );
        assert!(reduced.counterexample.is_none(), "{name}: spec must be clean");
        assert!(
            reduced.runs <= unreduced.runs,
            "{name}: reduction must not explore more ({} > {})",
            reduced.runs,
            unreduced.runs
        );
        assert!(
            reduced.runs < unreduced.runs && reduced.pruned > 0,
            "{name}: commuting decisions exist, so some subtree must be pruned"
        );
        println!(
            "{name}: {} -> {} runs ({} pruned, {:.0}% of the tree)",
            unreduced.runs,
            reduced.runs,
            reduced.pruned,
            100.0 * reduced.runs as f64 / unreduced.runs as f64
        );
    }
}

/// The differential argument on a *buggy* spec: both DFS modes must
/// catch the §4.3 MARKED-handoff mutation at budget 2 — the reduction
/// may not prune the only schedules that expose a real bug.
#[test]
fn sleep_sets_still_catch_the_marked_handoff_mutation() {
    let spec = WorkloadSpec::key_steal_mix(4).with_mutation(Mutation::MarkedHandoffEarlyAvail);
    let reduced = run(&spec, 2, true);
    let unreduced = run(&spec, 2, false);
    for (mode, report) in [("reduced", &reduced), ("unreduced", &unreduced)] {
        let ce = report
            .counterexample
            .as_ref()
            .unwrap_or_else(|| panic!("{mode}: the injected protocol bug must be caught"));
        assert!(
            matches!(ce.violation, Violation::History(_) | Violation::Conservation(_)),
            "{mode}: expected a result-level violation, got {:?}",
            ce.violation
        );
    }
    // No run-count comparison here: both searches stop at their
    // *first* violation, and pruning reorders the walk, so
    // runs-until-first-hit is not a coverage measure. The `<=` claim
    // is asserted on the exhausted (clean) explorations above.
}

/// Full budget-2 differential on the k=4 mix (~2.3k schedules both
/// modes); ignored by default, run by CI's explore-smoke job.
#[test]
#[ignore = "exhaustive budget-2 differential (~20s); run by CI explore-smoke"]
fn sleep_sets_match_unreduced_on_key_steal_k4_budget_two() {
    let spec = WorkloadSpec::key_steal_mix(4);
    let reduced = run(&spec, 2, true);
    let unreduced = run(&spec, 2, false);
    assert!(reduced.exhausted && unreduced.exhausted);
    assert!(reduced.counterexample.is_none() && unreduced.counterexample.is_none());
    assert!(reduced.runs < unreduced.runs, "{} vs {}", reduced.runs, unreduced.runs);
}

/// The sharded front (router + circuit breaker + salvage re-admission
/// + a planned shard crash) explores exhaustively clean at budget 1.
#[test]
fn sharded_front_is_clean_at_budget_one() {
    install_quiet_panic_hook();
    let report = run(&WorkloadSpec::sharded_mix(2), 1, true);
    assert!(report.exhausted);
    assert!(report.counterexample.is_none(), "{:?}", report.counterexample);
    assert!(report.runs > 1 && report.pruned > 0);
}

/// The flat-combining front explores exhaustively clean at budget 2,
/// one past the budget its mutation needs (see below).
#[test]
fn combined_front_is_clean_at_budget_two() {
    let report = run(&WorkloadSpec::combined_mix(2), 2, true);
    assert!(report.exhausted);
    assert!(report.counterexample.is_none(), "{:?}", report.counterexample);
    assert!(report.runs > 1);
}

/// Shared falsification-loop body for the two front mutations: clean
/// below the minimal budget, caught at it with a front-accounting
/// violation, shrunk to `max_overrides` or fewer, serialized,
/// re-parsed, replayed bit-for-bit, and clean again once the mutation
/// is removed from the very same schedule.
fn assert_front_mutation_caught(
    clean: WorkloadSpec,
    mutation: Mutation,
    minimal_budget: usize,
    max_overrides: usize,
) {
    install_quiet_panic_hook();
    let spec = clean.clone().with_mutation(mutation);
    for below in 0..minimal_budget {
        let report = run(&spec, below, true);
        assert!(report.exhausted);
        assert!(
            report.counterexample.is_none(),
            "budget {below} should be too shallow to reach the bug: {:?}",
            report.counterexample
        );
    }
    let report = run(&spec, minimal_budget, true);
    let ce = report.counterexample.expect("the injected front bug must be caught");
    assert!(
        matches!(ce.violation, Violation::FrontAccounting(_)),
        "only front-level accounting can see an acked-but-never-applied op: {:?}",
        ce.violation
    );

    let (min, _replays) = shrink(&spec, &ce);
    assert!(
        min.overrides.len() <= max_overrides,
        "expected <= {max_overrides} overrides after shrinking, got {}",
        min.overrides.len()
    );

    let text = SchedFile { spec: spec.clone(), overrides: min.overrides.clone() }.to_string();
    let parsed = SchedFile::parse(&text).expect("artifact parses back");
    assert_eq!(parsed.spec, spec);
    assert_eq!(parsed.overrides, min.overrides);
    let a = replay(&parsed.spec, &parsed.overrides);
    let b = replay(&parsed.spec, &parsed.overrides);
    assert_eq!(a.violation, Some(min.violation.clone()), "replay reproduces the violation");
    assert_eq!(a.decisions, b.decisions, "replay is bit-for-bit deterministic");
    assert_eq!(a.events, b.events);

    // The un-mutated front passes the exact failing schedule.
    let fixed = replay(&clean, &min.overrides);
    assert_eq!(fixed.violation, None, "{:?}", fixed.violation);
}

/// Router sweep-rollback bug: a circuit-breaker trip observed mid-sweep
/// makes the mutated router discard keys a shard already handed over.
/// One preemption suffices; the schedule shrinks to two overrides.
#[test]
fn sharded_sweep_mutation_caught_at_budget_one() {
    assert_front_mutation_caught(WorkloadSpec::sharded_mix(2), Mutation::SweepDiscardsOnTrip, 1, 2);
}

/// Combiner delegation bug: the combiner acks a *foreign* insert
/// without issuing it, so the key exists only in front-level
/// accounting. The default schedule never produces a cross-thread
/// round (each agent serves itself); one preemption — agent 0's second
/// insert landing in agent 1's lingering gather — catches it, and the
/// schedule shrinks to that one override.
#[test]
fn combiner_foreign_insert_mutation_caught_at_budget_one() {
    assert_front_mutation_caught(
        WorkloadSpec::combined_mix(2),
        Mutation::CombinerDropsForeignInsert,
        1,
        2,
    );
}

/// Known-failing (spec, counterexample) bases for the shrinking
/// properties below, computed once: the three mutations caught by the
/// explorer at their minimal budgets.
fn failing_bases() -> &'static Vec<(WorkloadSpec, Counterexample)> {
    static BASES: OnceLock<Vec<(WorkloadSpec, Counterexample)>> = OnceLock::new();
    BASES.get_or_init(|| {
        install_quiet_panic_hook();
        let cases = [
            (WorkloadSpec::sharded_mix(2).with_mutation(Mutation::SweepDiscardsOnTrip), 1),
            (WorkloadSpec::combined_mix(2).with_mutation(Mutation::CombinerDropsForeignInsert), 1),
            (WorkloadSpec::key_steal_mix(4).with_mutation(Mutation::MarkedHandoffEarlyAvail), 2),
        ];
        cases
            .into_iter()
            .map(|(spec, budget)| {
                let ce = run(&spec, budget, true).counterexample.expect("base bug is caught");
                (spec, ce)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Greedy shrinking is deterministic and idempotent: inflate a
    /// known-failing schedule with random (mostly redundant) overrides;
    /// whenever the inflated schedule still fails, shrinking it twice
    /// gives identical results, and shrinking the shrunk schedule is a
    /// fixed point no larger than the input.
    #[test]
    fn shrinking_is_deterministic_and_idempotent(
        base in 0usize..3,
        extra in proptest::collection::vec((0u64..40, 0usize..3), 0..6),
    ) {
        let (spec, ce) = &failing_bases()[base];
        let mut overrides = ce.overrides.clone();
        for (step, agent) in extra {
            if !overrides.iter().any(|&(s, _)| s == step) {
                overrides.push((step, agent));
            }
        }
        overrides.sort_unstable();
        let out = replay(spec, &overrides);
        // Inflation may have steered the run clean; only failing
        // schedules are shrinkable.
        prop_assume!(out.violation.is_some());
        let inflated = Counterexample {
            overrides: overrides_of(&out.decisions),
            violation: out.violation.clone().unwrap(),
            decisions: out.decisions.len(),
        };

        let (min_a, _) = shrink(spec, &inflated);
        let (min_b, _) = shrink(spec, &inflated);
        prop_assert_eq!(&min_a.overrides, &min_b.overrides, "shrinking must be deterministic");
        prop_assert_eq!(&min_a.violation, &min_b.violation);
        prop_assert!(min_a.overrides.len() <= inflated.overrides.len());

        let (min_c, _) = shrink(spec, &min_a);
        prop_assert_eq!(&min_c.overrides, &min_a.overrides, "shrinking must be idempotent");
        prop_assert_eq!(&min_c.violation, &min_a.violation);
    }
}

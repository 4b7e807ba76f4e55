//! Schedule exploration + linearizability model checking (bgpq-explore).
//!
//! Exhaustively enumerates bounded-preemption schedules of small
//! configurations on the deterministic simulator, checks every run
//! against the linearizability / conservation / collaboration-protocol
//! oracles, and verifies the full falsification loop: a deliberately
//! re-introduced §4.3 protocol bug is caught, shrunk to a minimal
//! `.sched` counterexample, and replayed bit-for-bit.

use bgpq::Mutation;
use bgpq_explore::{
    explore, install_quiet_panic_hook, random_walks, replay, run_schedule, shrink, ExploreConfig,
    PrefixStrategy, SchedFile, WorkloadSpec,
};
use bgpq_runtime::{FaultAction, FaultRule, InjectionPoint};
use std::sync::Arc;

/// Exhaustive budget-1 exploration of the key-stealing mix is clean at
/// both tested node capacities. (Budget 2 — the bound the injected bug
/// needs — runs under `--ignored` in CI's explore-smoke job.)
#[test]
fn exhaustive_budget_one_key_steal_mix_is_clean() {
    for k in [4usize, 8] {
        let spec = WorkloadSpec::key_steal_mix(k);
        let report = explore(
            &spec,
            &ExploreConfig { preemption_budget: 1, max_runs: 0, ..Default::default() },
        );
        assert!(report.exhausted, "k={k}: bounded tree must be fully enumerated");
        assert!(
            report.counterexample.is_none(),
            "k={k}: unexpected violation: {:?}",
            report.counterexample
        );
        assert!(report.runs > 1, "k={k}: contention points must exist to branch on");
    }
}

/// The full preemption-bound-2 tree of the 2-block k=4 mix (ISSUE 4
/// acceptance bar). ~1.3k schedules; ignored in the default run,
/// executed by CI's explore-smoke job.
#[test]
#[ignore = "exhaustive budget-2 tree (~8s); run by CI explore-smoke"]
fn exhaustive_budget_two_key_steal_mix_is_clean() {
    let spec = WorkloadSpec::key_steal_mix(4);
    let report =
        explore(&spec, &ExploreConfig { preemption_budget: 2, max_runs: 0, ..Default::default() });
    assert!(report.exhausted);
    assert!(report.counterexample.is_none(), "{:?}", report.counterexample);
}

/// The whole falsification loop on a deliberately re-introduced
/// ordering bug: `MarkedHandoffEarlyAvail` publishes the root as
/// `AVAIL` *before* writing the stolen keys, so a DELETEMIN spinning on
/// the MARKED handshake can read a stale (shorter) root and
/// under-return. Exploration must find it, shrinking must get the
/// counterexample under 20 scheduling overrides, and the serialized
/// `.sched` artifact must replay the violation bit-for-bit.
#[test]
fn marked_handoff_mutation_is_caught_shrunk_and_replayable() {
    let spec = WorkloadSpec::key_steal_mix(4).with_mutation(Mutation::MarkedHandoffEarlyAvail);

    let report =
        explore(&spec, &ExploreConfig { preemption_budget: 2, max_runs: 0, ..Default::default() });
    let ce = report.counterexample.expect("the injected protocol bug must be caught");
    assert!(
        matches!(
            ce.violation,
            bgpq_explore::Violation::History(_) | bgpq_explore::Violation::Conservation(_)
        ),
        "expected a result-level violation, got {:?}",
        ce.violation
    );

    let (min, _replays) = shrink(&spec, &ce);
    assert!(
        min.overrides.len() <= 20,
        "counterexample must shrink to <= 20 scheduling decisions, got {}",
        min.overrides.len()
    );

    // Serialize, re-parse, and replay the artifact twice: identical
    // decision logs, histories, and the same violation.
    let text = SchedFile { spec: spec.clone(), overrides: min.overrides.clone() }.to_string();
    let parsed = SchedFile::parse(&text).expect("artifact parses back");
    assert_eq!(parsed.overrides, min.overrides);
    let a = replay(&parsed.spec, &parsed.overrides);
    let b = replay(&parsed.spec, &parsed.overrides);
    assert_eq!(a.violation, Some(min.violation.clone()), "replay reproduces the violation");
    assert_eq!(a.violation, b.violation);
    assert_eq!(a.decisions, b.decisions, "replay is bit-for-bit deterministic");
    assert_eq!(a.events, b.events);
    assert_eq!(a.protocol, b.protocol);

    // And the fixed protocol order passes the very same schedule.
    let fixed = replay(&WorkloadSpec::key_steal_mix(4), &min.overrides);
    assert_eq!(fixed.violation, None, "{:?}", fixed.violation);
}

/// Budget 1 cannot reach the two-window interleaving the bug needs —
/// evidence the preemption bound is measuring real schedule depth.
#[test]
fn mutation_needs_more_than_one_preemption() {
    let spec = WorkloadSpec::key_steal_mix(4).with_mutation(Mutation::MarkedHandoffEarlyAvail);
    let report =
        explore(&spec, &ExploreConfig { preemption_budget: 1, max_runs: 0, ..Default::default() });
    assert!(report.exhausted);
    assert!(report.counterexample.is_none());
}

/// The same bug one level deeper: in the collab-deep mix the delete
/// steals node 8 with keys in the pBuffer, so the inserter can answer
/// the marking at its second path lock. Budget 1 stays clean; budget 2
/// catches the early AVAIL as a short delete, shrinks it, and replays
/// it, and the fixed protocol passes the same schedule.
#[test]
fn marked_handoff_mutation_is_caught_in_the_deep_steal() {
    let spec = WorkloadSpec::collab_deep_mix(4).with_mutation(Mutation::MarkedHandoffEarlyAvail);
    let cfg =
        |budget| ExploreConfig { preemption_budget: budget, max_runs: 0, ..Default::default() };
    let early = explore(&spec, &cfg(1));
    assert!(early.exhausted && early.counterexample.is_none(), "{:?}", early.counterexample);

    let ce = explore(&spec, &cfg(2)).counterexample.expect("the injected protocol bug is caught");
    assert!(
        matches!(ce.violation, bgpq_explore::Violation::History(_)),
        "expected a linearizability violation, got {:?}",
        ce.violation
    );
    let (min, _replays) = shrink(&spec, &ce);
    assert!(min.overrides.len() <= 2, "shrinks to two overrides, got {}", min.overrides.len());

    let text = SchedFile { spec: spec.clone(), overrides: min.overrides.clone() }.to_string();
    let parsed = SchedFile::parse(&text).expect("artifact parses back");
    let a = replay(&parsed.spec, &parsed.overrides);
    let b = replay(&parsed.spec, &parsed.overrides);
    assert_eq!(a.violation, Some(min.violation.clone()), "replay reproduces the violation");
    assert_eq!(a.decisions, b.decisions, "replay is bit-for-bit deterministic");

    let fixed = replay(&WorkloadSpec::collab_deep_mix(4), &min.overrides);
    assert_eq!(fixed.violation, None, "{:?}", fixed.violation);
}

/// The full preemption-bound-2 tree of the collab-deep mix (~3.5k
/// schedules); ignored in the default run, executed by CI's
/// explore-smoke and crash-drills jobs.
#[test]
#[ignore = "exhaustive budget-2 tree; run by CI explore-smoke"]
fn exhaustive_budget_two_collab_deep_mix_is_clean() {
    let spec = WorkloadSpec::collab_deep_mix(4);
    let report =
        explore(&spec, &ExploreConfig { preemption_budget: 2, max_runs: 0, ..Default::default() });
    assert!(report.exhausted);
    assert!(report.counterexample.is_none(), "{:?}", report.counterexample);
}

/// The lock-order tripwire: `PathWaitHoldsTarget` makes an overflowing
/// insert wait for its first path node (node 2) while it still holds
/// the word of its TARGET node (node 4), which a delete holding node 2
/// locks as a child. Two preemptions reach the race; the explorer must
/// report the deadlock, shrink it, and replay it, and the correct order
/// (mark node 4 and release its word before the wait) passes the same
/// schedule.
#[test]
fn path_wait_mutation_deadlock_is_caught_shrunk_and_replayable() {
    install_quiet_panic_hook();
    let spec = WorkloadSpec::path_race_mix(4).with_mutation(Mutation::PathWaitHoldsTarget);
    let cfg =
        |budget| ExploreConfig { preemption_budget: budget, max_runs: 0, ..Default::default() };
    let early = explore(&spec, &cfg(1));
    assert!(early.exhausted && early.counterexample.is_none(), "{:?}", early.counterexample);

    let ce = explore(&spec, &cfg(2)).counterexample.expect("the lock-order bug must be caught");
    assert!(
        matches!(ce.violation, bgpq_explore::Violation::Deadlock(_)),
        "expected a deadlock, got {:?}",
        ce.violation
    );
    let (min, _replays) = shrink(&spec, &ce);
    assert!(min.overrides.len() <= 2, "shrinks to two overrides, got {}", min.overrides.len());

    let text = SchedFile { spec: spec.clone(), overrides: min.overrides.clone() }.to_string();
    let parsed = SchedFile::parse(&text).expect("artifact parses back");
    let a = replay(&parsed.spec, &parsed.overrides);
    let b = replay(&parsed.spec, &parsed.overrides);
    assert_eq!(a.violation, Some(min.violation.clone()), "replay reproduces the deadlock");
    assert_eq!(a.decisions, b.decisions, "replay is bit-for-bit deterministic");

    let fixed = replay(&WorkloadSpec::path_race_mix(4), &min.overrides);
    assert_eq!(fixed.violation, None, "{:?}", fixed.violation);
}

/// The full preemption-bound-2 tree of the path-race mix (~0.9k
/// schedules); ignored in the default run, executed by CI's
/// explore-smoke job.
#[test]
#[ignore = "exhaustive budget-2 tree; run by CI explore-smoke"]
fn exhaustive_budget_two_path_race_mix_is_clean() {
    let spec = WorkloadSpec::path_race_mix(4);
    let report =
        explore(&spec, &ExploreConfig { preemption_budget: 2, max_runs: 0, ..Default::default() });
    assert!(report.exhausted);
    assert!(report.counterexample.is_none(), "{:?}", report.counterexample);
}

/// Bounded random checking of configurations too large to enumerate:
/// 3-block pseudo-random insert/delete mixes at k=8.
#[test]
fn random_walks_on_generated_mixes_are_clean() {
    for seed in [11u64, 23] {
        let spec = WorkloadSpec::generated(seed, 3, 8, 6);
        let report = random_walks(&spec, 25, seed, 70);
        assert_eq!(report.runs, 25);
        assert!(report.counterexample.is_none(), "seed {seed}: {:?}", report.counterexample);
    }
}

/// Fault-plan composition rides the same harness: schedules explored
/// under an injected mid-heapify crash must still conserve keys and
/// keep the collaboration protocol legal on the truncated histories.
#[test]
fn exploration_under_injected_crash_keeps_conservation() {
    install_quiet_panic_hook();
    let spec = WorkloadSpec::key_steal_mix(4).with_faults(vec![FaultRule {
        point: InjectionPoint::MidInsertHeapify,
        nth: 2,
        action: FaultAction::Panic,
    }]);
    let report =
        explore(&spec, &ExploreConfig { preemption_budget: 1, max_runs: 0, ..Default::default() });
    assert!(report.exhausted);
    assert!(report.counterexample.is_none(), "{:?}", report.counterexample);
    // The crash actually fires on the default schedule.
    let out = run_schedule(&spec, Arc::new(PrefixStrategy { prefix: Vec::new() }));
    assert!(out.panic.is_some(), "planned crash must fire");
    assert_eq!(out.violation, None, "{:?}", out.violation);
}

/// Stall faults exercise the watchdog/poison path under exploration:
/// truncated histories still linearize.
#[test]
fn exploration_under_stall_faults_is_clean() {
    install_quiet_panic_hook();
    let spec = WorkloadSpec::key_steal_mix(4).with_faults(vec![FaultRule {
        point: InjectionPoint::PostLockAcquire,
        nth: 3,
        action: FaultAction::Delay { units: 200 },
    }]);
    let report =
        explore(&spec, &ExploreConfig { preemption_budget: 1, max_runs: 0, ..Default::default() });
    assert!(report.exhausted);
    assert!(report.counterexample.is_none(), "{:?}", report.counterexample);
}

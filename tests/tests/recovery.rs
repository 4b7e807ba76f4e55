//! Recovery drills: salvage after every crash-drill injection point on
//! both platforms, the salvage conservation identity under proptest,
//! and a chaos soak that proves the sharded front self-heals.
//!
//! These extend the crash drills (`crash_drills.rs`) past fail-stop:
//! after the queue poisons, salvage must walk every settled key
//! back out, account for every key it cannot find, and hand back a
//! serving queue. The assertions lean on the documented loss-accounting
//! contract:
//!
//! * **Conservation** — `recovered + lost == expected` always.
//! * **No invention** — recovered keys are a sub(multi)set of the keys
//!   offered to the queue, disjoint from the keys already deleted.
//! * **Conservative loss** — the *count* of lost keys is exact-or-over,
//!   but their *identity* is unspecified: a crashed insert-heapify may
//!   have merged its own batch into the root while carrying previously
//!   settled keys on its stack, so we never assert which keys died,
//!   only how many (`recovered >= outstanding - lost`).

use bgpq::{check_history, Bgpq, BgpqOptions, CpuBgpq, HistoryEvent, HistoryOp};
use bgpq_runtime::{CpuPlatform, FaultAction, FaultPlan, InjectionPoint, SimPlatform};
use gpu_sim::{launch, GpuConfig, Scheduler};
use pq_api::{BatchPriorityQueue, Entry, QueueError};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Key multiset of all linearized inserts and deletes in `events`.
fn committed_multisets(events: &[HistoryEvent<u32>]) -> (HashMap<u32, i64>, HashMap<u32, i64>) {
    let mut inserted: HashMap<u32, i64> = HashMap::new();
    let mut deleted: HashMap<u32, i64> = HashMap::new();
    for e in events {
        match &e.op {
            HistoryOp::Insert { keys } => {
                for &k in keys {
                    *inserted.entry(k).or_default() += 1;
                }
            }
            HistoryOp::DeleteMin { keys, .. } => {
                for &k in keys {
                    *deleted.entry(k).or_default() += 1;
                }
            }
        }
    }
    (inserted, deleted)
}

/// Assert the recovered keys obey the no-invention contract against the
/// drill's deterministic key space: every key is one the drill offered,
/// no key appears twice, and no key was already returned by a delete.
fn assert_no_invention(
    recovered: &[Entry<u32, u32>],
    offered: &HashSet<u32>,
    deleted: &HashMap<u32, i64>,
) {
    let mut seen = HashSet::new();
    for e in recovered {
        assert!(offered.contains(&e.key), "salvage invented key {} (never offered)", e.key);
        assert!(seen.insert(e.key), "salvage duplicated key {}", e.key);
        assert!(
            deleted.get(&e.key).copied().unwrap_or(0) == 0,
            "salvage resurrected key {} that a delete already returned",
            e.key
        );
    }
}

/// One CPU salvage drill: run the crash-drill traffic mix with a panic
/// injected at `point`, then salvage whatever is left — poisoned or not
/// — and check accounting against the committed history.
fn cpu_salvage_drill(point: InjectionPoint, nth: u64) {
    let opts = BgpqOptions { node_capacity: 4, max_nodes: 1 << 10, ..Default::default() };
    let plan = Arc::new(FaultPlan::new().with_rule(point, nth, FaultAction::Panic));
    let platform = CpuPlatform::new(opts.max_nodes + 1)
        .with_watchdog(Duration::from_millis(75))
        .with_faults(plan.clone());
    let mut q: CpuBgpq<u32, u32> = CpuBgpq::on_platform(platform, opts).with_history();

    // Every key the drill can possibly offer (unique by construction).
    let mut offered: HashSet<u32> = HashSet::new();
    for t in 0..4u32 {
        for i in 0..300u32 {
            if i % 4 != 3 {
                let key = t * 1_000_000 + i;
                offered.insert(key);
                offered.insert(key + 500_000);
            }
        }
    }

    std::thread::scope(|s| {
        for t in 0..4u32 {
            let q = &q;
            s.spawn(move || {
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    let mut out = Vec::new();
                    for i in 0..300u32 {
                        let key = t * 1_000_000 + i;
                        if i % 4 != 3 {
                            match q.try_insert_batch(&[
                                Entry::new(key, t),
                                Entry::new(key + 500_000, t),
                            ]) {
                                Ok(()) | Err(QueueError::Full { .. }) => {}
                                Err(QueueError::Poisoned) => break,
                                Err(_) => {}
                            }
                        } else {
                            out.clear();
                            match q.try_delete_min_batch(&mut out, 4) {
                                Ok(_) | Err(QueueError::Full { .. }) => {}
                                Err(QueueError::Poisoned) => break,
                                Err(_) => {}
                            }
                        }
                    }
                }));
            });
        }
    });

    if point != InjectionPoint::MarkedSpin {
        assert!(plan.fired_count() >= 1, "{point:?}: drill never reached the injection point");
    }

    let events = q.inner().take_history();
    if let Some(v) = check_history(&events) {
        panic!("{point:?}: truncated history does not linearize at seq {}: {}", v.seq, v.detail);
    }
    let (inserted, deleted) = committed_multisets(&events);
    let committed_outstanding: i64 = inserted.values().sum::<i64>() - deleted.values().sum::<i64>();
    let was_poisoned = q.inner().is_poisoned();

    let mut recovered = Vec::new();
    let report = q.salvage(&mut recovered);

    assert!(report.conserves(), "{point:?}: recovered + lost != expected: {report:?}");
    assert_eq!(report.was_poisoned, was_poisoned, "{point:?}");
    assert_eq!(report.keys_recovered, recovered.len(), "{point:?}");
    assert_no_invention(&recovered, &offered, &deleted);
    // Conservative loss: everything the committed history still owes is
    // either in the salvage output or explicitly reported lost. (The
    // reverse bound does not hold key-by-key — see module docs.)
    assert!(
        recovered.len() as i64 >= committed_outstanding - report.keys_lost as i64,
        "{point:?}: silent loss — {} recovered, {} outstanding, {} reported lost",
        recovered.len(),
        committed_outstanding,
        report.keys_lost
    );

    // The salvaged queue serves again: fresh, empty, un-poisoned.
    assert!(!q.inner().is_poisoned(), "{point:?}: salvage must clear the poison flag");
    assert_eq!(q.len(), 0);
    q.inner().check_invariants();
    assert!(q.inner().stats().snapshot().salvages >= 1);
    q.try_insert_batch(&[Entry::new(7, 7), Entry::new(3, 3)]).expect("post-salvage insert");
    let mut out = Vec::new();
    assert_eq!(q.try_delete_min_batch(&mut out, 2).expect("post-salvage delete"), 2);
    assert_eq!(out[0].key, 3, "{point:?}: salvaged queue must order correctly again");
}

#[test]
fn cpu_salvage_after_panic_every_injection_point() {
    for (point, nth) in [
        (InjectionPoint::PreLockAcquire, 201),
        (InjectionPoint::PostLockAcquire, 201),
        (InjectionPoint::PreLockRelease, 200),
        (InjectionPoint::MidInsertHeapify, 5),
        (InjectionPoint::MidDeleteHeapify, 5),
        // MarkedSpin rarely fires under plain traffic; the drill then
        // degenerates to healthy drain-and-reset, which must also hold.
        (InjectionPoint::MarkedSpin, 1),
        // Crash *during a salvage walk*: the first salvage attempt dies,
        // the queue stays poisoned, and a second attempt succeeds — this
        // path is exercised by `salvage_survives_a_crashed_salvage`.
    ] {
        cpu_salvage_drill(point, nth);
    }
}

#[test]
fn salvage_survives_a_crashed_salvage() {
    // A fault during the walk itself (SalvageWalk injection point) must
    // leave the queue poisoned-and-salvageable, not torn: the reset only
    // happens after a complete walk.
    let opts = BgpqOptions { node_capacity: 4, max_nodes: 64, ..Default::default() };
    let plan =
        Arc::new(FaultPlan::new().with_rule(InjectionPoint::SalvageWalk, 3, FaultAction::Panic));
    let platform = CpuPlatform::new(opts.max_nodes + 1).with_faults(plan.clone());
    let mut q: CpuBgpq<u32, u32> = CpuBgpq::on_platform(platform, opts);
    for i in 0..40u32 {
        q.try_insert_batch(&[Entry::new(i, i)]).unwrap();
    }

    let mut partial = Vec::new();
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        let mut w = bgpq_runtime::CpuWorker::new();
        q.inner().salvage_reset(&mut w, &mut partial)
    }));
    assert!(crashed.is_err(), "the third walked node must panic the salvage");
    assert!(plan.fired_count() >= 1);

    // Partial output must be discarded — the entries are still in
    // storage. A clean re-run recovers everything exactly once.
    let mut recovered = Vec::new();
    let report = q.salvage(&mut recovered);
    assert!(report.conserves());
    assert_eq!(report.keys_recovered, 40);
    assert_eq!(report.keys_lost, 0);
    let mut keys: Vec<u32> = recovered.iter().map(|e| e.key).collect();
    keys.sort_unstable();
    assert_eq!(keys, (0..40).collect::<Vec<_>>());
    q.inner().check_invariants();
}

type SimQueue = Arc<Bgpq<u32, u32, SimPlatform>>;

/// One simulator salvage drill: the crash-drill traffic with a panic at
/// a virtual-time-exact step; afterwards the queue and scheduler are
/// pulled out of the wreckage and `salvage_reset` runs generically (the
/// sim platform's lock force-reset does nothing — `Crit`'s unwind
/// release means none is needed).
fn sim_salvage_drill(point: InjectionPoint, nth: u64) {
    let cfg = GpuConfig::new(6, 32).with_fuzz_seed(7);
    let opts = BgpqOptions { node_capacity: 2, max_nodes: 4096, ..Default::default() };
    let plan = Arc::new(FaultPlan::new().with_rule(point, nth, FaultAction::Panic));
    type Stash = std::sync::Mutex<Option<(Arc<Scheduler>, SimQueue)>>;
    let stash: Stash = std::sync::Mutex::new(None);

    let mut offered: HashSet<u32> = HashSet::new();
    for bid in 0..6u32 {
        for i in 0..40u32 {
            let key = bid * 1_000_000 + i;
            offered.insert(key);
            offered.insert(key + 500_000);
        }
    }

    let _ = catch_unwind(AssertUnwindSafe(|| {
        launch(
            cfg,
            |sched| {
                let p = SimPlatform::new(sched, opts.max_nodes + 1, cfg.cost, cfg.block_dim)
                    .with_faults(plan.clone());
                let q: SimQueue = Arc::new(Bgpq::with_platform(p, opts).with_history());
                *stash.lock().unwrap() = Some((Arc::clone(sched), q.clone()));
                q
            },
            |ctx, q: &SimQueue| {
                let bid = ctx.block_id() as u32;
                let mut out = Vec::new();
                for i in 0..40u32 {
                    let key = bid * 1_000_000 + i;
                    if q.try_insert(
                        ctx.worker(),
                        &[Entry::new(key, bid), Entry::new(key + 500_000, bid)],
                    )
                    .is_err()
                    {
                        return;
                    }
                    if i % 2 == 1 {
                        out.clear();
                        if q.try_delete_min(ctx.worker(), &mut out, 2).is_err() {
                            return;
                        }
                    }
                }
            },
        );
    }));

    let (sched, q) = stash.lock().unwrap().take().expect("setup closure ran");
    if point != InjectionPoint::MarkedSpin {
        assert!(plan.fired_count() >= 1, "{point:?}: sim drill never reached the point");
    }

    let events = q.take_history();
    if let Some(v) = check_history(&events) {
        panic!("{point:?}: sim history does not linearize at seq {}: {}", v.seq, v.detail);
    }
    let (inserted, deleted) = committed_multisets(&events);
    let committed_outstanding: i64 = inserted.values().sum::<i64>() - deleted.values().sum::<i64>();
    let was_poisoned = q.is_poisoned();

    // All agent threads were joined by `launch` (even on the panic
    // path), so the queue is quiescent; `Crit`'s unwind-time release
    // already returned any crashed holder's locks to the arena. A fresh
    // never-begun worker is inert — salvage only uses it for fault
    // injection, and no `SalvageWalk` rule is armed here.
    let mut w = sched.worker(0);
    let mut recovered = Vec::new();
    let outcome = q.salvage_reset(&mut w, &mut recovered);

    assert_eq!(
        outcome.keys_recovered + outcome.keys_lost,
        outcome.keys_expected,
        "{point:?}: {outcome:?}"
    );
    assert_eq!(outcome.was_poisoned, was_poisoned, "{point:?}");
    assert_no_invention(&recovered, &offered, &deleted);
    assert!(
        recovered.len() as i64 >= committed_outstanding - outcome.keys_lost as i64,
        "{point:?}: silent loss on sim — {} recovered, {} outstanding, {} reported lost",
        recovered.len(),
        committed_outstanding,
        outcome.keys_lost
    );
    assert!(!q.is_poisoned(), "{point:?}: salvage must clear the poison flag");
    assert_eq!(q.len(), 0);
    q.check_invariants();
    assert!(q.stats().snapshot().salvages >= 1);
}

#[test]
fn sim_salvage_after_panic_every_injection_point() {
    for (point, nth) in [
        (InjectionPoint::PreLockAcquire, 40),
        (InjectionPoint::PostLockAcquire, 40),
        (InjectionPoint::PreLockRelease, 40),
        (InjectionPoint::MidInsertHeapify, 3),
        (InjectionPoint::MidDeleteHeapify, 3),
        (InjectionPoint::MarkedSpin, 1),
    ] {
        sim_salvage_drill(point, nth);
    }
}

mod conservation {
    use super::*;
    use pq_api::BatchPriorityQueue;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The salvage conservation identity on healthy queues:
        /// `recovered + reported_lost == inserted − deleted`, with
        /// `reported_lost == 0` at quiescence, and the recovered ∪
        /// deleted multiset equal to the inserted one.
        #[test]
        fn salvage_conserves_inserted_minus_deleted(
            keys in proptest::collection::vec(0u32..50_000, 0..300),
            delete_target in 0usize..160,
            k in 1usize..9,
        ) {
            let mut q: CpuBgpq<u32, u32> = CpuBgpq::new(BgpqOptions {
                node_capacity: k,
                max_nodes: 1 << 10,
                ..Default::default()
            });
            for chunk in keys.chunks(k) {
                let items: Vec<Entry<u32, u32>> =
                    chunk.iter().map(|&key| Entry::new(key, key)).collect();
                q.insert_batch(&items);
            }
            let mut removed = Vec::new();
            while removed.len() < delete_target {
                if q.delete_min_batch(&mut removed, k) == 0 {
                    break;
                }
            }

            let mut recovered = Vec::new();
            let report = q.salvage(&mut recovered);

            prop_assert!(report.conserves());
            prop_assert_eq!(report.keys_lost, 0, "healthy quiescent salvage loses nothing");
            prop_assert_eq!(
                report.keys_recovered + removed.len(),
                keys.len(),
                "recovered + reported_lost == inserted − deleted"
            );
            let mut got: Vec<u32> = recovered
                .iter()
                .chain(removed.iter())
                .map(|e| e.key)
                .collect();
            got.sort_unstable();
            let mut expect = keys.clone();
            expect.sort_unstable();
            prop_assert_eq!(got, expect, "recovered ∪ deleted must equal inserted");
            q.inner().check_invariants();
        }
    }
}

/// Chaos soak: a sharded front with recovery enabled, crash faults armed
/// on two shards, mixed concurrent traffic, then a pump phase that keeps
/// the router ticking until every crashed shard has been salvaged and
/// re-admitted. Ends with a full-accounting drain: zero silent key loss.
///
/// `#[ignore]`d for the default test run; the CI chaos-soak job runs it
/// explicitly under a wall-clock cap.
#[test]
#[ignore = "chaos soak: run explicitly (CI chaos-soak job)"]
fn chaos_soak_self_heals_without_silent_loss() {
    use bgpq_shard::{BreakerState, RecoveryOptions, ShardedBgpq, ShardedOptions};
    use std::sync::Mutex;

    const SHARDS: usize = 4;
    const THREADS: u32 = 4;
    const OPS: u32 = 3_000;
    let queue = BgpqOptions { node_capacity: 4, max_nodes: 512, ..Default::default() };

    // Shards 0 and 2 each carry one insert-heapify panic; both crashes
    // happen under concurrent traffic from their sticky producers.
    let plans: Vec<Option<Arc<FaultPlan>>> = (0..SHARDS)
        .map(|i| match i {
            0 => Some(Arc::new(FaultPlan::new().with_rule(
                InjectionPoint::MidInsertHeapify,
                5,
                FaultAction::Panic,
            ))),
            2 => Some(Arc::new(FaultPlan::new().with_rule(
                InjectionPoint::MidInsertHeapify,
                9,
                FaultAction::Panic,
            ))),
            _ => None,
        })
        .collect();
    let platforms: Vec<CpuPlatform> = plans
        .iter()
        .map(|p| {
            let plat =
                CpuPlatform::new(queue.max_nodes + 1).with_watchdog(Duration::from_millis(75));
            match p {
                Some(plan) => plat.with_faults(plan.clone()),
                None => plat,
            }
        })
        .collect();
    let opts = ShardedOptions::new(SHARDS, 2, queue).with_recovery(RecoveryOptions {
        base_backoff_ops: 32,
        max_backoff_ops: 512,
        trial_ops: 4,
        max_generations: 8,
    });
    let q: ShardedBgpq<u32, u32, CpuPlatform> = ShardedBgpq::with_platforms(platforms, opts);

    // Ground truth, recorded only for operations that returned Ok: keys
    // the queue definitely accepted and keys it definitely gave back.
    let accepted: Mutex<Vec<u32>> = Mutex::new(Vec::new());
    let removed: Mutex<Vec<u32>> = Mutex::new(Vec::new());
    let insert_panics = std::sync::atomic::AtomicU64::new(0);

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let q = &q;
            let accepted = &accepted;
            let removed = &removed;
            let insert_panics = &insert_panics;
            s.spawn(move || {
                let mut w = bgpq_runtime::CpuWorker::new();
                let mut rng = 0x9E37_79B9u64 + t as u64;
                for i in 0..OPS {
                    let key = t * 1_000_000 + i;
                    // Insert-heavy (3:1, net +2 keys per 4 ops): the
                    // shards must actually grow multi-level lock paths
                    // or the heapify injection points are never hit.
                    if i % 4 != 3 {
                        let batch = [Entry::new(key, t), Entry::new(key + 500_000, t)];
                        let r = catch_unwind(AssertUnwindSafe(|| {
                            q.try_insert(&mut w, t as usize, &batch)
                        }));
                        match r {
                            Ok(Ok(())) => {
                                accepted.lock().unwrap().extend(batch.iter().map(|e| e.key))
                            }
                            Ok(Err(_)) => {}
                            Err(_) => {
                                // The injected crash: the batch died with
                                // this op, but part of it may already
                                // have merged — the invention allowance.
                                insert_panics.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                        }
                    } else {
                        let r = catch_unwind(AssertUnwindSafe(|| {
                            let mut out = Vec::new();
                            let got = q.try_delete_min(&mut w, &mut rng, &mut out, 4);
                            (got, out)
                        }));
                        if let Ok((Ok(n), out)) = r {
                            assert_eq!(n, out.len());
                            removed.lock().unwrap().extend(out.iter().map(|e| e.key));
                        }
                    }
                }
            });
        }
    });

    // Both armed faults must have fired under the soak load.
    for (i, plan) in plans.iter().enumerate() {
        if let Some(p) = plan {
            assert!(p.fired_count() >= 1, "shard {i}'s fault never fired under soak load");
        }
    }

    // Pump phase: tracked single-producer traffic with rotating affinity
    // until every breaker has closed again (bounded, so a wedged breaker
    // fails loudly instead of hanging the suite).
    let mut w = bgpq_runtime::CpuWorker::new();
    let mut pumped = 0u32;
    for round in 0..40_000u32 {
        let all_closed = (0..SHARDS).all(|i| q.breaker_state(i) == BreakerState::Closed);
        if all_closed && q.quality().salvages >= 1 && q.quality().readmissions >= 1 {
            break;
        }
        assert!(round < 39_999, "breakers failed to close: {:?}", q.quality());
        let key = 9_000_000 + pumped;
        if q.try_insert(&mut w, (round as usize) % SHARDS, &[Entry::new(key, 0)]).is_ok() {
            accepted.lock().unwrap().push(key);
            pumped += 1;
        }
    }

    let quality = q.quality();
    assert!(quality.salvages >= 2, "both crashed shards must be salvaged: {quality:?}");
    assert!(quality.readmissions >= 2, "both crashed shards must re-admit: {quality:?}");
    assert!(quality.probes >= quality.salvages);
    assert_eq!(q.quarantined_count(), 0, "soak must end with every shard serving");

    // Final drain, then the books: with all shards salvaged and serving,
    // every accepted key is either returned or counted in a
    // SalvageReport (surfaced as `keys_lost`) — loss is never silent.
    let mut rng = 17u64;
    let mut out = Vec::new();
    while q.try_delete_min(&mut w, &mut rng, &mut out, 4).expect("healed front drains") > 0 {}
    removed.lock().unwrap().extend(out.iter().map(|e| e.key));

    let accepted = accepted.into_inner().unwrap();
    let removed = removed.into_inner().unwrap();
    let invention_allowance = 2 * insert_panics.load(std::sync::atomic::Ordering::Relaxed) as i64;
    let missing = accepted.len() as i64 - removed.len() as i64;
    assert!(
        missing <= quality.keys_lost as i64,
        "silent key loss: {} accepted, {} returned, only {} reported lost",
        accepted.len(),
        removed.len(),
        quality.keys_lost
    );
    assert!(
        missing >= -invention_allowance,
        "key invention beyond crashed in-flight batches: missing={missing}, \
         allowance={invention_allowance}"
    );
    // No key is fabricated or duplicated: every returned key was offered
    // exactly once (accepted, or part of a crashed batch).
    let mut offered: HashSet<u32> = accepted.iter().copied().collect();
    for t in 0..THREADS {
        for i in 0..OPS {
            let key = t * 1_000_000 + i;
            offered.insert(key);
            offered.insert(key + 500_000);
        }
    }
    let mut seen = HashSet::new();
    for k in &removed {
        assert!(offered.contains(k), "returned key {k} was never offered");
        assert!(seen.insert(*k), "key {k} returned twice");
    }

    // The healed front still serves.
    q.try_insert(&mut w, 0, &[Entry::new(1, 1)]).expect("post-soak insert");
    out.clear();
    assert_eq!(q.try_delete_min(&mut w, &mut rng, &mut out, 1).unwrap(), 1);
    assert_eq!(out[0].key, 1);
    q.check_invariants();
}

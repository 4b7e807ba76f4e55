//! Fault-driven collaboration properties.
//!
//! * A worker stalled mid-insert-heapify (holding an interior node lock,
//!   root released) must never delay an unrelated root-served DELETEMIN:
//!   the paper's hand-over-hand locking keeps the root free once the
//!   inserter has descended past it.
//! * The TARGET/MARKED protocol survives a stall injected at its most
//!   delicate point — after the insert linearized but before the target
//!   deposit — and the delete that catches the in-flight node completes
//!   by delegation, witnessed by the `MarkedSpin` injection point.
//! * One level deeper (TARGET node 8), a delete that marks the node
//!   while the inserter is stalled just after its second path lock is
//!   answered at that lock; a panic inside the answer poisons the
//!   queue and frees the spinning delete with `Poisoned`.
//! * Across fuzzed simulator schedules the collaboration path is not a
//!   rare fluke: seeds collectively force it hundreds of times, all
//!   linearizable.

use bgpq::{check_history, Bgpq, BgpqOptions, CpuBgpq};
use bgpq_runtime::{CpuPlatform, FaultAction, FaultPlan, InjectionPoint, SimPlatform};
use gpu_sim::{launch, GpuConfig};
use pq_api::{Entry, QueueError};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Build a k-capacity queue, preload three full batches so the heap has
/// nodes {root, 2, 3}, and return it. The next full-batch insert gets
/// `tar = 4`, whose heapify path (root → 2 → 4) fires `MidInsertHeapify`
/// hit 3 holding the root and hit 4 holding only node 2 — by then the
/// insert has linearized and the root lock is free.
fn preloaded(k: usize, plan: Arc<FaultPlan>, watchdog: Duration) -> CpuBgpq<u32, u32> {
    preloaded_with(k, 3, plan, watchdog)
}

/// A k-capacity queue preloaded with `batches` full batches of keys
/// `100·b + i` (b = 1..=batches).
fn preloaded_with(
    k: usize,
    batches: u32,
    plan: Arc<FaultPlan>,
    watchdog: Duration,
) -> CpuBgpq<u32, u32> {
    let opts = BgpqOptions { node_capacity: k, max_nodes: 64, ..Default::default() };
    let platform = CpuPlatform::new(opts.max_nodes + 1).with_watchdog(watchdog).with_faults(plan);
    let q = CpuBgpq::on_platform(platform, opts).with_history();
    for b in 0..batches {
        let batch: Vec<Entry<u32, u32>> =
            (0..k as u32).map(|i| Entry::new((b + 1) * 100 + i, 0)).collect();
        q.try_insert_batch(&batch).unwrap();
    }
    q
}

/// Spin until the stalled inserter has reached `MidInsertHeapify` hit 4
/// (the stall itself); the hit counter is bumped as the injection fires,
/// so from here on the inserter holds only node 2.
fn await_stall(plan: &FaultPlan) {
    let t0 = Instant::now();
    while plan.hits(InjectionPoint::MidInsertHeapify) < 4 {
        assert!(t0.elapsed() < Duration::from_secs(5), "inserter never reached the stall");
        std::thread::yield_now();
    }
}

#[test]
fn stall_after_linearization_delegates_refill_to_inserter() {
    // k = 2: a count-2 delete drains the whole root and must refill from
    // tar = heap_size = 4 — exactly the node the stalled insert owns in
    // TARGET state. The delete marks it and waits; the resumed inserter
    // deposits its keys straight into the root (MARKED branch).
    let plan = Arc::new(
        FaultPlan::new()
            .with_rule(InjectionPoint::MidInsertHeapify, 4, FaultAction::Stall { units: 250_000 })
            .with_rule(InjectionPoint::MarkedSpin, 1, FaultAction::Delay { units: 1 }),
    );
    let q = preloaded(2, plan.clone(), Duration::from_secs(2));

    std::thread::scope(|s| {
        let inserter = s.spawn(|| {
            q.try_insert_batch(&[Entry::new(400, 0), Entry::new(401, 0)]).unwrap();
        });
        await_stall(&plan);

        let mut out = Vec::new();
        let got = q.try_delete_min_batch(&mut out, 2).expect("delegated delete must succeed");
        assert_eq!(got, 2);
        assert_eq!(out.iter().map(|e| e.key).collect::<Vec<_>>(), vec![100, 101]);
        inserter.join().unwrap();
    });

    let snap = q.inner().stats().snapshot();
    assert!(snap.collaborations >= 1, "delete must have delegated via TARGET/MARKED");
    assert!(
        plan.hits(InjectionPoint::MarkedSpin) >= 1,
        "the waiting delete must have spun through the MarkedSpin injection point"
    );
    assert!(
        snap.spin_escalations >= 1,
        "a 250 ms stall outlasts SPIN_ESCALATE_AFTER cheap spins, so the wait must escalate"
    );
    assert_eq!(snap.poison_events, 0);

    // Aftermath: everything not deleted is still there, in order.
    let mut rest = Vec::new();
    while q.try_delete_min_batch(&mut rest, 2).unwrap() > 0 {}
    let mut keys: Vec<u32> = rest.iter().map(|e| e.key).collect();
    keys.sort_unstable();
    assert_eq!(keys, vec![200, 201, 300, 301, 400, 401]);
    if let Some(v) = check_history(&q.inner().take_history()) {
        panic!("history violation at seq {}: {}", v.seq, v.detail);
    }
    q.inner().check_invariants();
}

/// Seven full batches (the root and nodes 2–7): the next full-batch
/// insert reserves node 8 and heapifies through nodes 2 and 4, its
/// second path lock.
fn preloaded_deep(k: usize, plan: Arc<FaultPlan>) -> CpuBgpq<u32, u32> {
    preloaded_with(k, 7, plan, Duration::from_secs(2))
}

/// The `PostLockAcquire` hit at which the node-8 insert is granted
/// node 4: the preload's hits, then the insert's root lock, its CAS of
/// node 8 with node 2, and node 4's lock.
fn deep_grant_hit(k: usize) -> u64 {
    let plan = Arc::new(FaultPlan::new());
    preloaded_deep(k, plan.clone());
    plan.hits(InjectionPoint::PostLockAcquire) + 4
}

/// The delete's `PostLockAcquire` hits while the inserter stalls: the
/// root, then node 8's word twice (one CAS finds it TARGET, a second
/// marks it once the results are loaded).
const DELETE_MARKING_HITS: u64 = 3;

/// Run the node-8 insert, stalled at `grant` (just after it was
/// granted node 4, holding nodes 2 and 4), and a count-2 delete that
/// refills from node 8 and so marks it. Returns the delete's result
/// and the inserter's outcome.
fn deep_steal(
    q: &CpuBgpq<u32, u32>,
    plan: &FaultPlan,
    grant: u64,
) -> (Result<Vec<u32>, QueueError>, std::thread::Result<()>) {
    std::thread::scope(|s| {
        let inserter = s.spawn(|| {
            q.try_insert_batch(&[Entry::new(800, 0), Entry::new(801, 0)]).unwrap();
        });
        let t0 = Instant::now();
        while plan.hits(InjectionPoint::PostLockAcquire) < grant {
            assert!(t0.elapsed() < Duration::from_secs(5), "inserter never reached the stall");
            std::thread::yield_now();
        }
        let mut out = Vec::new();
        let got = q.try_delete_min_batch(&mut out, 2).map(|_| out.iter().map(|e| e.key).collect());
        (got, inserter.join())
    })
}

#[test]
fn marking_during_the_path_wait_is_answered_at_the_next_lock() {
    // k = 2: the delete drains the root and refills from node 8, which
    // the stalled insert holds in TARGET. The resumed inserter sees the
    // marking as it releases node 2 and hands its batch to the root
    // without running node 4's level or reaching node 8.
    let grant = deep_grant_hit(2);
    let plan = Arc::new(
        FaultPlan::new()
            .with_rule(
                InjectionPoint::PostLockAcquire,
                grant,
                FaultAction::Stall { units: 250_000 },
            )
            .with_rule(InjectionPoint::MarkedSpin, 1, FaultAction::Delay { units: 1 }),
    );
    let q = preloaded_deep(2, plan.clone());
    let (got, inserter) = deep_steal(&q, &plan, grant);
    assert_eq!(got.expect("delegated delete must succeed"), vec![100, 101]);
    inserter.unwrap();
    // The preload fired `MidInsertHeapify` 10 times and the insert twice
    // before the stall (holding the root, then node 2), and never again:
    // it answered at node 4's lock, not at node 8.
    assert_eq!(plan.hits(InjectionPoint::MidInsertHeapify), 10 + 2);

    let snap = q.inner().stats().snapshot();
    assert_eq!(snap.collaborations, 1, "delete must have delegated via TARGET/MARKED");
    assert!(plan.hits(InjectionPoint::MarkedSpin) >= 1, "the delete spun on the root");
    assert_eq!(snap.poison_events, 0);
    q.inner().check_invariants();
    let mut rest = Vec::new();
    while q.try_delete_min_batch(&mut rest, 2).unwrap() > 0 {}
    let mut keys: Vec<u32> = rest.iter().map(|e| e.key).collect();
    keys.sort_unstable();
    let want: Vec<u32> = (2..=8).flat_map(|b| [b * 100, b * 100 + 1]).collect();
    assert_eq!(keys, want, "every other key is still there");
    if let Some(v) = check_history(&q.inner().take_history()) {
        panic!("history violation at seq {}: {}", v.seq, v.detail);
    }
    q.inner().check_invariants();
}

#[test]
fn panic_inside_the_next_lock_answer_poisons_and_frees_the_spinning_delete() {
    // As above, but the inserter panics as it takes node 8's word for
    // the answer: the queue is poisoned, and the delete spinning on the
    // root returns `Poisoned` instead of waiting for a refill that will
    // never come.
    let grant = deep_grant_hit(2);
    let plan = Arc::new(
        FaultPlan::new()
            .with_rule(
                InjectionPoint::PostLockAcquire,
                grant,
                FaultAction::Stall { units: 250_000 },
            )
            .with_rule(
                InjectionPoint::PostLockAcquire,
                grant + DELETE_MARKING_HITS + 1,
                FaultAction::Panic,
            ),
    );
    let q = preloaded_deep(2, plan.clone());
    let t0 = Instant::now();
    let (got, inserter) = deep_steal(&q, &plan, grant);
    assert!(matches!(got, Err(QueueError::Poisoned)), "spinning delete must fail, got {got:?}");
    assert!(t0.elapsed() < Duration::from_secs(2), "the delete must not wedge");
    let msg = inserter.expect_err("the inserter panicked inside the answer");
    let msg = msg.downcast_ref::<String>().map(String::as_str).unwrap_or("");
    assert!(msg.contains("injected fault: panic at PostLockAcquire"), "{msg}");
    assert_eq!(plan.fired_count(), 2);
    assert!(q.inner().is_poisoned());
    assert_eq!(q.inner().stats().snapshot().collaborations, 0, "the answer never completed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Root-served deletes (count < root_len) touch only the root lock,
    /// so a stalled inserter parked on an interior node must not delay
    /// them anywhere near the watchdog bound, let alone the stall length.
    #[test]
    fn stalled_inserter_never_blocks_unrelated_delete(count in 1usize..8, salt in 0u32..1000) {
        let k = 8;
        let plan = Arc::new(FaultPlan::new().with_rule(
            InjectionPoint::MidInsertHeapify,
            4,
            FaultAction::Stall { units: 300_000 },
        ));
        let q = preloaded(k, plan.clone(), Duration::from_millis(100));

        std::thread::scope(|s| {
            let inserter = s.spawn(|| {
                let batch: Vec<Entry<u32, u32>> =
                    (0..k as u32).map(|i| Entry::new(400 + salt + i, 0)).collect();
                q.try_insert_batch(&batch).unwrap();
            });
            await_stall(&plan);

            let mut out = Vec::new();
            let t0 = Instant::now();
            let got = q.try_delete_min_batch(&mut out, count);
            let elapsed = t0.elapsed();
            prop_assert!(
                matches!(got, Ok(n) if n == count),
                "root-served delete failed: {got:?}"
            );
            prop_assert!(
                elapsed < Duration::from_millis(150),
                "unrelated delete took {elapsed:?} during a 300 ms stall"
            );
            inserter.join().unwrap();
            Ok(())
        })?;

        // Conservation: 4 batches went in, `count` keys came out.
        let mut rest = Vec::new();
        while q.try_delete_min_batch(&mut rest, k).unwrap() > 0 {}
        prop_assert_eq!(rest.len(), 4 * k - count);
        if let Some(v) = check_history(&q.inner().take_history()) {
            return Err(TestCaseError::fail(format!(
                "history violation at seq {}: {}",
                v.seq, v.detail
            )));
        }
        q.inner().check_invariants();
    }
}

/// Fuzzed simulator schedules force the TARGET/MARKED path en masse:
/// k = 1 makes every insert heapify to a TARGET node and every delete
/// refill from the youngest node, so across a handful of seeds the
/// collaboration count reaches triple digits — every run linearizable,
/// with a benign `MarkedSpin` delay injected to wobble the wait loop.
#[test]
fn sim_seed_sweep_forces_mass_collaboration() {
    type SimQueue = Arc<Bgpq<u32, u32, SimPlatform>>;
    let mut total = 0u64;
    for seed in 0..16u64 {
        let cfg = GpuConfig::new(8, 32).with_fuzz_seed(seed);
        let opts = BgpqOptions { node_capacity: 1, max_nodes: 8192, ..Default::default() };
        let plan = Arc::new(FaultPlan::new().with_rule(
            InjectionPoint::MarkedSpin,
            1,
            FaultAction::Delay { units: 3 },
        ));
        let (_report, q) = launch(
            cfg,
            |sched| -> SimQueue {
                let p = SimPlatform::new(sched, opts.max_nodes + 1, cfg.cost, cfg.block_dim)
                    .with_faults(plan.clone());
                Arc::new(Bgpq::with_platform(p, opts).with_history())
            },
            |ctx, q: &SimQueue| {
                let bid = ctx.block_id() as u32;
                let mut out = Vec::new();
                for i in 0..60u32 {
                    q.try_insert(ctx.worker(), &[Entry::new(i * 8 + bid, 0)]).unwrap();
                    out.clear();
                    q.try_delete_min(ctx.worker(), &mut out, 1).unwrap();
                }
            },
        );
        let snap = q.stats().snapshot();
        total += snap.collaborations;
        assert_eq!(snap.poison_events, 0, "seed {seed}: benign delay must not poison");
        if let Some(v) = check_history(&q.take_history()) {
            panic!("seed {seed}: history violation at seq {}: {}", v.seq, v.detail);
        }
        q.check_invariants();
    }
    eprintln!("total collaborations across seeds: {total}");
    assert!(total >= 100, "expected ≥ 100 collaborations across seeds, got {total}");
}

// The drills above stall *after* the linearization point; this one
// stalls *before* it (hit 3 holds the root) and checks the other side of
// the contract: a concurrent delete cleanly times out against the
// watchdog with `LockTimeout` — a retryable error, not poison.
#[test]
fn stall_before_linearization_times_out_cleanly() {
    let plan = Arc::new(FaultPlan::new().with_rule(
        InjectionPoint::MidInsertHeapify,
        3,
        FaultAction::Stall { units: 250_000 },
    ));
    let q = preloaded(2, plan.clone(), Duration::from_millis(60));

    std::thread::scope(|s| {
        let inserter = s.spawn(|| {
            q.try_insert_batch(&[Entry::new(400, 0), Entry::new(401, 0)]).unwrap();
        });
        let t0 = Instant::now();
        while plan.hits(InjectionPoint::MidInsertHeapify) < 3 {
            assert!(t0.elapsed() < Duration::from_secs(5));
            std::thread::yield_now();
        }

        let mut out = Vec::new();
        let r = q.try_delete_min_batch(&mut out, 1);
        assert!(
            matches!(r, Err(QueueError::LockTimeout { .. })),
            "delete against a stalled root holder must time out cleanly, got {r:?}"
        );
        assert!(out.is_empty(), "failed delete must not emit keys");
        inserter.join().unwrap();
    });

    assert!(!q.inner().is_poisoned(), "a timeout is not a failure of the queue itself");
    assert!(q.inner().stats().snapshot().lock_timeouts >= 1);

    // The stalled insert eventually completed; nothing was lost.
    let mut rest = Vec::new();
    while q.try_delete_min_batch(&mut rest, 2).unwrap() > 0 {}
    assert_eq!(rest.len(), 8);
    if let Some(v) = check_history(&q.inner().take_history()) {
        panic!("history violation at seq {}: {}", v.seq, v.detail);
    }
    q.inner().check_invariants();
}

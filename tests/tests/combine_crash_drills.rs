//! Crash drills through the coalescing front: PR 2's fault points fire
//! *inside batched backend calls issued by a combiner serving other
//! threads' requests*, which is exactly where a combining design can
//! wedge — a crashed combiner must not strand parked submitters.
//!
//! Contract under test (ISSUE 6): a poisoned backend surfaces to every
//! submitter as `QueueError::Poisoned`; no submitter ever blocks
//! forever; the injected panic itself never unwinds a submitting
//! thread (the front converts it to the typed error).

use bgpq::{Bgpq, BgpqOptions, CpuBgpq};
use bgpq_combine::{CombineShared, Combiner, CombinerOptions, Op, WorkerBackend};
use bgpq_runtime::{CpuPlatform, FaultAction, FaultPlan, InjectionPoint, SimPlatform};
use gpu_sim::{launch, GpuConfig};
use pq_api::{Entry, QueueError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One CPU drill: four threads of single-op traffic through the
/// combiner against a backend whose platform fires `action` at the
/// `nth` hit of `point`. Returns whether the front ended up poisoned.
///
/// Note there is deliberately **no** `catch_unwind` in the submitter
/// threads: the front must contain the backend's panic and hand every
/// thread a typed error instead.
fn cpu_combine_drill(point: InjectionPoint, nth: u64, action: FaultAction) -> bool {
    let opts = BgpqOptions { node_capacity: 4, max_nodes: 1 << 10, ..Default::default() };
    let plan = Arc::new(FaultPlan::new().with_rule(point, nth, action));
    let platform = CpuPlatform::new(opts.max_nodes + 1)
        .with_watchdog(Duration::from_millis(75))
        .with_faults(plan.clone());
    let q = Combiner::wrap(CpuBgpq::<u32, u32>::on_platform(platform, opts));

    let poisoned_seen = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..4u32 {
            let q = &q;
            let poisoned_seen = &poisoned_seen;
            s.spawn(move || {
                for i in 0..400u32 {
                    let key = t * 1_000_000 + i;
                    let r = if i % 4 != 3 {
                        q.try_insert(key, t)
                    } else {
                        q.try_delete_min().map(|_| ())
                    };
                    match r {
                        Ok(()) | Err(QueueError::Full { .. }) => {}
                        Err(QueueError::Poisoned) => {
                            poisoned_seen.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                        // A watchdog timeout is per-operation: the
                        // front stays live and the next op may work.
                        Err(QueueError::LockTimeout { .. }) => {}
                        // Tripped-front fast-fail; every PROBE_INTERVAL-th
                        // submission still probes and reports Poisoned.
                        Err(QueueError::Unavailable) => {}
                    }
                }
            });
        }
    });
    // Reaching here is the no-hang claim for every drill variant.

    assert!(
        plan.fired_count() >= 1,
        "{point:?}/{action:?}: combined load never reached the injection point"
    );
    if q.is_poisoned() {
        // Fail-stop through the front: immediate typed refusal for
        // both kinds (fast-fail `Unavailable`, or `Poisoned` when the
        // submission lands on a probe ticket), and at least one
        // in-flight submitter saw the poison itself.
        assert!(matches!(
            q.try_insert(1, 0),
            Err(QueueError::Poisoned) | Err(QueueError::Unavailable)
        ));
        assert!(matches!(
            q.try_delete_min(),
            Err(QueueError::Poisoned) | Err(QueueError::Unavailable)
        ));
        assert!(q.stats().snapshot().poison_events >= 1);
        assert!(poisoned_seen.load(Ordering::Relaxed) >= 1);
        // The backend itself may or may not be poisoned: a pre-entry
        // panic (e.g. PreLockAcquire) dies before the heap's Crit
        // guard engages, leaving the heap healthy. The front still
        // poisons conservatively — it cannot know which of the
        // round's requests committed.
    } else {
        // Healthy survivor (stall variants): the front still serves.
        q.try_insert(42, 0).expect("surviving front serves inserts");
        assert!(q.try_delete_min().expect("surviving front serves deletes").is_some());
    }
    q.is_poisoned()
}

#[test]
fn cpu_combined_panic_drills_poison_not_hang() {
    let mut any_poisoned = false;
    for (point, nth) in [
        (InjectionPoint::PreLockAcquire, 151),
        (InjectionPoint::PostLockAcquire, 151),
        (InjectionPoint::PreLockRelease, 150),
        (InjectionPoint::MidInsertHeapify, 5),
        (InjectionPoint::MidDeleteHeapify, 5),
    ] {
        any_poisoned |= cpu_combine_drill(point, nth, FaultAction::Panic);
    }
    assert!(any_poisoned, "panic drills must poison through the front at least once");
}

#[test]
fn cpu_combined_stall_drills_time_out_not_hang() {
    // 150 ms stall against a 75 ms watchdog: submitters see LockTimeout
    // (or a mid-op poison) but never hang, with the combiner parked
    // between them and the stalled backend.
    for (point, nth) in [
        (InjectionPoint::PreLockAcquire, 151),
        (InjectionPoint::PostLockAcquire, 151),
        (InjectionPoint::MidInsertHeapify, 5),
        (InjectionPoint::MidDeleteHeapify, 5),
    ] {
        cpu_combine_drill(point, nth, FaultAction::Stall { units: 150_000 });
    }
}

// ---------------------------------------------------------------------
// Simulator drill: polling waiters against a crashing backend.
// ---------------------------------------------------------------------

type SimState = (Arc<Bgpq<u32, u32, SimPlatform>>, CombineShared<u32, u32>, AtomicU64);

/// A panic injected inside a combiner-issued batch on the simulator:
/// the front converts it to `Poisoned` for every polling agent and the
/// launch completes — the injected death never escapes the engine.
#[test]
fn sim_combined_panic_drill_completes_with_typed_errors() {
    let cfg = GpuConfig::new(4, 32).with_fuzz_seed(23);
    let opts = BgpqOptions { node_capacity: 4, max_nodes: 1 << 10, ..Default::default() };
    let plan = Arc::new(FaultPlan::new().with_rule(
        InjectionPoint::MidInsertHeapify,
        3,
        FaultAction::Panic,
    ));

    let (_report, st) = launch(
        cfg,
        |sched| {
            let p = SimPlatform::new(sched, opts.max_nodes + 1, cfg.cost, cfg.block_dim)
                .with_faults(plan.clone());
            let q = Arc::new(Bgpq::with_platform(p, opts));
            let front = CombineShared::new(q.node_capacity(), CombinerOptions::default());
            let st: SimState = (q, front, AtomicU64::new(0));
            st
        },
        |ctx, st: &SimState| {
            let lane = ctx.block_id();
            let mut backend = WorkerBackend::new(&st.0, ctx.worker(), lane);
            let bid = lane as u32;
            for i in 0..80u32 {
                let r = if i % 3 == 2 {
                    st.1.submit(&mut backend, Op::DeleteMin).map(|_| ())
                } else {
                    st.1.submit(&mut backend, Op::Insert(Entry::new(bid * 1000 + i, bid)))
                        .map(|_| ())
                };
                match r {
                    Ok(()) | Err(QueueError::Full { .. }) => {}
                    Err(QueueError::Poisoned) => {
                        st.2.fetch_add(1, Ordering::Relaxed);
                        return; // graceful fail-stop, agent exits cleanly
                    }
                    Err(QueueError::LockTimeout { .. }) => {}
                    // Tripped-front fast-fail: keep polling — a later
                    // probe ticket surfaces the underlying Poisoned.
                    Err(QueueError::Unavailable) => {}
                }
            }
        },
    );

    // The launch returned at all (no deadlocked agents), the fault
    // fired, and every consequence was a typed error.
    assert!(plan.fired_count() >= 1, "sim drill never reached the injection point");
    let (q, front, poisoned_agents) = st;
    assert!(q.is_poisoned(), "injected heapify panic must poison the sim heap");
    assert!(front.is_poisoned(), "backend poison must propagate to the front");
    assert!(
        poisoned_agents.load(Ordering::Relaxed) >= 1,
        "at least one polling agent observed Poisoned"
    );
    // Late submissions keep failing fast rather than touching the dead
    // heap — checked via the front's flag since all agents retired.
    assert!(front.stats().snapshot().poison_events >= 1);
}

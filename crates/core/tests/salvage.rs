//! Core-level salvage semantics: `Bgpq::salvage_reset` walks settled
//! keys out of node storage and resets the queue, on healthy and
//! poisoned instances alike, after force-resetting the lock words a
//! crashed worker abandoned.

use bgpq::{Bgpq, BgpqOptions, CpuBgpq};
use bgpq_runtime::{CpuPlatform, CpuWorker, FaultAction, FaultPlan, InjectionPoint};
use pq_api::{BatchPriorityQueue, Entry, QueueError};
use std::sync::Arc;
use std::time::Duration;

fn opts(k: usize, max_nodes: usize) -> BgpqOptions {
    BgpqOptions { node_capacity: k, max_nodes, ..Default::default() }
}

#[test]
fn healthy_queue_salvages_to_its_exact_contents() {
    let q: CpuBgpq<u32, u32> = CpuBgpq::new(opts(4, 64));
    let keys: Vec<u32> = (0..37).map(|i| (i * 7919) % 1000).collect();
    for chunk in keys.chunks(3) {
        q.insert_batch(&chunk.iter().map(|&k| Entry::new(k, k)).collect::<Vec<_>>());
    }
    let mut out = Vec::new();
    q.delete_min_batch(&mut out, 4);
    out.clear();

    let mut w = CpuWorker::new();
    let outcome = q.inner().salvage_reset(&mut w, &mut out);
    assert!(!outcome.was_poisoned);
    assert_eq!(outcome.keys_recovered, keys.len() - 4);
    assert_eq!(outcome.keys_expected, keys.len() - 4);
    assert_eq!(outcome.keys_lost, 0, "quiescent healthy salvage loses nothing");

    let mut expect: Vec<u32> = keys.clone();
    expect.sort_unstable();
    let mut got: Vec<u32> = out.iter().map(|e| e.key).collect();
    got.sort_unstable();
    assert_eq!(got, expect[4..].to_vec(), "salvage returns the exact multiset");

    // The queue is reset to a working empty state.
    assert_eq!(q.len(), 0);
    q.inner().check_invariants();
    q.insert_batch(&[Entry::new(5, 5)]);
    out.clear();
    assert_eq!(q.delete_min_batch(&mut out, 1), 1);
    assert_eq!(q.inner().stats().snapshot().salvages, 1);
}

#[test]
fn poisoned_queue_salvages_and_serves_again() {
    // Panic a worker mid delete-heapify so the queue poisons with keys
    // stranded inside the heap body.
    let plan = Arc::new(FaultPlan::new().with_rule(
        InjectionPoint::MidDeleteHeapify,
        2,
        FaultAction::Panic,
    ));
    let platform =
        CpuPlatform::new(129).with_watchdog(Duration::from_millis(200)).with_faults(plan.clone());
    let q: CpuBgpq<u32, u32> = CpuBgpq::on_platform(platform, opts(4, 128));

    let total = 200u32;
    q.insert_batch(&(0..total).map(|i| Entry::new(i, i)).collect::<Vec<_>>()[..4]);
    for chunk in (4..total).collect::<Vec<_>>().chunks(4) {
        q.insert_batch(&chunk.iter().map(|&k| Entry::new(k, k)).collect::<Vec<_>>());
    }
    let mut deleted: Vec<Entry<u32, u32>> = Vec::new();
    let mut poisoned = false;
    for _ in 0..total {
        // The injected fault panics the calling worker (as in a real
        // crash); the RAII guard poisons the queue on the way out.
        let step = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut batch = Vec::new();
            let r = q.try_delete_min_batch(&mut batch, 4);
            (r, batch)
        }));
        match step {
            Ok((Ok(0), _)) => break,
            Ok((Ok(_), batch)) => deleted.extend(batch),
            Ok((Err(_), _)) | Err(_) => {
                poisoned = true;
                break;
            }
        }
    }
    assert!(poisoned, "injected panic must surface");
    assert!(q.inner().is_poisoned());
    assert_eq!(q.try_insert_batch(&[Entry::new(1, 1)]), Err(QueueError::Poisoned));

    // Salvage releases the locks the crashed worker may have held,
    // then walks and resets.
    let mut out = Vec::new();
    let mut w = CpuWorker::new();
    let outcome = q.inner().salvage_reset(&mut w, &mut out);
    assert!(outcome.was_poisoned);
    assert!(outcome.keys_recovered > 0, "settled keys are recoverable");
    assert_eq!(outcome.keys_recovered, out.len());

    // Conservation, conservatively: recovered + reported-lost covers
    // everything not already returned to callers.
    assert_eq!(outcome.keys_recovered + outcome.keys_lost, outcome.keys_expected);
    assert!(
        deleted.len() + outcome.keys_recovered <= total as usize,
        "salvage must never invent keys"
    );
    // No duplicates between what callers got and what salvage found.
    let mut all: Vec<u32> =
        deleted.iter().map(|e| e.key).chain(out.iter().map(|e| e.key)).collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), deleted.len() + out.len(), "a key was double-counted");

    // Back in service.
    assert!(!q.inner().is_poisoned());
    q.inner().check_invariants();
    q.insert_batch(&[Entry::new(9, 9), Entry::new(2, 2)]);
    out.clear();
    assert_eq!(q.delete_min_batch(&mut out, 2), 2);
    assert_eq!(out[0].key, 2);
}

#[test]
fn salvage_skips_inflight_target_nodes_and_reports_them() {
    // Build a queue, then hand-poison it with a node frozen in TARGET
    // state (as an inserter that died right after reserving it leaves
    // it). Reach in via the generic heap on a raw platform.
    let o = opts(2, 16);
    let platform = CpuPlatform::new(o.max_nodes + 1);
    let q: Bgpq<u32, u32, CpuPlatform> = Bgpq::with_platform(platform, o);
    let mut w = CpuWorker::new();
    for i in 0..5 {
        q.insert(&mut w, &[Entry::new(i * 2, 0), Entry::new(i * 2 + 1, 0)]);
    }
    let settled = q.len();

    // A crashed inserter: panic exactly when the target node is
    // reserved (first MidInsertHeapify hit has TARGET set).
    let plan = Arc::new(FaultPlan::new().with_rule(
        InjectionPoint::MidInsertHeapify,
        1,
        FaultAction::Panic,
    ));
    let platform2 = CpuPlatform::new(17).with_faults(plan);
    let q2: Bgpq<u32, u32, CpuPlatform> = Bgpq::with_platform(platform2, opts(2, 16));
    let mut lost_batch = false;
    for i in 0..12u32 {
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut w2 = CpuWorker::new();
            q2.insert(&mut w2, &[Entry::new(100 + i, 0), Entry::new(200 + i, 0)]);
        }));
        if r.is_err() {
            lost_batch = true;
            break;
        }
    }
    assert!(lost_batch, "fault plan must kill one insert");
    assert!(q2.is_poisoned());
    let mut out = Vec::new();
    let outcome = q2.salvage_reset(&mut w, &mut out);
    assert!(outcome.nodes_skipped_target >= 1, "the reserved TARGET node is visible: {outcome:?}");
    assert!(outcome.keys_lost >= 2, "the in-flight batch is accounted lost, not silent");

    // And the first (healthy) queue still reports zero skips.
    let mut out1 = Vec::new();
    let o1 = q.salvage_reset(&mut w, &mut out1);
    assert_eq!(o1.nodes_skipped_target + o1.nodes_skipped_marked, 0);
    assert_eq!(o1.keys_recovered, settled);
}

#[test]
fn salvage_walk_injection_point_can_refault_and_resalvage() {
    // A fault during the salvage walk unwinds before the reset — the
    // queue stays poisoned and a second salvage still recovers all.
    let o = opts(2, 32);
    let plan =
        Arc::new(FaultPlan::new().with_rule(InjectionPoint::SalvageWalk, 2, FaultAction::Panic));
    let platform = CpuPlatform::new(o.max_nodes + 1).with_faults(plan);
    let q: Bgpq<u32, u32, CpuPlatform> = Bgpq::with_platform(platform, o);
    let mut w = CpuWorker::new();
    for i in 0..10u32 {
        q.insert(&mut w, &[Entry::new(i, i), Entry::new(i + 50, i)]);
    }
    let settled = q.len();

    let mut out: Vec<Entry<u32, u32>> = Vec::new();
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut w2 = CpuWorker::new();
        let mut partial = Vec::new();
        q.salvage_reset(&mut w2, &mut partial);
    }));
    assert!(r.is_err(), "salvage-walk fault fires");
    assert_eq!(q.stats().snapshot().salvages, 0, "aborted walk is not a salvage");

    // Storage untouched: a re-run recovers the full multiset.
    let outcome = q.salvage_reset(&mut w, &mut out);
    assert_eq!(outcome.keys_recovered, settled);
    assert_eq!(outcome.keys_lost, 0);
    assert_eq!(q.stats().snapshot().salvages, 1);
    q.check_invariants();
}

//! Single-threaded stress tests for the batched heap: every code path
//! (buffer absorb, buffer overflow, root refill, buffer refill,
//! heapify descent) against a reference model, with invariant checks.

use bgpq::{BgpqOptions, CpuBgpq};
use pq_api::{BatchPriorityQueue, Entry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BinaryHeap;

fn opts(k: usize, max_nodes: usize) -> BgpqOptions {
    BgpqOptions { node_capacity: k, max_nodes, ..Default::default() }
}

/// Reference: std binary heap as a min-queue over keys.
#[derive(Default)]
struct Model {
    heap: BinaryHeap<std::cmp::Reverse<u32>>,
}

impl Model {
    fn insert(&mut self, keys: &[u32]) {
        for &k in keys {
            self.heap.push(std::cmp::Reverse(k));
        }
    }
    fn delete(&mut self, n: usize) -> Vec<u32> {
        (0..n).filter_map(|_| self.heap.pop().map(|r| r.0)).collect()
    }
    fn len(&self) -> usize {
        self.heap.len()
    }
}

fn drive(k: usize, ops: usize, seed: u64, max_nodes: usize) {
    let q: CpuBgpq<u32, u32> = CpuBgpq::new(opts(k, max_nodes));
    let mut model = Model::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for step in 0..ops {
        if rng.gen_bool(0.55) || model.len() == 0 {
            let n = rng.gen_range(1..=k);
            let items: Vec<Entry<u32, u32>> = (0..n)
                .map(|_| {
                    let key = rng.gen_range(0..1u32 << 30);
                    Entry::new(key, key.wrapping_mul(31))
                })
                .collect();
            model.insert(&items.iter().map(|e| e.key).collect::<Vec<_>>());
            q.insert_batch(&items);
        } else {
            let n = rng.gen_range(1..=k);
            out.clear();
            let got = q.delete_min_batch(&mut out, n);
            let expect = model.delete(n);
            assert_eq!(got, expect.len(), "step {step}: wrong count");
            let got_keys: Vec<u32> = out.iter().map(|e| e.key).collect();
            assert_eq!(got_keys, expect, "step {step}: wrong keys");
            // Values must still correspond to their keys.
            for e in &out {
                assert_eq!(e.value, e.key.wrapping_mul(31), "step {step}: value detached from key");
            }
        }
        assert_eq!(q.len(), model.len(), "step {step}: length drift");
    }
    q.inner().check_invariants();
    // Drain fully and verify global sorted order.
    let mut rest = Vec::new();
    while q.delete_min_batch(&mut rest, k) > 0 {}
    let rest_keys: Vec<u32> = rest.iter().map(|e| e.key).collect();
    let expect = model.delete(model.len());
    assert_eq!(rest_keys, expect, "drain mismatch");
    assert_eq!(q.inner().check_invariants(), 0);
}

#[test]
fn random_ops_k4() {
    drive(4, 3000, 42, 256);
}

#[test]
fn random_ops_k1_degenerate_classic_heap() {
    drive(1, 1500, 7, 2048);
}

#[test]
fn random_ops_k16() {
    drive(16, 1500, 99, 256);
}

#[test]
fn random_ops_k3_non_power_of_two() {
    drive(3, 2000, 1234, 512);
}

#[test]
fn random_ops_k64_large_batches() {
    drive(64, 600, 5, 64);
}

#[test]
fn ascending_then_drain() {
    let q: CpuBgpq<u32, ()> = CpuBgpq::new(opts(8, 128));
    for chunk in (0..512u32).collect::<Vec<_>>().chunks(8) {
        let items: Vec<Entry<u32, ()>> = chunk.iter().map(|&k| Entry::new(k, ())).collect();
        q.insert_batch(&items);
    }
    q.inner().check_invariants();
    let mut out = Vec::new();
    while q.delete_min_batch(&mut out, 8) > 0 {}
    let keys: Vec<u32> = out.iter().map(|e| e.key).collect();
    assert_eq!(keys, (0..512).collect::<Vec<_>>());
}

#[test]
fn descending_then_drain() {
    let q: CpuBgpq<u32, ()> = CpuBgpq::new(opts(8, 128));
    for chunk in (0..512u32).rev().collect::<Vec<_>>().chunks(8) {
        let items: Vec<Entry<u32, ()>> = chunk.iter().map(|&k| Entry::new(k, ())).collect();
        q.insert_batch(&items);
    }
    let mut out = Vec::new();
    while q.delete_min_batch(&mut out, 8) > 0 {}
    let keys: Vec<u32> = out.iter().map(|e| e.key).collect();
    assert_eq!(keys, (0..512).collect::<Vec<_>>());
}

#[test]
fn duplicate_keys_everywhere() {
    let q: CpuBgpq<u32, u32> = CpuBgpq::new(opts(4, 64));
    for i in 0..32u32 {
        q.insert_batch(&[Entry::new(7, i), Entry::new(7, i + 100), Entry::new(3, i + 200)]);
    }
    let mut out = Vec::new();
    while q.delete_min_batch(&mut out, 4) > 0 {}
    assert_eq!(out.len(), 96);
    assert!(out[..32].iter().all(|e| e.key == 3));
    assert!(out[32..].iter().all(|e| e.key == 7));
}

#[test]
fn delete_from_empty_returns_zero() {
    let q: CpuBgpq<u32, ()> = CpuBgpq::new(opts(4, 16));
    let mut out = Vec::new();
    assert_eq!(q.delete_min_batch(&mut out, 4), 0);
    assert!(out.is_empty());
    // Insert then over-delete.
    q.insert_batch(&[Entry::new(1, ()), Entry::new(2, ())]);
    assert_eq!(q.delete_min_batch(&mut out, 4), 2);
    assert_eq!(q.delete_min_batch(&mut out, 1), 0);
}

#[test]
fn interleaved_refill_from_buffer_only() {
    // Keep fewer than k keys around so everything lives in root+buffer.
    let q: CpuBgpq<u32, ()> = CpuBgpq::new(opts(8, 16));
    let mut out = Vec::new();
    for round in 0..50u32 {
        q.insert_batch(&[Entry::new(round * 2, ()), Entry::new(round * 2 + 1, ())]);
        out.clear();
        assert_eq!(q.delete_min_batch(&mut out, 2), 2);
        assert_eq!(out[0].key, round * 2);
        assert_eq!(out[1].key, round * 2 + 1);
        q.inner().check_invariants();
    }
    assert!(q.is_empty());
}

#[test]
fn stats_reflect_buffering_and_heapifies() {
    let q: CpuBgpq<u32, ()> = CpuBgpq::new(opts(8, 64));
    // 7 single-key inserts fit the buffer (7 < 8).
    for i in 0..7u32 {
        q.insert_batch(&[Entry::new(i, ())]);
    }
    let s = q.inner().stats().snapshot();
    assert_eq!(s.inserts, 7);
    assert_eq!(s.inserts_buffered, 7);
    assert_eq!(s.insert_heapifies, 0);
    // Two more overflow the buffer exactly once.
    q.insert_batch(&[Entry::new(100, ()), Entry::new(101, ())]);
    let s = q.inner().stats().snapshot();
    assert_eq!(s.insert_heapifies, 1);
}

#[test]
fn history_recording_sequential() {
    let q: CpuBgpq<u32, ()> = CpuBgpq::new(opts(4, 64)).with_history();
    let mut rng = StdRng::seed_from_u64(3);
    let mut out = Vec::new();
    for _ in 0..500 {
        if rng.gen_bool(0.5) {
            let n = rng.gen_range(1..=4usize);
            let items: Vec<Entry<u32, ()>> =
                (0..n).map(|_| Entry::new(rng.gen_range(0..1000), ())).collect();
            q.insert_batch(&items);
        } else {
            out.clear();
            q.delete_min_batch(&mut out, rng.gen_range(1..=4));
        }
    }
    let events = q.inner().take_history();
    assert!(bgpq::check_history(&events).is_none(), "sequential history must linearize");
}

#[test]
fn capacity_overflow_panics_with_clear_message() {
    let q: CpuBgpq<u32, ()> = CpuBgpq::new(opts(2, 2));
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for i in 0..64u32 {
            q.insert_batch(&[Entry::new(i, ()), Entry::new(i + 1, ())]);
        }
    }));
    let err = r.expect_err("must overflow");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("out of node slots"), "got: {msg}");
}

#[test]
fn large_sequential_run_matches_model() {
    drive(32, 800, 2024, 128);
}

#[test]
fn drain_returns_everything_sorted() {
    use bgpq_runtime::CpuWorker;
    let q: CpuBgpq<u32, u32> = CpuBgpq::new(opts(8, 64));
    let mut rng = StdRng::seed_from_u64(77);
    for _ in 0..20 {
        let items: Vec<Entry<u32, u32>> =
            (0..8).map(|_| Entry::new(rng.gen_range(0..1000), 0)).collect();
        q.insert_batch(&items);
    }
    let mut out = Vec::new();
    let mut w = CpuWorker::new();
    let n = q.inner().drain(&mut w, &mut out);
    assert_eq!(n, 160);
    assert!(out.windows(2).all(|p| p[0].key <= p[1].key));
    assert!(q.is_empty());
    assert_eq!(q.inner().drain(&mut w, &mut out), 0, "second drain finds nothing");
}

#[test]
fn clear_empties_the_queue() {
    use bgpq_runtime::CpuWorker;
    let q: CpuBgpq<u32, ()> = CpuBgpq::new(opts(4, 64));
    for i in 0..30u32 {
        q.insert_batch(&[Entry::new(i, ()), Entry::new(i + 100, ())]);
    }
    let mut w = CpuWorker::new();
    assert_eq!(q.inner().clear(&mut w), 60);
    assert!(q.is_empty());
    assert_eq!(q.inner().check_invariants(), 0);
    // Queue remains usable after clear.
    q.insert_batch(&[Entry::new(5, ())]);
    assert_eq!(q.len(), 1);
}

#[test]
fn delete_up_to_spans_multiple_node_batches() {
    use bgpq_runtime::CpuWorker;
    let q: CpuBgpq<u32, u32> = CpuBgpq::new(opts(4, 64));
    let mut w = CpuWorker::new();
    let keys: Vec<Entry<u32, u32>> = (0..30u32).rev().map(|k| Entry::new(k, k)).collect();
    for batch in keys.chunks(4) {
        q.inner().insert(&mut w, batch);
    }
    let mut out = Vec::new();
    // Wider than k: three full inner batches plus a partial one.
    let got = q.inner().try_delete_up_to(&mut w, &mut out, 14).unwrap();
    assert_eq!(got, 14);
    assert_eq!(out.iter().map(|e| e.key).collect::<Vec<_>>(), (0..14).collect::<Vec<_>>());
    // Short queue: stops early with whatever is left.
    out.clear();
    let got = q.inner().try_delete_up_to(&mut w, &mut out, 100).unwrap();
    assert_eq!(got, 16);
    assert!(q.is_empty());
    // Empty queue: Ok(0), nothing appended.
    out.clear();
    assert_eq!(q.inner().try_delete_up_to(&mut w, &mut out, 9).unwrap(), 0);
    assert!(out.is_empty());
}

#[test]
fn capacity_accessor() {
    let q: CpuBgpq<u32, ()> = CpuBgpq::new(opts(8, 16));
    assert_eq!(q.inner().capacity_items(), 8 * 16);
}

#[test]
fn queue_survives_capacity_panic() {
    // The capacity-exceeded panic must release the root lock so the
    // queue remains usable (keys beyond capacity are dropped).
    let q: CpuBgpq<u32, ()> = CpuBgpq::new(opts(2, 3));
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for i in 0..64u32 {
            q.insert_batch(&[Entry::new(i, ()), Entry::new(i + 1, ())]);
        }
    }));
    assert!(r.is_err(), "must hit the capacity panic");
    // Subsequent operations still work — the root lock was released.
    let mut out = Vec::new();
    let got = q.delete_min_batch(&mut out, 2);
    assert!(got > 0, "queue must remain usable after a capacity panic");
    while q.delete_min_batch(&mut out, 2) > 0 {}
    assert!(q.is_empty());
    q.insert_batch(&[Entry::new(9, ())]);
    assert_eq!(q.len(), 1);
}

// ----------------------------------------------------------------------
// Failure hardening: try_* APIs, backpressure, poisoning
// ----------------------------------------------------------------------

#[test]
fn try_insert_full_loses_no_keys() {
    // k = 2, max_nodes = 2 → 4 heap slots + 1 buffer slot.
    let q: CpuBgpq<u32, u32> = CpuBgpq::new(opts(2, 2));
    let mut accepted: Vec<u32> = Vec::new();
    let mut refused = 0usize;
    for i in 0..64u32 {
        let batch = [Entry::new(i, i), Entry::new(i + 1000, i)];
        match q.try_insert_batch(&batch) {
            Ok(()) => accepted.extend(batch.iter().map(|e| e.key)),
            Err(bgpq::QueueError::Full { max_nodes }) => {
                assert_eq!(max_nodes, 2);
                refused += 1;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
        // A refused batch must not change the count.
        assert_eq!(q.len(), accepted.len(), "after batch {i}");
    }
    assert!(refused > 0, "queue must have refused something");
    assert!(!accepted.is_empty(), "queue must have accepted something");
    // Drain: exactly the accepted multiset comes back, sorted.
    let mut out = Vec::new();
    while q.try_delete_min_batch(&mut out, 2).expect("healthy queue") > 0 {}
    let mut got: Vec<u32> = out.iter().map(|e| e.key).collect();
    assert!(got.windows(2).all(|p| p[0] <= p[1]));
    got.sort_unstable();
    accepted.sort_unstable();
    assert_eq!(got, accepted, "Full refusal dropped or duplicated keys");
    q.inner().check_invariants();
}

#[test]
fn full_refusal_then_delete_makes_room() {
    let q: CpuBgpq<u32, ()> = CpuBgpq::new(opts(2, 2));
    while q.try_insert_batch(&[Entry::new(1, ()), Entry::new(2, ())]).is_ok() {}
    let n_before = q.len();
    let mut out = Vec::new();
    q.try_delete_min_batch(&mut out, 2).unwrap();
    // Backpressure is transient: space freed by the delete is reusable.
    q.try_insert_batch(&[Entry::new(3, ()), Entry::new(4, ())])
        .expect("insert after delete must succeed");
    assert_eq!(q.len(), n_before);
}

#[test]
fn injected_panic_poisons_queue_and_try_ops_refuse() {
    use bgpq_runtime::{CpuPlatform, FaultAction, FaultPlan, InjectionPoint};
    use std::sync::Arc;

    let o = opts(2, 64);
    let plan = Arc::new(FaultPlan::new().with_rule(
        InjectionPoint::MidInsertHeapify,
        1,
        FaultAction::Panic,
    ));
    let platform = CpuPlatform::new(o.max_nodes + 1).with_faults(plan);
    let q: CpuBgpq<u32, ()> = CpuBgpq::on_platform(platform, o);

    // Drive inserts until the injected panic fires mid-heapify.
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for i in 0..64u32 {
            q.insert_batch(&[Entry::new(i, ()), Entry::new(i + 100, ())]);
        }
    }));
    assert!(r.is_err(), "injected panic must surface");
    assert!(q.inner().is_poisoned(), "unwound critical section must poison");
    assert_eq!(q.inner().stats().snapshot().poison_events, 1);

    // Every subsequent operation refuses cleanly — and no lock is left
    // held, so these return instead of deadlocking.
    assert!(matches!(q.try_insert_batch(&[Entry::new(1, ())]), Err(bgpq::QueueError::Poisoned)));
    let mut out = Vec::new();
    assert!(matches!(q.try_delete_min_batch(&mut out, 2), Err(bgpq::QueueError::Poisoned)));
    assert!(out.is_empty(), "failed delete must not emit keys");
}

#[test]
fn poisoned_queue_reports_empty_min_hint() {
    use bgpq_runtime::{CpuPlatform, FaultAction, FaultPlan, InjectionPoint};
    use std::sync::Arc;

    let o = opts(2, 64);
    let plan = Arc::new(FaultPlan::new().with_rule(
        InjectionPoint::MidDeleteHeapify,
        1,
        FaultAction::Panic,
    ));
    let platform = CpuPlatform::new(o.max_nodes + 1).with_faults(plan);
    let q: CpuBgpq<u32, ()> = CpuBgpq::on_platform(platform, o);
    for i in 0..16u32 {
        q.insert_batch(&[Entry::new(i, ()), Entry::new(i + 100, ())]);
    }
    let mut out = Vec::new();
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for _ in 0..16 {
            q.delete_min_batch(&mut out, 2);
        }
    }));
    assert!(r.is_err(), "injected panic must surface");
    assert!(q.inner().is_poisoned());
    // The min hint is parked at "empty" so shard fronts stop sampling it.
    assert_eq!(q.inner().min_hint_bits(), u64::MAX);
}

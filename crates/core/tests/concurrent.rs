//! Concurrent correctness: many real threads hammer one queue; we then
//! verify (a) the multiset of keys is conserved, (b) the heap invariants
//! hold at quiescence, and (c) the recorded root-lock history is a valid
//! linearization (mechanizing the paper's Section 5 argument).

use bgpq::{check_history, BgpqOptions, CpuBgpq};
use pq_api::{BatchPriorityQueue, Entry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};

fn opts(k: usize, max_nodes: usize) -> BgpqOptions {
    BgpqOptions { node_capacity: k, max_nodes, ..Default::default() }
}

/// Run `threads` workers, each performing `ops` random batched ops.
/// Returns (queue, per-thread deleted keys).
fn hammer(
    q: &CpuBgpq<u32, u32>,
    threads: usize,
    ops: usize,
    seed: u64,
    insert_bias: f64,
) -> Vec<Entry<u32, u32>> {
    let k = q.batch_capacity();
    let uid = AtomicU64::new(0);
    let deleted: Vec<Entry<u32, u32>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let uid = &uid;
                let q = &q;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(t as u64));
                    let mut mine = Vec::new();
                    for _ in 0..ops {
                        if rng.gen_bool(insert_bias) {
                            let n = rng.gen_range(1..=k);
                            let items: Vec<Entry<u32, u32>> = (0..n)
                                .map(|_| {
                                    let id = uid.fetch_add(1, Ordering::Relaxed) as u32;
                                    Entry::new(rng.gen_range(0..1u32 << 30), id)
                                })
                                .collect();
                            q.insert_batch(&items);
                        } else {
                            let n = rng.gen_range(1..=k);
                            q.delete_min_batch(&mut mine, n);
                        }
                    }
                    mine
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    deleted
}

#[test]
fn concurrent_multiset_conservation() {
    let q: CpuBgpq<u32, u32> = CpuBgpq::new(opts(8, 4096));
    let deleted = hammer(&q, 8, 400, 0xBEEF, 0.6);
    let in_queue = q.inner().check_invariants();
    let stats = q.inner().stats().snapshot();
    assert_eq!(
        stats.items_inserted,
        stats.items_deleted + in_queue as u64,
        "keys lost or duplicated"
    );
    // Unique payloads: no entry may be returned twice.
    let mut ids: Vec<u32> = deleted.iter().map(|e| e.value).collect();
    ids.sort_unstable();
    let before = ids.len();
    ids.dedup();
    assert_eq!(before, ids.len(), "an entry was delivered twice");
}

#[test]
fn concurrent_history_linearizes() {
    let q: CpuBgpq<u32, u32> = CpuBgpq::new(opts(4, 4096)).with_history();
    let _ = hammer(&q, 8, 300, 77, 0.55);
    let events = q.inner().take_history();
    assert!(!events.is_empty());
    if let Some(v) = check_history(&events) {
        panic!("history violation at seq {}: {}", v.seq, v.detail);
    }
}

#[test]
fn concurrent_history_linearizes_delete_heavy() {
    let q: CpuBgpq<u32, u32> = CpuBgpq::new(opts(4, 4096)).with_history();
    // Preload so deletes dominate against a full heap.
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..200 {
        let items: Vec<Entry<u32, u32>> =
            (0..4).map(|i| Entry::new(rng.gen_range(0..1 << 30), i)).collect();
        q.insert_batch(&items);
    }
    let _ = hammer(&q, 8, 300, 99, 0.3);
    let events = q.inner().take_history();
    if let Some(v) = check_history(&events) {
        panic!("history violation at seq {}: {}", v.seq, v.detail);
    }
    q.inner().check_invariants();
}

#[test]
fn concurrent_insert_only_then_drain_sorted() {
    let q: CpuBgpq<u32, u32> = CpuBgpq::new(opts(16, 2048));
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let q = &q;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(t);
                for _ in 0..100 {
                    let items: Vec<Entry<u32, u32>> =
                        (0..16).map(|_| Entry::new(rng.gen_range(0..1 << 30), 0)).collect();
                    q.insert_batch(&items);
                }
            });
        }
    });
    assert_eq!(q.len(), 8 * 100 * 16);
    q.inner().check_invariants();
    let mut out = Vec::new();
    while q.delete_min_batch(&mut out, 16) > 0 {}
    assert_eq!(out.len(), 8 * 100 * 16);
    assert!(out.windows(2).all(|w| w[0].key <= w[1].key), "drain not globally sorted");
}

#[test]
fn collaboration_fires_under_mixed_load() {
    // Small capacity forces constant heapifies; mixed inserts/deletes
    // make TARGET/MARKED stealing likely. We can't force the exact
    // interleaving with real threads, so assert only that the protocol
    // never corrupts state across many runs, and report collaborations
    // when they occur.
    let mut total_collabs = 0;
    for seed in 0..10u64 {
        let q: CpuBgpq<u32, u32> = CpuBgpq::new(opts(2, 8192)).with_history();
        let _ = hammer(&q, 8, 200, seed, 0.5);
        let events = q.inner().take_history();
        if let Some(v) = check_history(&events) {
            panic!("seed {seed}: history violation at seq {}: {}", v.seq, v.detail);
        }
        q.inner().check_invariants();
        total_collabs += q.inner().stats().snapshot().collaborations;
    }
    // Informational: single-core hosts may rarely interleave tightly
    // enough; the deterministic-sim tests cover the protocol itself.
    eprintln!("total collaborations across runs: {total_collabs}");
}

#[test]
fn collaboration_disabled_still_correct() {
    let o = BgpqOptions { use_collaboration: false, ..opts(2, 8192) };
    let q: CpuBgpq<u32, u32> = CpuBgpq::new(o).with_history();
    let _ = hammer(&q, 8, 200, 31, 0.5);
    let events = q.inner().take_history();
    if let Some(v) = check_history(&events) {
        panic!("history violation at seq {}: {}", v.seq, v.detail);
    }
    assert_eq!(q.inner().stats().snapshot().collaborations, 0);
    q.inner().check_invariants();
}

#[test]
fn pairs_preserve_utilization() {
    // The paper's utilization experiment shape: each thread does an
    // insert/delete pair, so the queue size stays near its initial
    // level.
    let q: CpuBgpq<u32, u32> = CpuBgpq::new(opts(8, 4096));
    for i in 0..100u32 {
        let items: Vec<Entry<u32, u32>> = (0..8).map(|j| Entry::new(i * 8 + j, 0)).collect();
        q.insert_batch(&items);
    }
    let initial = q.len();
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let q = &q;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(t);
                let mut out = Vec::new();
                for _ in 0..100 {
                    let items: Vec<Entry<u32, u32>> =
                        (0..8).map(|_| Entry::new(rng.gen_range(0..1 << 30), 0)).collect();
                    q.insert_batch(&items);
                    out.clear();
                    let got = q.delete_min_batch(&mut out, 8);
                    assert_eq!(got, 8);
                }
            });
        }
    });
    assert_eq!(q.len(), initial);
    q.inner().check_invariants();
}

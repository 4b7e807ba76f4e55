//! The buffered sticky shard front end-to-end: crash drills with
//! parked keys, the documented rank-error bound for buffered pops, and
//! exact emptiness when keys hide in per-worker buffers.
//!
//! The buffered front stages inserts and serves deletes from per-worker
//! buffers (DESIGN.md "Buffered relaxed front"), so three guarantees
//! need their own drills beyond `sharded.rs`:
//!
//! * **No silent loss through buffers** — staged keys whose home shard
//!   crashes re-route to survivors and are accounted in
//!   `QualityStats::buffer_reroutes`; a full drain recovers every key.
//! * **Bounded relaxation** — a buffered pop's rank error is at most
//!   `S - 1` (the serving shard itself never counts: the refill took
//!   its `k` smallest), versus `S - c` for the unbuffered front.
//!   Buffering and stickiness change the *frequency* of sampling, not
//!   the magnitude of the bound.
//! * **Exact emptiness** — `len` and drains observe keys parked in any
//!   worker's buffers, including buffers of threads that exited without
//!   flushing.

use bgpq::BgpqOptions;
use bgpq_runtime::{CpuPlatform, CpuWorker, FaultAction, FaultPlan, InjectionPoint};
use bgpq_shard::{BufferPolicy, CpuShardedBgpq, ShardedBgpq, ShardedOptions};
use pq_api::{Entry, KeyType};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

fn buffered_router(
    shards: usize,
    sample: usize,
    k: usize,
    policy: BufferPolicy,
) -> ShardedBgpq<u32, u32, CpuPlatform> {
    let queue = BgpqOptions { node_capacity: k, max_nodes: 1 << 10, ..Default::default() };
    let platforms = (0..shards).map(|_| CpuPlatform::new(queue.max_nodes + 1)).collect();
    ShardedBgpq::with_platforms(
        platforms,
        ShardedOptions::new(shards, sample, queue).with_buffering(policy),
    )
}

/// Crash drill: a shard dies while worker buffers hold staged keys for
/// it. The flush must redistribute to survivors — zero silent loss —
/// and when the home shard was already quarantined at flush time the
/// re-routed keys are counted in `buffer_reroutes`.
#[test]
fn crash_with_staged_keys_reroutes_and_loses_nothing() {
    let queue = BgpqOptions { node_capacity: 4, max_nodes: 256, ..Default::default() };
    let plan = Arc::new(FaultPlan::new().with_rule(
        InjectionPoint::MidInsertHeapify,
        1,
        FaultAction::Panic,
    ));
    let platforms: Vec<CpuPlatform> = (0..3)
        .map(|i| {
            let p = CpuPlatform::new(queue.max_nodes + 1);
            if i == 0 {
                p.with_faults(plan.clone())
            } else {
                p
            }
        })
        .collect();
    let policy = BufferPolicy::new().with_insert_capacity(16).with_refill_width(4);
    let q: ShardedBgpq<u32, u32, CpuPlatform> = ShardedBgpq::with_platforms(
        platforms,
        ShardedOptions::new(3, 2, queue).with_buffering(policy),
    );
    let mut w = CpuWorker::new();

    // Seed the survivors so the drained multiset is non-trivial.
    for i in 0..8u32 {
        q.try_insert(&mut w, 1, &[Entry::new(100 + i, 0)]).unwrap();
    }

    // Worker 0 stages keys; its home shard is shard 0.
    let staged: Vec<Entry<u32, u32>> = (0..6u32).map(|i| Entry::new(i, i)).collect();
    q.buffered_try_insert(&mut w, 0, &staged).unwrap();
    assert_eq!(q.buffered_len(), 6);

    // Crash shard 0 out from under the buffer: raw inserts until the
    // injected heapify panic fires and poisons the heap. These keys
    // (900+) all target the doomed shard, so none of them survive into
    // the drain books — staged keys are the ones that must.
    let r = catch_unwind(AssertUnwindSafe(|| {
        for i in 0..32u32 {
            q.shard(0).insert(&mut w, &[Entry::new(900 + 2 * i, 0), Entry::new(901 + 2 * i, 0)]);
        }
    }));
    assert!(r.is_err(), "injected panic must fire");
    assert!(q.shard(0).is_poisoned());

    // Flush while the breaker is still closed: try_insert discovers
    // the poison, quarantines shard 0 and redistributes in-line.
    assert_eq!(q.flush_slot(&mut w, 0).unwrap(), 6);
    assert!(q.is_quarantined(0));
    assert_eq!(q.buffered_len(), 0);

    // Stage more keys for the now-quarantined home shard; this flush
    // takes the pre-quarantined path and must count the re-route.
    let staged2: Vec<Entry<u32, u32>> = (50..54u32).map(|i| Entry::new(i, i)).collect();
    q.buffered_try_insert(&mut w, 0, &staged2).unwrap();
    assert_eq!(q.flush_slot(&mut w, 0).unwrap(), 4);
    assert_eq!(q.quality().buffer_reroutes, 4);

    // Full-drain books: every key that entered through the front is
    // recovered (the two keys of the *crashed raw insert* died with
    // the shard — they never linearized — but nothing staged is lost).
    let mut out = Vec::new();
    q.drain(&mut w, &mut out);
    let mut got: Vec<u32> = out.iter().map(|e| e.key).collect();
    got.sort_unstable();
    let mut expect: Vec<u32> = (0..6u32).chain(50..54).chain(100..108).collect();
    expect.sort_unstable();
    assert_eq!(got, expect, "zero silent key loss through worker buffers");
    assert!(q.is_empty());
    assert_eq!(q.check_invariants(), 0);
}

/// Keys parked by a thread that exited without flushing are still
/// reachable: another worker's delete harvests them, and emptiness is
/// only reported once they are served.
#[test]
fn exited_threads_parked_keys_are_harvested() {
    let policy = BufferPolicy::new().with_insert_capacity(64).with_refill_width(8);
    let q = Arc::new(CpuShardedBgpq::<u32, u32>::new(
        ShardedOptions::new(
            2,
            1,
            BgpqOptions { node_capacity: 8, max_nodes: 256, ..Default::default() },
        )
        .with_buffering(policy),
    ));
    let qc = q.clone();
    std::thread::spawn(move || {
        // Stays below capacity: everything parks in this thread's slot
        // and the thread exits without flushing.
        let items: Vec<Entry<u32, u32>> = (0..20u32).map(|i| Entry::new(i, i)).collect();
        qc.try_insert_batch(&items).unwrap();
    })
    .join()
    .unwrap();
    assert_eq!(q.len(), 20, "parked keys are visible after their owner exited");

    let mut got = Vec::new();
    let mut out = Vec::new();
    while q.try_delete_min_batch(&mut out, 4).unwrap() > 0 {
        got.append(&mut out);
    }
    let mut keys: Vec<u32> = got.iter().map(|e| e.key).collect();
    keys.sort_unstable();
    assert_eq!(keys, (0..20u32).collect::<Vec<_>>());
    assert!(q.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Documented bound (router docs "Buffered mode"): at quiescent
    /// single-consumer replay, a buffered pop's rank error — the number
    /// of shards advertising a smaller root-min than the key served —
    /// is at most `S - 1`, for any stickiness and buffer width. The
    /// unbuffered twin on the identical key stream stays within its
    /// tighter `S - c`.
    #[test]
    fn buffered_pop_rank_error_stays_within_s_minus_1(
        (shards, sample) in (2usize..=5).prop_flat_map(|s| (Just(s), 1usize..=s)),
        keys in prop::collection::vec(0u32..10_000, 1..300),
        width in 1usize..=24,
        stickiness in 1u32..=6,
        seed in 1u64..u64::MAX,
    ) {
        let policy = BufferPolicy::new()
            .with_insert_capacity(16)
            .with_refill_width(width)
            .with_stickiness(stickiness);
        let q = buffered_router(shards, sample, 8, policy);
        let plain = {
            let queue =
                BgpqOptions { node_capacity: 8, max_nodes: 1 << 10, ..Default::default() };
            let platforms =
                (0..shards).map(|_| CpuPlatform::new(queue.max_nodes + 1)).collect();
            ShardedBgpq::<u32, u32, CpuPlatform>::with_platforms(
                platforms,
                ShardedOptions::new(shards, sample, queue),
            )
        };
        let mut w = CpuWorker::new();
        for (i, chunk) in keys.chunks(8).enumerate() {
            let items: Vec<Entry<u32, u32>> =
                chunk.iter().map(|&k| Entry::new(k, 0)).collect();
            q.try_insert(&mut w, i, &items).unwrap();
            plain.try_insert(&mut w, i, &items).unwrap();
        }

        // Buffered replay, one pop at a time, measuring the rank error
        // against the live hints at the moment of each pop.
        let mut rng = seed;
        let mut out = Vec::new();
        let mut drained = 0usize;
        loop {
            out.clear();
            let got = q.buffered_try_delete_min(&mut w, 0, &mut rng, &mut out, 1).unwrap();
            if got == 0 {
                break;
            }
            drained += got;
            let bits = out[0].key.to_ordered_bits();
            let err = (0..shards)
                .filter(|&i| q.shard(i).min_hint_bits() < bits)
                .count();
            prop_assert!(
                err < shards,
                "buffered pop rank error {} exceeds S-1 = {}", err, shards - 1
            );
        }
        prop_assert_eq!(drained, keys.len());
        prop_assert!(q.is_empty());

        // Unbuffered twin: identical stream, tighter bound.
        let mut rng = seed;
        let mut out = Vec::new();
        let mut plain_drained = 0usize;
        loop {
            let got = plain.try_delete_min(&mut w, &mut rng, &mut out, 8).unwrap();
            if got == 0 {
                break;
            }
            plain_drained += got;
        }
        prop_assert_eq!(plain_drained, keys.len());
        let bound = (shards - sample) as u64;
        prop_assert!(
            plain.quality().rank_error_max <= bound,
            "unbuffered twin exceeded its S-c bound: {} > {}",
            plain.quality().rank_error_max, bound
        );
    }

    /// Exact emptiness extended to buffers: after any interleaving of
    /// buffered inserts, buffered deletes and explicit flushes, `len`
    /// equals the model count at every step and the final drain misses
    /// nothing parked in a buffer.
    #[test]
    fn emptiness_is_exact_with_parked_keys(
        ops in prop::collection::vec(
            prop_oneof![
                // (op, payload): 0 = insert `payload % 7 + 1` keys,
                // 1 = delete up to `payload % 5 + 1`, 2 = flush.
                (Just(0usize), any::<u32>()),
                (Just(1usize), any::<u32>()),
                (Just(2usize), any::<u32>()),
            ],
            1..120,
        ),
        capacity in 1usize..=24,
        seed in 1u64..u64::MAX,
    ) {
        let policy = BufferPolicy::new()
            .with_insert_capacity(capacity)
            .with_refill_width(8)
            .with_stickiness(3);
        let q = buffered_router(3, 2, 4, policy);
        let mut w = CpuWorker::new();
        let mut rng = seed;
        let mut live = 0usize;
        let mut next_key = 0u32;
        let mut out = Vec::new();
        for (op, payload) in ops {
            match op {
                0 => {
                    let n = (payload % 7 + 1) as usize;
                    let items: Vec<Entry<u32, u32>> = (0..n)
                        .map(|_| {
                            next_key += 1;
                            Entry::new(next_key, 0)
                        })
                        .collect();
                    q.buffered_try_insert(&mut w, 0, &items).unwrap();
                    live += n;
                }
                1 => {
                    out.clear();
                    let want = (payload % 5 + 1) as usize;
                    let got =
                        q.buffered_try_delete_min(&mut w, 0, &mut rng, &mut out, want).unwrap();
                    live -= got;
                }
                _ => {
                    q.flush_slot(&mut w, 0).unwrap();
                }
            }
            prop_assert_eq!(q.len(), live, "len must count parked keys at every step");
        }
        // Final drain through the buffered path recovers exactly the
        // model's survivors.
        let mut drained = 0usize;
        loop {
            out.clear();
            let got = q.buffered_try_delete_min(&mut w, 0, &mut rng, &mut out, 4).unwrap();
            if got == 0 {
                break;
            }
            drained += got;
        }
        prop_assert_eq!(drained, live);
        prop_assert!(q.is_empty());
        prop_assert_eq!(q.check_invariants(), 0);
    }
}

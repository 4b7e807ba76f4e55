//! Property tests for the router's quarantine paths: redistribution
//! after a shard is pulled from rotation must conserve every key, and
//! no routing path — sampling, stealing, or the exact sweep — may ever
//! touch a quarantined shard again.

use bgpq::BgpqOptions;
use bgpq_runtime::{CpuPlatform, CpuWorker};
use bgpq_shard::{ShardedBgpq, ShardedOptions};
use pq_api::Entry;
use proptest::prelude::*;
use std::collections::HashMap;

fn router(shards: usize, sample: usize, k: usize) -> ShardedBgpq<u32, u32, CpuPlatform> {
    let queue = BgpqOptions { node_capacity: k, max_nodes: 1 << 9, ..Default::default() };
    let platforms = (0..shards).map(|_| CpuPlatform::new(queue.max_nodes + 1)).collect();
    ShardedBgpq::with_platforms(platforms, ShardedOptions::new(shards, sample, queue))
}

fn multiset(keys: impl IntoIterator<Item = u32>) -> HashMap<u32, usize> {
    let mut m = HashMap::new();
    for k in keys {
        *m.entry(k).or_default() += 1;
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Quarantine a shard between two insert phases. Every key must be
    /// accounted for: keys the router can still reach (deleted through
    /// it) plus keys stranded in the quarantined shard (recovered by a
    /// direct drain) must together equal exactly the inserted multiset —
    /// redistribution loses nothing and fabricates nothing.
    #[test]
    fn quarantine_redistribution_conserves_every_key(
        (shards, sample) in (2usize..=5).prop_flat_map(|s| (Just(s), 1usize..=s)),
        first in prop::collection::vec(0u32..1000, 0..120),
        second in prop::collection::vec(0u32..1000, 0..120),
        victim_pick in any::<prop::sample::Index>(),
        seed in 1u64..u64::MAX,
    ) {
        let q = router(shards, sample, 8);
        let mut w = CpuWorker::new();
        for (i, chunk) in first.chunks(8).enumerate() {
            let items: Vec<Entry<u32, u32>> = chunk.iter().map(|&k| Entry::new(k, k)).collect();
            q.insert(&mut w, i, &items);
        }

        let victim = victim_pick.index(shards);
        q.quarantine(victim);
        prop_assert!(q.is_quarantined(victim));
        prop_assert_eq!(q.quarantined_count(), 1);

        // Phase 2 routes around the victim — including batches whose
        // sticky affinity points straight at it.
        let victim_before = q.shard(victim).stats().snapshot().items_inserted;
        for (i, chunk) in second.chunks(8).enumerate() {
            let items: Vec<Entry<u32, u32>> = chunk.iter().map(|&k| Entry::new(k, k)).collect();
            let affinity = if i % 2 == 0 { victim } else { i };
            prop_assert!(q.try_insert(&mut w, affinity, &items).is_ok());
        }
        prop_assert_eq!(
            q.shard(victim).stats().snapshot().items_inserted,
            victim_before,
            "no insert may land on a quarantined shard"
        );

        // Drain through the router, then recover the stranded keys.
        let mut rng = seed;
        let mut routed: Vec<Entry<u32, u32>> = Vec::new();
        loop {
            let before = routed.len();
            if q.delete_min(&mut w, &mut rng, &mut routed, 8) == 0 {
                prop_assert_eq!(routed.len(), before);
                break;
            }
        }
        prop_assert!(q.is_empty(), "router emptiness is exact over live shards");
        let mut stranded: Vec<Entry<u32, u32>> = Vec::new();
        q.shard(victim).drain(&mut w, &mut stranded);

        let inserted = multiset(first.iter().chain(second.iter()).copied());
        let recovered =
            multiset(routed.iter().chain(stranded.iter()).map(|e| e.key));
        prop_assert_eq!(recovered, inserted, "every key deleted or stranded, none invented");
    }

    /// After quarantine, no delete — sampled hit, steal, or the exact
    /// full sweep on an empty router — may perform an operation on the
    /// quarantined shard, and `len` must stop counting it.
    #[test]
    fn sweeps_and_samples_never_observe_a_quarantined_shard(
        (shards, sample) in (2usize..=5).prop_flat_map(|s| (Just(s), 1usize..=s)),
        keys in prop::collection::vec(0u32..1000, 1..100),
        victim_pick in any::<prop::sample::Index>(),
        seed in 1u64..u64::MAX,
    ) {
        let q = router(shards, sample, 8);
        let mut w = CpuWorker::new();
        for (i, chunk) in keys.chunks(8).enumerate() {
            let items: Vec<Entry<u32, u32>> = chunk.iter().map(|&k| Entry::new(k, k)).collect();
            q.insert(&mut w, i, &items);
        }
        let victim = victim_pick.index(shards);
        q.quarantine(victim);

        let frozen = q.shard(victim).stats().snapshot();
        let stranded_len = q.shard(victim).len();
        prop_assert_eq!(
            q.len(),
            (0..shards).filter(|&i| i != victim).map(|i| q.shard(i).len()).sum::<usize>(),
            "len must exclude the quarantined shard"
        );

        // Drain to emptiness and then keep deleting: the trailing
        // misses force exact full sweeps over the live set.
        let mut rng = seed;
        let mut out = Vec::new();
        while q.delete_min(&mut w, &mut rng, &mut out, 8) != 0 {}
        let sweeps_before = q.quality().full_sweeps;
        for _ in 0..5 {
            prop_assert_eq!(q.delete_min(&mut w, &mut rng, &mut out, 8), 0);
        }
        // With >= 2 live shards every miss ends in an exact sweep (a
        // single live shard takes a direct fast path that needs none).
        if shards >= 3 {
            prop_assert!(q.quality().full_sweeps >= sweeps_before + 5, "misses must sweep");
        }

        let after = q.shard(victim).stats().snapshot();
        prop_assert_eq!(after.delete_mins, frozen.delete_mins, "no delete touched the victim");
        prop_assert_eq!(after.items_deleted, frozen.items_deleted);
        prop_assert_eq!(q.shard(victim).len(), stranded_len, "stranded keys stay put");
    }
}

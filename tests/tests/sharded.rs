//! The sharded relaxed front end-to-end: rank-error bounds, exact
//! emptiness under concurrency, and the paper's applications running
//! on top of relaxed delete-min.

use apps::{
    solve_astar, solve_astar_sequential, solve_knapsack, solve_knapsack_sequential, solve_sssp,
    AstarNode, KsNode, SsspNode,
};
use bgpq::BgpqOptions;
use bgpq_runtime::{CpuPlatform, CpuWorker};
use bgpq_shard::{CpuShardedBgpq, ShardedBgpq, ShardedOptions};
use pq_api::{BatchPriorityQueue, Entry};
use proptest::prelude::*;
use workloads::{
    generate_keys, Correlation, Graph, GraphSpec, Grid, GridSpec, KeyDist, KnapsackInstance,
    KnapsackSpec,
};

fn router(shards: usize, sample: usize, k: usize) -> ShardedBgpq<u32, u32, CpuPlatform> {
    let queue = BgpqOptions { node_capacity: k, max_nodes: 1 << 10, ..Default::default() };
    let platforms = (0..shards).map(|_| CpuPlatform::new(queue.max_nodes + 1)).collect();
    ShardedBgpq::with_platforms(platforms, ShardedOptions::new(shards, sample, queue))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// At quiescent single-consumer replay the root-min hints are exact
    /// (or over-estimates for cold shards), so the measured rank error
    /// of every delete is bounded by the theoretical `S - c` of
    /// c-of-S sampling. The error statistics must never exceed it.
    #[test]
    fn rank_error_never_exceeds_c_of_s_bound(
        (shards, sample) in (1usize..=6).prop_flat_map(|s| (Just(s), 1usize..=s)),
        keys in prop::collection::vec(0u32..10_000, 1..400),
        seed in 1u64..u64::MAX,
    ) {
        let q = router(shards, sample, 8);
        let mut w = CpuWorker::new();
        // Quiescent producer phase: batches spread round-robin.
        for (i, chunk) in keys.chunks(8).enumerate() {
            let items: Vec<Entry<u32, u32>> =
                chunk.iter().map(|&k| Entry::new(k, 0)).collect();
            q.insert(&mut w, i, &items);
        }
        // Quiescent single-consumer replay.
        let mut rng = seed;
        let mut out = Vec::new();
        let mut drained = 0usize;
        loop {
            let got = q.delete_min(&mut w, &mut rng, &mut out, 8);
            if got == 0 {
                break;
            }
            drained += got;
        }
        prop_assert_eq!(drained, keys.len());
        prop_assert!(q.is_empty());
        let quality = q.quality();
        let bound = (shards - sample) as u64;
        prop_assert!(
            quality.rank_error_max <= bound,
            "max rank error {} exceeds S-c bound {} (S={}, c={})",
            quality.rank_error_max, bound, shards, sample
        );
    }
}

/// A delete must find work wherever it hides: one item in one shard,
/// wide sampling misses, the steal/sweep path still returns it.
#[test]
fn delete_finds_lone_item_in_any_shard() {
    for target in 0..8usize {
        let q = router(8, 1, 4);
        let mut w = CpuWorker::new();
        q.insert(&mut w, target, &[Entry::new(7u32, 77)]);
        let mut rng = 0x5EED + target as u64;
        let mut out = Vec::new();
        assert_eq!(q.delete_min(&mut w, &mut rng, &mut out, 4), 1, "shard {target}");
        assert_eq!((out[0].key, out[0].value), (7, 77));
        assert!(q.is_empty());
    }
}

/// Exact emptiness under concurrent producers: consumers spinning on
/// delete_min_batch must collectively recover *every* inserted key once
/// producers finish — a relaxed router that lost track of a shard
/// would either under-deliver or hang.
#[test]
fn exact_drain_under_concurrent_producers() {
    let q = std::sync::Arc::new(CpuShardedBgpq::<u32, u32>::new(ShardedOptions::new(
        4,
        2,
        BgpqOptions { node_capacity: 16, max_nodes: 1 << 12, ..Default::default() },
    )));
    let producers = 4usize;
    let per_producer = 3_000usize;
    let total = producers * per_producer;
    let taken = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for p in 0..producers {
            let q = q.clone();
            s.spawn(move || {
                let keys = generate_keys(per_producer, KeyDist::Random, p as u64);
                let mut items = Vec::with_capacity(16);
                for chunk in keys.chunks(16) {
                    items.clear();
                    items.extend(chunk.iter().map(|&k| Entry::new(k, p as u32)));
                    q.insert_batch(&items);
                }
            });
        }
        // Consumers spin until every key has been taken somewhere;
        // `taken` is monotone, so a miss (got == 0) before that point
        // just means producers are still ahead or a race emptied the
        // sampled shards — the exact sweep guarantees a miss at
        // `taken == total` really is the end.
        for _ in 0..2 {
            let q = q.clone();
            let taken = &taken;
            s.spawn(move || {
                let mut out = Vec::new();
                loop {
                    out.clear();
                    let got = q.delete_min_batch(&mut out, 16);
                    taken.fetch_add(got, std::sync::atomic::Ordering::AcqRel);
                    if got == 0 {
                        if taken.load(std::sync::atomic::Ordering::Acquire) >= total {
                            return;
                        }
                        std::thread::yield_now();
                    }
                }
            });
        }
    });
    assert_eq!(taken.load(std::sync::atomic::Ordering::Acquire), total);
    assert!(q.is_empty());
    assert_eq!(q.inner().check_invariants(), 0);
}

/// A* over the sharded relaxed queue must still find the optimal path
/// (stale-entry guards + incumbent pruning absorb out-of-order pops).
#[test]
fn astar_over_sharded_matches_sequential() {
    for spec in [GridSpec::new(24, 0.10, 1), GridSpec::new(32, 0.20, 9), GridSpec::new(16, 0.35, 4)]
    {
        let grid = Grid::generate(spec);
        let q: CpuShardedBgpq<u64, AstarNode> =
            CpuShardedBgpq::new(ShardedOptions::with_capacity_for(4, 2, 16, 1 << 15));
        let par = solve_astar(&grid, &q, 4);
        let seq = solve_astar_sequential(&grid);
        assert_eq!(par.cost, seq.cost);
        assert!(q.is_empty(), "search must drain the open set");
    }
}

/// SSSP over the sharded queue reaches Dijkstra's fixpoint.
#[test]
fn sssp_over_sharded_matches_dijkstra() {
    for spec in [GraphSpec::new(200, 3, 1), GraphSpec::new(500, 5, 2)] {
        let graph = Graph::generate(spec);
        let q: CpuShardedBgpq<u64, SsspNode> =
            CpuShardedBgpq::new(ShardedOptions::with_capacity_for(4, 2, 16, 1 << 15));
        let r = solve_sssp(&graph, 0, &q, 4);
        assert_eq!(r.dist, graph.dijkstra_reference(0));
        assert!(q.is_empty());
    }
}

/// Knapsack B&B over the sharded queue proves the same optimum: the
/// best-bound incumbent check makes pop order irrelevant to
/// correctness, and the exact-emptiness sweep certifies termination.
#[test]
fn knapsack_over_sharded_matches_dp() {
    for (n, c, s) in [
        (16, Correlation::Uncorrelated, 1u64),
        (20, Correlation::Weak, 2),
        (18, Correlation::Strong, 3),
    ] {
        let inst = KnapsackInstance::generate(KnapsackSpec::new(n, c, s));
        let q: CpuShardedBgpq<u64, KsNode> =
            CpuShardedBgpq::new(ShardedOptions::with_capacity_for(4, 2, 8, 1 << 15));
        let got = solve_knapsack(&inst, &q, 4);
        assert_eq!(got.best_profit, inst.optimum_dp());
        assert_eq!(got.best_profit, solve_knapsack_sequential(&inst).best_profit);
        assert!(q.is_empty(), "queue must drain");
    }
}

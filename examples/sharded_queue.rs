//! Quickstart for the sharded relaxed front (`bgpq-shard`).
//!
//! Four producer/consumer threads share a 4-shard, c = 2 sampled
//! queue: inserts stay sticky per thread (each thread feeds "its"
//! shard, keeping that BGPQ's partial buffer hot), deletes sample two
//! shards' root-min hints and take a whole batch from the better one.
//! At the end we print the relaxation price actually paid: mean/max
//! rank error, steals, exact sweeps, and load imbalance.
//!
//! Run: `cargo run --release -p bgpq-examples --bin sharded_queue`

use bgpq::BgpqOptions;
use bgpq_shard::{CpuShardedBgpq, ShardedOptions};
use pq_api::{BatchPriorityQueue, Entry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    const K: usize = 64; // node capacity per shard
    const OPS: usize = 2_000; // batches per thread
    let q = CpuShardedBgpq::<u32, u32>::new(ShardedOptions::new(
        4,
        2,
        BgpqOptions { node_capacity: K, max_nodes: 1 << 14, ..Default::default() },
    ));

    std::thread::scope(|s| {
        for t in 0..4u64 {
            let q = &q;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(t);
                let mut out = Vec::with_capacity(K);
                for _ in 0..OPS {
                    let n = rng.gen_range(1..=K);
                    let items: Vec<Entry<u32, u32>> =
                        (0..n).map(|_| Entry::new(rng.gen_range(0..1 << 30), t as u32)).collect();
                    q.insert_batch(&items);
                    out.clear();
                    q.delete_min_batch(&mut out, n);
                }
            });
        }
    });

    let quality = q.inner().quality();
    println!("residual items : {}", q.len());
    println!("deletes        : {}", quality.deletes);
    println!(
        "rank error     : mean {:.3}, max {} (quiescent bound S-c = {}; concurrent deletes can \
         see stale hints)",
        quality.mean_rank_error(),
        quality.rank_error_max,
        q.inner().num_shards() - q.inner().sample()
    );
    println!("steals / sweeps: {} / {}", quality.steals, quality.full_sweeps);
    println!("load imbalance : {:.2}", q.inner().load_imbalance());

    // The exact sweep makes the final drain precise even though
    // individual deletes were relaxed.
    let mut out = Vec::new();
    let mut drained = 0usize;
    loop {
        out.clear();
        let got = q.delete_min_batch(&mut out, K);
        if got == 0 {
            break;
        }
        drained += got;
    }
    println!("drained        : {drained}");
    assert!(q.is_empty());
    let merged = q.inner().merged_stats().snapshot();
    println!(
        "buffer hit rate: {:.2} (inserts absorbed without heapify, all shards)",
        merged.insert_buffer_hit_rate()
    );
}

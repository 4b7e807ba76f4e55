//! CPU-baseline drivers: real threads, wall-clock timing.
//!
//! One builder produces any of the queue designs behind a
//! `Box<dyn BatchPriorityQueue>` so every experiment drives every queue
//! through identical code. Wall-clock numbers on this host measure
//! *throughput*, not scalability (the CI machine is single-core); the
//! paper-facing comparisons are assembled in EXPERIMENTS.md with that
//! caveat.

use baseline_heaps::{CoarseLockPq, FineHeapPq};
use bgpq::{BgpqOptions, CpuBgpq};
use bgpq_shard::{CpuShardedBgpq, ShardedOptions};
use cbpq::CbpqPq;
use pq_api::{BatchPriorityQueue, Entry, ItemwiseBatch, KeyType, ValueType};
use skiplist_pq::{LindenJonssonPq, SprayListPq};
use std::time::Instant;

/// The queue designs of Table 2 (CPU side), plus BGPQ-on-CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// Coarse-locked binary heap (TBB stand-in).
    Tbb,
    /// Fine-grained one-key-per-node heap (Rao-Kumar/Hunt family).
    FineHeap,
    /// Lindén-Jonsson skiplist.
    Ljsl,
    /// SprayList (relaxed).
    Spray,
    /// Chunk-based PQ.
    Cbpq,
    /// BGPQ running on the CPU platform.
    BgpqCpu,
    /// Sharded BGPQ front (4 shards, c = 2 sampling) on the CPU
    /// platform — the relaxed scale-out design from `bgpq-shard`.
    BgpqShard,
}

impl QueueKind {
    pub const TABLE2: [QueueKind; 7] = [
        QueueKind::Tbb,
        QueueKind::Spray,
        QueueKind::Cbpq,
        QueueKind::Ljsl,
        QueueKind::FineHeap,
        QueueKind::BgpqCpu,
        QueueKind::BgpqShard,
    ];

    pub fn label(self) -> &'static str {
        match self {
            QueueKind::Tbb => "TBB",
            QueueKind::FineHeap => "FineHeap",
            QueueKind::Ljsl => "LJSL",
            QueueKind::Spray => "SprayList",
            QueueKind::Cbpq => "CBPQ",
            QueueKind::BgpqCpu => "BGPQ-cpu",
            QueueKind::BgpqShard => "BGPQ-shard",
        }
    }
}

/// Build a queue of `kind` as a batched trait object.
pub fn build_queue<K: KeyType, V: ValueType>(
    kind: QueueKind,
    capacity_hint: usize,
    batch: usize,
    threads_hint: usize,
) -> Box<dyn BatchPriorityQueue<K, V>> {
    match kind {
        QueueKind::Tbb => {
            Box::new(ItemwiseBatch::new(CoarseLockPq::with_capacity(capacity_hint), batch))
        }
        QueueKind::FineHeap => {
            Box::new(ItemwiseBatch::new(FineHeapPq::new(capacity_hint.max(1024)), batch))
        }
        QueueKind::Ljsl => Box::new(ItemwiseBatch::new(LindenJonssonPq::new(32), batch)),
        QueueKind::Spray => Box::new(ItemwiseBatch::new(SprayListPq::new(threads_hint, 64), batch)),
        QueueKind::Cbpq => Box::new(ItemwiseBatch::new(CbpqPq::new(928), batch)),
        QueueKind::BgpqCpu => Box::new(CpuBgpq::new(BgpqOptions::with_capacity_for(
            batch,
            capacity_hint.max(batch * 4),
        ))),
        QueueKind::BgpqShard => Box::new(CpuShardedBgpq::new(ShardedOptions::with_capacity_for(
            4,
            2,
            batch,
            capacity_hint.max(batch * 4),
        ))),
    }
}

/// Wall-clock insert-all-then-delete-all, `threads` workers.
/// Returns (insert_ms, delete_ms).
pub fn cpu_insdel(
    q: &dyn BatchPriorityQueue<u32, ()>,
    keys: &[u32],
    threads: usize,
    batch: usize,
) -> (f64, f64) {
    let chunk = keys.len().div_ceil(threads.max(1));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for part in keys.chunks(chunk.max(1)) {
            s.spawn(move || {
                let mut items: Vec<Entry<u32, ()>> = Vec::with_capacity(batch);
                for b in part.chunks(batch) {
                    items.clear();
                    items.extend(b.iter().map(|&k| Entry::new(k, ())));
                    q.insert_batch(&items);
                }
            });
        }
    });
    let insert_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(q.len(), keys.len(), "insert phase lost keys");

    let t1 = Instant::now();
    std::thread::scope(|s| {
        for part in keys.chunks(chunk.max(1)) {
            s.spawn(move || {
                let mut out: Vec<Entry<u32, ()>> = Vec::with_capacity(batch);
                let mut remaining = part.len();
                while remaining > 0 {
                    out.clear();
                    let want = remaining.min(batch);
                    let got = q.delete_min_batch(&mut out, want);
                    if got == 0 {
                        break;
                    }
                    remaining -= got;
                }
            });
        }
    });
    let delete_ms = t1.elapsed().as_secs_f64() * 1e3;
    assert!(q.is_empty(), "delete phase must drain");
    (insert_ms, delete_ms)
}

/// Wall-clock utilization run: preload `init`, then `pair_keys` paired
/// insert/delete ops across `threads` workers. Returns milliseconds of
/// the measured (paired) phase.
pub fn cpu_util(
    q: &dyn BatchPriorityQueue<u32, ()>,
    init: &[u32],
    pair_keys: &[u32],
    threads: usize,
    batch: usize,
) -> f64 {
    let mut items: Vec<Entry<u32, ()>> = Vec::with_capacity(batch);
    for b in init.chunks(batch) {
        items.clear();
        items.extend(b.iter().map(|&k| Entry::new(k, ())));
        q.insert_batch(&items);
    }
    let chunk = pair_keys.len().div_ceil(threads.max(1));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for part in pair_keys.chunks(chunk.max(1)) {
            s.spawn(move || {
                let mut items: Vec<Entry<u32, ()>> = Vec::with_capacity(batch);
                let mut out: Vec<Entry<u32, ()>> = Vec::with_capacity(batch);
                for b in part.chunks(batch) {
                    items.clear();
                    items.extend(b.iter().map(|&k| Entry::new(k, ())));
                    q.insert_batch(&items);
                    out.clear();
                    q.delete_min_batch(&mut out, b.len());
                }
            });
        }
    });
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(q.len(), init.len(), "pairs must preserve utilization");
    ms
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{generate_keys, KeyDist};

    #[test]
    fn every_kind_builds_and_round_trips() {
        for kind in QueueKind::TABLE2 {
            let q = build_queue::<u32, ()>(kind, 1 << 12, 64, 4);
            let keys = generate_keys(2048, KeyDist::Random, 1);
            let (ins, del) = cpu_insdel(q.as_ref(), &keys, 4, 64);
            assert!(ins >= 0.0 && del >= 0.0, "{kind:?}");
        }
    }

    #[test]
    fn util_preserves_len_for_strict_queues() {
        for kind in [QueueKind::Tbb, QueueKind::BgpqCpu, QueueKind::Ljsl, QueueKind::Cbpq] {
            let q = build_queue::<u32, ()>(kind, 1 << 12, 32, 2);
            let init = generate_keys(512, KeyDist::Random, 2);
            let pairs = generate_keys(1024, KeyDist::Random, 3);
            let ms = cpu_util(q.as_ref(), &init, &pairs, 2, 32);
            assert!(ms >= 0.0, "{kind:?}");
        }
    }
}

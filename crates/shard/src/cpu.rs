//! Host-side front: the sharded router on real threads.
//!
//! Sticky affinity comes from a process-wide ticket: the first sharded
//! operation a thread performs assigns it a small stable worker id, and
//! inserts from that thread always route to shard `id % S`. Consecutive
//! batches from one producer therefore land in the same shard, keeping
//! its partial buffer and root cache hot. Delete-side sampling uses a
//! per-thread xorshift state seeded from the same id, so runs with a
//! fixed thread↔work assignment are reproducible.

use crate::router::{ShardedBgpq, ShardedOptions};
use bgpq_runtime::{with_thread_worker, CpuPlatform};
use pq_api::{BatchPriorityQueue, Entry, KeyType, PriorityQueue, TryBatchPriorityQueue, ValueType};
use std::cell::Cell;

thread_local! {
    static RNG_STATE: Cell<u64> = const { Cell::new(0) };
}

/// Stable, dense id of the calling thread (0, 1, 2, … in first-use
/// order, shared by every sharded queue in the process). Re-exported
/// from the runtime's process-wide ticket so the shard router and the
/// combiner front agree on thread identity.
pub use bgpq_runtime::worker_id;

/// Run `f` with this thread's sampling-RNG state (lazily seeded from
/// the worker id via splitmix64).
fn with_thread_rng<R>(f: impl FnOnce(&mut u64) -> R) -> R {
    RNG_STATE.with(|c| {
        let mut s = c.get();
        if s == 0 {
            let mut z = (worker_id() as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            s = (z ^ (z >> 31)) | 1;
        }
        let r = f(&mut s);
        c.set(s);
        r
    })
}

/// [`ShardedBgpq`] on [`CpuPlatform`], with per-thread sticky affinity.
/// Implements both [`BatchPriorityQueue`] (native shape) and
/// [`PriorityQueue`] (item-at-a-time convenience).
///
/// With [`ShardedOptions::buffer`] set the front runs in buffered mode:
/// every insert stages into (and every delete serves from) the calling
/// thread's buffer slot, flushed/refilled in wide batches — see the
/// router's module docs. Threads that stop producing should call
/// [`CpuShardedBgpq::flush`] (or the queue's owner
/// [`CpuShardedBgpq::quiesce_all`]) to push their staged keys down;
/// until then the keys stay *visible* ([`CpuShardedBgpq::len`], drains
/// and exact-emptiness sweeps all observe them) but not yet in a shard.
pub struct CpuShardedBgpq<K: KeyType, V: ValueType> {
    inner: ShardedBgpq<K, V, CpuPlatform>,
}

impl<K: KeyType, V: ValueType> CpuShardedBgpq<K, V> {
    pub fn new(opts: ShardedOptions) -> Self {
        opts.validate();
        let platforms: Vec<CpuPlatform> =
            (0..opts.shards).map(|_| CpuPlatform::new(opts.queue.max_nodes + 1)).collect();
        Self { inner: ShardedBgpq::with_platforms(platforms, opts) }
    }

    /// The underlying generic router (its record, per-shard access).
    pub fn inner(&self) -> &ShardedBgpq<K, V, CpuPlatform> {
        &self.inner
    }

    /// Whether the buffered operating mode is on.
    pub fn buffered(&self) -> bool {
        self.inner.buffered()
    }

    /// Non-panicking insert with sticky affinity: backpressure and
    /// shard fail-over surface as [`pq_api::QueueError`] values. In
    /// buffered mode the batch stages in this thread's slot.
    pub fn try_insert_batch(&self, items: &[Entry<K, V>]) -> Result<(), pq_api::QueueError> {
        with_thread_worker(|w| {
            if self.inner.buffered() {
                self.inner.buffered_try_insert(w, worker_id(), items)
            } else {
                self.inner.try_insert(w, worker_id(), items)
            }
        })
    }

    /// Non-panicking relaxed delete: `Ok(0)` means every live shard was
    /// observed empty; `Err(Poisoned)` means no live shard remains. In
    /// buffered mode entries serve from this thread's deletion buffer
    /// and `Ok(0)` additionally means no reachable buffered keys
    /// remain.
    pub fn try_delete_min_batch(
        &self,
        out: &mut Vec<Entry<K, V>>,
        count: usize,
    ) -> Result<usize, pq_api::QueueError> {
        with_thread_worker(|w| {
            with_thread_rng(|rng| {
                if self.inner.buffered() {
                    self.inner.buffered_try_delete_min(w, worker_id(), rng, out, count)
                } else {
                    self.inner.try_delete_min(w, rng, out, count)
                }
            })
        })
    }

    /// Flush this thread's staged inserts to the shards (no-op when
    /// unbuffered). Call when a producer goes idle.
    pub fn flush(&self) -> Result<usize, pq_api::QueueError> {
        with_thread_worker(|w| self.inner.flush_slot(w, worker_id()))
    }

    /// Quiesce every buffer slot: staged inserts flush and deletion
    /// buffers return to the shards (no-op when unbuffered). Quiescent
    /// callers only — run this after worker threads joined.
    pub fn quiesce_all(&self) -> Result<usize, pq_api::QueueError> {
        with_thread_worker(|w| self.inner.quiesce_all(w))
    }

    /// Total items across shards (inherent, so `q.len()` stays
    /// unambiguous even though both queue traits also define `len`).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

impl<K: KeyType, V: ValueType> BatchPriorityQueue<K, V> for CpuShardedBgpq<K, V> {
    fn batch_capacity(&self) -> usize {
        self.inner.node_capacity()
    }

    fn insert_batch(&self, items: &[Entry<K, V>]) {
        self.try_insert_batch(items).unwrap_or_else(|e| panic!("sharded BGPQ insert failed: {e}"));
    }

    fn delete_min_batch(&self, out: &mut Vec<Entry<K, V>>, count: usize) -> usize {
        self.try_delete_min_batch(out, count)
            .unwrap_or_else(|e| panic!("sharded BGPQ delete_min failed: {e}"))
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

/// Route the trait's fallible entry points to the sticky-affinity
/// hardened paths so generic fronts (the coalescing combiner) observe
/// backpressure and shard fail-over as typed errors.
impl<K: KeyType, V: ValueType> TryBatchPriorityQueue<K, V> for CpuShardedBgpq<K, V> {
    fn try_insert_batch(&self, items: &[Entry<K, V>]) -> Result<(), pq_api::QueueError> {
        CpuShardedBgpq::try_insert_batch(self, items)
    }

    fn try_delete_min_batch(
        &self,
        out: &mut Vec<Entry<K, V>>,
        count: usize,
    ) -> Result<usize, pq_api::QueueError> {
        CpuShardedBgpq::try_delete_min_batch(self, out, count)
    }
}

impl<K: KeyType, V: ValueType> PriorityQueue<K, V> for CpuShardedBgpq<K, V> {
    fn insert(&self, key: K, value: V) {
        BatchPriorityQueue::insert_batch(self, &[Entry::new(key, value)]);
    }

    fn delete_min(&self) -> Option<Entry<K, V>> {
        let mut out = Vec::with_capacity(1);
        if BatchPriorityQueue::delete_min_batch(self, &mut out, 1) == 1 {
            out.pop()
        } else {
            None
        }
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpq::BgpqOptions;

    fn small(shards: usize, sample: usize) -> CpuShardedBgpq<u32, u32> {
        CpuShardedBgpq::new(ShardedOptions::new(
            shards,
            sample,
            BgpqOptions { node_capacity: 8, max_nodes: 512, ..Default::default() },
        ))
    }

    #[test]
    fn batch_roundtrip_conserves_multiset() {
        let q = small(4, 2);
        let keys: Vec<u32> = (0..200).map(|i| (i * 37) % 1000).collect();
        for chunk in keys.chunks(8) {
            let items: Vec<Entry<u32, u32>> = chunk.iter().map(|&k| Entry::new(k, k)).collect();
            q.insert_batch(&items);
        }
        assert_eq!(q.len(), keys.len());
        let mut out = Vec::new();
        while q.delete_min_batch(&mut out, 8) > 0 {}
        assert!(q.is_empty());
        let mut got: Vec<u32> = out.iter().map(|e| e.key).collect();
        got.sort_unstable();
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn itemwise_trait_works() {
        let q = small(2, 1);
        PriorityQueue::insert(&q, 30u32, 3u32);
        PriorityQueue::insert(&q, 10, 1);
        PriorityQueue::insert(&q, 20, 2);
        // Single-threaded sticky affinity: everything sits in one
        // shard, so even sampled deletes are strict here.
        let e = PriorityQueue::delete_min(&q).expect("non-empty");
        assert_eq!((e.key, e.value), (10, 1));
        assert_eq!(PriorityQueue::len(&q), 2);
        while PriorityQueue::delete_min(&q).is_some() {}
        assert!(PriorityQueue::is_empty(&q));
    }

    #[test]
    fn concurrent_producers_spread_load() {
        let q = std::sync::Arc::new(small(4, 2));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let q = q.clone();
                s.spawn(move || {
                    let items: Vec<Entry<u32, u32>> =
                        (0..64u32).map(|k| Entry::new(k, 0)).collect();
                    for chunk in items.chunks(8) {
                        q.insert_batch(chunk);
                    }
                });
            }
        });
        assert_eq!(q.len(), 4 * 64);
        // Each thread has its own sticky shard; with 4 threads at most
        // 4 shards are touched and every item is somewhere.
        let touched = (0..4).filter(|&i| !q.inner().shard(i).is_empty()).count();
        assert!(touched >= 1);
        assert_eq!(q.inner().check_invariants(), 4 * 64);
    }

    #[test]
    fn buffered_concurrent_roundtrip_conserves_multiset() {
        let policy = pq_api::BufferPolicy::new()
            .with_insert_capacity(16)
            .with_refill_width(16)
            .with_stickiness(4);
        let q = std::sync::Arc::new(CpuShardedBgpq::<u32, u32>::new(
            ShardedOptions::new(
                4,
                2,
                BgpqOptions { node_capacity: 8, max_nodes: 512, ..Default::default() },
            )
            .with_buffering(policy),
        ));
        assert!(q.buffered());
        let popped: Vec<Vec<u32>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let q = q.clone();
                    s.spawn(move || {
                        let base = (t as u32) * 1000;
                        let mut mine = Vec::new();
                        let mut out = Vec::new();
                        for i in 0..64u32 {
                            q.try_insert_batch(&[Entry::new(base + i, 0)]).unwrap();
                            if i % 4 == 3 {
                                out.clear();
                                let n = q.try_delete_min_batch(&mut out, 2).unwrap();
                                mine.extend(out[..n].iter().map(|e| e.key));
                            }
                        }
                        q.flush().unwrap();
                        mine
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let taken: usize = popped.iter().map(|v| v.len()).sum();
        assert_eq!(q.len(), 4 * 64 - taken, "parked keys count toward len");
        q.quiesce_all().unwrap();
        assert_eq!(q.inner().buffered_len(), 0);
        // Drain the remainder and check the multiset survived intact.
        let mut rest = Vec::new();
        let mut out = Vec::new();
        while q.try_delete_min_batch(&mut out, 8).unwrap() > 0 {
            rest.append(&mut out);
        }
        let mut all: Vec<u32> = popped.into_iter().flatten().collect();
        all.extend(rest.iter().map(|e| e.key));
        all.sort_unstable();
        let mut expect: Vec<u32> =
            (0..4u32).flat_map(|t| (0..64u32).map(move |i| t * 1000 + i)).collect();
        expect.sort_unstable();
        assert_eq!(all, expect);
        assert!(q.is_empty());
        let fs = q.inner().front_stats().snapshot();
        assert!(fs.buffer_refills > 0, "deletes must have gone through the buffer");
        assert!(fs.buffer_flushes > 0, "flush() and capacity flushes must have fired");
    }

    #[test]
    fn worker_ids_are_stable_and_distinct() {
        let a = worker_id();
        assert_eq!(a, worker_id());
        let b = std::thread::spawn(worker_id).join().unwrap();
        assert_ne!(a, b);
    }
}

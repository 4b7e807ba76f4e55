//! The CPU combining front: [`Combiner`] wraps any
//! [`TryBatchPriorityQueue`] and exposes the classical single-op
//! [`PriorityQueue`] API, coalescing concurrent single-op traffic into
//! up-to-`k`-wide batched calls.

use crate::cell::Op;
use crate::core::{CombineBackend, CombineShared, CombinerOptions};
use pq_api::{
    BatchPriorityQueue, Entry, KeyType, OpStats, PriorityQueue, QueueError, TryBatchPriorityQueue,
    ValueType,
};

/// Backend driver for real threads: batched calls go straight to the
/// wrapped queue's hardened paths, waiting yields the OS scheduler
/// (this repo's CI is single-core — a pure spin would starve the
/// combiner we are waiting on), and the submission lane is the
/// process-wide dense worker id, the same identity the shard router
/// stripes by.
struct CpuBackend<'a, Q> {
    queue: &'a Q,
}

impl<K, V, Q> CombineBackend<K, V> for CpuBackend<'_, Q>
where
    K: KeyType,
    V: ValueType,
    Q: TryBatchPriorityQueue<K, V>,
{
    const CAN_PARK: bool = true;

    fn batch_capacity(&self) -> usize {
        self.queue.batch_capacity()
    }

    fn try_insert_batch(&mut self, items: &[Entry<K, V>]) -> Result<(), QueueError> {
        self.queue.try_insert_batch(items)
    }

    fn try_delete_min_batch(
        &mut self,
        out: &mut Vec<Entry<K, V>>,
        count: usize,
    ) -> Result<usize, QueueError> {
        self.queue.try_delete_min_batch(out, count)
    }

    fn relax(&mut self) {
        std::thread::yield_now();
    }

    fn lane(&self) -> usize {
        bgpq_runtime::worker_id()
    }
}

/// Flat-combining submission front over a batched queue: single-op
/// `insert` / `delete_min` calls from many threads coalesce into
/// batched backend calls, and a lone caller calls the queue directly.
/// Implements [`PriorityQueue`] so every single-op caller —
/// apps, drills, benches — can run through it unchanged, and passes
/// [`BatchPriorityQueue`] straight through to the wrapped queue so
/// already-batched callers skip the front.
///
/// ```
/// use bgpq_combine::Combiner;
/// use bgpq::{BgpqOptions, CpuBgpq};
/// use pq_api::PriorityQueue;
///
/// let q = Combiner::wrap(CpuBgpq::<u32, u32>::new(BgpqOptions::with_capacity_for(64, 1_000)));
/// q.insert(7, 70);
/// q.insert(3, 30);
/// assert_eq!(q.delete_min().map(|e| e.key), Some(3));
/// ```
pub struct Combiner<K: KeyType, V: ValueType, Q> {
    queue: Q,
    shared: CombineShared<K, V>,
}

impl<K, V, Q> Combiner<K, V, Q>
where
    K: KeyType,
    V: ValueType,
    Q: TryBatchPriorityQueue<K, V>,
{
    /// Wrap `queue` with default combining options.
    pub fn wrap(queue: Q) -> Self {
        Self::with_options(queue, CombinerOptions::default())
    }

    pub fn with_options(queue: Q, opts: CombinerOptions) -> Self {
        let shared = CombineShared::new(queue.batch_capacity(), opts);
        Self { queue, shared }
    }

    /// The wrapped queue (its own stats, direct batched access).
    pub fn inner(&self) -> &Q {
        &self.queue
    }

    pub fn into_inner(self) -> Q {
        self.queue
    }

    /// Front-side counters (issued batches, coalesced widths); the
    /// wrapped queue keeps its own [`OpStats`] independently.
    pub fn stats(&self) -> &OpStats {
        self.shared.stats()
    }

    /// Whether a backend crash has poisoned the front.
    pub fn is_poisoned(&self) -> bool {
        self.shared.is_poisoned()
    }

    /// Coalesced single-item insert; failures (`Full`, `Poisoned`,
    /// `LockTimeout`) surface as values and the caller still owns the
    /// key on `Err`.
    pub fn try_insert(&self, key: K, value: V) -> Result<(), QueueError> {
        let mut b = CpuBackend { queue: &self.queue };
        self.shared.submit(&mut b, Op::Insert(Entry::new(key, value))).map(|_| ())
    }

    /// Coalesced single-item delete-min; `Ok(None)` means the queue
    /// was observed empty.
    pub fn try_delete_min(&self) -> Result<Option<Entry<K, V>>, QueueError> {
        let mut b = CpuBackend { queue: &self.queue };
        self.shared.submit(&mut b, Op::DeleteMin)
    }
}

impl<K, V, Q> PriorityQueue<K, V> for Combiner<K, V, Q>
where
    K: KeyType,
    V: ValueType,
    Q: TryBatchPriorityQueue<K, V>,
{
    fn insert(&self, key: K, value: V) {
        if let Err(e) = self.try_insert(key, value) {
            panic!("combined insert failed: {e}");
        }
    }

    fn delete_min(&self) -> Option<Entry<K, V>> {
        match self.try_delete_min() {
            Ok(r) => r,
            Err(e) => panic!("combined delete_min failed: {e}"),
        }
    }

    fn len(&self) -> usize {
        self.queue.len()
    }
}

/// Already-batched callers bypass the front: the wrapped queue's
/// batched entry points are exactly as concurrent-safe as before.
impl<K, V, Q> BatchPriorityQueue<K, V> for Combiner<K, V, Q>
where
    K: KeyType,
    V: ValueType,
    Q: TryBatchPriorityQueue<K, V>,
{
    fn batch_capacity(&self) -> usize {
        self.queue.batch_capacity()
    }

    fn insert_batch(&self, items: &[Entry<K, V>]) {
        self.queue.insert_batch(items);
    }

    fn delete_min_batch(&self, out: &mut Vec<Entry<K, V>>, count: usize) -> usize {
        self.queue.delete_min_batch(out, count)
    }

    fn len(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_api::ItemwiseBatch;
    use std::collections::BinaryHeap;
    use std::sync::Mutex;

    /// Reference queue so these unit tests need no heavier crate; the
    /// integration tests exercise `CpuBgpq`/`CpuShardedBgpq` backends.
    struct RefPq(Mutex<BinaryHeap<core::cmp::Reverse<Entry<u32, u32>>>>);

    impl PriorityQueue<u32, u32> for RefPq {
        fn insert(&self, key: u32, value: u32) {
            self.0.lock().unwrap().push(core::cmp::Reverse(Entry::new(key, value)));
        }
        fn delete_min(&self) -> Option<Entry<u32, u32>> {
            self.0.lock().unwrap().pop().map(|r| r.0)
        }
        fn len(&self) -> usize {
            self.0.lock().unwrap().len()
        }
    }

    fn front() -> Combiner<u32, u32, ItemwiseBatch<RefPq>> {
        Combiner::wrap(ItemwiseBatch::new(RefPq(Mutex::new(BinaryHeap::new())), 8))
    }

    #[test]
    fn single_thread_orders_keys() {
        let q = front();
        for k in [5u32, 1, 9, 3] {
            q.insert(k, k * 10);
        }
        assert_eq!(PriorityQueue::len(&q), 4);
        let got: Vec<u32> = std::iter::from_fn(|| q.delete_min().map(|e| e.key)).collect();
        assert_eq!(got, vec![1, 3, 5, 9]);
    }

    #[test]
    fn concurrent_submitters_conserve_every_key() {
        let q = std::sync::Arc::new(front());
        let per = 500u32;
        let threads = 4u32;
        let mut handles = Vec::new();
        for t in 0..threads {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    q.insert(t * per + i, 0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut seen = Vec::new();
        while let Some(e) = q.delete_min() {
            seen.push(e.key);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..threads * per).collect::<Vec<_>>());
        let snap = q.stats().snapshot();
        assert_eq!(snap.items_inserted, (threads * per) as u64);
        assert_eq!(snap.items_deleted, (threads * per) as u64);
        assert!(snap.inserts <= snap.items_inserted, "batches never exceed requests");
    }

    #[test]
    fn batched_path_bypasses_the_front() {
        let q = front();
        q.insert_batch(&[Entry::new(4, 0), Entry::new(2, 0)]);
        assert_eq!(q.stats().snapshot().batches_recorded(), 0, "no front batch issued");
        let mut out = Vec::new();
        assert_eq!(q.delete_min_batch(&mut out, 2), 2);
        assert_eq!(out[0].key, 2);
    }
}

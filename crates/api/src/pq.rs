//! Priority-queue ADTs.
//!
//! Two traits mirror the two API shapes in the paper:
//!
//! * [`PriorityQueue`] — classical item-at-a-time `INSERT` / `DELETEMIN`,
//!   implemented by every CPU baseline (TBB stand-in, Hunt, LJSL,
//!   SprayList, CBPQ).
//! * [`BatchPriorityQueue`] — BGPQ's batched API (§3.2): "Our INSERT API
//!   supports the insertion of 1 to k keys to the heap. Our deleteMin API
//!   supports the deletion of 1 to k smallest keys from the heap."
//!
//! All methods take `&self`: these are concurrent structures shared
//! across threads.

use crate::entry::Entry;
use crate::error::QueueError;
use crate::key::{KeyType, ValueType};

/// Classical concurrent priority queue ADT.
pub trait PriorityQueue<K: KeyType, V: ValueType>: Send + Sync {
    /// Insert one `(key, value)` pair.
    fn insert(&self, key: K, value: V);

    /// Remove and return an entry with the smallest key, or `None` when
    /// the queue is (momentarily) empty.
    ///
    /// Relaxed implementations (SprayList) may return an entry *near* the
    /// minimum; see the implementation's docs.
    fn delete_min(&self) -> Option<Entry<K, V>>;

    /// A best-effort size snapshot (exact at quiescence).
    fn len(&self) -> usize;

    /// True when `len() == 0`. Only meaningful at quiescence.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Batched concurrent priority queue ADT (BGPQ's native shape).
pub trait BatchPriorityQueue<K: KeyType, V: ValueType>: Send + Sync {
    /// Maximum batch size (`k`, the node capacity). Calls may pass fewer
    /// items but never more.
    fn batch_capacity(&self) -> usize;

    /// Insert `items` (1..=`batch_capacity()` entries, any order).
    fn insert_batch(&self, items: &[Entry<K, V>]);

    /// Delete up to `count` smallest entries (1..=`batch_capacity()`),
    /// appending them to `out` in ascending key order. Returns the number
    /// of entries actually deleted, which is smaller than `count` only
    /// when the queue ran out of items.
    fn delete_min_batch(&self, out: &mut Vec<Entry<K, V>>, count: usize) -> usize;

    /// Best-effort size snapshot (exact at quiescence).
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Batched queue with non-panicking entry points: backpressure
/// ([`QueueError::Full`]) and failure ([`QueueError::Poisoned`],
/// [`QueueError::LockTimeout`]) surface as values instead of panics.
///
/// The default methods delegate to the infallible
/// [`BatchPriorityQueue`] operations — correct for implementations
/// that cannot fail (the CPU baselines, [`ItemwiseBatch`]). Hardened
/// queues (`CpuBgpq`, `CpuShardedBgpq`) override both methods with
/// their real `try_*` paths, which is what lets generic fronts (the
/// coalescing combiner) propagate `Full`/`Poisoned`/`LockTimeout` to
/// blocked submitters instead of wedging them.
pub trait TryBatchPriorityQueue<K: KeyType, V: ValueType>: BatchPriorityQueue<K, V> {
    /// Insert `items` (1..=`batch_capacity()`), surfacing failures.
    /// On `Err` the batch was not inserted and the caller still owns
    /// every key.
    fn try_insert_batch(&self, items: &[Entry<K, V>]) -> Result<(), QueueError> {
        self.insert_batch(items);
        Ok(())
    }

    /// Delete up to `count` smallest entries, surfacing failures. On
    /// `Err`, `out` is unchanged.
    fn try_delete_min_batch(
        &self,
        out: &mut Vec<Entry<K, V>>,
        count: usize,
    ) -> Result<usize, QueueError> {
        Ok(self.delete_min_batch(out, count))
    }
}

/// Adapter: any single-item [`PriorityQueue`] is a batched queue that
/// processes batch elements one at a time. This is how CPU baselines run
/// under the batched application drivers (knapsack, A*) — exactly the
/// paper's setup, where the CPU baselines pop/push individual nodes while
/// BGPQ moves full batch nodes.
pub struct ItemwiseBatch<Q> {
    inner: Q,
    batch: usize,
}

impl<Q> ItemwiseBatch<Q> {
    pub fn new(inner: Q, batch: usize) -> Self {
        assert!(batch >= 1, "batch capacity must be at least 1");
        Self { inner, batch }
    }

    pub fn into_inner(self) -> Q {
        self.inner
    }

    pub fn inner(&self) -> &Q {
        &self.inner
    }
}

impl<K, V, Q> BatchPriorityQueue<K, V> for ItemwiseBatch<Q>
where
    K: KeyType,
    V: ValueType,
    Q: PriorityQueue<K, V>,
{
    fn batch_capacity(&self) -> usize {
        self.batch
    }

    fn insert_batch(&self, items: &[Entry<K, V>]) {
        assert!(items.len() <= self.batch);
        for e in items {
            self.inner.insert(e.key, e.value);
        }
    }

    fn delete_min_batch(&self, out: &mut Vec<Entry<K, V>>, count: usize) -> usize {
        assert!(count <= self.batch);
        let mut got = 0;
        while got < count {
            match self.inner.delete_min() {
                Some(e) => {
                    out.push(e);
                    got += 1;
                }
                None => break,
            }
        }
        got
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

/// Itemwise baselines never fail structurally; the defaults apply.
impl<K, V, Q> TryBatchPriorityQueue<K, V> for ItemwiseBatch<Q>
where
    K: KeyType,
    V: ValueType,
    Q: PriorityQueue<K, V>,
{
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;
    use std::sync::Mutex;

    /// Minimal reference queue for exercising the adapters.
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

    #[test]
    fn itemwise_batch_roundtrip() {
        let q = ItemwiseBatch::new(RefPq(Mutex::new(BinaryHeap::new())), 4);
        let items: Vec<Entry<u32, u32>> =
            [(5, 0), (1, 1), (9, 2), (3, 3)].iter().map(|&(k, v)| Entry::new(k, v)).collect();
        q.insert_batch(&items);
        assert_eq!(BatchPriorityQueue::len(&q), 4);

        let mut out = Vec::new();
        let n = q.delete_min_batch(&mut out, 3);
        assert_eq!(n, 3);
        assert_eq!(out.iter().map(|e| e.key).collect::<Vec<_>>(), vec![1, 3, 5]);

        let n = q.delete_min_batch(&mut out, 4);
        assert_eq!(n, 1, "only one item left");
        assert_eq!(out.last().unwrap().key, 9);
        assert!(BatchPriorityQueue::is_empty(&q));
    }

    #[test]
    #[should_panic]
    fn oversized_batch_is_rejected() {
        let q = ItemwiseBatch::new(RefPq(Mutex::new(BinaryHeap::new())), 2);
        let items = vec![Entry::new(1u32, 0u32); 3];
        q.insert_batch(&items);
    }
}

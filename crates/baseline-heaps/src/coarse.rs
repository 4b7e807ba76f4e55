//! Coarse-grained lock-protected binary heap (TBB stand-in).

use parking_lot::Mutex;
use pq_api::{Entry, KeyType, PriorityQueue, ValueType};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A `std::collections::BinaryHeap` behind a single mutex: the simplest
/// correct concurrent priority queue and the model for lock-protected
/// library queues like TBB's. Every operation serializes, which is
/// exactly the bottleneck the paper's Table 2 quantifies.
pub struct CoarseLockPq<K, V> {
    heap: Mutex<BinaryHeap<Reverse<Entry<K, V>>>>,
}

impl<K: KeyType, V: ValueType> CoarseLockPq<K, V> {
    pub fn new() -> Self {
        Self { heap: Mutex::new(BinaryHeap::new()) }
    }

    pub fn with_capacity(n: usize) -> Self {
        Self { heap: Mutex::new(BinaryHeap::with_capacity(n)) }
    }
}

impl<K: KeyType, V: ValueType> Default for CoarseLockPq<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: KeyType, V: ValueType> PriorityQueue<K, V> for CoarseLockPq<K, V> {
    fn insert(&self, key: K, value: V) {
        self.heap.lock().push(Reverse(Entry::new(key, value)));
    }

    fn delete_min(&self) -> Option<Entry<K, V>> {
        self.heap.lock().pop().map(|r| r.0)
    }

    fn len(&self) -> usize {
        self.heap.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_drain() {
        let q = CoarseLockPq::<u32, u32>::new();
        for k in [5u32, 1, 9, 3, 7] {
            q.insert(k, k * 10);
        }
        let mut got = Vec::new();
        while let Some(e) = q.delete_min() {
            got.push((e.key, e.value));
        }
        assert_eq!(got, vec![(1, 10), (3, 30), (5, 50), (7, 70), (9, 90)]);
    }

    #[test]
    fn concurrent_conservation() {
        let q = CoarseLockPq::<u32, u32>::new();
        let deleted = std::sync::Mutex::new(0usize);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let q = &q;
                let deleted = &deleted;
                s.spawn(move || {
                    let mut mine = 0;
                    for i in 0..500u32 {
                        q.insert(t * 1000 + i, 0);
                        if i % 2 == 0 && q.delete_min().is_some() {
                            mine += 1;
                        }
                    }
                    *deleted.lock().unwrap() += mine;
                });
            }
        });
        assert_eq!(q.len() + *deleted.lock().unwrap(), 4 * 500);
    }

    #[test]
    fn empty_pop_is_none() {
        let q = CoarseLockPq::<u64, ()>::new();
        assert!(q.delete_min().is_none());
        assert!(q.is_empty());
    }
}

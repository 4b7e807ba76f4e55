//! Lindén & Jonsson-style priority queue: logical deletes + batched
//! physical unlinking over the shared skiplist.

use crate::list::SkipList;
use pq_api::{Entry, KeyType, PriorityQueue, ValueType};

/// Skiplist priority queue with deferred, batched physical deletion
/// (the "LJSL" column of Table 2).
pub struct LindenJonssonPq<K, V> {
    list: SkipList<K, V>,
}

impl<K: KeyType, V: ValueType> LindenJonssonPq<K, V> {
    /// `cleanup_threshold` is the dead-prefix length that triggers one
    /// batched restructuring pass (Lindén & Jonsson's `BoundOffset`).
    pub fn new(cleanup_threshold: usize) -> Self {
        Self { list: SkipList::new(cleanup_threshold) }
    }

    pub fn list(&self) -> &SkipList<K, V> {
        &self.list
    }
}

impl<K: KeyType, V: ValueType> Default for LindenJonssonPq<K, V> {
    fn default() -> Self {
        Self::new(32)
    }
}

impl<K: KeyType, V: ValueType> PriorityQueue<K, V> for LindenJonssonPq<K, V> {
    fn insert(&self, key: K, value: V) {
        self.list.insert(Entry::new(key, value));
    }

    fn delete_min(&self) -> Option<Entry<K, V>> {
        self.list.claim_min()
    }

    fn len(&self) -> usize {
        self.list.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn model_equivalence() {
        let q = LindenJonssonPq::<u32, u32>::new(8);
        let mut model = std::collections::BinaryHeap::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..2000 {
            if rng.gen_bool(0.5) || model.is_empty() {
                let k = rng.gen_range(0..1 << 20);
                q.insert(k, k);
                model.push(std::cmp::Reverse(k));
            } else {
                assert_eq!(q.delete_min().map(|e| e.key), model.pop().map(|r| r.0));
            }
        }
        q.list().check_invariants();
    }

    #[test]
    fn concurrent_run_keeps_invariants() {
        let q = LindenJonssonPq::<u32, u32>::new(4);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let q = &q;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(t);
                    for _ in 0..300 {
                        if rng.gen_bool(0.55) {
                            q.insert(rng.gen_range(0..1 << 30), 0);
                        } else {
                            q.delete_min();
                        }
                    }
                });
            }
        });
        q.list().check_invariants();
    }
}

//! Lotan–Shavit / Sundell–Tsigas-style skiplist priority queue:
//! logical delete-min with *eager* physical unlinking.
//!
//! The paper's Table 1 lists STSL (Sundell & Tsigas) alongside LJSL;
//! the structural difference the evaluation cares about is that the
//! pre-Lindén designs unlink every deleted node promptly, paying the
//! restructuring (and, on CPUs, cache-coherence) cost per deletion,
//! where LJSL batches it. This wrapper reproduces that behaviour on the
//! shared substrate: cleanup threshold 1 plus a forced unlink pass
//! after every claim.

use crate::list::SkipList;
use pq_api::{Entry, KeyType, PriorityQueue, ValueType};

/// Eager-unlink skiplist priority queue (the "STSL" design point).
pub struct LotanShavitPq<K, V> {
    list: SkipList<K, V>,
}

impl<K: KeyType, V: ValueType> LotanShavitPq<K, V> {
    pub fn new() -> Self {
        Self { list: SkipList::new(1) }
    }

    pub fn list(&self) -> &SkipList<K, V> {
        &self.list
    }
}

impl<K: KeyType, V: ValueType> Default for LotanShavitPq<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: KeyType, V: ValueType> PriorityQueue<K, V> for LotanShavitPq<K, V> {
    fn insert(&self, key: K, value: V) {
        self.list.insert(Entry::new(key, value));
    }

    fn delete_min(&self) -> Option<Entry<K, V>> {
        let e = self.list.claim_min();
        // Eager physical deletion: restructure immediately (skipped
        // only if another thread is mid-restructure).
        self.list.cleanup();
        e
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
        let q = LotanShavitPq::<u32, u32>::new();
        let mut model = std::collections::BinaryHeap::new();
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..1500 {
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
    fn concurrent_conservation() {
        let q = LotanShavitPq::<u32, u32>::new();
        let taken = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..6u64 {
                let q = &q;
                let taken = &taken;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(t);
                    for _ in 0..300 {
                        if rng.gen_bool(0.6) {
                            q.insert(rng.gen_range(0..1 << 30), 0);
                        } else if q.delete_min().is_some() {
                            taken.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        q.list().check_invariants();
        let mut rest = 0usize;
        while q.delete_min().is_some() {
            rest += 1;
        }
        let _ = rest;
        assert!(q.list().is_empty());
    }

    #[test]
    fn eager_cleanup_keeps_prefix_short() {
        let q = LotanShavitPq::<u32, ()>::new();
        for k in 0..200u32 {
            q.insert(k, ());
        }
        for expect in 0..100u32 {
            assert_eq!(q.delete_min().unwrap().key, expect);
        }
        q.list().check_invariants();
        assert_eq!(q.len(), 100);
    }
}

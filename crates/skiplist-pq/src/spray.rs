//! SprayList (Alistarh, Kopinsky, Li, Shavit — PPoPP'15): a relaxed
//! priority queue whose delete-min "sprays" a random walk from the head
//! and claims a node among the first `O(p·log³p)` keys, relieving head
//! contention at the cost of strict min ordering.

use crate::list::{SkipList, MAX_LEVEL};
use pq_api::{Entry, KeyType, PriorityQueue, ValueType};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::sync::atomic::Ordering;

thread_local! {
    static SPRAY_RNG: RefCell<SmallRng> = RefCell::new(SmallRng::seed_from_u64(
        // Distinct stream per thread; determinism is not required for a
        // relaxed structure.
        std::time::UNIX_EPOCH.elapsed().map(|d| d.as_nanos() as u64).unwrap_or(7) ^ 0xA5A5_5A5A,
    ));
}

/// Relaxed skiplist priority queue with spray deletions.
pub struct SprayListPq<K, V> {
    list: SkipList<K, V>,
    /// Expected number of concurrent deleters `p`; sets the spray
    /// height/width (the paper tunes for `p` threads).
    threads_hint: usize,
}

impl<K: KeyType, V: ValueType> SprayListPq<K, V> {
    pub fn new(threads_hint: usize, cleanup_threshold: usize) -> Self {
        Self { list: SkipList::new(cleanup_threshold), threads_hint: threads_hint.max(1) }
    }

    pub fn list(&self) -> &SkipList<K, V> {
        &self.list
    }

    /// One spray descent: returns a claimed entry, or `None` when the
    /// spray found nothing claimable (caller falls back to a precise
    /// scan).
    fn spray_once(&self) -> Option<Entry<K, V>> {
        let p = self.threads_hint;
        let log_p = (usize::BITS - p.leading_zeros()) as usize; // ⌈log2 p⌉+1-ish
        let height = (log_p + 1).min(MAX_LEVEL - 1);
        let max_jump = (log_p + 2).max(2);

        let jumps: Vec<usize> = SPRAY_RNG.with(|r| {
            let mut r = r.borrow_mut();
            (0..=height).map(|_| r.gen_range(0..=max_jump)).collect()
        });

        // Walk: at each level, jump a random number of nodes, then
        // descend one level.
        let mut node = self.list.head_node() as *const crate::list::Node<K, V>;
        for lvl in (0..=height).rev() {
            let mut hops = jumps[height - lvl];
            while hops > 0 {
                // SAFETY: nodes are arena-owned; claim/scan protocols in
                // `list` keep linked pointers valid.
                let next = unsafe { (&*node).next[lvl].load(Ordering::Acquire) };
                if next.is_null() {
                    break;
                }
                node = next;
                hops -= 1;
            }
        }
        // Claim scan forward from the landing point at level 0.
        let head = self.list.head_node() as *const crate::list::Node<K, V>;
        let mut curr = if std::ptr::eq(node, head) {
            unsafe { (&*head).next[0].load(Ordering::Acquire) }
        } else {
            node as *mut crate::list::Node<K, V>
        };
        let mut budget = 4 * max_jump + 4;
        while !curr.is_null() && budget > 0 {
            let r = unsafe { &*curr };
            if self.list.try_claim(r) {
                return Some(r.entry);
            }
            curr = r.next[0].load(Ordering::Acquire);
            budget -= 1;
        }
        None
    }
}

impl<K: KeyType, V: ValueType> PriorityQueue<K, V> for SprayListPq<K, V> {
    fn insert(&self, key: K, value: V) {
        self.list.insert(Entry::new(key, value));
    }

    /// Relaxed delete-min: returns an entry near (not necessarily at)
    /// the minimum — the SprayList contract.
    fn delete_min(&self) -> Option<Entry<K, V>> {
        for _ in 0..3 {
            if let Some(e) = self.spray_once() {
                return Some(e);
            }
            if self.list.is_empty() {
                break;
            }
        }
        // Fall back to a precise claim so emptiness is detected exactly.
        self.list.claim_min()
    }

    fn len(&self) -> usize {
        self.list.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_everything_eventually() {
        let q = SprayListPq::<u32, u32>::new(8, 16);
        for k in 0..500u32 {
            q.insert(k, k);
        }
        let mut got = Vec::new();
        while let Some(e) = q.delete_min() {
            got.push(e.key);
        }
        assert_eq!(got.len(), 500);
        got.sort_unstable();
        assert_eq!(got, (0..500).collect::<Vec<_>>(), "multiset must be conserved");
    }

    #[test]
    fn relaxed_deletes_stay_near_the_head() {
        let q = SprayListPq::<u32, ()>::new(8, 1 << 20);
        let n = 10_000u32;
        for k in 0..n {
            q.insert(k, ());
        }
        // The first delete must return a key within the spray window,
        // not something from the middle of the list.
        for _ in 0..50 {
            let e = q.delete_min().expect("non-empty");
            assert!(e.key < 2_000, "spray strayed too far: {}", e.key);
        }
    }

    #[test]
    fn concurrent_conservation() {
        let q = SprayListPq::<u32, u32>::new(8, 32);
        let taken = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let q = &q;
                let taken = &taken;
                s.spawn(move || {
                    use rand::rngs::StdRng;
                    let mut rng = StdRng::seed_from_u64(t);
                    for _ in 0..300 {
                        if rng.gen_bool(0.6) {
                            q.insert(rng.gen_range(0..1 << 30), 0);
                        } else if q.delete_min().is_some() {
                            taken.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        q.list().check_invariants();
        let mut drained = 0usize;
        while q.delete_min().is_some() {
            drained += 1;
        }
        assert!(q.list().is_empty());
        let _ = drained;
    }

    #[test]
    fn empty_returns_none() {
        let q = SprayListPq::<u32, ()>::new(4, 8);
        assert!(q.delete_min().is_none());
    }
}

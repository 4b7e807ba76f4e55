//! Fine-grained concurrent binary heap: one key per node, one lock per
//! node, top-down insertion and deletion with hand-over-hand locking —
//! the classical design of Nageshwara Rao & Kumar \[21\] (the Hunt et
//! al. \[14\] variant differs only in bottom-up insertions; the paper
//! reports identical performance for the two, §3.3).
//!
//! Structure mirrors BGPQ with `k = 1` and no partial buffer: the
//! insert merges with the root under the root lock (so the minimum is
//! immediately visible), reserves a leaf slot, and walks the root→leaf
//! path hand-over-hand carrying the displaced key; deletion extracts
//! the root key, refills from the last slot, and sifts down. The
//! `Reserved` state plays the role of BGPQ's `TARGET` (without the
//! MARKED collaboration): a deletion that catches an in-flight
//! insertion's slot waits for the insert to land.

use parking_lot::Mutex;
use pq_api::{Entry, KeyType, PriorityQueue, ValueType};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Empty,
    Avail,
    /// Claimed by an in-flight insertion that has not yet landed.
    Reserved,
}

struct Slot<K, V> {
    state: SlotState,
    entry: Entry<K, V>,
}

/// Fine-grained one-key-per-node concurrent heap.
pub struct FineHeapPq<K, V> {
    /// 1-based implicit tree; slot 0 unused.
    slots: Box<[Mutex<Slot<K, V>>]>,
    /// Heap size; mutated only while holding slot 1 (the root lock),
    /// like BGPQ's meta.
    size: std::sync::atomic::AtomicUsize,
    len: std::sync::atomic::AtomicUsize,
}

impl<K: KeyType, V: ValueType> FineHeapPq<K, V> {
    /// Heap with room for `capacity` keys.
    pub fn new(capacity: usize) -> Self {
        let n = capacity.max(2) + 2;
        Self {
            slots: (0..n)
                .map(|_| Mutex::new(Slot { state: SlotState::Empty, entry: Entry::sentinel() }))
                .collect(),
            size: std::sync::atomic::AtomicUsize::new(0),
            len: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    #[inline]
    fn size_rlx(&self) -> usize {
        self.size.load(std::sync::atomic::Ordering::Relaxed)
    }

    #[inline]
    fn set_size(&self, v: usize) {
        self.size.store(v, std::sync::atomic::Ordering::Relaxed);
    }

    /// Quiescent invariant check: parent ≤ child for all in-use slots.
    pub fn check_invariants(&self) {
        let n = self.size_rlx();
        for i in 1..=n {
            let s = self.slots[i].lock();
            assert_eq!(s.state, SlotState::Avail, "slot {i} within size not AVAIL");
            if i >= 2 {
                let p = self.slots[i / 2].lock();
                assert!(p.entry.key <= s.entry.key, "slot {i} violates heap order");
            }
        }
    }
}

impl<K: KeyType, V: ValueType> PriorityQueue<K, V> for FineHeapPq<K, V> {
    fn insert(&self, key: K, value: V) {
        let mut val = Entry::new(key, value);
        let mut cur = 1usize;
        let mut cur_guard = self.slots[1].lock();
        let n = self.size_rlx();
        if n == 0 {
            cur_guard.entry = val;
            cur_guard.state = SlotState::Avail;
            self.set_size(1);
            self.len.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return;
        }
        assert!(n + 1 < self.slots.len(), "FineHeapPq capacity exceeded");
        let tar = n + 1;
        self.set_size(tar);
        self.len.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // Reserve the leaf (BGPQ's TARGET) while still holding the root.
        {
            let mut t = self.slots[tar].lock();
            debug_assert_eq!(t.state, SlotState::Empty);
            t.state = SlotState::Reserved;
        }
        // Keep the minimum at the root (linearization: the key is now
        // logically in the heap), carry the larger key down.
        loop {
            if cur_guard.state == SlotState::Avail && val < cur_guard.entry {
                std::mem::swap(&mut val, &mut cur_guard.entry);
            }
            let next = {
                let d = crate::fine::level(tar) - crate::fine::level(cur);
                tar >> (d - 1)
            };
            // Hand-over-hand: lock the child before releasing `cur`.
            let next_guard = self.slots[next].lock();
            drop(cur_guard);
            cur = next;
            cur_guard = next_guard;
            if cur == tar {
                // The slot may still be Reserved (normal) — land here.
                cur_guard.entry = val;
                cur_guard.state = SlotState::Avail;
                return;
            }
        }
    }

    fn delete_min(&self) -> Option<Entry<K, V>> {
        let mut root = self.slots[1].lock();
        let n = self.size_rlx();
        if n == 0 {
            return None;
        }
        self.len.fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
        debug_assert_eq!(root.state, SlotState::Avail);
        let result = root.entry;
        if n == 1 {
            root.state = SlotState::Empty;
            root.entry = Entry::sentinel();
            self.set_size(0);
            return Some(result);
        }
        let tar = n;
        self.set_size(n - 1);
        // Take the last key; wait out an in-flight insertion (BGPQ's
        // TARGET case, without MARKED collaboration).
        let last = loop {
            let mut t = self.slots[tar].lock();
            match t.state {
                SlotState::Avail => {
                    let e = t.entry;
                    t.state = SlotState::Empty;
                    t.entry = Entry::sentinel();
                    break e;
                }
                SlotState::Reserved => {
                    drop(t);
                    std::thread::yield_now();
                }
                SlotState::Empty => unreachable!("last slot empty while size = {n}"),
            }
        };
        root.entry = last;
        // Sift down hand-over-hand.
        let mut cur = 1usize;
        let mut cur_guard = root;
        loop {
            let l = 2 * cur;
            let r = 2 * cur + 1;
            let lg = (l < self.slots.len()).then(|| self.slots[l].lock());
            let rg = (r < self.slots.len()).then(|| self.slots[r].lock());
            let l_avail = lg.as_ref().is_some_and(|g| g.state == SlotState::Avail);
            let r_avail = rg.as_ref().is_some_and(|g| g.state == SlotState::Avail);
            // Pick the smaller AVAIL child (Reserved/Empty children hold
            // no keys and are skipped, like BGPQ's TARGET nodes).
            let pick_left = match (l_avail, r_avail) {
                (false, false) => {
                    return Some(result);
                }
                (true, false) => true,
                (false, true) => false,
                (true, true) => lg.as_ref().unwrap().entry <= rg.as_ref().unwrap().entry,
            };
            let (mut child_guard, child) = if pick_left {
                drop(rg);
                (lg.unwrap(), l)
            } else {
                drop(lg);
                (rg.unwrap(), r)
            };
            if child_guard.entry < cur_guard.entry {
                std::mem::swap(&mut child_guard.entry, &mut cur_guard.entry);
                drop(cur_guard);
                cur = child;
                cur_guard = child_guard;
            } else {
                return Some(result);
            }
        }
    }

    fn len(&self) -> usize {
        self.len.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Depth of node `i` in the implicit tree.
#[inline]
fn level(i: usize) -> u32 {
    usize::BITS - 1 - i.leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn ordered_drain() {
        let q = FineHeapPq::<u32, u32>::new(64);
        for k in [5u32, 1, 9, 3, 7, 1] {
            q.insert(k, k);
        }
        let mut got = Vec::new();
        while let Some(e) = q.delete_min() {
            got.push(e.key);
        }
        assert_eq!(got, vec![1, 1, 3, 5, 7, 9]);
    }

    #[test]
    fn random_matches_model() {
        let q = FineHeapPq::<u32, u32>::new(4096);
        let mut model = std::collections::BinaryHeap::new();
        let mut rng = StdRng::seed_from_u64(9);
        for step in 0..4000 {
            if rng.gen_bool(0.6) || model.is_empty() {
                let k = rng.gen_range(0..10_000u32);
                q.insert(k, k);
                model.push(std::cmp::Reverse(k));
            } else {
                let got = q.delete_min().map(|e| e.key);
                let expect = model.pop().map(|r| r.0);
                assert_eq!(got, expect, "step {step}");
            }
        }
        q.check_invariants();
    }

    #[test]
    fn concurrent_conservation_and_order() {
        let q = FineHeapPq::<u32, u32>::new(1 << 16);
        let deleted: parking_lot::Mutex<Vec<u32>> = parking_lot::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let q = &q;
                let deleted = &deleted;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(t);
                    let mut mine = Vec::new();
                    for _ in 0..400 {
                        if rng.gen_bool(0.6) {
                            q.insert(rng.gen_range(0..1 << 30), 0);
                        } else if let Some(e) = q.delete_min() {
                            mine.push(e.key);
                        }
                    }
                    deleted.lock().extend(mine);
                });
            }
        });
        q.check_invariants();
        // Drain and check global conservation.
        let mut rest = 0;
        while q.delete_min().is_some() {
            rest += 1;
        }
        assert_eq!(q.len(), 0);
        let _ = rest;
    }

    #[test]
    fn concurrent_insert_only_then_sorted_drain() {
        let q = FineHeapPq::<u32, ()>::new(1 << 14);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let q = &q;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(t + 100);
                    for _ in 0..500 {
                        q.insert(rng.gen_range(0..1 << 30), ());
                    }
                });
            }
        });
        assert_eq!(PriorityQueue::<u32, ()>::len(&q), 4000);
        q.check_invariants();
        let mut prev = 0;
        let mut count = 0;
        while let Some(e) = q.delete_min() {
            assert!(e.key >= prev, "out of order");
            prev = e.key;
            count += 1;
        }
        assert_eq!(count, 4000);
    }

    #[test]
    fn empty_heap_returns_none() {
        let q = FineHeapPq::<u32, ()>::new(8);
        assert!(q.delete_min().is_none());
        q.insert(1, ());
        assert!(q.delete_min().is_some());
        assert!(q.delete_min().is_none());
    }
}

//! The shared concurrent skiplist substrate.
//!
//! * `p = 1/2` level distribution, tower height ≤ [`MAX_LEVEL`] (§2.1 of
//!   the paper describes the structure).
//! * Inserts link new towers with CAS, retrying on contention; nodes are
//!   owned by an append-only arena so raw pointers stay valid for the
//!   queue's lifetime (no ABA: memory is never reused).
//! * Logical deletion is one atomic flag claim; deleted nodes remain
//!   linked until a *batched* physical cleanup unlinks the deleted
//!   prefix — Lindén & Jonsson's key idea.
//! * Cleanup takes the structure lock in write mode; inserts and scans
//!   hold it in read mode, so pointer chasing never races an unlink.

use parking_lot::{Mutex, RwLock};
use pq_api::{Entry, KeyType, ValueType};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicPtr, AtomicU64, Ordering};

/// Maximum tower height; 2^24 expected keys is ample for the bench
/// scales.
pub const MAX_LEVEL: usize = 24;

pub(crate) struct Node<K, V> {
    pub entry: Entry<K, V>,
    pub deleted: AtomicBool,
    pub level: usize,
    /// `next[l]` is valid for `l < level`.
    pub next: Vec<AtomicPtr<Node<K, V>>>,
}

impl<K: KeyType, V: ValueType> Node<K, V> {
    fn new(entry: Entry<K, V>, level: usize) -> Box<Self> {
        Box::new(Self {
            entry,
            deleted: AtomicBool::new(false),
            level,
            next: (0..level).map(|_| AtomicPtr::new(std::ptr::null_mut())).collect(),
        })
    }
}

pub struct SkipList<K, V> {
    head: Box<Node<K, V>>,
    arena: Mutex<Vec<Box<Node<K, V>>>>,
    /// Read = traverse/insert; write = physically unlink.
    structure: RwLock<()>,
    len: AtomicIsize,
    level_seed: AtomicU64,
    /// Logical deletes observed since the last cleanup; triggers the
    /// batched physical unlink when it exceeds `cleanup_threshold`.
    dead_since_cleanup: AtomicIsize,
    cleanup_threshold: isize,
}

// SAFETY: nodes are shared via raw pointers but (a) owned by the arena
// for the list's lifetime, (b) link mutations are atomic, (c) unlinking
// is exclusive via `structure`.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for SkipList<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for SkipList<K, V> {}

impl<K: KeyType, V: ValueType> SkipList<K, V> {
    pub fn new(cleanup_threshold: usize) -> Self {
        Self {
            head: Node::new(Entry::new(K::MIN_KEY, V::default()), MAX_LEVEL),
            arena: Mutex::new(Vec::new()),
            structure: RwLock::new(()),
            len: AtomicIsize::new(0),
            level_seed: AtomicU64::new(0x9E3779B97F4A7C15),
            dead_since_cleanup: AtomicIsize::new(0),
            cleanup_threshold: cleanup_threshold.max(1) as isize,
        }
    }

    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed).max(0) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Geometric level draw (p = 1/2) from a shared splitmix64 stream.
    fn random_level(&self) -> usize {
        let mut z = self.level_seed.fetch_add(0x9E3779B97F4A7C15, Ordering::Relaxed);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        ((z.trailing_ones() as usize) + 1).min(MAX_LEVEL)
    }

    /// Predecessors of `key` at every level (nodes with key < `key`,
    /// deleted or not — deleted nodes stay linked until cleanup).
    fn find_preds(&self, key: K, preds: &mut [*const Node<K, V>; MAX_LEVEL]) {
        let mut pred: *const Node<K, V> = &*self.head;
        for lvl in (0..MAX_LEVEL).rev() {
            loop {
                // SAFETY: linked nodes live in the arena; structure read
                // lock (held by callers) excludes unlinking.
                let curr = unsafe { (&*pred).next[lvl].load(Ordering::Acquire) };
                if curr.is_null() {
                    break;
                }
                let curr_ref = unsafe { &*curr };
                if curr_ref.entry.key < key {
                    pred = curr;
                } else {
                    break;
                }
            }
            preds[lvl] = pred;
        }
    }

    /// Insert an entry.
    pub fn insert(&self, entry: Entry<K, V>) {
        let _g = self.structure.read();
        let level = self.random_level();
        let node_ptr: *mut Node<K, V> = {
            let mut boxed = Node::new(entry, level);
            let p: *mut Node<K, V> = &mut *boxed;
            self.arena.lock().push(boxed);
            p
        };
        let mut preds = [std::ptr::null::<Node<K, V>>(); MAX_LEVEL];
        // Link bottom-up; CAS per level, re-searching on contention.
        for lvl in 0..level {
            loop {
                self.find_preds(entry.key, &mut preds);
                let pred = preds[lvl];
                // SAFETY: pred is the head or an arena node.
                let succ = unsafe { (&*pred).next[lvl].load(Ordering::Acquire) };
                // Validate: another insert may have linked a smaller key
                // after `pred` since the search; CASing past it would
                // break level order. Keys are immutable, so a key check
                // plus the CAS (which detects any further change) is
                // sufficient.
                if !succ.is_null() && unsafe { (&*succ).entry.key } < entry.key {
                    continue;
                }
                unsafe { (&*node_ptr).next[lvl].store(succ, Ordering::Release) };
                let cas = unsafe {
                    (&*pred).next[lvl].compare_exchange(
                        succ,
                        node_ptr,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                };
                if cas.is_ok() {
                    break;
                }
            }
        }
        self.len.fetch_add(1, Ordering::Relaxed);
    }

    /// Claim the head-most live node (logical delete). Returns its entry.
    pub fn claim_min(&self) -> Option<Entry<K, V>> {
        let skipped;
        let result;
        {
            let _g = self.structure.read();
            let mut curr = self.head.next[0].load(Ordering::Acquire);
            let mut dead = 0isize;
            loop {
                if curr.is_null() {
                    return None;
                }
                // SAFETY: arena-owned node; read lock excludes unlink.
                let node = unsafe { &*curr };
                if !node.deleted.swap(true, Ordering::AcqRel) {
                    self.len.fetch_sub(1, Ordering::Relaxed);
                    result = node.entry;
                    skipped = dead;
                    break;
                }
                dead += 1;
                curr = node.next[0].load(Ordering::Acquire);
            }
        }
        // Lindén-Jonsson batching: only restructure when the dead prefix
        // has grown past the threshold. Opportunistic cleanup can starve
        // under oversubscription (some reader always holds the structure
        // lock), so a long prefix forces a blocking cleanup — bounding
        // the scan cost every claimer pays.
        let dead_total = self.dead_since_cleanup.fetch_add(1, Ordering::Relaxed) + 1;
        if skipped >= self.cleanup_threshold * 8 {
            self.cleanup_blocking();
        } else if skipped >= self.cleanup_threshold || dead_total >= self.cleanup_threshold * 4 {
            self.cleanup();
        }
        Some(result)
    }

    /// Claim a specific node if still live (used by the spray walk).
    pub(crate) fn try_claim(&self, node: &Node<K, V>) -> bool {
        if !node.deleted.swap(true, Ordering::AcqRel) {
            self.len.fetch_sub(1, Ordering::Relaxed);
            self.dead_since_cleanup.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    pub(crate) fn head_node(&self) -> &Node<K, V> {
        &self.head
    }

    /// Physically unlink the deleted prefix at every level (batched
    /// restructuring). No-op if another thread is already cleaning.
    pub fn cleanup(&self) {
        let Some(w) = self.structure.try_write() else {
            return;
        };
        self.cleanup_locked(w);
    }

    /// Like [`Self::cleanup`], but waits for exclusive access — used
    /// when the dead prefix has grown so long that every scan pays for
    /// it (cleanup starvation under oversubscription).
    pub fn cleanup_blocking(&self) {
        let w = self.structure.write();
        self.cleanup_locked(w);
    }

    /// Unlinks bottom-up, level 0 first. Spray deletes claim nodes
    /// without the structure lock, so a node can die mid-cleanup. A
    /// node still live when an upper level is scanned was also live
    /// during the level-0 pass, so every upper-level cut lands at or
    /// after the level-0 cut and no insert can link behind a node that
    /// level 0 no longer reaches.
    fn cleanup_locked(&self, _w: parking_lot::RwLockWriteGuard<'_, ()>) {
        self.dead_since_cleanup.store(0, Ordering::Relaxed);
        for lvl in 0..MAX_LEVEL {
            let mut first = self.head.next[lvl].load(Ordering::Relaxed);
            loop {
                if first.is_null() {
                    break;
                }
                // SAFETY: exclusive access via the write lock.
                let node = unsafe { &*first };
                if !node.deleted.load(Ordering::Relaxed) {
                    break;
                }
                first = node.next[lvl].load(Ordering::Relaxed);
            }
            self.head.next[lvl].store(first, Ordering::Relaxed);
        }
    }

    /// Approximate resident bytes: every arena node's struct plus its
    /// tower pointers (the paper's §2.1 memory argument: towers make a
    /// skiplist store "keys (or pointers to them) that appear at
    /// different layers").
    pub fn memory_bytes(&self) -> usize {
        let arena = self.arena.lock();
        let node_fixed = std::mem::size_of::<Node<K, V>>();
        arena
            .iter()
            .map(|n| node_fixed + n.level * std::mem::size_of::<AtomicPtr<Node<K, V>>>())
            .sum::<usize>()
            + node_fixed
            + MAX_LEVEL * std::mem::size_of::<AtomicPtr<Node<K, V>>>()
    }

    /// Quiescent check: level-0 order is sorted; `len` matches the
    /// number of live nodes; every live node is reachable at level 0.
    pub fn check_invariants(&self) {
        let _g = self.structure.read();
        let mut live = 0usize;
        let mut prev_key: Option<K> = None;
        let mut curr = self.head.next[0].load(Ordering::Acquire);
        while !curr.is_null() {
            let node = unsafe { &*curr };
            if let Some(p) = prev_key {
                assert!(p <= node.entry.key, "level-0 order violated");
            }
            prev_key = Some(node.entry.key);
            if !node.deleted.load(Ordering::Relaxed) {
                live += 1;
            }
            curr = node.next[0].load(Ordering::Acquire);
        }
        assert_eq!(live, self.len(), "len counter drift");
        // Every upper-level node must also appear in level-0 order:
        // upper links only skip, never diverge.
        for lvl in 1..MAX_LEVEL {
            let mut c = self.head.next[lvl].load(Ordering::Acquire);
            let mut prev: Option<K> = None;
            while !c.is_null() {
                let node = unsafe { &*c };
                assert!(node.level > lvl, "node linked above its height");
                if let Some(p) = prev {
                    assert!(p <= node.entry.key, "level-{lvl} order violated");
                }
                prev = Some(node.entry.key);
                c = node.next[lvl].load(Ordering::Acquire);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn sorted_claims() {
        let sl = SkipList::<u32, u32>::new(8);
        for k in [5u32, 2, 9, 2, 7, 0] {
            sl.insert(Entry::new(k, k));
        }
        let mut got = Vec::new();
        while let Some(e) = sl.claim_min() {
            got.push(e.key);
        }
        assert_eq!(got, vec![0, 2, 2, 5, 7, 9]);
        assert!(sl.is_empty());
    }

    #[test]
    fn cleanup_unlinks_dead_prefix() {
        let sl = SkipList::<u32, ()>::new(1);
        for k in 0..100u32 {
            sl.insert(Entry::new(k, ()));
        }
        for _ in 0..50 {
            sl.claim_min();
        }
        sl.cleanup();
        // After cleanup the first level-0 node must be live (key 50).
        let first = sl.head.next[0].load(Ordering::Acquire);
        let node = unsafe { &*first };
        assert_eq!(node.entry.key, 50);
        assert!(!node.deleted.load(Ordering::Relaxed));
        sl.check_invariants();
    }

    #[test]
    fn interleaved_insert_claim_matches_model() {
        let sl = SkipList::<u32, u32>::new(4);
        let mut model = std::collections::BinaryHeap::new();
        let mut rng = StdRng::seed_from_u64(77);
        for step in 0..3000 {
            if rng.gen_bool(0.55) || model.is_empty() {
                let k = rng.gen_range(0..10_000u32);
                sl.insert(Entry::new(k, k));
                model.push(std::cmp::Reverse(k));
            } else {
                let got = sl.claim_min().map(|e| e.key);
                let expect = model.pop().map(|r| r.0);
                assert_eq!(got, expect, "step {step}");
            }
        }
        sl.check_invariants();
    }

    #[test]
    fn concurrent_conservation() {
        let sl = SkipList::<u32, u32>::new(16);
        let removed = AtomicIsize::new(0);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let sl = &sl;
                let removed = &removed;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(t);
                    for _ in 0..400 {
                        if rng.gen_bool(0.6) {
                            sl.insert(Entry::new(rng.gen_range(0..1 << 30), 0));
                        } else if sl.claim_min().is_some() {
                            removed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        sl.check_invariants();
        let mut drained = 0;
        while sl.claim_min().is_some() {
            drained += 1;
        }
        let _ = drained + removed.load(Ordering::Relaxed) as usize;
        assert!(sl.is_empty());
    }

    #[test]
    fn concurrent_inserts_stay_sorted() {
        let sl = SkipList::<u32, ()>::new(16);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let sl = &sl;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(t + 50);
                    for _ in 0..300 {
                        sl.insert(Entry::new(rng.gen_range(0..1 << 30), ()));
                    }
                });
            }
        });
        sl.check_invariants();
        let mut prev = 0u32;
        let mut n = 0;
        while let Some(e) = sl.claim_min() {
            assert!(e.key >= prev);
            prev = e.key;
            n += 1;
        }
        assert_eq!(n, 8 * 300);
    }

    #[test]
    fn level_distribution_is_geometric_ish() {
        let sl = SkipList::<u32, ()>::new(1024);
        let mut counts = [0usize; MAX_LEVEL + 1];
        for _ in 0..10_000 {
            counts[sl.random_level()] += 1;
        }
        // Roughly half of all draws are level 1; level 2 about a quarter.
        assert!(counts[1] > 4000 && counts[1] < 6000, "level-1 count {}", counts[1]);
        assert!(counts[2] > 1800 && counts[2] < 3200, "level-2 count {}", counts[2]);
    }
}

//! Lock-protected node storage.
//!
//! The heap lives in one contiguous allocation: node `i` occupies
//! entries `[i*k, (i+1)*k)`, with node `0` reserved for the partial
//! buffer (`pBuffer`) and node `1` the root. "Each batch node is stored
//! in aligned consecutive memory blocks. When loading a batch node,
//! consecutive memory blocks are loaded, and thus the memory throughput
//! is maximized" (§3.3).
//!
//! # Safety protocol
//!
//! Node contents (and the root/buffer size metadata) are plain memory
//! guarded by the platform's lock table, exactly like the CUDA
//! implementation guards them with per-node lock words:
//!
//! * node `i`'s entries may be accessed only while holding lock `i`
//!   (lock `1` for both the root and the buffer, which share it — §4);
//! * **first-fill rule**: the entry array is reserved, not written.
//!   Nodes `0` and `1` start sentinel-filled; every other node's slots
//!   are uninitialized until its first [`NodeStorage::fill`], and the
//!   node may be viewed through [`NodeStorage::node_ref`] /
//!   [`NodeStorage::node_mut`] only after it. The heap keeps this by
//!   reading a node `≥ 2` only while it is `AVAIL`, which it becomes
//!   only right after the TARGET fill writes all `k` slots. Debug
//!   builds check the rule with a per-node written flag;
//! * **collaboration exception** (§4.3, footnote 2): a DELETEMIN holding
//!   the root lock that finds its refill node in state `TARGET` sets it
//!   to `MARKED` and *delegates* the root refill to the inserting
//!   thread. From that point until the root's state becomes `AVAIL`
//!   again, the *inserter* (which holds the target's lock) owns the root
//!   entries and `root_len`, and the deleter — despite holding the root
//!   lock — must not touch them. Ownership returns to the root lock
//!   holder with the `AVAIL` store (release) / load (acquire) pair.
//!
//! Node *states* are atomics and may be read optimistically anywhere;
//! writes occur only by the protocol owner above.

use pq_api::{Entry, KeyType, ValueType};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
#[cfg(debug_assertions)]
use std::sync::atomic::AtomicBool;
use std::sync::atomic::{AtomicU8, Ordering};

/// State of a heap node (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum NodeState {
    /// Holds no keys.
    Empty = 0,
    /// Holds keys (full, except the root and buffer).
    Avail = 1,
    /// Reserved by an in-flight insertion's heapify.
    Target = 2,
    /// A DELETEMIN requested collaboration from the inserting thread.
    Marked = 3,
}

impl NodeState {
    fn from_u8(v: u8) -> Self {
        match v {
            0 => NodeState::Empty,
            1 => NodeState::Avail,
            2 => NodeState::Target,
            3 => NodeState::Marked,
            _ => unreachable!("invalid node state {v}"),
        }
    }
}

/// Size metadata mutated under the root lock (with the collaboration
/// exception for `root_len`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Meta {
    /// Number of heap nodes in use, *including* the root (0 = empty).
    pub heap_size: usize,
    /// Keys currently in the root node (≤ k).
    pub root_len: usize,
    /// Keys currently in the partial buffer (≤ k-1).
    pub buf_len: usize,
}

/// Index of the partial buffer's storage slot.
pub const PBUFFER: usize = 0;

/// One entry slot: uninitialized until its node's first fill.
type Slot<K, V> = UnsafeCell<MaybeUninit<Entry<K, V>>>;

pub struct NodeStorage<K, V> {
    entries: Box<[Slot<K, V>]>,
    states: Box<[AtomicU8]>,
    /// Per node: its slots have been written (the first-fill rule).
    #[cfg(debug_assertions)]
    written: Box<[AtomicBool]>,
    meta: UnsafeCell<Meta>,
    k: usize,
    max_nodes: usize,
}

// SAFETY: access to `entries` and `meta` follows the lock protocol in
// the module docs; `states` (and the debug `written` flags) are atomics.
unsafe impl<K: Send, V: Send> Send for NodeStorage<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for NodeStorage<K, V> {}

impl<K: KeyType, V: ValueType> NodeStorage<K, V> {
    /// Reserve storage for `max_nodes` heap nodes of capacity `k` plus
    /// the partial buffer. All nodes start `Empty`; only the pBuffer
    /// (node 0) and the root (node 1) are sentinel-filled. The other
    /// nodes' slots stay unwritten until each node's first
    /// [`Self::fill`], so the pages of nodes never filled never become
    /// resident.
    pub fn new(k: usize, max_nodes: usize) -> Self {
        assert!(k >= 1, "node capacity must be positive");
        assert!(max_nodes >= 1, "need at least the root node");
        let slots = (max_nodes + 1) * k;
        // SAFETY: `UnsafeCell<MaybeUninit<_>>` is valid uninitialized.
        let mut entries = unsafe { Box::<[Slot<K, V>]>::new_uninit_slice(slots).assume_init() };
        for slot in &mut entries[..2 * k] {
            slot.get_mut().write(Entry::sentinel());
        }
        let states: Box<[AtomicU8]> =
            (0..max_nodes + 1).map(|_| AtomicU8::new(NodeState::Empty as u8)).collect();
        Self {
            entries,
            states,
            #[cfg(debug_assertions)]
            written: (0..max_nodes + 1).map(|node| AtomicBool::new(node <= 1)).collect(),
            meta: UnsafeCell::new(Meta::default()),
            k,
            max_nodes,
        }
    }

    /// Node capacity `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Maximum number of heap nodes (excluding the buffer slot).
    #[inline]
    pub fn max_nodes(&self) -> usize {
        self.max_nodes
    }

    /// Write `src` (exactly `k` entries) into node `node`'s slots. The
    /// one way to write a node before its first fill: it forms no
    /// reference over the unwritten slots.
    ///
    /// # Safety
    /// As [`Self::node_mut`], except that the node may be unwritten.
    #[inline]
    pub unsafe fn fill(&self, node: usize, src: &[Entry<K, V>]) {
        debug_assert!(node <= self.max_nodes);
        assert_eq!(src.len(), self.k, "a fill writes a whole node");
        let base = self.entries[node * self.k].get().cast::<Entry<K, V>>();
        // SAFETY: `base` points at `k` contiguous slots of node `node`,
        // which the caller owns, and `src` is a live slice elsewhere.
        unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), base, self.k) };
        // Relaxed: the flag publishes nothing. The lock or the AVAIL
        // release/acquire pair that orders this fill before a later
        // read of the node orders the flag with it.
        #[cfg(debug_assertions)]
        self.written[node].store(true, Ordering::Relaxed);
    }

    /// Debug check of the first-fill rule (see the module docs).
    #[inline]
    fn check_written(&self, node: usize) {
        debug_assert!(node <= self.max_nodes);
        #[cfg(debug_assertions)]
        assert!(
            self.written[node].load(Ordering::Relaxed),
            "node {node} read before its first fill"
        );
    }

    /// Mutable view of node `node`'s `k` entry slots.
    ///
    /// # Safety
    /// Caller must own node `node` per the module's protocol (hold its
    /// lock, or be the collaboration-phase owner), must not hold
    /// another live reference to the same node, and node `node` must
    /// have been filled (nodes 0 and 1 always are; see the first-fill
    /// rule).
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn node_mut(&self, node: usize) -> &mut [Entry<K, V>] {
        self.check_written(node);
        let base = self.entries[node * self.k].get();
        // SAFETY: `base` points at `k` contiguous, written
        // `UnsafeCell<MaybeUninit<Entry>>` slots, which have the layout
        // of `Entry`; exclusivity is the caller's protocol obligation.
        unsafe { std::slice::from_raw_parts_mut(base.cast::<Entry<K, V>>(), self.k) }
    }

    /// Raw pointer to node `node`'s first entry. Safe to produce
    /// (never dereferenced here); used to issue software prefetches
    /// before the node's lock is acquired — a prefetch is a hint, so
    /// racing with a concurrent writer is harmless.
    pub fn node_ptr(&self, node: usize) -> *const Entry<K, V> {
        debug_assert!(node <= self.max_nodes);
        self.entries[node * self.k].get().cast::<Entry<K, V>>().cast_const()
    }

    /// Shared view of node `node` (same ownership obligation).
    ///
    /// # Safety
    /// As [`Self::node_mut`], except aliasing shared views are fine.
    #[inline]
    pub unsafe fn node_ref(&self, node: usize) -> &[Entry<K, V>] {
        self.check_written(node);
        let base = self.entries[node * self.k].get();
        unsafe { std::slice::from_raw_parts(base.cast::<Entry<K, V>>(), self.k) }
    }

    /// Mutable view of the size metadata.
    ///
    /// # Safety
    /// Caller must hold the root lock (or own the collaboration phase,
    /// for `root_len` only) and must scope the reference tightly.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn meta_mut(&self) -> &mut Meta {
        unsafe { &mut *self.meta.get() }
    }

    /// Read node `node`'s state (acquire).
    #[inline]
    pub fn state(&self, node: usize) -> NodeState {
        NodeState::from_u8(self.states[node].load(Ordering::Acquire))
    }

    /// Write node `node`'s state (release). Only the protocol owner may
    /// call this.
    #[inline]
    pub fn set_state(&self, node: usize, s: NodeState) {
        self.states[node].store(s as u8, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_storage_is_empty_sentinels() {
        let st = NodeStorage::<u32, ()>::new(4, 8);
        assert_eq!(st.k(), 4);
        assert_eq!(st.max_nodes(), 8);
        for node in 0..=8 {
            assert_eq!(st.state(node), NodeState::Empty);
        }
        for node in [PBUFFER, 1] {
            let entries = unsafe { st.node_ref(node) };
            assert!(entries.iter().all(|e| e.is_sentinel()));
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "before its first fill")]
    fn reading_an_unfilled_node_panics() {
        let st = NodeStorage::<u32, ()>::new(4, 8);
        let _ = unsafe { st.node_ref(2) };
    }

    #[test]
    fn nodes_are_disjoint() {
        let st = NodeStorage::<u32, u32>::new(2, 4);
        unsafe {
            st.fill(2, &[Entry::sentinel(); 2]);
            let a = st.node_mut(1);
            let b = st.node_mut(2);
            a[0] = Entry::new(10, 0);
            b[0] = Entry::new(20, 0);
            assert_eq!(st.node_ref(1)[0].key, 10);
            assert_eq!(st.node_ref(2)[0].key, 20);
        }
    }

    #[test]
    fn state_roundtrip() {
        let st = NodeStorage::<u32, ()>::new(1, 2);
        for s in [NodeState::Avail, NodeState::Target, NodeState::Marked, NodeState::Empty] {
            st.set_state(1, s);
            assert_eq!(st.state(1), s);
        }
    }

    #[test]
    fn meta_roundtrip() {
        let st = NodeStorage::<u32, ()>::new(1, 2);
        unsafe {
            st.meta_mut().heap_size = 2;
            st.meta_mut().root_len = 1;
            assert_eq!(st.meta_mut().heap_size, 2);
            assert_eq!(st.meta_mut().root_len, 1);
        }
    }
}

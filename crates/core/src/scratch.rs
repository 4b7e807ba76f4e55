//! Per-worker operation scratch — the zero-allocation hot path.
//!
//! Every INSERT needs a staging buffer for the incoming batch (sorted,
//! then pushed down the heapify path) and every `SORT_SPLIT` needs a
//! merge scratch of up to `2k` entries. Allocating these per operation
//! (the original shape of `insert_inner` / `delete_min_inner`) puts two
//! `malloc`/`free` pairs on a path whose whole point is to be a handful
//! of branchless merge passes.
//!
//! [`OpScratch`] is the arena that removes them: one per platform
//! worker, parked in the worker's [`pq_api::ScratchSlot`] between
//! operations, sized once from the queue's node capacity `k` at first
//! use. Ownership rules (see DESIGN.md "Scratch ownership"):
//!
//! * **One worker, one arena, never shared.** The arena is taken out of
//!   the slot at operation entry and put back at exit; it is never
//!   reachable from two operations at once, and never crosses threads
//!   except by moving with its worker.
//! * **Content is garbage between operations.** Nothing may read stale
//!   entries; each operation overwrites the prefixes it uses.
//! * **Fault poisoning interaction:** if an operation unwinds (injected
//!   panic, watchdog), the taken-out arena is simply dropped with the
//!   stack — the slot is left empty and the next operation on that
//!   worker re-allocates. A crashed queue is poisoned anyway, so the
//!   steady-state guarantee only covers non-faulting operation streams.
//! * **Capacity adapts, never thrashes downward.** A worker serving
//!   queues with different `k` keeps the largest sizing it has seen;
//!   [`OpScratch::reset`] only grows.

use pq_api::{Entry, KeyType, ValueType};

/// Reusable buffers for one queue operation, owned by a platform
/// worker. See the module docs for the ownership rules.
pub struct OpScratch<K, V> {
    /// Node capacity the buffers are currently sized for.
    k: usize,
    /// INSERT staging batch: always exactly `k` entries long, so the
    /// insert-heapify can treat it as a full node after the overflow
    /// `SORT_SPLIT` deposited the `k` smallest keys into it.
    pub(crate) ins: Vec<Entry<K, V>>,
    /// Merge scratch for `SORT_SPLIT` (up to `2k` entries). Passed as
    /// the caller-provided scratch of `primitives::sort_split`; the
    /// in-place routes of `crate::split` stash a displaced run here.
    pub(crate) merge: Vec<Entry<K, V>>,
    /// `clear`'s discard sink. Taken with `mem::take` so it can live
    /// alongside `ins`/`merge` borrows.
    pub(crate) stage: Vec<Entry<K, V>>,
}

impl<K: KeyType, V: ValueType> OpScratch<K, V> {
    /// Build an arena sized for node capacity `k`.
    pub fn new(k: usize) -> Self {
        let mut s = Self { k: 0, ins: Vec::new(), merge: Vec::new(), stage: Vec::new() };
        s.reset(k);
        s
    }

    /// Ensure the buffers fit node capacity `k`. Growth-only: a worker
    /// alternating between queues of different `k` keeps the largest
    /// sizing instead of reallocating per queue.
    pub fn reset(&mut self, k: usize) {
        if k > self.k {
            self.ins.resize(k, Entry::sentinel());
            if self.merge.capacity() < 2 * k {
                self.merge.reserve(2 * k - self.merge.len());
            }
            if self.stage.capacity() < k {
                self.stage.reserve(k - self.stage.len());
            }
            self.k = k;
        }
    }

    /// Capacity the buffers are sized for.
    pub fn capacity_k(&self) -> usize {
        self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sized_from_k() {
        let s: OpScratch<u32, u32> = OpScratch::new(8);
        assert_eq!(s.capacity_k(), 8);
        assert_eq!(s.ins.len(), 8);
        assert!(s.merge.capacity() >= 16);
        assert!(s.stage.capacity() >= 8);
    }

    #[test]
    fn reset_grows_but_never_shrinks() {
        let mut s: OpScratch<u32, ()> = OpScratch::new(16);
        s.reset(4);
        assert_eq!(s.capacity_k(), 16, "smaller k keeps the larger sizing");
        assert_eq!(s.ins.len(), 16);
        s.reset(32);
        assert_eq!(s.capacity_k(), 32);
        assert_eq!(s.ins.len(), 32);
        assert!(s.merge.capacity() >= 64);
    }
}

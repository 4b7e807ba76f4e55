//! Host-side convenience wrapper: BGPQ on real threads.

use crate::heap::{Bgpq, SalvageReport};
use crate::options::BgpqOptions;
use bgpq_runtime::{with_thread_worker, CpuPlatform, Platform};
use pq_api::{BatchPriorityQueue, Entry, KeyType, QueueError, TryBatchPriorityQueue, ValueType};

/// BGPQ running on [`CpuPlatform`] (real `parking_lot` locks, real
/// threads). Implements [`BatchPriorityQueue`] so the application
/// drivers (knapsack, A*) and the bench harness can use it
/// interchangeably with the baselines.
pub struct CpuBgpq<K, V> {
    inner: Bgpq<K, V, CpuPlatform>,
}

impl<K: KeyType, V: ValueType> CpuBgpq<K, V> {
    pub fn new(opts: BgpqOptions) -> Self {
        opts.validate();
        let platform = CpuPlatform::new(opts.max_nodes + 1);
        Self { inner: Bgpq::with_platform(platform, opts) }
    }

    /// Build on a caller-configured [`CpuPlatform`] (watchdog, fault
    /// plan). The platform must hold at least `opts.max_nodes + 1`
    /// locks.
    pub fn on_platform(platform: CpuPlatform, opts: BgpqOptions) -> Self {
        opts.validate();
        assert!(platform.num_locks() > opts.max_nodes, "platform has too few locks for max_nodes");
        Self { inner: Bgpq::with_platform(platform, opts) }
    }

    /// Enable linearization-history recording (before sharing).
    pub fn with_history(mut self) -> Self {
        self.inner = self.inner.with_history();
        self
    }

    /// The underlying generic heap.
    pub fn inner(&self) -> &Bgpq<K, V, CpuPlatform> {
        &self.inner
    }

    /// Non-panicking insert: backpressure ([`QueueError::Full`]) and
    /// failure ([`QueueError::Poisoned`] / [`QueueError::LockTimeout`])
    /// surface as errors; on any `Err` no key was taken.
    pub fn try_insert_batch(&self, items: &[Entry<K, V>]) -> Result<(), QueueError> {
        with_thread_worker(|w| self.inner.try_insert(w, items))
    }

    /// Non-panicking delete: failures surface as errors; on `Err`,
    /// `out` is unchanged.
    pub fn try_delete_min_batch(
        &self,
        out: &mut Vec<Entry<K, V>>,
        count: usize,
    ) -> Result<usize, QueueError> {
        with_thread_worker(|w| self.inner.try_delete_min(w, out, count))
    }

    /// Salvage: release abandoned lock words, walk every settled key
    /// out of node storage into `out`, and reset the queue to a fresh,
    /// un-poisoned, empty state (see [`Bgpq::salvage_reset`]).
    ///
    /// `&mut self` is the quiescence contract: no other thread can be
    /// inside the queue or call into it while salvage runs. Callers
    /// that share the queue (the shard router's breaker) call
    /// [`Bgpq::salvage_reset`] and provide exclusivity by protocol.
    pub fn salvage(&mut self, out: &mut Vec<Entry<K, V>>) -> SalvageReport {
        with_thread_worker(|w| self.inner.salvage_reset(w, out))
    }
}

impl<K: KeyType, V: ValueType> BatchPriorityQueue<K, V> for CpuBgpq<K, V> {
    fn batch_capacity(&self) -> usize {
        self.inner.node_capacity()
    }

    fn insert_batch(&self, items: &[Entry<K, V>]) {
        with_thread_worker(|w| self.inner.insert(w, items));
    }

    fn delete_min_batch(&self, out: &mut Vec<Entry<K, V>>, count: usize) -> usize {
        with_thread_worker(|w| self.inner.delete_min(w, out, count))
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

/// Route the trait's fallible entry points to the real hardened paths
/// so generic fronts (the coalescing combiner) see `Full` / `Poisoned`
/// / `LockTimeout` as values instead of panics.
impl<K: KeyType, V: ValueType> TryBatchPriorityQueue<K, V> for CpuBgpq<K, V> {
    fn try_insert_batch(&self, items: &[Entry<K, V>]) -> Result<(), QueueError> {
        CpuBgpq::try_insert_batch(self, items)
    }

    fn try_delete_min_batch(
        &self,
        out: &mut Vec<Entry<K, V>>,
        count: usize,
    ) -> Result<usize, QueueError> {
        CpuBgpq::try_delete_min_batch(self, out, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CpuBgpq<u32, u32> {
        CpuBgpq::new(BgpqOptions { node_capacity: 4, max_nodes: 64, ..Default::default() })
    }

    #[test]
    fn batch_roundtrip() {
        let q = small();
        let items: Vec<Entry<u32, u32>> =
            [(9, 0), (1, 1), (5, 2)].iter().map(|&(k, v)| Entry::new(k, v)).collect();
        q.insert_batch(&items);
        assert_eq!(q.len(), 3);
        let mut out = Vec::new();
        let n = q.delete_min_batch(&mut out, 4);
        assert_eq!(n, 3);
        assert_eq!(out.iter().map(|e| e.key).collect::<Vec<_>>(), vec![1, 5, 9]);
        assert!(q.is_empty());
    }

    #[test]
    fn values_travel_with_keys() {
        let q = small();
        q.insert_batch(&[Entry::new(3u32, 33u32), Entry::new(1, 11), Entry::new(2, 22)]);
        let mut out = Vec::new();
        q.delete_min_batch(&mut out, 3);
        assert_eq!(
            out.iter().map(|e| (e.key, e.value)).collect::<Vec<_>>(),
            vec![(1, 11), (2, 22), (3, 33)]
        );
    }

    #[test]
    fn salvage_returns_exact_multiset_and_resets() {
        let mut q: CpuBgpq<u32, u32> =
            CpuBgpq::new(BgpqOptions { node_capacity: 8, max_nodes: 64, ..Default::default() });
        let keys: Vec<u32> = (0..100).rev().collect();
        for chunk in keys.chunks(5) {
            q.insert_batch(&chunk.iter().map(|&k| Entry::new(k, k * 2)).collect::<Vec<_>>());
        }
        let mut out = Vec::new();
        let report = q.salvage(&mut out);
        assert!(report.conserves());
        assert_eq!(report.keys_recovered, 100);
        assert_eq!(report.keys_lost, 0);
        assert!(!report.was_poisoned);
        let mut got: Vec<u32> = out.iter().map(|e| e.key).collect();
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert!(out.iter().all(|e| e.value == e.key * 2), "values ride along");
        assert_eq!(q.len(), 0);
        q.inner().check_invariants();
    }

    #[test]
    fn empty_queue_salvages_to_an_empty_report() {
        let mut q: CpuBgpq<u32, u32> =
            CpuBgpq::new(BgpqOptions { node_capacity: 4, max_nodes: 16, ..Default::default() });
        let mut out = Vec::new();
        let report = q.salvage(&mut out);
        assert_eq!(report, SalvageReport { was_poisoned: false, ..Default::default() });
        assert!(out.is_empty());
        q.inner().check_invariants();
    }
}

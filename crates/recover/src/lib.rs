//! # bgpq-recover — salvage for poisoned BGPQ instances
//!
//! BGPQ is fail-*stop*: a crashed or wedged worker poisons the queue
//! and every later call gets [`pq_api::QueueError::Poisoned`]. That
//! protects invariants but strands every settled key inside node
//! storage. The batched-heap layout makes those keys salvageable —
//! every committed key lives in an `AVAIL` node (or the root/partial
//! buffer), and node states are kept accurate between fault points —
//! so "poisoned" does not have to mean "lost".
//!
//! [`salvage`] takes exclusive ownership of a poisoned (or merely
//! retired) [`CpuBgpq`], force-resets its lock words, walks node
//! storage, and resets the queue to a fresh empty state — returning
//! the recovered entries plus a [`SalvageReport`] with exact
//! accounting. What to do with the recovered keys is the caller's
//! choice: the shard router's circuit breaker (`bgpq-shard`) installs
//! [`salvage_heap`] as its salvager and re-inserts the keys itself;
//! the `recover` bench bin measures MTTR and keys-lost.
//!
//! ## What is and is not guaranteed
//!
//! * **No silent loss.** Every key the queue accepted and did not
//!   return is either in the salvage output or counted in
//!   [`SalvageReport::keys_lost`].
//! * **No invention.** Salvage never fabricates or duplicates a key:
//!   the recovered multiset is a subset of what was inserted minus
//!   what was deleted.
//! * **Loss accounting is conservative.** `keys_lost` can over-report:
//!   an insert that crashed *before* linearizing already bumped the
//!   item count even though its caller kept the batch (and got `Err`).
//!   Those keys are double-covered — owned by the caller *and*
//!   reported lost — never silently dropped.
//! * **Quiescence is the caller's job.** Salvage must run with no
//!   worker inside (or able to enter) the queue. A poisoned queue
//!   reaches that state naturally — every entry point fast-fails — but
//!   the caller must also wait out workers that entered before the
//!   poison landed.

use bgpq::{Bgpq, CpuBgpq};
use bgpq_runtime::{CpuPlatform, CpuWorker};
use pq_api::{Entry, KeyType, ValueType};

pub use bgpq::SalvageReport;

/// Salvage a [`CpuBgpq`]: force-reset abandoned lock words, walk every
/// settled key out of node storage into `out`, and reset the queue to
/// a fresh, un-poisoned, empty state.
///
/// Takes `&mut` — exclusive ownership is the point: nothing else can
/// hold `&CpuBgpq` aliases into the salvage window unless the caller
/// arranged outer synchronization (as the shard router's breaker
/// does, with its own quiescence protocol). See the crate docs for
/// the quiescence contract.
pub fn salvage<K: KeyType, V: ValueType>(
    q: &mut CpuBgpq<K, V>,
    out: &mut Vec<Entry<K, V>>,
) -> SalvageReport {
    let mut w = CpuWorker::new();
    salvage_shared(&*q, &mut w, out)
}

/// [`salvage`] for callers that cannot hand over `&mut` — e.g. the
/// shard router, whose shards live in a shared slice — and provide
/// exclusivity by protocol instead (breaker recovery lock +
/// in-flight-operation quiescence). Prefer [`salvage`] where the type
/// system can enforce exclusivity.
pub fn salvage_shared<K: KeyType, V: ValueType>(
    q: &CpuBgpq<K, V>,
    w: &mut CpuWorker,
    out: &mut Vec<Entry<K, V>>,
) -> SalvageReport {
    salvage_heap(q.inner(), w, out)
}

/// Lowest-level entry point: salvage any CPU-platform heap.
pub fn salvage_heap<K: KeyType, V: ValueType>(
    q: &Bgpq<K, V, CpuPlatform>,
    w: &mut CpuWorker,
    out: &mut Vec<Entry<K, V>>,
) -> SalvageReport {
    // Locks first: a crashed worker's abandoned locks would wedge any
    // later operation on the reset queue. Sound under the quiescence
    // contract (no live holder exists).
    q.platform().force_reset_locks();
    q.salvage_reset(w, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpq::BgpqOptions;
    use pq_api::BatchPriorityQueue;

    fn queue(k: usize, nodes: usize) -> CpuBgpq<u32, u32> {
        CpuBgpq::new(BgpqOptions { node_capacity: k, max_nodes: nodes, ..Default::default() })
    }

    #[test]
    fn salvage_returns_exact_multiset_and_resets() {
        let mut q = queue(8, 64);
        let keys: Vec<u32> = (0..100).rev().collect();
        for chunk in keys.chunks(5) {
            q.insert_batch(&chunk.iter().map(|&k| Entry::new(k, k * 2)).collect::<Vec<_>>());
        }
        let mut out = Vec::new();
        let report = salvage(&mut q, &mut out);
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
        let mut q = queue(4, 16);
        let mut out = Vec::new();
        let report = salvage(&mut q, &mut out);
        assert_eq!(report, SalvageReport { was_poisoned: false, ..Default::default() });
        assert!(out.is_empty());
        q.inner().check_invariants();
    }
}

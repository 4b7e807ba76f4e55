//! The combining backend of an agent that drives a BGPQ heap through
//! its own platform worker: a simulated thread block, or an agent of
//! the schedule explorer.

use crate::core::CombineBackend;
use bgpq::Bgpq;
use bgpq_runtime::{Place, Platform};
use pq_api::{Entry, KeyType, QueueError, ValueType};

/// [`CombineBackend`] over a shared [`Bgpq`] and the calling agent's
/// worker. Batched calls go to the heap's hardened paths with that
/// worker; a wait step is one [`Platform::backoff`] (virtual time on
/// the simulator), so submitters poll instead of parking; and the
/// front's access tags go to [`Platform::tag`] at [`Place::Front`],
/// which does nothing unless a schedule controller is attached.
pub struct WorkerBackend<'a, K, V, P: Platform> {
    q: &'a Bgpq<K, V, P>,
    w: &'a mut P::Worker,
    lane: usize,
}

impl<'a, K, V, P: Platform> WorkerBackend<'a, K, V, P> {
    /// A backend for the agent holding `w`, submitting on `lane`.
    pub fn new(q: &'a Bgpq<K, V, P>, w: &'a mut P::Worker, lane: usize) -> Self {
        Self { q, w, lane }
    }
}

impl<K: KeyType, V: ValueType, P: Platform> CombineBackend<K, V> for WorkerBackend<'_, K, V, P> {
    const CAN_PARK: bool = false;

    fn batch_capacity(&self) -> usize {
        self.q.node_capacity()
    }

    fn try_insert_batch(&mut self, items: &[Entry<K, V>]) -> Result<(), QueueError> {
        self.q.try_insert(self.w, items)
    }

    fn try_delete_min_batch(
        &mut self,
        out: &mut Vec<Entry<K, V>>,
        count: usize,
    ) -> Result<usize, QueueError> {
        self.q.try_delete_min(self.w, out, count)
    }

    fn relax(&mut self) {
        self.q.platform().backoff(self.w);
    }

    fn tag_front(&mut self, write: bool) {
        self.q.platform().tag(self.w, Place::Front, write);
    }

    fn lane(&self) -> usize {
        self.lane
    }
}

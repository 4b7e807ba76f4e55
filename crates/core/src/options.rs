//! Construction options: the heap's shape (`node_capacity`,
//! `max_nodes`), the collaboration ablation, the sort primitive the
//! simulator charges, and the explorer's self-test mutation.

use primitives::SortAlgo;

/// Deliberately re-introducible protocol bugs, used by the
/// `bgpq-explore` schedule explorer to prove it can catch real ordering
/// violations (a verification self-test, never a production switch).
/// Only honored in test builds or under the `mutations` cargo feature;
/// [`BgpqOptions::validate`] rejects a non-`None` mutation otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutation {
    /// The correct protocol, unmodified.
    #[default]
    None,
    /// Tear open the §4.3 MARKED-handoff ownership transfer: the
    /// in-flight INSERT publishes the root `AVAIL` *before* writing the
    /// stolen keys and `root_len`. A collaborating DELETEMIN scheduled
    /// into that window observes a stale (typically empty) root and
    /// under-returns keys — a linearizability violation the explorer
    /// must find.
    MarkedHandoffEarlyAvail,
    /// Sharded-router rollback bug (honored by `bgpq-shard`'s exact
    /// delete sweep): when the sweep observes a circuit-breaker trip
    /// that happened mid-delete, the mutated router "rolls back" the
    /// keys a shard *already handed over* and retries from a clean
    /// miss — the shard no longer has them, so they are silently lost.
    /// Caught by the explorer's strict front-level accounting oracle
    /// (delivered + resident must equal acknowledged inserts).
    SweepDiscardsOnTrip,
    /// Flat-combining delegation bug (honored by `bgpq-combine`'s
    /// round issue): the combiner acknowledges a *delegated* insert —
    /// one gathered from another thread's lane — as complete
    /// (`Ok(None)`) without ever issuing it to the backend. Its own
    /// inserts still go through, so every sequential schedule stays
    /// clean; only a schedule where combining actually happens (one
    /// thread serving another's request) loses a key, and because the
    /// backend never sees the insert, only the explorer's front-level
    /// accounting oracle can flag it.
    CombinerDropsForeignInsert,
    /// Lock-order bug in the overflowing INSERT: when the CAS that
    /// reserves `tar` finds the first path node's lock held, the mutated
    /// insert waits for that node while still holding `tar`'s lock
    /// word. A DELETEMIN holding the first path node (say node 2) that
    /// locks `tar` (node 4) as its child then waits on the insert, and
    /// the two blocks deadlock; the scheduler's deadlock detector
    /// reports it.
    PathWaitHoldsTarget,
}

/// Configuration of a [`crate::Bgpq`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BgpqOptions {
    /// Batch node capacity `k` (keys per node). The paper's default
    /// configuration uses 1024 (§6.1). Any `k >= 1` works; `k = 1`
    /// degenerates to a classical one-key-per-node concurrent heap.
    pub node_capacity: usize,
    /// Maximum number of heap nodes. Total key capacity is
    /// `node_capacity * max_nodes` (+ the partial buffer).
    pub max_nodes: usize,
    /// Ablation: TARGET/MARKED key stealing between a DELETEMIN and
    /// an in-flight INSERT (§4.3). When disabled, a delete finding its
    /// refill node in state TARGET waits for the insertion to finish
    /// instead of collaborating.
    pub use_collaboration: bool,
    /// Which GPU sorting primitive batch pre-sorts are *costed* as on
    /// the simulator (§4 names bitonic, merge and radix sort; the paper
    /// uses bitonic). The sorted result is identical for all three, so
    /// this knob affects only the virtual-time charge.
    pub sort_algo: SortAlgo,
    /// Verification self-test mutation (see [`Mutation`]). Must stay
    /// [`Mutation::None`] outside schedule-exploration self-tests.
    pub mutation: Mutation,
}

impl BgpqOptions {
    /// Options sized to hold at least `items` keys with node capacity
    /// `k`.
    pub fn with_capacity_for(k: usize, items: usize) -> Self {
        let max_nodes = (items.div_ceil(k.max(1)) + 2).max(3);
        Self {
            node_capacity: k,
            max_nodes,
            use_collaboration: true,
            sort_algo: SortAlgo::Bitonic,
            mutation: Mutation::None,
        }
    }

    pub fn validate(&self) {
        assert!(self.node_capacity >= 1, "node capacity must be >= 1");
        assert!(self.max_nodes >= 1, "need at least the root node");
        // Mutations exist solely so the schedule explorer can prove it
        // catches protocol bugs; without the self-test cfg the heap would
        // silently ignore the field — reject instead.
        #[cfg(not(any(test, feature = "mutations")))]
        assert!(
            self.mutation == Mutation::None,
            "BgpqOptions::mutation requires the `mutations` feature (verification self-tests only)"
        );
    }

    /// Total key capacity of the heap body (excluding the buffer).
    pub fn capacity_items(&self) -> usize {
        self.node_capacity * self.max_nodes
    }
}

impl Default for BgpqOptions {
    fn default() -> Self {
        Self {
            node_capacity: 1024,
            max_nodes: 1 << 16,
            use_collaboration: true,
            sort_algo: SortAlgo::Bitonic,
            mutation: Mutation::None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_for_holds_requested_items() {
        let o = BgpqOptions::with_capacity_for(256, 100_000);
        assert!(o.capacity_items() >= 100_000);
        o.validate();
    }

    #[test]
    fn defaults_are_valid() {
        BgpqOptions::default().validate();
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        BgpqOptions { node_capacity: 0, ..Default::default() }.validate();
    }
}

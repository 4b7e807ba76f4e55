//! [`BufferPolicy`]: the knobs of a buffered, sticky queue front.

/// Knobs for a buffered (MultiQueue-style "sticky batching") front:
/// per-worker insertion/deletion buffers plus sticky shard selection.
///
/// "Engineering MultiQueues" (Williams & Sanders) identifies three
/// levers that dominate relaxed-front throughput, and this struct names
/// all three so fronts across the workspace share one vocabulary:
///
/// * [`insert_capacity`](Self::insert_capacity) (`B`) — staged inserts
///   per worker before an automatic flush pushes them to the backend
///   as full batches.
/// * [`refill_width`](Self::refill_width) — keys fetched per
///   deletion-buffer refill; `0` means "the backend's natural batch
///   width `k`", the only value that makes the front's amortization
///   unit match BGPQ's node width.
/// * [`stickiness`](Self::stickiness) (`σ`) — shard-sourced refills
///   served by the same sampled shard before the front re-samples.
///   `1` re-samples every refill (stickiness off).
///
/// Larger `B`/`σ` buy fewer shared-memory operations at the price of a
/// larger relaxation window; the documented rank-error bound for the
/// sharded front is in `bgpq-shard`'s router docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferPolicy {
    /// Staged inserts per worker before an automatic flush (`B`).
    pub insert_capacity: usize,
    /// Keys fetched per deletion-buffer refill (`0` ⇒ backend batch
    /// width `k`).
    pub refill_width: usize,
    /// Shard-sourced refills served by the sticky shard before
    /// re-sampling (`σ ≥ 1`; `1` disables stickiness).
    pub stickiness: u32,
}

impl Default for BufferPolicy {
    fn default() -> Self {
        Self { insert_capacity: 64, refill_width: 0, stickiness: 4 }
    }
}

impl BufferPolicy {
    /// The default policy (`B = 64`, refill width = backend `k`,
    /// `σ = 4`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: staged-insert capacity `B`.
    pub fn with_insert_capacity(mut self, b: usize) -> Self {
        self.insert_capacity = b;
        self
    }

    /// Builder: deletion-buffer refill width (`0` ⇒ backend `k`).
    pub fn with_refill_width(mut self, w: usize) -> Self {
        self.refill_width = w;
        self
    }

    /// Builder: sticky tenure `σ` in refills.
    pub fn with_stickiness(mut self, s: u32) -> Self {
        self.stickiness = s;
        self
    }

    /// Panic on nonsensical settings (zero-capacity buffers, zero
    /// tenure). Called by fronts when buffering is enabled.
    pub fn validate(&self) {
        assert!(self.insert_capacity >= 1, "insertion buffer needs capacity for at least one key");
        assert!(self.stickiness >= 1, "sticky tenure counts the first refill itself");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_policy_builders_and_default() {
        let p = BufferPolicy::new();
        assert_eq!(p, BufferPolicy::default());
        p.validate();
        let q =
            BufferPolicy::new().with_insert_capacity(8).with_refill_width(16).with_stickiness(1);
        assert_eq!(q.insert_capacity, 8);
        assert_eq!(q.refill_width, 16);
        assert_eq!(q.stickiness, 1);
        q.validate();
    }

    #[test]
    #[should_panic(expected = "insertion buffer")]
    fn buffer_policy_rejects_zero_capacity() {
        BufferPolicy::new().with_insert_capacity(0).validate();
    }

    #[test]
    #[should_panic(expected = "sticky tenure")]
    fn buffer_policy_rejects_zero_tenure() {
        BufferPolicy::new().with_stickiness(0).validate();
    }
}

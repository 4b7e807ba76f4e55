//! Lightweight operation counters: one record for every layer.
//!
//! Every queue implementation and front exposes an [`OpStats`] so the
//! bench harness can report *why* a design is fast or slow: how many
//! heapify walks were avoided by the partial buffer, how often delete-min
//! was served straight from the root cache, how often the TARGET/MARKED
//! collaboration fired — the mechanisms §4.3 of the paper credits for
//! BGPQ's performance — and, above the heap, how full the fronts' batches
//! were and how far relaxed deletes landed from the true minimum. Each
//! layer instance (a heap, a sharded router with its buffered front, a
//! combining front) owns one record and counts its own events in it; the
//! counters of events a layer never sees stay 0.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of batch-occupancy histogram buckets in [`OpStats`]. Bucket
/// `i` counts issued batches whose fill fraction `filled / capacity`
/// fell in `(i/B, (i+1)/B]` — bucket 0 is near-empty batches (the
/// single-op traffic the coalescing front exists to fix), bucket
/// `B - 1` is full `k`-wide batches.
pub const OCCUPANCY_BUCKETS: usize = 8;

/// Histogram bucket for a batch that moved `filled` of a possible
/// `capacity` items. `filled = 0` (an empty delete) lands in bucket 0
/// alongside the near-empty batches.
#[inline]
pub fn occupancy_bucket(filled: usize, capacity: usize) -> usize {
    debug_assert!(capacity >= 1, "batch capacity must be at least 1");
    debug_assert!(filled <= capacity, "batch cannot exceed its capacity");
    if filled == 0 {
        return 0;
    }
    // ceil(filled * B / capacity) - 1, clamped into range.
    ((filled * OCCUPANCY_BUCKETS).div_ceil(capacity) - 1).min(OCCUPANCY_BUCKETS - 1)
}

/// Declares [`OpStats`] and [`StatsSnapshot`] from one list of
/// `name: rule` entries, where `rule` is the update [`OpStats::merge`]
/// folds the counter with — [`OpStats::add`] for event counts,
/// [`OpStats::raise`] for high-water marks — and the entry's doc
/// comment documents both fields. Also generates `snapshot`, `merge`
/// and `reset`, so a new counter is one entry.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident: $rule:ident,)*) => {
        /// One layer's counter record (see the module docs). All updates
        /// are `Relaxed`: these are statistics, not synchronization.
        #[derive(Debug, Default)]
        pub struct OpStats {
            $($(#[$doc])* pub $name: AtomicU64,)*
            /// Batch-occupancy histogram: how full each issued batch was
            /// relative to the capacity it could have used (see
            /// [`occupancy_bucket`]). Every layer that issues batches —
            /// the heap itself, the buffered front, the combiner —
            /// records into the same shape so their reports merge.
            pub batch_occupancy: [AtomicU64; OCCUPANCY_BUCKETS],
        }

        /// Plain-data snapshot of [`OpStats`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
            /// See [`OpStats::batch_occupancy`].
            pub batch_occupancy: [u64; OCCUPANCY_BUCKETS],
        }

        impl OpStats {
            /// Snapshot all counters (for printing / assertions).
            pub fn snapshot(&self) -> StatsSnapshot {
                let ld = |c: &AtomicU64| c.load(Ordering::Relaxed);
                StatsSnapshot {
                    $($name: ld(&self.$name),)*
                    batch_occupancy: std::array::from_fn(|i| ld(&self.batch_occupancy[i])),
                }
            }

            /// Fold `other`'s counters into `self` — how a sharded
            /// frontend aggregates its per-shard counters into one
            /// report. Event counts add; the high-water marks
            /// (`rank_error_max`, `peak_pending`) keep the larger.
            /// `other` is left untouched; concurrent updates on either
            /// side are safe (each counter is folded with one relaxed
            /// read-modify-write).
            pub fn merge(&self, other: &OpStats) {
                $(OpStats::$rule(&self.$name, other.$name.load(Ordering::Relaxed));)*
                for (dst, src) in self.batch_occupancy.iter().zip(&other.batch_occupancy) {
                    OpStats::add(dst, src.load(Ordering::Relaxed));
                }
            }

            /// Reset all counters to zero (between bench trials).
            pub fn reset(&self) {
                for c in [$(&self.$name),*].into_iter().chain(&self.batch_occupancy) {
                    c.store(0, Ordering::Relaxed);
                }
            }

            /// Every counter with its name and merge rule, in order.
            #[cfg(test)]
            fn counters(&self) -> Vec<(&'static str, &'static str, &AtomicU64)> {
                vec![$((stringify!($name), stringify!($rule), &self.$name)),*]
            }
        }
    };
}

counters! {
    // Traffic: every layer counts the calls it served or issued.
    /// Completed INSERT operations.
    inserts: add,
    /// Completed DELETEMIN operations.
    delete_mins: add,
    /// Items moved by INSERTs (batch sizes summed).
    items_inserted: add,
    /// Items returned by DELETEMINs.
    items_deleted: add,
    // The heap's §4.3 mechanisms and failure detection.
    /// INSERTs fully absorbed by root + partial buffer (no heapify).
    inserts_buffered: add,
    /// Full insert-heapify walks (buffer overflow path).
    insert_heapifies: add,
    /// DELETEMINs served entirely from the root node (no heapify).
    deletes_from_root: add,
    /// Full delete-heapify walks (root refill path).
    delete_heapifies: add,
    /// TARGET/MARKED collaborations: a delete stole an in-flight
    /// insertion's keys to refill the root.
    collaborations: add,
    /// Lock acquisitions abandoned by the platform watchdog.
    lock_timeouts: add,
    /// Bounded waits (MARKED spin / TARGET wait) that escalated from
    /// cheap backoff to the platform's long backoff.
    spin_escalations: add,
    /// Transitions of a queue into the poisoned state (crashed or
    /// timed-out worker detected mid-operation).
    poison_events: add,
    // Recovery: a shard heap counts its own, the router all its shards'.
    /// Shards taken out of rotation after a failure (poisoned heap or
    /// lock timeout). Without recovery configured quarantine is
    /// permanent; with it each re-quarantine counts again.
    quarantines: add,
    /// Salvage probes attempted on quarantined shards (each probe
    /// either salvages or reschedules itself).
    probes: add,
    /// Salvage passes that rebuilt a queue from poisoned node storage
    /// (`Bgpq::salvage_reset` in `bgpq`): its surviving keys were walked
    /// out and it was reset to a fresh empty state.
    salvages: add,
    /// Shards fully re-admitted (half-open trial traffic succeeded and
    /// the breaker closed).
    readmissions: add,
    /// Keys walked out of crashed shards by salvage passes.
    keys_recovered: add,
    /// Keys confirmed (or conservatively presumed) lost: in-flight
    /// batches at crash time plus any rebuild residue that no live
    /// shard would accept. Every key counted here appeared in a
    /// `SalvageReport` — loss is never silent.
    keys_lost: add,
    // Router relaxation: rank error measures what sampling trades away.
    /// Router deletes that returned at least one entry (the denominator
    /// of [`StatsSnapshot::mean_rank_error`]).
    deletes: add,
    /// Sum over those deletes of the shard-level rank error: how many
    /// *other* shards hinted a smaller minimum than the first key the
    /// delete returned.
    rank_error_sum: add,
    /// Largest single-delete rank error.
    rank_error_max: raise,
    /// Deletes served by a shard other than the best-hinted sampled one
    /// (the first choice raced empty and work was stolen).
    steals: add,
    /// Exact fallback sweeps over every shard (all sampled shards were
    /// empty at the attempt).
    full_sweeps: add,
    // Buffered front.
    /// Insertion-buffer flushes: a worker's staged inserts were pushed
    /// to the backend as batches.
    buffer_flushes: add,
    /// Items moved by insertion-buffer flushes (staged batch sizes
    /// summed; `buffer_flush_items / buffer_flushes` is the mean flush
    /// occupancy).
    buffer_flush_items: add,
    /// Deletion-buffer refills: one wide delete-min issued against a
    /// backend to restock a worker-local buffer.
    buffer_refills: add,
    /// Items fetched by deletion-buffer refills
    /// (`buffer_refill_items / buffer_refills` is the mean refill
    /// occupancy the acceptance gates compare against `k/2`).
    buffer_refill_items: add,
    /// Refills that reused the previously sampled shard instead of
    /// re-sampling (sticky selection hits).
    sticky_reuses: add,
    /// Refills that ran a fresh `c`-of-`S` sample (sticky tenure
    /// expired, first refill, or the sticky shard went empty/dead).
    sticky_resamples: add,
    /// Staged keys whose home shard was quarantined by flush time; the
    /// flush re-routed them through the router's redistribution path
    /// instead of dropping them.
    buffer_reroutes: add,
    // Combining front.
    /// Most simultaneous armed requests any gather observed (an upper
    /// bound on achievable batch occupancy).
    peak_pending: raise,
}

impl OpStats {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Raise a high-water mark to at least `n`.
    #[inline]
    pub fn raise(counter: &AtomicU64, n: u64) {
        counter.fetch_max(n, Ordering::Relaxed);
    }

    /// Record one issued batch that moved `filled` of a possible
    /// `capacity` items into the occupancy histogram.
    #[inline]
    pub fn record_batch_occupancy(&self, filled: usize, capacity: usize) {
        self.batch_occupancy[occupancy_bucket(filled, capacity)].fetch_add(1, Ordering::Relaxed);
    }
}

/// `n / d`, or 0.0 when nothing was counted.
fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

impl StatsSnapshot {
    /// Fraction of inserts that avoided a heapify — the partial-buffer
    /// batching win the paper describes in §4.3.
    pub fn insert_buffer_hit_rate(&self) -> f64 {
        ratio(self.inserts_buffered, self.inserts)
    }

    /// Fraction of delete-mins served straight from the root.
    pub fn delete_root_hit_rate(&self) -> f64 {
        ratio(self.deletes_from_root, self.delete_mins)
    }

    /// Mean items fetched per deletion-buffer refill (0.0 when no
    /// refill ran). The buffered-front acceptance gates compare this
    /// against `k/2`.
    pub fn mean_refill_occupancy(&self) -> f64 {
        ratio(self.buffer_refill_items, self.buffer_refills)
    }

    /// Fraction of shard-sourced refills that reused the sticky shard
    /// instead of running a fresh sample (0.0 when no refill ran).
    pub fn sticky_reuse_rate(&self) -> f64 {
        ratio(self.sticky_reuses, self.sticky_reuses + self.sticky_resamples)
    }

    /// Average rank error per successful router delete.
    pub fn mean_rank_error(&self) -> f64 {
        ratio(self.rank_error_sum, self.deletes)
    }

    /// Total batches recorded into the occupancy histogram.
    pub fn batches_recorded(&self) -> u64 {
        self.batch_occupancy.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let s = OpStats::new();
        OpStats::bump(&s.inserts);
        OpStats::bump(&s.inserts);
        OpStats::add(&s.items_inserted, 17);
        let snap = s.snapshot();
        assert_eq!(snap.inserts, 2);
        assert_eq!(snap.items_inserted, 17);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn rates() {
        let snap = StatsSnapshot {
            inserts: 10,
            inserts_buffered: 9,
            delete_mins: 4,
            deletes_from_root: 1,
            ..Default::default()
        };
        assert!((snap.insert_buffer_hit_rate() - 0.9).abs() < 1e-12);
        assert!((snap.delete_root_hit_rate() - 0.25).abs() < 1e-12);
        assert_eq!(StatsSnapshot::default().insert_buffer_hit_rate(), 0.0);
    }

    #[test]
    fn merge_sums_every_counter() {
        let a = OpStats::new();
        let b = OpStats::new();
        // Distinct primes per counter so a missed field can't cancel out.
        fn fields(s: &OpStats) -> [(&AtomicU64, u64); 22] {
            [
                (&s.inserts, 2u64),
                (&s.delete_mins, 3),
                (&s.items_inserted, 5),
                (&s.items_deleted, 7),
                (&s.inserts_buffered, 11),
                (&s.insert_heapifies, 13),
                (&s.deletes_from_root, 17),
                (&s.delete_heapifies, 19),
                (&s.collaborations, 23),
                (&s.lock_timeouts, 37),
                (&s.spin_escalations, 41),
                (&s.poison_events, 43),
                (&s.quarantines, 47),
                (&s.salvages, 53),
                (&s.buffer_flushes, 59),
                (&s.buffer_flush_items, 61),
                (&s.buffer_refills, 67),
                (&s.buffer_refill_items, 71),
                (&s.sticky_reuses, 73),
                (&s.sticky_resamples, 79),
                (&s.batch_occupancy[0], 83),
                (&s.batch_occupancy[OCCUPANCY_BUCKETS - 1], 89),
            ]
        }
        for (c, n) in fields(&a) {
            OpStats::add(c, n);
        }
        for (c, n) in fields(&b) {
            OpStats::add(c, 10 * n);
        }
        a.merge(&b);
        let merged = a.snapshot();
        assert_eq!(merged.inserts, 22);
        assert_eq!(merged.lock_timeouts, 407);
        // merge must leave `other` alone.
        assert_eq!(b.snapshot().inserts, 20);
    }

    /// Adds `f(i)` to the `i`-th declared counter of `s`.
    fn fill(s: &OpStats, f: impl Fn(u64) -> u64) -> &OpStats {
        for (i, (_, _, c)) in s.counters().into_iter().enumerate() {
            OpStats::add(c, f(i as u64));
        }
        s
    }

    #[test]
    fn merge_sums_counters_and_keeps_the_larger_high_water_mark() {
        let a = OpStats::new();
        fill(&a, |i| 3 + 2 * i);
        // `other` above `self`, then below it: a sum, a max, a missed
        // field and a fold that keeps either side all read differently.
        a.merge(fill(&OpStats::new(), |i| 10 * (3 + 2 * i)));
        a.merge(fill(&OpStats::new(), |_| 1));
        for (i, (name, rule, c)) in a.counters().into_iter().enumerate() {
            let x = 3 + 2 * i as u64;
            let want = if rule == "raise" { 10 * x } else { 11 * x + 1 };
            assert_eq!(c.load(Ordering::Relaxed), want, "{name} merges by {rule}");
        }
        let maxed: Vec<_> =
            a.counters().into_iter().filter(|c| c.1 == "raise").map(|c| c.0).collect();
        assert_eq!(maxed, ["rank_error_max", "peak_pending"]);
        a.record_batch_occupancy(8, 8);
        a.reset();
        assert_eq!(a.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn recovery_counters_accumulate_and_reset() {
        let s = OpStats::new();
        OpStats::bump(&s.quarantines);
        OpStats::bump(&s.probes);
        OpStats::bump(&s.probes);
        OpStats::bump(&s.salvages);
        OpStats::add(&s.keys_recovered, 120);
        OpStats::add(&s.keys_lost, 4);
        OpStats::add(&s.keys_lost, 2);
        OpStats::bump(&s.readmissions);
        OpStats::add(&s.buffer_reroutes, 16);
        let snap = s.snapshot();
        assert_eq!(snap.quarantines, 1);
        assert_eq!(snap.probes, 2);
        assert_eq!(snap.salvages, 1);
        assert_eq!(snap.readmissions, 1);
        assert_eq!(snap.keys_recovered, 120);
        assert_eq!(snap.keys_lost, 6, "salvage loss and rebuild residue fold together");
        assert_eq!(snap.buffer_reroutes, 16);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn buffer_front_rates() {
        let snap = StatsSnapshot {
            buffer_refills: 4,
            buffer_refill_items: 26,
            sticky_reuses: 3,
            sticky_resamples: 1,
            ..Default::default()
        };
        assert!((snap.mean_refill_occupancy() - 6.5).abs() < 1e-12);
        assert!((snap.sticky_reuse_rate() - 0.75).abs() < 1e-12);
        assert_eq!(StatsSnapshot::default().mean_refill_occupancy(), 0.0);
        assert_eq!(StatsSnapshot::default().sticky_reuse_rate(), 0.0);
    }

    #[test]
    fn stats_are_send_sync() {
        fn assert_ss<T: Send + Sync>() {}
        assert_ss::<OpStats>();
    }

    #[test]
    fn occupancy_buckets_partition_the_fill_range() {
        // Full batches land in the top bucket regardless of capacity.
        for cap in [1usize, 2, 7, 8, 1024] {
            assert_eq!(occupancy_bucket(cap, cap), OCCUPANCY_BUCKETS - 1, "cap {cap}");
        }
        // A single item in a wide batch is near-empty.
        assert_eq!(occupancy_bucket(1, 1024), 0);
        assert_eq!(occupancy_bucket(0, 8), 0, "empty result batches count as near-empty");
        // Half-full sits at the histogram midpoint boundary.
        assert_eq!(occupancy_bucket(512, 1024), OCCUPANCY_BUCKETS / 2 - 1);
        // Buckets are monotone in fill for a fixed capacity.
        let cap = 64;
        let mut prev = 0;
        for filled in 1..=cap {
            let b = occupancy_bucket(filled, cap);
            assert!(b >= prev, "bucket regressed at filled = {filled}");
            prev = b;
        }
    }

    #[test]
    fn occupancy_histogram_records_merges_and_resets() {
        let s = OpStats::new();
        s.record_batch_occupancy(1, 8); // bucket 0
        s.record_batch_occupancy(8, 8); // top bucket
        s.record_batch_occupancy(8, 8);
        let snap = s.snapshot();
        assert_eq!(snap.batch_occupancy[0], 1);
        assert_eq!(snap.batch_occupancy[OCCUPANCY_BUCKETS - 1], 2);
        assert_eq!(snap.batches_recorded(), 3);

        let other = OpStats::new();
        other.record_batch_occupancy(4, 8);
        s.merge(&other);
        assert_eq!(s.snapshot().batches_recorded(), 4);

        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }
}

//! Lightweight operation counters.
//!
//! Every queue implementation exposes an [`OpStats`] so the bench harness
//! can report *why* a design is fast or slow: how many heapify walks were
//! avoided by the partial buffer, how often delete-min was served straight
//! from the root cache, how often the TARGET/MARKED collaboration fired —
//! the mechanisms §4.3 of the paper credits for BGPQ's performance.

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

/// Atomic counters. All increments are `Relaxed`: these are statistics,
/// not synchronization.
#[derive(Debug, Default)]
pub struct OpStats {
    /// Completed INSERT operations.
    pub inserts: AtomicU64,
    /// Completed DELETEMIN operations.
    pub delete_mins: AtomicU64,
    /// Items moved by INSERTs (batch sizes summed).
    pub items_inserted: AtomicU64,
    /// Items returned by DELETEMINs.
    pub items_deleted: AtomicU64,
    /// INSERTs fully absorbed by root + partial buffer (no heapify).
    pub inserts_buffered: AtomicU64,
    /// Full insert-heapify walks (buffer overflow path).
    pub insert_heapifies: AtomicU64,
    /// DELETEMINs served entirely from the root node (no heapify).
    pub deletes_from_root: AtomicU64,
    /// Full delete-heapify walks (root refill path).
    pub delete_heapifies: AtomicU64,
    /// TARGET/MARKED collaborations: a delete stole an in-flight
    /// insertion's keys to refill the root.
    pub collaborations: AtomicU64,
    /// Lock acquisitions abandoned by the platform watchdog.
    pub lock_timeouts: AtomicU64,
    /// Bounded waits (MARKED spin / TARGET wait) that escalated from
    /// cheap backoff to the platform's long backoff.
    pub spin_escalations: AtomicU64,
    /// Transitions of a queue into the poisoned state (crashed or
    /// timed-out worker detected mid-operation).
    pub poison_events: AtomicU64,
    /// Shards quarantined by a sharded router after this queue (or a
    /// sibling) failed.
    pub shard_quarantines: AtomicU64,
    /// Salvage passes that rebuilt this queue from poisoned node
    /// storage (`Bgpq::salvage_reset` in `bgpq`): the queue was reset
    /// to a fresh empty state after its surviving keys were walked out.
    pub salvages: AtomicU64,
    /// Insertion-buffer flushes by a buffered front: a worker's staged
    /// inserts were pushed to the backend as batches.
    pub buffer_flushes: AtomicU64,
    /// Items moved by insertion-buffer flushes (staged batch sizes
    /// summed; `buffer_flush_items / buffer_flushes` is the mean flush
    /// occupancy).
    pub buffer_flush_items: AtomicU64,
    /// Deletion-buffer refills by a buffered front: one wide delete-min
    /// issued against a backend to restock a worker-local buffer.
    pub buffer_refills: AtomicU64,
    /// Items fetched by deletion-buffer refills
    /// (`buffer_refill_items / buffer_refills` is the mean refill
    /// occupancy the acceptance gates compare against `k/2`).
    pub buffer_refill_items: AtomicU64,
    /// Refills that reused the previously sampled shard instead of
    /// re-sampling (sticky selection hits).
    pub sticky_reuses: AtomicU64,
    /// Refills that ran a fresh `c`-of-`S` sample (sticky tenure
    /// expired, first refill, or the sticky shard went empty/dead).
    pub sticky_resamples: AtomicU64,
    /// Batch-occupancy histogram: how full each issued batch was
    /// relative to the capacity it could have used (see
    /// [`occupancy_bucket`]). Every front that issues batches — the
    /// heap itself, the shard router, the coalescing combiner —
    /// records into the same shape so their reports merge.
    pub batch_occupancy: [AtomicU64; OCCUPANCY_BUCKETS],
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

    /// Record one issued batch that moved `filled` of a possible
    /// `capacity` items into the occupancy histogram.
    #[inline]
    pub fn record_batch_occupancy(&self, filled: usize, capacity: usize) {
        self.batch_occupancy[occupancy_bucket(filled, capacity)].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot all counters (for printing / assertions).
    pub fn snapshot(&self) -> StatsSnapshot {
        let ld = |c: &AtomicU64| c.load(Ordering::Relaxed);
        StatsSnapshot {
            inserts: ld(&self.inserts),
            delete_mins: ld(&self.delete_mins),
            items_inserted: ld(&self.items_inserted),
            items_deleted: ld(&self.items_deleted),
            inserts_buffered: ld(&self.inserts_buffered),
            insert_heapifies: ld(&self.insert_heapifies),
            deletes_from_root: ld(&self.deletes_from_root),
            delete_heapifies: ld(&self.delete_heapifies),
            collaborations: ld(&self.collaborations),
            lock_timeouts: ld(&self.lock_timeouts),
            spin_escalations: ld(&self.spin_escalations),
            poison_events: ld(&self.poison_events),
            shard_quarantines: ld(&self.shard_quarantines),
            salvages: ld(&self.salvages),
            buffer_flushes: ld(&self.buffer_flushes),
            buffer_flush_items: ld(&self.buffer_flush_items),
            buffer_refills: ld(&self.buffer_refills),
            buffer_refill_items: ld(&self.buffer_refill_items),
            sticky_reuses: ld(&self.sticky_reuses),
            sticky_resamples: ld(&self.sticky_resamples),
            batch_occupancy: std::array::from_fn(|i| ld(&self.batch_occupancy[i])),
        }
    }

    /// Fold `other`'s counters into `self` — how a sharded frontend
    /// aggregates its per-shard counters into one report. `other` is
    /// left untouched; concurrent increments on either side are safe
    /// (each counter is summed with one relaxed read-modify-write).
    pub fn merge(&self, other: &OpStats) {
        let fold = |dst: &AtomicU64, src: &AtomicU64| {
            dst.fetch_add(src.load(Ordering::Relaxed), Ordering::Relaxed);
        };
        fold(&self.inserts, &other.inserts);
        fold(&self.delete_mins, &other.delete_mins);
        fold(&self.items_inserted, &other.items_inserted);
        fold(&self.items_deleted, &other.items_deleted);
        fold(&self.inserts_buffered, &other.inserts_buffered);
        fold(&self.insert_heapifies, &other.insert_heapifies);
        fold(&self.deletes_from_root, &other.deletes_from_root);
        fold(&self.delete_heapifies, &other.delete_heapifies);
        fold(&self.collaborations, &other.collaborations);
        fold(&self.lock_timeouts, &other.lock_timeouts);
        fold(&self.spin_escalations, &other.spin_escalations);
        fold(&self.poison_events, &other.poison_events);
        fold(&self.shard_quarantines, &other.shard_quarantines);
        fold(&self.salvages, &other.salvages);
        fold(&self.buffer_flushes, &other.buffer_flushes);
        fold(&self.buffer_flush_items, &other.buffer_flush_items);
        fold(&self.buffer_refills, &other.buffer_refills);
        fold(&self.buffer_refill_items, &other.buffer_refill_items);
        fold(&self.sticky_reuses, &other.sticky_reuses);
        fold(&self.sticky_resamples, &other.sticky_resamples);
        for (dst, src) in self.batch_occupancy.iter().zip(&other.batch_occupancy) {
            fold(dst, src);
        }
    }

    /// Reset all counters to zero (between bench trials).
    pub fn reset(&self) {
        let st = |c: &AtomicU64| c.store(0, Ordering::Relaxed);
        st(&self.inserts);
        st(&self.delete_mins);
        st(&self.items_inserted);
        st(&self.items_deleted);
        st(&self.inserts_buffered);
        st(&self.insert_heapifies);
        st(&self.deletes_from_root);
        st(&self.delete_heapifies);
        st(&self.collaborations);
        st(&self.lock_timeouts);
        st(&self.spin_escalations);
        st(&self.poison_events);
        st(&self.shard_quarantines);
        st(&self.salvages);
        st(&self.buffer_flushes);
        st(&self.buffer_flush_items);
        st(&self.buffer_refills);
        st(&self.buffer_refill_items);
        st(&self.sticky_reuses);
        st(&self.sticky_resamples);
        for b in &self.batch_occupancy {
            st(b);
        }
    }
}

/// Plain-data snapshot of [`OpStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    pub inserts: u64,
    pub delete_mins: u64,
    pub items_inserted: u64,
    pub items_deleted: u64,
    pub inserts_buffered: u64,
    pub insert_heapifies: u64,
    pub deletes_from_root: u64,
    pub delete_heapifies: u64,
    pub collaborations: u64,
    pub lock_timeouts: u64,
    pub spin_escalations: u64,
    pub poison_events: u64,
    pub shard_quarantines: u64,
    pub salvages: u64,
    pub buffer_flushes: u64,
    pub buffer_flush_items: u64,
    pub buffer_refills: u64,
    pub buffer_refill_items: u64,
    pub sticky_reuses: u64,
    pub sticky_resamples: u64,
    pub batch_occupancy: [u64; OCCUPANCY_BUCKETS],
}

impl std::ops::Add for StatsSnapshot {
    type Output = StatsSnapshot;

    fn add(self, rhs: StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            inserts: self.inserts + rhs.inserts,
            delete_mins: self.delete_mins + rhs.delete_mins,
            items_inserted: self.items_inserted + rhs.items_inserted,
            items_deleted: self.items_deleted + rhs.items_deleted,
            inserts_buffered: self.inserts_buffered + rhs.inserts_buffered,
            insert_heapifies: self.insert_heapifies + rhs.insert_heapifies,
            deletes_from_root: self.deletes_from_root + rhs.deletes_from_root,
            delete_heapifies: self.delete_heapifies + rhs.delete_heapifies,
            collaborations: self.collaborations + rhs.collaborations,
            lock_timeouts: self.lock_timeouts + rhs.lock_timeouts,
            spin_escalations: self.spin_escalations + rhs.spin_escalations,
            poison_events: self.poison_events + rhs.poison_events,
            shard_quarantines: self.shard_quarantines + rhs.shard_quarantines,
            salvages: self.salvages + rhs.salvages,
            buffer_flushes: self.buffer_flushes + rhs.buffer_flushes,
            buffer_flush_items: self.buffer_flush_items + rhs.buffer_flush_items,
            buffer_refills: self.buffer_refills + rhs.buffer_refills,
            buffer_refill_items: self.buffer_refill_items + rhs.buffer_refill_items,
            sticky_reuses: self.sticky_reuses + rhs.sticky_reuses,
            sticky_resamples: self.sticky_resamples + rhs.sticky_resamples,
            batch_occupancy: std::array::from_fn(|i| {
                self.batch_occupancy[i] + rhs.batch_occupancy[i]
            }),
        }
    }
}

impl std::iter::Sum for StatsSnapshot {
    fn sum<I: Iterator<Item = StatsSnapshot>>(iter: I) -> StatsSnapshot {
        iter.fold(StatsSnapshot::default(), std::ops::Add::add)
    }
}

impl StatsSnapshot {
    /// Fraction of inserts that avoided a heapify — the partial-buffer
    /// batching win the paper describes in §4.3.
    pub fn insert_buffer_hit_rate(&self) -> f64 {
        if self.inserts == 0 {
            return 0.0;
        }
        self.inserts_buffered as f64 / self.inserts as f64
    }

    /// Fraction of delete-mins served straight from the root.
    pub fn delete_root_hit_rate(&self) -> f64 {
        if self.delete_mins == 0 {
            return 0.0;
        }
        self.deletes_from_root as f64 / self.delete_mins as f64
    }

    /// Mean items fetched per deletion-buffer refill (0.0 when no
    /// refill ran). The buffered-front acceptance gates compare this
    /// against `k/2`.
    pub fn mean_refill_occupancy(&self) -> f64 {
        if self.buffer_refills == 0 {
            return 0.0;
        }
        self.buffer_refill_items as f64 / self.buffer_refills as f64
    }

    /// Fraction of shard-sourced refills that reused the sticky shard
    /// instead of running a fresh sample (0.0 when no refill ran).
    pub fn sticky_reuse_rate(&self) -> f64 {
        let total = self.sticky_reuses + self.sticky_resamples;
        if total == 0 {
            return 0.0;
        }
        self.sticky_reuses as f64 / total as f64
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
                (&s.shard_quarantines, 47),
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
        // merge must agree with snapshot addition, and leave `other` alone.
        let c = OpStats::new();
        for (cnt, n) in fields(&c) {
            OpStats::add(cnt, n);
        }
        assert_eq!(merged + c.snapshot(), {
            let d = OpStats::new();
            d.merge(&a);
            d.merge(&c);
            d.snapshot()
        });
        assert_eq!(b.snapshot().inserts, 20);
    }

    #[test]
    fn snapshot_sum_folds() {
        let mk = |n: u64| StatsSnapshot { inserts: n, items_deleted: 2 * n, ..Default::default() };
        let total: StatsSnapshot = [mk(1), mk(2), mk(3)].into_iter().sum();
        assert_eq!(total.inserts, 6);
        assert_eq!(total.items_deleted, 12);
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

//! The sharded router: `S` independent BGPQ instances behind a
//! MultiQueue-style front.
//!
//! * **Inserts** route whole batches to one shard chosen by the
//!   caller's sticky affinity, so each shard still sees the sorted,
//!   batch-at-a-time traffic its partial buffer and root cache are
//!   built for (§3.2/§4.3 of the paper apply per shard unchanged).
//! * **Deletes** sample `c` of `S` shards, compare their cached
//!   root-min hints ([`Bgpq::min_hint_bits`]) without taking any locks,
//!   and take a batch from the best. If the best raced empty the
//!   remaining sampled shards are tried in hint order (work stealing);
//!   if all sampled shards miss, an exact sweep attempts a real delete
//!   on *every* shard before reporting emptiness — so quiescent
//!   emptiness and full drains remain precise even though ordering
//!   between shards is relaxed.
//!
//! The router is generic over [`Platform`]: the same code runs on
//! `CpuPlatform` (real threads; see [`crate::cpu`]) and on the gpu-sim
//! scheduler, where each shard models a queue private to one GPU / SM
//! partition.
//!
//! Two policies layer over this routing, each owned by its own module
//! of the crate:
//!
//! * **Circuit breaker per shard** ([`ShardedOptions::recovery`]). A
//!   shard that fails (poisoned heap, lock timeout) is quarantined and
//!   the survivors absorb its traffic; with recovery configured it is
//!   salvaged after a jittered backoff, rebuilt, and re-admitted through
//!   half-open trial traffic ([`BreakerState`]). Keys a salvage could
//!   not recover are counted in
//!   [`StatsSnapshot::keys_lost`](pq_api::StatsSnapshot::keys_lost) —
//!   loss is never silent.
//! * **Buffered sticky front** ([`ShardedOptions::buffer`]). Each
//!   worker stages inserts and serves deletes from its own buffer slot,
//!   refilled by one wide delete from a sticky sampled shard
//!   ([`ShardedBgpq::buffered_try_insert`],
//!   [`ShardedBgpq::buffered_try_delete_min`]). Parked keys stay visible
//!   to [`ShardedBgpq::len`], drains and exact-emptiness deletes; a
//!   buffered pop's shard-level rank error is bounded by `S − 1`.

use crate::breaker::Breakers;
use crate::buffer::Buffers;
#[cfg(any(test, feature = "mutations"))]
use bgpq::Mutation;
use bgpq::{Bgpq, BgpqOptions};
use bgpq_runtime::{Place, Platform};
use pq_api::{BufferPolicy, Entry, KeyType, OpStats, QueueError, StatsSnapshot, ValueType};

pub use crate::breaker::{BreakerState, RecoveryOptions};

/// Configuration of a [`ShardedBgpq`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedOptions {
    /// Number of independent BGPQ shards `S`.
    pub shards: usize,
    /// Shards sampled per delete `c` (clamped to `1..=S`). `c = S`
    /// degenerates to always taking the globally best hint.
    pub sample: usize,
    /// Per-shard heap configuration. Every shard is built with the same
    /// options; note the heap preallocates `max_nodes * node_capacity`
    /// entries per shard, so total memory scales with `S`.
    pub queue: BgpqOptions,
    /// Circuit-breaker recovery for crashed shards. `None` (the
    /// default) keeps quarantine permanent; `Some` enables salvage,
    /// rebuild and re-admission on every platform.
    pub recovery: Option<RecoveryOptions>,
    /// Buffered operating mode (per-worker insert/delete buffers with
    /// sticky shard selection — see the module docs). `None` (the
    /// default) keeps the original unbuffered front; the buffered entry
    /// points panic on misuse when buffering is off.
    pub buffer: Option<BufferPolicy>,
}

impl ShardedOptions {
    pub fn new(shards: usize, sample: usize, queue: BgpqOptions) -> Self {
        Self { shards, sample, queue, recovery: None, buffer: None }
    }

    /// Enable circuit-breaker recovery with the given policy.
    pub fn with_recovery(mut self, recovery: RecoveryOptions) -> Self {
        self.recovery = Some(recovery);
        self
    }

    /// Enable the buffered operating mode with the given policy.
    pub fn with_buffering(mut self, buffer: BufferPolicy) -> Self {
        self.buffer = Some(buffer);
        self
    }

    /// Options where *each shard* can hold `items` keys with node
    /// capacity `k`. Sizing every shard for the full workload is
    /// deliberate: sticky affinity means a single producer thread sends
    /// everything to one shard, and the heap's backing array does not
    /// grow.
    pub fn with_capacity_for(shards: usize, sample: usize, k: usize, items: usize) -> Self {
        Self::new(shards, sample, BgpqOptions::with_capacity_for(k, items))
    }

    pub fn validate(&self) {
        assert!(self.shards >= 1, "need at least one shard");
        assert!(self.sample >= 1, "must sample at least one shard");
        if let Some(b) = &self.buffer {
            b.validate();
        }
        self.queue.validate();
    }
}

impl Default for ShardedOptions {
    fn default() -> Self {
        Self::new(4, 2, BgpqOptions::default())
    }
}

/// xorshift64*: tiny, allocation-free PRNG for shard sampling. The
/// caller owns the state (one word per worker), keeping the router
/// itself stateless across operations.
#[inline]
fn next_u64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545F4914F6CDD1D)
}

/// Per-worker routing scratch: the sampled-delete work lists (live
/// shards, hint snapshot, sampled picks). Parked in the worker's
/// [`pq_api::ScratchSlot`] between deletes, alongside the heap's own
/// arena — distinct types share the slot, so the router taking its
/// scratch never conflicts with the shard heaps taking theirs inside
/// the same operation.
#[derive(Debug, Default)]
pub(crate) struct RouterScratch {
    live: Vec<usize>,
    hints: Vec<u64>,
    picks: Vec<usize>,
    /// Breakers open when the delete began, for the
    /// `SweepDiscardsOnTrip` mutation: the mutated router compares
    /// against this to "notice" a trip while the delete was in flight.
    #[cfg(any(test, feature = "mutations"))]
    trips_at_entry: usize,
}

/// What a served delete's rank error is measured against.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rank {
    /// The hint snapshot taken before routing; `stolen` when the
    /// serving shard was not the first choice.
    Snapshot { stolen: bool },
    /// A hint snapshot taken right after the delete (sticky refills
    /// skip the pre-routing sample).
    Fresh,
}

/// Record a delete that served entries into `stats`. Its rank error is
/// the number of *other* shards whose hint (in `hints`, the per-shard
/// root-min snapshot) was below `first_bits`, the ordered bits of the
/// first (smallest) key returned by shard `taken`. With `c`-of-`S`
/// sampling and exact hints it is at most `S - c` at quiescence: the
/// best sampled shard is taken, so only unsampled shards can hide a
/// smaller key. `stolen`: `taken` was not the first choice.
fn record_delete(stats: &OpStats, hints: &[u64], taken: usize, first_bits: u64, stolen: bool) {
    let err =
        hints.iter().enumerate().filter(|&(i, &h)| i != taken && h < first_bits).count() as u64;
    OpStats::bump(&stats.deletes);
    OpStats::add(&stats.rank_error_sum, err);
    OpStats::raise(&stats.rank_error_max, err);
    if stolen {
        OpStats::bump(&stats.steals);
    }
}

/// `S` BGPQ instances behind a relaxed, sampled router.
pub struct ShardedBgpq<K: KeyType, V: ValueType, P: Platform> {
    pub(crate) shards: Box<[Bgpq<K, V, P>]>,
    sample: usize,
    /// The router's record: rank error, steals and sweeps, breaker and
    /// salvage events, and the buffered front's traffic (each shard
    /// heap keeps its own record).
    pub(crate) stats: OpStats,
    /// Per-shard circuit breakers: a shard that poisoned itself or hit
    /// a lock timeout is excluded from routing, sampling and sweeps.
    pub(crate) breakers: Breakers,
    /// The buffered front's slots (inert when unbuffered).
    pub(crate) buffers: Buffers<K, V>,
    /// Verification self-test mutation (see [`bgpq::Mutation`]), copied
    /// from the per-shard queue options so router-level mutations
    /// ([`bgpq::Mutation::SweepDiscardsOnTrip`]) are honored at this
    /// layer. Compiled out of production builds.
    #[cfg(any(test, feature = "mutations"))]
    mutation: Mutation,
}

impl<K: KeyType, V: ValueType, P: Platform> ShardedBgpq<K, V, P> {
    /// Build from one platform instance per shard (each shard owns its
    /// lock table). `platforms.len()` must equal `opts.shards`, and
    /// each platform needs at least `opts.queue.max_nodes + 1` locks.
    ///
    /// With [`ShardedOptions::recovery`] set, opened breakers are
    /// probed after backoff, crashed shards salvaged
    /// ([`Bgpq::salvage_reset`]), rebuilt from their own recovered keys,
    /// and re-admitted via half-open trial traffic.
    pub fn with_platforms(platforms: Vec<P>, opts: ShardedOptions) -> Self {
        opts.validate();
        assert_eq!(platforms.len(), opts.shards, "one platform per shard");
        Self {
            shards: platforms.into_iter().map(|p| Bgpq::with_platform(p, opts.queue)).collect(),
            sample: opts.sample.clamp(1, opts.shards),
            stats: OpStats::new(),
            breakers: Breakers::new(opts.shards, opts.recovery),
            buffers: Buffers::new(opts.buffer),
            #[cfg(any(test, feature = "mutations"))]
            mutation: opts.queue.mutation,
        }
    }

    /// Call shard `i` under an in-flight token (a later salvage probe
    /// waits it out; it releases on panic too) and keep its breaker: a
    /// success burns a half-open trial token, and a failure other than
    /// backpressure (`Full`) quarantines the shard. Then tag the step
    /// that resumes after the shard's last yield: it drops the token,
    /// and writes the breaker when it quarantined or burned a token.
    #[inline]
    pub(crate) fn call_shard<R>(
        &self,
        w: &mut P::Worker,
        i: usize,
        call: impl FnOnce(&Bgpq<K, V, P>, &mut P::Worker) -> Result<R, QueueError>,
    ) -> Result<R, QueueError> {
        let r = {
            let _g = self.breakers.enter(i);
            call(&self.shards[i], w)
        };
        let write = match &r {
            Ok(_) => self.note_success(i),
            Err(QueueError::Full { .. }) => false,
            Err(_) => {
                self.quarantine(i);
                true
            }
        };
        self.shards[i].platform().tag(w, Place::Front, write);
        r
    }

    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shards sampled per delete (after clamping to `1..=S`).
    pub fn sample(&self) -> usize {
        self.sample
    }

    /// Direct access to one shard (tests, invariant checks).
    pub fn shard(&self, i: usize) -> &Bgpq<K, V, P> {
        &self.shards[i]
    }

    /// Batch capacity `k` (identical across shards).
    pub fn node_capacity(&self) -> usize {
        self.shards[0].node_capacity()
    }

    /// Shards out of quarantine, with their indices. A quarantined
    /// shard crashed mid-flight: its count and invariants are void and
    /// its keys unreachable, so every whole-queue view skips it.
    fn live_shards(&self) -> impl Iterator<Item = (usize, &Bgpq<K, V, P>)> + '_ {
        self.shards.iter().enumerate().filter(|&(i, _)| !self.is_quarantined(i))
    }

    /// Total items across *live* shards plus keys parked in buffer
    /// slots (buffered mode). Exact at quiescence.
    pub fn len(&self) -> usize {
        self.live_shards().map(|(_, s)| s.len()).sum::<usize>() + self.buffered_len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the router's record ([`Self::front_stats`]):
    /// relaxation, recovery and buffered-front counters.
    pub fn quality(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Zero the router's record.
    pub fn reset_quality(&self) {
        self.stats.reset();
    }

    /// All shards' operation counters folded into one.
    pub fn merged_stats(&self) -> OpStats {
        let total = OpStats::new();
        for s in self.shards.iter() {
            total.merge(s.stats());
        }
        total
    }

    /// Ratio of the most-loaded shard's inserted-item count to the
    /// mean (1.0 = perfectly balanced; meaningful after inserts ran).
    pub fn load_imbalance(&self) -> f64 {
        let loads: Vec<u64> =
            self.shards.iter().map(|s| s.stats().snapshot().items_inserted).collect();
        let total: u64 = loads.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / loads.len() as f64;
        *loads.iter().max().unwrap() as f64 / mean
    }

    /// Insert a sorted-or-not batch into the shard selected by
    /// `affinity` (callers keep this sticky per worker so consecutive
    /// batches hit the same shard's partial buffer).
    ///
    /// Panics on failure; prefer [`ShardedBgpq::try_insert`] when the
    /// caller wants backpressure and fail-over as values.
    pub fn insert(&self, w: &mut P::Worker, affinity: usize, items: &[Entry<K, V>]) {
        self.try_insert(w, affinity, items)
            .unwrap_or_else(|e| panic!("sharded BGPQ insert failed: {e}"));
    }

    /// Insert with failure handling: route to the affinity shard
    /// (`affinity % S`), and if that shard is quarantined — or fails
    /// during the attempt — redistribute to the next live shard (round
    /// robin from the home shard, so a dead shard's producers spread
    /// over the survivors).
    ///
    /// `Err(Full)` is backpressure, not failure: the shard stays live
    /// (deletes make room) and no key is taken. A shard returning
    /// `Poisoned` or `LockTimeout` is quarantined and the insert moves
    /// on; only when every live shard refused does the error surface —
    /// the last `Full` if any shard was merely full, else `Poisoned`.
    pub fn try_insert(
        &self,
        w: &mut P::Worker,
        affinity: usize,
        items: &[Entry<K, V>],
    ) -> Result<(), QueueError> {
        self.tick(w);
        let s = self.shards.len();
        let home = affinity % s;
        let mut full: Option<QueueError> = None;
        for i in (0..s).map(|off| (home + off) % s) {
            if self.is_quarantined(i) {
                continue;
            }
            match self.call_shard(w, i, |q, w| q.try_insert(w, items)) {
                Ok(()) => return Ok(()),
                Err(e @ QueueError::Full { .. }) => full = Some(e),
                Err(_) => {} // quarantined; try the next live shard
            }
        }
        Err(full.unwrap_or(QueueError::Poisoned))
    }

    /// The one `k`-chunked insert loop: hand `items` to `insert` in
    /// node-wide chunks, stopping at the first refusal. Returns how many
    /// leading items were accepted, and the refusal if any.
    pub(crate) fn insert_chunks(
        &self,
        items: &[Entry<K, V>],
        mut insert: impl FnMut(&[Entry<K, V>]) -> Result<(), QueueError>,
    ) -> (usize, Result<(), QueueError>) {
        let mut done = 0;
        for chunk in items.chunks(self.node_capacity()) {
            if let Err(e) = insert(chunk) {
                return (done, Err(e));
            }
            done += chunk.len();
        }
        (done, Ok(()))
    }

    /// Relaxed delete-min: sample `c` shards through `rng`, take up to
    /// `count` entries from the best-hinted one, steal from the other
    /// sampled shards on a miss, and finish with an exact sweep of all
    /// shards before returning 0. Appended entries are ascending (they
    /// come from a single shard's delete).
    pub fn delete_min(
        &self,
        w: &mut P::Worker,
        rng: &mut u64,
        out: &mut Vec<Entry<K, V>>,
        count: usize,
    ) -> usize {
        self.try_delete_min(w, rng, out, count)
            .unwrap_or_else(|e| panic!("sharded BGPQ delete_min failed: {e}"))
    }

    /// Relaxed delete-min with failure handling: quarantined shards are
    /// excluded from sampling, stealing and the exact sweep; a shard
    /// that fails mid-attempt is quarantined and the delete continues
    /// on the survivors. `Ok(0)` means every *live* shard was observed
    /// empty (exact at quiescence); `Err(Poisoned)` means no live shard
    /// remains. `count` may exceed the node width `k`: the serving
    /// shard is asked for several `≤ k`-wide linearized batches (the
    /// buffered front's wide-refill path).
    pub fn try_delete_min(
        &self,
        w: &mut P::Worker,
        rng: &mut u64,
        out: &mut Vec<Entry<K, V>>,
        count: usize,
    ) -> Result<usize, QueueError> {
        self.tick(w);
        self.with_scratch(w, |w, rs| self.try_delete_min_routed(w, rng, out, count, rs))
            .map(|(got, _)| got)
    }

    /// Run `f` with the routing scratch taken out of the worker's slot
    /// (the shards' own arenas are a different type in the same slot;
    /// slot storage lives on the worker, reached through any shard's
    /// platform). A panicking shard op drops the scratch; the next
    /// delete just rebuilds it.
    pub(crate) fn with_scratch<R>(
        &self,
        w: &mut P::Worker,
        f: impl FnOnce(&mut P::Worker, &mut RouterScratch) -> R,
    ) -> R {
        let platform = self.shards[0].platform();
        let mut rs = platform.scratch_slot(w).take::<RouterScratch>().unwrap_or_default();
        #[cfg(any(test, feature = "mutations"))]
        {
            rs.trips_at_entry = self.quarantined_count();
        }
        let r = f(w, &mut rs);
        platform.scratch_slot(w).put(rs);
        r
    }

    /// Lock-free routing snapshot: every shard's published root-min (a
    /// poisoned shard parks its hint at `u64::MAX`), each read through
    /// [`Bgpq::read_min_hint`], which tags it where that shard's root
    /// publishes are tagged.
    fn snapshot_hints(&self, w: &mut P::Worker, hints: &mut Vec<u64>) {
        hints.clear();
        hints.extend(self.shards.iter().map(|q| q.read_min_hint(w)));
    }

    /// The one per-shard delete arm: take up to `count` entries from
    /// shard `i` into `out` through [`Self::call_shard`]. Returns `Some(0)`
    /// on a clean miss and `Some(n)` when the shard served `n` entries,
    /// whose rank error is recorded per `rank`; `None` means the shard
    /// failed and was quarantined. `count` may exceed the node width
    /// `k` (buffered refills wider than one node).
    pub(crate) fn delete_from(
        &self,
        w: &mut P::Worker,
        i: usize,
        out: &mut Vec<Entry<K, V>>,
        count: usize,
        rs: &mut RouterScratch,
        rank: Rank,
    ) -> Option<usize> {
        let start = out.len();
        let Ok(got) = self.call_shard(w, i, |q, w| q.try_delete_up_to(w, out, count)) else {
            return None;
        };
        // SweepDiscardsOnTrip: a breaker tripped while this delete was
        // in flight; the mutated router "rolls back" the batch and
        // carries on from a clean miss — but the shard already handed
        // the keys over, so they are silently lost (the bug the
        // explorer's accounting oracle must catch).
        #[cfg(any(test, feature = "mutations"))]
        let got = if got > 0
            && self.mutation == Mutation::SweepDiscardsOnTrip
            && self.quarantined_count() > rs.trips_at_entry
        {
            out.truncate(start);
            0
        } else {
            got
        };
        if got > 0 {
            let stolen = match rank {
                Rank::Snapshot { stolen } => stolen,
                Rank::Fresh => {
                    self.snapshot_hints(w, &mut rs.hints);
                    false
                }
            };
            record_delete(&self.stats, &rs.hints, i, out[start].key.to_ordered_bits(), stolen);
        }
        Some(got)
    }

    /// The sampled/steal/sweep machinery behind [`Self::try_delete_min`].
    /// Also reports *which* shard served the delete (`Some` exactly
    /// when entries were served), so the buffered front can latch it as
    /// the sticky shard.
    pub(crate) fn try_delete_min_routed(
        &self,
        w: &mut P::Worker,
        rng: &mut u64,
        out: &mut Vec<Entry<K, V>>,
        count: usize,
        rs: &mut RouterScratch,
    ) -> Result<(usize, Option<usize>), QueueError> {
        rs.live.clear();
        rs.live.extend(self.live_shards().map(|(i, _)| i));
        let live = rs.live.len();
        if live == 0 {
            return Err(QueueError::Poisoned);
        }
        if live == 1 {
            // A lone live shard cannot be beaten: rank error 0.
            let i = rs.live[0];
            rs.hints.clear();
            return match self.delete_from(w, i, out, count, rs, Rank::Snapshot { stolen: false }) {
                Some(got) => Ok((got, (got > 0).then_some(i))),
                None => Err(QueueError::Poisoned),
            };
        }

        self.snapshot_hints(w, &mut rs.hints);
        let c = self.sample.min(live);
        rs.picks.clear();
        if c >= live {
            rs.picks.extend_from_slice(&rs.live);
        } else {
            while rs.picks.len() < c {
                let i = rs.live[(next_u64(rng) % live as u64) as usize];
                if !rs.picks.contains(&i) {
                    rs.picks.push(i);
                }
            }
        }
        let hints = &rs.hints;
        rs.picks.sort_unstable_by_key(|&i| hints[i]);

        // Attempt order: the sampled picks in hint order (stealing on a
        // miss), then an exact sweep of every live shard. A hint of
        // `u64::MAX` means "empty or never published", so sampled
        // misses do not prove emptiness; only a full sweep of misses
        // reports 0, which at quiescence is precise.
        let sampled = rs.picks.len();
        let mut clean_miss = false;
        for n in 0..sampled + live {
            let i = if n < sampled { rs.picks[n] } else { rs.live[n - sampled] };
            if n == sampled {
                OpStats::bump(&self.stats.full_sweeps);
            }
            if n >= sampled && self.is_quarantined(i) {
                continue;
            }
            match self.delete_from(w, i, out, count, rs, Rank::Snapshot { stolen: n > 0 }) {
                Some(0) => clean_miss = true,
                Some(got) => return Ok((got, Some(i))),
                None => {}
            }
        }
        if clean_miss {
            Ok((0, None))
        } else {
            Err(QueueError::Poisoned)
        }
    }

    /// Remove every item from live shards and buffer slots (shard by
    /// shard; the concatenation is sorted per shard / per slot, not
    /// globally). Returns the number drained. Quarantined shards are
    /// skipped — their contents are unreachable by design. Quiescent
    /// callers only in buffered mode (slot locks are taken blocking).
    pub fn drain(&self, w: &mut P::Worker, out: &mut Vec<Entry<K, V>>) -> usize {
        self.buffers.drain(out, true)
            + self.live_shards().map(|(_, s)| s.drain(w, out)).sum::<usize>()
    }

    /// Discard every item in live shards and buffer slots. Returns the
    /// number discarded.
    pub fn clear(&self, w: &mut P::Worker) -> usize {
        self.buffers.drain(&mut Vec::new(), false)
            + self.live_shards().map(|(_, s)| s.clear(w)).sum::<usize>()
    }

    /// Check every live shard's heap invariants (quiescent callers
    /// only). Returns the total item count including buffered keys, so
    /// it stays comparable to [`ShardedBgpq::len`]. Quarantined shards
    /// are skipped: a crashed shard's invariants are void (that is why
    /// it was quarantined).
    pub fn check_invariants(&self) -> usize {
        self.live_shards().map(|(_, s)| s.check_invariants()).sum::<usize>() + self.buffered_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpq_runtime::{CpuPlatform, CpuWorker};

    fn sharded(s: usize, c: usize, k: usize) -> ShardedBgpq<u32, u32, CpuPlatform> {
        let queue = BgpqOptions { node_capacity: k, max_nodes: 256, ..Default::default() };
        let platforms = (0..s).map(|_| CpuPlatform::new(queue.max_nodes + 1)).collect();
        ShardedBgpq::with_platforms(platforms, ShardedOptions::new(s, c, queue))
    }

    #[test]
    fn routes_inserts_by_affinity() {
        let q = sharded(4, 2, 8);
        let mut w = CpuWorker::new();
        for a in 0..8usize {
            q.insert(&mut w, a, &[Entry::new(a as u32, 0)]);
        }
        // affinity a and a+4 land on the same shard.
        for i in 0..4 {
            assert_eq!(q.shard(i).len(), 2, "shard {i}");
        }
        assert_eq!(q.len(), 8);
    }

    #[test]
    fn drains_exactly_across_shards() {
        let q = sharded(3, 1, 4);
        let mut w = CpuWorker::new();
        let mut rng = 7u64;
        for i in 0..60u32 {
            q.insert(&mut w, (i % 3) as usize, &[Entry::new(i, i)]);
        }
        let mut out = Vec::new();
        let mut got = 0;
        loop {
            let n = q.delete_min(&mut w, &mut rng, &mut out, 4);
            if n == 0 {
                break;
            }
            got += n;
        }
        assert_eq!(got, 60, "exact sweep must drain every shard");
        assert!(q.is_empty());
        let mut keys: Vec<u32> = out.iter().map(|e| e.key).collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..60).collect::<Vec<_>>());
        assert_eq!(q.check_invariants(), 0);
    }

    #[test]
    fn single_shard_is_strict() {
        let q = sharded(1, 1, 4);
        let mut w = CpuWorker::new();
        let mut rng = 3u64;
        q.insert(&mut w, 0, &[Entry::new(9u32, 0), Entry::new(2, 0), Entry::new(5, 0)]);
        let mut out = Vec::new();
        assert_eq!(q.delete_min(&mut w, &mut rng, &mut out, 4), 3);
        assert_eq!(out.iter().map(|e| e.key).collect::<Vec<_>>(), vec![2, 5, 9]);
        assert_eq!(q.quality().rank_error_sum, 0);
    }

    #[test]
    fn sampled_delete_prefers_best_hint() {
        let q = sharded(2, 2, 4);
        let mut w = CpuWorker::new();
        let mut rng = 1u64;
        q.insert(&mut w, 0, &[Entry::new(100u32, 0)]);
        q.insert(&mut w, 1, &[Entry::new(5u32, 0)]);
        let mut out = Vec::new();
        // c == S: both hints visible, must take the smaller minimum.
        assert_eq!(q.delete_min(&mut w, &mut rng, &mut out, 1), 1);
        assert_eq!(out[0].key, 5);
        assert_eq!(q.quality().rank_error_sum, 0, "c = S never skips a smaller shard");
    }

    #[test]
    fn rank_error_counts_strictly_smaller_other_shards() {
        let q = OpStats::new();
        // Shard 2 returned key-bits 10; shards 0 (5) and 3 (9) were
        // smaller, shard 1 (10) ties and does not count, shard 2 is
        // excluded even though its (stale) hint is below.
        record_delete(&q, &[5, 10, 7, 9], 2, 10, false);
        let s = q.snapshot();
        assert_eq!(s.deletes, 1);
        assert_eq!(s.rank_error_sum, 2);
        assert_eq!(s.rank_error_max, 2);
        assert_eq!(s.steals, 0);
    }

    #[test]
    fn steals_and_sweeps_accumulate_and_reset() {
        let q = OpStats::new();
        record_delete(&q, &[1, 2], 1, 2, true);
        record_delete(&q, &[u64::MAX, 2], 1, 2, false);
        OpStats::bump(&q.full_sweeps);
        let s = q.snapshot();
        assert_eq!(s.deletes, 2);
        assert_eq!(s.steals, 1);
        assert_eq!(s.full_sweeps, 1);
        assert_eq!(s.rank_error_sum, 1, "only shard 0's hint 1 < 2 in the first delete");
        assert!((s.mean_rank_error() - 0.5).abs() < 1e-12);
        q.reset();
        assert_eq!(q.snapshot(), StatsSnapshot::default());
        assert_eq!(StatsSnapshot::default().mean_rank_error(), 0.0);
    }

    #[test]
    fn quarantined_shard_is_bypassed_for_inserts_and_deletes() {
        use bgpq_runtime::{CpuPlatform, FaultAction, FaultPlan, InjectionPoint};
        use std::sync::Arc;

        // Shard 0 gets a fault plan that panics its first insert
        // heapify; the other shards are healthy.
        let queue = BgpqOptions { node_capacity: 2, max_nodes: 64, ..Default::default() };
        let plan = Arc::new(FaultPlan::new().with_rule(
            InjectionPoint::MidInsertHeapify,
            1,
            FaultAction::Panic,
        ));
        let platforms: Vec<CpuPlatform> = (0..3)
            .map(|i| {
                let p = CpuPlatform::new(queue.max_nodes + 1);
                if i == 0 {
                    p.with_faults(plan.clone())
                } else {
                    p
                }
            })
            .collect();
        let q: ShardedBgpq<u32, u32, CpuPlatform> =
            ShardedBgpq::with_platforms(platforms, ShardedOptions::new(3, 2, queue));
        let mut w = CpuWorker::new();

        // Crash shard 0 directly (the router only sees the poisoned
        // state afterwards, as it would from another thread's crash).
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for i in 0..32u32 {
                q.shard(0).insert(&mut w, &[Entry::new(i, 0), Entry::new(i + 100, 0)]);
            }
        }));
        assert!(r.is_err(), "injected panic must fire");
        assert!(q.shard(0).is_poisoned());

        // Affinity 0 points at the dead shard; try_insert must
        // redistribute, quarantine it, and succeed on a survivor.
        q.try_insert(&mut w, 0, &[Entry::new(7u32, 7)]).expect("redistributed insert");
        assert!(q.is_quarantined(0));
        assert_eq!(q.quarantined_count(), 1);
        assert_eq!(q.quality().quarantines, 1);
        assert_eq!(q.shard(0).stats().snapshot().quarantines, 1);
        assert_eq!(q.len(), 1, "len counts only live shards");

        // Deletes skip the quarantined shard and drain the survivors.
        let mut rng = 5u64;
        let mut out = Vec::new();
        assert_eq!(q.try_delete_min(&mut w, &mut rng, &mut out, 2).unwrap(), 1);
        assert_eq!(out[0].key, 7);
        assert_eq!(q.try_delete_min(&mut w, &mut rng, &mut out, 2).unwrap(), 0);
        assert_eq!(q.check_invariants(), 0, "invariant sweep skips the quarantined shard");
    }

    #[test]
    fn all_shards_quarantined_reports_poisoned() {
        let q = sharded(2, 1, 4);
        let mut w = CpuWorker::new();
        q.quarantine(0);
        q.quarantine(1);
        q.quarantine(1); // idempotent
        assert_eq!(q.quarantined_count(), 2);
        assert_eq!(q.quality().quarantines, 2);
        assert!(matches!(
            q.try_insert(&mut w, 0, &[Entry::new(1u32, 1)]),
            Err(QueueError::Poisoned)
        ));
        let mut rng = 9u64;
        let mut out = Vec::new();
        assert!(matches!(
            q.try_delete_min(&mut w, &mut rng, &mut out, 1),
            Err(QueueError::Poisoned)
        ));
        assert!(out.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn full_shard_is_backpressure_not_quarantine() {
        // One tiny shard: filling it must yield Full, leave it live,
        // and deleting makes room again.
        let queue = BgpqOptions { node_capacity: 2, max_nodes: 2, ..Default::default() };
        let platforms = vec![CpuPlatform::new(queue.max_nodes + 1)];
        let q: ShardedBgpq<u32, u32, CpuPlatform> =
            ShardedBgpq::with_platforms(platforms, ShardedOptions::new(1, 1, queue));
        let mut w = CpuWorker::new();
        while q.try_insert(&mut w, 0, &[Entry::new(1, 0), Entry::new(2, 0)]).is_ok() {}
        assert!(matches!(
            q.try_insert(&mut w, 0, &[Entry::new(3, 0), Entry::new(4, 0)]),
            Err(QueueError::Full { .. })
        ));
        assert_eq!(q.quarantined_count(), 0, "Full must not quarantine");
        let mut rng = 3u64;
        let mut out = Vec::new();
        q.try_delete_min(&mut w, &mut rng, &mut out, 2).unwrap();
        q.try_insert(&mut w, 0, &[Entry::new(3, 0), Entry::new(4, 0)])
            .expect("room freed by delete");
    }

    #[test]
    fn crashed_shard_is_salvaged_and_readmitted_within_bounded_probes() {
        use bgpq_runtime::{FaultAction, FaultPlan, InjectionPoint};
        use std::sync::Arc;

        // Shard 0 crashes on its first insert heapify; recovery is
        // enabled with tiny backoffs so the drill stays fast.
        let queue = BgpqOptions { node_capacity: 2, max_nodes: 64, ..Default::default() };
        let rec = RecoveryOptions {
            base_backoff_ops: 4,
            max_backoff_ops: 16,
            trial_ops: 2,
            max_generations: 4,
        };
        let plan = Arc::new(FaultPlan::new().with_rule(
            InjectionPoint::MidInsertHeapify,
            1,
            FaultAction::Panic,
        ));
        let platforms: Vec<CpuPlatform> = (0..3)
            .map(|i| {
                let p = CpuPlatform::new(queue.max_nodes + 1);
                if i == 0 {
                    p.with_faults(plan.clone())
                } else {
                    p
                }
            })
            .collect();
        let q: ShardedBgpq<u32, u32, CpuPlatform> = ShardedBgpq::with_platforms(
            platforms,
            ShardedOptions::new(3, 2, queue).with_recovery(rec),
        );
        let mut w = CpuWorker::new();

        // Crash shard 0 mid-insert, counting the batches that settled.
        let mut settled = 0u32;
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for i in 0..32u32 {
                q.shard(0).insert(&mut w, &[Entry::new(i, 0), Entry::new(i + 100, 0)]);
                settled = i + 1;
            }
        }));
        assert!(r.is_err(), "injected panic must fire");
        assert!(q.shard(0).is_poisoned());

        // The next routed insert notices, quarantines, and fails over.
        q.try_insert(&mut w, 0, &[Entry::new(7u32, 7)]).expect("redistributed insert");
        assert!(q.is_quarantined(0));
        assert_eq!(q.breaker_state(0), BreakerState::Open);

        // Pump traffic over rotating affinities (so the re-admitted
        // shard sees trial ops from its returning producers); the
        // breaker must probe, salvage, trial and close within a small
        // bounded number of operations.
        let mut rng = 11u64;
        let mut pumped = Vec::new();
        let mut ops = 0usize;
        while q.breaker_state(0) != BreakerState::Closed {
            ops += 1;
            assert!(ops <= 400, "breaker must close within bounded probes");
            q.try_insert(&mut w, ops, &[Entry::new(1_000 + ops as u32, 0)]).unwrap();
            pumped.push(1_000 + ops as u32);
        }
        let s = q.quality();
        assert_eq!(s.salvages, 1, "one salvage pass rebuilt the shard");
        assert_eq!(s.readmissions, 1, "trial traffic closed the breaker");
        assert!(s.probes >= 1);
        assert_eq!(s.keys_lost, 2, "exactly one in-flight batch is reported lost, not silent");
        assert_eq!(
            s.keys_recovered,
            u64::from(settled) * 2,
            "every other accepted key is walked out"
        );
        assert_eq!(q.quarantined_count(), 0);

        // The re-admitted shard serves again: home-affinity inserts
        // land on it, and a full drain conserves keys exactly — the
        // queue accepted `settled * 2 + 2` keys before the crash (the
        // dying insert had already merged into the heap), lost a
        // reported 2 of them, and everything else drains once each.
        // (Which two keys were lost is not specified: a crashed
        // insert-heapify may have swapped batch keys into the heap and
        // carried settled ones on its stack.)
        q.try_insert(&mut w, 0, &[Entry::new(9_999u32, 0)]).unwrap();
        let mut out = Vec::new();
        while q.try_delete_min(&mut w, &mut rng, &mut out, 2).unwrap() > 0 {}
        let got: Vec<u32> = out.iter().map(|e| e.key).collect();
        let accepted = u64::from(settled) * 2 + 2;
        assert_eq!(
            got.len() as u64,
            accepted - s.keys_lost + 2 + pumped.len() as u64,
            "drain returns every accepted key minus exactly the reported loss"
        );
        let offered: std::collections::HashSet<u32> = (0..32u32)
            .flat_map(|i| [i, i + 100])
            .chain([7, 9_999])
            .chain(pumped.iter().copied())
            .collect();
        let mut uniq = got.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), got.len(), "no key drains twice");
        assert!(got.iter().all(|k| offered.contains(k)), "salvage never invents keys");
        assert_eq!(q.check_invariants(), 0);
    }

    #[test]
    fn recovery_disabled_keeps_quarantine_permanent() {
        // With `recovery: None`, a router must never probe.
        let queue = BgpqOptions { node_capacity: 4, max_nodes: 64, ..Default::default() };
        let platforms = (0..2).map(|_| CpuPlatform::new(queue.max_nodes + 1)).collect();
        let q: ShardedBgpq<u32, u32, CpuPlatform> =
            ShardedBgpq::with_platforms(platforms, ShardedOptions::new(2, 1, queue));
        let mut w = CpuWorker::new();
        q.quarantine(0);
        for i in 0..200u32 {
            // Full is fine (one small surviving shard); the point is
            // that hundreds of ticks never probe the open breaker.
            let _ = q.try_insert(&mut w, 1, &[Entry::new(i, 0)]);
        }
        assert_eq!(q.breaker_state(0), BreakerState::Open, "no recovery, no re-admission");
        assert_eq!(q.quality().probes, 0);
        assert_eq!(q.quality().salvages, 0);
    }

    #[test]
    fn merged_stats_fold_all_shards() {
        let q = sharded(4, 2, 8);
        let mut w = CpuWorker::new();
        for a in 0..4usize {
            q.insert(&mut w, a, &[Entry::new(1u32, 0), Entry::new(2, 0)]);
        }
        let total = q.merged_stats().snapshot();
        assert_eq!(total.inserts, 4);
        assert_eq!(total.items_inserted, 8);
        assert!((q.load_imbalance() - 1.0).abs() < 1e-12, "even affinity = balanced");
    }

    fn buffered(
        s: usize,
        c: usize,
        k: usize,
        policy: pq_api::BufferPolicy,
    ) -> ShardedBgpq<u32, u32, CpuPlatform> {
        let queue = BgpqOptions { node_capacity: k, max_nodes: 256, ..Default::default() };
        let platforms = (0..s).map(|_| CpuPlatform::new(queue.max_nodes + 1)).collect();
        ShardedBgpq::with_platforms(
            platforms,
            ShardedOptions::new(s, c, queue).with_buffering(policy),
        )
    }

    #[test]
    fn buffered_insert_stages_until_capacity_then_flushes() {
        let policy = pq_api::BufferPolicy::new().with_insert_capacity(4);
        let q = buffered(2, 1, 4, policy);
        let mut w = CpuWorker::new();
        for i in 0..3u32 {
            q.buffered_try_insert(&mut w, 0, &[Entry::new(i, i)]).unwrap();
        }
        // Three keys parked in the slot, none in a shard yet — but all
        // three visible through len().
        assert_eq!(q.buffered_len(), 3);
        assert_eq!(q.shard(0).len() + q.shard(1).len(), 0);
        assert_eq!(q.len(), 3);
        assert_eq!(q.front_stats().snapshot().buffer_flushes, 0);

        // The 4th and 5th key would overflow capacity 4: the slot
        // flushes its 3 staged keys down first, then stages the rest.
        q.buffered_try_insert(&mut w, 0, &[Entry::new(3, 3), Entry::new(4, 4)]).unwrap();
        let fs = q.front_stats().snapshot();
        assert_eq!(fs.buffer_flushes, 1);
        assert_eq!(fs.buffer_flush_items, 3);
        assert_eq!(q.buffered_len(), 2);
        assert_eq!(q.len(), 5);

        // An over-capacity batch bypasses the stage entirely (after
        // flushing what was parked).
        let big: Vec<Entry<u32, u32>> = (10..20u32).map(|i| Entry::new(i, i)).collect();
        q.buffered_try_insert(&mut w, 0, &big).unwrap();
        assert_eq!(q.buffered_len(), 0, "wide batches go straight to the shard");
        assert_eq!(q.len(), 15);
        assert_eq!(q.check_invariants(), 15);
    }

    #[test]
    fn buffered_delete_refills_wide_and_serves_locally() {
        let policy = pq_api::BufferPolicy::new()
            .with_insert_capacity(8)
            .with_refill_width(8)
            .with_stickiness(4);
        let q = buffered(2, 2, 4, policy);
        let mut w = CpuWorker::new();
        let mut rng = 11u64;
        let items: Vec<Entry<u32, u32>> = (0..16u32).map(|i| Entry::new(i, i)).collect();
        for chunk in items[..8].chunks(4) {
            q.try_insert(&mut w, 0, chunk).unwrap();
        }
        for chunk in items[8..].chunks(4) {
            q.try_insert(&mut w, 1, chunk).unwrap();
        }

        let mut out = Vec::new();
        // First pop triggers one 8-wide refill (two k=4 batches from
        // the best shard), then serves 1 from the local buffer.
        assert_eq!(q.buffered_try_delete_min(&mut w, 0, &mut rng, &mut out, 1).unwrap(), 1);
        assert_eq!(out[0].key, 0, "quiescent single-worker pop is exact");
        let fs = q.front_stats().snapshot();
        assert_eq!(fs.buffer_refills, 1);
        assert_eq!(fs.buffer_refill_items, 8);
        assert!((fs.mean_refill_occupancy() - 8.0).abs() < 1e-12);
        assert_eq!(q.buffered_len(), 7);

        // The next 7 pops serve from the buffer with no new refill.
        for want in 1..8u32 {
            out.clear();
            assert_eq!(q.buffered_try_delete_min(&mut w, 0, &mut rng, &mut out, 1).unwrap(), 1);
            assert_eq!(out[0].key, want);
        }
        assert_eq!(q.front_stats().snapshot().buffer_refills, 1);

        // Drain the rest; emptiness is exact even through the buffer.
        out.clear();
        let mut got = 8;
        while q.buffered_try_delete_min(&mut w, 0, &mut rng, &mut out, 4).unwrap() > 0 {
            got = 8 + out.len();
        }
        assert_eq!(got, 16);
        assert!(q.is_empty());
        assert_eq!(q.check_invariants(), 0);
    }

    #[test]
    fn sticky_tenure_counts_reuses_and_resamples() {
        let policy = pq_api::BufferPolicy::new()
            .with_insert_capacity(8)
            .with_refill_width(2)
            .with_stickiness(3);
        let q = buffered(2, 1, 2, policy);
        let mut w = CpuWorker::new();
        let mut rng = 5u64;
        let items: Vec<Entry<u32, u32>> = (0..24u32).map(|i| Entry::new(i, i)).collect();
        for chunk in items[..12].chunks(2) {
            q.try_insert(&mut w, 0, chunk).unwrap();
        }
        for chunk in items[12..].chunks(2) {
            q.try_insert(&mut w, 1, chunk).unwrap();
        }

        // 12 pops = 6 refills of width 2: sample, reuse, reuse, sample,
        // reuse, reuse under stickiness 3.
        let mut out = Vec::new();
        for _ in 0..12 {
            out.clear();
            assert_eq!(q.buffered_try_delete_min(&mut w, 0, &mut rng, &mut out, 1).unwrap(), 1);
        }
        let fs = q.front_stats().snapshot();
        assert_eq!(fs.buffer_refills, 6);
        assert_eq!(fs.sticky_resamples, 2);
        assert_eq!(fs.sticky_reuses, 4);
        assert!((fs.sticky_reuse_rate() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn parked_keys_are_reachable_from_other_slots_and_drains() {
        let policy = pq_api::BufferPolicy::new().with_insert_capacity(16).with_refill_width(4);
        let q = buffered(2, 1, 4, policy);
        let mut w = CpuWorker::new();
        let mut rng = 9u64;

        // Worker 0 stages 3 keys and walks away without flushing.
        q.buffered_try_insert(
            &mut w,
            0,
            &[Entry::new(5u32, 5), Entry::new(1, 1), Entry::new(3, 3)],
        )
        .unwrap();
        assert_eq!(q.buffered_len(), 3);
        assert!(!q.is_empty(), "parked keys must keep the queue non-empty");

        // Worker 1 (a different slot) finds the shards empty, harvests
        // the parked keys, and serves them in order.
        let mut out = Vec::new();
        assert_eq!(q.buffered_try_delete_min(&mut w, 1, &mut rng, &mut out, 2).unwrap(), 2);
        assert_eq!(out.iter().map(|e| e.key).collect::<Vec<_>>(), vec![1, 3]);

        // The last harvested key sits in worker 1's deletion buffer
        // now; a drain must still find it.
        let mut rest = Vec::new();
        q.drain(&mut w, &mut rest);
        assert_eq!(rest.iter().map(|e| e.key).collect::<Vec<_>>(), vec![5]);
        assert!(q.is_empty());
        assert_eq!(q.buffered_len(), 0);
        assert_eq!(q.check_invariants(), 0);
    }

    #[test]
    fn quiesce_returns_every_parked_key_to_the_shards() {
        let policy = pq_api::BufferPolicy::new().with_insert_capacity(16).with_refill_width(4);
        let q = buffered(3, 2, 4, policy);
        let mut w = CpuWorker::new();
        let mut rng = 13u64;

        let items: Vec<Entry<u32, u32>> = (0..12u32).map(|i| Entry::new(i, i)).collect();
        for chunk in items.chunks(4) {
            q.try_insert(&mut w, 0, chunk).unwrap();
        }
        // Stage some inserts and pull a refill into a deletion buffer.
        q.buffered_try_insert(&mut w, 1, &[Entry::new(50u32, 50), Entry::new(51, 51)]).unwrap();
        let mut out = Vec::new();
        q.buffered_try_delete_min(&mut w, 2, &mut rng, &mut out, 1).unwrap();
        assert!(q.buffered_len() > 0);

        let moved = q.quiesce_all(&mut w).unwrap();
        assert!(moved > 0);
        assert_eq!(q.buffered_len(), 0, "quiesce leaves nothing parked");
        let shard_total: usize = (0..3).map(|i| q.shard(i).len()).sum();
        assert_eq!(shard_total, q.len());
        assert_eq!(q.len(), 13, "12 + 2 staged - 1 popped");
        assert_eq!(q.check_invariants(), 13);
    }

    #[test]
    fn buffered_flush_reroutes_around_quarantine() {
        let policy = pq_api::BufferPolicy::new().with_insert_capacity(8).with_refill_width(4);
        let q = buffered(2, 1, 4, policy);
        let mut w = CpuWorker::new();

        // Slot 0's home shard is shard 0; park keys, then quarantine it
        // out from under the buffer.
        q.buffered_try_insert(&mut w, 0, &[Entry::new(1u32, 1), Entry::new(2, 2)]).unwrap();
        q.quarantine(0);
        assert_eq!(q.flush_slot(&mut w, 0).unwrap(), 2);
        assert_eq!(q.buffered_len(), 0);
        assert_eq!(q.shard(1).len(), 2, "staged keys re-routed to the survivor");
        assert_eq!(q.quality().buffer_reroutes, 2);
        assert_eq!(q.len(), 2, "zero silent loss");
    }
}

//! Per-shard circuit breaker: quarantine, salvage and re-admission.
//!
//! A shard that fails (poisoned heap, lock timeout) trips its breaker
//! **Open**: it is excluded from routing, sampling and sweeps, and the
//! survivors absorb its traffic. Without recovery configured that is
//! permanent — the original fail-stop behaviour. With
//! [`ShardedOptions::recovery`](crate::ShardedOptions::recovery) set,
//! the breaker follows the classic state machine on every platform:
//!
//! * **Open** — after an exponential, jittered backoff (measured in
//!   router operations, so it is deterministic per schedule and needs
//!   no clock), the next operation to notice the expired deadline
//!   probes the shard: it waits for in-flight operations to drain,
//!   salvages the crashed heap ([`Bgpq::salvage_reset`](bgpq::Bgpq::salvage_reset)),
//!   and rebuilds it from its own recovered keys (spilling to survivors
//!   if the home shard refuses).
//! * **Half-open** — the rebuilt shard serves trial traffic. Each
//!   successful operation burns one trial token; a failure re-opens the
//!   breaker with a doubled backoff.
//! * **Closed** — trial traffic succeeded; the shard is fully
//!   re-admitted.
//!
//! Key accounting is conservative and loud: every key a salvage could
//! not recover is counted in
//! [`QualitySnapshot::keys_lost`](crate::QualitySnapshot::keys_lost) —
//! loss is never silent.

use crate::router::ShardedBgpq;
use bgpq_runtime::Platform;
use pq_api::{Entry, KeyType, OpStats, ValueType};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};

/// Circuit-breaker policy for shard recovery. All deadlines are in
/// *router operations* (one tick per `try_insert` / `try_delete_min`),
/// not wall time: deterministic per schedule, meaningful on both the
/// thread and the gpu-sim platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryOptions {
    /// Router operations to wait before the first salvage probe of a
    /// freshly opened breaker. Doubled on each re-open (pre-jitter).
    pub base_backoff_ops: u64,
    /// Cap on the backoff growth (pre-jitter).
    pub max_backoff_ops: u64,
    /// Successful shard operations required in half-open before the
    /// breaker closes and the shard counts as re-admitted.
    pub trial_ops: u64,
    /// Salvage attempts per shard before its quarantine becomes
    /// permanent after all (a shard that keeps crashing is hardware,
    /// not luck). `0` means unlimited.
    pub max_generations: u32,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        Self { base_backoff_ops: 64, max_backoff_ops: 4096, trial_ops: 8, max_generations: 8 }
    }
}

/// Observable state of one shard's circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Serving normally.
    Closed,
    /// Quarantined: excluded from routing until a salvage probe (or
    /// forever, when recovery is off or generations are exhausted).
    Open,
    /// Salvaged and rebuilt; serving trial traffic.
    HalfOpen,
}

const CLOSED: u8 = 0;
const OPEN: u8 = 1;
const HALF_OPEN: u8 = 2;

/// How long a salvage probe spins waiting for a quarantined shard's
/// straggler operations to drain before giving up and rescheduling.
const QUIESCE_SPINS: u32 = 100_000;

/// One shard's breaker: state machine plus the bookkeeping recovery
/// needs (probe deadline, attempt generation, trial budget, and an
/// in-flight count so salvage can wait out stragglers that passed the
/// quarantine check before the breaker opened). The default is
/// Closed.
#[derive(Debug, Default)]
struct Breaker {
    state: AtomicU8,
    /// Salvage attempts so far; doubles the backoff and feeds jitter.
    generation: AtomicU32,
    /// Global op-count after which the next probe may run (Open only).
    probe_at: AtomicU64,
    /// Successful trial operations still required to close (HalfOpen).
    trial_left: AtomicU64,
    /// Probe mutual exclusion: only one operation salvages at a time.
    recovering: AtomicBool,
    /// Operations currently inside this shard's heap.
    inflight: AtomicU64,
}

/// Every shard's breaker plus the recovery policy and its op clock.
pub(crate) struct Breakers {
    shards: Box<[Breaker]>,
    /// Recovery policy; `None` keeps quarantine permanent.
    recovery: Option<RecoveryOptions>,
    /// Router operation counter: the clock that backoff deadlines are
    /// measured against. Ticks only when recovery is configured.
    ops: AtomicU64,
    /// Number of breakers currently Open (fast path guard: zero means
    /// the per-op recovery scan is skipped entirely).
    open: AtomicU64,
}

impl Breakers {
    pub(crate) fn new(shards: usize, recovery: Option<RecoveryOptions>) -> Self {
        Self {
            shards: (0..shards).map(|_| Breaker::default()).collect(),
            recovery,
            ops: AtomicU64::new(0),
            open: AtomicU64::new(0),
        }
    }

    /// Take an in-flight token on shard `i` for one heap operation, so a
    /// later salvage probe can wait the operation out.
    pub(crate) fn enter(&self, i: usize) -> InflightGuard<'_> {
        let counter = &self.shards[i].inflight;
        counter.fetch_add(1, Ordering::AcqRel);
        InflightGuard(counter)
    }
}

/// Decrement-on-drop in-flight token. Drop runs during unwind too, so
/// an operation killed inside a shard (an injected panic, say) still
/// releases its token and cannot wedge later salvage quiescence.
pub(crate) struct InflightGuard<'a>(&'a AtomicU64);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Backoff before generation `gen`'s probe of shard `shard`:
/// exponential (`base << gen`, capped) with deterministic jitter in
/// `[raw/2, 3*raw/2)` drawn from the (shard, generation) pair — shards
/// opened by one fault burst do not probe in lockstep.
fn backoff_ops(rec: &RecoveryOptions, shard: usize, gen: u32) -> u64 {
    let raw =
        rec.base_backoff_ops.saturating_mul(1u64 << gen.min(20)).min(rec.max_backoff_ops).max(1);
    let r = splitmix64(((shard as u64) << 32) | u64::from(gen).wrapping_add(1));
    raw / 2 + r % raw
}

impl<K: KeyType, V: ValueType, P: Platform> ShardedBgpq<K, V, P> {
    /// Whether shard `i` has been taken out of rotation (breaker Open).
    /// Half-open shards are *live*: they serve trial traffic.
    pub fn is_quarantined(&self, i: usize) -> bool {
        self.breakers.shards[i].state.load(Ordering::Relaxed) == OPEN
    }

    /// Number of shards currently quarantined.
    pub fn quarantined_count(&self) -> usize {
        (0..self.num_shards()).filter(|&i| self.is_quarantined(i)).count()
    }

    /// Observable breaker state of shard `i`.
    pub fn breaker_state(&self, i: usize) -> BreakerState {
        match self.breakers.shards[i].state.load(Ordering::Relaxed) {
            OPEN => BreakerState::Open,
            HALF_OPEN => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }

    /// Take shard `i` out of rotation (idempotent while Open). Called
    /// by the routing paths when a shard reports `Poisoned` or
    /// `LockTimeout`; also available to callers that detect a failure
    /// out of band. With recovery configured this schedules a salvage
    /// probe after an exponential, jittered backoff; each re-open
    /// doubles the wait.
    pub fn quarantine(&self, i: usize) {
        let b = &self.breakers.shards[i];
        if b.state.swap(OPEN, Ordering::SeqCst) == OPEN {
            return;
        }
        self.breakers.open.fetch_add(1, Ordering::Relaxed);
        self.quality.record_quarantine();
        OpStats::bump(&self.shards[i].stats().shard_quarantines);
        if let Some(rec) = &self.breakers.recovery {
            let gen = b.generation.fetch_add(1, Ordering::Relaxed);
            let now = self.breakers.ops.load(Ordering::Relaxed);
            b.probe_at.store(now.saturating_add(backoff_ops(rec, i, gen)), Ordering::Relaxed);
        }
    }

    /// A routing path saw shard `i` fail: tag the breaker write and
    /// quarantine the shard.
    pub(crate) fn trip(&self, w: &mut P::Worker, i: usize) {
        self.touch_front(w, true);
        self.quarantine(i);
    }

    /// Advance the recovery clock and run due salvage probes. Called at
    /// the top of every routing operation; free when recovery is off,
    /// one relaxed increment plus one load when no breaker is open.
    pub(crate) fn tick(&self, w: &mut P::Worker) {
        let Some(rec) = self.breakers.recovery else { return };
        // The op clock is written by every operation: with recovery
        // armed, front traffic is genuinely order-sensitive (which op
        // crosses a probe deadline first matters).
        self.touch_front(w, true);
        let now = self.breakers.ops.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
        if self.breakers.open.load(Ordering::Relaxed) == 0 {
            return;
        }
        for (i, b) in self.breakers.shards.iter().enumerate() {
            if b.state.load(Ordering::Acquire) != OPEN
                || now < b.probe_at.load(Ordering::Relaxed)
                || (rec.max_generations != 0
                    && b.generation.load(Ordering::Relaxed) > rec.max_generations)
            {
                continue;
            }
            if b.recovering.swap(true, Ordering::Acquire) {
                continue; // another operation is already probing
            }
            if b.state.load(Ordering::Acquire) == OPEN {
                self.probe_shard(i, w, &rec, now);
            }
            b.recovering.store(false, Ordering::Release);
        }
    }

    /// One salvage probe: wait for stragglers, salvage, rebuild, and
    /// move the shard to half-open. Runs under the breaker's
    /// `recovering` lock with the breaker Open, so no routing path can
    /// enter the shard concurrently.
    fn probe_shard(&self, i: usize, w: &mut P::Worker, rec: &RecoveryOptions, now: u64) {
        self.quality.record_probe();
        // The whole probe mutates front state (quiesce reads, breaker
        // transition to half-open); the salvage itself tags the shard's
        // own lock domain.
        self.touch_front(w, true);
        let b = &self.breakers.shards[i];

        // Quiescence: operations that passed the quarantine check just
        // before the breaker opened may still be inside (or unwinding
        // out of) the shard. Their in-flight tokens release even on
        // panic; wait them out, bounded — a wedged straggler (its
        // watchdog has not fired yet) just postpones this probe.
        let mut spins = 0u32;
        while b.inflight.load(Ordering::Acquire) != 0 {
            spins += 1;
            if spins > QUIESCE_SPINS {
                b.probe_at
                    .store(now.saturating_add(rec.base_backoff_ops.max(1)), Ordering::Relaxed);
                return;
            }
            std::hint::spin_loop();
        }

        let mut recovered: Vec<Entry<K, V>> = Vec::new();
        let report = self.shards[i].salvage_reset(w, &mut recovered);
        self.quality.record_salvage(report.keys_recovered as u64, report.keys_lost as u64);

        // Rebuild the shard from its own keys; spill chunks the freshly
        // reset home shard refuses (it re-poisoned, or raced Full) to
        // the survivors, and count anything nobody accepted as lost —
        // loudly, never silently. No chunk is refused, so every chunk
        // is offered.
        let mut residue = 0u64;
        let _ = self.insert_chunks(&recovered, |chunk| {
            if !(self.shards[i].try_insert(w, chunk).is_ok() || self.spill(w, i, chunk)) {
                residue += chunk.len() as u64;
            }
            Ok(())
        });
        if residue > 0 {
            self.quality.record_lost(residue);
        }

        // Trial service: live again, but each success burns a token and
        // any failure re-opens with a doubled backoff.
        b.trial_left.store(rec.trial_ops.max(1), Ordering::Relaxed);
        b.state.store(HALF_OPEN, Ordering::Release);
        self.breakers.open.fetch_sub(1, Ordering::Relaxed);
    }

    /// Offer `chunk` to any live shard other than `from`. Returns
    /// whether someone took it.
    fn spill(&self, w: &mut P::Worker, from: usize, chunk: &[Entry<K, V>]) -> bool {
        let s = self.num_shards();
        (1..s)
            .map(|off| (from + off) % s)
            .any(|i| !self.is_quarantined(i) && self.shards[i].try_insert(w, chunk).is_ok())
    }

    /// Note a successful operation against shard `i`: in half-open it
    /// burns one trial token, and the token that reaches zero closes
    /// the breaker (full re-admission).
    #[inline]
    pub(crate) fn note_success(&self, i: usize) {
        let b = &self.breakers.shards[i];
        if b.state.load(Ordering::Relaxed) != HALF_OPEN {
            return;
        }
        if b.trial_left.fetch_sub(1, Ordering::AcqRel) == 1
            && b.state
                .compare_exchange(HALF_OPEN, CLOSED, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            self.quality.record_readmission();
        }
    }
}

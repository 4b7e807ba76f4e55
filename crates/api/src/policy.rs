//! Retry policy and deadline plumbing for the hardened `try_*` API.
//!
//! PR 2 made failures *visible* (`Full`, `Poisoned`, `LockTimeout`);
//! the recovery work makes some of them *transient* (`LockTimeout`
//! while a watchdog-hit holder unwinds, [`QueueError::Unavailable`]
//! while a front waits out a backend salvage). This module gives
//! callers one vetted answer to "what do I do with a transient error"
//! instead of every call site growing its own ad-hoc loop:
//!
//! * [`RetryPolicy`] — bounded attempts, exponential backoff with
//!   deterministic jitter, per-class retry switches keyed off
//!   [`QueueError::retryable`].
//! * [`Deadline`] — a wall-clock budget the whole retry loop must fit
//!   in, so a caller-facing latency bound survives arbitrarily
//!   unlucky backoff draws.
//! * [`Retrying`] — a wrapper queue applying the policy around any
//!   [`TryBatchPriorityQueue`], so batched callers opt in by wrapping
//!   rather than rewriting.
//!
//! The backoff sleeps on the OS clock (`std::thread::sleep`), which
//! makes [`Retrying`] a host-side tool: simulator agents must keep
//! using their platform's virtual-time backoff instead.

use crate::entry::Entry;
use crate::error::QueueError;
use crate::key::{KeyType, ValueType};
use crate::pq::{BatchPriorityQueue, TryBatchPriorityQueue};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A wall-clock budget for a whole retry loop.
///
/// `Deadline` is deliberately dumb — capture `Instant::now() + budget`
/// once, ask [`Deadline::expired`] before each attempt — so it can
/// also bound hand-written loops that do not go through [`Retrying`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Self {
        Self { at: Instant::now() + budget }
    }

    /// The instant this deadline lands on.
    pub fn instant(&self) -> Instant {
        self.at
    }

    /// True once the budget is exhausted.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time left, saturating at zero.
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }

    /// Clamp `d` so a sleep cannot overshoot the deadline.
    pub fn clamp(&self, d: Duration) -> Duration {
        d.min(self.remaining())
    }
}

/// How a caller wants transient [`QueueError`]s handled: how many
/// attempts, how long between them, and which error classes are worth
/// retrying at all.
///
/// The default policy retries exactly the classes
/// [`QueueError::retryable`] admits — `LockTimeout` and `Unavailable`
/// — and fast-fails `Poisoned` (a structural verdict no retry can
/// change) and `Full` (backpressure; only meaningful to retry when
/// something else is draining the queue, so it is an explicit opt-in
/// via [`RetryPolicy::retry_full`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `1` means "no retry").
    pub max_attempts: u32,
    /// Backoff before retry `n` starts from `base_backoff << (n-1)`…
    pub base_backoff: Duration,
    /// …and is capped here, pre-jitter.
    pub max_backoff: Duration,
    /// Also retry [`QueueError::Full`] (backpressure). Off by default:
    /// retrying `Full` only converges when a consumer is draining.
    pub retry_full: bool,
    /// Optional wall-clock budget for the whole loop; `None` bounds it
    /// by attempts alone.
    pub total_budget: Option<Duration>,
    /// Seed for the deterministic jitter stream (tests pin this).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_millis(5),
            retry_full: false,
            total_budget: None,
            jitter_seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RetryPolicy {
    /// The default policy with a different attempt bound.
    pub fn with_attempts(max_attempts: u32) -> Self {
        assert!(max_attempts >= 1, "at least the first attempt must run");
        Self { max_attempts, ..Self::default() }
    }

    /// Builder: also retry `Full` (see [`RetryPolicy::retry_full`]).
    pub fn retrying_full(mut self) -> Self {
        self.retry_full = true;
        self
    }

    /// Builder: bound the whole loop by a wall-clock budget.
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.total_budget = Some(budget);
        self
    }

    /// Whether `e` is worth another attempt under this policy.
    pub fn should_retry(&self, e: &QueueError) -> bool {
        e.retryable() || (self.retry_full && matches!(e, QueueError::Full { .. }))
    }

    /// Backoff before attempt `attempt` (2-based: the first retry is
    /// attempt 2): exponential in the retry count, jittered to ±50% so
    /// colliding retriers decorrelate, deterministic in
    /// `(jitter_seed, attempt, salt)` so drills replay bit-for-bit.
    pub fn backoff_before(&self, attempt: u32, salt: u64) -> Duration {
        debug_assert!(attempt >= 2);
        let shift = (attempt - 2).min(20);
        let raw = self.base_backoff.saturating_mul(1 << shift).min(self.max_backoff);
        let nanos = raw.as_nanos() as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        // Map a splitmix64 draw into [0.5, 1.5) of the raw backoff.
        let r = splitmix64(self.jitter_seed ^ (u64::from(attempt) << 32) ^ salt);
        Duration::from_nanos(nanos / 2 + r % nanos)
    }

    /// The loop's deadline, if a budget is configured.
    pub fn deadline(&self) -> Option<Deadline> {
        self.total_budget.map(Deadline::after)
    }

    /// Run `op` under this policy: call it up to
    /// [`RetryPolicy::max_attempts`] times, sleeping the jittered
    /// backoff between attempts, until it succeeds, fails with a
    /// non-retryable error, or the budget runs out. Returns the last
    /// error when every attempt failed. `salt` decorrelates the jitter
    /// of concurrent retriers (the [`Retrying`] wrapper feeds it a
    /// per-call counter).
    pub fn run<T>(
        &self,
        salt: u64,
        mut op: impl FnMut() -> Result<T, QueueError>,
    ) -> Result<T, QueueError> {
        let deadline = self.deadline();
        let mut last = None;
        for attempt in 1..=self.max_attempts.max(1) {
            if attempt > 1 {
                let pause = self.backoff_before(attempt, salt);
                let pause = deadline.map_or(pause, |d| d.clamp(pause));
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
            }
            match op() {
                Ok(v) => return Ok(v),
                Err(e) => {
                    let out_of_time = deadline.is_some_and(|d| d.expired());
                    if !self.should_retry(&e) || out_of_time {
                        return Err(e);
                    }
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or(QueueError::Unavailable))
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A [`TryBatchPriorityQueue`] wrapper that applies a [`RetryPolicy`]
/// around every `try_*` call. The infallible [`BatchPriorityQueue`]
/// face panics only after the policy is exhausted, so single-shot
/// callers get bounded retry for free.
pub struct Retrying<Q> {
    inner: Q,
    policy: RetryPolicy,
    salt: AtomicU64,
}

impl<Q> Retrying<Q> {
    pub fn new(inner: Q, policy: RetryPolicy) -> Self {
        Self { inner, policy, salt: AtomicU64::new(0) }
    }

    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    pub fn inner(&self) -> &Q {
        &self.inner
    }

    pub fn into_inner(self) -> Q {
        self.inner
    }

    fn next_salt(&self) -> u64 {
        self.salt.fetch_add(1, Ordering::Relaxed)
    }
}

impl<K, V, Q> BatchPriorityQueue<K, V> for Retrying<Q>
where
    K: KeyType,
    V: ValueType,
    Q: TryBatchPriorityQueue<K, V>,
{
    fn batch_capacity(&self) -> usize {
        self.inner.batch_capacity()
    }

    fn insert_batch(&self, items: &[Entry<K, V>]) {
        if let Err(e) = self.try_insert_batch(items) {
            panic!("insert failed after {} attempts: {e}", self.policy.max_attempts);
        }
    }

    fn delete_min_batch(&self, out: &mut Vec<Entry<K, V>>, count: usize) -> usize {
        match self.try_delete_min_batch(out, count) {
            Ok(n) => n,
            Err(e) => panic!("delete_min failed after {} attempts: {e}", self.policy.max_attempts),
        }
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

impl<K, V, Q> TryBatchPriorityQueue<K, V> for Retrying<Q>
where
    K: KeyType,
    V: ValueType,
    Q: TryBatchPriorityQueue<K, V>,
{
    fn try_insert_batch(&self, items: &[Entry<K, V>]) -> Result<(), QueueError> {
        let salt = self.next_salt();
        self.policy.run(salt, || self.inner.try_insert_batch(items))
    }

    fn try_delete_min_batch(
        &self,
        out: &mut Vec<Entry<K, V>>,
        count: usize,
    ) -> Result<usize, QueueError> {
        let salt = self.next_salt();
        self.policy.run(salt, || self.inner.try_delete_min_batch(out, count))
    }
}

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
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    /// Scripted queue: pops one result per `try_*` call.
    struct Scripted {
        script: Mutex<Vec<Result<(), QueueError>>>,
        calls: AtomicUsize,
    }

    impl Scripted {
        fn new(mut script: Vec<Result<(), QueueError>>) -> Self {
            script.reverse();
            Self { script: Mutex::new(script), calls: AtomicUsize::new(0) }
        }
        fn calls(&self) -> usize {
            self.calls.load(Ordering::Relaxed)
        }
        fn step(&self) -> Result<(), QueueError> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.script.lock().unwrap().pop().unwrap_or(Ok(()))
        }
    }

    impl BatchPriorityQueue<u32, u32> for Scripted {
        fn batch_capacity(&self) -> usize {
            8
        }
        fn insert_batch(&self, _items: &[Entry<u32, u32>]) {
            self.step().unwrap();
        }
        fn delete_min_batch(&self, _out: &mut Vec<Entry<u32, u32>>, _count: usize) -> usize {
            self.step().unwrap();
            0
        }
        fn len(&self) -> usize {
            0
        }
    }

    impl TryBatchPriorityQueue<u32, u32> for Scripted {
        fn try_insert_batch(&self, _items: &[Entry<u32, u32>]) -> Result<(), QueueError> {
            self.step()
        }
        fn try_delete_min_batch(
            &self,
            _out: &mut Vec<Entry<u32, u32>>,
            _count: usize,
        ) -> Result<usize, QueueError> {
            self.step().map(|()| 0)
        }
    }

    fn timeout() -> QueueError {
        QueueError::LockTimeout { lock: 1, detail: "t".into() }
    }

    fn fast() -> RetryPolicy {
        RetryPolicy {
            base_backoff: Duration::from_micros(1),
            max_backoff: Duration::from_micros(10),
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn transient_errors_are_retried_to_success() {
        let q = Retrying::new(
            Scripted::new(vec![Err(timeout()), Err(QueueError::Unavailable), Ok(())]),
            fast(),
        );
        assert_eq!(q.try_insert_batch(&[Entry::new(1, 1)]), Ok(()));
        assert_eq!(q.inner().calls(), 3);
    }

    #[test]
    fn poisoned_fast_fails_without_retry() {
        let q = Retrying::new(Scripted::new(vec![Err(QueueError::Poisoned), Ok(())]), fast());
        assert_eq!(q.try_insert_batch(&[Entry::new(1, 1)]), Err(QueueError::Poisoned));
        assert_eq!(q.inner().calls(), 1);
    }

    #[test]
    fn full_retries_only_when_opted_in() {
        let full = QueueError::Full { max_nodes: 4 };
        let q = Retrying::new(Scripted::new(vec![Err(full.clone()), Ok(())]), fast());
        assert_eq!(q.try_insert_batch(&[Entry::new(1, 1)]), Err(full.clone()));

        let q = Retrying::new(Scripted::new(vec![Err(full), Ok(())]), fast().retrying_full());
        assert_eq!(q.try_insert_batch(&[Entry::new(1, 1)]), Ok(()));
        assert_eq!(q.inner().calls(), 2);
    }

    #[test]
    fn attempts_are_bounded_and_last_error_surfaces() {
        let policy = RetryPolicy { max_attempts: 3, ..fast() };
        let q = Retrying::new(Scripted::new(vec![Err(timeout()); 10]), policy);
        assert!(matches!(
            q.try_insert_batch(&[Entry::new(1, 1)]),
            Err(QueueError::LockTimeout { .. })
        ));
        assert_eq!(q.inner().calls(), 3);
    }

    #[test]
    fn budget_bounds_the_loop() {
        let policy = RetryPolicy {
            max_attempts: u32::MAX,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(1),
            ..RetryPolicy::default()
        }
        .with_budget(Duration::from_millis(5));
        let q = Retrying::new(Scripted::new(vec![Err(timeout()); 4096]), policy);
        let t0 = Instant::now();
        assert!(q.try_insert_batch(&[Entry::new(1, 1)]).is_err());
        assert!(t0.elapsed() < Duration::from_secs(2), "deadline must cut the loop short");
        assert!(q.inner().calls() < 4096);
    }

    #[test]
    fn backoff_grows_and_jitter_is_deterministic() {
        let p = fast();
        assert!(p.backoff_before(4, 7) >= p.base_backoff / 2);
        assert_eq!(p.backoff_before(3, 9), p.backoff_before(3, 9));
        // Different salts decorrelate (overwhelmingly likely to differ).
        assert_ne!(p.backoff_before(5, 1), p.backoff_before(5, 2));
    }

    #[test]
    fn deadline_reports_expiry_and_clamps() {
        let d = Deadline::after(Duration::ZERO);
        assert!(d.expired());
        assert_eq!(d.clamp(Duration::from_secs(1)), Duration::ZERO);
        let far = Deadline::after(Duration::from_secs(60));
        assert!(!far.expired());
        assert_eq!(far.clamp(Duration::from_millis(1)), Duration::from_millis(1));
    }

    #[test]
    fn infallible_face_panics_only_after_exhaustion() {
        let q = Retrying::new(
            Scripted::new(vec![Err(timeout()), Ok(())]),
            RetryPolicy { max_attempts: 2, ..fast() },
        );
        q.insert_batch(&[Entry::new(1, 1)]);
        assert_eq!(q.inner().calls(), 2);
    }

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

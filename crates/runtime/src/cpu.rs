//! Real-threads platform backed by `parking_lot` raw mutexes.

use crate::fault::{FaultAction, FaultPlan, InjectionPoint};
use crate::platform::{LockFailure, Platform};
use parking_lot::lock_api::RawMutex as RawMutexApi;
use parking_lot::RawMutex;
use pq_api::ScratchSlot;
use primitives::PrimitiveCost;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-thread context for [`CpuPlatform`]. Real threads need no lock
/// state (the OS carries it), but the worker owns the [`ScratchSlot`]
/// in which queue hot paths park their per-worker arenas between
/// operations — reuse a worker across calls and the steady state
/// allocates nothing.
#[derive(Debug, Default)]
pub struct CpuWorker {
    scratch: ScratchSlot,
}

impl CpuWorker {
    pub fn new() -> Self {
        Self::default()
    }

    /// The scratch parking spot (see [`ScratchSlot`]).
    pub fn scratch_slot(&mut self) -> &mut ScratchSlot {
        &mut self.scratch
    }
}

thread_local! {
    static TL_WORKER: RefCell<CpuWorker> = RefCell::new(CpuWorker::new());
}

/// Run `f` with this thread's shared [`CpuWorker`].
///
/// Convenience wrappers whose API has no worker parameter (e.g. the
/// [`pq_api::BatchPriorityQueue`] impls) route through here so repeated
/// calls on one thread reuse the same scratch arenas instead of paying
/// a cold worker per call. Panics if re-entered on the same thread
/// (queue operations never call back into the wrapper API).
pub fn with_thread_worker<R>(f: impl FnOnce(&mut CpuWorker) -> R) -> R {
    TL_WORKER.with(|w| f(&mut w.borrow_mut()))
}

static THREAD_TICKET: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_TOKEN: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Small stable nonzero id of the calling thread, used by the watchdog's
/// holder table (0 means "free" in that table).
fn thread_token() -> usize {
    THREAD_TOKEN.with(|c| {
        let v = c.get();
        if v != 0 {
            return v;
        }
        let t = THREAD_TICKET.fetch_add(1, Ordering::Relaxed) + 1;
        c.set(t);
        t
    })
}

/// Dense zero-based id of the calling thread, stable for the thread's
/// lifetime and assigned in first-call order. The shard router uses it
/// for shard affinity and the combiner front for submission-ring lanes;
/// both want a small index suitable for `% n` striping, which
/// [`std::thread::ThreadId`] does not provide.
pub fn worker_id() -> usize {
    thread_token() - 1
}

/// A lock table of `parking_lot` raw mutexes; primitive costs are
/// ignored (the real CPU does the real work).
///
/// Optional hardening, both off by default:
///
/// * [`CpuPlatform::with_watchdog`] bounds every acquisition — on
///   timeout, [`Platform::lock_checked`] returns a [`LockFailure`]
///   carrying a diagnostic dump of the lock table (which locks are held
///   and by which worker token), and the plain [`Platform::lock`]
///   panics with the same dump. While the watchdog is armed the
///   platform tracks per-lock holder tokens.
/// * [`CpuPlatform::with_faults`] arms a [`FaultPlan`]: stalls become
///   real `thread::sleep`s (microseconds), delays become spin-loop
///   iterations, panics unwind the calling thread.
pub struct CpuPlatform {
    locks: Box<[RawMutex]>,
    /// Holder token per lock (0 = free); maintained only while the
    /// watchdog is armed, so the default lock path stays branch+store
    /// free.
    holders: Box<[AtomicUsize]>,
    watchdog: Option<Duration>,
    faults: Option<Arc<FaultPlan>>,
}

impl CpuPlatform {
    /// Build a platform with `n` locks.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "need at least one lock");
        Self {
            locks: (0..n).map(|_| RawMutex::INIT).collect(),
            holders: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            watchdog: None,
            faults: None,
        }
    }

    /// Arm the lock watchdog: acquisitions taking longer than `timeout`
    /// fail (see [`Platform::lock_checked`]) instead of blocking on a
    /// dead holder forever.
    pub fn with_watchdog(mut self, timeout: Duration) -> Self {
        assert!(timeout > Duration::ZERO, "watchdog timeout must be positive");
        self.watchdog = Some(timeout);
        self
    }

    /// Attach a fault-injection plan (crash drills).
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The armed watchdog timeout, if any.
    pub fn watchdog(&self) -> Option<Duration> {
        self.watchdog
    }

    /// Diagnostic dump for a watchdog report: the contended lock's
    /// holder token plus every currently held lock (capped at 16).
    fn dump_lock_table(&self, waiting_for: usize, timeout: Duration) -> String {
        use std::fmt::Write;
        let mut s = format!(
            "lock {waiting_for} not granted within {timeout:?} (holder token {}); held:",
            self.holders[waiting_for].load(Ordering::Relaxed)
        );
        let mut listed = 0;
        for (i, h) in self.holders.iter().enumerate() {
            let t = h.load(Ordering::Relaxed);
            if t != 0 {
                if listed == 16 {
                    s.push_str(" …");
                    break;
                }
                let _ = write!(s, " {i}(by {t})");
                listed += 1;
            }
        }
        if listed == 0 {
            s.push_str(" (none)");
        }
        s
    }
}

impl Platform for CpuPlatform {
    type Worker = CpuWorker;

    fn num_locks(&self) -> usize {
        self.locks.len()
    }

    #[inline]
    fn scratch_slot<'a>(&self, w: &'a mut CpuWorker) -> &'a mut ScratchSlot {
        &mut w.scratch
    }

    #[inline]
    fn lock(&self, w: &mut CpuWorker, lock: usize) {
        if self.watchdog.is_some() {
            if let Err(f) = self.lock_checked(w, lock) {
                panic!("CpuPlatform watchdog: {}", f.detail);
            }
        } else {
            self.locks[lock].lock();
        }
    }

    #[inline]
    fn try_lock(&self, _w: &mut CpuWorker, lock: usize) -> bool {
        let got = self.locks[lock].try_lock();
        if got && self.watchdog.is_some() {
            self.holders[lock].store(thread_token(), Ordering::Relaxed);
        }
        got
    }

    #[inline]
    fn unlock(&self, _w: &mut CpuWorker, lock: usize) {
        if self.watchdog.is_some() {
            self.holders[lock].store(0, Ordering::Relaxed);
        }
        // SAFETY (of the locking protocol, not memory): the heap's
        // hand-over-hand discipline guarantees the calling worker holds
        // `lock`; see `Platform` docs.
        unsafe { self.locks[lock].unlock() };
    }

    #[inline]
    fn charge(&self, _w: &mut CpuWorker, _c: PrimitiveCost) {}

    #[inline]
    fn backoff(&self, _w: &mut CpuWorker) {
        // On an oversubscribed host (this repo's CI is single-core) a
        // pure spin would starve the thread we are waiting on.
        std::thread::yield_now();
    }

    fn backoff_long(&self, _w: &mut CpuWorker) {
        std::thread::sleep(Duration::from_micros(50));
    }

    fn inject(&self, _w: &mut CpuWorker, point: InjectionPoint) {
        let Some(plan) = self.faults.as_ref() else { return };
        match plan.check(point) {
            None => {}
            Some(FaultAction::Panic) => panic!("injected fault: panic at {point:?}"),
            Some(FaultAction::Stall { units }) => {
                // One unit = 1µs of real wall-clock freeze, capped so a
                // bad plan cannot hang a test run.
                std::thread::sleep(Duration::from_micros(units.min(500_000)));
            }
            Some(FaultAction::Delay { units }) => {
                for _ in 0..units {
                    std::hint::spin_loop();
                }
            }
        }
    }

    fn lock_checked(&self, _w: &mut CpuWorker, lock: usize) -> Result<(), LockFailure> {
        let Some(timeout) = self.watchdog else {
            self.locks[lock].lock();
            return Ok(());
        };
        if self.locks[lock].try_lock() {
            self.holders[lock].store(thread_token(), Ordering::Relaxed);
            return Ok(());
        }
        let deadline = Instant::now() + timeout;
        let mut spins = 0u32;
        loop {
            if self.locks[lock].try_lock() {
                self.holders[lock].store(thread_token(), Ordering::Relaxed);
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(LockFailure { lock, detail: self.dump_lock_table(lock, timeout) });
            }
            spins += 1;
            if spins < 128 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
    }

    /// Also clears the watchdog's holder tokens. A poisoned queue can
    /// leave locks held by workers that died past their RAII release
    /// (e.g. a stalled thread that was abandoned), and nothing else
    /// will ever unlock them.
    fn force_reset_locks(&self) {
        for (lock, holder) in self.locks.iter().zip(self.holders.iter()) {
            // Acquire if free so the unlock below is always paired;
            // if held (by a dead worker, per the contract) the unlock
            // alone performs the forced release.
            let _ = lock.try_lock();
            // SAFETY: the lock is held, by the `try_lock` above or by a
            // dead worker, and the caller's quiescence contract rules
            // out a live holder. The vendored `parking_lot` raw mutex is
            // a plain atomic flag with no owner bookkeeping or parked
            // waiters, so a release from a non-owner thread is
            // well-defined.
            unsafe { lock.unlock() };
            holder.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn locks_exclude_concurrent_increments() {
        let p = CpuPlatform::new(1);
        let counter = AtomicU64::new(0);
        let max_seen = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut w = CpuWorker::new();
                    for _ in 0..1000 {
                        p.lock(&mut w, 0);
                        let inside = counter.fetch_add(1, Ordering::SeqCst) + 1;
                        max_seen.fetch_max(inside, Ordering::SeqCst);
                        counter.fetch_sub(1, Ordering::SeqCst);
                        p.unlock(&mut w, 0);
                    }
                });
            }
        });
        assert_eq!(max_seen.load(Ordering::SeqCst), 1, "critical section was not exclusive");
    }

    #[test]
    fn try_lock_reports_held() {
        let p = CpuPlatform::new(2);
        let mut w = CpuWorker::new();
        assert!(p.try_lock(&mut w, 0));
        assert!(!p.try_lock(&mut w, 0), "second try_lock on held lock must fail");
        assert!(p.try_lock(&mut w, 1), "other locks are independent");
        p.unlock(&mut w, 0);
        p.unlock(&mut w, 1);
        assert!(p.try_lock(&mut w, 0), "released lock can be re-acquired");
        p.unlock(&mut w, 0);
    }

    #[test]
    fn force_reset_releases_abandoned_locks() {
        let p = CpuPlatform::new(3).with_watchdog(Duration::from_millis(200));
        // A worker takes two locks and "dies" without releasing them.
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut w = CpuWorker::new();
                p.lock(&mut w, 0);
                p.lock(&mut w, 2);
            });
        });
        let mut w = CpuWorker::new();
        assert!(!p.try_lock(&mut w, 0), "lock 0 is wedged");
        p.force_reset_locks();
        assert!(p.try_lock(&mut w, 0), "forced reset frees wedged locks");
        assert!(p.try_lock(&mut w, 2));
        p.unlock(&mut w, 0);
        p.unlock(&mut w, 2);
        // Normal locking still works after a reset.
        assert!(p.lock_checked(&mut w, 1).is_ok());
        p.unlock(&mut w, 1);
    }

    #[test]
    fn charge_is_free() {
        let p = CpuPlatform::new(1);
        let mut w = CpuWorker::new();
        p.charge(&mut w, PrimitiveCost::Sort { n: 1 << 20 });
    }

    #[test]
    fn watchdog_times_out_with_diagnostics() {
        let p = CpuPlatform::new(3).with_watchdog(Duration::from_millis(30));
        let mut w = CpuWorker::new();
        p.lock(&mut w, 1);
        p.lock(&mut w, 2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut w2 = CpuWorker::new();
                let err = p.lock_checked(&mut w2, 1).expect_err("must time out");
                assert_eq!(err.lock, 1);
                assert!(err.detail.contains("lock 1"), "{}", err.detail);
                assert!(err.detail.contains("not granted"), "{}", err.detail);
                // The dump lists both held locks.
                assert!(err.detail.contains("2(by"), "{}", err.detail);
            });
        });
        p.unlock(&mut w, 2);
        p.unlock(&mut w, 1);
        // After release the checked path succeeds again.
        assert!(p.lock_checked(&mut w, 1).is_ok());
        p.unlock(&mut w, 1);
    }

    #[test]
    fn watchdog_plain_lock_panics_on_timeout() {
        let p = std::sync::Arc::new(CpuPlatform::new(1).with_watchdog(Duration::from_millis(20)));
        let mut w = CpuWorker::new();
        p.lock(&mut w, 0);
        let p2 = p.clone();
        let r = std::thread::spawn(move || {
            let mut w2 = CpuWorker::new();
            p2.lock(&mut w2, 0);
        })
        .join();
        let msg = *r.expect_err("must panic").downcast::<String>().expect("string panic");
        assert!(msg.contains("watchdog"), "{msg}");
        p.unlock(&mut w, 0);
    }

    #[test]
    fn injected_stall_and_delay_resume() {
        use crate::fault::{FaultAction, FaultPlan};
        let plan = Arc::new(
            FaultPlan::new()
                .with_rule(InjectionPoint::PreLockAcquire, 1, FaultAction::Stall { units: 100 })
                .with_rule(InjectionPoint::PreLockAcquire, 2, FaultAction::Delay { units: 10 }),
        );
        let p = CpuPlatform::new(1).with_faults(plan.clone());
        let mut w = CpuWorker::new();
        p.inject(&mut w, InjectionPoint::PreLockAcquire);
        p.inject(&mut w, InjectionPoint::PreLockAcquire);
        p.inject(&mut w, InjectionPoint::PreLockAcquire);
        assert_eq!(plan.fired_count(), 2);
    }

    #[test]
    fn injected_panic_unwinds() {
        use crate::fault::{FaultAction, FaultPlan};
        let plan =
            Arc::new(FaultPlan::new().with_rule(InjectionPoint::MarkedSpin, 1, FaultAction::Panic));
        let p = CpuPlatform::new(1).with_faults(plan);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut w = CpuWorker::new();
            p.inject(&mut w, InjectionPoint::MarkedSpin);
        }));
        assert!(r.is_err());
    }
}

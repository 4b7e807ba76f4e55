//! The [`Platform`] trait.

use crate::fault::InjectionPoint;
use pq_api::ScratchSlot;
use primitives::PrimitiveCost;

/// Why [`Platform::lock_checked`] gave up on an acquisition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockFailure {
    /// Lock index that could not be acquired.
    pub lock: usize,
    /// Human-readable holder/state diagnostic from the platform (e.g.
    /// the CPU watchdog's lock-table dump).
    pub detail: String,
}

/// Execution environment for the batched heap.
///
/// A platform owns a table of `num_locks()` locks addressed by index —
/// BGPQ maps heap node `i` to lock `i` (root and partial buffer share
/// lock 0, exactly as in the paper). Operations take a `&mut Worker`,
/// the per-thread (or per-simulated-block) execution context.
///
/// # Locking discipline
///
/// `unlock(w, l)` must only be called by the worker that currently holds
/// `l` via `lock`/`try_lock`/`lock_checked`. The heap code upholds this
/// by construction (hand-over-hand traversal); platforms may treat a
/// violation as a panic.
///
/// # Failure hooks
///
/// [`Platform::inject`] and [`Platform::lock_checked`] default to no-op
/// and plain blocking respectively, so a platform without fault
/// injection or a watchdog behaves exactly as before. Platforms that
/// carry a [`crate::FaultPlan`] execute injected faults (including
/// panics) inside `inject`; the heap places its calls so that an
/// unwinding worker always knows which locks it holds.
pub trait Platform: Send + Sync {
    /// Per-thread execution context (e.g. the simulator's agent handle).
    type Worker: Send;

    /// Number of locks in the table.
    fn num_locks(&self) -> usize;

    /// The worker's scratch parking spot (see [`ScratchSlot`]). Queue
    /// hot paths take their per-worker arena out of this slot at
    /// operation entry and put it back at exit, so the steady state
    /// performs no heap allocation. Workers own their slot exclusively —
    /// no synchronization is involved.
    fn scratch_slot<'a>(&self, w: &'a mut Self::Worker) -> &'a mut ScratchSlot;

    /// Acquire lock `lock`, blocking (in real or virtual time).
    fn lock(&self, w: &mut Self::Worker, lock: usize);

    /// Try to acquire `lock` without blocking.
    fn try_lock(&self, w: &mut Self::Worker, lock: usize) -> bool;

    /// [`Platform::try_lock`] at no cost of its own: one compare-and-swap
    /// issued in the same atomic round trip as an earlier charged
    /// `try_lock` or `unlock` it does not depend on. A plain
    /// [`Platform::try_lock`] unless the platform charges lock traffic.
    fn try_lock_uncharged(&self, w: &mut Self::Worker, lock: usize) -> bool {
        self.try_lock(w, lock)
    }

    /// Release `lock` (caller must hold it).
    fn unlock(&self, w: &mut Self::Worker, lock: usize);

    /// Release `lock` at no cost of its own: either the release ends a
    /// [`Platform::try_lock`] that models one compare-and-swap on a
    /// device word holding the lock bit and the node's state, whose
    /// single atomic round trip the `try_lock` already paid, or it rides
    /// in the round trip of a charged release just before it. A plain
    /// [`Platform::unlock`] unless the platform charges lock traffic.
    fn unlock_uncharged(&self, w: &mut Self::Worker, lock: usize) {
        self.unlock(w, lock);
    }

    /// Account the cost of executing a data-parallel primitive. A no-op
    /// on real hardware, a virtual-clock advance in the simulator.
    fn charge(&self, w: &mut Self::Worker, c: PrimitiveCost);

    /// One iteration of a spin-wait (used while waiting for a
    /// collaborating insertion to refill the root, §4.3). Must allow the
    /// awaited event to make progress.
    fn backoff(&self, w: &mut Self::Worker);

    /// A deliberately expensive backoff for spins that have escalated
    /// past their cheap phase (the waited-on worker looks stalled):
    /// sleep on real hardware, a large clock jump in the simulator.
    /// Defaults to [`Platform::backoff`].
    fn backoff_long(&self, w: &mut Self::Worker) {
        self.backoff(w);
    }

    /// Fault-injection hook: called by the heap at each named point of
    /// its critical sections. Platforms carrying a fault plan stall,
    /// delay, or panic the worker here; the default is a no-op.
    fn inject(&self, _w: &mut Self::Worker, _point: InjectionPoint) {}

    /// Access-tagging hook for *lock-free* reads/writes of state
    /// co-located with lock `lock` (BGPQ publishes per-node state words
    /// and the root-min hint outside the node locks). Used by schedule
    /// exploration to build the independence relation for partial-order
    /// reduction; a no-op everywhere else. Lock-*protected* accesses
    /// need no tagging — mutual exclusion already orders them and the
    /// platform's lock ops are tagged by the scheduler.
    fn touch(&self, _w: &mut Self::Worker, _lock: usize, _write: bool) {}

    /// Like [`Platform::touch`] for a queue-wide access (the whole lock
    /// arena): salvage walks, fault-plan bookkeeping — anything that
    /// conflicts with every operation on this queue but not with other
    /// queues.
    fn touch_domain(&self, _w: &mut Self::Worker, _write: bool) {}

    /// Like [`Platform::touch`] for cross-queue coordination state
    /// shared by a multi-queue front (router breakers and op counters,
    /// combiner rings): conflicts with every other `touch_shared`, on
    /// any platform, but not with per-queue traffic.
    fn touch_shared(&self, _w: &mut Self::Worker, _write: bool) {}

    /// Acquire `lock` with failure detection, when the platform has
    /// any: a watchdog-equipped platform returns [`LockFailure`] instead
    /// of blocking forever on a dead holder. The default is the plain
    /// blocking [`Platform::lock`] (which can still rely on external
    /// detection, e.g. the simulator's deadlock detector).
    fn lock_checked(&self, w: &mut Self::Worker, lock: usize) -> Result<(), LockFailure> {
        self.lock(w, lock);
        Ok(())
    }

    /// Force every lock in the table back to the released state.
    ///
    /// **Recovery only.** Salvage calls this before its walk, after the
    /// caller established quiescence: no worker may be inside, or about
    /// to enter, a critical section on this platform, or a live
    /// holder's mutual exclusion is silently destroyed. The default does
    /// nothing, charges nothing and tags nothing: on the simulator the
    /// scheduler hands a dead agent's locks off at its fail-stop, and
    /// the RAII lock guard releases the rest on unwind.
    fn force_reset_locks(&self) {}
}

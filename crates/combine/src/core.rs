//! Platform-agnostic combining engine.
//!
//! [`CombineShared`] is the state every submitter sees: the submission
//! rings, the pending counter, the combiner lock and the front's
//! [`OpStats`]. It is generic over a [`CombineBackend`] — the CPU front
//! in [`crate::cpu`] drives it with real threads and condvar parking,
//! the simulator tests drive it with polling sim agents — so the
//! combining protocol itself is written (and tested) once.
//!
//! # Protocol
//!
//! A submitter that finds nothing pending claims the pending counter
//! from 0 to 1 and calls the backend itself, as a round of one: no
//! cell, no ring, no lock. Otherwise it arms its thread-local cell,
//! publishes `(cell, op)` into its lane's ring, then tries the combiner
//! lock **once**:
//!
//! * acquired — it *gathers* up to `2k` requests from the rings,
//!   releases the lock, and *issues* the round itself: each kind as
//!   `≤ k`-wide batched backend calls, completing every drained cell
//!   (its own included);
//! * not acquired — another submitter is gathering; this one waits on
//!   its cell (park or poll, per [`CombineBackend::CAN_PARK`]).
//!
//! The lock scopes the gather only, so several rounds and a direct
//! call can be inside the backend at once. Each is an ordinary batched
//! call that the backend linearizes like any other, so the front is
//! linearizable exactly when its backend is. BGPQ is built for that
//! overlap: its root lock serializes only the root section, and the
//! heapify below it runs hand-over-hand.
//!
//! # No lost requests
//!
//! Every cell a round drains is completed exactly once, with a result
//! or a typed error, so a waiter — polling, or parked on its cell's
//! condvar — only needs its request to be gathered. The protocol
//! guarantees that *without timed waits*, and without a waiter ever
//! re-trying the lock: after issuing its round, a gatherer re-checks every
//! ring **under the ring mutex**. If it finds work it re-tries the
//! lock, gathering again if acquired and otherwise leaving the work to
//! the holder, who sweeps in turn. A request pushed *after* that sweep
//! cannot be stranded either: its push happens-after the sweep (same
//! ring mutex), so its owner's subsequent `try_lock` either acquires
//! the lock (and gathers) or observes a newer holder that will sweep
//! before it stops. Induction over lock holders closes every
//! interleaving.
//!
//! # Failure containment
//!
//! Backend calls run under `catch_unwind`. A panic or a
//! [`QueueError::Poisoned`] trips the front *unavailable*: the
//! requests of the affected round get `Poisoned` (the structural
//! verdict they observed), and later submissions fail fast with
//! [`QueueError::Unavailable`] — a front state, not a verdict —
//! without touching the backend. Every [`PROBE_INTERVAL`]-th
//! submission while unavailable is let through as a **probe**: it runs
//! the full protocol against the backend, and if the backend serves it
//! (it was salvaged and re-admitted underneath, e.g. by `bgpq-shard`'s
//! circuit breaker or a `CpuBgpq::salvage` rebuild), the front clears the
//! trip and resumes normal service. `LockTimeout` is distributed to
//! the affected round only (the front stays live), and a `Full` insert
//! round falls back to per-request submission so the requests that
//! individually fit still succeed.

use crate::cell::{thread_cell, Op, OpCell, OpOutcome};
use bgpq::Mutation;
use parking_lot::Mutex;
use pq_api::{Entry, KeyType, OpStats, QueueError, ValueType};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Bounded pre-park polling in `submit`: how many `relax` steps a
/// waiter takes before falling back to the OS condvar. Covers the
/// common case where a gatherer completes the cell within a few
/// yields, without burning cycles when the round is genuinely slow.
const PARK_SPINS: u32 = 64;

/// While the front is tripped unavailable, one submission in this many
/// is let through as a probe against the backend; the rest fail fast
/// with [`QueueError::Unavailable`]. Small enough that a recovered
/// backend is rediscovered within tens of requests, large enough that
/// a dead one is not hammered.
pub const PROBE_INTERVAL: u64 = 16;

/// What a combiner drives: the batched backend plus the platform's
/// notion of how to wait. Each submitting worker supplies its own
/// backend value (methods take `&mut self` so sim backends can carry
/// the agent's worker context).
pub trait CombineBackend<K: KeyType, V: ValueType> {
    /// Whether submitters may block on OS primitives while waiting for
    /// completion. `false` on the simulator, where agents must poll
    /// through [`CombineBackend::relax`] so virtual time advances.
    const CAN_PARK: bool = true;

    /// The backend's `k` — the widest batch one backend call accepts.
    /// A gathered round may hold up to `2k` requests; the front then
    /// issues each kind as several `≤ k` calls.
    fn batch_capacity(&self) -> usize;

    /// Batched insert; on `Err` no item of `items` was inserted.
    fn try_insert_batch(&mut self, items: &[Entry<K, V>]) -> Result<(), QueueError>;

    /// Batched delete, appending ascending; on `Err`, `out` unchanged.
    fn try_delete_min_batch(
        &mut self,
        out: &mut Vec<Entry<K, V>>,
        count: usize,
    ) -> Result<usize, QueueError>;

    /// One bounded wait step (yield on CPU, virtual-time backoff on
    /// the simulator). Never called with a ring mutex held.
    fn relax(&mut self);

    /// Access-tagging hook for the front's shared combining state
    /// (rings, cells, pending counter, combiner lock): schedule
    /// exploration uses it to build the independence relation for
    /// partial-order reduction. A no-op everywhere else — sim backends
    /// forward to `Platform::touch_shared`.
    fn touch_shared(&mut self, _write: bool) {}

    /// Preferred submission lane for the calling worker (reduces ring
    /// contention; correctness does not depend on the value).
    fn lane(&self) -> usize {
        0
    }
}

/// One armed submission as it travels through a ring into a round.
type Queued<K, V> = (Arc<OpCell<K, V>>, Op<K, V>);

/// One MPSC submission lane: producers push at the tail, a gatherer
/// drains from the head, preserving per-thread arrival order.
struct Ring<K: KeyType, V: ValueType> {
    q: Mutex<VecDeque<Queued<K, V>>>,
}

/// One round and the buffers its issue needs. The submitter that
/// gathers a round owns it until the issue ends; in between rounds it
/// waits in [`CombineShared`]'s spare list (the `OpScratch`
/// convention — grow once, then allocation-free).
#[derive(Default)]
struct Round<K: KeyType, V: ValueType> {
    requests: Vec<Queued<K, V>>,
    insert_cells: Vec<Arc<OpCell<K, V>>>,
    insert_buf: Vec<Entry<K, V>>,
    delete_cells: Vec<Arc<OpCell<K, V>>>,
    delete_out: Vec<Entry<K, V>>,
}

static INSTANCE_TICKET: AtomicU64 = AtomicU64::new(1);

/// Tuning knobs for a combining front.
#[derive(Debug, Clone, Copy)]
pub struct CombinerOptions {
    /// Number of submission rings. More rings mean less push
    /// contention; a gather drains them all either way.
    pub rings: usize,
    /// Verification self-test mutation (see [`bgpq::Mutation`]); the
    /// front honors [`Mutation::CombinerDropsForeignInsert`]. Must stay
    /// [`Mutation::None`] outside schedule-exploration self-tests.
    pub mutation: Mutation,
}

impl Default for CombinerOptions {
    fn default() -> Self {
        Self { rings: 8, mutation: Mutation::None }
    }
}

impl CombinerOptions {
    pub fn validate(&self) {
        assert!(self.rings >= 1, "need at least one submission ring");
        // Same policy as `BgpqOptions::validate`: outside the self-test
        // cfg the front would silently ignore the field — reject.
        #[cfg(not(any(test, feature = "mutations")))]
        assert!(
            self.mutation == Mutation::None,
            "CombinerOptions::mutation requires the `mutations` feature (verification self-tests only)"
        );
    }
}

/// Shared state of one combining front (see module docs).
pub struct CombineShared<K: KeyType, V: ValueType> {
    rings: Box<[Ring<K, V>]>,
    /// Armed or claimed requests not yet completed: the gather's
    /// linger signal and the stats, *not* part of the no-lost-request
    /// proof (ring emptiness under the ring mutexes is the ground
    /// truth). Its 0 → 1 claim admits the direct path.
    pending: AtomicUsize,
    /// Tripped-unavailable flag: set when a backend call crashed or
    /// reported `Poisoned`, cleared when a probe gets served. See the
    /// module docs' failure-containment section.
    poisoned: AtomicBool,
    /// Submissions rejected (or admitted as probes) since the trip;
    /// drives the 1-in-[`PROBE_INTERVAL`] probe cadence.
    unavail_ticket: AtomicU64,
    /// The combiner lock. It scopes the gather only, and holds the ring
    /// the next gather starts draining from: rotating the start keeps
    /// service fair when the `2k` cap clips a round (a fixed start
    /// would serve low-numbered lanes first every round).
    combiner: Mutex<usize>,
    /// Rounds between uses; each issuing submitter takes one.
    spare: Mutex<Vec<Round<K, V>>>,
    /// The direct path's delete output. Only the submitter whose claim
    /// moved `pending` from 0 to 1 locks it, and `pending` stays above
    /// 0 until that submitter is done, so the lock never waits.
    direct_out: Mutex<Vec<Entry<K, V>>>,
    stats: OpStats,
    batch_capacity: usize,
    /// Key into the thread-local cell registry.
    instance: u64,
    /// Verification self-test mutation (see [`CombinerOptions`]).
    /// Compiled out of production builds.
    #[cfg(any(test, feature = "mutations"))]
    mutation: Mutation,
}

impl<K: KeyType, V: ValueType> CombineShared<K, V> {
    pub fn new(batch_capacity: usize, opts: CombinerOptions) -> Self {
        opts.validate();
        assert!(batch_capacity >= 1, "backend batch capacity must be at least 1");
        Self {
            rings: (0..opts.rings).map(|_| Ring { q: Mutex::new(VecDeque::new()) }).collect(),
            pending: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            unavail_ticket: AtomicU64::new(0),
            combiner: Mutex::new(0),
            spare: Mutex::new(Vec::new()),
            direct_out: Mutex::new(Vec::new()),
            stats: OpStats::new(),
            batch_capacity,
            instance: INSTANCE_TICKET.fetch_add(1, Ordering::Relaxed),
            #[cfg(any(test, feature = "mutations"))]
            mutation: opts.mutation,
        }
    }

    /// Front-side counters: `inserts`/`delete_mins` count issued
    /// backend batches, `items_*` count coalesced requests,
    /// `batch_occupancy` histograms the coalesced width of every
    /// issued batch against `k`, `poison_events` counts trips, and
    /// `peak_pending` is the high-water mark of armed requests as
    /// sampled at gather entry.
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }

    /// Most simultaneous armed requests any gather ever observed
    /// (diagnostics: an upper bound on achievable batch occupancy).
    pub fn peak_pending(&self) -> usize {
        self.stats.peak_pending.load(Ordering::Relaxed) as usize
    }

    /// The backend batch capacity this front coalesces toward.
    pub fn batch_capacity(&self) -> usize {
        self.batch_capacity
    }

    /// Whether a backend crash has tripped this front unavailable
    /// (most requests now fail fast with [`QueueError::Unavailable`];
    /// probes still go through and can restore service).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Submit one request and wait for its outcome. This is the whole
    /// public fast path: call directly when nothing is pending, else
    /// publish, opportunistically gather and issue, wait.
    pub fn submit<B: CombineBackend<K, V>>(
        &self,
        backend: &mut B,
        op: Op<K, V>,
    ) -> OpOutcome<K, V> {
        if self.is_poisoned() {
            let t = self.unavail_ticket.fetch_add(1, Ordering::Relaxed);
            if !t.is_multiple_of(PROBE_INTERVAL) {
                // Fast-fail without touching the backend: the caller
                // keeps its key and may retry after backoff.
                return Err(QueueError::Unavailable);
            }
            // This submission is a probe: it runs the full protocol
            // and actually calls the backend. If the backend was
            // healed underneath (salvage + re-admission), the served
            // round clears the trip; if it is still down, the probe
            // reports `Poisoned` honestly.
        }
        // Claiming or publishing a request mutates shared front state
        // (pending counter, cell arm, ring push) — every other front op
        // races it.
        backend.touch_shared(true);
        if self.pending.compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst).is_ok() {
            // Nothing pending: there is no round to join. The claim
            // keeps this call counted, so concurrent gathers linger
            // for its owner's next request.
            let outcome = self.issue_one(backend, op);
            backend.touch_shared(true);
            self.pending.fetch_sub(1, Ordering::SeqCst);
            return outcome;
        }
        let cell = thread_cell::<K, V>(self.instance);
        cell.arm();
        self.pending.fetch_add(1, Ordering::SeqCst);
        let lane = backend.lane() % self.rings.len();
        self.rings[lane].q.lock().push_back((cell.clone(), op));

        // One shot at the combiner lock (see module docs for why one
        // attempt suffices for liveness).
        self.combine(backend);

        if !cell.is_done() {
            if B::CAN_PARK {
                // Spin-then-park: a gatherer usually completes the cell
                // within a few scheduler yields, and skipping the park
                // avoids the full sleep/notify round trip per request.
                // Only genuinely slow rounds pay for parking.
                let mut spins = 0u32;
                while !cell.is_done() && spins < PARK_SPINS {
                    backend.relax();
                    spins += 1;
                }
                if !cell.is_done() {
                    cell.park_until_done();
                }
            } else {
                while !cell.is_done() {
                    // Each poll reads the cell a gatherer will write.
                    backend.touch_shared(false);
                    backend.relax();
                }
            }
        }
        cell.take()
    }

    /// While the combiner lock is free and requests wait in the rings:
    /// gather a round under the lock, issue it outside, then sweep
    /// (no-lost-request protocol in the module docs).
    fn combine<B: CombineBackend<K, V>>(&self, backend: &mut B) {
        loop {
            // The lock attempt itself races every other gather.
            backend.touch_shared(true);
            let Some(mut cursor) = self.combiner.try_lock() else { return };
            let mut round = self.spare.lock().pop().unwrap_or_default();
            self.gather(backend, &mut cursor, &mut round.requests);
            drop(cursor);
            self.issue(backend, &mut round);
            self.spare.lock().push(round);
            // Post-issue sweep: a request pushed after our last drain
            // must not be stranded.
            backend.touch_shared(true);
            if self.rings_are_empty() {
                return;
            }
        }
    }

    fn rings_are_empty(&self) -> bool {
        self.rings.iter().all(|r| r.q.lock().is_empty())
    }

    /// Drain up to `2k` requests into `round`, starting at ring
    /// `cursor`.
    ///
    /// Below the cap, the gather lingers: it keeps re-draining the
    /// rings while the pending counter holds requests outside its round
    /// — being armed, inside another round's backend call, or a direct
    /// call — for at most one `relax` step per such request, re-counted
    /// at every step. Their owners resubmit as soon as they are served,
    /// so rounds grow with the demand that can fill them, and a lone
    /// submitter (nothing elsewhere) never waits. EXPERIMENTS E20
    /// sweeps the steps per request: none keeps sim rounds one wide,
    /// and more than one is slower on perfbench's `single_op_strict`.
    fn gather<B: CombineBackend<K, V>>(
        &self,
        backend: &mut B,
        cursor: &mut usize,
        round: &mut Vec<Queued<K, V>>,
    ) {
        backend.touch_shared(true);
        OpStats::raise(&self.stats.peak_pending, self.pending.load(Ordering::SeqCst) as u64);
        let cap = 2 * self.batch_capacity;
        let mut spins = 0;
        loop {
            for i in 0..self.rings.len() {
                let mut q = self.rings[(*cursor + i) % self.rings.len()].q.lock();
                let take = q.len().min(cap - round.len());
                round.extend(q.drain(..take));
            }
            *cursor = (*cursor + 1) % self.rings.len();
            // `pending` counts every armed or claimed request not yet
            // completed, this round's included; the excess is in
            // flight elsewhere.
            let elsewhere = self.pending.load(Ordering::SeqCst).saturating_sub(round.len());
            if round.len() == cap || spins >= elsewhere {
                return;
            }
            spins += 1;
            backend.relax();
            // Each linger step re-reads the rings and counters.
            backend.touch_shared(true);
        }
    }

    /// Issue one gathered round: inserts first (they can only help the
    /// deletes see smaller keys), then deletes, each kind in `≤ k`
    /// chunks with results in arrival order.
    fn issue<B: CombineBackend<K, V>>(&self, backend: &mut B, round: &mut Round<K, V>) {
        let Round { requests, insert_cells, insert_buf, delete_cells, delete_out } = round;
        // CombinerDropsForeignInsert: acknowledge delegated inserts —
        // those gathered from *another* thread's lane — as served
        // without issuing them. The gatherer's own requests still go
        // through, so the bug is invisible until a schedule makes one
        // thread actually gather for another; then an acked key never
        // reaches the backend and only front-level accounting can tell.
        #[cfg(any(test, feature = "mutations"))]
        let own_cell = (self.mutation == Mutation::CombinerDropsForeignInsert)
            .then(|| thread_cell::<K, V>(self.instance));
        for (cell, op) in requests.drain(..) {
            match op {
                Op::Insert(e) => {
                    #[cfg(any(test, feature = "mutations"))]
                    if let Some(own) = &own_cell {
                        if !Arc::ptr_eq(&cell, own) {
                            self.finish(&cell, Ok(None));
                            continue;
                        }
                    }
                    insert_cells.push(cell);
                    insert_buf.push(e);
                }
                Op::DeleteMin => delete_cells.push(cell),
            }
        }
        // One trip per round: after a chunk crashes the backend, the
        // rest of this round fails typed without touching it again. A
        // *later* round may touch it — that is how probes re-test a
        // tripped backend (module docs, failure containment).
        let mut tripped = false;
        self.issue_inserts(backend, insert_buf, &mut tripped, |i, r| {
            self.finish(&insert_cells[i], r)
        });
        let deletes = delete_cells.len();
        self.issue_deletes(backend, deletes, delete_out, &mut tripped, |j, r| {
            self.finish(&delete_cells[j], r)
        });
        insert_cells.clear();
        insert_buf.clear();
        delete_cells.clear();
    }

    /// The direct path: `op` issued as a round of one, its outcome
    /// returned instead of completed into a cell.
    fn issue_one<B: CombineBackend<K, V>>(&self, backend: &mut B, op: Op<K, V>) -> OpOutcome<K, V> {
        let mut outcome = Ok(None);
        let mut tripped = false;
        match op {
            Op::Insert(e) => self.issue_inserts(backend, &[e], &mut tripped, |_, r| outcome = r),
            Op::DeleteMin => {
                let mut out = self.direct_out.lock();
                self.issue_deletes(backend, 1, &mut out, &mut tripped, |_, r| outcome = r);
            }
        }
        outcome
    }

    /// Issue `items` in `≤ k` chunks, reporting request `i`'s outcome
    /// through `done(i, ..)`.
    fn issue_inserts<B: CombineBackend<K, V>>(
        &self,
        backend: &mut B,
        items: &[Entry<K, V>],
        tripped: &mut bool,
        mut done: impl FnMut(usize, OpOutcome<K, V>),
    ) {
        for (c, chunk) in items.chunks(self.batch_capacity).enumerate() {
            let (base, n) = (c * self.batch_capacity, chunk.len());
            // Every chunk completes requests waiters are polling on.
            backend.touch_shared(true);
            if *tripped {
                // An earlier chunk of this round crashed the backend;
                // fail the rest without touching it again.
                (base..items.len()).for_each(|i| done(i, Err(QueueError::Poisoned)));
                return;
            }
            match self.call_backend(tripped, || backend.try_insert_batch(chunk)) {
                Ok(()) => {
                    self.record(&self.stats.inserts, &self.stats.items_inserted, n, n);
                    (base..base + n).for_each(|i| done(i, Ok(None)));
                }
                Err(QueueError::Full { .. }) if n > 1 => {
                    // The chunk as a whole exceeded free space; retry
                    // each request alone so the ones that individually
                    // fit still succeed.
                    for (j, e) in chunk.iter().enumerate() {
                        let r = if *tripped {
                            Err(QueueError::Poisoned)
                        } else {
                            let one = std::slice::from_ref(e);
                            self.call_backend(tripped, || backend.try_insert_batch(one))
                        };
                        if r.is_ok() {
                            self.record(&self.stats.inserts, &self.stats.items_inserted, 1, 1);
                        }
                        done(base + j, r.map(|()| None));
                    }
                }
                // `Full` (one request) and `LockTimeout` are per-chunk:
                // the front stays live and callers still own their keys.
                Err(err) => (base..base + n).for_each(|i| done(i, Err(err.clone()))),
            }
        }
    }

    /// Issue `total` deletes in `≤ k` chunks into `out`, reporting
    /// request `j`'s outcome through `done(j, ..)`: arrival order j gets
    /// the j-th smallest key overall (sequential `delete_min` batches
    /// return globally ascending runs).
    fn issue_deletes<B: CombineBackend<K, V>>(
        &self,
        backend: &mut B,
        total: usize,
        out: &mut Vec<Entry<K, V>>,
        tripped: &mut bool,
        mut done: impl FnMut(usize, OpOutcome<K, V>),
    ) {
        out.clear();
        let mut base = 0;
        while base < total {
            // Every chunk completes requests waiters are polling on.
            backend.touch_shared(true);
            if *tripped {
                (base..total).for_each(|j| done(j, Err(QueueError::Poisoned)));
                return;
            }
            let n = (total - base).min(self.batch_capacity);
            let from = out.len();
            match self.call_backend(tripped, || backend.try_delete_min_batch(out, n)) {
                Ok(got) => {
                    self.record(&self.stats.delete_mins, &self.stats.items_deleted, n, got);
                    // Requests past what the queue held see an empty
                    // queue.
                    for j in 0..n {
                        done(base + j, Ok((j < got).then(|| out[from + j])));
                    }
                }
                Err(err) => (base..base + n).for_each(|j| done(j, Err(err.clone()))),
            }
            base += n;
        }
    }

    /// Count one served backend call: `width` coalesced requests that
    /// moved `items` keys.
    fn record(&self, calls: &AtomicU64, items: &AtomicU64, width: usize, moved: usize) {
        OpStats::bump(calls);
        OpStats::add(items, moved as u64);
        self.stats.record_batch_occupancy(width, self.batch_capacity);
    }

    /// One backend call. A panic (injected fault, bug) counts as
    /// `Poisoned`: the backend's own poison guard has already marked the
    /// queue. A served call clears a trip; `Poisoned` trips the front
    /// and the rest of the round.
    fn call_backend<R>(
        &self,
        tripped: &mut bool,
        f: impl FnOnce() -> Result<R, QueueError>,
    ) -> Result<R, QueueError> {
        let r = catch_unwind(AssertUnwindSafe(f)).unwrap_or(Err(QueueError::Poisoned));
        match &r {
            Ok(_) => self.mark_available(),
            Err(QueueError::Poisoned) => {
                self.poison_front();
                *tripped = true;
            }
            Err(_) => {}
        }
        r
    }

    /// Complete one request and retire it from the pending count.
    fn finish(&self, cell: &OpCell<K, V>, outcome: OpOutcome<K, V>) {
        cell.complete(outcome);
        self.pending.fetch_sub(1, Ordering::SeqCst);
    }

    /// Trip the front unavailable. The ticket restarts at 1 so the
    /// next [`PROBE_INTERVAL`]` - 1` submissions fast-fail before the
    /// first probe is let through.
    fn poison_front(&self) {
        if !self.poisoned.swap(true, Ordering::AcqRel) {
            self.unavail_ticket.store(1, Ordering::Relaxed);
            OpStats::bump(&self.stats.poison_events);
        }
    }

    /// A backend call was served: if the front was tripped, restore it
    /// (the probe proved the backend healthy again).
    fn mark_available(&self) {
        if self.poisoned.load(Ordering::Relaxed) {
            self.poisoned.store(false, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plain single-threaded backend over a sorted Vec, enough to
    /// exercise the engine without a real queue.
    struct VecBackend {
        data: Vec<Entry<u32, u32>>,
        k: usize,
        fail_next: Option<QueueError>,
        panic_next: bool,
    }

    impl VecBackend {
        fn new(k: usize) -> Self {
            Self { data: Vec::new(), k, fail_next: None, panic_next: false }
        }
    }

    impl CombineBackend<u32, u32> for VecBackend {
        fn batch_capacity(&self) -> usize {
            self.k
        }

        fn try_insert_batch(&mut self, items: &[Entry<u32, u32>]) -> Result<(), QueueError> {
            if self.panic_next {
                panic!("injected backend panic");
            }
            if let Some(e) = self.fail_next.take() {
                return Err(e);
            }
            self.data.extend_from_slice(items);
            self.data.sort_by_key(|e| e.key);
            Ok(())
        }

        fn try_delete_min_batch(
            &mut self,
            out: &mut Vec<Entry<u32, u32>>,
            count: usize,
        ) -> Result<usize, QueueError> {
            if self.panic_next {
                panic!("injected backend panic");
            }
            if let Some(e) = self.fail_next.take() {
                return Err(e);
            }
            let got = count.min(self.data.len());
            out.extend(self.data.drain(..got));
            Ok(got)
        }

        fn relax(&mut self) {}
    }

    #[test]
    fn solo_requests_roundtrip_immediately() {
        let sh: CombineShared<u32, u32> = CombineShared::new(8, CombinerOptions::default());
        let mut b = VecBackend::new(8);
        assert_eq!(sh.submit(&mut b, Op::Insert(Entry::new(5, 50))), Ok(None));
        assert_eq!(sh.submit(&mut b, Op::Insert(Entry::new(2, 20))), Ok(None));
        assert_eq!(sh.submit(&mut b, Op::DeleteMin), Ok(Some(Entry::new(2, 20))));
        assert_eq!(sh.submit(&mut b, Op::DeleteMin), Ok(Some(Entry::new(5, 50))));
        assert_eq!(sh.submit(&mut b, Op::DeleteMin), Ok(None), "empty queue");
        let snap = sh.stats().snapshot();
        assert_eq!(snap.items_inserted, 2);
        assert_eq!(snap.items_deleted, 2);
        assert_eq!(snap.batches_recorded(), 5, "every request issued as its own batch");
    }

    #[test]
    fn errors_propagate_without_poisoning() {
        let sh: CombineShared<u32, u32> = CombineShared::new(8, CombinerOptions::default());
        let mut b = VecBackend::new(8);
        b.fail_next = Some(QueueError::Full { max_nodes: 1 });
        assert_eq!(
            sh.submit(&mut b, Op::Insert(Entry::new(1, 1))),
            Err(QueueError::Full { max_nodes: 1 })
        );
        assert!(!sh.is_poisoned(), "Full is backpressure, not a crash");
        assert_eq!(sh.submit(&mut b, Op::Insert(Entry::new(1, 1))), Ok(None));
    }

    #[test]
    fn backend_panic_trips_the_front_and_a_probe_restores_it() {
        let sh: CombineShared<u32, u32> = CombineShared::new(8, CombinerOptions::default());
        let mut b = VecBackend::new(8);
        b.panic_next = true;
        assert_eq!(sh.submit(&mut b, Op::Insert(Entry::new(1, 1))), Err(QueueError::Poisoned));
        assert!(sh.is_poisoned());
        assert_eq!(sh.stats().snapshot().poison_events, 1);

        // The backend heals (a salvage underneath). Submissions fast-
        // fail Unavailable without touching it, until the probe slot
        // comes around and restores service.
        b.panic_next = false;
        let mut unavailable = 0u64;
        let mut restored_at = None;
        for i in 0..2 * PROBE_INTERVAL as u32 {
            match sh.submit(&mut b, Op::Insert(Entry::new(10 + i, 0))) {
                Err(QueueError::Unavailable) => unavailable += 1,
                Ok(None) => {
                    restored_at = Some(i);
                    break;
                }
                other => panic!("unexpected probe outcome: {other:?}"),
            }
        }
        assert_eq!(unavailable, PROBE_INTERVAL - 1, "exactly the pre-probe window fast-fails");
        assert_eq!(restored_at, Some(PROBE_INTERVAL as u32 - 1), "the probe itself is served");
        assert!(!sh.is_poisoned(), "a served probe clears the trip");

        // Fully back in service, and the fast-failed callers kept
        // their keys: only the probe's insert is in the backend.
        assert_eq!(sh.submit(&mut b, Op::DeleteMin).unwrap().map(|e| e.key), Some(25));
        assert_eq!(sh.submit(&mut b, Op::DeleteMin), Ok(None));
        assert_eq!(sh.stats().snapshot().poison_events, 1, "one trip, one event");
    }

    #[test]
    fn probes_against_a_dead_backend_stay_unavailable() {
        let sh: CombineShared<u32, u32> = CombineShared::new(8, CombinerOptions::default());
        let mut b = VecBackend::new(8);
        b.panic_next = true;
        assert_eq!(sh.submit(&mut b, Op::DeleteMin), Err(QueueError::Poisoned));

        // Still dead: non-probe submissions fast-fail, probe
        // submissions reach the backend, observe the crash, and report
        // the structural verdict — the front stays tripped either way.
        let mut verdicts = (0u64, 0u64);
        for _ in 0..3 * PROBE_INTERVAL {
            match sh.submit(&mut b, Op::DeleteMin) {
                Err(QueueError::Unavailable) => verdicts.0 += 1,
                Err(QueueError::Poisoned) => verdicts.1 += 1,
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
        assert_eq!(verdicts.1, 3, "one probe per interval reaches the backend");
        assert_eq!(verdicts.0, 3 * PROBE_INTERVAL - 3);
        assert!(sh.is_poisoned());
        assert_eq!(
            sh.stats().snapshot().poison_events,
            1,
            "re-trips of a tripped front do not recount"
        );
    }
}

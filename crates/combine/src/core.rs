//! Platform-agnostic combining engine.
//!
//! [`CombineShared`] is the state every submitter sees: the submission
//! rings, the combiner lock, the adaptive batch window and the front's
//! [`OpStats`]. It is generic over a [`CombineBackend`] — the CPU front
//! in [`crate::cpu`] drives it with real threads and condvar parking,
//! the simulator tests drive it with polling sim agents — so the
//! combining protocol itself is written (and tested) once.
//!
//! # Protocol
//!
//! A submitter arms its thread-local cell, publishes `(cell, op)` into
//! its lane's ring, then tries the combiner lock **once**:
//!
//! * acquired — it becomes the combiner: it drains rings in rounds of
//!   up to `window` requests (the window opens to `2k` under load),
//!   issues each kind as `≤ k`-wide batched backend calls, and
//!   completes every drained cell (its own included);
//! * not acquired — some other thread is combining; the submitter
//!   waits on its cell (park or poll, per [`CombineBackend::CAN_PARK`]).
//!
//! # No lost requests
//!
//! The combiner may only stop while requests sit unserved if someone
//! else is guaranteed to serve them. The exit protocol makes that
//! airtight *without timed waits*: after draining to empty, the
//! combiner releases the lock, then re-checks every ring **under the
//! ring mutex**. If it finds work it re-tries the lock — continuing if
//! acquired, and otherwise leaving the work to whoever beat it to the
//! lock. A request pushed *after* that post-release sweep cannot be
//! stranded either: its push happens-after the sweep (same ring mutex),
//! so its owner's subsequent `try_lock` either acquires the now-free
//! lock (and self-serves) or observes a newer combiner that will sweep
//! again before exiting. Induction over combiners closes every
//! interleaving.
//!
//! The same protocol doubles as a fairness valve: after
//! `SESSION_ROUNDS` rounds the combiner runs it with the rings still
//! non-empty, and spinning waiters periodically re-try the lock, so
//! under sustained traffic the combining duty rotates instead of
//! pinning one submitter (and its own workload) behind everyone
//! else's.
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

/// Bounded linger: when a round is still below the window but the
/// pending counter says more submissions are in flight, the combiner
/// takes up to this many `relax` steps to let them land before
/// issuing. This is what grows batches under load without delaying a
/// lone request (whose gather sees `pending == round.len()` and issues
/// immediately).
const GATHER_SPINS: u32 = 128;

/// Bounded pre-park polling in `submit`: how many `relax` steps a
/// waiter takes before falling back to the OS condvar. Covers the
/// common case where an active combiner completes the cell within a
/// few yields, without burning cycles when the round is genuinely
/// slow.
const PARK_SPINS: u32 = 64;

/// Combiner lock tenure: after this many rounds the combiner runs the
/// exit protocol even though the rings are non-empty, offering the
/// role to whoever re-tries the lock in the gap. Under sustained
/// traffic the rings never drain, so without a tenure bound one
/// submitter would serve everyone else forever while its own workload
/// starves — and then runs as an unbatched tail after the others
/// finish. The offer is safe by the same exit-protocol induction: if
/// no waiter takes the lock, the incumbent re-acquires and continues.
const SESSION_ROUNDS: u32 = 8;

/// How often a spinning waiter re-tries the combiner lock (every
/// 2^RETRY_SHIFT relax steps) — the accept side of the tenure handoff.
const RETRY_SHIFT: u32 = 5;

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
    /// The coalescing window may open past this (up to `2k`); the
    /// combiner then issues the round as several `≤ k` calls.
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
    /// the simulator). Never called with any combiner mutex held.
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

/// One MPSC submission lane: producers push at the tail, the combiner
/// drains from the head, preserving per-thread arrival order.
struct Ring<K: KeyType, V: ValueType> {
    q: Mutex<VecDeque<Queued<K, V>>>,
}

/// Combiner-owned scratch: round buffers reused across rounds (the
/// `OpScratch` convention — grow once, then allocation-free).
struct CombineScratch<K: KeyType, V: ValueType> {
    round: Vec<Queued<K, V>>,
    /// Armed submissions the last gather saw beyond what fit in the
    /// round — the demand signal the window adapts on (a round clipped
    /// at the window must still be able to grow it).
    backlog: usize,
    /// Ring the next gather starts draining from. Rotating the start
    /// keeps service fair when the window clips a round: a fixed
    /// starting ring would serve low-numbered lanes every round and
    /// starve the rest into a long completion tail.
    cursor: usize,
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
    /// contention; the combiner drains them all either way.
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
    /// Armed-but-uncompleted requests; a load signal for the gather
    /// linger and the stats, *not* part of the exit-protocol proof
    /// (ring emptiness under the ring mutexes is the ground truth).
    pending: AtomicUsize,
    /// Current coalescing window, `1..=2k`. Opening past `k` matters
    /// for mixed traffic: a `k`-wide round splits into an insert part
    /// and a delete part, each only a fraction of `k` wide. A `2k`
    /// round keeps both kinds near full batches; [`Self::issue`]
    /// chunks anything oversized into `≤ k` backend calls.
    window: AtomicUsize,
    /// Tripped-unavailable flag: set when a backend call crashed or
    /// reported `Poisoned`, cleared when a probe gets served. See the
    /// module docs' failure-containment section.
    poisoned: AtomicBool,
    /// Submissions rejected (or admitted as probes) since the trip;
    /// drives the 1-in-[`PROBE_INTERVAL`] probe cadence.
    unavail_ticket: AtomicU64,
    combiner: Mutex<CombineScratch<K, V>>,
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
            // Starts closed: a lone first request is never delayed.
            window: AtomicUsize::new(1),
            poisoned: AtomicBool::new(false),
            unavail_ticket: AtomicU64::new(0),
            combiner: Mutex::new(CombineScratch {
                round: Vec::new(),
                backlog: 0,
                cursor: 0,
                insert_cells: Vec::new(),
                insert_buf: Vec::new(),
                delete_cells: Vec::new(),
                delete_out: Vec::new(),
            }),
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

    /// Current adaptive window (diagnostics).
    pub fn window(&self) -> usize {
        self.window.load(Ordering::Relaxed)
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

    /// Ceiling for the coalescing window: twice the backend `k`, so a
    /// mixed round can carry close to `k` of *each* kind.
    fn max_window(&self) -> usize {
        2 * self.batch_capacity
    }

    /// Whether a backend crash has tripped this front unavailable
    /// (most requests now fail fast with [`QueueError::Unavailable`];
    /// probes still go through and can restore service).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Submit one request and wait for its outcome. This is the whole
    /// public fast path: publish, opportunistically combine, wait.
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
        let cell = thread_cell::<K, V>(self.instance);
        // Publishing a request mutates shared front state (cell arm,
        // pending counter, ring push) — every other front op races it.
        backend.touch_shared(true);
        cell.arm();
        self.pending.fetch_add(1, Ordering::SeqCst);
        let lane = backend.lane() % self.rings.len();
        self.rings[lane].q.lock().push_back((cell.clone(), op));

        // One shot at becoming the combiner (see module docs for why
        // one attempt suffices for liveness).
        self.combine_session(backend);

        if !cell.is_done() {
            if B::CAN_PARK {
                // Spin-then-park: an active combiner usually completes
                // the cell within a few scheduler yields, and skipping
                // the park avoids the full sleep/notify round trip per
                // request. Only genuinely slow rounds pay for parking.
                let mut spins = 0u32;
                while !cell.is_done() && spins < PARK_SPINS {
                    backend.relax();
                    spins += 1;
                }
                if !cell.is_done() {
                    cell.park_until_done();
                }
            } else {
                // Polling waiters are the accept side of the tenure
                // handoff (see SESSION_ROUNDS): periodically re-try
                // the combiner lock so the duty can rotate. Parking
                // waiters above skip this — there, fresh submitters'
                // `try_lock` takes the handoff instead, and lock
                // retries from a spinning waiter only add contention.
                let mut spins = 0u32;
                while !cell.is_done() {
                    // Each poll reads the cell a combiner will write.
                    backend.touch_shared(false);
                    backend.relax();
                    spins = spins.wrapping_add(1);
                    if spins & ((1 << RETRY_SHIFT) - 1) == 0 {
                        self.combine_session(backend);
                    }
                }
            }
        }
        cell.take()
    }

    /// Try to become the combiner; if acquired, serve rounds until the
    /// rings are verifiably empty (exit protocol in the module docs).
    fn combine_session<B: CombineBackend<K, V>>(&self, backend: &mut B) {
        // The lock attempt itself races every other session attempt.
        backend.touch_shared(true);
        let Some(mut guard) = self.combiner.try_lock() else { return };
        loop {
            let mut rounds = 0u32;
            loop {
                self.gather(backend, &mut guard);
                if guard.round.is_empty() {
                    break;
                }
                self.issue(backend, &mut guard);
                rounds += 1;
                if !B::CAN_PARK && rounds >= SESSION_ROUNDS {
                    // Tenure is up: offer the combiner role to a
                    // polling waiter via the exit protocol below.
                    // Parking backends skip this — their waiters
                    // cannot accept a handoff while parked, so a
                    // tenure break only buys a park/notify storm.
                    break;
                }
            }
            drop(guard);
            // Post-release sweep: a request pushed between our last
            // drain and the unlock must not be stranded.
            backend.touch_shared(true);
            if self.rings_are_empty() {
                return;
            }
            // Open a real handoff window before re-trying: on the
            // simulator no other agent runs between two of our steps
            // unless we advance virtual time, so without this yield
            // the incumbent would always win its own re-acquire.
            backend.relax();
            backend.touch_shared(true);
            match self.combiner.try_lock() {
                Some(g) => guard = g,
                // Someone newer holds the lock; they will sweep too.
                None => return,
            }
        }
    }

    fn rings_are_empty(&self) -> bool {
        self.rings.iter().all(|r| r.q.lock().is_empty())
    }

    /// Drain up to `window` requests into `s.round`, lingering briefly
    /// when more submissions are in flight (see [`GATHER_SPINS`]).
    fn gather<B: CombineBackend<K, V>>(&self, backend: &mut B, s: &mut CombineScratch<K, V>) {
        s.round.clear();
        backend.touch_shared(true);
        OpStats::raise(&self.stats.peak_pending, self.pending.load(Ordering::SeqCst) as u64);
        let window = self.window.load(Ordering::Relaxed).clamp(1, self.max_window());
        let mut spins = 0u32;
        loop {
            for i in 0..self.rings.len() {
                if s.round.len() >= window {
                    break;
                }
                let ring = &self.rings[(s.cursor + i) % self.rings.len()];
                let mut q = ring.q.lock();
                while s.round.len() < window {
                    match q.pop_front() {
                        Some(item) => s.round.push(item),
                        None => break,
                    }
                }
            }
            s.cursor = (s.cursor + 1) % self.rings.len();
            if s.round.len() >= window {
                // The demand signal must be refreshed on every exit
                // path: a round clipped at the window plus a backlog
                // is exactly what tells the window to grow.
                s.backlog = self.pending.load(Ordering::SeqCst).saturating_sub(s.round.len());
                return;
            }
            // `pending` counts armed-but-uncompleted requests, which
            // includes everything already in this round. Any excess is
            // a submission between arm and push — worth a short wait.
            let in_flight = self.pending.load(Ordering::SeqCst).saturating_sub(s.round.len());
            // Linger while (a) a submission is mid-flight between arm
            // and push, or (b) the window is open because recent
            // rounds were wide: the peers whose requests widened them
            // were just completed and need a beat to resubmit. A lone
            // submitter keeps the window at 1 and never waits here.
            if spins >= GATHER_SPINS || (in_flight == 0 && window == 1) {
                s.backlog = in_flight;
                return;
            }
            spins += 1;
            backend.relax();
            // Each linger iteration re-reads the rings and counters.
            backend.touch_shared(true);
        }
    }

    /// Issue one round: inserts first (they can only help the deletes
    /// see smaller keys), then deletes, with per-kind result
    /// distribution in arrival order. A round wider than `k` of either
    /// kind goes out as several `≤ k` backend calls — near-full ones,
    /// which is the whole point of letting the window open past `k`.
    fn issue<B: CombineBackend<K, V>>(&self, backend: &mut B, s: &mut CombineScratch<K, V>) {
        s.insert_cells.clear();
        s.insert_buf.clear();
        s.delete_cells.clear();
        let round_len = s.round.len();
        // CombinerDropsForeignInsert: acknowledge delegated inserts —
        // those gathered from *another* thread's lane — as served
        // without issuing them. The combiner's own requests still go
        // through, so the bug is invisible until a schedule makes one
        // thread actually combine for another; then an acked key never
        // reaches the backend and only front-level accounting can tell.
        #[cfg(any(test, feature = "mutations"))]
        let own_cell = (self.mutation == Mutation::CombinerDropsForeignInsert)
            .then(|| thread_cell::<K, V>(self.instance));
        for (cell, op) in s.round.drain(..) {
            match op {
                Op::Insert(e) => {
                    #[cfg(any(test, feature = "mutations"))]
                    if let Some(own) = &own_cell {
                        if !std::sync::Arc::ptr_eq(&cell, own) {
                            self.finish(&cell, Ok(None));
                            continue;
                        }
                    }
                    s.insert_cells.push(cell);
                    s.insert_buf.push(e);
                }
                Op::DeleteMin => s.delete_cells.push(cell),
            }
        }
        // One trip per round: after a chunk crashes the backend, the
        // rest of this round fails typed without touching it again. A
        // *later* round may touch it — that is how probes re-test a
        // tripped backend (module docs, failure containment).
        let mut tripped = false;
        let mut backpressure = false;
        if !s.insert_buf.is_empty() {
            backpressure = self.issue_inserts(backend, s, &mut tripped);
        }
        if !s.delete_cells.is_empty() {
            self.issue_deletes(backend, s, &mut tripped);
        }
        if backpressure {
            // The backend is out of space; wide rounds only amplify
            // the per-request retries. Collapse and probe back up.
            self.adapt_window(1);
        } else {
            self.adapt_window(round_len + s.backlog);
        }
    }

    /// Issue the round's inserts in `≤ k` chunks. Returns whether any
    /// chunk hit `Full` backpressure.
    fn issue_inserts<B: CombineBackend<K, V>>(
        &self,
        backend: &mut B,
        s: &mut CombineScratch<K, V>,
        tripped: &mut bool,
    ) -> bool {
        let total = s.insert_buf.len();
        let mut saw_full = false;
        let mut done = 0;
        while done < total {
            // Every chunk completes cells waiters are polling on.
            backend.touch_shared(true);
            if *tripped {
                // An earlier chunk of this round crashed the backend;
                // fail the rest without touching it again.
                for cell in &s.insert_cells[done..total] {
                    self.finish(cell, Err(QueueError::Poisoned));
                }
                break;
            }
            let end = (done + self.batch_capacity).min(total);
            let chunk = &s.insert_buf[done..end];
            let n = chunk.len();
            match self.call_backend(tripped, || backend.try_insert_batch(chunk)) {
                Ok(()) => {
                    OpStats::bump(&self.stats.inserts);
                    OpStats::add(&self.stats.items_inserted, n as u64);
                    self.stats.record_batch_occupancy(n, self.batch_capacity);
                    for cell in &s.insert_cells[done..end] {
                        self.finish(cell, Ok(None));
                    }
                }
                Err(QueueError::Full { .. }) if n > 1 => {
                    // The chunk as a whole exceeded free space; retry
                    // each request alone so the ones that individually
                    // fit still succeed.
                    saw_full = true;
                    for (cell, e) in s.insert_cells[done..end].iter().zip(chunk) {
                        if *tripped {
                            self.finish(cell, Err(QueueError::Poisoned));
                            continue;
                        }
                        let one = std::slice::from_ref(e);
                        let r = self.call_backend(tripped, || backend.try_insert_batch(one));
                        if r.is_ok() {
                            OpStats::bump(&self.stats.inserts);
                            OpStats::add(&self.stats.items_inserted, 1);
                            self.stats.record_batch_occupancy(1, self.batch_capacity);
                        }
                        self.finish(cell, r.map(|()| None));
                    }
                }
                Err(err) => {
                    // `Full` (n == 1) and `LockTimeout` are per-chunk:
                    // the front stays live and callers still own their
                    // keys.
                    saw_full |= matches!(err, QueueError::Full { .. });
                    for cell in &s.insert_cells[done..end] {
                        self.finish(cell, Err(err.clone()));
                    }
                }
            }
            done = end;
        }
        s.insert_cells.clear();
        s.insert_buf.clear();
        saw_full
    }

    /// Issue the round's deletes in `≤ k` chunks, handing arrival
    /// order j the j-th smallest key overall (sequential `delete_min`
    /// batches return globally ascending runs).
    fn issue_deletes<B: CombineBackend<K, V>>(
        &self,
        backend: &mut B,
        s: &mut CombineScratch<K, V>,
        tripped: &mut bool,
    ) {
        let total = s.delete_cells.len();
        s.delete_out.clear();
        let mut done = 0;
        while done < total {
            // Every chunk completes cells waiters are polling on.
            backend.touch_shared(true);
            if *tripped {
                for cell in &s.delete_cells[done..total] {
                    self.finish(cell, Err(QueueError::Poisoned));
                }
                break;
            }
            let n = (total - done).min(self.batch_capacity);
            let base = s.delete_out.len();
            let out = &mut s.delete_out;
            match self.call_backend(tripped, || backend.try_delete_min_batch(out, n)) {
                Ok(got) => {
                    OpStats::bump(&self.stats.delete_mins);
                    OpStats::add(&self.stats.items_deleted, got as u64);
                    self.stats.record_batch_occupancy(n, self.batch_capacity);
                    // Waiters past what the queue held see an empty
                    // queue.
                    for j in 0..n {
                        let res = if j < got { Ok(Some(s.delete_out[base + j])) } else { Ok(None) };
                        self.finish(&s.delete_cells[done + j], res);
                    }
                }
                Err(err) => {
                    for cell in &s.delete_cells[done..done + n] {
                        self.finish(cell, Err(err.clone()));
                    }
                }
            }
            done += n;
        }
        s.delete_cells.clear();
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

    /// Demand-following window policy, evaluated once per issued round
    /// with `demand` = the round's size plus the backlog the gather
    /// left behind. Idle traffic converges to window 1 — a lone
    /// request is never delayed — while sustained load opens the
    /// window up to `2k` (mixed rounds then still issue near-full
    /// `k`-wide batches of each kind).
    fn adapt_window(&self, demand: usize) {
        let w = self.window.load(Ordering::Relaxed);
        // Open straight to the observed demand, decay one step at a
        // time: a submitter burst should coalesce on the very next
        // round, while a momentary refill gap (peers woken by the last
        // wide round but not yet resubmitted) must not slam the window
        // shut and re-serialize the traffic.
        let next = if demand > w {
            demand.min(self.max_window())
        } else if demand <= w / 2 {
            (w - 1).max(1)
        } else {
            w
        };
        if next != w {
            self.window.store(next, Ordering::Relaxed);
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

    #[test]
    fn window_adapts_up_and_down() {
        let sh: CombineShared<u32, u32> = CombineShared::new(16, CombinerOptions::default());
        assert_eq!(sh.window(), 1);
        sh.adapt_window(1); // lone request, no backlog → hold collapsed
        assert_eq!(sh.window(), 1);
        sh.adapt_window(5); // burst → open straight to the demand
        assert_eq!(sh.window(), 5);
        sh.adapt_window(100);
        assert_eq!(sh.window(), 32, "capped at 2k");
        sh.adapt_window(32); // saturated → hold
        assert_eq!(sh.window(), 32);
        sh.adapt_window(7); // ≤ half → decay one step
        assert_eq!(sh.window(), 31);
        sh.adapt_window(20); // between half and full → hold
        assert_eq!(sh.window(), 31);
    }
}

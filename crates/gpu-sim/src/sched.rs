//! Virtual-time scheduler.
//!
//! Every simulated thread block is an *agent* backed by an OS thread. The
//! scheduler enforces the discrete-event-simulation invariant:
//!
//! > at any moment exactly one agent executes, and it is always a ready
//! > agent with the minimal virtual time (ties broken deterministically).
//!
//! Agents advance their own clocks by calling [`SimWorker::advance`] with
//! the cycle cost of whatever they just simulated; blocking operations
//! (locks, barriers) park the agent until another agent's event releases
//! it, resuming its clock at the release's virtual time. Because agents
//! only interact through scheduler-mediated operations, a run is fully
//! deterministic: same kernel + same parameters ⇒ same interleaving and
//! same final virtual time, regardless of host thread scheduling. That
//! determinism is what lets a 1-core host reproduce the *parallel*
//! performance shapes of a 28-SM GPU (see DESIGN.md §2).
//!
//! Blocked agents are excluded from the min-time rule: their next event
//! time is unknown but provably ≥ the virtual time of the (ordered)
//! release event that will wake them, so running the min *ready* agent
//! never violates causality.

use parking_lot::{Condvar, Mutex};
use pq_api::ScratchSlot;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// Index of an agent (simulated thread block) within one simulation run.
pub type AgentId = usize;

/// Index of a simulated lock in the scheduler's lock arena.
pub type LockId = usize;

/// Index of a simulated barrier.
pub type BarrierId = usize;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Thread not yet registered via `begin`.
    NotStarted,
    /// In the ready heap, waiting for the grant.
    Ready,
    /// Currently executing (at most one agent).
    Running,
    /// Parked in some lock's waiter queue.
    BlockedOnLock(LockId),
    /// Parked at a barrier.
    BlockedOnBarrier(BarrierId),
    /// Finished (or unwound).
    Done,
}

#[derive(Debug, Default)]
struct LockState {
    holder: Option<AgentId>,
    /// FIFO queue; enqueues happen in virtual-time order because every
    /// acquire attempt executes in global virtual-time order.
    waiters: VecDeque<(AgentId, u64 /* enqueue vtime */)>,
    /// Virtual cycles agents spent parked in this lock's queue.
    wait_cycles: u64,
}

#[derive(Debug, Default)]
struct BarrierState {
    parties: usize,
    arrived: Vec<AgentId>,
    max_vtime: u64,
}

/// What happened at a traced instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Agent was granted the (virtual) processor.
    Granted,
    /// Agent blocked waiting for a lock.
    LockWait(LockId),
    /// Agent acquired a lock (immediately or by handoff).
    LockAcquired(LockId),
    /// Agent released a lock.
    LockReleased(LockId),
    /// Agent arrived at a barrier.
    BarrierArrive(BarrierId),
    /// Agent finished.
    Finished,
}

/// One trace record: `(virtual time, agent, event)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    pub vtime: u64,
    pub agent: AgentId,
    pub kind: TraceKind,
}

/// One tagged shared-memory access interval, the unit of the
/// independence relation used by sleep-set partial-order reduction.
///
/// Addresses live in an abstract u64 space with disjoint regions:
///
/// * `[l, l]` — simulated lock `l` (the scheduler tags every
///   lock/try_lock/unlock automatically). A platform's lock arena is a
///   contiguous range, so an interval covering the whole arena
///   conflicts with every lock op inside it.
/// * `[AGENT_BASE | id, ..]` — agent-private progress: every grant is
///   tagged, so even a macro step that touches nothing shared still
///   conflicts with later steps of the *same* agent (program order is
///   never commuted away).
/// * `[0, u64::MAX]` — whole-run events (barriers, fail-stop lock
///   handoff in `Drop`): conflict with everything.
///
/// Two accesses conflict when their intervals overlap and at least one
/// side is a write; two macro steps commute when no pair of their
/// accesses conflicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    pub lo: u64,
    pub hi: u64,
    pub write: bool,
}

/// Base of the agent-tag region (high bit: no lock arena reaches it).
pub const AGENT_BASE: u64 = 1 << 63;

/// Panic-message marker of an agent aborted because another agent's
/// panic (or the deadlock detector) poisoned the run.
pub(crate) const ABORTED: &str = "aborting agent";

impl Access {
    /// Point access at a single address.
    pub fn point(addr: u64, write: bool) -> Self {
        Self { lo: addr, hi: addr, write }
    }

    /// The whole address space (conflicts with everything).
    pub fn global() -> Self {
        Self { lo: 0, hi: u64::MAX, write: true }
    }

    fn agent(id: AgentId) -> Self {
        Self::point(AGENT_BASE | id as u64, true)
    }

    /// Overlapping intervals with at least one write.
    pub fn conflicts(&self, other: &Access) -> bool {
        (self.write || other.write) && self.lo <= other.hi && other.lo <= self.hi
    }
}

/// Whether any access of `a` conflicts with any access of `b` — the
/// dependence test between two recorded macro-step footprints.
pub fn footprints_conflict(a: &[Access], b: &[Access]) -> bool {
    a.iter().any(|x| b.iter().any(|y| x.conflicts(y)))
}

/// A yield point where the controlled scheduler has a real choice
/// (at least two ready agents).
#[derive(Debug)]
pub struct PickPoint<'a> {
    /// Decision ordinal within the run (0-based): the index this
    /// consultation will occupy in the decision log.
    pub step: u64,
    /// Agents that can run now, ascending by id. Never fewer than two.
    pub ready: &'a [AgentId],
    /// The agent that just yielded, when it is still ready — it *could*
    /// keep running, so choosing anyone else is a preemption. `None`
    /// when the previously running agent blocked or finished: a switch
    /// is forced and costs no preemption budget.
    pub yielder: Option<AgentId>,
    /// The yield came from a spin-wait ([`SimWorker::spin`]): re-running
    /// the yielder is a stutter step (no shared state changed), and
    /// switching away is free.
    pub spin: bool,
}

/// External scheduling strategy for controlled (model-checking) runs.
///
/// When attached via [`Scheduler::set_controller`], the min-virtual-time
/// rule is replaced: at every yield point with more than one ready agent
/// the scheduler asks the controller which agent runs next, and records
/// the consultation as a [`Decision`]. Yield points with exactly one
/// ready agent are granted directly (forced, not recorded), which keeps
/// decision logs small and stable across strategies.
///
/// Implementations must be deterministic functions of the pick point
/// (plus their own immutable configuration) for replay to reproduce a
/// run bit-for-bit.
pub trait ScheduleController: Send + Sync {
    /// Choose the next agent to run; must be a member of `point.ready`.
    fn pick(&self, point: &PickPoint<'_>) -> AgentId;
}

/// One recorded controller consultation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// Index of this decision in the run's log.
    pub step: u64,
    /// See [`PickPoint::yielder`].
    pub yielder: Option<AgentId>,
    /// See [`PickPoint::spin`].
    pub spin: bool,
    /// The ready set offered, ascending by id.
    pub ready: Vec<AgentId>,
    /// The controller's choice.
    pub chosen: AgentId,
    /// Shared-memory accesses of the macro step this decision started:
    /// everything executed from this grant until the next logged
    /// decision (singleton grants in between fold into the same step).
    /// The scheduler tags lock traffic and per-agent progress
    /// automatically; platforms tag lock-free accesses via
    /// [`SimWorker::touch`]. Empty unless a controller is attached.
    pub footprint: Vec<Access>,
}

impl Decision {
    /// True when the yielder could have kept doing real work (non-spin
    /// yield) but a different agent was chosen — the unit of the
    /// context-bounding budget (Musuvathi/Qadeer iterative context
    /// bounding: forced and spin switches are free, preemptions are
    /// bounded).
    pub fn is_preemption(&self) -> bool {
        !self.spin && self.yielder.is_some_and(|y| y != self.chosen)
    }
}

/// Aggregate counters for one simulation run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SimMetrics {
    /// Successful lock acquisitions.
    pub lock_acquisitions: u64,
    /// Acquisitions that had to wait for a holder.
    pub lock_contended: u64,
    /// Total virtual cycles agents spent parked in lock queues.
    pub lock_wait_cycles: u64,
    /// `advance` calls (≈ charge points executed).
    pub advances: u64,
    /// Times the grant moved between different agents (context switches
    /// in virtual time).
    pub switches: u64,
}

struct SchedInner {
    vtime: Vec<u64>,
    status: Vec<Status>,
    /// Grant flags: `granted[i]` set ⇒ agent `i` may transition to
    /// Running as soon as its thread observes it.
    granted: Vec<bool>,
    ready: BinaryHeap<Reverse<(u64, u64, AgentId)>>,
    seq: u64,
    live: usize,
    not_started: usize,
    last_running: Option<AgentId>,
    locks: Vec<LockState>,
    barriers: Vec<BarrierState>,
    metrics: SimMetrics,
    /// Set if an agent unwound; the run will propagate the panic.
    poisoned: bool,
    /// Schedule-fuzzing seed: randomizes tie-breaking among equal
    /// virtual times so repeated runs explore different (deterministic
    /// per seed) interleavings.
    tie_seed: Option<u64>,
    /// Event trace (empty unless enabled): a ring bounded by
    /// `trace_capacity` that evicts its oldest event in O(1).
    trace: VecDeque<TraceEvent>,
    trace_capacity: usize,
    /// Attached schedule-exploration controller, if any. Replaces the
    /// min-virtual-time rule: readiness is tracked in `status` only and
    /// the `ready` heap is bypassed entirely.
    controller: Option<Arc<dyn ScheduleController>>,
    /// Log of controller consultations.
    decisions: Vec<Decision>,
    /// Accesses accumulated since the last logged decision; flushed into
    /// that decision's `footprint` when the next one is logged (or at
    /// `take_decisions`). Accesses before the first decision (the
    /// deterministic prologue) are discarded.
    cur_fp: Vec<Access>,
    /// Set by a spin-flavored yield, consumed by the next controlled
    /// dispatch (tells the controller that staying on the yielder is a
    /// stutter step).
    spin_yield: bool,
}

/// The virtual-time scheduler shared by all agents of one run.
pub struct Scheduler {
    inner: Mutex<SchedInner>,
    /// One condvar per agent, all paired with `inner`.
    cvs: Vec<Condvar>,
    /// Extra virtual cycles charged when a lock is handed to a waiter
    /// (models the atomic release/acquire round trip).
    lock_handoff_cycles: u64,
}

impl Scheduler {
    /// Create a scheduler for `agents` simulated blocks.
    pub fn new(agents: usize) -> Arc<Self> {
        assert!(agents >= 1, "need at least one agent");
        Arc::new(Self {
            inner: Mutex::new(SchedInner {
                vtime: vec![0; agents],
                status: vec![Status::NotStarted; agents],
                granted: vec![false; agents],
                ready: BinaryHeap::new(),
                // Tie keys 0..agents are reserved for the (deterministic,
                // id-ordered) registration pushes; runtime pushes start
                // above them.
                seq: agents as u64,
                live: agents,
                not_started: agents,
                last_running: None,
                locks: Vec::new(),
                barriers: Vec::new(),
                metrics: SimMetrics::default(),
                poisoned: false,
                tie_seed: None,
                trace: VecDeque::new(),
                trace_capacity: 0,
                controller: None,
                decisions: Vec::new(),
                cur_fp: Vec::new(),
                spin_yield: false,
            }),
            cvs: (0..agents).map(|_| Condvar::new()).collect(),
            lock_handoff_cycles: 200,
        })
    }

    /// Allocate `n` simulated locks; returns the id of the first (ids are
    /// contiguous). May be called before or during the run.
    pub fn create_locks(&self, n: usize) -> LockId {
        let mut inner = self.inner.lock();
        let base = inner.locks.len();
        inner.locks.resize_with(base + n, LockState::default);
        base
    }

    /// Allocate a barrier for `parties` agents.
    pub fn create_barrier(&self, parties: usize) -> BarrierId {
        assert!(parties >= 1);
        let mut inner = self.inner.lock();
        let id = inner.barriers.len();
        inner.barriers.push(BarrierState { parties, arrived: Vec::new(), max_vtime: 0 });
        id
    }

    /// Build the worker handle for agent `id`. Each id must be claimed by
    /// exactly one thread, which must call [`SimWorker::begin`] before
    /// any other operation.
    pub fn worker(self: &Arc<Self>, id: AgentId) -> SimWorker {
        assert!(id < self.cvs.len(), "agent id out of range");
        SimWorker {
            id,
            sched: Arc::clone(self),
            started: false,
            finished: false,
            controlled: false,
            scratch: ScratchSlot::new(),
        }
    }

    /// Snapshot metrics (exact once the run has finished).
    pub fn metrics(&self) -> SimMetrics {
        self.inner.lock().metrics
    }

    /// Enable schedule fuzzing: agents with *equal* virtual times are
    /// ordered pseudo-randomly (deterministically per `seed`) instead of
    /// by arrival, and the keep-running fast path is disabled, so
    /// different seeds explore different legal interleavings — a
    /// systematic-concurrency-testing aid for the linearizability suite.
    /// Must be called before any agent begins.
    pub fn set_tie_seed(&self, seed: u64) {
        self.inner.lock().tie_seed = Some(seed);
    }

    /// Attach a [`ScheduleController`] that picks which ready agent runs
    /// at every yield point, replacing the min-virtual-time rule (and any
    /// tie-seed fuzzing). Must be called before any agent begins —
    /// typically from the `launch` setup closure. Virtual times still
    /// advance, but a makespan under a controller measures the *explored
    /// schedule*, not the performance model.
    pub fn set_controller(&self, ctrl: Arc<dyn ScheduleController>) {
        let mut inner = self.inner.lock();
        assert!(
            inner.not_started == inner.status.len(),
            "set_controller must be called before any agent begins"
        );
        inner.controller = Some(ctrl);
    }

    /// Drain the decision log recorded by controlled dispatch (one entry
    /// per controller consultation, i.e. per yield point that offered a
    /// real choice). Empty when no controller is attached.
    pub fn take_decisions(&self) -> Vec<Decision> {
        let mut inner = self.inner.lock();
        let fp = std::mem::take(&mut inner.cur_fp);
        if let Some(prev) = inner.decisions.last_mut() {
            prev.footprint = fp;
        }
        std::mem::take(&mut inner.decisions)
    }

    /// Enable event tracing, keeping at most `capacity` events (older
    /// events are dropped first).
    pub fn enable_trace(&self, capacity: usize) {
        let mut inner = self.inner.lock();
        inner.trace_capacity = capacity;
        inner.trace.reserve(capacity.min(1 << 20));
    }

    /// Drain the recorded trace (in emission order).
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.inner.lock().trace).into()
    }

    fn trace(inner: &mut SchedInner, agent: AgentId, kind: TraceKind) {
        if inner.trace_capacity == 0 {
            return;
        }
        if inner.trace.len() >= inner.trace_capacity {
            inner.trace.pop_front();
        }
        let vtime = inner.vtime[agent];
        inner.trace.push_back(TraceEvent { vtime, agent, kind });
    }

    /// Prepare the scheduler for another wave of agents (a kernel
    /// relaunch): every agent slot is reset to `NotStarted` with its
    /// clock advanced to the previous wave's makespan plus
    /// `relaunch_cycles`. All agents of the previous wave must have
    /// finished.
    pub fn begin_wave(&self, relaunch_cycles: u64) {
        let mut inner = self.inner.lock();
        assert_eq!(inner.live, 0, "begin_wave with agents still live");
        assert!(!inner.poisoned, "begin_wave on a poisoned scheduler");
        let resume = inner.vtime.iter().copied().max().unwrap_or(0) + relaunch_cycles;
        let n = inner.status.len();
        for i in 0..n {
            inner.vtime[i] = resume;
            inner.status[i] = Status::NotStarted;
            inner.granted[i] = false;
        }
        inner.ready.clear();
        inner.live = n;
        inner.not_started = n;
        inner.last_running = None;
        inner.spin_yield = false;
        inner.cur_fp.clear();
        // Lock arena is preserved: all locks must be free between waves.
        for (i, l) in inner.locks.iter().enumerate() {
            assert!(
                l.holder.is_none() && l.waiters.is_empty(),
                "lock {i} still held across a wave boundary"
            );
        }
    }

    /// Maximum virtual finish time across agents — the simulated
    /// wall-clock of the kernel, valid after all agents finished.
    pub fn makespan(&self) -> u64 {
        let inner = self.inner.lock();
        inner.vtime.iter().copied().max().unwrap_or(0)
    }

    /// Per-agent virtual clocks (finish times once the run completed).
    pub fn agent_vtimes(&self) -> Vec<u64> {
        self.inner.lock().vtime.clone()
    }

    /// Virtual cycles agents spent parked in each lock's queue, indexed
    /// by [`LockId`]. Sums to [`SimMetrics::lock_wait_cycles`].
    pub fn lock_wait_cycles_by_lock(&self) -> Vec<u64> {
        self.inner.lock().locks.iter().map(|l| l.wait_cycles).collect()
    }

    // ------------------------------------------------------------------
    // internals — all take the inner guard
    // ------------------------------------------------------------------

    /// Record a shared access into the current macro step's footprint.
    /// No-op without a controller; consecutive identical accesses dedup.
    fn tag(inner: &mut SchedInner, acc: Access) {
        if inner.controller.is_none() {
            return;
        }
        if inner.cur_fp.last() == Some(&acc) {
            return;
        }
        inner.cur_fp.push(acc);
    }

    /// Hand `lock`, released at virtual time `now`, to its oldest waiter,
    /// whose clock jumps to the release time plus the handoff cost; the
    /// wait is charged to the lock and to the run's metrics. Returns
    /// whether a waiter took the lock.
    fn hand_off(&self, inner: &mut SchedInner, lock: LockId, now: u64) -> bool {
        let Some((next, enq_t)) = inner.locks[lock].waiters.pop_front() else {
            inner.locks[lock].holder = None;
            return false;
        };
        inner.locks[lock].holder = Some(next);
        let resume = now.max(enq_t) + self.lock_handoff_cycles;
        let wait = resume.saturating_sub(enq_t);
        inner.locks[lock].wait_cycles += wait;
        inner.metrics.lock_wait_cycles += wait;
        inner.vtime[next] = inner.vtime[next].max(resume);
        Self::push_ready(inner, next);
        true
    }

    fn push_ready(inner: &mut SchedInner, id: AgentId) {
        inner.status[id] = Status::Ready;
        if inner.controller.is_some() {
            // Controlled mode tracks readiness in `status` only; pushing
            // here would just grow a heap that dispatch never pops.
            return;
        }
        inner.seq += 1;
        let seq = inner.seq;
        // Tie key: arrival order normally; a seeded hash under fuzzing.
        let tie = match inner.tie_seed {
            None => seq,
            Some(s) => {
                let mut z = s ^ seq.wrapping_mul(0x9E3779B97F4A7C15) ^ (id as u64) << 32;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            }
        };
        inner.ready.push(Reverse((inner.vtime[id], tie, id)));
    }

    /// Grant the CPU to the minimal ready agent if nothing is running.
    fn dispatch(&self, inner: &mut SchedInner) {
        if inner.poisoned {
            // Wake everyone so blocked threads can unwind.
            for id in 0..inner.status.len() {
                if inner.status[id] != Status::Done {
                    inner.granted[id] = true;
                    self.cvs[id].notify_one();
                }
            }
            return;
        }
        // Start gate: no agent may execute until every agent has
        // registered, otherwise an early thread could run ahead of
        // virtual time while its peers are still spawning.
        if inner.not_started > 0 {
            return;
        }
        if let Some(running) = inner.last_running {
            if inner.status[running] == Status::Running {
                return; // someone is executing
            }
        }
        if inner.controller.is_some() {
            if let Some(id) = self.pick_controlled(inner) {
                if inner.last_running != Some(id) {
                    inner.metrics.switches += 1;
                }
                // Every grant (logged or singleton-forced) marks the
                // granted agent's program-order progress in the current
                // macro step.
                Self::tag(inner, Access::agent(id));
                inner.last_running = Some(id);
                inner.status[id] = Status::Running;
                inner.granted[id] = true;
                Self::trace(inner, id, TraceKind::Granted);
                self.cvs[id].notify_one();
                return;
            }
            // No ready agent → fall through to the deadlock detector.
        } else {
            while let Some(&Reverse((_, _, id))) = inner.ready.peek() {
                // Lazily skip stale heap entries (an agent can be
                // re-pushed).
                if inner.status[id] != Status::Ready {
                    inner.ready.pop();
                    continue;
                }
                inner.ready.pop();
                if inner.last_running != Some(id) {
                    inner.metrics.switches += 1;
                }
                inner.last_running = Some(id);
                inner.status[id] = Status::Running;
                inner.granted[id] = true;
                Self::trace(inner, id, TraceKind::Granted);
                self.cvs[id].notify_one();
                return;
            }
        }
        // Nothing ready. If agents remain but none can ever run, the
        // simulated program deadlocked: poison the run and release every
        // parked thread so they can unwind instead of hanging.
        if inner.live > 0 && inner.not_started == 0 {
            let states: Vec<(AgentId, Status, u64)> = inner
                .status
                .iter()
                .enumerate()
                .filter(|(_, s)| !matches!(s, Status::Done))
                .map(|(i, s)| (i, *s, inner.vtime[i]))
                .collect();
            inner.poisoned = true;
            for id in 0..inner.status.len() {
                if inner.status[id] != Status::Done {
                    inner.granted[id] = true;
                    self.cvs[id].notify_one();
                }
            }
            panic!("gpu-sim: deadlock — all live agents are blocked: {states:?}");
        }
    }

    /// Controlled-mode agent selection: collect the ready set and, when
    /// there is a real choice, consult the attached
    /// [`ScheduleController`] and log the [`Decision`]. Returns `None`
    /// when no agent is ready (the deadlock check follows).
    fn pick_controlled(&self, inner: &mut SchedInner) -> Option<AgentId> {
        let ready: Vec<AgentId> =
            (0..inner.status.len()).filter(|&i| inner.status[i] == Status::Ready).collect();
        let &first = ready.first()?;
        let spin = std::mem::replace(&mut inner.spin_yield, false);
        if ready.len() == 1 {
            return Some(first);
        }
        let yielder = inner.last_running.filter(|&r| inner.status[r] == Status::Ready);
        let spin = spin && yielder.is_some();
        let step = inner.decisions.len() as u64;
        let ctrl = Arc::clone(inner.controller.as_ref().expect("controlled dispatch"));
        let chosen = ctrl.pick(&PickPoint { step, ready: &ready, yielder, spin });
        assert!(
            ready.contains(&chosen),
            "schedule controller chose agent {chosen}, not in ready set {ready:?}"
        );
        // The macro step of the *previous* decision ends here: flush the
        // accesses accumulated since it was logged. The pre-decision-0
        // prologue is schedule-independent and is simply discarded.
        let fp = std::mem::take(&mut inner.cur_fp);
        if let Some(prev) = inner.decisions.last_mut() {
            prev.footprint = fp;
        }
        inner.decisions.push(Decision {
            step,
            yielder,
            spin,
            ready,
            chosen,
            footprint: Vec::new(),
        });
        Some(chosen)
    }

    /// Park the calling agent until its grant flag is raised.
    fn wait_for_grant(&self, inner: &mut parking_lot::MutexGuard<'_, SchedInner>, id: AgentId) {
        loop {
            if inner.granted[id] {
                inner.granted[id] = false;
                if inner.poisoned {
                    panic!("gpu-sim: {ABORTED} {id}: another agent panicked");
                }
                inner.status[id] = Status::Running;
                inner.last_running = Some(id);
                return;
            }
            self.cvs[id].wait(inner);
        }
    }
}

/// Per-agent handle through which a simulated block interacts with
/// virtual time. Not `Clone`: exactly one per agent.
pub struct SimWorker {
    id: AgentId,
    sched: Arc<Scheduler>,
    started: bool,
    finished: bool,
    /// Cached at `begin()`: a controller is attached, so access tagging
    /// ([`SimWorker::touch`]) is live. Keeps the uncontrolled hot path
    /// free of a scheduler-lock round trip per tag call.
    controlled: bool,
    /// Parking spot for queue hot-path scratch arenas (zero-allocation
    /// steady state); owned by the agent, untouched by the scheduler.
    scratch: ScratchSlot,
}

impl SimWorker {
    /// This agent's id.
    pub fn id(&self) -> AgentId {
        self.id
    }

    /// The scheduler this worker belongs to.
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.sched
    }

    /// The worker's scratch parking spot (see [`ScratchSlot`]).
    pub fn scratch_slot(&mut self) -> &mut ScratchSlot {
        &mut self.scratch
    }

    /// Register with the scheduler and wait for the first grant. Must be
    /// the first call made on the worker.
    pub fn begin(&mut self) {
        assert!(!self.started, "begin() called twice");
        self.started = true;
        let sched = Arc::clone(&self.sched);
        let mut inner = sched.inner.lock();
        self.controlled = inner.controller.is_some();
        inner.not_started -= 1;
        // Registration order is OS-scheduling dependent; use the agent
        // id (optionally hashed under fuzzing) as the tie key so the
        // initial schedule is deterministic regardless of which thread
        // registered first.
        inner.status[self.id] = Status::Ready;
        if inner.controller.is_none() {
            let tie = match inner.tie_seed {
                None => self.id as u64,
                Some(s) => {
                    let mut z = s ^ (self.id as u64).wrapping_mul(0x9E3779B97F4A7C15);
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                    z ^ (z >> 31)
                }
            };
            let vt = inner.vtime[self.id];
            inner.ready.push(Reverse((vt, tie, self.id)));
        }
        // Mark nothing-running if we are first; dispatch picks min.
        if inner.last_running.is_none()
            || inner.status[inner.last_running.unwrap()] != Status::Running
        {
            sched.dispatch(&mut inner);
        }
        sched.wait_for_grant(&mut inner, self.id);
    }

    /// Current virtual time of this agent.
    pub fn now(&self) -> u64 {
        self.sched.inner.lock().vtime[self.id]
    }

    /// Advance this agent's clock by `cycles` and yield to any agent with
    /// a smaller virtual time.
    pub fn advance(&mut self, cycles: u64) {
        self.advance_inner(cycles, false);
    }

    /// Advance like [`SimWorker::advance`], but flag the yield as a
    /// spin-wait: the agent learned nothing new and is polling shared
    /// state. Under a [`ScheduleController`] this marks switching away
    /// as free (and re-running the spinner as a stutter step); without a
    /// controller it behaves exactly like `advance`.
    pub fn spin(&mut self, cycles: u64) {
        self.advance_inner(cycles, true);
    }

    fn advance_inner(&mut self, cycles: u64, spin: bool) {
        debug_assert!(self.started && !self.finished);
        let sched = Arc::clone(&self.sched);
        let mut inner = sched.inner.lock();
        inner.vtime[self.id] += cycles;
        inner.metrics.advances += 1;
        // An unwinding agent on an already-poisoned run must not re-enter
        // the grant protocol: `wait_for_grant` panics on poison, and a
        // second panic while unwinding aborts the process. Time still
        // advances; the agent retires in `Drop`.
        if inner.poisoned && std::thread::panicking() {
            return;
        }
        if inner.controller.is_some() {
            // Controlled mode: every advance is a yield point — the
            // keep-running fast path below would hide schedules from the
            // explorer.
            inner.spin_yield = spin;
            Scheduler::push_ready(&mut inner, self.id);
            sched.dispatch(&mut inner);
            sched.wait_for_grant(&mut inner, self.id);
            return;
        }
        // Fast path: still the minimum → keep running, no switch.
        // Disabled under schedule fuzzing so ties reshuffle.
        let my_t = inner.vtime[self.id];
        let fuzzing = inner.tie_seed.is_some();
        loop {
            match inner.ready.peek() {
                Some(&Reverse((t, _, cand))) => {
                    if inner.status[cand] != Status::Ready {
                        inner.ready.pop(); // stale
                        continue;
                    }
                    if !fuzzing && t >= my_t {
                        return; // we remain the minimum
                    }
                    if fuzzing && t > my_t {
                        return;
                    }
                    break; // someone earlier (or tied, fuzzing) → yield
                }
                None => return,
            }
        }
        Scheduler::push_ready(&mut inner, self.id);
        sched.dispatch(&mut inner);
        sched.wait_for_grant(&mut inner, self.id);
    }

    /// Yield without advancing time (lets equal-time agents interleave).
    pub fn yield_now(&mut self) {
        self.advance(0);
    }

    /// Tag a lock-free shared-memory access `[lo, hi]` into the current
    /// macro step's footprint (see [`Access`]). Lock-protected state
    /// needs no tagging — the scheduler tags lock traffic itself and
    /// mutual exclusion orders the protected accesses. No-op unless a
    /// [`ScheduleController`] is attached.
    pub fn touch(&mut self, lo: u64, hi: u64, write: bool) {
        if !self.controlled {
            return;
        }
        let sched = Arc::clone(&self.sched);
        let mut inner = sched.inner.lock();
        Scheduler::tag(&mut inner, Access { lo, hi, write });
    }

    /// Acquire simulated lock `lock`. FIFO; blocks in virtual time while
    /// held. The caller is charged `atomic_cycles` for the lock word
    /// round trip before the attempt.
    pub fn lock(&mut self, lock: LockId, atomic_cycles: u64) {
        self.advance(atomic_cycles);
        let sched = Arc::clone(&self.sched);
        let mut inner = sched.inner.lock();
        inner.metrics.lock_acquisitions += 1;
        Scheduler::tag(&mut inner, Access::point(lock as u64, true));
        let me = self.id;
        let now = inner.vtime[me];
        if inner.locks[lock].holder.is_none() {
            inner.locks[lock].holder = Some(me);
            Scheduler::trace(&mut inner, me, TraceKind::LockAcquired(lock));
        } else {
            inner.metrics.lock_contended += 1;
            inner.locks[lock].waiters.push_back((me, now));
            inner.status[me] = Status::BlockedOnLock(lock);
            Scheduler::trace(&mut inner, me, TraceKind::LockWait(lock));
            sched.dispatch(&mut inner);
            sched.wait_for_grant(&mut inner, me);
            // When granted here the releaser already made us holder.
            debug_assert_eq!(inner.locks[lock].holder, Some(me));
            Scheduler::trace(&mut inner, me, TraceKind::LockAcquired(lock));
        }
    }

    /// Try to acquire `lock`; never blocks. Charged like a lock attempt.
    pub fn try_lock(&mut self, lock: LockId, atomic_cycles: u64) -> bool {
        self.advance(atomic_cycles);
        let sched = Arc::clone(&self.sched);
        let mut inner = sched.inner.lock();
        inner.metrics.lock_acquisitions += 1;
        Scheduler::tag(&mut inner, Access::point(lock as u64, true));
        let me = self.id;
        if inner.locks[lock].holder.is_none() {
            inner.locks[lock].holder = Some(me);
            Scheduler::trace(&mut inner, me, TraceKind::LockAcquired(lock));
            true
        } else {
            inner.metrics.lock_contended += 1;
            false
        }
    }

    /// Release `lock`, handing it to the oldest waiter (whose clock jumps
    /// to the release time plus the handoff cost).
    pub fn unlock(&mut self, lock: LockId, atomic_cycles: u64) {
        if std::thread::panicking() {
            let sched = Arc::clone(&self.sched);
            let mut inner = sched.inner.lock();
            if inner.poisoned {
                // Teardown release on a dead run: every surviving thread
                // is being woken to unwind anyway, so a best-effort clear
                // (no handoff, no grant protocol) is enough — and the
                // normal path's `wait_for_grant` would double-panic.
                if inner.locks[lock].holder == Some(self.id) {
                    inner.locks[lock].holder = None;
                }
                return;
            }
        }
        self.advance(atomic_cycles);
        let sched = Arc::clone(&self.sched);
        let mut inner = sched.inner.lock();
        let me = self.id;
        let now = inner.vtime[me];
        Scheduler::tag(&mut inner, Access::point(lock as u64, true));
        assert_eq!(inner.locks[lock].holder, Some(me), "unlock of a lock not held by agent {me}");
        Scheduler::trace(&mut inner, me, TraceKind::LockReleased(lock));
        if sched.hand_off(&mut inner, lock, now) {
            // The new holder may now be the global minimum; yield if our
            // own time is no longer minimal.
            drop(inner);
            self.yield_now();
        }
    }

    /// Wait at barrier `b`. All parties resume at the max arrival time.
    pub fn barrier_wait(&mut self, b: BarrierId, sync_cycles: u64) {
        let sched = Arc::clone(&self.sched);
        let mut inner = sched.inner.lock();
        let me = self.id;
        let now = inner.vtime[me];
        Scheduler::tag(&mut inner, Access::global());
        Scheduler::trace(&mut inner, me, TraceKind::BarrierArrive(b));
        let max_vtime = inner.barriers[b].max_vtime.max(now);
        inner.barriers[b].max_vtime = max_vtime;
        inner.barriers[b].arrived.push(me);
        if inner.barriers[b].arrived.len() == inner.barriers[b].parties {
            let resume = max_vtime + sync_cycles;
            let arrived = std::mem::take(&mut inner.barriers[b].arrived);
            inner.barriers[b].max_vtime = 0;
            for a in arrived {
                inner.vtime[a] = resume;
                if a != me {
                    Scheduler::push_ready(&mut inner, a);
                }
            }
            // Ourselves: keep running but maybe no longer minimal.
            drop(inner);
            self.yield_now();
        } else {
            inner.status[me] = Status::BlockedOnBarrier(b);
            sched.dispatch(&mut inner);
            sched.wait_for_grant(&mut inner, me);
        }
    }

    /// Mark this agent finished and hand the CPU on.
    pub fn finish(&mut self) {
        if self.finished || !self.started {
            self.finished = true;
            return;
        }
        self.finished = true;
        let sched = Arc::clone(&self.sched);
        let mut inner = sched.inner.lock();
        inner.status[self.id] = Status::Done;
        Scheduler::trace(&mut inner, self.id, TraceKind::Finished);
        inner.live -= 1;
        if inner.last_running == Some(self.id) {
            inner.last_running = None;
        }
        if inner.live > 0 {
            sched.dispatch(&mut inner);
        }
    }
}

impl Drop for SimWorker {
    /// Fail-stop retirement of an agent that unwound without `finish`.
    ///
    /// The agent is purged from every waiter queue and each lock it still
    /// holds is handed to its oldest waiter with normal handoff
    /// accounting, so the *rest of the run keeps executing* — survivors
    /// observe the crash at the data-structure level (queue poisoning, a
    /// watchdog timeout), which is exactly what the crash drills
    /// exercise. Only an already-poisoned run (deadlock detection, or a
    /// previous hard abort) skips the release and merely retires.
    fn drop(&mut self) {
        if !self.started || self.finished {
            return;
        }
        let sched = Arc::clone(&self.sched);
        let mut inner = sched.inner.lock();
        let me = self.id;
        if !inner.poisoned {
            // Fail-stop retirement perturbs every waiter queue and may
            // hand off locks: conservatively conflict with everything.
            Scheduler::tag(&mut inner, Access::global());
            let now = inner.vtime[me];
            for lock in 0..inner.locks.len() {
                inner.locks[lock].waiters.retain(|&(a, _)| a != me);
            }
            for lock in 0..inner.locks.len() {
                if inner.locks[lock].holder != Some(me) {
                    continue;
                }
                Scheduler::trace(&mut inner, me, TraceKind::LockReleased(lock));
                sched.hand_off(&mut inner, lock, now);
            }
        }
        inner.status[me] = Status::Done;
        Scheduler::trace(&mut inner, me, TraceKind::Finished);
        inner.live = inner.live.saturating_sub(1);
        if inner.last_running == Some(me) {
            inner.last_running = None;
        }
        // `dispatch` can detect a deadlock *caused by this death* (e.g.
        // the dead agent never reached a barrier its peers wait at) and
        // panic. We may already be unwinding — a second panic escaping a
        // destructor aborts — so contain it; `dispatch` has already
        // poisoned the run and woken every parked thread in that case.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sched.dispatch(&mut inner);
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `n` agents, each executing `f(worker, agent_id)`.
    fn run_agents<F>(n: usize, f: F) -> Arc<Scheduler>
    where
        F: Fn(&mut SimWorker, AgentId) + Sync,
    {
        let sched = Scheduler::new(n);
        std::thread::scope(|s| {
            for id in 0..n {
                let mut w = sched.worker(id);
                let f = &f;
                s.spawn(move || {
                    w.begin();
                    f(&mut w, id);
                    w.finish();
                });
            }
        });
        sched
    }

    #[test]
    fn single_agent_advances() {
        let sched = run_agents(1, |w, _| {
            w.advance(10);
            w.advance(32);
            assert_eq!(w.now(), 42);
        });
        assert_eq!(sched.makespan(), 42);
    }

    #[test]
    fn agents_run_in_virtual_time_order() {
        use std::sync::Mutex as StdMutex;
        let order: StdMutex<Vec<(AgentId, u64)>> = StdMutex::new(Vec::new());
        run_agents(3, |w, id| {
            // Agent i advances in steps of (i+1)*10; record each step.
            for _ in 0..3 {
                w.advance((id as u64 + 1) * 10);
                order.lock().unwrap().push((id, w.now()));
            }
        });
        let events = order.into_inner().unwrap();
        // Events must be observed in nondecreasing virtual time.
        assert!(events.windows(2).all(|e| e[0].1 <= e[1].1), "events out of order: {events:?}");
    }

    #[test]
    fn lock_is_mutually_exclusive_in_virtual_time() {
        let sched = Scheduler::new(4);
        let l = sched.create_locks(1);
        let spans: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for id in 0..4 {
                let mut w = sched.worker(id);
                let spans = &spans;
                s.spawn(move || {
                    w.begin();
                    w.advance(id as u64); // stagger arrivals
                    w.lock(l, 10);
                    let start = w.now();
                    w.advance(100); // critical section
                    let end = w.now();
                    spans.lock().push((start, end));
                    w.unlock(l, 10);
                    w.finish();
                });
            }
        });
        let mut spans = spans.into_inner();
        spans.sort();
        for pair in spans.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "overlapping critical sections: {spans:?}");
        }
        assert!(sched.metrics().lock_contended >= 1, "expected contention");
    }

    #[test]
    fn lock_wait_is_charged_to_the_waited_lock() {
        let sched = Scheduler::new(3);
        let hot = sched.create_locks(2);
        let cold = hot + 1;
        std::thread::scope(|s| {
            for id in 0..3 {
                let mut w = sched.worker(id);
                s.spawn(move || {
                    w.begin();
                    w.advance(id as u64);
                    w.lock(hot, 10);
                    w.advance(100);
                    w.unlock(hot, 10);
                    if id == 0 {
                        w.lock(cold, 10);
                        w.unlock(cold, 10);
                    }
                    w.finish();
                });
            }
        });
        let waits = sched.lock_wait_cycles_by_lock();
        assert!(waits[hot] > 0, "the shared lock is waited for");
        assert_eq!(waits[cold], 0, "an uncontended lock has no wait");
        assert_eq!(waits.iter().sum::<u64>(), sched.metrics().lock_wait_cycles);
    }

    #[test]
    fn try_lock_fails_while_held() {
        let sched = Scheduler::new(2);
        let l = sched.create_locks(1);
        let got: Mutex<Vec<bool>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            {
                let mut w = sched.worker(0);
                s.spawn(move || {
                    w.begin();
                    w.lock(l, 1);
                    w.advance(1000); // hold for a long virtual time
                    w.unlock(l, 1);
                    w.finish();
                });
            }
            {
                let mut w = sched.worker(1);
                let got = &got;
                s.spawn(move || {
                    w.begin();
                    w.advance(10); // arrive while agent 0 holds the lock
                    got.lock().push(w.try_lock(l, 1));
                    w.advance(2000); // after agent 0 released
                    got.lock().push(w.try_lock(l, 1));
                    w.unlock(l, 1);
                    w.finish();
                });
            }
        });
        assert_eq!(got.into_inner(), vec![false, true]);
    }

    #[test]
    fn barrier_aligns_clocks() {
        let sched = Scheduler::new(3);
        let b = sched.create_barrier(3);
        let after: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for id in 0..3 {
                let mut w = sched.worker(id);
                let after = &after;
                s.spawn(move || {
                    w.begin();
                    w.advance((id as u64 + 1) * 100);
                    w.barrier_wait(b, 50);
                    after.lock().push(w.now());
                    w.finish();
                });
            }
        });
        let after = after.into_inner();
        assert_eq!(after, vec![350, 350, 350], "all resume at max(100,200,300)+50");
    }

    #[test]
    fn barrier_is_reusable() {
        let sched = Scheduler::new(2);
        let b = sched.create_barrier(2);
        std::thread::scope(|s| {
            for id in 0..2 {
                let mut w = sched.worker(id);
                s.spawn(move || {
                    w.begin();
                    for round in 0..3u64 {
                        w.advance((id as u64 + 1) * 10);
                        w.barrier_wait(b, 0);
                        // After each barrier both clocks agree.
                        assert_eq!(w.now() % 10, 0, "round {round}");
                    }
                    w.finish();
                });
            }
        });
    }

    #[test]
    fn deterministic_makespan() {
        let run = || {
            let sched = Scheduler::new(8);
            let l = sched.create_locks(1);
            std::thread::scope(|s| {
                for id in 0..8 {
                    let mut w = sched.worker(id);
                    s.spawn(move || {
                        w.begin();
                        for i in 0..20u64 {
                            w.advance((id as u64 * 7 + i) % 13 + 1);
                            w.lock(l, 5);
                            w.advance(3);
                            w.unlock(l, 5);
                        }
                        w.finish();
                    });
                }
            });
            (sched.makespan(), sched.metrics())
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "simulation must be deterministic");
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        let sched = Scheduler::new(2);
        let l = sched.create_locks(2);
        let panics: Mutex<u32> = Mutex::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|s| {
                for id in 0..2 {
                    let mut w = sched.worker(id);
                    let panics = &panics;
                    s.spawn(move || {
                        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            w.begin();
                            // Classic ABBA deadlock.
                            w.lock(l + id, 1);
                            w.advance(10);
                            w.lock(l + (1 - id), 1);
                            w.unlock(l + (1 - id), 1);
                            w.unlock(l + id, 1);
                        }));
                        if r.is_err() {
                            *panics.lock() += 1;
                        }
                        w.finish();
                        if r.is_err() {
                            std::panic::resume_unwind(Box::new("agent deadlocked"));
                        }
                    });
                }
            });
        }));
        assert!(result.is_err());
        assert!(*panics.lock() >= 1);
        panic!("deadlock was detected as expected");
    }

    #[test]
    fn dead_agents_locks_are_handed_off() {
        // Agent 0 dies (unwinds without finish) while holding the lock
        // agent 1 waits on. Fail-stop: the lock is handed over and the
        // survivor completes; the run is NOT poisoned.
        let sched = Scheduler::new(2);
        let l = sched.create_locks(1);
        let survivor_done = Mutex::new(false);
        std::thread::scope(|s| {
            {
                let mut w = sched.worker(0);
                s.spawn(move || {
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        w.begin();
                        w.lock(l, 1);
                        w.advance(100);
                        panic!("injected agent death");
                    }));
                    assert!(r.is_err());
                    drop(w); // retire via Drop, lock still held
                });
            }
            {
                let mut w = sched.worker(1);
                let survivor_done = &survivor_done;
                s.spawn(move || {
                    w.begin();
                    w.advance(10);
                    w.lock(l, 1); // parked behind the dying agent
                    w.advance(5);
                    w.unlock(l, 1);
                    w.finish();
                    *survivor_done.lock() = true;
                });
            }
        });
        assert!(*survivor_done.lock(), "survivor must complete after handoff");
        // Handoff accounting ran: the survivor resumed at or after the
        // dead agent's release time plus the handoff cost.
        assert!(sched.makespan() >= 100 + 200, "makespan {}", sched.makespan());
    }

    #[test]
    fn dead_agent_is_purged_from_waiter_queues() {
        // Agent 1 dies while *waiting* for a lock; the holder's later
        // release must not hand the lock to a corpse.
        let sched = Scheduler::new(3);
        let l = sched.create_locks(1);
        std::thread::scope(|s| {
            {
                let mut w = sched.worker(0);
                s.spawn(move || {
                    w.begin();
                    w.lock(l, 1);
                    w.advance(10_000); // hold long enough for both to queue up
                    w.unlock(l, 1);
                    w.finish();
                });
            }
            {
                let mut w = sched.worker(1);
                s.spawn(move || {
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        w.begin();
                        w.advance(10);
                        w.try_lock(l, 1); // contended: fails
                        panic!("death before ever holding the lock");
                    }));
                    assert!(r.is_err());
                    drop(w);
                });
            }
            {
                let mut w = sched.worker(2);
                s.spawn(move || {
                    w.begin();
                    w.advance(20);
                    w.lock(l, 1); // must be granted despite the corpse
                    w.unlock(l, 1);
                    w.finish();
                });
            }
        });
        assert!(sched.makespan() >= 10_000);
    }

    /// Continue the yielder on real yields; on spin yields (or forced
    /// switches) run the smallest other ready agent.
    struct ContinueStrategy;
    impl ScheduleController for ContinueStrategy {
        fn pick(&self, p: &PickPoint<'_>) -> AgentId {
            match p.yielder {
                Some(y) if !p.spin => y,
                _ => *p.ready.iter().find(|&&a| Some(a) != p.yielder).unwrap_or(&p.ready[0]),
            }
        }
    }

    fn run_controlled<C, F>(n: usize, ctrl: C, f: F) -> (Arc<Scheduler>, Vec<Decision>)
    where
        C: ScheduleController + 'static,
        F: Fn(&mut SimWorker, AgentId) + Sync,
    {
        let sched = Scheduler::new(n);
        sched.set_controller(Arc::new(ctrl));
        std::thread::scope(|s| {
            for id in 0..n {
                let mut w = sched.worker(id);
                let f = &f;
                s.spawn(move || {
                    w.begin();
                    f(&mut w, id);
                    w.finish();
                });
            }
        });
        let decisions = sched.take_decisions();
        (sched, decisions)
    }

    #[test]
    fn controlled_run_is_deterministic_and_logs_decisions() {
        let run = || {
            run_controlled(3, ContinueStrategy, |w, id| {
                for i in 0..5u64 {
                    w.advance((id as u64 + 1) * 3 + i);
                }
            })
        };
        let (_, a) = run();
        let (_, b) = run();
        assert!(!a.is_empty(), "multi-agent run must offer real choices");
        assert_eq!(a, b, "controlled runs must be deterministic");
        for (i, d) in a.iter().enumerate() {
            assert_eq!(d.step, i as u64);
            assert!(d.ready.contains(&d.chosen));
            assert!(d.ready.len() >= 2, "singleton ready sets must not be logged");
            assert!(d.ready.windows(2).all(|w| w[0] < w[1]), "ready must be sorted");
        }
    }

    #[test]
    fn controller_choice_overrides_virtual_time_order() {
        // Agent 1's clock races far ahead of agent 0's, yet the
        // continue-strategy keeps running it: the min-vtime rule is
        // fully replaced.
        struct PreferOne;
        impl ScheduleController for PreferOne {
            fn pick(&self, p: &PickPoint<'_>) -> AgentId {
                if p.ready.contains(&1) {
                    1
                } else {
                    p.ready[0]
                }
            }
        }
        use std::sync::atomic::{AtomicUsize, Ordering};
        let finish_order = AtomicUsize::new(0);
        let finished_first = Mutex::new(None);
        let sched = Scheduler::new(2);
        sched.set_controller(Arc::new(PreferOne));
        std::thread::scope(|s| {
            for id in 0..2 {
                let mut w = sched.worker(id);
                let finish_order = &finish_order;
                let finished_first = &finished_first;
                s.spawn(move || {
                    w.begin();
                    for _ in 0..4 {
                        w.advance(1_000_000); // huge steps for agent 1 too
                    }
                    if finish_order.fetch_add(1, Ordering::SeqCst) == 0 {
                        finished_first.lock().get_or_insert(id);
                    }
                    w.finish();
                });
            }
        });
        assert_eq!(
            *finished_first.lock(),
            Some(1),
            "controller must be able to run the larger-vtime agent first"
        );
    }

    #[test]
    fn spin_yields_are_flagged_and_preemptions_marked() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let flag = AtomicBool::new(false);
        let sched = Scheduler::new(2);
        sched.set_controller(Arc::new(ContinueStrategy));
        std::thread::scope(|s| {
            {
                let mut w = sched.worker(0);
                let flag = &flag;
                s.spawn(move || {
                    w.begin();
                    while !flag.load(Ordering::SeqCst) {
                        w.spin(1);
                    }
                    w.finish();
                });
            }
            {
                let mut w = sched.worker(1);
                let flag = &flag;
                s.spawn(move || {
                    w.begin();
                    w.advance(5);
                    w.advance(5);
                    flag.store(true, Ordering::SeqCst);
                    w.advance(5);
                    w.finish();
                });
            }
        });
        let decisions = sched.take_decisions();
        let spins: Vec<&Decision> = decisions.iter().filter(|d| d.spin).collect();
        assert!(!spins.is_empty(), "agent 0's polling must surface as spin decisions");
        for d in &spins {
            assert_eq!(d.yielder, Some(0));
            assert_eq!(d.chosen, 1, "ContinueStrategy switches away from spinners");
            assert!(!d.is_preemption(), "spin switches are free");
        }
        // The first decision has no yielder (nobody ran yet): forced.
        assert_eq!(decisions[0].yielder, None);
        assert!(!decisions[0].is_preemption());
    }

    #[test]
    fn footprints_capture_locks_and_agent_progress() {
        let sched = Scheduler::new(2);
        let l = sched.create_locks(2);
        sched.set_controller(Arc::new(ContinueStrategy));
        std::thread::scope(|s| {
            for id in 0..2 {
                let mut w = sched.worker(id);
                s.spawn(move || {
                    w.begin();
                    w.advance(1);
                    w.lock(l + id, 1);
                    w.touch(1000 + id as u64, 1000 + id as u64, id == 0);
                    w.advance(3);
                    w.unlock(l + id, 1);
                    w.advance(1);
                    w.finish();
                });
            }
        });
        let decisions = sched.take_decisions();
        assert!(!decisions.is_empty());
        // Every decision's step ran at least its chosen agent: the agent
        // tag must be present (program order is never commuted away).
        for d in &decisions {
            assert!(
                d.footprint.contains(&Access::agent(d.chosen)),
                "decision {} missing agent tag: {:?}",
                d.step,
                d.footprint
            );
        }
        let all: Vec<Access> = decisions.iter().flat_map(|d| d.footprint.clone()).collect();
        // Both lock words and both explicit touches surface somewhere.
        for lock in [l as u64, l as u64 + 1] {
            assert!(all.contains(&Access::point(lock, true)), "lock {lock} untagged");
        }
        assert!(all.contains(&Access { lo: 1000, hi: 1000, write: true }));
        assert!(all.contains(&Access { lo: 1001, hi: 1001, write: false }));
        // Independence relation sanity: the two agents' touches are to
        // distinct addresses and commute; same-address write/read do not.
        let a = Access::point(1000, true);
        let b = Access::point(1001, false);
        assert!(!a.conflicts(&b));
        assert!(a.conflicts(&Access::point(1000, false)));
        assert!(!b.conflicts(&Access::point(1001, false)), "read/read commutes");
        assert!(footprints_conflict(&[a, b], &[Access::global()]));
        assert!(!footprints_conflict(&[a], &[b]));
    }

    #[test]
    fn footprints_are_empty_without_controller() {
        let sched = run_agents(2, |w, _| {
            w.touch(7, 7, true);
            w.advance(5);
        });
        assert!(sched.take_decisions().is_empty());
    }

    #[test]
    fn makespan_reflects_parallelism() {
        // 4 agents x 100 independent cycles: parallel makespan is 100,
        // not 400 — the whole point of virtual time on a 1-core host.
        let sched = run_agents(4, |w, _| {
            w.advance(100);
        });
        assert_eq!(sched.makespan(), 100);
    }
}

//! Execute one workload under one schedule controller and check every
//! correctness oracle the repo has: linearizability ([`check_history`]),
//! key conservation, the §4.3 TARGET/MARKED protocol state machine
//! ([`check_collaboration`]), structural heap invariants at quiescence
//! — and, for the multi-queue fronts ([`crate::spec::FrontSpec`]),
//! strict front-level accounting: every key the front *acknowledged*
//! accepting must at quiescence be either delivered by an acknowledged
//! delete or still resident, exactly once.

use crate::spec::{FrontSpec, WorkOp, WorkloadSpec};
use bgpq::{check_collaboration, check_history, Bgpq, BgpqOptions};
use bgpq::{HistoryEvent, HistoryOp, ProtocolEvent};
use bgpq_combine::{CombineBackend, CombineShared, CombinerOptions, Op};
use bgpq_runtime::{FaultAction, FaultPlan, Platform, SimPlatform};
use bgpq_shard::{RecoveryOptions, ShardedBgpq, ShardedOptions};
use gpu_sim::sched::SimWorker;
use gpu_sim::{launch, Decision, GpuConfig, ScheduleController, Scheduler};
use pq_api::{Entry, QueueError};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, Once};

/// Why one explored schedule failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The linearization history has no valid sequential witness.
    History(String),
    /// A delete returned a key that was never inserted (or more copies
    /// than were inserted).
    Conservation(String),
    /// The TARGET/MARKED handshake left its state machine.
    Collaboration(String),
    /// Quiescent structural check failed (size mismatch or heap
    /// invariant).
    Invariant(String),
    /// Front-level accounting broke: a multi-queue front acknowledged
    /// an operation whose effect is neither delivered nor resident at
    /// quiescence (or delivered keys it never acknowledged accepting).
    FrontAccounting(String),
    /// The scheduler's deadlock detector fired.
    Deadlock(String),
    /// An agent panicked with no fault plan to excuse it.
    UnexpectedPanic(String),
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::History(s) => write!(f, "linearizability: {s}"),
            Violation::Conservation(s) => write!(f, "conservation: {s}"),
            Violation::Collaboration(s) => write!(f, "collaboration protocol: {s}"),
            Violation::Invariant(s) => write!(f, "quiescent invariant: {s}"),
            Violation::FrontAccounting(s) => write!(f, "front accounting: {s}"),
            Violation::Deadlock(s) => write!(f, "deadlock: {s}"),
            Violation::UnexpectedPanic(s) => write!(f, "unexpected panic: {s}"),
        }
    }
}

/// Everything observed from one controlled run.
#[derive(Debug)]
pub struct RunOutcome {
    /// The scheduler's full decision log (replay witness).
    pub decisions: Vec<Decision>,
    /// Linearized operations, sorted by sequence number.
    pub events: Vec<HistoryEvent<u32>>,
    /// TARGET/MARKED transitions in recording order.
    pub protocol: Vec<ProtocolEvent>,
    /// Queue was poisoned by a (planned) crash.
    pub poisoned: bool,
    /// Panic message that escaped the launch, if any.
    pub panic: Option<String>,
    /// First oracle failure, or `None` for a clean schedule.
    pub violation: Option<Violation>,
}

/// Silence panic backtraces for the *expected* panics a fault-injecting
/// exploration produces in bulk (injected crashes, peer aborts, planned
/// deadlocks); everything else still reaches the default hook.
/// Idempotent; callable from parallel tests.
pub fn install_quiet_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = payload_str(info.payload());
            let expected = ["injected fault", "aborting agent", "gpu-sim: deadlock"]
                .iter()
                .any(|pat| msg.contains(pat));
            if !expected {
                default(info);
            }
        }));
    });
}

fn payload_str(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Run `spec` under `ctrl` on the simulator and check every oracle.
///
/// The launch geometry is one agent per script. Operation errors
/// (`Full`, `Poisoned`, watchdog timeouts) fail-stop the affected
/// block's script — the oracles then judge the truncated history, which
/// is exactly what they would see after a real crash.
pub fn run_schedule(spec: &WorkloadSpec, ctrl: Arc<dyn ScheduleController>) -> RunOutcome {
    match spec.front {
        FrontSpec::Single => run_single(spec, ctrl),
        FrontSpec::Sharded { shards } => run_sharded(spec, ctrl, shards),
        FrontSpec::Combined => run_combined(spec, ctrl),
    }
}

fn run_single(spec: &WorkloadSpec, ctrl: Arc<dyn ScheduleController>) -> RunOutcome {
    type Q = Arc<Bgpq<u32, u32, SimPlatform>>;
    let cfg = GpuConfig::new(spec.blocks(), 32);
    let opts = BgpqOptions {
        node_capacity: spec.k,
        max_nodes: spec.max_nodes,
        use_collaboration: spec.use_collaboration,
        mutation: spec.mutation,
        ..Default::default()
    };
    let stash: Mutex<Option<(Q, Arc<Scheduler>)>> = Mutex::new(None);
    let result = catch_unwind(AssertUnwindSafe(|| {
        launch(
            cfg,
            |sched| {
                sched.set_controller(Arc::clone(&ctrl));
                let mut plat = SimPlatform::new(sched, opts.max_nodes + 1, cfg.cost, cfg.block_dim);
                if !spec.faults.is_empty() {
                    plat = plat.with_faults(Arc::new(FaultPlan::from_rules(&spec.faults)));
                }
                let q: Q = Arc::new(Bgpq::with_platform(plat, opts).with_history());
                *stash.lock().unwrap() = Some((Arc::clone(&q), Arc::clone(sched)));
                q
            },
            |ctx, q: &Q| {
                let mut out: Vec<Entry<u32, u32>> = Vec::new();
                for op in &spec.scripts[ctx.block_id()] {
                    let r = match op {
                        WorkOp::Insert(keys) => {
                            let items: Vec<Entry<u32, u32>> =
                                keys.iter().map(|&x| Entry::new(x, x)).collect();
                            q.try_insert(ctx.worker(), &items).map(|()| 0)
                        }
                        WorkOp::DeleteMin(n) => {
                            out.clear();
                            q.try_delete_min(ctx.worker(), &mut out, *n)
                        }
                    };
                    if r.is_err() {
                        return;
                    }
                }
            },
        );
    }));
    let (q, sched) = stash.lock().unwrap().take().expect("setup closure always runs");
    let decisions = sched.take_decisions();
    let events = q.take_history();
    let protocol = q.take_protocol();
    let poisoned = q.is_poisoned();
    let panic = result.err().map(|p| payload_str(p.as_ref()).to_string());
    let complete = panic.is_none() && !poisoned;
    let violation = classify(spec, &q, &events, &protocol, panic.as_deref(), complete);
    RunOutcome { decisions, events, protocol, poisoned, panic, violation }
}

/// Replay a sparse-override schedule (the `.sched` form).
pub fn replay(spec: &WorkloadSpec, overrides: &[(u64, gpu_sim::AgentId)]) -> RunOutcome {
    run_schedule(spec, Arc::new(crate::strategy::OverrideStrategy::new(overrides)))
}

/// Acknowledged front-level operations in completion order. A front op
/// is recorded only after the front returned `Ok` — the accounting
/// oracle judges exactly what the front *promised*, so an op lost to a
/// planned crash (no ack) never unbalances it. Sequence numbers are
/// completion ordinals: good enough for multiset accounting, not a
/// linearization witness (the fronts are relaxed by design).
struct FrontLog(Mutex<Vec<HistoryEvent<u32>>>);

impl FrontLog {
    fn new() -> Self {
        Self(Mutex::new(Vec::new()))
    }

    fn record(&self, op: HistoryOp<u32>) {
        let mut v = self.0.lock().unwrap();
        let seq = v.len() as u64 + 1;
        v.push(HistoryEvent { seq, invoked: seq, responded: seq, op });
    }

    fn take(&self) -> Vec<HistoryEvent<u32>> {
        std::mem::take(&mut self.0.lock().unwrap())
    }
}

/// Conservation for a front log: every delivered key must be covered by
/// an acknowledged insert, as *multisets over the whole run* — not
/// prefix-wise like [`check_conservation`]. Completion order is not
/// linearization order: a delete may legitimately complete before the
/// inserting agent's acknowledgment returns (the insert linearized
/// inside the heap first), so a delivered key can precede its insert's
/// ack in the log without any bug.
fn check_front_conservation(events: &[HistoryEvent<u32>]) -> Option<String> {
    let mut balance: HashMap<u32, i64> = HashMap::new();
    for e in events {
        if let HistoryOp::Insert { keys } = &e.op {
            for &k in keys {
                *balance.entry(k).or_default() += 1;
            }
        }
    }
    for e in events {
        if let HistoryOp::DeleteMin { keys, .. } = &e.op {
            for &k in keys {
                let b = balance.entry(k).or_default();
                *b -= 1;
                if *b < 0 {
                    return Some(format!(
                        "key {k} delivered more times than acknowledged inserted"
                    ));
                }
            }
        }
    }
    None
}

/// Acknowledged balance of a front log: inserted minus delivered keys.
fn front_balance(events: &[HistoryEvent<u32>]) -> i64 {
    events
        .iter()
        .map(|e| match &e.op {
            HistoryOp::Insert { keys } => keys.len() as i64,
            HistoryOp::DeleteMin { keys, .. } => -(keys.len() as i64),
        })
        .sum()
}

/// Run the scripts against a `bgpq-shard` router (circuit breaker +
/// salvage re-admission armed). Inserts use the agent id as routing
/// affinity; the delete sample is the full shard set, so routing is
/// deterministic given the schedule. The fault plan is attached only to
/// `spec.fault_shard`'s platform when set.
fn run_sharded(
    spec: &WorkloadSpec,
    ctrl: Arc<dyn ScheduleController>,
    shards: usize,
) -> RunOutcome {
    type Q = Arc<ShardedBgpq<u32, u32, SimPlatform>>;
    let cfg = GpuConfig::new(spec.blocks(), 32);
    let qopts = BgpqOptions {
        node_capacity: spec.k,
        max_nodes: spec.max_nodes,
        use_collaboration: spec.use_collaboration,
        mutation: spec.mutation,
        ..Default::default()
    };
    let sopts = ShardedOptions::new(shards, shards, qopts).with_recovery(RecoveryOptions {
        base_backoff_ops: 2,
        max_backoff_ops: 8,
        trial_ops: 1,
        max_generations: 2,
    });
    let log = FrontLog::new();
    let stash: Mutex<Option<(Q, Arc<Scheduler>)>> = Mutex::new(None);
    let result = catch_unwind(AssertUnwindSafe(|| {
        launch(
            cfg,
            |sched| {
                sched.set_controller(Arc::clone(&ctrl));
                let plan = (!spec.faults.is_empty())
                    .then(|| Arc::new(FaultPlan::from_rules(&spec.faults)));
                let platforms: Vec<SimPlatform> = (0..shards)
                    .map(|i| {
                        let p =
                            SimPlatform::new(sched, qopts.max_nodes + 1, cfg.cost, cfg.block_dim);
                        match (&plan, spec.fault_shard) {
                            (Some(plan), None) => p.with_faults(Arc::clone(plan)),
                            (Some(plan), Some(fs)) if fs == i => p.with_faults(Arc::clone(plan)),
                            _ => p,
                        }
                    })
                    .collect();
                // The CPU salvager also force-resets lock words; a dead
                // sim agent's locks were already handed off at its
                // fail-stop, so the bare storage walk is the whole job.
                let salvager = Bgpq::salvage_reset;
                let q: Q =
                    Arc::new(ShardedBgpq::with_platforms_recovering(platforms, sopts, salvager));
                *stash.lock().unwrap() = Some((Arc::clone(&q), Arc::clone(sched)));
                q
            },
            |ctx, q: &Q| {
                let agent = ctx.block_id();
                // Deterministic per-agent sampling state (the full
                // sample makes routing hint-driven anyway).
                let mut rng = (agent as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                let mut out: Vec<Entry<u32, u32>> = Vec::new();
                for op in &spec.scripts[agent] {
                    match op {
                        WorkOp::Insert(keys) => {
                            let items: Vec<Entry<u32, u32>> =
                                keys.iter().map(|&x| Entry::new(x, x)).collect();
                            match q.try_insert(ctx.worker(), agent, &items) {
                                Ok(()) => log.record(HistoryOp::Insert { keys: keys.clone() }),
                                Err(_) => return,
                            }
                        }
                        WorkOp::DeleteMin(n) => {
                            out.clear();
                            match q.try_delete_min(ctx.worker(), &mut rng, &mut out, *n) {
                                Ok(_) => log.record(HistoryOp::DeleteMin {
                                    requested: *n,
                                    keys: out.iter().map(|e| e.key).collect(),
                                }),
                                Err(_) => return,
                            }
                        }
                    }
                }
            },
        );
    }));
    let (q, sched) = stash.lock().unwrap().take().expect("setup closure always runs");
    let decisions = sched.take_decisions();
    let events = log.take();
    let poisoned = (0..shards).any(|i| q.shard(i).is_poisoned());
    let panic = result.err().map(|p| payload_str(p.as_ref()).to_string());
    let violation = classify_sharded(spec, &q, &events, panic.as_deref(), poisoned);
    RunOutcome { decisions, events, protocol: Vec::new(), poisoned, panic, violation }
}

fn classify_sharded(
    spec: &WorkloadSpec,
    q: &ShardedBgpq<u32, u32, SimPlatform>,
    events: &[HistoryEvent<u32>],
    panic: Option<&str>,
    poisoned: bool,
) -> Option<Violation> {
    if let Some(msg) = panic {
        if msg.contains("deadlock") {
            return Some(Violation::Deadlock(msg.to_string()));
        }
        let planned_crash = spec.faults.iter().any(|r| matches!(r.action, FaultAction::Panic));
        let crash_shaped = msg.contains("injected fault") || msg.contains("aborting agent");
        if !(planned_crash && crash_shaped) {
            return Some(Violation::UnexpectedPanic(msg.to_string()));
        }
    }
    if let Some(msg) = check_front_conservation(events) {
        return Some(Violation::FrontAccounting(msg));
    }
    // Strict accounting holds even across the *planned* crash: a
    // sharded spec that injects a crash must construct it so the dying
    // agent holds no keys (e.g. panic on first lock acquisition — see
    // `WorkloadSpec::sharded_mix`), making every acknowledged key's
    // whereabouts exact in every schedule.
    let balance = front_balance(events);
    if q.len() as i64 != balance {
        return Some(Violation::FrontAccounting(format!(
            "quiescent len {} != acknowledged balance {balance} \
             (acked-inserted minus acked-delivered)",
            q.len()
        )));
    }
    if panic.is_none() && !poisoned {
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| {
            q.check_invariants();
        })) {
            return Some(Violation::Invariant(payload_str(p.as_ref()).to_string()));
        }
    }
    None
}

/// Combining backend for an explored agent: batched calls to the shared
/// backing heap, virtual-time backoff for waiting, the agent id as the
/// submission lane, and front-state access tags forwarded to the sim
/// platform so the independence relation sees combiner traffic.
struct ExploreBackend<'a> {
    q: &'a Bgpq<u32, u32, SimPlatform>,
    w: &'a mut SimWorker,
    lane: usize,
}

impl CombineBackend<u32, u32> for ExploreBackend<'_> {
    const CAN_PARK: bool = false;

    fn batch_capacity(&self) -> usize {
        self.q.node_capacity()
    }

    fn try_insert_batch(&mut self, items: &[Entry<u32, u32>]) -> Result<(), QueueError> {
        self.q.try_insert(self.w, items)
    }

    fn try_delete_min_batch(
        &mut self,
        out: &mut Vec<Entry<u32, u32>>,
        count: usize,
    ) -> Result<usize, QueueError> {
        self.q.try_delete_min(self.w, out, count)
    }

    fn relax(&mut self) {
        self.q.platform().backoff(self.w);
    }

    fn touch_shared(&mut self, write: bool) {
        self.q.platform().touch_shared(self.w, write);
    }

    fn lane(&self) -> usize {
        self.lane
    }
}

/// Run the scripts through a `bgpq-combine` front over one backing
/// heap. Script ops are split into single-op submissions (the front's
/// unit of work); the backing heap keeps its own linearization history,
/// so this branch checks both heap-level linearizability *and*
/// front-level accounting.
fn run_combined(spec: &WorkloadSpec, ctrl: Arc<dyn ScheduleController>) -> RunOutcome {
    type St = (Arc<Bgpq<u32, u32, SimPlatform>>, CombineShared<u32, u32>);
    type Q = Arc<St>;
    let cfg = GpuConfig::new(spec.blocks(), 32);
    let opts = BgpqOptions {
        node_capacity: spec.k,
        max_nodes: spec.max_nodes,
        use_collaboration: spec.use_collaboration,
        mutation: spec.mutation,
        ..Default::default()
    };
    let log = FrontLog::new();
    let stash: Mutex<Option<(Q, Arc<Scheduler>)>> = Mutex::new(None);
    let result = catch_unwind(AssertUnwindSafe(|| {
        launch(
            cfg,
            |sched| {
                sched.set_controller(Arc::clone(&ctrl));
                let mut plat = SimPlatform::new(sched, opts.max_nodes + 1, cfg.cost, cfg.block_dim);
                if !spec.faults.is_empty() {
                    plat = plat.with_faults(Arc::new(FaultPlan::from_rules(&spec.faults)));
                }
                let q = Arc::new(Bgpq::with_platform(plat, opts).with_history());
                let front = CombineShared::new(
                    q.node_capacity(),
                    CombinerOptions { rings: spec.blocks(), mutation: spec.mutation },
                );
                let st: Q = Arc::new((q, front));
                *stash.lock().unwrap() = Some((Arc::clone(&st), Arc::clone(sched)));
                st
            },
            |ctx, st: &Q| {
                let agent = ctx.block_id();
                let mut backend = ExploreBackend { q: &st.0, w: ctx.worker(), lane: agent };
                for op in &spec.scripts[agent] {
                    match op {
                        WorkOp::Insert(keys) => {
                            for &k in keys {
                                match st.1.submit(&mut backend, Op::Insert(Entry::new(k, k))) {
                                    Ok(_) => log.record(HistoryOp::Insert { keys: vec![k] }),
                                    Err(_) => return,
                                }
                            }
                        }
                        WorkOp::DeleteMin(n) => {
                            for _ in 0..*n {
                                match st.1.submit(&mut backend, Op::DeleteMin) {
                                    Ok(got) => log.record(HistoryOp::DeleteMin {
                                        requested: 1,
                                        keys: got.iter().map(|e| e.key).collect(),
                                    }),
                                    Err(_) => return,
                                }
                            }
                        }
                    }
                }
            },
        );
    }));
    let (st, sched) = stash.lock().unwrap().take().expect("setup closure always runs");
    let decisions = sched.take_decisions();
    let events = st.0.take_history();
    let protocol = st.0.take_protocol();
    let front_events = log.take();
    let poisoned = st.0.is_poisoned() || st.1.is_poisoned();
    let panic = result.err().map(|p| payload_str(p.as_ref()).to_string());
    let complete = panic.is_none() && !poisoned;
    let violation = classify_combined(
        spec,
        &st.0,
        &events,
        &front_events,
        &protocol,
        panic.as_deref(),
        complete,
    );
    RunOutcome { decisions, events, protocol, poisoned, panic, violation }
}

#[allow(clippy::too_many_arguments)]
fn classify_combined(
    spec: &WorkloadSpec,
    q: &Bgpq<u32, u32, SimPlatform>,
    heap_events: &[HistoryEvent<u32>],
    front_events: &[HistoryEvent<u32>],
    protocol: &[ProtocolEvent],
    panic: Option<&str>,
    complete: bool,
) -> Option<Violation> {
    if let Some(msg) = panic {
        if msg.contains("deadlock") {
            return Some(Violation::Deadlock(msg.to_string()));
        }
        let planned_crash = spec.faults.iter().any(|r| matches!(r.action, FaultAction::Panic));
        let crash_shaped = msg.contains("injected fault") || msg.contains("aborting agent");
        if !(planned_crash && crash_shaped) {
            return Some(Violation::UnexpectedPanic(msg.to_string()));
        }
    }
    if let Some(v) = check_history(heap_events) {
        return Some(Violation::History(format!("seq {}: {}", v.seq, v.detail)));
    }
    if let Some(msg) = check_conservation(heap_events) {
        return Some(Violation::Conservation(msg));
    }
    if let Some(msg) = check_front_conservation(front_events) {
        return Some(Violation::FrontAccounting(msg));
    }
    if let Some(msg) = check_collaboration(protocol, complete) {
        return Some(Violation::Collaboration(msg));
    }
    if complete {
        // Strict front accounting: the heap must hold exactly what the
        // front acknowledged accepting minus what it acknowledged
        // delivering. An acked-but-never-executed request (the tenure
        // handoff bug) leaves the heap short; front-level recording is
        // the only oracle that can see it, because the heap's own
        // history never contains the dropped operation at all.
        let balance = front_balance(front_events);
        if q.len() as i64 != balance {
            return Some(Violation::FrontAccounting(format!(
                "quiescent len {} != acknowledged balance {balance} \
                 (acked-inserted minus acked-delivered)",
                q.len()
            )));
        }
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| q.check_invariants())) {
            return Some(Violation::Invariant(payload_str(p.as_ref()).to_string()));
        }
    }
    None
}

fn classify(
    spec: &WorkloadSpec,
    q: &Bgpq<u32, u32, SimPlatform>,
    events: &[HistoryEvent<u32>],
    protocol: &[ProtocolEvent],
    panic: Option<&str>,
    complete: bool,
) -> Option<Violation> {
    if let Some(msg) = panic {
        if msg.contains("deadlock") {
            return Some(Violation::Deadlock(msg.to_string()));
        }
        let planned_crash = spec.faults.iter().any(|r| matches!(r.action, FaultAction::Panic));
        let crash_shaped = msg.contains("injected fault") || msg.contains("aborting agent");
        if !(planned_crash && crash_shaped) {
            return Some(Violation::UnexpectedPanic(msg.to_string()));
        }
    }
    if let Some(v) = check_history(events) {
        return Some(Violation::History(format!("seq {}: {}", v.seq, v.detail)));
    }
    if let Some(msg) = check_conservation(events) {
        return Some(Violation::Conservation(msg));
    }
    if let Some(msg) = check_collaboration(protocol, complete) {
        return Some(Violation::Collaboration(msg));
    }
    if complete {
        let model_len: i64 = events
            .iter()
            .map(|e| match &e.op {
                HistoryOp::Insert { keys } => keys.len() as i64,
                HistoryOp::DeleteMin { keys, .. } => -(keys.len() as i64),
            })
            .sum();
        if q.len() as i64 != model_len {
            return Some(Violation::Invariant(format!(
                "quiescent len {} != linearized model len {model_len}",
                q.len()
            )));
        }
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| q.check_invariants())) {
            return Some(Violation::Invariant(payload_str(p.as_ref()).to_string()));
        }
    }
    None
}

/// Deleted keys must be a sub-multiset of inserted keys — checked
/// independently of [`check_history`] because it holds even on
/// truncated (crashed) histories where sequential replay is vacuous.
fn check_conservation(events: &[HistoryEvent<u32>]) -> Option<String> {
    let mut balance: HashMap<u32, i64> = HashMap::new();
    for e in events {
        match &e.op {
            HistoryOp::Insert { keys } => {
                for &k in keys {
                    *balance.entry(k).or_default() += 1;
                }
            }
            HistoryOp::DeleteMin { keys, .. } => {
                for &k in keys {
                    let b = balance.entry(k).or_default();
                    *b -= 1;
                    if *b < 0 {
                        return Some(format!(
                            "key {k} deleted more times than inserted (at seq {})",
                            e.seq
                        ));
                    }
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::PrefixStrategy;

    #[test]
    fn default_schedule_of_key_steal_mix_is_clean_and_deterministic() {
        let spec = WorkloadSpec::key_steal_mix(4);
        let a = run_schedule(&spec, Arc::new(PrefixStrategy { prefix: Vec::new() }));
        assert_eq!(a.violation, None, "{:?}", a.violation);
        assert!(a.panic.is_none() && !a.poisoned);
        let b = run_schedule(&spec, Arc::new(PrefixStrategy { prefix: Vec::new() }));
        assert_eq!(a.decisions, b.decisions, "decision logs must be bit-identical");
        assert_eq!(a.events, b.events, "histories must be bit-identical");
    }

    #[test]
    fn default_schedule_of_sharded_mix_is_clean_despite_planned_crash() {
        install_quiet_panic_hook();
        let spec = WorkloadSpec::sharded_mix(2);
        let out = run_schedule(&spec, Arc::new(PrefixStrategy { prefix: Vec::new() }));
        assert_eq!(out.violation, None, "{:?}", out.violation);
        let again = run_schedule(&spec, Arc::new(PrefixStrategy { prefix: Vec::new() }));
        assert_eq!(out.decisions, again.decisions, "decision logs must be bit-identical");
        assert_eq!(out.events, again.events, "front logs must be bit-identical");
    }

    #[test]
    fn default_schedule_of_combined_mix_is_clean_and_deterministic() {
        let spec = WorkloadSpec::combined_mix(2);
        let out = run_schedule(&spec, Arc::new(PrefixStrategy { prefix: Vec::new() }));
        assert_eq!(out.violation, None, "{:?}", out.violation);
        assert!(out.panic.is_none() && !out.poisoned);
        let again = run_schedule(&spec, Arc::new(PrefixStrategy { prefix: Vec::new() }));
        assert_eq!(out.decisions, again.decisions, "decision logs must be bit-identical");
    }

    #[test]
    fn conservation_flags_fabricated_keys() {
        let events = vec![
            HistoryEvent {
                seq: 1,
                invoked: 0,
                responded: 1,
                op: HistoryOp::Insert { keys: vec![5] },
            },
            HistoryEvent {
                seq: 2,
                invoked: 2,
                responded: 3,
                op: HistoryOp::DeleteMin { requested: 2, keys: vec![5, 9] },
            },
        ];
        assert!(check_conservation(&events).unwrap().contains("key 9"));
    }

    #[test]
    fn planned_crash_is_not_a_violation_but_deadlock_would_be() {
        use bgpq_runtime::{FaultRule, InjectionPoint};
        install_quiet_panic_hook();
        let spec = WorkloadSpec::key_steal_mix(4).with_faults(vec![FaultRule {
            point: InjectionPoint::MidInsertHeapify,
            nth: 2,
            action: FaultAction::Panic,
        }]);
        let out = run_schedule(&spec, Arc::new(PrefixStrategy { prefix: Vec::new() }));
        assert!(out.panic.is_some(), "the planned crash must fire");
        assert_eq!(out.violation, None, "{:?}", out.violation);
    }
}

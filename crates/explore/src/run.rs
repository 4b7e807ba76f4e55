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

/// The subject one launch drives: `spec.front` over its heap(s).
enum Subject {
    /// One shared queue, direct calls; records its own linearization
    /// history.
    Single(Bgpq<u32, u32, SimPlatform>),
    /// A `bgpq-shard` router with the circuit breaker and salvage
    /// re-admission armed. Inserts use the agent id as routing
    /// affinity; the delete sample is the full shard set, so routing is
    /// deterministic given the schedule.
    Sharded(ShardedBgpq<u32, u32, SimPlatform>),
    /// A `bgpq-combine` front over one backing heap. Script ops are
    /// split into single-op submissions (the front's unit of work); the
    /// backing heap keeps its own linearization history, so this front
    /// is checked both at heap level and by front-level accounting.
    Combined(Bgpq<u32, u32, SimPlatform>, Box<CombineShared<u32, u32>>),
}

impl Subject {
    /// Build `spec.front` on fresh simulator platforms. On the sharded
    /// front the fault plan is attached to `spec.fault_shard`'s
    /// platform only, when set.
    fn build(spec: &WorkloadSpec, sched: &Arc<Scheduler>, cfg: GpuConfig) -> Self {
        let opts = BgpqOptions {
            node_capacity: spec.k,
            max_nodes: spec.max_nodes,
            use_collaboration: spec.use_collaboration,
            mutation: spec.mutation,
            ..Default::default()
        };
        let plan = (!spec.faults.is_empty()).then(|| Arc::new(FaultPlan::from_rules(&spec.faults)));
        let platform = |armed: bool| {
            let p = SimPlatform::new(sched, opts.max_nodes + 1, cfg.cost, cfg.block_dim);
            match &plan {
                Some(plan) if armed => p.with_faults(Arc::clone(plan)),
                _ => p,
            }
        };
        match spec.front {
            FrontSpec::Single => {
                Subject::Single(Bgpq::with_platform(platform(true), opts).with_history())
            }
            FrontSpec::Sharded { shards } => {
                let platforms = (0..shards)
                    .map(|i| platform(spec.fault_shard.is_none_or(|fs| fs == i)))
                    .collect();
                let sopts =
                    ShardedOptions::new(shards, shards, opts).with_recovery(RecoveryOptions {
                        base_backoff_ops: 2,
                        max_backoff_ops: 8,
                        trial_ops: 1,
                        max_generations: 2,
                    });
                Subject::Sharded(ShardedBgpq::with_platforms(platforms, sopts))
            }
            FrontSpec::Combined => {
                let q = Bgpq::with_platform(platform(true), opts).with_history();
                let copts = CombinerOptions { rings: spec.blocks(), mutation: spec.mutation };
                let front = Box::new(CombineShared::new(q.node_capacity(), copts));
                Subject::Combined(q, front)
            }
        }
    }

    /// Run one script op as `agent`; an `Err` fail-stops its script.
    /// The fronts log an op only once it is acknowledged.
    fn run(
        &self,
        w: &mut SimWorker,
        agent: usize,
        rng: &mut u64,
        op: &WorkOp,
        log: &FrontLog,
    ) -> Result<(), QueueError> {
        let entries = |keys: &[u32]| keys.iter().map(|&x| Entry::new(x, x)).collect::<Vec<_>>();
        let mut out = Vec::new();
        match (self, op) {
            (Subject::Single(q), WorkOp::Insert(keys)) => q.try_insert(w, &entries(keys)),
            (Subject::Single(q), WorkOp::DeleteMin(n)) => {
                q.try_delete_min(w, &mut out, *n).map(|_| ())
            }
            (Subject::Sharded(q), WorkOp::Insert(keys)) => {
                q.try_insert(w, agent, &entries(keys))?;
                log.record(HistoryOp::Insert { keys: keys.clone() });
                Ok(())
            }
            (Subject::Sharded(q), WorkOp::DeleteMin(n)) => {
                q.try_delete_min(w, rng, &mut out, *n)?;
                let keys = out.iter().map(|e| e.key).collect();
                log.record(HistoryOp::DeleteMin { requested: *n, keys });
                Ok(())
            }
            (Subject::Combined(q, front), WorkOp::Insert(keys)) => {
                let mut backend = ExploreBackend { q, w, lane: agent };
                for &k in keys {
                    front.submit(&mut backend, Op::Insert(Entry::new(k, k)))?;
                    log.record(HistoryOp::Insert { keys: vec![k] });
                }
                Ok(())
            }
            (Subject::Combined(q, front), WorkOp::DeleteMin(n)) => {
                let mut backend = ExploreBackend { q, w, lane: agent };
                for _ in 0..*n {
                    let got = front.submit(&mut backend, Op::DeleteMin)?;
                    let keys = got.iter().map(|e| e.key).collect();
                    log.record(HistoryOp::DeleteMin { requested: 1, keys });
                }
                Ok(())
            }
        }
    }

    /// The heap whose linearization history the heap oracles judge
    /// (the sharded front's shards record none).
    fn heap(&self) -> Option<&Bgpq<u32, u32, SimPlatform>> {
        match self {
            Subject::Single(q) | Subject::Combined(q, _) => Some(q),
            Subject::Sharded(_) => None,
        }
    }

    fn len(&self) -> usize {
        match self {
            Subject::Single(q) | Subject::Combined(q, _) => q.len(),
            Subject::Sharded(q) => q.len(),
        }
    }

    fn is_poisoned(&self) -> bool {
        match self {
            Subject::Single(q) => q.is_poisoned(),
            Subject::Sharded(q) => (0..q.num_shards()).any(|i| q.shard(i).is_poisoned()),
            Subject::Combined(q, front) => q.is_poisoned() || front.is_poisoned(),
        }
    }

    fn check_invariants(&self) {
        match self {
            Subject::Single(q) | Subject::Combined(q, _) => q.check_invariants(),
            Subject::Sharded(q) => q.check_invariants(),
        };
    }
}

/// Run `spec` under `ctrl` on the simulator and check every oracle.
///
/// The launch geometry is one agent per script. Operation errors
/// (`Full`, `Poisoned`, watchdog timeouts) fail-stop the affected
/// block's script — the oracles then judge the truncated history, which
/// is exactly what they would see after a real crash.
pub fn run_schedule(spec: &WorkloadSpec, ctrl: Arc<dyn ScheduleController>) -> RunOutcome {
    let cfg = GpuConfig::new(spec.blocks(), 32);
    let log = FrontLog::new();
    let stash: Mutex<Option<(Arc<Subject>, Arc<Scheduler>)>> = Mutex::new(None);
    let result = catch_unwind(AssertUnwindSafe(|| {
        launch(
            cfg,
            |sched| {
                sched.set_controller(Arc::clone(&ctrl));
                let subject = Arc::new(Subject::build(spec, sched, cfg));
                *stash.lock().unwrap() = Some((Arc::clone(&subject), Arc::clone(sched)));
                subject
            },
            |ctx, subject: &Arc<Subject>| {
                let agent = ctx.block_id();
                // Deterministic per-agent sampling state for the sharded
                // front (its full sample makes routing hint-driven anyway).
                let mut rng = (agent as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                for op in &spec.scripts[agent] {
                    if subject.run(ctx.worker(), agent, &mut rng, op, &log).is_err() {
                        return;
                    }
                }
            },
        );
    }));
    let (subject, sched) = stash.lock().unwrap().take().expect("setup closure always runs");
    let decisions = sched.take_decisions();
    let (heap_events, protocol) = match subject.heap() {
        Some(q) => (Some(q.take_history()), q.take_protocol()),
        None => (None, Vec::new()),
    };
    let front_events = (!matches!(*subject, Subject::Single(_))).then(|| log.take());
    let poisoned = subject.is_poisoned();
    let panic = result.err().map(|p| payload_str(p.as_ref()).to_string());
    let violation = classify(
        spec,
        &subject,
        heap_events.as_deref(),
        &protocol,
        front_events.as_deref(),
        panic.as_deref(),
        poisoned,
    );
    let events = heap_events.or(front_events).unwrap_or_default();
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

/// Net keys of a log: inserted minus delivered.
fn balance(events: &[HistoryEvent<u32>]) -> i64 {
    events
        .iter()
        .map(|e| match &e.op {
            HistoryOp::Insert { keys } => keys.len() as i64,
            HistoryOp::DeleteMin { keys, .. } => -(keys.len() as i64),
        })
        .sum()
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

/// Judge one run; the first failure wins. Panic triage comes first,
/// then the heap oracles when a heap history exists, front
/// conservation when a front log exists, and last the quiescent length
/// and invariant checks.
fn classify(
    spec: &WorkloadSpec,
    subject: &Subject,
    heap_events: Option<&[HistoryEvent<u32>]>,
    protocol: &[ProtocolEvent],
    front_events: Option<&[HistoryEvent<u32>]>,
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
    let complete = panic.is_none() && !poisoned;
    if let Some(events) = heap_events {
        if let Some(v) = check_history(events) {
            return Some(Violation::History(format!("seq {}: {}", v.seq, v.detail)));
        }
        if let Some(msg) = check_conservation(events) {
            return Some(Violation::Conservation(msg));
        }
        if let Some(msg) = check_collaboration(protocol, complete) {
            return Some(Violation::Collaboration(msg));
        }
    }
    if let Some(msg) = front_events.and_then(check_front_conservation) {
        return Some(Violation::FrontAccounting(msg));
    }
    // The sharded front's strict accounting holds even across its
    // *planned* crash: a sharded spec that injects a crash must
    // construct it so the dying agent holds no keys (e.g. panic on first
    // lock acquisition — see `WorkloadSpec::sharded_mix`), making every
    // acknowledged key's whereabouts exact in every schedule.
    if complete || matches!(subject, Subject::Sharded(_)) {
        let len = subject.len() as i64;
        if let Some(events) = front_events {
            // The subject must hold exactly what the front acknowledged
            // accepting minus what it acknowledged delivering. An
            // acked-but-never-executed request (a combiner that drops
            // a foreign insert) leaves it short; only the front log can
            // see that, because the heap's own history never contains
            // the dropped operation at all.
            let balance = balance(events);
            if len != balance {
                return Some(Violation::FrontAccounting(format!(
                    "quiescent len {len} != acknowledged balance {balance} \
                     (acked-inserted minus acked-delivered)"
                )));
            }
        } else if let Some(events) = heap_events {
            let model_len = balance(events);
            if len != model_len {
                return Some(Violation::Invariant(format!(
                    "quiescent len {len} != linearized model len {model_len}"
                )));
            }
        }
    }
    if complete {
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| subject.check_invariants())) {
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

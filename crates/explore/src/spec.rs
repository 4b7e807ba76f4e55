//! Workload specifications and the `.sched` counterexample format.
//!
//! A [`WorkloadSpec`] fixes everything about an exploration subject
//! except the schedule: queue geometry (`k`, `max_nodes`), the §4.3
//! collaboration switch, an optional deliberately re-introduced protocol
//! bug ([`Mutation`]), one operation script per simulated block, and an
//! optional deterministic fault plan. The schedule itself is the varying
//! input: a [`SchedFile`] pairs a spec with the sparse `(step, agent)`
//! overrides that reproduce one specific interleaving bit-for-bit.
//!
//! The text format is deliberately dumb — line-oriented, whitespace
//! tokens, one `end` terminator — so counterexample artifacts diff well
//! and survive hand editing:
//!
//! ```text
//! bgpq-explore sched v1
//! k 4
//! max-nodes 64
//! collab 1
//! mutation marked-early-avail
//! blocks 2
//! script 0 i 0 1 2 3 ; i 4 5 6 7
//! script 1 d 2 ; d 4
//! fault marked-spin 1 stall 5000
//! override 17 1
//! end
//! ```

use bgpq::Mutation;
use bgpq_runtime::{FaultAction, FaultRule, InjectionPoint};
use gpu_sim::AgentId;
use std::fmt;

/// One scripted operation executed by a block's leader thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkOp {
    /// Insert one batch of keys (1..=k of them, one linearized INSERT).
    Insert(Vec<u32>),
    /// Delete up to `n` minimum keys (one linearized DELETEMIN).
    DeleteMin(usize),
}

/// Which submission front the scripted agents drive.
///
/// `Single` is the original subject: every agent calls one shared
/// [`bgpq::Bgpq`] directly. The other two wrap that same heap in a
/// cross-crate front so the explorer can model-check the *composition*:
/// the shard router's circuit breaker + salvage re-admission
/// (`bgpq-shard`) and the flat combiner's delegated rounds
/// (`bgpq-combine`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrontSpec {
    /// One shared queue, direct calls (the original subject).
    #[default]
    Single,
    /// `bgpq-shard` router over `shards` independent heaps, with the
    /// circuit breaker and salvage re-admission armed.
    Sharded { shards: usize },
    /// `bgpq-combine` flat-combining front over one backing heap.
    Combined,
}

/// Everything about an exploration subject except the schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Node capacity `k` (keys per heap node / max batch size).
    pub k: usize,
    /// Heap body size in nodes.
    pub max_nodes: usize,
    /// Enable the TARGET/MARKED key-stealing collaboration (§4.3).
    pub use_collaboration: bool,
    /// Deliberately re-introduced protocol bug, if any.
    pub mutation: Mutation,
    /// One operation script per block; `scripts.len()` is the number of
    /// concurrent agents in the launch.
    pub scripts: Vec<Vec<WorkOp>>,
    /// Deterministic fault plan composed into the platform (empty = no
    /// faults).
    pub faults: Vec<FaultRule>,
    /// Submission front the agents drive (default: one shared queue).
    pub front: FrontSpec,
    /// For `FrontSpec::Sharded`: attach the fault plan to this shard's
    /// platform only, so exactly one shard can crash. `None` arms the
    /// plan on every shard (or, for other fronts, the one platform).
    pub fault_shard: Option<usize>,
}

impl WorkloadSpec {
    pub fn blocks(&self) -> usize {
        self.scripts.len()
    }

    /// Total keys inserted across all scripts (an upper bound on live
    /// size, used for sizing checks).
    pub fn keys_inserted(&self) -> usize {
        self.scripts
            .iter()
            .flatten()
            .map(|op| match op {
                WorkOp::Insert(keys) => keys.len(),
                WorkOp::DeleteMin(_) => 0,
            })
            .sum()
    }

    /// The canonical §4.3 key-stealing window workload, scaled to `k`.
    ///
    /// Block 0 performs four full INSERTs. The fourth batch targets heap
    /// node 4 — a grandchild of the root — which is the smallest heap
    /// where the inserter *releases the root lock before locking its
    /// TARGET node* (for nodes 2 and 3 the inserter re-locks the target
    /// while still holding the root, so no steal window exists). Block 1
    /// then deletes `k/2` keys (shrinking the root cache below a full
    /// node) and `k` more, forcing a refill whose victim is exactly the
    /// in-flight TARGET node. A schedule that preempts block 0 inside
    /// that window drives the DELETEMIN into the MARKED handshake.
    pub fn key_steal_mix(k: usize) -> Self {
        assert!(k >= 2, "key-steal mix needs k >= 2");
        let insert =
            |b: usize| WorkOp::Insert((0..k).map(|i| (b * k + i) as u32).collect::<Vec<_>>());
        Self {
            k,
            max_nodes: 64,
            use_collaboration: true,
            mutation: Mutation::None,
            scripts: vec![
                vec![insert(0), insert(1), insert(2), insert(3)],
                vec![WorkOp::DeleteMin(k.div_ceil(2)), WorkOp::DeleteMin(k)],
            ],
            faults: Vec::new(),
            front: FrontSpec::Single,
            fault_shard: None,
        }
    }

    /// A delete racing an insert for node 4's lock word, scaled to `k`.
    ///
    /// Block 0 performs five full INSERTs: the first four fill the root
    /// and nodes 2–4. Block 1 deletes `k` keys, refilling the root from
    /// node 4 and descending into node 2, whose children are nodes 4 and
    /// 5. A fifth insert that runs while the delete holds node 2
    /// reserves node 4 as its TARGET with node 2 as its first path node,
    /// so its reserving CAS finds node 2 held, and the delete's next
    /// level then needs node 4's word. Two preemptions reach it: one
    /// stops block 0 before its fifth insert, one stops the delete after
    /// it released the root.
    pub fn path_race_mix(k: usize) -> Self {
        let insert =
            |b: usize| WorkOp::Insert((0..k).map(|i| (b * k + i) as u32).collect::<Vec<_>>());
        Self {
            k,
            max_nodes: 16,
            use_collaboration: true,
            mutation: Mutation::None,
            scripts: vec![(0..5).map(insert).collect(), vec![WorkOp::DeleteMin(k)]],
            faults: Vec::new(),
            front: FrontSpec::Single,
            fault_shard: None,
        }
    }

    /// The key-stealing window one level deeper, with pBuffer keys,
    /// scaled to `k`.
    ///
    /// Block 0 performs seven full INSERTs (the root and nodes 2–7), a
    /// partial one of `k/2` larger keys that the pBuffer absorbs, and
    /// an eighth full INSERT whose TARGET is node 8, reached through
    /// nodes 2 and 4. Block 1 deletes `k/2` keys and `k` more, the
    /// second refilling the root from node 8. A refill that runs while
    /// the eighth insert waits for or holds node 4 marks node 8 before
    /// the inserter looks at it, so the inserter answers at its second
    /// path lock; the delete then splits the handed-over root with the
    /// pBuffer after level 0's load. (The key-steal mix reaches
    /// neither: node 4 has no second path lock, and its full batches
    /// leave the pBuffer empty.)
    pub fn collab_deep_mix(k: usize) -> Self {
        assert!(k >= 2, "collab-deep mix needs k >= 2");
        let run =
            |from: usize, n: usize| WorkOp::Insert((from..from + n).map(|x| x as u32).collect());
        let mut inserts: Vec<WorkOp> = (0..7).map(|b| run(b * k, k)).collect();
        inserts.push(run(8 * k, k / 2));
        inserts.push(run(7 * k, k));
        Self {
            k,
            max_nodes: 16,
            use_collaboration: true,
            mutation: Mutation::None,
            scripts: vec![inserts, vec![WorkOp::DeleteMin(k.div_ceil(2)), WorkOp::DeleteMin(k)]],
            faults: Vec::new(),
            front: FrontSpec::Single,
            fault_shard: None,
        }
    }

    /// The canonical sharded-router workload: three shards behind the
    /// `bgpq-shard` router with the circuit breaker and salvage
    /// re-admission armed, and shard 2 rigged to crash its first
    /// visitor (panic on the first lock acquisition, before any key
    /// moves — so shard 2 provably never holds keys and the strict
    /// front-level accounting oracle is valid in *every* schedule).
    ///
    /// Agent 0 issues two deletes (its pick loop samples every shard,
    /// so it can trip over the poisoned shard and quarantine it);
    /// agents 1 and 2 insert with their block id as routing affinity.
    pub fn sharded_mix(k: usize) -> Self {
        assert!(k >= 2, "sharded mix needs k >= 2");
        Self {
            k,
            max_nodes: 16,
            use_collaboration: false,
            mutation: Mutation::None,
            scripts: vec![
                vec![WorkOp::DeleteMin(2), WorkOp::DeleteMin(2)],
                vec![WorkOp::Insert(vec![10, 11])],
                vec![WorkOp::Insert(vec![50])],
            ],
            faults: vec![FaultRule {
                point: InjectionPoint::PostLockAcquire,
                nth: 1,
                action: FaultAction::Panic,
            }],
            front: FrontSpec::Sharded { shards: 3 },
            fault_shard: Some(2),
        }
    }

    /// The canonical flat-combining workload: two agents submit
    /// single-key operations through one `bgpq-combine` front over a
    /// shared backing heap. Deliberately minimal — polling waiters make
    /// every extra agent multiply the schedule tree through free
    /// switches — yet two agents with two ops each cover the direct
    /// call, combiner election, request gathering and a foreign round:
    /// one agent's second request lands in the other's gather while
    /// that gather lingers on the first agent's call. With one op each
    /// the second submitter always finds the lock free and serves
    /// itself, so no round is ever foreign.
    pub fn combined_mix(k: usize) -> Self {
        assert!(k >= 1, "combined mix needs k >= 1");
        Self {
            k,
            max_nodes: 16,
            use_collaboration: false,
            mutation: Mutation::None,
            scripts: vec![
                vec![WorkOp::Insert(vec![5]), WorkOp::Insert(vec![6])],
                vec![WorkOp::DeleteMin(1), WorkOp::DeleteMin(1)],
            ],
            faults: Vec::new(),
            front: FrontSpec::Combined,
            fault_shard: None,
        }
    }

    /// A pseudo-random insert/delete mix: `blocks` agents, `ops`
    /// operations each, batch sizes in `1..=k`. Same seed ⇒ same spec.
    pub fn generated(seed: u64, blocks: usize, k: usize, ops: usize) -> Self {
        assert!(blocks >= 1 && k >= 1 && ops >= 1);
        let mut z = seed;
        let mut next = move || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        let scripts = (0..blocks)
            .map(|_| {
                (0..ops)
                    .map(|_| {
                        let r = next();
                        let n = (r >> 8) as usize % k + 1;
                        if r % 100 < 60 {
                            WorkOp::Insert((0..n).map(|_| (next() % 100_000) as u32).collect())
                        } else {
                            WorkOp::DeleteMin(n)
                        }
                    })
                    .collect()
            })
            .collect();
        Self {
            k,
            max_nodes: blocks * ops + 8,
            use_collaboration: true,
            mutation: Mutation::None,
            scripts,
            faults: Vec::new(),
            front: FrontSpec::Single,
            fault_shard: None,
        }
    }

    /// Same spec with a protocol bug switched on.
    pub fn with_mutation(mut self, m: Mutation) -> Self {
        self.mutation = m;
        self
    }

    /// Same spec with a deterministic fault plan composed in.
    pub fn with_faults(mut self, faults: Vec<FaultRule>) -> Self {
        self.faults = faults;
        self
    }
}

/// A spec plus the sparse schedule overrides that reproduce one
/// interleaving: at decision ordinal `step`, run `agent` instead of the
/// default pick. Serialized as a `.sched` artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedFile {
    pub spec: WorkloadSpec,
    pub overrides: Vec<(u64, AgentId)>,
}

/// Stable CLI/`.sched` name for each [`Mutation`].
pub fn mutation_name(m: Mutation) -> &'static str {
    match m {
        Mutation::None => "none",
        Mutation::MarkedHandoffEarlyAvail => "marked-early-avail",
        Mutation::SweepDiscardsOnTrip => "sweep-discards-on-trip",
        Mutation::CombinerDropsForeignInsert => "combiner-drops-foreign",
        Mutation::PathWaitHoldsTarget => "path-wait-holds-target",
    }
}

/// Inverse of [`mutation_name`].
pub fn parse_mutation(s: &str) -> Result<Mutation, String> {
    match s {
        "none" => Ok(Mutation::None),
        "marked-early-avail" => Ok(Mutation::MarkedHandoffEarlyAvail),
        "sweep-discards-on-trip" => Ok(Mutation::SweepDiscardsOnTrip),
        "combiner-drops-foreign" => Ok(Mutation::CombinerDropsForeignInsert),
        "path-wait-holds-target" => Ok(Mutation::PathWaitHoldsTarget),
        other => Err(format!("unknown mutation `{other}`")),
    }
}

fn point_name(p: InjectionPoint) -> &'static str {
    match p {
        InjectionPoint::PreLockAcquire => "pre-lock-acquire",
        InjectionPoint::PostLockAcquire => "post-lock-acquire",
        InjectionPoint::PreLockRelease => "pre-lock-release",
        InjectionPoint::MidInsertHeapify => "mid-insert-heapify",
        InjectionPoint::MidDeleteHeapify => "mid-delete-heapify",
        InjectionPoint::MarkedSpin => "marked-spin",
        InjectionPoint::SalvageWalk => "salvage-walk",
    }
}

fn parse_point(s: &str) -> Result<InjectionPoint, String> {
    InjectionPoint::ALL
        .into_iter()
        .find(|&p| point_name(p) == s)
        .ok_or_else(|| format!("unknown injection point `{s}`"))
}

impl fmt::Display for SchedFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "bgpq-explore sched v1")?;
        writeln!(f, "k {}", self.spec.k)?;
        writeln!(f, "max-nodes {}", self.spec.max_nodes)?;
        writeln!(f, "collab {}", u8::from(self.spec.use_collaboration))?;
        writeln!(f, "mutation {}", mutation_name(self.spec.mutation))?;
        match self.spec.front {
            FrontSpec::Single => {}
            FrontSpec::Sharded { shards } => writeln!(f, "front shard {shards}")?,
            FrontSpec::Combined => writeln!(f, "front combine")?,
        }
        if let Some(s) = self.spec.fault_shard {
            writeln!(f, "fault-shard {s}")?;
        }
        writeln!(f, "blocks {}", self.spec.blocks())?;
        for (b, script) in self.spec.scripts.iter().enumerate() {
            write!(f, "script {b}")?;
            for (i, op) in script.iter().enumerate() {
                write!(f, "{}", if i == 0 { " " } else { " ; " })?;
                match op {
                    WorkOp::Insert(keys) => {
                        write!(f, "i")?;
                        for k in keys {
                            write!(f, " {k}")?;
                        }
                    }
                    WorkOp::DeleteMin(n) => write!(f, "d {n}")?,
                }
            }
            writeln!(f)?;
        }
        for r in &self.spec.faults {
            match r.action {
                FaultAction::Panic => writeln!(f, "fault {} {} panic", point_name(r.point), r.nth)?,
                FaultAction::Stall { units } => {
                    writeln!(f, "fault {} {} stall {units}", point_name(r.point), r.nth)?
                }
                FaultAction::Delay { units } => {
                    writeln!(f, "fault {} {} delay {units}", point_name(r.point), r.nth)?
                }
            }
        }
        for &(step, agent) in &self.overrides {
            writeln!(f, "override {step} {agent}")?;
        }
        writeln!(f, "end")
    }
}

impl SchedFile {
    /// Parse the `.sched` text format. Inverse of `Display`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
        if lines.next() != Some("bgpq-explore sched v1") {
            return Err("missing `bgpq-explore sched v1` header".into());
        }
        let mut k = None;
        let mut max_nodes = None;
        let mut collab = true;
        let mut mutation = Mutation::None;
        let mut front = FrontSpec::Single;
        let mut fault_shard = None;
        let mut scripts: Vec<Vec<WorkOp>> = Vec::new();
        let mut faults = Vec::new();
        let mut overrides = Vec::new();
        let mut ended = false;
        for line in lines {
            let toks: Vec<&str> = line.split_whitespace().collect();
            let int = |s: &str| s.parse::<u64>().map_err(|e| format!("bad number `{s}`: {e}"));
            match toks[0] {
                "k" => k = Some(int(toks.get(1).ok_or("k needs a value")?)? as usize),
                "max-nodes" => {
                    max_nodes = Some(int(toks.get(1).ok_or("max-nodes needs a value")?)? as usize)
                }
                "collab" => collab = toks.get(1) == Some(&"1"),
                "mutation" => {
                    mutation = parse_mutation(toks.get(1).ok_or("mutation needs a value")?)?
                }
                "front" => {
                    front = match (toks.get(1).copied(), toks.get(2)) {
                        (Some("shard"), Some(n)) => FrontSpec::Sharded { shards: int(n)? as usize },
                        (Some("combine"), None) => FrontSpec::Combined,
                        (Some("single"), None) => FrontSpec::Single,
                        _ => return Err(format!("bad front in `{line}`")),
                    }
                }
                "fault-shard" => {
                    fault_shard =
                        Some(int(toks.get(1).ok_or("fault-shard needs a value")?)? as usize)
                }
                "blocks" => {
                    let n = int(toks.get(1).ok_or("blocks needs a value")?)? as usize;
                    scripts = vec![Vec::new(); n];
                }
                "script" => {
                    let b = int(toks.get(1).ok_or("script needs a block id")?)? as usize;
                    let script = scripts
                        .get_mut(b)
                        .ok_or(format!("script {b} out of range (declare `blocks` first)"))?;
                    for group in toks[2..].split(|&t| t == ";") {
                        match group {
                            ["i", keys @ ..] if !keys.is_empty() => {
                                let keys = keys
                                    .iter()
                                    .map(|s| int(s).map(|v| v as u32))
                                    .collect::<Result<Vec<_>, _>>()?;
                                script.push(WorkOp::Insert(keys));
                            }
                            ["d", n] => script.push(WorkOp::DeleteMin(int(n)? as usize)),
                            other => return Err(format!("bad op group {other:?}")),
                        }
                    }
                }
                "fault" => {
                    let point = parse_point(toks.get(1).ok_or("fault needs a point")?)?;
                    let nth = int(toks.get(2).ok_or("fault needs an ordinal")?)?;
                    let action = match (toks.get(3).copied(), toks.get(4)) {
                        (Some("panic"), None) => FaultAction::Panic,
                        (Some("stall"), Some(u)) => FaultAction::Stall { units: int(u)? },
                        (Some("delay"), Some(u)) => FaultAction::Delay { units: int(u)? },
                        _ => return Err(format!("bad fault action in `{line}`")),
                    };
                    faults.push(FaultRule { point, nth, action });
                }
                "override" => {
                    let step = int(toks.get(1).ok_or("override needs a step")?)?;
                    let agent = int(toks.get(2).ok_or("override needs an agent")?)? as AgentId;
                    overrides.push((step, agent));
                }
                "end" => {
                    ended = true;
                    break;
                }
                other => return Err(format!("unknown directive `{other}`")),
            }
        }
        if !ended {
            return Err("missing `end` terminator".into());
        }
        let spec = WorkloadSpec {
            k: k.ok_or("missing `k`")?,
            max_nodes: max_nodes.ok_or("missing `max-nodes`")?,
            use_collaboration: collab,
            mutation,
            scripts,
            faults,
            front,
            fault_shard,
        };
        if spec.scripts.is_empty() {
            return Err("no blocks declared".into());
        }
        Ok(SchedFile { spec, overrides })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sched_file_roundtrips() {
        let spec = WorkloadSpec::key_steal_mix(4)
            .with_mutation(Mutation::MarkedHandoffEarlyAvail)
            .with_faults(vec![
                FaultRule {
                    point: InjectionPoint::MarkedSpin,
                    nth: 2,
                    action: FaultAction::Stall { units: 5000 },
                },
                FaultRule {
                    point: InjectionPoint::MidInsertHeapify,
                    nth: 1,
                    action: FaultAction::Panic,
                },
            ]);
        let file = SchedFile { spec, overrides: vec![(3, 1), (17, 0)] };
        let text = file.to_string();
        let parsed = SchedFile::parse(&text).expect("parses");
        assert_eq!(parsed, file);
        // And the re-serialization is stable.
        assert_eq!(parsed.to_string(), text);
    }

    #[test]
    fn sched_file_roundtrips_multi_queue_fronts() {
        for spec in [
            WorkloadSpec::sharded_mix(2).with_mutation(Mutation::SweepDiscardsOnTrip),
            WorkloadSpec::combined_mix(2).with_mutation(Mutation::CombinerDropsForeignInsert),
        ] {
            let file = SchedFile { spec, overrides: vec![(5, 2)] };
            let text = file.to_string();
            let parsed = SchedFile::parse(&text).expect("parses");
            assert_eq!(parsed, file);
            assert_eq!(parsed.to_string(), text);
        }
    }

    #[test]
    fn parse_defaults_to_single_front() {
        // Old v1 artifacts carry no `front` / `fault-shard` directives;
        // they must keep parsing as the original single-queue subject.
        let text = "bgpq-explore sched v1\nk 4\nmax-nodes 8\nblocks 1\nscript 0 i 1\nend";
        let parsed = SchedFile::parse(text).expect("parses");
        assert_eq!(parsed.spec.front, FrontSpec::Single);
        assert_eq!(parsed.spec.fault_shard, None);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(SchedFile::parse("nonsense").is_err());
        let no_end = "bgpq-explore sched v1\nk 4\nmax-nodes 8\nblocks 1\nscript 0 i 1";
        assert!(SchedFile::parse(no_end).unwrap_err().contains("end"));
        let bad_op = "bgpq-explore sched v1\nk 4\nmax-nodes 8\nblocks 1\nscript 0 x 1\nend";
        assert!(SchedFile::parse(bad_op).is_err());
    }

    #[test]
    fn key_steal_mix_shape() {
        let spec = WorkloadSpec::key_steal_mix(4);
        assert_eq!(spec.blocks(), 2);
        assert_eq!(spec.keys_inserted(), 16);
        assert_eq!(spec.scripts[1], vec![WorkOp::DeleteMin(2), WorkOp::DeleteMin(4)]);
    }

    #[test]
    fn path_race_mix_shape() {
        let spec = WorkloadSpec::path_race_mix(2);
        assert_eq!(spec.blocks(), 2);
        assert_eq!(spec.keys_inserted(), 10);
        assert_eq!(spec.scripts[1], vec![WorkOp::DeleteMin(2)]);
        let text = SchedFile {
            spec: spec.with_mutation(Mutation::PathWaitHoldsTarget),
            overrides: vec![(4, 1)],
        }
        .to_string();
        assert!(text.contains("mutation path-wait-holds-target"));
        assert_eq!(SchedFile::parse(&text).expect("parses").to_string(), text);
    }

    #[test]
    fn collab_deep_mix_shape() {
        let spec = WorkloadSpec::collab_deep_mix(4);
        assert_eq!(spec.blocks(), 2);
        assert_eq!(spec.keys_inserted(), 8 * 4 + 2);
        assert_eq!(spec.scripts[0][7], WorkOp::Insert(vec![32, 33]));
        assert_eq!(spec.scripts[1], vec![WorkOp::DeleteMin(2), WorkOp::DeleteMin(4)]);
        let text = SchedFile { spec, overrides: vec![(9, 1)] }.to_string();
        assert_eq!(SchedFile::parse(&text).expect("parses").to_string(), text);
    }

    #[test]
    fn generated_is_deterministic() {
        let a = WorkloadSpec::generated(9, 3, 8, 12);
        let b = WorkloadSpec::generated(9, 3, 8, 12);
        assert_eq!(a, b);
        assert_eq!(a.blocks(), 3);
        assert!(a.scripts.iter().all(|s| s.len() == 12));
        assert!(a.scripts.iter().flatten().all(|op| match op {
            WorkOp::Insert(keys) => (1..=8).contains(&keys.len()),
            WorkOp::DeleteMin(n) => (1..=8).contains(n),
        }));
    }
}

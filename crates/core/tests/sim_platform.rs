//! BGPQ on the virtual-time GPU simulator: deterministic concurrent
//! interleavings (a seeded run always interleaves identically), virtual
//! makespans that show real parallel scaling, and a deterministic
//! trigger for the TARGET/MARKED collaboration protocol.

use bgpq::{check_history, Bgpq, BgpqOptions};
use bgpq_runtime::{FaultAction, FaultPlan, InjectionPoint, Platform, SimPlatform};
use gpu_sim::{launch, GpuConfig, SimReport, TraceEvent, TraceKind};
use pq_api::Entry;
use primitives::PrimitiveCost;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

type SimQueue = Bgpq<u32, u32, SimPlatform>;

fn sim_queue(
    sched: &std::sync::Arc<gpu_sim::Scheduler>,
    cfg: &GpuConfig,
    opts: BgpqOptions,
) -> SimQueue {
    let platform = SimPlatform::new(sched, opts.max_nodes + 1, cfg.cost, cfg.block_dim);
    Bgpq::with_platform(platform, opts).with_history()
}

/// Each block inserts `rounds` random batches then deletes them back.
fn mixed_kernel(cfg: GpuConfig, k: usize, rounds: usize, seed: u64) -> (SimReport, SimQueue) {
    let opts = BgpqOptions {
        node_capacity: k,
        max_nodes: 4 * cfg.num_blocks * rounds + 8,
        ..Default::default()
    };
    launch(
        cfg,
        |sched| sim_queue(sched, &cfg, opts),
        move |ctx, q: &SimQueue| {
            let mut rng = StdRng::seed_from_u64(seed ^ ctx.block_id() as u64);
            let mut out = Vec::new();
            for _ in 0..rounds {
                if rng.gen_bool(0.5) {
                    let n = rng.gen_range(1..=k);
                    let items: Vec<Entry<u32, u32>> = (0..n)
                        .map(|_| Entry::new(rng.gen_range(0..1 << 30), ctx.block_id() as u32))
                        .collect();
                    q.insert(ctx.worker(), &items);
                } else {
                    let n = rng.gen_range(1..=k);
                    q.delete_min(ctx.worker(), &mut out, n);
                }
            }
        },
    )
}

#[test]
fn sim_history_linearizes() {
    let (report, q) = mixed_kernel(GpuConfig::new(8, 128), 8, 40, 0xC0FFEE);
    assert!(report.makespan_cycles > 0);
    let events = q.take_history();
    assert!(!events.is_empty());
    if let Some(v) = check_history(&events) {
        panic!("history violation at seq {}: {}", v.seq, v.detail);
    }
    q.check_invariants();
}

#[test]
fn sim_runs_are_deterministic() {
    let (r1, q1) = mixed_kernel(GpuConfig::new(6, 128), 4, 30, 42);
    let (r2, q2) = mixed_kernel(GpuConfig::new(6, 128), 4, 30, 42);
    assert_eq!(r1.makespan_cycles, r2.makespan_cycles);
    assert_eq!(r1.metrics, r2.metrics);
    assert_eq!(q1.len(), q2.len());
    let h1 = q1.take_history();
    let h2 = q2.take_history();
    assert_eq!(h1, h2, "interleavings must be identical");
}

#[test]
fn sim_collaboration_triggers_deterministically() {
    // Tiny nodes (k = 1) mean every insert heapifies to a TARGET node
    // and every delete refills from the last node — with several blocks
    // doing tight insert/delete pairs, a delete is bound to catch an
    // in-flight TARGET.
    let cfg = GpuConfig::new(8, 32);
    let opts = BgpqOptions { node_capacity: 1, max_nodes: 8192, ..Default::default() };
    let (_report, q) = launch(
        cfg,
        |sched| sim_queue(sched, &cfg, opts),
        |ctx, q: &SimQueue| {
            let mut out = Vec::new();
            let bid = ctx.block_id() as u32;
            for i in 0..60u32 {
                q.insert(ctx.worker(), &[Entry::new(i * 8 + bid, 0)]);
                q.delete_min(ctx.worker(), &mut out, 1);
            }
        },
    );
    let snap = q.stats().snapshot();
    eprintln!("sim collaborations: {}", snap.collaborations);
    let events = q.take_history();
    if let Some(v) = check_history(&events) {
        panic!("history violation at seq {}: {}", v.seq, v.detail);
    }
    q.check_invariants();
    assert!(
        snap.collaborations > 0,
        "expected TARGET/MARKED collaborations in this adversarial schedule"
    );
}

#[test]
fn sim_more_blocks_speed_up_bulk_insert_then_delete() {
    // The headline claim (Fig. 6c left side): more thread blocks ⇒ more
    // inter-node parallelism ⇒ smaller makespan, until contention.
    let total_batches = 64usize;
    let k = 64usize;
    let run = |blocks: usize| {
        let cfg = GpuConfig::new(blocks, 128);
        let opts = BgpqOptions {
            node_capacity: k,
            max_nodes: total_batches * 2 + 8,
            ..Default::default()
        };
        let per_block = total_batches / blocks;
        let (report, q) = launch(
            cfg,
            |sched| sim_queue(sched, &cfg, opts),
            move |ctx, q: &SimQueue| {
                let mut rng = StdRng::seed_from_u64(ctx.block_id() as u64);
                let mut out = Vec::new();
                for _ in 0..per_block {
                    let items: Vec<Entry<u32, u32>> =
                        (0..k).map(|_| Entry::new(rng.gen_range(0..1 << 30), 0)).collect();
                    q.insert(ctx.worker(), &items);
                }
                for _ in 0..per_block {
                    out.clear();
                    q.delete_min(ctx.worker(), &mut out, k);
                }
            },
        );
        q.check_invariants();
        report.makespan_cycles
    };
    let one = run(1);
    let four = run(4);
    let sixteen = run(16);
    eprintln!("makespans: 1 block={one}, 4 blocks={four}, 16 blocks={sixteen}");
    assert!(four < one, "4 blocks should beat 1 ({four} !< {one})");
    assert!(sixteen < one, "16 blocks should beat 1 ({sixteen} !< {one})");
}

#[test]
fn sim_larger_nodes_are_faster_per_key() {
    // Fig. 6a/6b shape: at fixed block size, larger node capacity gives
    // more intra-node parallelism, so cycles *per key* drop.
    let keys = 4096usize;
    let run = |k: usize| {
        let cfg = GpuConfig::new(4, 512);
        let opts =
            BgpqOptions { node_capacity: k, max_nodes: 2 * keys / k + 8, ..Default::default() };
        let per_block = keys / 4 / k;
        let (report, q) = launch(
            cfg,
            |sched| sim_queue(sched, &cfg, opts),
            move |ctx, q: &SimQueue| {
                let mut rng = StdRng::seed_from_u64(ctx.block_id() as u64);
                for _ in 0..per_block {
                    let items: Vec<Entry<u32, u32>> =
                        (0..k).map(|_| Entry::new(rng.gen_range(0..1 << 30), 0)).collect();
                    q.insert(ctx.worker(), &items);
                }
            },
        );
        q.check_invariants();
        report.makespan_cycles as f64 / keys as f64
    };
    let small = run(64);
    let large = run(1024);
    eprintln!("cycles/key: k=64 -> {small:.1}, k=1024 -> {large:.1}");
    assert!(large < small, "larger batches must amortize better: {large} !< {small}");
}

/// k = 1024 on 256-thread blocks: the shape every schedule test below
/// pins its lock holds against.
const K: usize = 1024;

fn pinned_cfg(blocks: usize) -> (GpuConfig, BgpqOptions) {
    let opts = BgpqOptions { node_capacity: K, max_nodes: 8, ..Default::default() };
    (GpuConfig::new(blocks, 256), opts)
}

/// Cycles of `p` on the pinned block shape.
fn cyc(cfg: &GpuConfig, p: PrimitiveCost) -> u64 {
    cfg.cost.cycles(p, cfg.block_dim)
}

/// `n` consecutive keys from `from`, as one insert batch.
fn keys(from: usize, n: usize) -> Vec<Entry<u32, u32>> {
    (from as u32..(from + n) as u32).map(|key| Entry::new(key, 0)).collect()
}

/// A traced queue with its scheduler and lock base.
type Traced = (Arc<gpu_sim::Scheduler>, usize, SimQueue);

/// Build a traced queue whose node `n` is the scheduler's lock
/// `base + n`: the platform's lock arena is created right after the
/// probe, so `base` is the first lock it will hand out.
fn traced_queue(
    sched: &std::sync::Arc<gpu_sim::Scheduler>,
    cfg: &GpuConfig,
    opts: BgpqOptions,
) -> Traced {
    sched.enable_trace(1 << 12);
    let base = sched.create_locks(0);
    (std::sync::Arc::clone(sched), base, sim_queue(sched, cfg, opts))
}

/// Virtual times of `agent`'s trace events of `kind`, oldest first
/// (`None` matches every agent).
fn times(trace: &[TraceEvent], agent: Option<usize>, kind: TraceKind) -> Vec<u64> {
    trace
        .iter()
        .filter(|e| e.kind == kind && agent.is_none_or(|a| e.agent == a))
        .map(|e| e.vtime)
        .collect()
}

/// The root-lock critical section of a full-batch DELETEMIN holds only
/// root-ordered work, and moves each node's keys once. One CAS on the
/// last node's word takes its keys; one load brings the results, the
/// last node and the pBuffer on-chip; level 0 takes both children's
/// words in one CAS, loads both in one transfer and stores the root
/// with the loser before releasing the root. The winner's store (one
/// level later) and the results' store come after the root lock is
/// released.
#[test]
fn root_lock_holds_only_root_ordered_work() {
    let (cfg, opts) = pinned_cfg(1);
    let c = |p: PrimitiveCost| cyc(&cfg, p);
    let a = cfg.cost.c_atomic;
    let span = std::sync::Mutex::new((0u64, 0u64));
    let (_, (sched, base, q)) = launch(
        cfg,
        |sched| traced_queue(sched, &cfg, opts),
        |ctx, (_, _, q)| {
            // Preload ascending full batches: root = [0, k), nodes 2, 3
            // and 4 hold the next three key ranges in order.
            for b in 0..4 {
                q.insert(ctx.worker(), &keys(b * K, K));
            }
            let mut out = Vec::new();
            let t0 = ctx.now();
            assert_eq!(q.delete_min(ctx.worker(), &mut out, K), K);
            *span.lock().unwrap() = (t0, ctx.now());
            assert!(out.iter().map(|e| e.key).eq(0..K as u32), "wrong result set");
        },
    );
    q.check_invariants();
    let (t0, t_end) = span.into_inner().unwrap();
    let trace = sched.take_trace();
    let root = base + 1;
    let acquired = *times(&trace, None, TraceKind::LockAcquired(root)).last().unwrap();
    let released = *times(&trace, None, TraceKind::LockReleased(root)).last().unwrap();
    assert_eq!(acquired, t0 + a, "nothing but the lock word precedes the root section");

    // Root section: one CAS takes node 4 (AVAIL → EMPTY), one load of
    // the results and node 4 (no pBuffer keys); level 0: one CAS takes
    // both children, one load of both, two SORT_SPLITs, store the root
    // with the loser, release the root: 2530 cycles.
    let root_section = 2 * c(PrimitiveCost::GlobalRead { n: 2 * K })
        + 2 * c(PrimitiveCost::SortSplit { na: K, nb: K })
        + c(PrimitiveCost::GlobalWrite { n: 2 * K })
        + 3 * a;
    assert_eq!(root_section, 2530);
    assert_eq!(released - acquired, root_section, "root-lock hold time");

    // After the root: the loser (node 3) leaves in the root's release
    // round trip; level 1 takes node 2's two empty children in one CAS,
    // releases them in one round trip, stores node 2 (the winner, kept
    // on-chip since level 0) and releases it; then the k results are
    // stored: 1528 cycles.
    let after_root = 2 * c(PrimitiveCost::GlobalWrite { n: K }) + 3 * a;
    assert_eq!(after_root, 1528);
    assert_eq!(t_end - released, after_root, "stores after the root's release");
}

/// A delete whose heapify descends two levels. The loser of level 0
/// leaves in the root's store and in the root's release round trip;
/// the winner (node 2) is taken with its sibling in one CAS and loaded
/// once with it at level 0, stays on-chip as level 1's node, and is
/// stored once, with its own loser, just before its release.
#[test]
fn delete_heapify_moves_each_node_once() {
    let (cfg, opts) = pinned_cfg(1);
    let c = |p: PrimitiveCost| cyc(&cfg, p);
    let a = cfg.cost.c_atomic;
    let (_, (sched, base, q)) = launch(
        cfg,
        |sched| traced_queue(sched, &cfg, opts),
        |ctx, (_, _, q)| {
            // Root = [0, k); nodes 2..=7 hold the next six ranges.
            for b in 0..7 {
                q.insert(ctx.worker(), &keys(b * K, K));
            }
            let mut out = Vec::new();
            assert_eq!(q.delete_min(ctx.worker(), &mut out, K), K);
            assert!(out.iter().map(|e| e.key).eq(0..K as u32), "wrong result set");
        },
    );
    q.check_invariants();
    let trace = sched.take_trace();
    let last = |kind: TraceKind| *times(&trace, None, kind).last().unwrap();
    let (root, winner, loser) = (base + 1, base + 2, base + 3);
    let root_released = last(TraceKind::LockReleased(root));

    // Node 7 refills the root; level 0 swaps it with node 2's keys.
    // The loser went out in the root's store and leaves in the root's
    // release round trip.
    assert_eq!(
        last(TraceKind::LockAcquired(loser)),
        last(TraceKind::LockAcquired(winner)),
        "one CAS takes both children"
    );
    assert_eq!(
        last(TraceKind::LockReleased(loser)),
        root_released,
        "the loser is released with the root"
    );

    // Node 2's hold, from the CAS that took it with node 3: load both
    // children (node 2's one load), split, store the root with the
    // loser, release both; level 1: one CAS takes nodes 4 and 5, load
    // both, split, store node 2 (its one store) with its own loser and
    // release it: 3404 cycles.
    let hold = last(TraceKind::LockReleased(winner)) - last(TraceKind::LockAcquired(winner));
    let expected = 2 * c(PrimitiveCost::GlobalRead { n: 2 * K })
        + 4 * c(PrimitiveCost::SortSplit { na: K, nb: K })
        + 2 * c(PrimitiveCost::GlobalWrite { n: 2 * K })
        + 3 * a;
    assert_eq!(expected, 3404);
    assert_eq!(hold, expected, "level-1 node hold");
}

/// An insert with keys in both the root and the pBuffer loads them in
/// one transfer and stores them in one, whether the buffer absorbs the
/// batch or overflows into a heapify.
#[test]
fn insert_moves_root_and_buffer_together() {
    let (cfg, opts) = pinned_cfg(1);
    let c = |p: PrimitiveCost| cyc(&cfg, p);
    let a = cfg.cost.c_atomic;
    let (_, (sched, base, q)) = launch(
        cfg,
        |sched| traced_queue(sched, &cfg, opts),
        |ctx, (_, _, q)| {
            q.insert(ctx.worker(), &keys(0, K)); // root = [0, k)
            q.insert(ctx.worker(), &keys(10 * K, 300)); // buffer: 300
            q.insert(ctx.worker(), &keys(11 * K, 200)); // absorb: 500
            q.insert(ctx.worker(), &keys(12 * K, 700)); // overflow: 176
        },
    );
    q.check_invariants();
    let trace = sched.take_trace();
    let root = base + 1;
    let acq = times(&trace, None, TraceKind::LockAcquired(root));
    let rel = times(&trace, None, TraceKind::LockReleased(root));
    assert_eq!((acq.len(), rel.len()), (4, 4), "one root section per insert");

    // Absorb: root (k) and buffer (300) in, SORT_SPLIT with the root,
    // merge into the buffer, root and buffer (500) out, release. 1437
    // cycles (2237 with separate root and buffer transfers).
    let absorb = c(PrimitiveCost::GlobalRead { n: K + 300 })
        + c(PrimitiveCost::SortSplit { na: K, nb: 200 })
        + c(PrimitiveCost::Merge { n: 500 })
        + c(PrimitiveCost::GlobalWrite { n: K + 500 })
        + a;
    assert_eq!(rel[2] - acq[2], absorb, "absorbing insert's root section");

    // Overflow: root and buffer (500) in, two SORT_SPLITs, root and the
    // buffer's leftover (500 + 700 - k = 176) out; then one CAS marks
    // node 2, the first path node, TARGET and keeps its lock for the
    // fill, and the insert releases the root: 1694 cycles.
    let overflow = c(PrimitiveCost::GlobalRead { n: K + 500 })
        + c(PrimitiveCost::SortSplit { na: K, nb: 700 })
        + c(PrimitiveCost::SortSplit { na: 700, nb: 500 })
        + c(PrimitiveCost::GlobalWrite { n: K + 176 })
        + 2 * a;
    assert_eq!(overflow, 1694);
    assert_eq!(rel[3] - acq[3], overflow, "overflowing insert's root section");
}

/// Preload phase of the collaboration tests (pinned shape): root =
/// [0, k), nodes 2 and 3 the next two ranges.
fn collab_preload(ctx: &mut gpu_sim::BlockCtx, (_, _, q): &Traced) {
    if ctx.block_id() == 0 {
        for b in 0..3 {
            q.insert(ctx.worker(), &keys(b * K, K));
        }
    }
}

/// Race phase of the collaboration tests: block 0's overflowing insert
/// reserves node 4, whose TARGET fill block 1's delete of [0, k) takes
/// over as a collaboration.
fn collab_race(ctx: &mut gpu_sim::BlockCtx, (_, _, q): &Traced) {
    if ctx.block_id() == 0 {
        // Heapifies down to TARGET node 4 via node 2, releasing the
        // root on the way.
        q.insert(ctx.worker(), &keys(3 * K, K));
    } else {
        // Queue on the root lock while the inserter holds it: the
        // refill then finds node 4 still TARGET.
        let cost = ctx.cost_model();
        let algo = BgpqOptions::default().sort_algo;
        let sort = cost.cycles(PrimitiveCost::SortWith { n: K, algo }, ctx.block_dim());
        ctx.advance(sort + cost.c_atomic);
        let mut out = Vec::new();
        assert_eq!(q.delete_min(ctx.worker(), &mut out, K), K);
        assert!(out.iter().map(|e| e.key).eq(0..K as u32), "wrong result set");
    }
}

/// A DELETEMIN that collaborates with a MARKED inserter loads the
/// results (and the pBuffer) before handing the root over, and loads
/// the root the inserter stored together with level 0's children. Two
/// CASes on the reserved node's word do the marking: one finds it
/// TARGET, one sets MARKED once the results are on-chip.
#[test]
fn collaborating_delete_loads_the_inserted_root() {
    let (cfg, opts) = pinned_cfg(2);
    let c = |p: PrimitiveCost| cyc(&cfg, p);
    let a = cfg.cost.c_atomic;
    let (_, (sched, base, q)) = gpu_sim::launch_phased(
        cfg,
        |sched| traced_queue(sched, &cfg, opts),
        &[&collab_preload, &collab_race],
    );
    q.check_invariants();
    assert_eq!(q.stats().snapshot().collaborations, 1, "the delete must collaborate");
    let trace = sched.take_trace();
    let (root, tar) = (base + 1, base + 4);
    let deleter = trace.iter().rev().find(|e| e.kind == TraceKind::LockReleased(root)).unwrap();
    let of = |kind: TraceKind| times(&trace, Some(deleter.agent), kind);

    // Marking, from the root's acquisition: a CAS finds `tar` TARGET,
    // one load brings the k results (no buffer keys, and `tar` has none
    // yet), a second CAS sets MARKED. 864 cycles (1064 when `tar` was
    // locked, its state read with an atomic and `tar` released).
    // (The deleter's third release of `tar` is heapify level 1's.)
    let marking = of(TraceKind::LockReleased(tar))[1] - of(TraceKind::LockAcquired(root))[0];
    assert_eq!(marking, a + c(PrimitiveCost::GlobalRead { n: K }) + a, "marking section");
    assert_eq!(marking, 864);

    // Level 0 after the wait, from the CAS that took nodes 2 and 3:
    // load the inserted root with both children, two SORT_SPLITs, store
    // the root with the loser, release the root: 1666 cycles.
    let level0 = deleter.vtime - of(TraceKind::LockAcquired(base + 2))[0];
    let expected = c(PrimitiveCost::GlobalRead { n: 3 * K })
        + 2 * c(PrimitiveCost::SortSplit { na: K, nb: K })
        + c(PrimitiveCost::GlobalWrite { n: 2 * K })
        + a;
    assert_eq!(expected, 1666);
    assert_eq!(level0, expected, "level 0 of a collaborating delete");
}

/// A collaborating DELETEMIN whose pBuffer holds keys loads the root
/// the inserter stored together with level 0's children, after the
/// pair CAS, and splits it with the pBuffer once it is on-chip: one
/// transfer under the root lock where the root's own load (and the
/// split) used to come before the CAS.
#[test]
fn collaborating_delete_loads_the_inserted_root_with_the_children() {
    const BUF: usize = 300;
    let (cfg, opts) = pinned_cfg(2);
    let c = |p: PrimitiveCost| cyc(&cfg, p);
    let a = cfg.cost.c_atomic;
    let preload = |ctx: &mut gpu_sim::BlockCtx, t: &Traced| {
        collab_preload(ctx, t);
        if ctx.block_id() == 0 {
            t.2.insert(ctx.worker(), &keys(10 * K, BUF)); // pBuffer: 300 keys
        }
    };
    let (_, (sched, base, q)) = gpu_sim::launch_phased(
        cfg,
        |sched| traced_queue(sched, &cfg, opts),
        &[&preload, &collab_race],
    );
    assert_eq!(q.check_invariants(), 3 * K + BUF);
    assert_eq!(q.stats().snapshot().collaborations, 1, "the delete must collaborate");
    let trace = sched.take_trace();
    let root = base + 1;
    let deleter = trace.iter().rev().find(|e| e.kind == TraceKind::LockReleased(root)).unwrap();
    let of = |kind: TraceKind| times(&trace, Some(deleter.agent), kind);

    // Level 0 after the wait, from the CAS that took nodes 2 and 3:
    // one load of the inserted root with both children, the pBuffer
    // split, two SORT_SPLITs, store the root, the pBuffer and the
    // loser, release the root: 1857 cycles. (A delete that loads the
    // root and splits it before the CAS spends 1634 here.)
    let level0 = deleter.vtime - of(TraceKind::LockAcquired(base + 2))[0];
    let expected = c(PrimitiveCost::GlobalRead { n: 3 * K })
        + c(PrimitiveCost::SortSplit { na: K, nb: BUF })
        + 2 * c(PrimitiveCost::SortSplit { na: K, nb: K })
        + c(PrimitiveCost::GlobalWrite { n: 2 * K + BUF })
        + a;
    assert_eq!(expected, 1857);
    assert_eq!(level0, expected, "level 0 of a collaborating delete with pBuffer keys");
}

/// A delete that marks the TARGET while the inserter waits for a path
/// lock below its first one is answered at that lock. Once granted,
/// the inserter reads `tar`'s state in the round trip that releases
/// the node above, releases the untouched node and takes `tar`'s word
/// in one more, and stores its batch as the root: the delete's spin
/// ends one poll after that store.
#[test]
fn a_marked_target_is_answered_at_the_next_path_lock() {
    let (cfg, opts) = pinned_cfg(3);
    let c = |p: PrimitiveCost| cyc(&cfg, p);
    let a = cfg.cost.c_atomic;
    let preload = |ctx: &mut gpu_sim::BlockCtx, (_, _, q): &Traced| {
        if ctx.block_id() == 0 {
            // Root = [0, k); nodes 2..=7 the next six ranges.
            for b in 0..7 {
                q.insert(ctx.worker(), &keys(b * K, K));
            }
        }
    };
    let race = |ctx: &mut gpu_sim::BlockCtx, (_, _, q): &Traced| match ctx.block_id() {
        // TARGET node 8, via nodes 2 and 4.
        0 => q.insert(ctx.worker(), &keys(7 * K, K)),
        1 => {
            // Start once the inserter waits for node 4: the refill then
            // finds node 8 TARGET and marks it.
            ctx.advance(BLOCKER_HOLD);
            let mut out = Vec::new();
            assert_eq!(q.delete_min(ctx.worker(), &mut out, K), K);
            assert!(out.iter().map(|e| e.key).eq(0..K as u32), "wrong result set");
        }
        _ => {
            // Hold node 4, the inserter's second path node.
            q.platform().lock(ctx.worker(), 4);
            ctx.advance(4 * BLOCKER_HOLD);
            q.platform().unlock(ctx.worker(), 4);
        }
    };
    let (_, (sched, base, q)) =
        gpu_sim::launch_phased(cfg, |sched| traced_queue(sched, &cfg, opts), &[&preload, &race]);
    assert_eq!(q.check_invariants(), 7 * K);
    assert_eq!(q.stats().snapshot().collaborations, 1, "the delete must collaborate");
    if let Some(v) = check_history(&q.take_history()) {
        panic!("history violation at seq {}: {}", v.seq, v.detail);
    }
    let trace = sched.take_trace();
    let (n2, n4, tar) = (base + 2, base + 4, base + 8);
    let last = |agent: usize, kind: TraceKind| *times(&trace, Some(agent), kind).last().unwrap();

    // The inserter is granted node 4 when the blocker's release is
    // handed over, after the delete marked node 8.
    let grant = last(0, TraceKind::LockAcquired(n4));
    assert_eq!(grant, last(2, TraceKind::LockReleased(n4)) + HANDOFF);
    let queued = last(0, TraceKind::LockWait(n4));
    let marked = times(&trace, Some(1), TraceKind::LockReleased(tar))[1];
    assert!(queued < marked && marked < grant, "the delete marks node 8 during the wait");

    // Release node 2 (reading node 8's state), release node 4 and take
    // node 8's word, store the batch as the root: 864 cycles after the
    // grant. (An inserter that first runs node 4's level and then locks
    // node 8 hands the root over 2165 cycles after the grant.)
    assert_eq!(last(0, TraceKind::LockReleased(n2)), grant + a);
    assert_eq!(last(0, TraceKind::LockReleased(n4)), grant + 2 * a);
    assert_eq!(last(0, TraceKind::LockAcquired(tar)), grant + 2 * a);
    let answered = grant + 2 * a + c(PrimitiveCost::GlobalWrite { n: K });
    assert_eq!(answered - grant, 864);
    assert_eq!(last(0, TraceKind::LockReleased(tar)), answered, "the root is handed over");

    // The delete polls the root every `c_spin` from its marking; the
    // store lands on a poll, which reads first, so the spin ends one
    // quantum later, and level 0's pair CAS follows.
    let spin = cfg.cost.c_spin;
    assert_eq!((answered - marked) % spin, 0, "the store lands on a poll");
    assert_eq!(last(1, TraceKind::LockAcquired(n2)), answered + spin + a, "the spin's end");
}

/// Node storage is reserved, not written: a node's slots are first
/// written by its TARGET fill. Node 4's first reservation ends in the
/// collaboration above, so it is never written; the next overflowing
/// insert reserves it again and fills it before anything reads it.
#[test]
fn a_node_reserved_by_a_collaboration_is_filled_by_its_next_insert() {
    let (cfg, opts) = pinned_cfg(2);
    let refill = |ctx: &mut gpu_sim::BlockCtx, (_, _, q): &Traced| {
        if ctx.block_id() == 0 {
            // The root keeps [0, k) and carries its old keys through
            // node 2, whose largest range lands in node 4.
            q.insert(ctx.worker(), &keys(0, K));
            assert_eq!(q.check_invariants(), 4 * K);
            let mut out = Vec::new();
            q.drain(ctx.worker(), &mut out);
            assert!(out.iter().map(|e| e.key).eq(0..4 * K as u32), "drain out of order");
        }
    };
    let (_, (_, _, q)) = gpu_sim::launch_phased(
        cfg,
        |sched| traced_queue(sched, &cfg, opts),
        &[&collab_preload, &collab_race, &refill],
    );
    let stats = q.stats().snapshot();
    assert_eq!(stats.collaborations, 1, "node 4's first reservation ends in the collaboration");
    assert_eq!(q.check_invariants(), 0);
    if let Some(v) = check_history(&q.take_history()) {
        panic!("history violation at seq {}: {}", v.seq, v.detail);
    }
}

/// Cycles the scheduler adds when it hands a released lock to a waiter.
const HANDOFF: u64 = 200;

/// How long the blocker in the fallback tests below holds its node.
const BLOCKER_HOLD: u64 = 8000;

/// Phase kernel for the fallback tests: block 1 takes node `node`'s
/// lock right away and holds it for [`BLOCKER_HOLD`] cycles; block 0
/// runs `op` once block 1 has the lock.
fn block_node(
    node: usize,
    op: impl Fn(&mut gpu_sim::BlockCtx, &SimQueue) + Sync,
) -> impl Fn(&mut gpu_sim::BlockCtx, &(std::sync::Arc<gpu_sim::Scheduler>, usize, SimQueue)) + Sync
{
    move |ctx, (_, _, q)| {
        let a = ctx.cost_model().c_atomic;
        if ctx.block_id() == 1 {
            q.platform().lock(ctx.worker(), node);
            ctx.advance(BLOCKER_HOLD);
            q.platform().unlock(ctx.worker(), node);
        } else {
            ctx.advance(2 * a);
            op(ctx, q);
        }
    }
}

/// Block 0's last root-lock hold in `trace` and its one wait for
/// `node`, which block 1 held: `(hold, queued, wait)`, with `queued`
/// counted from the root's acquisition. The wait must end when block
/// 1's release is handed over.
fn hold_behind_blocker(trace: &[TraceEvent], root: usize, node: usize) -> (u64, u64, u64) {
    let acquired = *times(trace, Some(0), TraceKind::LockAcquired(root)).last().unwrap();
    let released = *times(trace, Some(0), TraceKind::LockReleased(root)).last().unwrap();
    let since = |agent: usize, kind: TraceKind| -> Vec<u64> {
        times(trace, Some(agent), kind).into_iter().filter(|&t| t >= acquired).collect()
    };
    let queued = since(0, TraceKind::LockWait(node));
    assert_eq!(queued.len(), 1, "block 0 queues on node {node} once");
    let handed = since(1, TraceKind::LockReleased(node))[0] + HANDOFF;
    assert_eq!(
        since(0, TraceKind::LockAcquired(node))[0],
        handed,
        "the lock path takes node {node}"
    );
    (released - acquired, queued[0] - acquired, handed - queued[0])
}

/// A refilling delete whose CAS finds the last node's word locked takes
/// the lock path: its root hold is the failed CAS, the wait for the
/// holder, and the lock path's charges.
#[test]
fn refill_cas_falls_back_to_the_lock_when_the_last_node_is_held() {
    let (cfg, opts) = pinned_cfg(2);
    let c = |p: PrimitiveCost| cyc(&cfg, p);
    let a = cfg.cost.c_atomic;
    let preload = |ctx: &mut gpu_sim::BlockCtx, (_, _, q): &(_, usize, SimQueue)| {
        if ctx.block_id() == 0 {
            // Root = [0, k), nodes 2, 3 and 4 the next three ranges.
            for b in 0..4 {
                q.insert(ctx.worker(), &keys(b * K, K));
            }
        }
    };
    let delete = block_node(4, |ctx, q| {
        let mut out = Vec::new();
        assert_eq!(q.delete_min(ctx.worker(), &mut out, K), K);
        assert!(out.iter().map(|e| e.key).eq(0..K as u32), "wrong result set");
    });
    let (_, (sched, base, q)) =
        gpu_sim::launch_phased(cfg, |sched| traced_queue(sched, &cfg, opts), &[&preload, &delete]);
    q.check_invariants();
    let (hold, queued, wait) = hold_behind_blocker(&sched.take_trace(), base + 1, base + 4);

    // The failed CAS and the lock attempt's atomic precede the enqueue.
    assert_eq!(queued, 2 * a, "the delete queues on node 4 after one CAS");
    assert_eq!(wait, BLOCKER_HOLD + HANDOFF - 3 * a);

    // Lock path: lock node 4, its state atomic, release it, one load of
    // the results and node 4; level 0 as in the uncontended delete.
    // 10730 cycles in all.
    let lock_path = 2 * c(PrimitiveCost::GlobalRead { n: 2 * K })
        + 2 * c(PrimitiveCost::SortSplit { na: K, nb: K })
        + c(PrimitiveCost::GlobalWrite { n: 2 * K })
        + 5 * a;
    assert_eq!(lock_path, 2930);
    assert_eq!(a + wait + lock_path, 10730);
    assert_eq!(hold, a + wait + lock_path, "contended root-lock hold");
}

/// An overflowing insert whose TARGET-marking CAS finds the new node's
/// word locked takes the lock path: its root section is the failed
/// CAS, the wait for the holder, and the lock path's charges. The new
/// node is also the first path node, so the lock the path takes is
/// kept for the fill.
#[test]
fn target_cas_falls_back_to_the_lock_when_the_new_node_is_held() {
    let (cfg, opts) = pinned_cfg(2);
    let c = |p: PrimitiveCost| cyc(&cfg, p);
    let a = cfg.cost.c_atomic;
    let preload = |ctx: &mut gpu_sim::BlockCtx, (_, _, q): &(_, usize, SimQueue)| {
        if ctx.block_id() == 0 {
            q.insert(ctx.worker(), &keys(0, K)); // root = [0, k)
            q.insert(ctx.worker(), &keys(10 * K, 500)); // buffer: 500
        }
    };
    // Overflows into node 2, the heap's first batch node.
    let insert = block_node(2, |ctx, q| q.insert(ctx.worker(), &keys(12 * K, 700)));
    let (_, (sched, base, q)) =
        gpu_sim::launch_phased(cfg, |sched| traced_queue(sched, &cfg, opts), &[&preload, &insert]);
    assert_eq!(q.check_invariants(), K + 1200, "every key is in the queue");
    let (hold, queued, wait) = hold_behind_blocker(&sched.take_trace(), base + 1, base + 2);

    // The root section's work before the marking.
    let work = c(PrimitiveCost::GlobalRead { n: K + 500 })
        + c(PrimitiveCost::SortSplit { na: K, nb: 700 })
        + c(PrimitiveCost::SortSplit { na: 700, nb: 500 })
        + c(PrimitiveCost::GlobalWrite { n: K + 176 });
    // The failed CAS and the lock attempt's atomic precede the enqueue.
    assert_eq!(queued, work + 2 * a, "the insert queues on node 2 after one CAS");
    // Lock path: the work, then lock node 2, mark it, keep it and
    // release the root: 5670 cycles in all.
    let lock_path = work + 2 * a;
    assert_eq!(lock_path, 1694);
    assert_eq!(hold, a + wait + lock_path, "contended root section");
    assert_eq!(hold, 5670);
}

/// A heapify level whose children's CAS finds one child's word locked
/// keeps the child it got and takes the held one through the charged
/// lock path: the root hold is the refill, the pair CAS, the lock
/// attempt, the wait for the holder, and level 0's work.
#[test]
fn pair_cas_keeps_the_free_child_and_waits_for_the_held_one() {
    let (cfg, opts) = pinned_cfg(2);
    let c = |p: PrimitiveCost| cyc(&cfg, p);
    let a = cfg.cost.c_atomic;
    let preload = |ctx: &mut gpu_sim::BlockCtx, (_, _, q): &(_, usize, SimQueue)| {
        if ctx.block_id() == 0 {
            // Root = [0, k), nodes 2, 3 and 4 the next three ranges.
            for b in 0..4 {
                q.insert(ctx.worker(), &keys(b * K, K));
            }
        }
    };
    // Block 1 holds node 2, the root's left child.
    let delete = block_node(2, |ctx, q| {
        let mut out = Vec::new();
        assert_eq!(q.delete_min(ctx.worker(), &mut out, K), K);
        assert!(out.iter().map(|e| e.key).eq(0..K as u32), "wrong result set");
    });
    let (_, (sched, base, q)) =
        gpu_sim::launch_phased(cfg, |sched| traced_queue(sched, &cfg, opts), &[&preload, &delete]);
    q.check_invariants();
    let trace = sched.take_trace();
    let (root, held, free) = (base + 1, base + 2, base + 3);
    let (hold, queued, wait) = hold_behind_blocker(&trace, root, held);
    let acquired = *times(&trace, Some(0), TraceKind::LockAcquired(root)).last().unwrap();

    // Refill: one CAS takes node 4, one load of the results and node 4.
    // Level 0: one CAS of both children takes node 3; the lock path's
    // atomic queues the delete on node 2.
    let refill = a + c(PrimitiveCost::GlobalRead { n: 2 * K });
    assert_eq!(
        *times(&trace, Some(0), TraceKind::LockAcquired(free)).last().unwrap(),
        acquired + refill + a,
        "the pair CAS takes the free child"
    );
    assert_eq!(queued, refill + 2 * a, "the delete queues on node 2 after the pair CAS");

    // After the wait: one load of both children, two SORT_SPLITs, store
    // the root with the loser, release the root.
    let level0 = c(PrimitiveCost::GlobalRead { n: 2 * K })
        + 2 * c(PrimitiveCost::SortSplit { na: K, nb: K })
        + c(PrimitiveCost::GlobalWrite { n: 2 * K })
        + a;
    assert_eq!(hold, queued + wait + level0, "root hold behind a held child");
    assert_eq!(hold, 9602);
}

/// Deadlock regression: an overflowing insert whose CAS reserves node 4
/// while a delete holds node 2, the first path node, marks node 4 and
/// releases its word before it waits for node 2, because the delete
/// takes node 4 as node 2's child. (An insert that waits for node 2
/// holding node 4's word deadlocks with the delete, each block
/// `BlockedOnLock` on the other's node.) A stall at the delete's second
/// `MidDeleteHeapify`, level 1 holding node 2, opens the window.
#[test]
fn insert_releases_the_reserved_node_before_waiting_for_its_path() {
    let k = 4;
    let cfg = GpuConfig::new(2, 32);
    let opts = BgpqOptions { node_capacity: k, max_nodes: 8, ..Default::default() };
    let plan = Arc::new(FaultPlan::new().with_rule(
        InjectionPoint::MidDeleteHeapify,
        2,
        FaultAction::Stall { units: 100_000 },
    ));
    let setup = |sched: &Arc<gpu_sim::Scheduler>| {
        sched.enable_trace(1 << 12);
        let base = sched.create_locks(0);
        let platform = SimPlatform::new(sched, opts.max_nodes + 1, cfg.cost, cfg.block_dim)
            .with_faults(plan.clone());
        (Arc::clone(sched), base, Bgpq::with_platform(platform, opts).with_history())
    };
    let preload = |ctx: &mut gpu_sim::BlockCtx, (_, _, q): &(_, usize, SimQueue)| {
        if ctx.block_id() == 0 {
            // Root = [0, k), nodes 2, 3 and 4 the next three ranges.
            for b in 0..4 {
                q.insert(ctx.worker(), &keys(b * k, k));
            }
        }
    };
    let race = |ctx: &mut gpu_sim::BlockCtx, (_, _, q): &(_, usize, SimQueue)| {
        if ctx.block_id() == 1 {
            // Refill from node 4, descend into node 2 and stall there.
            let mut out = Vec::new();
            assert_eq!(q.delete_min(ctx.worker(), &mut out, k), k);
            assert!(out.iter().map(|e| e.key).eq(0..k as u32), "wrong result set");
        } else {
            // Queue on the root behind the delete: `tar` is node 4 again.
            ctx.advance(2 * ctx.cost_model().c_atomic);
            q.insert(ctx.worker(), &keys(100, k));
        }
    };
    // Then block 0 drains the queue.
    let rest = std::sync::Mutex::new(Vec::new());
    let drain = |ctx: &mut gpu_sim::BlockCtx, (_, _, q): &(_, usize, SimQueue)| {
        if ctx.block_id() == 0 {
            assert_eq!(q.check_invariants(), 4 * k);
            let mut out = Vec::new();
            q.drain(ctx.worker(), &mut out);
            *rest.lock().unwrap() = out.iter().map(|e| e.key).collect::<Vec<u32>>();
        }
    };
    let (_, (sched, base, q)) = gpu_sim::launch_phased(cfg, setup, &[&preload, &race, &drain]);
    assert_eq!(plan.fired_count(), 1, "the stall hit the delete at level 1");
    let trace = sched.take_trace();
    let (n2, n4) = (base + 2, base + 4);
    // `agent`'s events of `kind` since the delete took the root (the
    // preload's come before).
    let start = times(&trace, Some(1), TraceKind::LockAcquired(base + 1))[0];
    let in_race = |agent: usize, kind: TraceKind| -> Vec<u64> {
        times(&trace, Some(agent), kind).into_iter().filter(|&t| t > start).collect()
    };
    // The insert reserved node 4 and queued on node 2 while the delete
    // held it; the delete then took node 4 as node 2's child.
    let queued = in_race(0, TraceKind::LockWait(n2));
    assert_eq!(queued.len(), 1, "the insert waits for node 2 once");
    let reserved = in_race(0, TraceKind::LockAcquired(n4));
    assert!(reserved[0] < queued[0], "the insert reserves node 4 before it waits for node 2");
    let released = in_race(0, TraceKind::LockReleased(n4));
    assert!(released[0] <= queued[0], "node 4's word is released before the wait");
    let taken = in_race(1, TraceKind::LockAcquired(n4));
    assert!(taken.iter().any(|&t| t > queued[0]), "the delete takes node 4 during the wait");

    // Every key is accounted for: the delete took [0, k); the queue
    // held the other three preloaded batches and the inserted one.
    if let Some(v) = check_history(&q.take_history()) {
        panic!("history violation at seq {}: {}", v.seq, v.detail);
    }
    let want: Vec<u32> = (k as u32..4 * k as u32).chain(100..100 + k as u32).collect();
    assert_eq!(rest.into_inner().unwrap(), want, "every key is accounted for");
}

/// Per-lock wait on a 16-block, k = 1024 insert/delete-pair load: the
/// per-lock counts add up to the run's total, and the root's and the
/// level-1 nodes' shares are reported.
#[test]
fn per_lock_wait_adds_up_to_the_run_total() {
    let blocks = 16;
    let cfg = GpuConfig::new(blocks, 256);
    let opts = BgpqOptions { node_capacity: K, max_nodes: 96, ..Default::default() };
    let batch = |ctx: &mut gpu_sim::BlockCtx, i: u64| -> Vec<Entry<u32, u32>> {
        let mut rng = StdRng::seed_from_u64(ctx.block_id() as u64 * 1000 + i);
        (0..K).map(|_| Entry::new(rng.gen_range(0..1 << 30), 0)).collect()
    };
    let preload = |ctx: &mut gpu_sim::BlockCtx, (_, _, q): &(_, usize, SimQueue)| {
        for i in 0..2 {
            let items = batch(ctx, i);
            q.insert(ctx.worker(), &items);
        }
    };
    let pairs = |ctx: &mut gpu_sim::BlockCtx, (_, _, q): &(_, usize, SimQueue)| {
        let mut out = Vec::with_capacity(K);
        for i in 2..6 {
            let items = batch(ctx, i);
            q.insert(ctx.worker(), &items);
            out.clear();
            assert_eq!(q.delete_min(ctx.worker(), &mut out, K), K);
        }
    };
    let (_, (sched, base, q)) =
        gpu_sim::launch_phased(cfg, |sched| traced_queue(sched, &cfg, opts), &[&preload, &pairs]);
    assert_eq!(q.check_invariants(), 2 * blocks * K);
    let total = sched.metrics().lock_wait_cycles;
    let waits = sched.lock_wait_cycles_by_lock();
    assert_eq!(waits.iter().sum::<u64>(), total, "per-lock waits add up to the total");
    assert!(total > 0, "16 blocks contend");
    let share = |cycles: u64| cycles as f64 / total as f64;
    let root = waits[base + 1];
    let level1 = waits[base + 2] + waits[base + 3];
    eprintln!(
        "lock wait: {total} cycles; root {:.1}%, level-1 nodes {:.1}%",
        100.0 * share(root),
        100.0 * share(level1)
    );
    assert!(root > level1, "the root takes most of the wait");
}

/// Schedule fuzzing: seeded tie-break randomization explores many
/// distinct legal interleavings; every one must linearize. This is the
/// closest thing to a model checker the suite has.
#[test]
fn fuzzed_schedules_all_linearize() {
    let mut distinct_makespans = std::collections::HashSet::new();
    for seed in 0..24u64 {
        let cfg = GpuConfig::new(6, 64).with_fuzz_seed(seed);
        let opts = BgpqOptions { node_capacity: 2, max_nodes: 4096, ..Default::default() };
        let (report, q) = launch(
            cfg,
            |sched| sim_queue(sched, &cfg, opts),
            |ctx, q: &SimQueue| {
                let bid = ctx.block_id() as u32;
                let mut out = Vec::new();
                for i in 0..25u32 {
                    q.insert(
                        ctx.worker(),
                        &[Entry::new(i * 16 + bid, 0), Entry::new(i * 16 + bid + 8, 0)],
                    );
                    out.clear();
                    q.delete_min(ctx.worker(), &mut out, 2);
                }
            },
        );
        distinct_makespans.insert(report.makespan_cycles);
        let events = q.take_history();
        if let Some(v) = check_history(&events) {
            panic!("seed {seed}: history violation at seq {}: {}", v.seq, v.detail);
        }
        q.check_invariants();
    }
    // Fuzzing must actually change the schedule.
    assert!(
        distinct_makespans.len() > 3,
        "expected diverse interleavings, got {} distinct makespans",
        distinct_makespans.len()
    );
}

/// The same fuzz seed reproduces the same interleaving exactly.
#[test]
fn fuzzed_schedule_is_reproducible_per_seed() {
    let run = |seed: u64| {
        let cfg = GpuConfig::new(4, 64).with_fuzz_seed(seed);
        let opts = BgpqOptions { node_capacity: 4, max_nodes: 1024, ..Default::default() };
        let (report, q) = launch(
            cfg,
            |sched| sim_queue(sched, &cfg, opts),
            |ctx, q: &SimQueue| {
                let bid = ctx.block_id() as u32;
                let mut out = Vec::new();
                for i in 0..15u32 {
                    q.insert(ctx.worker(), &[Entry::new(i * 8 + bid, 0)]);
                    out.clear();
                    q.delete_min(ctx.worker(), &mut out, 1);
                }
            },
        );
        (report.makespan_cycles, q.take_history())
    };
    let (m1, h1) = run(9);
    let (m2, h2) = run(9);
    assert_eq!(m1, m2);
    assert_eq!(h1, h2);
    let (m3, _) = run(10);
    let _ = m3; // may or may not differ; determinism per seed is the claim
}

/// The ablation modes must also survive fuzzed schedules.
#[test]
fn fuzzed_schedules_linearize_with_ablations_disabled() {
    for (collab, buffer) in [(false, true), (true, false), (false, false)] {
        for seed in 0..8u64 {
            let cfg = GpuConfig::new(5, 64).with_fuzz_seed(seed);
            let opts = BgpqOptions {
                node_capacity: 2,
                max_nodes: 4096,
                use_collaboration: collab,
                use_partial_buffer: buffer,
                ..Default::default()
            };
            let (_, q) = launch(
                cfg,
                |sched| sim_queue(sched, &cfg, opts),
                |ctx, q: &SimQueue| {
                    let bid = ctx.block_id() as u32;
                    let mut out = Vec::new();
                    for i in 0..20u32 {
                        q.insert(
                            ctx.worker(),
                            &[Entry::new(i * 8 + bid, 0), Entry::new(i * 8 + bid + 4, 0)],
                        );
                        out.clear();
                        q.delete_min(ctx.worker(), &mut out, 2);
                    }
                },
            );
            let events = q.take_history();
            if let Some(v) = check_history(&events) {
                panic!(
                    "collab={collab} buffer={buffer} seed={seed}: violation at seq {}: {}",
                    v.seq, v.detail
                );
            }
            q.check_invariants();
        }
    }
}

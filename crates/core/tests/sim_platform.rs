//! BGPQ on the virtual-time GPU simulator: deterministic concurrent
//! interleavings (a seeded run always interleaves identically), virtual
//! makespans that show real parallel scaling, and a deterministic
//! trigger for the TARGET/MARKED collaboration protocol.

use bgpq::{check_history, Bgpq, BgpqOptions};
use bgpq_runtime::SimPlatform;
use gpu_sim::{launch, GpuConfig, SimReport, TraceKind};
use pq_api::Entry;
use primitives::PrimitiveCost;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// The root-lock critical section of a full-batch DELETEMIN holds only
/// root-ordered work: the root read, the refill from the last node,
/// and level 0 of the heapify. The refilled root stays in shared memory
/// until level 0's SORT_SPLIT write-back stores it, and the results
/// reach the caller in one store after the root lock is released —
/// still inside the operation, never dropped.
#[test]
fn root_lock_holds_only_root_ordered_work() {
    let k = 1024usize;
    let cfg = GpuConfig::new(1, 256);
    let cost = cfg.cost;
    let c = |p: PrimitiveCost| cost.cycles(p, cfg.block_dim);
    let opts = BgpqOptions { node_capacity: k, max_nodes: 8, ..Default::default() };
    let times = std::sync::Mutex::new((0u64, 0u64));
    let (_, (sched, root_lock, q)) = launch(
        cfg,
        |sched| {
            sched.enable_trace(1 << 12);
            // The platform's locks come next in the arena; lock `ROOT`
            // of the queue is the platform's lock 1.
            let root_lock = sched.create_locks(0) + 1;
            (std::sync::Arc::clone(sched), root_lock, sim_queue(sched, &cfg, opts))
        },
        |ctx, (_, _, q)| {
            // Preload ascending full batches: root = [0, k), nodes 2, 3
            // and 4 hold the next three key ranges in order.
            for b in 0..4u32 {
                let items: Vec<Entry<u32, u32>> =
                    (b * k as u32..(b + 1) * k as u32).map(|key| Entry::new(key, 0)).collect();
                q.insert(ctx.worker(), &items);
            }
            let mut out = Vec::new();
            let t0 = ctx.now();
            assert_eq!(q.delete_min(ctx.worker(), &mut out, k), k);
            *times.lock().unwrap() = (t0, ctx.now());
            assert!(out.iter().map(|e| e.key).eq(0..k as u32), "wrong result set");
        },
    );
    q.check_invariants();
    let (t0, t_end) = times.into_inner().unwrap();
    let trace = sched.take_trace();
    let last = |kind: TraceKind| trace.iter().rev().find(|e| e.kind == kind).unwrap().vtime;
    let acquired = last(TraceKind::LockAcquired(root_lock));
    let released = last(TraceKind::LockReleased(root_lock));
    assert_eq!(acquired, t0 + cost.c_atomic, "nothing but the lock word precedes the root section");

    // Root section: extract the root (read), take node 4 into the root
    // (lock, state atomic, read, unlock; no store), then level 0: lock
    // both children, read them, split them and store the loser, split
    // the root with the winner and store both, release the loser and
    // finally the root. No result store and no separate root store.
    let root_section = 4 * c(PrimitiveCost::GlobalRead { n: k })
        + 2 * c(PrimitiveCost::SortSplit { na: k, nb: k })
        + c(PrimitiveCost::GlobalWrite { n: k })
        + c(PrimitiveCost::GlobalWrite { n: 2 * k })
        + 7 * cost.c_atomic;
    assert_eq!(released - acquired, root_section, "root-lock hold time");

    // After the root: level 1 locks node 2's two empty children, stops,
    // releases all three locks; then the k results are stored.
    let after_root = 5 * cost.c_atomic + c(PrimitiveCost::GlobalWrite { n: k });
    assert_eq!(t_end - released, after_root, "the results must be stored after release");
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

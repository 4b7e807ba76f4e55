//! The sharded router on the virtual-time GPU simulator: one shard per
//! modeled GPU partition, deterministic interleavings, conservation
//! and invariants under concurrent blocks.

use bgpq::BgpqOptions;
use bgpq_runtime::SimPlatform;
use bgpq_shard::{ShardedBgpq, ShardedOptions};
use gpu_sim::{launch, GpuConfig};
use pq_api::Entry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type SimSharded = ShardedBgpq<u32, u32, SimPlatform>;

fn sim_sharded(
    sched: &std::sync::Arc<gpu_sim::Scheduler>,
    cfg: &GpuConfig,
    opts: ShardedOptions,
) -> SimSharded {
    let platforms = (0..opts.shards)
        .map(|_| SimPlatform::new(sched, opts.queue.max_nodes + 1, cfg.cost, cfg.block_dim))
        .collect();
    ShardedBgpq::with_platforms(platforms, opts)
}

/// Each block feeds its sticky shard and pops via sampling; the run
/// must conserve the multiset and keep every shard's invariants.
#[test]
fn sim_sharded_mixed_workload_conserves() {
    let cfg = GpuConfig::new(8, 128);
    let k = 8usize;
    let opts = ShardedOptions::new(
        4,
        2,
        BgpqOptions { node_capacity: k, max_nodes: 4096, ..Default::default() },
    );
    let inserted = std::sync::atomic::AtomicU64::new(0);
    let deleted = std::sync::atomic::AtomicU64::new(0);
    let (report, q) = launch(
        cfg,
        |sched| sim_sharded(sched, &cfg, opts),
        |ctx, q: &SimSharded| {
            let bid = ctx.block_id();
            let mut rng = StdRng::seed_from_u64(0xBEEF ^ bid as u64);
            let mut sample_rng = 0x5EED_0000 + bid as u64;
            let mut out = Vec::new();
            for _ in 0..40 {
                if rng.gen_bool(0.6) {
                    let n = rng.gen_range(1..=k);
                    let items: Vec<Entry<u32, u32>> =
                        (0..n).map(|_| Entry::new(rng.gen_range(0..1 << 30), bid as u32)).collect();
                    q.insert(ctx.worker(), bid, &items);
                    inserted.fetch_add(n as u64, std::sync::atomic::Ordering::Relaxed);
                } else {
                    out.clear();
                    let got = q.delete_min(ctx.worker(), &mut sample_rng, &mut out, k);
                    deleted.fetch_add(got as u64, std::sync::atomic::Ordering::Relaxed);
                }
            }
        },
    );
    assert!(report.makespan_cycles > 0);
    let ins = inserted.load(std::sync::atomic::Ordering::Relaxed);
    let del = deleted.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(q.len() as u64 + del, ins, "sharding must not lose or duplicate keys");
    assert_eq!(q.check_invariants(), q.len());
    if del > 0 {
        assert!(q.quality().deletes > 0, "successful deletes must be recorded");
    }
}

/// Same seed → same virtual schedule, even through the sampled router.
#[test]
fn sim_sharded_runs_are_deterministic() {
    let run = || {
        let cfg = GpuConfig::new(6, 64);
        let opts = ShardedOptions::new(
            3,
            2,
            BgpqOptions { node_capacity: 4, max_nodes: 2048, ..Default::default() },
        );
        let (report, q) = launch(
            cfg,
            |sched| sim_sharded(sched, &cfg, opts),
            |ctx, q: &SimSharded| {
                let bid = ctx.block_id();
                let mut sample_rng = 1 + bid as u64;
                let mut out = Vec::new();
                for i in 0..30u32 {
                    q.insert(ctx.worker(), bid, &[Entry::new(i * 8 + bid as u32, 0)]);
                    out.clear();
                    q.delete_min(ctx.worker(), &mut sample_rng, &mut out, 1);
                }
            },
        );
        (report.makespan_cycles, q.len(), q.quality())
    };
    let (m1, l1, q1) = run();
    let (m2, l2, q2) = run();
    assert_eq!(m1, m2);
    assert_eq!(l1, l2);
    assert_eq!(q1, q2, "quality counters must replay identically");
}

/// Picks agent 0 for the first three decisions (its start, its launch
/// prologue and its routing step) and agent 1 whenever it is ready
/// afterwards.
struct SnapshotThenPublish;

impl gpu_sim::ScheduleController for SnapshotThenPublish {
    fn pick(&self, point: &gpu_sim::PickPoint<'_>) -> gpu_sim::AgentId {
        if point.step >= 3 && point.ready.contains(&1) {
            1
        } else {
            point.ready[0]
        }
    }
}

/// The router's hint snapshot is tagged where the heap tags its
/// root-min publish: the step that samples both shards must conflict
/// with agent 1's publishing step on shard 1, and only through the
/// hint read. Agent 1 drives shard 1 directly, so it touches no front
/// state and no shard-0 word.
#[test]
fn hint_snapshot_conflicts_with_a_root_min_publish() {
    use gpu_sim::{footprints_conflict, Access};
    use std::sync::{Arc, Mutex};

    let cfg = GpuConfig::new(2, 32);
    let opts = ShardedOptions::new(
        2,
        2,
        BgpqOptions { node_capacity: 2, max_nodes: 8, ..Default::default() },
    );
    let stash = Mutex::new(None);
    launch(
        cfg,
        |sched| {
            sched.set_controller(Arc::new(SnapshotThenPublish));
            *stash.lock().unwrap() = Some(Arc::clone(sched));
            sim_sharded(sched, &cfg, opts)
        },
        |ctx, q: &SimSharded| {
            if ctx.block_id() == 0 {
                let mut rng = 1u64;
                q.delete_min(ctx.worker(), &mut rng, &mut Vec::new(), 1);
            } else {
                q.shard(1).insert(ctx.worker(), &[Entry::new(7, 7)]);
            }
        },
    );
    let decisions = stash.lock().unwrap().take().unwrap().take_decisions();
    // Agent 1's entry check reads the poison flag across shard 1's whole
    // lock arena, whose second lock is the root's.
    let shard1_root = decisions
        .iter()
        .filter(|d| d.chosen == 1)
        .flat_map(|d| d.footprint.iter())
        .find(|a| a.lo < a.hi)
        .expect("shard 1's queue-wide poison check")
        .lo
        + 1;
    // Agent 0's first step with a read is its routing step.
    let snapshot = decisions[..3]
        .iter()
        .find(|d| d.chosen == 0 && d.footprint.iter().any(|a| !a.write))
        .expect("agent 0 routes before agent 1 runs");
    let hint_read = Access::point(shard1_root, false);
    assert!(snapshot.footprint.contains(&hint_read), "{:?}", snapshot.footprint);
    let publish = decisions
        .iter()
        .find(|d| d.chosen == 1 && d.footprint.contains(&Access::point(shard1_root, true)))
        .expect("agent 1 publishes shard 1's root-min");
    assert!(footprints_conflict(&snapshot.footprint, &publish.footprint));
    let without_hint: Vec<Access> =
        snapshot.footprint.iter().copied().filter(|a| *a != hint_read).collect();
    assert!(!footprints_conflict(&without_hint, &publish.footprint));
}

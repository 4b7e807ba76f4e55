//! The same BGPQ algorithm runs on both platforms; given the same
//! single-agent operation schedule, results must be identical, and
//! concurrent schedules must agree at quiescence.

use bgpq::{Bgpq, BgpqOptions, CpuBgpq};
use bgpq_runtime::SimPlatform;
use gpu_sim::{launch, GpuConfig};
use pq_api::{BatchPriorityQueue, Entry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn opts() -> BgpqOptions {
    BgpqOptions { node_capacity: 8, max_nodes: 1 << 10, ..Default::default() }
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u32>),
    Delete(usize),
}

fn schedule(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.55) {
                let c = rng.gen_range(1..=8usize);
                Op::Insert((0..c).map(|_| rng.gen_range(0..1 << 30)).collect())
            } else {
                Op::Delete(rng.gen_range(1..=8))
            }
        })
        .collect()
}

#[test]
fn single_agent_schedules_agree_exactly() {
    for seed in [1u64, 7, 42] {
        let ops = schedule(seed, 200);

        // CPU platform.
        let cpu: CpuBgpq<u32, u32> = CpuBgpq::new(opts());
        let mut cpu_deleted: Vec<u32> = Vec::new();
        {
            let mut out = Vec::new();
            for op in &ops {
                match op {
                    Op::Insert(keys) => {
                        let items: Vec<Entry<u32, u32>> =
                            keys.iter().map(|&k| Entry::new(k, k)).collect();
                        cpu.insert_batch(&items);
                    }
                    Op::Delete(n) => {
                        out.clear();
                        cpu.delete_min_batch(&mut out, *n);
                        cpu_deleted.extend(out.iter().map(|e| e.key));
                    }
                }
            }
        }

        // Sim platform, one block (identical sequential schedule).
        let ops2 = ops.clone();
        let gpu = GpuConfig::new(1, 128);
        let sim_deleted: std::sync::Mutex<Vec<u32>> = std::sync::Mutex::new(Vec::new());
        let (_, q) = launch(
            gpu,
            |sched| {
                let p = SimPlatform::new(sched, opts().max_nodes + 1, gpu.cost, gpu.block_dim);
                Bgpq::<u32, u32, _>::with_platform(p, opts())
            },
            |ctx, q| {
                let mut out = Vec::new();
                for op in &ops2 {
                    match op {
                        Op::Insert(keys) => {
                            let items: Vec<Entry<u32, u32>> =
                                keys.iter().map(|&k| Entry::new(k, k)).collect();
                            q.insert(ctx.worker(), &items);
                        }
                        Op::Delete(n) => {
                            out.clear();
                            q.delete_min(ctx.worker(), &mut out, *n);
                            sim_deleted.lock().unwrap().extend(out.iter().map(|e| e.key));
                        }
                    }
                }
            },
        );

        assert_eq!(
            *sim_deleted.lock().unwrap(),
            cpu_deleted,
            "seed {seed}: deleted streams differ"
        );
        assert_eq!(
            q.len(),
            BatchPriorityQueue::<u32, u32>::len(&cpu),
            "seed {seed}: lengths differ"
        );
        q.check_invariants();
        cpu.inner().check_invariants();
    }
}

#[test]
fn concurrent_multiset_agrees_across_platforms() {
    // 4 agents on each platform run the same per-agent schedules; the
    // *set* of surviving keys can differ (different interleavings), but
    // counts must match and both must linearize.
    let per_agent: Vec<Vec<Op>> = (0..4).map(|a| schedule(100 + a, 80)).collect();
    let total_inserted: usize =
        per_agent.iter().flatten().map(|op| if let Op::Insert(k) = op { k.len() } else { 0 }).sum();

    // CPU.
    let cpu: CpuBgpq<u32, u32> = CpuBgpq::new(opts()).with_history();
    let cpu_deleted: usize = std::thread::scope(|s| {
        let handles: Vec<_> = per_agent
            .iter()
            .map(|ops| {
                let cpu = &cpu;
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut n = 0;
                    for op in ops {
                        match op {
                            Op::Insert(keys) => {
                                let items: Vec<Entry<u32, u32>> =
                                    keys.iter().map(|&k| Entry::new(k, k)).collect();
                                cpu.insert_batch(&items);
                            }
                            Op::Delete(c) => {
                                out.clear();
                                n += cpu.delete_min_batch(&mut out, *c);
                            }
                        }
                    }
                    n
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert!(bgpq::check_history(&cpu.inner().take_history()).is_none());
    assert_eq!(BatchPriorityQueue::<u32, u32>::len(&cpu) + cpu_deleted, total_inserted);

    // Sim.
    let gpu = GpuConfig::new(4, 128);
    let per_agent2 = per_agent.clone();
    let sim_deleted = std::sync::atomic::AtomicUsize::new(0);
    let (_, q) = launch(
        gpu,
        |sched| {
            let p = SimPlatform::new(sched, opts().max_nodes + 1, gpu.cost, gpu.block_dim);
            Bgpq::<u32, u32, _>::with_platform(p, opts()).with_history()
        },
        |ctx, q| {
            let ops = &per_agent2[ctx.block_id()];
            let mut out = Vec::new();
            for op in ops {
                match op {
                    Op::Insert(keys) => {
                        let items: Vec<Entry<u32, u32>> =
                            keys.iter().map(|&k| Entry::new(k, k)).collect();
                        q.insert(ctx.worker(), &items);
                    }
                    Op::Delete(c) => {
                        out.clear();
                        let got = q.delete_min(ctx.worker(), &mut out, *c);
                        sim_deleted.fetch_add(got, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            }
        },
    );
    assert!(bgpq::check_history(&q.take_history()).is_none());
    assert_eq!(q.len() + sim_deleted.load(std::sync::atomic::Ordering::Relaxed), total_inserted);
    q.check_invariants();
}

/// The strongest single-agent equivalence: with history recording on,
/// CpuPlatform and SimPlatform must emit the *identical* linearization
/// history — same sequence numbers, same op payloads, same order — for
/// one fixed op script, across node capacities spanning a leaf-heavy
/// small-k heap, the default, and a wide root (k ∈ {4, 8, 32}).
#[test]
fn histories_are_identical_across_platforms_for_all_k() {
    for k in [4usize, 8, 32] {
        let o = BgpqOptions { node_capacity: k, max_nodes: 1 << 10, ..Default::default() };
        let ops: Vec<Op> = {
            let mut rng = StdRng::seed_from_u64(0xC0FFEE + k as u64);
            (0..150)
                .map(|_| {
                    if rng.gen_bool(0.55) {
                        let c = rng.gen_range(1..=k);
                        Op::Insert((0..c).map(|_| rng.gen_range(0..1 << 30)).collect())
                    } else {
                        Op::Delete(rng.gen_range(1..=k))
                    }
                })
                .collect()
        };

        let cpu: CpuBgpq<u32, u32> = CpuBgpq::new(o).with_history();
        {
            let mut out = Vec::new();
            for op in &ops {
                match op {
                    Op::Insert(keys) => {
                        let items: Vec<Entry<u32, u32>> =
                            keys.iter().map(|&x| Entry::new(x, x)).collect();
                        cpu.insert_batch(&items);
                    }
                    Op::Delete(n) => {
                        out.clear();
                        cpu.delete_min_batch(&mut out, *n);
                    }
                }
            }
        }
        let cpu_events = cpu.inner().take_history();

        let ops2 = ops.clone();
        let gpu = GpuConfig::new(1, 128);
        let (_, q) = launch(
            gpu,
            |sched| {
                let p = SimPlatform::new(sched, o.max_nodes + 1, gpu.cost, gpu.block_dim);
                Bgpq::<u32, u32, _>::with_platform(p, o).with_history()
            },
            |ctx, q| {
                let mut out = Vec::new();
                for op in &ops2 {
                    match op {
                        Op::Insert(keys) => {
                            let items: Vec<Entry<u32, u32>> =
                                keys.iter().map(|&x| Entry::new(x, x)).collect();
                            q.insert(ctx.worker(), &items);
                        }
                        Op::Delete(n) => {
                            out.clear();
                            q.delete_min(ctx.worker(), &mut out, *n);
                        }
                    }
                }
            },
        );
        let sim_events = q.take_history();

        assert!(bgpq::check_history(&cpu_events).is_none(), "k={k}: cpu history linearizes");
        let cpu_seq_ops: Vec<_> = cpu_events.iter().map(|e| (e.seq, e.op.clone())).collect();
        let sim_seq_ops: Vec<_> = sim_events.iter().map(|e| (e.seq, e.op.clone())).collect();
        assert_eq!(cpu_seq_ops, sim_seq_ops, "k={k}: linearization histories must be identical");
        assert_eq!(q.len(), BatchPriorityQueue::<u32, u32>::len(&cpu), "k={k}: lengths differ");
        q.check_invariants();
        cpu.inner().check_invariants();
    }
}

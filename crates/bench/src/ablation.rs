//! Design-choice ablations (DESIGN.md experiment E7): what each of
//! BGPQ's collaboration mechanisms buys, on the virtual-time simulator.
//!
//! * partial buffer on/off (insert batching, §4.3),
//! * TARGET/MARKED key stealing on/off (§4.3),
//! * delete batch granularity (root-cache batching): m = k vs m = 1.
//!
//! `bench ablation [--scale small|medium|full]`

use crate::report::{ms, Table};
use crate::sim::{bgpq_sim_insdel_batched, sim_bgpq};
use crate::Scale;
use bgpq::BgpqOptions;
use gpu_sim::{launch, GpuConfig};
use pq_api::Entry;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use workloads::{generate_keys, KeyDist};

/// Insert-batch granularity: the partial buffer lets small inserts
/// amortize into one heapify per `k` keys — without it, every partial
/// batch would walk the tree (the fixed-batch P-Sync restriction the
/// paper contrasts against). Heapify counts make the amortization
/// visible: they track keys/k, not the op count.
fn buffer_ablation(scale: Scale, gpu: GpuConfig, t: &mut Table) {
    let n = scale.fig6_keys() / 4;
    let keys = generate_keys(n, KeyDist::Random, 0xAB1);
    let k = 1024;
    for batch in [k, k / 4, k / 16] {
        let timing = bgpq_sim_insdel_batched(gpu, k, batch, &keys);
        t.row(vec![
            format!("buffer, batch={batch}"),
            format!("{} inserts -> {} heapifies", timing.inserts, timing.insert_heapifies),
            ms(timing.insert_ms),
            ms(timing.delete_ms),
            format!("{:.2}", timing.insert_buffer_hit_rate),
            format!("{}", timing.collaborations),
        ]);
    }
}

/// Mixed insert/delete with tiny nodes: collaboration opportunities are
/// constant; toggling TARGET/MARKED shows the stealing win.
fn collaboration_ablation(scale: Scale, gpu: GpuConfig, t: &mut Table) {
    let rounds = match scale {
        Scale::Small => 50,
        Scale::Medium => 200,
        Scale::Full => 800,
    };
    for (label, collab) in [("collab=on", true), ("collab=off", false)] {
        let opts = BgpqOptions {
            node_capacity: 32,
            max_nodes: 4 * gpu.num_blocks * rounds + 8,
            use_collaboration: collab,
            ..Default::default()
        };
        let counter = AtomicUsize::new(0);
        let (report, q) = launch(
            gpu,
            |sched| sim_bgpq::<u32, ()>(sched, gpu, opts),
            |ctx, q| {
                let mut out = Vec::new();
                let mut i = 0u32;
                while counter.fetch_add(1, Ordering::Relaxed) < rounds * gpu.num_blocks {
                    let base = ctx.block_id() as u32 * 1_000_000 + i * 64;
                    let items: Vec<Entry<u32, ()>> =
                        (0..32).map(|j| Entry::new(base + j, ())).collect();
                    q.insert(ctx.worker(), &items);
                    out.clear();
                    q.delete_min(ctx.worker(), &mut out, 32);
                    i += 1;
                }
            },
        );
        let stats = q.stats().snapshot();
        t.row(vec![
            label.into(),
            format!("{} tight ins/del rounds", rounds * gpu.num_blocks),
            ms(gpu.cost.cycles_to_ms(report.makespan_cycles)),
            "-".into(),
            format!("{:.2}", stats.insert_buffer_hit_rate()),
            format!("{}", stats.collaborations),
        ]);
    }
}

/// Delete granularity: popping k at once amortizes one heapify over k
/// keys (root-cache batching); popping 1 at a time pays per key.
fn delete_batch_ablation(scale: Scale, gpu: GpuConfig, t: &mut Table) {
    let n = scale.fig6_keys() / 4;
    let keys = generate_keys(n, KeyDist::Random, 0xAB2);
    let k = 1024;
    for (label, m) in [("delete m=k", k), ("delete m=k/16", k / 16)] {
        let opts = BgpqOptions::with_capacity_for(k, n + 2 * k);
        let batches: Vec<&[u32]> = keys.chunks(k).collect();
        let next = AtomicUsize::new(0);
        let deletes_total = n.div_ceil(m);
        let next_del = AtomicUsize::new(0);
        let (report, q) = launch(
            gpu,
            |sched| sim_bgpq::<u32, ()>(sched, gpu, opts),
            |ctx, q| {
                let mut items: Vec<Entry<u32, ()>> = Vec::with_capacity(k);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= batches.len() {
                        break;
                    }
                    items.clear();
                    items.extend(batches[i].iter().map(|&key| Entry::new(key, ())));
                    q.insert(ctx.worker(), &items);
                }
                let mut out: Vec<Entry<u32, ()>> = Vec::with_capacity(m);
                loop {
                    let i = next_del.fetch_add(1, Ordering::Relaxed);
                    if i >= deletes_total {
                        break;
                    }
                    out.clear();
                    q.delete_min(ctx.worker(), &mut out, m);
                }
            },
        );
        let stats = q.stats().snapshot();
        t.row(vec![
            label.into(),
            format!("{n} keys, pop {m}"),
            "-".into(),
            ms(gpu.cost.cycles_to_ms(report.makespan_cycles)),
            format!("{:.2}", stats.delete_root_hit_rate()),
            format!("{}", stats.collaborations),
        ]);
    }
}

/// Sorting-primitive choice (§4 names bitonic, merge and radix sort):
/// same results, different lock-step schedules, so the virtual-time
/// cost of the insert pre-sort differs.
fn sort_algo_ablation(scale: Scale, gpu: GpuConfig, t: &mut Table) {
    use primitives::SortAlgo;
    let n = scale.fig6_keys() / 4;
    let keys = generate_keys(n, KeyDist::Random, 0xAB3);
    let k = 1024;
    for (label, algo) in [
        ("sort=bitonic", SortAlgo::Bitonic),
        ("sort=merge", SortAlgo::MergeSort),
        ("sort=radix32", SortAlgo::Radix { rank_bits: 32 }),
    ] {
        let opts = BgpqOptions { sort_algo: algo, ..BgpqOptions::with_capacity_for(k, n + 2 * k) };
        let batches: Vec<&[u32]> = keys.chunks(k).collect();
        let next = AtomicUsize::new(0);
        let (report, q) = launch(
            gpu,
            |sched| sim_bgpq::<u32, ()>(sched, gpu, opts),
            |ctx, q| {
                let mut items: Vec<Entry<u32, ()>> = Vec::with_capacity(k);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= batches.len() {
                        break;
                    }
                    items.clear();
                    items.extend(batches[i].iter().map(|&key| Entry::new(key, ())));
                    q.insert(ctx.worker(), &items);
                }
            },
        );
        q.check_invariants();
        t.row(vec![
            label.into(),
            format!("{n} keys, full batches"),
            ms(gpu.cost.cycles_to_ms(report.makespan_cycles)),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
    }
}

pub fn run(scale: Scale) -> io::Result<()> {
    let gpu = GpuConfig::new(scale.sweep_blocks(), 512);
    eprintln!("ablation (scale {scale:?}, {} blocks)", gpu.num_blocks);
    let mut t = Table::new(
        "ablation",
        &["variant", "workload", "insert_ms", "delete_ms", "hit_rate", "collabs"],
    );
    buffer_ablation(scale, gpu, &mut t);
    collaboration_ablation(scale, gpu, &mut t);
    delete_batch_ablation(scale, gpu, &mut t);
    sort_algo_ablation(scale, gpu, &mut t);
    t.save()
}

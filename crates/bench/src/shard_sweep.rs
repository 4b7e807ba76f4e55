//! Sweep the sharded BGPQ front over shards × threads × sample width,
//! plus the buffered-vs-plain single-op front comparison.
//!
//! **Batch grid** (`mode = batch`): for every (S, c, threads) cell the
//! driver preloads a key set, runs a timed phase of paired
//! insert+delete batches across real threads, and reports wall-clock
//! throughput next to the *relaxation price*: mean and max per-delete
//! rank error (theoretical quiescent bound `S - c`), work-steal and
//! exact-sweep counts, and per-shard load imbalance. Every trial ends
//! with a full drain so conservation is checked on the way out.
//!
//! **Front comparison** (`mode = front-plain | front-buf`): single-op
//! traffic — the worst case for a sampled router, one sample + one
//! root-lock round-trip per key — issued either straight at the router
//! or through the per-worker buffered sticky front (staged inserts
//! flushed as k-batches, deletes served from a k-wide local refill).
//! Two sweeps, same workload shape:
//!
//! * **sim** — concurrent blocks on the virtual-time GPU simulator in
//!   simulated device time. This is the acceptance cell: at ≥ 8
//!   workers the buffered front must beat plain ≥ 2× with mean refill
//!   occupancy above half the refill width. Virtual time is where the
//!   batch economics are real: local serves touch no shared state, so
//!   they cost no device time, while every plain op pays the full
//!   sample + lock round-trip.
//! * **cpu** — the same sweep on OS threads in wall-clock time,
//!   recorded for context (single-core hosts serialize submitters; the
//!   JSON header says so).
//!
//! Results land in `bench_results/shard_sweep.csv` (layout pinned by
//! [`crate::SHARD_SWEEP_COLUMNS`]) and `bench_results/shard_sweep.json`
//! (per-cell throughput, ratio, occupancy, rank-error delta, and an
//! `acceptance` object computed from the loaded sim cells).
//!
//! `bench shard_sweep [--scale small|medium|full]`

use crate::report::{host_cores, Json, Table};
use crate::{Scale, Trials, SHARD_SWEEP_COLUMNS, TRIALS};
use bgpq_runtime::SimPlatform;
use bgpq_shard::{BufferPolicy, CpuShardedBgpq, ShardedBgpq, ShardedOptions};
use gpu_sim::{launch, GpuConfig};
use pq_api::{BatchPriorityQueue, Entry, StatsSnapshot};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use workloads::{generate_keys, KeyDist};

/// Batch width of the batch grid.
const BATCH: usize = 64;

/// Front-comparison fixed shape: S shards, c-of-S sampling, node width
/// k, and the buffered policy under test.
const FRONT_SHARDS: usize = 4;
const FRONT_SAMPLE: usize = 2;
const FRONT_K: usize = 8;
const FRONT_BUFFER: usize = 16;
const FRONT_REFILL: usize = 16;
const FRONT_STICKY: u32 = 4;
const FRONT_WORKERS: [usize; 5] = [1, 2, 4, 8, 16];

/// (preload keys, paired-op keys) per scale for the batch grid.
fn sizes(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Small => (1 << 13, 1 << 14),
        Scale::Medium => (1 << 16, 1 << 18),
        Scale::Full => (1 << 19, 1 << 21),
    }
}

fn front_policy() -> BufferPolicy {
    BufferPolicy::new()
        .with_insert_capacity(FRONT_BUFFER)
        .with_refill_width(FRONT_REFILL)
        .with_stickiness(FRONT_STICKY)
}

/// One timed batch-grid trial (preload, paired insert+delete phase,
/// drain) as its CSV row.
fn grid_row(shards: usize, sample: usize, threads: usize, scale: Scale) -> Vec<String> {
    let (n_init, n_pairs) = sizes(scale);
    let init = generate_keys(n_init, KeyDist::Random, 11);
    let pairs = generate_keys(n_pairs, KeyDist::Random, 13);
    let q: CpuShardedBgpq<u32, ()> = CpuShardedBgpq::new(ShardedOptions::with_capacity_for(
        shards,
        sample,
        BATCH,
        n_init + n_pairs,
    ));

    // Preload from the measurement threads' chunks so sticky affinity
    // spreads the initial load the same way the timed phase will.
    let chunk = init.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        for part in init.chunks(chunk) {
            s.spawn(|| {
                let mut items: Vec<Entry<u32, ()>> = Vec::with_capacity(BATCH);
                for b in part.chunks(BATCH) {
                    items.clear();
                    items.extend(b.iter().map(|&k| Entry::new(k, ())));
                    q.insert_batch(&items);
                }
            });
        }
    });
    assert_eq!(q.len(), init.len(), "preload lost keys");
    q.inner().reset_quality();

    let chunk = pairs.len().div_ceil(threads.max(1)).max(1);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for part in pairs.chunks(chunk) {
            s.spawn(|| {
                let mut items: Vec<Entry<u32, ()>> = Vec::with_capacity(BATCH);
                let mut out: Vec<Entry<u32, ()>> = Vec::with_capacity(BATCH);
                for b in part.chunks(BATCH) {
                    items.clear();
                    items.extend(b.iter().map(|&k| Entry::new(k, ())));
                    q.insert_batch(&items);
                    out.clear();
                    q.delete_min_batch(&mut out, b.len());
                }
            });
        }
    });
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
    let quality = q.inner().quality();
    let imbalance = q.inner().load_imbalance();

    // Exactness on the way out: the sweep fallback must drain every
    // shard and end exactly empty.
    assert_eq!(q.len(), init.len(), "paired phase must preserve size");
    let mut out: Vec<Entry<u32, ()>> = Vec::with_capacity(BATCH);
    let mut drained = 0usize;
    loop {
        out.clear();
        let got = q.delete_min_batch(&mut out, BATCH);
        if got == 0 {
            break;
        }
        drained += got;
    }
    assert_eq!(drained, init.len(), "drain must recover the preload exactly");
    assert!(q.is_empty());

    vec![
        "batch".to_string(),
        shards.to_string(),
        sample.to_string(),
        threads.to_string(),
        format!("{:.0}", 2.0 * pairs.len() as f64 / elapsed_ms.max(1e-9)),
        format!("{:.3}", quality.mean_rank_error()),
        quality.rank_error_max.to_string(),
        (shards - sample).to_string(),
        quality.steals.to_string(),
        quality.full_sweeps.to_string(),
        format!("{imbalance:.2}"),
        quality.salvages.to_string(),
        quality.readmissions.to_string(),
        quality.keys_lost.to_string(),
        "0".to_string(),
        "0".to_string(),
        "0.00".to_string(),
        "0.00".to_string(),
    ]
}

// ---------------------------------------------------------------------
// Front comparison: single-op traffic, plain vs buffered.
// ---------------------------------------------------------------------

/// One front cell: throughput (ops per simulated ms for sim, ops per
/// wall second for cpu) plus the router's record (its buffer counters
/// are zero for plain cells).
#[derive(Clone, Copy, Default)]
struct FrontCell {
    throughput: f64,
    stats: StatsSnapshot,
}

fn front_opts(workers: usize, pairs: usize, buffered: bool) -> ShardedOptions {
    let capacity = workers * pairs + workers * FRONT_K + (1 << 10);
    let mut opts = ShardedOptions::with_capacity_for(FRONT_SHARDS, FRONT_SAMPLE, FRONT_K, capacity);
    if buffered {
        opts = opts.with_buffering(front_policy());
    }
    opts
}

/// CPU front trial: every thread runs `pairs` iterations of one 1-wide
/// insert followed by one 1-wide delete-min, wall-clock timed,
/// median-of-trials. Conservation is asserted after a quiesce.
fn front_cpu(workers: usize, pairs: usize, buffered: bool) -> FrontCell {
    let trials = Trials::run(
        TRIALS,
        |_| {
            let q: CpuShardedBgpq<u32, u32> =
                CpuShardedBgpq::new(front_opts(workers, pairs, buffered));
            let deleted = AtomicU64::new(0);
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for t in 0..workers {
                    let q = &q;
                    let deleted = &deleted;
                    s.spawn(move || {
                        // Preload into the *shards* (like the sim
                        // trial) so refills have real work to take —
                        // without it every key ping-pongs through the
                        // slot's own stage and no shard is touched. A
                        // capacity-wide batch takes the direct route in
                        // buffered mode; plain mode needs ≤ k chunks.
                        let span = pairs + FRONT_BUFFER;
                        let base = (t * span) as u32;
                        let preload: Vec<Entry<u32, u32>> =
                            (0..FRONT_BUFFER as u32).map(|i| Entry::new(base + i, 0)).collect();
                        if buffered {
                            q.try_insert_batch(&preload).expect("preload fits");
                        } else {
                            for chunk in preload.chunks(FRONT_K) {
                                q.try_insert_batch(chunk).expect("preload fits");
                            }
                        }
                        let mut out: Vec<Entry<u32, u32>> = Vec::with_capacity(FRONT_REFILL);
                        for i in 0..pairs {
                            let key = base + (FRONT_BUFFER + i) as u32;
                            q.try_insert_batch(&[Entry::new(key, key)]).expect("capacity holds");
                            out.clear();
                            let got = q.try_delete_min_batch(&mut out, 1).expect("healthy front");
                            deleted.fetch_add(got as u64, Ordering::Relaxed);
                        }
                        q.flush().expect("flush");
                    });
                }
            });
            let secs = t0.elapsed().as_secs_f64();
            q.quiesce_all().expect("quiesce");
            let inserted = (workers * (pairs + FRONT_BUFFER)) as u64;
            assert_eq!(
                q.len() as u64 + deleted.load(Ordering::Relaxed),
                inserted,
                "front trial must conserve keys"
            );
            front_cell_from(q.inner(), (2 * workers * pairs) as f64 / secs.max(1e-9))
        },
        |c| c.throughput,
    );
    *trials.median()
}

fn front_cell_from(q: &ShardedBgpq<u32, u32, impl bgpq_runtime::Platform>, tp: f64) -> FrontCell {
    FrontCell { throughput: tp, stats: q.quality() }
}

type SimSharded = ShardedBgpq<u32, u32, SimPlatform>;

/// Sim front trial: one block per worker on the virtual-time
/// simulator, device-time measured. Each block preloads `FRONT_K` keys
/// (both modes pay it identically, inside the makespan) and then runs
/// 1-wide insert+delete pairs; buffered blocks quiesce their slot at
/// the end so the accounting includes the cleanup cost.
fn front_sim(workers: usize, pairs: usize, buffered: bool) -> FrontCell {
    let cfg = GpuConfig::new(workers, 32).with_fuzz_seed(11);
    let opts = front_opts(workers, pairs + FRONT_K, buffered);
    let deleted = AtomicU64::new(0);
    let (report, q) = launch(
        cfg,
        |sched| {
            let platforms = (0..FRONT_SHARDS)
                .map(|_| SimPlatform::new(sched, opts.queue.max_nodes + 1, cfg.cost, cfg.block_dim))
                .collect();
            ShardedBgpq::with_platforms(platforms, opts)
        },
        |ctx, q: &SimSharded| {
            let bid = ctx.block_id();
            let base = (bid * (pairs + FRONT_K)) as u32 * 2;
            let mut rng = 0x5EED_0000 + bid as u64;
            let mut out: Vec<Entry<u32, u32>> = Vec::with_capacity(FRONT_REFILL);
            let w = ctx.worker();
            // Preload k keys so the paired phase never runs dry.
            let preload: Vec<Entry<u32, u32>> =
                (0..FRONT_K as u32).map(|i| Entry::new(base + i, 0)).collect();
            q.try_insert(w, bid, &preload).expect("preload fits");
            for i in 0..pairs as u32 {
                let key = base + FRONT_K as u32 + i;
                if buffered {
                    q.buffered_try_insert(w, bid, &[Entry::new(key, 0)]).expect("capacity holds");
                    out.clear();
                    let got = q
                        .buffered_try_delete_min(w, bid, &mut rng, &mut out, 1)
                        .expect("healthy front");
                    deleted.fetch_add(got as u64, Ordering::Relaxed);
                } else {
                    q.try_insert(w, bid, &[Entry::new(key, 0)]).expect("capacity holds");
                    out.clear();
                    let got = q.try_delete_min(w, &mut rng, &mut out, 1).expect("healthy front");
                    deleted.fetch_add(got as u64, Ordering::Relaxed);
                }
            }
            if buffered {
                q.quiesce_slot(w, bid).expect("quiesce");
            }
        },
    );
    let inserted = (workers * (pairs + FRONT_K)) as u64;
    assert_eq!(
        q.len() as u64 + deleted.load(Ordering::Relaxed),
        inserted,
        "sim front trial must conserve keys"
    );
    assert_eq!(q.buffered_len(), 0, "quiesced slots leave nothing parked");
    let ops = (2 * pairs * workers) as f64;
    front_cell_from(&q, ops / report.makespan_ms)
}

struct FrontRow {
    workers: usize,
    plain: FrontCell,
    buffered: FrontCell,
}

impl FrontRow {
    fn ratio(&self) -> f64 {
        self.buffered.throughput / self.plain.throughput
    }
    fn rank_err_delta(&self) -> f64 {
        self.buffered.stats.mean_rank_error() - self.plain.stats.mean_rank_error()
    }
}

fn front_sweep(
    label: &str,
    pairs: usize,
    run: impl Fn(usize, usize, bool) -> FrontCell,
) -> Vec<FrontRow> {
    let mut rows = Vec::new();
    for &n in &FRONT_WORKERS {
        let row =
            FrontRow { workers: n, plain: run(n, pairs, false), buffered: run(n, pairs, true) };
        eprintln!(
            "  {label} x{n:>2}: plain {:>12.0}, buffered {:>12.0} ({:.2}x, refill occupancy \
             {:.2}, sticky reuse {:.2}, rank err {:.3} -> {:.3})",
            row.plain.throughput,
            row.buffered.throughput,
            row.ratio(),
            row.buffered.stats.mean_refill_occupancy(),
            row.buffered.stats.sticky_reuse_rate(),
            row.plain.stats.mean_rank_error(),
            row.buffered.stats.mean_rank_error(),
        );
        rows.push(row);
    }
    rows
}

fn front_json_rows(rows: &[FrontRow]) -> impl Iterator<Item = Json> + '_ {
    rows.iter().map(|row| {
        Json::default()
            .num("workers", row.workers)
            .num("plain", format!("{:.1}", row.plain.throughput))
            .num("buffered", format!("{:.1}", row.buffered.throughput))
            .num("ratio", format!("{:.3}", row.ratio()))
            .num("refill_occupancy", format!("{:.3}", row.buffered.stats.mean_refill_occupancy()))
            .num("sticky_reuse_rate", format!("{:.3}", row.buffered.stats.sticky_reuse_rate()))
            .num("flushes", row.buffered.stats.buffer_flushes)
            .num("refills", row.buffered.stats.buffer_refills)
            .num("rank_err_plain", format!("{:.3}", row.plain.stats.mean_rank_error()))
            .num("rank_err_buffered", format!("{:.3}", row.buffered.stats.mean_rank_error()))
            .num("rank_max_plain", row.plain.stats.rank_error_max)
            .num("rank_max_buffered", row.buffered.stats.rank_error_max)
    })
}

fn front_csv_rows(table: &mut Table, rows: &[FrontRow]) {
    for row in rows {
        for (mode, cell) in [("front-plain", &row.plain), ("front-buf", &row.buffered)] {
            table.row(vec![
                mode.to_string(),
                FRONT_SHARDS.to_string(),
                FRONT_SAMPLE.to_string(),
                row.workers.to_string(),
                format!("{:.0}", cell.throughput),
                format!("{:.3}", cell.stats.mean_rank_error()),
                cell.stats.rank_error_max.to_string(),
                (FRONT_SHARDS - 1).to_string(),
                "0".to_string(),
                "0".to_string(),
                "1.00".to_string(),
                "0".to_string(),
                "0".to_string(),
                "0".to_string(),
                cell.stats.buffer_flushes.to_string(),
                cell.stats.buffer_refills.to_string(),
                format!("{:.2}", cell.stats.mean_refill_occupancy()),
                format!("{:.2}", cell.stats.sticky_reuse_rate()),
            ]);
        }
    }
}

pub fn run(scale: Scale) -> io::Result<()> {
    let mut table = Table::new("shard_sweep", &SHARD_SWEEP_COLUMNS);
    for &shards in &[1usize, 2, 4, 8] {
        for &sample in &[1usize, 2, 4] {
            if sample > shards {
                continue;
            }
            for &threads in &[1usize, 2, 4, 8] {
                table.row(grid_row(shards, sample, threads, scale));
            }
        }
    }

    let (cpu_pairs, sim_pairs) = scale.single_op_pairs();
    eprintln!(
        "front comparison: S = {FRONT_SHARDS}, c = {FRONT_SAMPLE}, k = {FRONT_K}, buffer \
         {FRONT_BUFFER}, refill {FRONT_REFILL}, stickiness {FRONT_STICKY}, {cpu_pairs} cpu \
         pairs, {sim_pairs} sim pairs, {} host cores",
        host_cores()
    );
    eprintln!("sim sweep (device time, ops per simulated ms):");
    let sim_rows = front_sweep("sim", sim_pairs, front_sim);
    eprintln!("cpu sweep (wall clock, ops per second):");
    let cpu_rows = front_sweep("cpu", cpu_pairs, front_cpu);
    front_csv_rows(&mut table, &sim_rows);

    table.save()?;

    // Acceptance: the loaded sim cells (≥ 8 concurrent workers) in
    // device time — the regime the buffered front exists for. Best
    // loaded cell must clear 2× with mean refill occupancy above half
    // the node width `k` (each refill must deliver more than half a
    // node's worth of keys, else the wide delete isn't amortizing),
    // and the rank-error delta is reported alongside.
    let best = sim_rows
        .iter()
        .filter(|r| r.workers >= 8)
        .max_by(|a, b| a.ratio().total_cmp(&b.ratio()))
        .expect("FRONT_WORKERS includes a loaded point");
    let occupancy_floor = FRONT_K as f64 / 2.0;
    let pass = best.ratio() >= 2.0 && best.buffered.stats.mean_refill_occupancy() > occupancy_floor;
    eprintln!(
        "acceptance (sim, {} workers): ratio {:.2} (need >= 2.0), refill occupancy {:.2} \
         (need > {:.1}), rank err delta {:+.3} => {}",
        best.workers,
        best.ratio(),
        best.buffered.stats.mean_refill_occupancy(),
        occupancy_floor,
        best.rank_err_delta(),
        if pass { "PASS" } else { "FAIL" }
    );

    let buffer = Json::default()
        .num("insert_capacity", FRONT_BUFFER)
        .num("refill_width", FRONT_REFILL)
        .num("stickiness", FRONT_STICKY);
    let acceptance = Json::default()
        .str("basis", "sim_device_time")
        .num("workers", best.workers)
        .num("ratio", format!("{:.3}", best.ratio()))
        .num("refill_occupancy", format!("{:.3}", best.buffered.stats.mean_refill_occupancy()))
        .num("occupancy_floor", format!("{occupancy_floor:.1}"))
        .num("rank_err_delta", format!("{:.3}", best.rank_err_delta()))
        .num("pass", pass);
    Json::header("shard_sweep", scale)
        .num("shards", FRONT_SHARDS)
        .num("sample", FRONT_SAMPLE)
        .num("k", FRONT_K)
        .obj("buffer", buffer)
        .num("cpu_pairs_per_thread", cpu_pairs)
        .num("sim_pairs_per_block", sim_pairs)
        .rows("sim_device_time", front_json_rows(&sim_rows))
        .rows("cpu_wall_clock", front_json_rows(&cpu_rows))
        .obj("acceptance", acceptance)
        .str(
            "note",
            "sim_device_time models truly concurrent workers where buffered local serves cost no \
             device time while every plain op pays a sample plus a root-lock round-trip; it is \
             the acceptance basis.",
        )
        .save("shard_sweep")
}

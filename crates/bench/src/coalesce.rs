//! Coalescing-front sweep: single-op insert/delete-min traffic issued
//! either as a naive single-op loop straight at the queue (1-wide
//! batches, one heap lock round-trip per key) or through the
//! `bgpq-combine` flat-combining front (requests coalesce into
//! up-to-`k`-wide batches; a lone submitter calls the queue directly,
//! and each gathered round is issued outside the combiner lock, so
//! rounds overlap in the queue).
//!
//! Two sweeps, same workload shape (every submitter runs `pairs`
//! iterations of one single-item insert followed by one single-item
//! delete-min):
//!
//! * **sim** — concurrent blocks on the virtual-time GPU simulator,
//!   measured in simulated device time. This is the acceptance cell:
//!   at ≥ 8 blocks the coalesced path must beat the naive loop ≥ 2×
//!   with mean issued batch occupancy > `k/2`. Virtual time is where
//!   batch economics are real: submitters genuinely overlap, so
//!   requests arrive while a gather lingers and rounds fill.
//! * **cpu** — the same sweep with OS threads over `CpuBgpq` in
//!   wall-clock time, each cell the median of three runs. Threads
//!   beyond the host's cores time-slice, so arrivals rarely outpace
//!   service and rounds stay narrow; the JSON header records
//!   `host_cores` so the cells can be read for what they are.
//!
//! Results land in `bench_results/coalesce.csv` and
//! `bench_results/coalesce.json` (per-cell throughput, ratio,
//! occupancy, and an `acceptance` object computed from the loaded sim
//! cells).
//!
//! `bench coalesce [--scale small|medium|full]`

use crate::report::{host_cores, Json, Table};
use crate::sim::sim_bgpq;
use crate::{Scale, Trials, TRIALS};
use bgpq::{Bgpq, BgpqOptions, CpuBgpq};
use bgpq_combine::{CombineBackend, CombineShared, Combiner, CombinerOptions, Op};
use bgpq_runtime::{Platform, SimPlatform};
use gpu_sim::sched::SimWorker;
use gpu_sim::{launch, GpuConfig};
use pq_api::{Entry, QueueError};
use std::io;
use std::time::Instant;

const SUBMITTERS: [usize; 6] = [1, 2, 4, 8, 16, 32];
/// Node width: the sweep targets single-op traffic, where the
/// interesting regime is round width ≈ submitter count, not the heap's
/// full node width.
const K: usize = 8;

/// One sweep cell: throughput (wall ops/s for cpu, ops per simulated
/// ms for sim), the front's mean items per issued insert batch (1.0 by
/// construction for naive cells), and the largest over the smallest
/// throughput of the cell's runs (1.0 for a sim cell, which is one
/// deterministic run).
#[derive(Clone, Copy)]
struct Cell {
    throughput: f64,
    mean_occupancy: f64,
    spread: f64,
}

// ---------------------------------------------------------------------
// CPU sweep: OS threads, wall-clock time.
// ---------------------------------------------------------------------

fn cpu_queue(preload: usize, headroom: usize) -> CpuBgpq<u32, u32> {
    let q = CpuBgpq::new(BgpqOptions::with_capacity_for(K, preload + headroom));
    let mut batch: Vec<Entry<u32, u32>> = Vec::with_capacity(K);
    for base in (0..preload as u32).step_by(K) {
        batch.clear();
        batch.extend((base..(base + K as u32).min(preload as u32)).map(|x| Entry::new(x, x)));
        q.try_insert_batch(&batch).expect("preload fits");
    }
    q
}

/// Median-of-trials over one full multi-threaded run, with the runs'
/// spread.
fn median_cell(mut run: impl FnMut() -> Cell) -> Cell {
    let trials = Trials::run(TRIALS, |_| run(), |c| c.throughput);
    Cell { spread: trials.spread(), ..*trials.median() }
}

/// Naive mode: every thread drives `CpuBgpq`'s hardened batch paths
/// with 1-wide batches — the exact traffic shape the front exists to
/// fix.
fn cpu_naive(threads: usize, pairs: usize) -> Cell {
    median_cell(|| {
        let q = cpu_queue(1 << 10, threads * K + K);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for t in 0..threads {
                let q = &q;
                s.spawn(move || {
                    let mut out: Vec<Entry<u32, u32>> = Vec::with_capacity(1);
                    for i in 0..pairs {
                        let key = (t * pairs + i) as u32;
                        q.try_insert_batch(&[Entry::new(key, key)]).expect("capacity holds");
                        out.clear();
                        q.try_delete_min_batch(&mut out, 1).expect("healthy queue");
                    }
                });
            }
        });
        let secs = t0.elapsed().as_secs_f64();
        Cell { throughput: (2 * pairs * threads) as f64 / secs, mean_occupancy: 1.0, spread: 1.0 }
    })
}

/// Coalesced mode: the same traffic submitted through the combining
/// front.
fn cpu_combined(threads: usize, pairs: usize) -> Cell {
    median_cell(|| {
        let q = Combiner::wrap(cpu_queue(1 << 10, threads * K + K));
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for t in 0..threads {
                let q = &q;
                s.spawn(move || {
                    for i in 0..pairs {
                        let key = (t * pairs + i) as u32;
                        q.try_insert(key, key).expect("capacity holds");
                        q.try_delete_min().expect("healthy front");
                    }
                });
            }
        });
        let secs = t0.elapsed().as_secs_f64();
        let snap = q.stats().snapshot();
        let mean_occupancy =
            if snap.inserts > 0 { snap.items_inserted as f64 / snap.inserts as f64 } else { 0.0 };
        Cell { throughput: (2 * pairs * threads) as f64 / secs, mean_occupancy, spread: 1.0 }
    })
}

// ---------------------------------------------------------------------
// Simulator sweep: concurrent blocks, device time.
// ---------------------------------------------------------------------

type SimQueue = Bgpq<u32, u32, SimPlatform>;

fn sim_opts(blocks: usize, pairs: usize) -> BgpqOptions {
    BgpqOptions {
        node_capacity: K,
        max_nodes: ((blocks * pairs).div_ceil(K) + blocks + 2).next_power_of_two(),
        ..Default::default()
    }
}

/// Naive mode on the simulator: each block agent issues 1-wide batches
/// straight at the shared sim heap, paying the full lock round-trip in
/// device time per key.
fn sim_naive(blocks: usize, pairs: usize) -> Cell {
    let cfg = GpuConfig::new(blocks, 32).with_fuzz_seed(11);
    let opts = sim_opts(blocks, pairs);
    let (report, _q) = launch(
        cfg,
        |sched| sim_bgpq(sched, cfg, opts),
        move |ctx, q: &SimQueue| {
            let bid = ctx.block_id() as u32;
            let w = ctx.worker();
            let mut out: Vec<Entry<u32, u32>> = Vec::with_capacity(1);
            for i in 0..pairs as u32 {
                let key = bid * 1_000_000 + i;
                q.try_insert(w, &[Entry::new(key, key)]).expect("capacity holds");
                out.clear();
                q.try_delete_min(w, &mut out, 1).expect("healthy queue");
            }
        },
    );
    let ops = (2 * pairs * blocks) as f64;
    Cell { throughput: ops / report.makespan_ms, mean_occupancy: 1.0, spread: 1.0 }
}

/// Combining backend for a simulated block (same shape as the
/// integration tests): batched calls to the shared sim heap, waiting
/// yields virtual time through the platform's backoff, lane = block.
struct SimBackend<'a> {
    q: &'a SimQueue,
    w: &'a mut SimWorker,
    lane: usize,
}

impl CombineBackend<u32, u32> for SimBackend<'_> {
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

    fn lane(&self) -> usize {
        self.lane
    }
}

type SimFront = (SimQueue, CombineShared<u32, u32>);

/// Coalesced mode on the simulator: the same traffic through the
/// combining front, polling in virtual time.
fn sim_combined(blocks: usize, pairs: usize) -> Cell {
    let cfg = GpuConfig::new(blocks, 32).with_fuzz_seed(11);
    let opts = sim_opts(blocks, pairs);
    let (report, st) = launch(
        cfg,
        |sched| -> SimFront {
            let q = sim_bgpq(sched, cfg, opts);
            let front = CombineShared::new(q.node_capacity(), CombinerOptions::default());
            (q, front)
        },
        move |ctx, st: &SimFront| {
            let lane = ctx.block_id();
            let mut backend = SimBackend { q: &st.0, w: ctx.worker(), lane };
            let bid = lane as u32;
            for i in 0..pairs as u32 {
                let key = bid * 1_000_000 + i;
                st.1.submit(&mut backend, Op::Insert(Entry::new(key, key)))
                    .expect("capacity holds");
                st.1.submit(&mut backend, Op::DeleteMin).expect("healthy front");
            }
        },
    );
    let (_, front) = st;
    let snap = front.stats().snapshot();
    let mean_occupancy =
        if snap.inserts > 0 { snap.items_inserted as f64 / snap.inserts as f64 } else { 0.0 };
    let ops = (2 * pairs * blocks) as f64;
    Cell { throughput: ops / report.makespan_ms, mean_occupancy, spread: 1.0 }
}

// ---------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------

struct Row {
    submitters: usize,
    naive: Cell,
    combined: Cell,
}

impl Row {
    fn ratio(&self) -> f64 {
        self.combined.throughput / self.naive.throughput
    }
}

fn sweep(
    label: &str,
    pairs: usize,
    naive: impl Fn(usize, usize) -> Cell,
    combined: impl Fn(usize, usize) -> Cell,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in &SUBMITTERS {
        let row = Row { submitters: n, naive: naive(n, pairs), combined: combined(n, pairs) };
        eprintln!(
            "  {label} x{n:>2}: naive {:>12.0}, coalesced {:>12.0} ({:.2}x, occupancy {:.2}, \
             spread {:.2} / {:.2})",
            row.naive.throughput,
            row.combined.throughput,
            row.ratio(),
            row.combined.mean_occupancy,
            row.naive.spread,
            row.combined.spread
        );
        rows.push(row);
    }
    rows
}

fn json_rows(rows: &[Row]) -> impl Iterator<Item = Json> + '_ {
    rows.iter().map(|row| {
        Json::default()
            .num("submitters", row.submitters)
            .num("naive", format!("{:.1}", row.naive.throughput))
            .num("coalesced", format!("{:.1}", row.combined.throughput))
            .num("ratio", format!("{:.3}", row.ratio()))
            .num("mean_occupancy", format!("{:.3}", row.combined.mean_occupancy))
            .num("naive_spread", format!("{:.2}", row.naive.spread))
            .num("coalesced_spread", format!("{:.2}", row.combined.spread))
    })
}

pub fn run(scale: Scale) -> io::Result<()> {
    let (cpu_pairs, sim_pairs) = scale.single_op_pairs();
    eprintln!(
        "coalesce: scale {scale:?}, k = {K}, submitters {SUBMITTERS:?}, {cpu_pairs} cpu pairs, \
         {sim_pairs} sim pairs, {} host cores",
        host_cores()
    );

    eprintln!("sim sweep (device time, ops per simulated ms):");
    let sim_rows = sweep("sim", sim_pairs, sim_naive, sim_combined);
    eprintln!("cpu sweep (wall clock, ops per second):");
    let cpu_rows = sweep("cpu", cpu_pairs, cpu_naive, cpu_combined);

    let mut table = Table::new(
        "coalesce",
        &[
            "sweep",
            "submitters",
            "naive",
            "coalesced",
            "ratio",
            "mean_occupancy",
            "naive_spread",
            "coalesced_spread",
        ],
    );
    for (label, rows) in [("sim", &sim_rows), ("cpu", &cpu_rows)] {
        for row in rows {
            table.row(vec![
                label.to_string(),
                row.submitters.to_string(),
                format!("{:.0}", row.naive.throughput),
                format!("{:.0}", row.combined.throughput),
                format!("{:.2}", row.ratio()),
                format!("{:.2}", row.combined.mean_occupancy),
                format!("{:.2}", row.naive.spread),
                format!("{:.2}", row.combined.spread),
            ]);
        }
    }
    table.save()?;

    // Acceptance: the loaded sim cells (≥ 8 concurrent submitters) in
    // device time — the regime the front exists for. Best loaded cell
    // must clear 2× with occupancy above half the node width.
    let best = sim_rows
        .iter()
        .filter(|r| r.submitters >= 8)
        .max_by(|a, b| a.ratio().total_cmp(&b.ratio()))
        .expect("SUBMITTERS includes a loaded point");
    let floor = K as f64 / 2.0;
    let pass = best.ratio() >= 2.0 && best.combined.mean_occupancy > floor;
    eprintln!(
        "acceptance (sim, {} submitters): ratio {:.2} (need >= 2.0), occupancy {:.2} (need > \
         {floor:.1}) => {}",
        best.submitters,
        best.ratio(),
        best.combined.mean_occupancy,
        if pass { "PASS" } else { "FAIL" }
    );

    let acceptance = Json::default()
        .str("basis", "sim_device_time")
        .num("submitters", best.submitters)
        .num("ratio", format!("{:.3}", best.ratio()))
        .num("mean_occupancy", format!("{:.3}", best.combined.mean_occupancy))
        .num("occupancy_floor", format!("{floor:.1}"))
        .num("pass", pass);
    Json::header("coalesce", scale)
        .num("k", K)
        .num("cpu_pairs_per_thread", cpu_pairs)
        .num("sim_pairs_per_block", sim_pairs)
        .rows("sim_device_time", json_rows(&sim_rows))
        .rows("cpu_wall_clock", json_rows(&cpu_rows))
        .obj("acceptance", acceptance)
        .str(
            "note",
            "the sim_device_time sweep models truly concurrent submitters and is the acceptance \
             basis.",
        )
        .save("coalesce")
}

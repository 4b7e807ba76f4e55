//! Regenerates **Table 2** of the paper: synthetic insert/delete
//! (3 sizes × 3 key distributions × all queues), heap-utilization rows,
//! 0-1 knapsack rows, and A* rows — with the paper's speedup columns
//! (B/T, B/S, B/C, B/L, B/P).
//!
//! `bench table2 [all|insdel|util|knapsack|astar] [--scale small|medium|full]`
//!
//! BGPQ and P-Sync run on the virtual-time GPU simulator (simulated ms,
//! TITAN-X-calibrated cost model); CPU baselines run on [`THREADS`] real
//! threads in wall-clock ms, each cell the median of [`TRIALS`] runs on a
//! fresh queue. A row's `cpu_spread` is the largest max ÷ min of its CPU
//! cells' runs. Absolute values are not comparable to the paper's
//! testbed — EXPERIMENTS.md records whether the *shapes* hold.

use crate::cpu::{build_queue, cpu_insdel, cpu_util, QueueKind};
use crate::report::{ms, speedup, Table};
use crate::sim::{bgpq_sim_insdel, bgpq_sim_util, psync_sim_insdel};
use crate::sim_apps::{astar_sim, knapsack_sim};
use crate::{Scale, Trials, TRIALS};
use apps::{solve_astar, solve_knapsack_budgeted, AstarNode, KsNode};
use gpu_sim::GpuConfig;
use std::io;
use std::time::Instant;
use workloads::{
    generate_keys, Correlation, Grid, GridSpec, KeyDist, KnapsackInstance, KnapsackSpec,
};

/// OS threads driving every CPU cell.
const THREADS: usize = 4;

struct Setup {
    scale: Scale,
    k: usize,
    gpu: GpuConfig,
}

/// The CPU cells of one row.
#[derive(Default)]
struct CpuRow {
    spread: f64,
}

/// A table2 table: `columns`, then the row's `cpu_spread`.
fn table(name: &str, columns: &[&str]) -> Table {
    Table::new(name, &[columns, &["cpu_spread"]].concat())
}

impl CpuRow {
    /// The median of [`TRIALS`] runs of `run`, which builds its own queue
    /// and returns its milliseconds and answer.
    fn cell<T: Copy>(&mut self, mut run: impl FnMut() -> (f64, T)) -> (f64, T) {
        let trials = Trials::run(TRIALS, |_| run(), |r| r.0);
        self.spread = self.spread.max(trials.spread());
        *trials.median()
    }

    fn spread(&self) -> String {
        format!("{:.2}", self.spread)
    }
}

fn insdel(a: &Setup) -> io::Result<()> {
    let mut t = table(
        "table2_insdel",
        &[
            "dist", "keys", "TBB", "Spray", "CBPQ", "LJSL", "Fine", "Shard", "P-Sync", "BGPQ",
            "B/T", "B/S", "B/C", "B/L", "B/P",
        ],
    );
    for n in a.scale.insdel_sizes() {
        for dist in KeyDist::ALL {
            eprintln!("[insdel] {} keys, {} ...", n, dist.label());
            let keys = generate_keys(n, dist, 0xB67D ^ n as u64);
            let mut cpu = CpuRow::default();
            let mut cell = |kind: QueueKind| {
                let run = || {
                    let q = build_queue::<u32, ()>(kind, n, a.k, THREADS);
                    let (i, d) = cpu_insdel(q.as_ref(), &keys, THREADS, a.k);
                    (i + d, ())
                };
                cpu.cell(run).0
            };
            let tbb = cell(QueueKind::Tbb);
            let spray = cell(QueueKind::Spray);
            let cbpq = cell(QueueKind::Cbpq);
            let ljsl = cell(QueueKind::Ljsl);
            let fine = cell(QueueKind::FineHeap);
            let shard = cell(QueueKind::BgpqShard);
            let psync = psync_sim_insdel(a.gpu, a.k, &keys).total_ms;
            let bgpq = bgpq_sim_insdel(a.gpu, a.k, &keys).total_ms;
            t.row(vec![
                dist.label().into(),
                format!("{}", n),
                ms(tbb),
                ms(spray),
                ms(cbpq),
                ms(ljsl),
                ms(fine),
                ms(shard),
                ms(psync),
                ms(bgpq),
                speedup(tbb, bgpq),
                speedup(spray, bgpq),
                speedup(cbpq, bgpq),
                speedup(ljsl, bgpq),
                speedup(psync, bgpq),
                cpu.spread(),
            ]);
        }
    }
    t.save()
}

fn util(a: &Setup) -> io::Result<()> {
    let mut t = table(
        "table2_util",
        &["init", "pairs", "TBB", "Spray", "LJSL", "Fine", "BGPQ", "B/T", "B/S", "B/L"],
    );
    let (inits, pairs_n) = a.scale.util_params();
    let pair_keys = generate_keys(pairs_n, KeyDist::Random, 0x7A1);
    for init_n in inits {
        eprintln!("[util] init {} ...", init_n);
        let init = generate_keys(init_n, KeyDist::Random, 0x9C3);
        // CBPQ and P-Sync are N/A in the paper's util rows (footnotes
        // 5/6); we match that.
        let mut cpu = CpuRow::default();
        let mut cell = |kind: QueueKind| {
            let run = || {
                let q = build_queue::<u32, ()>(kind, init_n + pairs_n, a.k, THREADS);
                (cpu_util(q.as_ref(), &init, &pair_keys, THREADS, a.k), ())
            };
            cpu.cell(run).0
        };
        let tbb = cell(QueueKind::Tbb);
        let spray = cell(QueueKind::Spray);
        let ljsl = cell(QueueKind::Ljsl);
        let fine = cell(QueueKind::FineHeap);
        let bgpq = bgpq_sim_util(a.gpu, a.k, &init, &pair_keys);
        t.row(vec![
            format!("{init_n}"),
            format!("{pairs_n}"),
            ms(tbb),
            ms(spray),
            ms(ljsl),
            ms(fine),
            ms(bgpq),
            speedup(tbb, bgpq),
            speedup(spray, bgpq),
            speedup(ljsl, bgpq),
            cpu.spread(),
        ]);
    }
    t.save()
}

fn knapsack(a: &Setup) -> io::Result<()> {
    let mut t = table(
        "table2_knapsack",
        &[
            "items", "budget", "TBB", "Spray", "LJSL", "Fine", "BGPQ-cpu", "BGPQ", "B/T", "B/S",
            "B/L",
        ],
    );
    let (items_list, budget) = a.scale.knapsack_params();
    for items in items_list {
        eprintln!("[knapsack] {} items ...", items);
        let inst =
            KnapsackInstance::generate(KnapsackSpec::new(items, Correlation::Weak, items as u64));
        let mut cpu = CpuRow::default();
        let mut run = |kind: QueueKind| {
            cpu.cell(|| {
                let q = build_queue::<u64, KsNode>(kind, 1 << 22, a.k.min(512), THREADS);
                let t0 = Instant::now();
                let r = solve_knapsack_budgeted(&inst, q.as_ref(), THREADS, Some(budget));
                (t0.elapsed().as_secs_f64() * 1e3, r.best_profit)
            })
        };
        let (tbb, p1) = run(QueueKind::Tbb);
        let (spray, _) = run(QueueKind::Spray);
        let (ljsl, _) = run(QueueKind::Ljsl);
        let (fine, _) = run(QueueKind::FineHeap);
        let (bgpq_cpu, p2) = run(QueueKind::BgpqCpu);
        // BGPQ on the simulated GPU — the paper's actual configuration.
        let gpu = knapsack_sim(a.gpu, a.k.min(512), &inst, Some(budget));
        // Strict queues under the same budget should agree closely.
        if p1 != p2 {
            eprintln!("  note: incumbents differ under budget (TBB {p1} vs BGPQ {p2})");
        }
        t.row(vec![
            format!("{items}"),
            format!("{budget}"),
            ms(tbb),
            ms(spray),
            ms(ljsl),
            ms(fine),
            ms(bgpq_cpu),
            ms(gpu.sim_ms),
            speedup(tbb, gpu.sim_ms),
            speedup(spray, gpu.sim_ms),
            speedup(ljsl, gpu.sim_ms),
            cpu.spread(),
        ]);
    }
    t.save()
}

fn astar(a: &Setup) -> io::Result<()> {
    let mut t = table(
        "table2_astar",
        &["grid", "obst%", "TBB", "Spray", "LJSL", "Fine", "BGPQ-cpu", "BGPQ", "B/T", "B/S", "B/L"],
    );
    let (sides, rates) = a.scale.astar_params();
    for side in sides {
        for &rate in &rates {
            eprintln!("[astar] {side}x{side}, {:.0}% obstacles ...", rate * 100.0);
            let grid = Grid::generate(GridSpec::new(side, rate, side as u64));
            // BGPQ on the simulated GPU — the paper's configuration.
            let gpu = astar_sim(a.gpu, a.k.min(512), &grid);
            let mut cpu = CpuRow::default();
            let mut run = |kind: QueueKind| {
                let run = || {
                    let q =
                        build_queue::<u64, AstarNode>(kind, grid.cells(), a.k.min(512), THREADS);
                    let t0 = Instant::now();
                    let r = solve_astar(&grid, q.as_ref(), THREADS);
                    assert_eq!(r.cost, Some(gpu.answer), "{} must find the optimum", kind.label());
                    (t0.elapsed().as_secs_f64() * 1e3, ())
                };
                cpu.cell(run).0
            };
            let tbb = run(QueueKind::Tbb);
            let spray = run(QueueKind::Spray);
            let ljsl = run(QueueKind::Ljsl);
            let fine = run(QueueKind::FineHeap);
            let bgpq_cpu = run(QueueKind::BgpqCpu);
            t.row(vec![
                format!("{side}x{side}"),
                format!("{:.0}", rate * 100.0),
                ms(tbb),
                ms(spray),
                ms(ljsl),
                ms(fine),
                ms(bgpq_cpu),
                ms(gpu.sim_ms),
                speedup(tbb, gpu.sim_ms),
                speedup(spray, gpu.sim_ms),
                speedup(ljsl, gpu.sim_ms),
                cpu.spread(),
            ]);
        }
    }
    t.save()
}

pub fn run(part: &str, scale: Scale) -> io::Result<()> {
    // Paper config: 128 blocks × 512 threads, 1024-key nodes (§6.1).
    // Block count is scaled down with the workload so sim runs stay
    // tractable.
    let (blocks, k) = match scale {
        Scale::Small => (16, 256),
        Scale::Medium => (32, 1024),
        Scale::Full => (128, 1024),
    };
    let a = Setup { scale, k, gpu: GpuConfig::new(blocks, 512) };
    eprintln!(
        "table2: {part} (scale {scale:?}, {THREADS} CPU threads x {TRIALS} trials, {blocks} \
         blocks x 512 threads, k={k})"
    );
    let all = part == "all";
    if all || part == "insdel" {
        insdel(&a)?;
    }
    if all || part == "util" {
        util(&a)?;
    }
    if all || part == "knapsack" {
        knapsack(&a)?;
    }
    if all || part == "astar" {
        astar(&a)?;
    }
    Ok(())
}

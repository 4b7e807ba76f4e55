//! # bench — the evaluation harness (Table 2 + Figure 6 + ablations)
//!
//! One binary, `bench <section> [part] [--scale small|medium|full]`
//! ([`cli`]), regenerates the paper's evaluation and the beyond-paper
//! sweeps. Its sections are `fig6`, `table2`, `ablation`, `memory`,
//! `shard_sweep`, `coalesce` and `recover`, one module each, over
//! shared drivers:
//!
//! * [`sim`] — BGPQ and P-Sync on the virtual-time GPU simulator
//!   (simulated milliseconds; this is the "GPU side" of every
//!   comparison — see DESIGN.md §2 for the substitution rationale);
//! * [`sim_apps`] — knapsack and A* inside simulated kernels;
//! * [`cpu`] — the CPU baselines driven by real OS threads and measured
//!   in wall-clock time, each cell the median of its trials;
//! * [`report`] — the one writer: tables, their CSV, and JSON headed by
//!   the host facts, all under `bench_results/`.

pub mod cli;
pub mod cpu;
pub mod report;
pub mod sim;
pub mod sim_apps;

mod ablation;
mod coalesce;
mod fig6;
mod memory;
mod recover;
mod shard_sweep;
mod table2;

/// Experiment scale presets so the full suite stays tractable on a
/// laptop-class host while preserving the paper's sweep structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long smoke runs (also used by integration tests).
    Small,
    /// Default: minutes-long, reproduces every shape.
    Medium,
    /// Closest to the paper's sizes that remains practical here.
    Full,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// Key counts for the "Ins & Del" rows (paper: 1M / 8M / 64M).
    pub fn insdel_sizes(self) -> Vec<usize> {
        match self {
            Scale::Small => vec![1 << 16],
            Scale::Medium => vec![1 << 20, 1 << 22],
            Scale::Full => vec![1 << 20, 1 << 23, 1 << 25],
        }
    }

    /// (initial keys, pair ops) for the utilization rows
    /// (paper: init {0, 1M, 8M}, then 64M pairs).
    pub fn util_params(self) -> (Vec<usize>, usize) {
        match self {
            Scale::Small => (vec![0, 1 << 14], 1 << 15),
            Scale::Medium => (vec![0, 1 << 17, 1 << 20], 1 << 20),
            Scale::Full => (vec![0, 1 << 20, 1 << 23], 1 << 22),
        }
    }

    /// Knapsack item counts (paper: 200..1000) and the node budget that
    /// fixes the amount of explored tree per queue.
    pub fn knapsack_params(self) -> (Vec<usize>, u64) {
        match self {
            Scale::Small => (vec![200, 400], 50_000),
            Scale::Medium => (vec![200, 400, 600, 800, 1000], 400_000),
            Scale::Full => (vec![200, 400, 600, 800, 1000], 4_000_000),
        }
    }

    /// A* grid sides (paper: 5K/10K/20K) and obstacle rates.
    pub fn astar_params(self) -> (Vec<usize>, Vec<f64>) {
        match self {
            Scale::Small => (vec![128], vec![0.10, 0.20]),
            Scale::Medium => (vec![512, 1024], vec![0.10, 0.20]),
            Scale::Full => (vec![1024, 2048, 4096], vec![0.10, 0.20]),
        }
    }

    /// Keys for the Fig. 6 sweeps (paper: 64M).
    pub fn fig6_keys(self) -> usize {
        match self {
            Scale::Small => 1 << 16,
            Scale::Medium => 1 << 19,
            Scale::Full => 1 << 22,
        }
    }

    /// Single-op insert+delete pairs per submitter in the coalesce and
    /// shard_sweep front sweeps, (cpu, sim): the simulator interprets
    /// every instruction, so its per-op wall cost is far higher, and
    /// device-time ratios converge with far fewer ops than wall-clock
    /// medians do.
    pub(crate) fn single_op_pairs(self) -> (usize, usize) {
        match self {
            Scale::Small => (2_000, 200),
            Scale::Medium => (10_000, 500),
            Scale::Full => (40_000, 2_000),
        }
    }

    /// Simulated thread blocks of the Fig. 6a/6b and ablation sweeps
    /// (paper: 128).
    pub(crate) fn sweep_blocks(self) -> usize {
        match self {
            Scale::Small => 8,
            Scale::Medium => 32,
            Scale::Full => 128,
        }
    }
}

/// Runs per wall-clock cell.
pub(crate) const TRIALS: usize = 3;

/// Runs of one wall-clock cell, sorted by the timing they are judged
/// by: host load moves a single run, so every CPU cell reports the
/// median run and the spread of its runs.
pub(crate) struct Trials<T>(Vec<(f64, T)>);

impl<T> Trials<T> {
    /// Run `trial` `n` times, passing the run's index.
    pub(crate) fn run(
        n: usize,
        mut trial: impl FnMut(usize) -> T,
        key: impl Fn(&T) -> f64,
    ) -> Self {
        let mut runs: Vec<(f64, T)> = (0..n)
            .map(|i| {
                let t = trial(i);
                (key(&t), t)
            })
            .collect();
        runs.sort_by(|a, b| a.0.total_cmp(&b.0));
        Trials(runs)
    }

    pub(crate) fn median(&self) -> &T {
        &self.0[self.0.len() / 2].1
    }

    /// The largest timing.
    pub(crate) fn max(&self) -> f64 {
        self.0[self.0.len() - 1].0
    }

    /// The largest timing over the smallest.
    pub(crate) fn spread(&self) -> f64 {
        self.max() / self.0[0].0
    }
}

/// Pinned column layout of `bench_results/shard_sweep.csv`. Downstream
/// tooling (CI artifact diffs, EXPERIMENTS.md tables) parses this file
/// by header name, so the layout is a compatibility surface: extend it
/// only by appending, and update the pinned-format test alongside.
///
/// `mode` distinguishes the batched-op grid (`batch`) from the
/// single-op front comparison on the simulator (`front-plain`,
/// `front-buf`); the four trailing columns are the buffered front's
/// counters and are zero for unbuffered rows.
pub const SHARD_SWEEP_COLUMNS: [&str; 18] = [
    "mode",
    "S",
    "c",
    "threads",
    "kops/s",
    "rank_err",
    "rank_max",
    "bound",
    "steals",
    "sweeps",
    "imbalance",
    "salvages",
    "readmit",
    "keys_lost",
    "flushes",
    "refills",
    "refill_occ",
    "sticky_reuse",
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The CSV layout is pinned: a change here must be deliberate and
    /// must keep existing columns at their positions (append-only).
    #[test]
    fn shard_sweep_csv_format_is_pinned() {
        assert_eq!(
            SHARD_SWEEP_COLUMNS.join(","),
            "mode,S,c,threads,kops/s,rank_err,rank_max,bound,steals,sweeps,imbalance,\
             salvages,readmit,keys_lost,flushes,refills,refill_occ,sticky_reuse"
        );
        let grid_cols = &SHARD_SWEEP_COLUMNS[..14];
        assert_eq!(grid_cols[0], "mode", "mode column leads");
        assert_eq!(grid_cols[4], "kops/s", "throughput column is stable");
        assert_eq!(SHARD_SWEEP_COLUMNS[14..], ["flushes", "refills", "refill_occ", "sticky_reuse"]);
    }

    #[test]
    fn trials_report_the_median_run_and_the_spread() {
        let times = [4.0, 1.0, 2.0, 8.0, 3.0];
        let t = Trials::run(5, |i| (i, times[i]), |r| r.1);
        assert_eq!(*t.median(), (4, 3.0));
        assert_eq!(t.max(), 8.0);
        assert_eq!(t.spread(), 8.0);
    }
}

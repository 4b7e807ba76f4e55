//! Schedule-exploration CLI.
//!
//! ```text
//! explore explore [--key-steal | --path-race | --collab-deep | --gen SEED]
//!                 [--front shard|combine]
//!                 [--k K] [--blocks B] [--ops N] [--mutate NAME]
//!                 [--budget P] [--max-runs R] [--no-sleep-sets]
//!                 [--random N] [--out FILE]
//! explore replay FILE [--expect-violation]
//! explore shrink FILE [--out FILE]
//! ```
//!
//! `explore` enumerates schedules (exhaustive DFS with sleep-set
//! partial-order reduction by default, unreduced with
//! `--no-sleep-sets`, random walks with `--random N`) and, on a
//! violation, shrinks the failing schedule and writes a replayable
//! `.sched` artifact. `--front` swaps the single shared queue for the
//! sharded-router or flat-combining workload; `--mutate NAME`
//! re-introduces a named protocol bug (`marked-early-avail`,
//! `sweep-discards-on-trip`, `combiner-drops-foreign`,
//! `path-wait-holds-target`). `--path-race` drives a delete racing an
//! insert for node 4's lock word instead of the key-steal workload, and
//! `--collab-deep` a delete stealing node 8 with keys in the pBuffer.
//! Exit status: 0 clean, 1 counterexample found, 2 usage/parse error.

use bgpq_explore::{
    explore, install_quiet_panic_hook, parse_mutation, random_walks, replay, shrink, summary_line,
    ExploreConfig, SchedFile, WorkloadSpec,
};
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  explore explore [--key-steal | --path-race | --collab-deep | --gen SEED]\n                  [--front shard|combine] [--k K] [--blocks B] [--ops N] [--mutate NAME]\n                  [--budget P] [--max-runs R] [--no-sleep-sets] [--random N] [--out FILE]\n  explore replay FILE [--expect-violation]\n  explore shrink FILE [--out FILE]"
    );
    ExitCode::from(2)
}

struct Args(Vec<String>);

impl Args {
    /// Value of `--flag`, parsed.
    fn opt<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.0.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => {
                let v = self.0.get(i + 1).ok_or(format!("{flag} needs a value"))?;
                v.parse().map(Some).map_err(|_| format!("bad value for {flag}: `{v}`"))
            }
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn build_spec(args: &Args) -> Result<WorkloadSpec, String> {
    let k: usize = args.opt("--k")?.unwrap_or(4);
    let mut spec = match args.opt::<String>("--front")?.as_deref() {
        Some("shard") => WorkloadSpec::sharded_mix(k),
        Some("combine") => WorkloadSpec::combined_mix(k),
        Some(other) => return Err(format!("unknown front `{other}` (shard|combine)")),
        None => {
            if let Some(seed) = args.opt::<u64>("--gen")? {
                let blocks = args.opt("--blocks")?.unwrap_or(3);
                let ops = args.opt("--ops")?.unwrap_or(8);
                WorkloadSpec::generated(seed, blocks, k, ops)
            } else if args.has("--path-race") {
                WorkloadSpec::path_race_mix(k)
            } else if args.has("--collab-deep") {
                WorkloadSpec::collab_deep_mix(k)
            } else {
                WorkloadSpec::key_steal_mix(k)
            }
        }
    };
    if let Some(name) = args.opt::<String>("--mutate")? {
        spec = spec.with_mutation(parse_mutation(&name)?);
    }
    Ok(spec)
}

fn cmd_explore(args: &Args) -> Result<ExitCode, String> {
    let spec = build_spec(args)?;
    let cfg = ExploreConfig {
        preemption_budget: args.opt("--budget")?.unwrap_or(2),
        max_runs: args.opt("--max-runs")?.unwrap_or(20_000),
        use_sleep_sets: !args.has("--no-sleep-sets"),
    };
    let started = Instant::now();
    let report = if let Some(walks) = args.opt::<usize>("--random")? {
        random_walks(&spec, walks, args.opt("--seed")?.unwrap_or(1), 70)
    } else {
        explore(&spec, &cfg)
    };
    println!("{}", summary_line(&report, started.elapsed()));
    let Some(ce) = report.counterexample else {
        println!("no violation found");
        return Ok(ExitCode::SUCCESS);
    };
    println!("VIOLATION: {}", ce.violation);
    println!(
        "failing schedule: {} override(s) over {} decisions",
        ce.overrides.len(),
        ce.decisions
    );
    let (min, replays) = shrink(&spec, &ce);
    println!(
        "shrunk to {} override(s) in {replays} replay(s): {}",
        min.overrides.len(),
        min.violation
    );
    let out = args.opt::<String>("--out")?.unwrap_or_else(|| "counterexample.sched".into());
    let file = SchedFile { spec, overrides: min.overrides };
    std::fs::write(&out, file.to_string()).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out}");
    Ok(ExitCode::FAILURE)
}

fn load(path: &str) -> Result<SchedFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    SchedFile::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_replay(path: &str, args: &Args) -> Result<ExitCode, String> {
    let file = load(path)?;
    let out = replay(&file.spec, &file.overrides);
    println!(
        "replayed {} decision(s), {} linearized op(s), {} protocol event(s)",
        out.decisions.len(),
        out.events.len(),
        out.protocol.len()
    );
    match (&out.violation, args.has("--expect-violation")) {
        (Some(v), true) => {
            println!("reproduced expected violation: {v}");
            Ok(ExitCode::SUCCESS)
        }
        (Some(v), false) => {
            println!("VIOLATION: {v}");
            Ok(ExitCode::FAILURE)
        }
        (None, true) => {
            println!("expected a violation but the schedule is clean");
            Ok(ExitCode::FAILURE)
        }
        (None, false) => {
            println!("schedule is clean");
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn cmd_shrink(path: &str, args: &Args) -> Result<ExitCode, String> {
    let file = load(path)?;
    let out = replay(&file.spec, &file.overrides);
    let Some(violation) = out.violation else {
        return Err(format!("{path}: schedule is clean — nothing to shrink"));
    };
    let ce = bgpq_explore::Counterexample {
        overrides: bgpq_explore::overrides_of(&out.decisions),
        violation,
        decisions: out.decisions.len(),
    };
    let (min, replays) = shrink(&file.spec, &ce);
    println!(
        "shrunk {} -> {} override(s) in {replays} replay(s): {}",
        file.overrides.len(),
        min.overrides.len(),
        min.violation
    );
    let dest = args.opt::<String>("--out")?.unwrap_or_else(|| path.to_string());
    let minimized = SchedFile { spec: file.spec, overrides: min.overrides };
    std::fs::write(&dest, minimized.to_string()).map_err(|e| format!("writing {dest}: {e}"))?;
    println!("wrote {dest}");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    install_quiet_panic_hook();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else { return usage() };
    let rest = Args(argv[1..].to_vec());
    let result = match cmd.as_str() {
        "explore" => cmd_explore(&rest),
        "replay" => match argv.get(1) {
            Some(path) if !path.starts_with("--") => cmd_replay(path, &rest),
            _ => return usage(),
        },
        "shrink" => match argv.get(1) {
            Some(path) if !path.starts_with("--") => cmd_shrink(path, &rest),
            _ => return usage(),
        },
        _ => return usage(),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

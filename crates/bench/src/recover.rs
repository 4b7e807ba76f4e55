//! Recovery benchmark: how fast does the self-healing path run, and
//! what does a crash cost in keys?
//!
//! Two measurements:
//!
//! * `salvage` — raw salvage throughput: walk + reset of a healthy
//!   preloaded `CpuBgpq` (the storage scan that dominates a recovery
//!   pass), median over trials, reported in keys/s.
//! * `mttr`    — mean time to repair on the sharded front: a fault
//!   plan crashes one shard under traffic, the breaker quarantines it,
//!   and the driver pumps tracked operations until the shard is
//!   salvaged, trial-served, and re-admitted. Wall-clock from
//!   quarantine to breaker-closed is the MTTR; the trial also reports
//!   ops-to-recover and the exact keys-lost accounting from the
//!   router's quality counters.
//!
//! Results land in `bench_results/recover.csv` and
//! `bench_results/recover.json` (MTTR and keys-lost are the acceptance
//! numbers tracked across changes).
//!
//! `bench recover [--scale small|medium|full]`

use crate::report::{Json, Table};
use crate::{Scale, Trials};
use bgpq::{BgpqOptions, CpuBgpq};
use bgpq_runtime::{CpuPlatform, CpuWorker, FaultAction, FaultPlan, InjectionPoint};
use bgpq_shard::{BreakerState, RecoveryOptions, ShardedBgpq, ShardedOptions};
use pq_api::{BatchPriorityQueue, Entry, StatsSnapshot};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::{generate_keys, KeyDist};

const TRIALS: usize = 5;

/// Salvaged keys per scale (raw-walk phase) and per-shard preload for
/// the MTTR phase.
fn sizes(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Small => (1 << 14, 1 << 10),
        Scale::Medium => (1 << 18, 1 << 13),
        Scale::Full => (1 << 20, 1 << 15),
    }
}

/// Raw salvage throughput: preload `n` keys, time `salvage` (walk +
/// reset), rebuild for the next trial is a fresh queue.
fn salvage_phase(n: usize, k: usize) -> (f64, f64) {
    let keys = generate_keys(n, KeyDist::Random, 31);
    let secs = Trials::run(
        TRIALS,
        |_| {
            let mut q: CpuBgpq<u32, u32> = CpuBgpq::new(BgpqOptions::with_capacity_for(k, n + k));
            for chunk in keys.chunks(k) {
                let items: Vec<Entry<u32, u32>> =
                    chunk.iter().map(|&key| Entry::new(key, key)).collect();
                q.insert_batch(&items);
            }
            let mut out = Vec::with_capacity(n);
            let t0 = Instant::now();
            let report = q.salvage(&mut out);
            let secs = t0.elapsed().as_secs_f64();
            assert_eq!(report.keys_recovered, n, "healthy salvage must recover everything");
            assert_eq!(report.keys_lost, 0);
            secs
        },
        |&secs| secs,
    );
    let med = *secs.median();
    (med * 1e3, n as f64 / med)
}

struct MttrTrial {
    mttr_ms: f64,
    ops_to_recover: u64,
    /// The router's record when the breaker closed.
    stats: StatsSnapshot,
}

/// One crash-to-readmission cycle on a 4-shard front.
fn mttr_trial(preload_per_shard: usize, k: usize, seed: u64) -> MttrTrial {
    const SHARDS: usize = 4;
    let queue = BgpqOptions::with_capacity_for(k, 2 * preload_per_shard + 2 * k);
    // Fire roughly when the crash loop has filled shard 0 to its target
    // occupancy, so the salvage pass walks a realistically loaded heap.
    let nth = (preload_per_shard / k).max(3) as u64;
    let plan = Arc::new(FaultPlan::new().with_rule(
        InjectionPoint::MidInsertHeapify,
        nth,
        FaultAction::Panic,
    ));
    let platforms: Vec<CpuPlatform> = (0..SHARDS)
        .map(|i| {
            let p = CpuPlatform::new(queue.max_nodes + 1).with_watchdog(Duration::from_millis(75));
            if i == 0 {
                p.with_faults(plan.clone())
            } else {
                p
            }
        })
        .collect();
    let opts = ShardedOptions::new(SHARDS, 2, queue).with_recovery(RecoveryOptions {
        base_backoff_ops: 64,
        max_backoff_ops: 1024,
        trial_ops: 8,
        max_generations: 8,
    });
    let q: ShardedBgpq<u32, u32, CpuPlatform> = ShardedBgpq::with_platforms(platforms, opts);

    // Preload the survivor shards only; shard 0 is filled by the crash
    // loop below so the armed heapify panic cannot fire during setup.
    let mut w = CpuWorker::new();
    let keys = generate_keys((SHARDS - 1) * preload_per_shard, KeyDist::Random, seed);
    for (i, chunk) in keys.chunks(k).enumerate() {
        let items: Vec<Entry<u32, u32>> = chunk.iter().map(|&key| Entry::new(key, key)).collect();
        let _ = q.try_insert(&mut w, 1 + (i % (SHARDS - 1)), &items);
    }

    // Crash shard 0: feed it full batches until the armed heapify panic
    // fires, then one more routed op notices the poison and quarantines.
    let mut i = 0u32;
    while plan.fired_count() == 0 {
        let batch: Vec<Entry<u32, u32>> =
            (0..k as u32).map(|j| Entry::new(1_000_000 + i + j, 0)).collect();
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _ = q.try_insert(&mut w, 0, &batch);
        }));
        i += k as u32;
        assert!(i < 50_000_000, "fault never fired");
    }
    while !q.is_quarantined(0) {
        let _ = q.try_insert(&mut w, 0, &[Entry::new(i, 0)]);
        i += 1;
    }

    // Recovery clock: pump tracked ops until the breaker closes again.
    let t0 = Instant::now();
    let mut ops = 0u64;
    while q.breaker_state(0) != BreakerState::Closed {
        let _ = q.try_insert(&mut w, (ops % SHARDS as u64) as usize, &[Entry::new(i, 0)]);
        i += 1;
        ops += 1;
        assert!(ops < 1_000_000, "breaker never closed: {:?}", q.quality());
    }
    let mttr_ms = t0.elapsed().as_secs_f64() * 1e3;

    MttrTrial { mttr_ms, ops_to_recover: ops, stats: q.quality() }
}

pub fn run(scale: Scale) -> io::Result<()> {
    let (salvage_n, preload_per_shard) = sizes(scale);
    let k = 64usize;
    eprintln!(
        "recover: scale {scale:?}, salvage walk over {salvage_n} keys, \
         MTTR with {preload_per_shard} keys/shard, {TRIALS} trials"
    );

    let (salvage_ms, salvage_keys_per_s) = salvage_phase(salvage_n, k);

    // Each MTTR trial deliberately crashes a shard; keep the injected
    // panic out of the bench output while leaving real failures loud.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.contains("injected fault"))
            .or_else(|| {
                info.payload().downcast_ref::<String>().map(|s| s.contains("injected fault"))
            })
            .unwrap_or(false);
        if !injected {
            default_hook(info);
        }
    }));
    let trials =
        Trials::run(TRIALS, |t| mttr_trial(preload_per_shard, k, 41 + t as u64), |t| t.mttr_ms);
    let _ = std::panic::take_hook();
    let mttr = trials.median();

    let mut table = Table::new(
        "recover",
        &["phase", "ms", "keys/s", "ops_to_recover", "probes", "keys_recovered", "keys_lost"],
    );
    table.row(vec![
        "salvage".into(),
        format!("{salvage_ms:.3}"),
        format!("{salvage_keys_per_s:.0}"),
        "-".into(),
        "-".into(),
        salvage_n.to_string(),
        "0".into(),
    ]);
    table.row(vec![
        "mttr".into(),
        format!("{:.3}", mttr.mttr_ms),
        "-".into(),
        mttr.ops_to_recover.to_string(),
        mttr.stats.probes.to_string(),
        mttr.stats.keys_recovered.to_string(),
        mttr.stats.keys_lost.to_string(),
    ]);
    table.save()?;

    Json::header("recover", scale)
        .num("k", k)
        .num("salvage_keys", salvage_n)
        .num("salvage_ms", format!("{salvage_ms:.3}"))
        .num("salvage_keys_per_s", format!("{salvage_keys_per_s:.1}"))
        .num("mttr_ms_median", format!("{:.3}", mttr.mttr_ms))
        .num("mttr_ms_max", format!("{:.3}", trials.max()))
        .num("ops_to_recover", mttr.ops_to_recover)
        .num("probes", mttr.stats.probes)
        .num("keys_recovered", mttr.stats.keys_recovered)
        .num("keys_lost", mttr.stats.keys_lost)
        .num("trials", TRIALS)
        .save("recover")
}

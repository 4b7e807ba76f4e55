//! Simulated-GPU experiment drivers: BGPQ and P-Sync in virtual time.

use bgpq::{Bgpq, BgpqOptions};
use bgpq_runtime::SimPlatform;
use gpu_sim::{launch_phased, GpuConfig, Scheduler};
use parking_lot::Mutex;
use pq_api::{Entry, KeyType, ValueType};
use psync::{PhaseKind, PsyncConfig, SeqBatchHeap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

type SimQueue = Bgpq<u32, (), SimPlatform>;

/// A BGPQ on the simulated device `gpu`: the setup of every kernel this
/// crate launches.
pub(crate) fn sim_bgpq<K: KeyType, V: ValueType>(
    sched: &Arc<Scheduler>,
    gpu: GpuConfig,
    opts: BgpqOptions,
) -> Bgpq<K, V, SimPlatform> {
    Bgpq::with_platform(SimPlatform::new(sched, opts.max_nodes + 1, gpu.cost, gpu.block_dim), opts)
}

/// Timing of one insert-all-then-delete-all run, in simulated
/// milliseconds at the device clock.
#[derive(Debug, Clone, Copy)]
pub struct InsDelTiming {
    pub insert_ms: f64,
    pub delete_ms: f64,
    pub total_ms: f64,
    /// TARGET/MARKED collaborations observed.
    pub collaborations: u64,
    /// Fraction of inserts absorbed without a heapify.
    pub insert_buffer_hit_rate: f64,
    /// INSERT operations performed.
    pub inserts: u64,
    /// Full insert-heapify walks triggered.
    pub insert_heapifies: u64,
}

/// Insert all `keys` (k-sized batches split across blocks), sync, then
/// delete everything back. The phase split is exact: a simulated
/// barrier separates the phases.
pub fn bgpq_sim_insdel(gpu: GpuConfig, k: usize, keys: &[u32]) -> InsDelTiming {
    bgpq_sim_insdel_batched(gpu, k, k, keys)
}

/// [`bgpq_sim_insdel`] with a separate insert/delete batch size
/// (`batch ≤ k`) — partial batches exercise the partial buffer.
pub fn bgpq_sim_insdel_batched(
    gpu: GpuConfig,
    k: usize,
    batch: usize,
    keys: &[u32],
) -> InsDelTiming {
    assert!(batch >= 1 && batch <= k);
    let opts = BgpqOptions::with_capacity_for(k, keys.len() + 2 * k);
    let batches: Vec<&[u32]> = keys.chunks(batch).collect();
    let next_insert = AtomicUsize::new(0);
    let next_delete = AtomicUsize::new(0);
    let n_batches = batches.len();

    // Two kernels (insert, then delete) — the CUDA relaunch pattern;
    // an in-kernel grid barrier would be illegal beyond the residency
    // limit (see `gpu_sim::launch` docs).
    let insert_phase = |ctx: &mut gpu_sim::BlockCtx, q: &SimQueue| {
        let mut items: Vec<Entry<u32, ()>> = Vec::with_capacity(k);
        loop {
            let i = next_insert.fetch_add(1, Ordering::Relaxed);
            if i >= n_batches {
                break;
            }
            items.clear();
            items.extend(batches[i].iter().map(|&key| Entry::new(key, ())));
            q.insert(ctx.worker(), &items);
        }
    };
    let delete_phase = |ctx: &mut gpu_sim::BlockCtx, q: &SimQueue| {
        let mut out: Vec<Entry<u32, ()>> = Vec::with_capacity(k);
        loop {
            let i = next_delete.fetch_add(1, Ordering::Relaxed);
            if i >= n_batches {
                break;
            }
            out.clear();
            q.delete_min(ctx.worker(), &mut out, batches[i].len().max(1));
        }
    };
    let (reports, q) =
        launch_phased(gpu, |sched| sim_bgpq(sched, gpu, opts), &[&insert_phase, &delete_phase]);
    assert!(q.is_empty(), "insdel run must drain the queue");
    let stats = q.stats().snapshot();
    let ins_cycles = reports[0].makespan_cycles;
    let total = reports[1].makespan_cycles;
    InsDelTiming {
        insert_ms: gpu.cost.cycles_to_ms(ins_cycles),
        delete_ms: gpu.cost.cycles_to_ms(total.saturating_sub(ins_cycles)),
        total_ms: gpu.cost.cycles_to_ms(total),
        collaborations: stats.collaborations,
        insert_buffer_hit_rate: stats.insert_buffer_hit_rate(),
        inserts: stats.inserts,
        insert_heapifies: stats.insert_heapifies,
    }
}

/// Utilization experiment (Table 2 "Util." rows): preload `init` keys,
/// then run `pairs` insert/delete pairs split across blocks.
pub fn bgpq_sim_util(gpu: GpuConfig, k: usize, init: &[u32], pair_keys: &[u32]) -> f64 {
    let opts = BgpqOptions::with_capacity_for(k, init.len() + pair_keys.len() + 2 * k);
    let init_batches: Vec<&[u32]> = init.chunks(k).collect();
    let pair_batches: Vec<&[u32]> = pair_keys.chunks(k).collect();
    let next_init = AtomicUsize::new(0);
    let next_pair = AtomicUsize::new(0);

    let init_phase = |ctx: &mut gpu_sim::BlockCtx, q: &SimQueue| {
        let mut items: Vec<Entry<u32, ()>> = Vec::with_capacity(k);
        loop {
            let i = next_init.fetch_add(1, Ordering::Relaxed);
            if i >= init_batches.len() {
                break;
            }
            items.clear();
            items.extend(init_batches[i].iter().map(|&key| Entry::new(key, ())));
            q.insert(ctx.worker(), &items);
        }
    };
    // Measured phase: insert/delete pairs preserve utilization.
    let pair_phase = |ctx: &mut gpu_sim::BlockCtx, q: &SimQueue| {
        let mut items: Vec<Entry<u32, ()>> = Vec::with_capacity(k);
        let mut out: Vec<Entry<u32, ()>> = Vec::with_capacity(k);
        loop {
            let i = next_pair.fetch_add(1, Ordering::Relaxed);
            if i >= pair_batches.len() {
                break;
            }
            items.clear();
            items.extend(pair_batches[i].iter().map(|&key| Entry::new(key, ())));
            q.insert(ctx.worker(), &items);
            out.clear();
            q.delete_min(ctx.worker(), &mut out, pair_batches[i].len().max(1));
        }
    };
    let (reports, q): (_, SimQueue) =
        launch_phased(gpu, |sched| sim_bgpq(sched, gpu, opts), &[&init_phase, &pair_phase]);
    debug_assert_eq!(q.len(), init.len());
    gpu.cost.cycles_to_ms(reports[1].makespan_cycles.saturating_sub(reports[0].makespan_cycles))
}

/// P-Sync insert-all-then-delete-all under the same cost model.
pub fn psync_sim_insdel(gpu: GpuConfig, k: usize, keys: &[u32]) -> InsDelTiming {
    let cfg = PsyncConfig::new(gpu, k);
    let heap = Mutex::new(SeqBatchHeap::<u32, ()>::new(k));
    let batches: Vec<Vec<Entry<u32, ()>>> =
        keys.chunks(k).map(|c| c.iter().map(|&key| Entry::new(key, ())).collect()).collect();
    let n = batches.len();
    let ins = psync::run_phase(cfg, &heap, PhaseKind::Insert, &batches, 0);
    let del = psync::run_phase(cfg, &heap, PhaseKind::Delete, &[], n);
    assert!(heap.lock().is_empty(), "psync insdel must drain");
    let insert_ms = gpu.cost.cycles_to_ms(ins.report.makespan_cycles);
    let delete_ms = gpu.cost.cycles_to_ms(del.report.makespan_cycles);
    InsDelTiming {
        insert_ms,
        delete_ms,
        total_ms: insert_ms + delete_ms,
        collaborations: 0,
        insert_buffer_hit_rate: 0.0,
        inserts: n as u64,
        insert_heapifies: n as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{generate_keys, KeyDist};

    #[test]
    fn bgpq_sim_insdel_smoke() {
        let keys = generate_keys(4096, KeyDist::Random, 3);
        let t = bgpq_sim_insdel(GpuConfig::new(8, 128), 256, &keys);
        assert!(t.insert_ms > 0.0 && t.delete_ms > 0.0);
        assert!((t.total_ms - t.insert_ms - t.delete_ms).abs() / t.total_ms < 0.5);
    }

    #[test]
    fn psync_slower_than_bgpq_at_same_config() {
        // The headline GPU-vs-GPU comparison: strict pipeline barriers
        // must cost more than BGPQ's fully concurrent design.
        let keys = generate_keys(16384, KeyDist::Random, 5);
        let gpu = GpuConfig::new(16, 256);
        let b = bgpq_sim_insdel(gpu, 512, &keys);
        let p = psync_sim_insdel(gpu, 512, &keys);
        assert!(
            p.total_ms > b.total_ms,
            "P-Sync ({:.3} ms) should be slower than BGPQ ({:.3} ms)",
            p.total_ms,
            b.total_ms
        );
    }

    #[test]
    fn util_runs_and_preserves_len() {
        let init = generate_keys(2048, KeyDist::Random, 7);
        let pairs = generate_keys(4096, KeyDist::Random, 8);
        let ms = bgpq_sim_util(GpuConfig::new(4, 128), 256, &init, &pairs);
        assert!(ms > 0.0);
    }
}

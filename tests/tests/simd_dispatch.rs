//! Dispatch-mode equivalence: a BGPQ run must be bit-for-bit
//! reproducible whether the dispatcher selects the vector kernels or is
//! pinned to the scalar fallback. The heap does not read the dispatch
//! mode (its node operations take the scalar primitives and its
//! prefetch hints run unconditionally), so this guards against any heap
//! path that starts to. It drives identical operation scripts through
//! both modes and demands identical deleted streams AND identical
//! linearization histories (same sequence numbers, same op payloads).
//!
//! Everything lives in one `#[test]` body: `set_forced_scalar` is
//! process-global, and the harness runs sibling tests on concurrent
//! threads — a mode flip mid-measurement would race. The CI leg that
//! sets `BGPQ_FORCE_SCALAR=1` covers the scalar-from-startup path in a
//! separate process.

use bgpq::{Bgpq, BgpqOptions, CpuBgpq, HistoryEvent};
use bgpq_runtime::SimPlatform;
use gpu_sim::{launch, GpuConfig};
use pq_api::{BatchPriorityQueue, Entry, ValueType};
use primitives::simd;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u32>),
    Delete(usize),
}

fn schedule(seed: u64, n: usize, k: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.55) {
                let c = rng.gen_range(1..=k);
                Op::Insert((0..c).map(|_| rng.gen_range(0..1 << 30)).collect())
            } else {
                Op::Delete(rng.gen_range(1..=k))
            }
        })
        .collect()
}

/// One full CPU-platform run of a script with history on; returns the
/// deleted key stream and the recorded history. `value` builds the
/// payload from the key, letting the same script drive both the narrow
/// (8-byte entry) and wide (16-byte entry) instantiations.
fn cpu_run<V: ValueType>(
    k: usize,
    ops: &[Op],
    value: impl Fn(u32) -> V,
) -> (Vec<u32>, Vec<HistoryEvent<u32>>) {
    let opts = BgpqOptions { node_capacity: k, max_nodes: 1 << 10, ..Default::default() };
    let q: CpuBgpq<u32, V> = CpuBgpq::new(opts).with_history();
    let mut deleted = Vec::new();
    let mut out = Vec::new();
    for op in ops {
        match op {
            Op::Insert(keys) => {
                let items: Vec<Entry<u32, V>> =
                    keys.iter().map(|&x| Entry::new(x, value(x))).collect();
                q.insert_batch(&items);
            }
            Op::Delete(n) => {
                out.clear();
                q.delete_min_batch(&mut out, *n);
                deleted.extend(out.iter().map(|e| e.key));
            }
        }
    }
    let history = q.inner().take_history();
    q.inner().check_invariants();
    (deleted, history)
}

/// One single-block sim-platform run; returns the deleted key stream
/// and the recorded history.
fn sim_run(k: usize, ops: &[Op]) -> (Vec<u32>, Vec<HistoryEvent<u32>>) {
    let opts = BgpqOptions { node_capacity: k, max_nodes: 1 << 10, ..Default::default() };
    let gpu = GpuConfig::new(1, 128);
    let deleted = std::sync::Mutex::new(Vec::new());
    let (_, q) = launch(
        gpu,
        |sched| {
            let p = SimPlatform::new(sched, opts.max_nodes + 1, gpu.cost, gpu.block_dim);
            Bgpq::<u32, u32, _>::with_platform(p, opts).with_history()
        },
        |ctx, q| {
            let mut out = Vec::new();
            for op in ops {
                match op {
                    Op::Insert(keys) => {
                        let items: Vec<Entry<u32, u32>> =
                            keys.iter().map(|&x| Entry::new(x, x)).collect();
                        q.insert(ctx.worker(), &items);
                    }
                    Op::Delete(n) => {
                        out.clear();
                        q.delete_min(ctx.worker(), &mut out, *n);
                        deleted.lock().unwrap().extend(out.iter().map(|e| e.key));
                    }
                }
            }
        },
    );
    let history = q.take_history();
    q.check_invariants();
    (deleted.into_inner().unwrap(), history)
}

fn assert_same_history(vector: &[HistoryEvent<u32>], scalar: &[HistoryEvent<u32>], what: &str) {
    let v: Vec<_> = vector.iter().map(|e| (e.seq, e.op.clone())).collect();
    let s: Vec<_> = scalar.iter().map(|e| (e.seq, e.op.clone())).collect();
    assert_eq!(v, s, "{what}: histories diverge between dispatch modes");
}

#[test]
fn runs_are_identical_with_dispatch_on_and_off() {
    // If the host resolves to scalar anyway (no AVX2), the two runs are
    // trivially the same mode; the test still passes and the vector leg
    // is covered on capable hosts.
    let native = simd::dispatch_mode();

    // Narrow entries (8 bytes) at k=8; wide entries (16 bytes) at k=64.
    let narrow_ops = schedule(0xD15EA5E, 200, 8);
    let wide_ops = schedule(0x0DD_BA11, 120, 64);

    let (nd_v, nh_v) = cpu_run::<u32>(8, &narrow_ops, |k| k);
    let (wd_v, wh_v) = cpu_run::<u64>(64, &wide_ops, |k| k as u64);
    let (sd_v, sh_v) = sim_run(8, &narrow_ops);

    simd::set_forced_scalar(true);
    assert_eq!(simd::dispatch_mode(), simd::DispatchMode::Scalar);
    let scalar_results = std::panic::catch_unwind(|| {
        let narrow = cpu_run::<u32>(8, &narrow_ops, |k| k);
        let wide = cpu_run::<u64>(64, &wide_ops, |k| k as u64);
        let sim = sim_run(8, &narrow_ops);
        (narrow, wide, sim)
    });
    simd::set_forced_scalar(false);
    assert_eq!(simd::dispatch_mode(), native, "mode must restore after the scalar leg");
    let ((nd_s, nh_s), (wd_s, wh_s), (sd_s, sh_s)) =
        scalar_results.unwrap_or_else(|p| std::panic::resume_unwind(p));

    assert_eq!(nd_v, nd_s, "narrow CPU deleted streams diverge between dispatch modes");
    assert_eq!(wd_v, wd_s, "wide CPU deleted streams diverge between dispatch modes");
    assert_eq!(sd_v, sd_s, "sim deleted streams diverge between dispatch modes");
    assert_same_history(&nh_v, &nh_s, "narrow CPU");
    assert_same_history(&wh_v, &wh_s, "wide CPU");
    assert_same_history(&sh_v, &sh_s, "sim");
    assert!(bgpq::check_history(&nh_v).is_none());
    assert!(bgpq::check_history(&wh_v).is_none());
    assert!(bgpq::check_history(&sh_v).is_none());
}

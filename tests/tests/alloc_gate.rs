//! The zero-allocation gate: after warmup, steady-state queue
//! operations must hit the global allocator exactly **zero** times on
//! both platforms.
//!
//! This is the enforcement side of the per-worker `OpScratch` arena
//! (`bgpq::OpScratch`): INSERT staging, `SORT_SPLIT` merge scratch and
//! the batch buffers all live in the worker's scratch slot, so once a
//! worker has served one operation of a given shape, subsequent
//! operations reuse the warm buffers. A counting global allocator makes
//! any regression (a stray `Vec::with_capacity` on the hot path, a
//! `resize` that zero-fills through a fresh allocation) a hard test
//! failure instead of a silent perf cliff.
//!
//! Both gates run inside one `#[test]` so no concurrent test-harness
//! activity can allocate inside a measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use bgpq::{Bgpq, BgpqOptions, CpuBgpq};
use bgpq_combine::Combiner;
use bgpq_runtime::SimPlatform;
use gpu_sim::{launch, GpuConfig};
use pq_api::{BatchPriorityQueue, Entry, PriorityQueue};

/// Wraps the system allocator; counts `alloc`/`realloc` calls while the
/// gate flag is raised. Deallocations are free to happen (dropping a
/// warm buffer is not a hot-path cost), but none should either.
struct CountingAlloc;

static GATE: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if GATE.load(Ordering::Relaxed) != 0 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if GATE.load(Ordering::Relaxed) != 0 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn begin_gate() {
    ALLOCS.store(0, Ordering::Relaxed);
    GATE.store(1, Ordering::SeqCst);
}

fn end_gate() -> usize {
    GATE.store(0, Ordering::SeqCst);
    ALLOCS.load(Ordering::Relaxed)
}

const K: usize = 64;
const STEADY_ITERS: usize = 100;

/// Deterministic keys without touching `rand` (whose RNG setup could
/// allocate inside a measurement window).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u32 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 32) as u32
    }
}

/// One steady-state round: refresh the batch keys in place, then let
/// the platform-specific closure insert a full node and delete it back
/// out. Queue size is identical before and after, so the structure
/// neither grows nor shrinks.
fn round(
    rng: &mut XorShift,
    items: &mut [Entry<u32, u32>],
    out: &mut Vec<Entry<u32, u32>>,
    mut ops: impl FnMut(&[Entry<u32, u32>], &mut Vec<Entry<u32, u32>>) -> usize,
) {
    for e in items.iter_mut() {
        let k = rng.next();
        *e = Entry::new(k, k);
    }
    out.clear();
    let got = ops(items, out);
    assert_eq!(got, K, "steady-state round must drain what it inserted");
}

fn cpu_gate() {
    let opts = BgpqOptions { node_capacity: K, max_nodes: 1 << 12, ..Default::default() };
    let q: CpuBgpq<u32, u32> = CpuBgpq::new(opts);
    let mut rng = XorShift(0x9E3779B97F4A7C15);
    let mut items = vec![Entry::new(0u32, 0u32); K];
    let mut out: Vec<Entry<u32, u32>> = Vec::with_capacity(K);

    // Warmup: grow the heap to a few levels, then run mixed rounds so
    // every code path (root absorb, heapify cascade, partial buffer)
    // has touched its scratch at this k.
    for _ in 0..32 {
        for e in items.iter_mut() {
            let k = rng.next();
            *e = Entry::new(k, k);
        }
        q.insert_batch(&items);
    }
    for _ in 0..32 {
        round(&mut rng, &mut items, &mut out, |b, o| {
            q.insert_batch(b);
            q.delete_min_batch(o, K)
        });
    }

    begin_gate();
    for _ in 0..STEADY_ITERS {
        round(&mut rng, &mut items, &mut out, |b, o| {
            q.insert_batch(b);
            q.delete_min_batch(o, K)
        });
    }
    let allocs = end_gate();
    assert_eq!(allocs, 0, "CpuPlatform steady state hit the allocator {allocs} times");
}

/// The CPU gate again over wide entries (`Entry<u32, u64>`, 16 bytes):
/// the same `OpScratch` arena and split routes as the narrow gate above,
/// instantiated at twice the entry width, so the merge scratch and the
/// in-place splits' stash must also go quiet after warmup at that
/// width.
fn cpu_gate_wide() {
    let opts = BgpqOptions { node_capacity: K, max_nodes: 1 << 12, ..Default::default() };
    let q: CpuBgpq<u32, u64> = CpuBgpq::new(opts);
    let mut rng = XorShift(0xB7E151628AED2A6B);
    let mut items = vec![Entry::new(0u32, 0u64); K];
    let mut out: Vec<Entry<u32, u64>> = Vec::with_capacity(K);

    let refresh = |rng: &mut XorShift, items: &mut [Entry<u32, u64>]| {
        for e in items.iter_mut() {
            let k = rng.next();
            *e = Entry::new(k, k as u64);
        }
    };
    for _ in 0..32 {
        refresh(&mut rng, &mut items);
        q.insert_batch(&items);
    }
    for _ in 0..32 {
        refresh(&mut rng, &mut items);
        out.clear();
        q.insert_batch(&items);
        assert_eq!(q.delete_min_batch(&mut out, K), K);
    }

    begin_gate();
    for _ in 0..STEADY_ITERS {
        refresh(&mut rng, &mut items);
        out.clear();
        q.insert_batch(&items);
        assert_eq!(q.delete_min_batch(&mut out, K), K);
    }
    let allocs = end_gate();
    assert_eq!(allocs, 0, "wide-entry steady state hit the allocator {allocs} times");
}

fn sim_gate() {
    let opts = BgpqOptions { node_capacity: K, max_nodes: 1 << 12, ..Default::default() };
    let gpu = GpuConfig::new(1, 128);
    let opts2 = opts;
    launch(
        gpu,
        |sched| {
            let p = SimPlatform::new(sched, opts2.max_nodes + 1, gpu.cost, gpu.block_dim);
            Bgpq::<u32, u32, _>::with_platform(p, opts2)
        },
        |ctx, q| {
            let mut rng = XorShift(0x6A09E667F3BCC909);
            let mut items = vec![Entry::new(0u32, 0u32); K];
            let mut out: Vec<Entry<u32, u32>> = Vec::with_capacity(K);

            for _ in 0..32 {
                for e in items.iter_mut() {
                    let k = rng.next();
                    *e = Entry::new(k, k);
                }
                q.insert(ctx.worker(), &items);
            }
            for _ in 0..32 {
                round(&mut rng, &mut items, &mut out, |b, o| {
                    q.insert(ctx.worker(), b);
                    q.delete_min(ctx.worker(), o, K)
                });
            }

            begin_gate();
            for _ in 0..STEADY_ITERS {
                round(&mut rng, &mut items, &mut out, |b, o| {
                    q.insert(ctx.worker(), b);
                    q.delete_min(ctx.worker(), o, K)
                });
            }
            let allocs = end_gate();
            assert_eq!(allocs, 0, "SimPlatform steady state hit the allocator {allocs} times");
        },
    );
}

/// The combining front's lone submitter: every request takes the
/// direct path, and every delete reuses the front's one direct output
/// buffer, so single-op pairs through the front must go quiet after
/// warmup too.
fn combine_gate() {
    let opts = BgpqOptions { node_capacity: K, max_nodes: 1 << 12, ..Default::default() };
    let q = Combiner::wrap(CpuBgpq::<u32, u32>::new(opts));
    let mut rng = XorShift(0x510E527FADE682D1);
    let pair = |rng: &mut XorShift| {
        let k = rng.next();
        q.insert(k, k);
        assert!(q.delete_min().is_some(), "the preload keeps the queue non-empty");
    };
    for _ in 0..32 * K {
        let k = rng.next();
        q.insert(k, k);
    }
    for _ in 0..32 * K {
        pair(&mut rng);
    }

    begin_gate();
    for _ in 0..STEADY_ITERS * K {
        pair(&mut rng);
    }
    let allocs = end_gate();
    assert_eq!(allocs, 0, "combining-front steady state hit the allocator {allocs} times");
}

/// Every gate in one test body: the test harness runs tests on
/// concurrent threads, and a harness allocation landing inside another
/// test's measurement window would be a false positive.
#[test]
fn steady_state_ops_do_not_allocate() {
    cpu_gate();
    cpu_gate_wide();
    sim_gate();
    combine_gate();
}

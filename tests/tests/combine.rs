//! The coalescing submission front end-to-end: conservation under
//! concurrent single-op traffic, quiescent latency, occupancy-histogram
//! shape across fronts, and the same combining protocol driven by
//! polling simulator agents.

use bgpq::{Bgpq, BgpqOptions, CpuBgpq};
use bgpq_combine::{CombineBackend, CombineShared, Combiner, CombinerOptions, Op};
use bgpq_runtime::{Platform, SimPlatform};
use bgpq_shard::{CpuShardedBgpq, ShardedOptions};
use gpu_sim::sched::SimWorker;
use gpu_sim::{launch, launch_phased, BlockCtx, GpuConfig};
use pq_api::{Entry, PriorityQueue, QueueError};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

fn bgpq_front(k: usize) -> Combiner<u32, u32, CpuBgpq<u32, u32>> {
    Combiner::wrap(CpuBgpq::new(BgpqOptions {
        node_capacity: k,
        max_nodes: 1 << 10,
        ..Default::default()
    }))
}

proptest! {
    // Each case spawns real threads; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Conservation + no duplication: across concurrent inserters and
    /// deleters, every submitted key comes back exactly once (either
    /// to a concurrent deleter or in the final drain) and nothing is
    /// fabricated.
    #[test]
    fn every_submitted_key_returns_exactly_once(
        keys in prop::collection::vec(0u32..50_000, 8..200),
        threads in 2usize..=4,
        k in 2usize..=16,
    ) {
        let q = Arc::new(bgpq_front(k));
        let chunks: Vec<Vec<u32>> =
            keys.chunks(keys.len().div_ceil(threads)).map(<[u32]>::to_vec).collect();
        let deleted: Vec<Vec<Entry<u32, u32>>> = std::thread::scope(|s| {
            let mut handles = Vec::new();
            for chunk in &chunks {
                let q = q.clone();
                handles.push(s.spawn(move || {
                    // Interleave inserts with occasional deletes so the
                    // delete-redistribution path runs concurrently with
                    // coalesced inserts.
                    let mut got = Vec::new();
                    for (i, &key) in chunk.iter().enumerate() {
                        q.insert(key, key);
                        if i % 3 == 2 {
                            if let Some(e) = q.delete_min() {
                                got.push(e);
                            }
                        }
                    }
                    got
                }));
            }
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let mut returned: Vec<Entry<u32, u32>> = deleted.into_iter().flatten().collect();
        while let Some(e) = q.delete_min() {
            returned.push(e);
        }
        // Values rode along with their keys.
        for e in &returned {
            prop_assert_eq!(e.key, e.value);
        }
        let mut got: Vec<u32> = returned.iter().map(|e| e.key).collect();
        got.sort_unstable();
        let mut expect = keys.clone();
        expect.sort_unstable();
        prop_assert_eq!(got, expect, "multiset in ≠ multiset out");

        // Front accounting matches: every request was coalesced into
        // some issued batch.
        let snap = q.stats().snapshot();
        prop_assert_eq!(snap.items_inserted, keys.len() as u64);
        prop_assert!(snap.inserts <= snap.items_inserted);
        prop_assert_eq!(snap.batches_recorded(), snap.inserts + snap.delete_mins);
    }
}

/// Quiescence: a lone request must not wait for peers that are not
/// coming. The submitter finds nothing pending and calls the queue
/// itself with a 1-wide batch — observable as one issued batch per
/// request.
#[test]
fn solo_requests_complete_without_idle_delay() {
    let q = bgpq_front(64);
    let t0 = std::time::Instant::now();
    for i in 0..100u32 {
        q.insert(i, i);
    }
    for _ in 0..100 {
        q.delete_min().expect("inserted above");
    }
    // Generous bound: 200 uncontended ops are microseconds each; only
    // a front that parks waiting for a fill-up could miss this.
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(5),
        "solo traffic stalled: {:?}",
        t0.elapsed()
    );
    let snap = q.stats().snapshot();
    assert_eq!(snap.items_inserted, 100);
    assert_eq!(snap.items_deleted, 100);
    assert_eq!(snap.inserts, 100, "each solo insert issued as its own batch");
    // All 200 issued batches were 1-wide: bucket 0 of a 64-capacity
    // histogram.
    assert_eq!(snap.batch_occupancy[0], 200);
}

/// The front works over the sharded router too, and both report
/// occupancy through the same histogram shape.
#[test]
fn sharded_backend_and_histogram_shape_agree() {
    let sharded = CpuShardedBgpq::<u32, u32>::new(ShardedOptions::with_capacity_for(2, 1, 8, 512));
    let q = Combiner::wrap(sharded);
    std::thread::scope(|s| {
        for t in 0..3u32 {
            let q = &q;
            s.spawn(move || {
                for i in 0..50 {
                    q.insert(t * 100 + i, 0);
                }
            });
        }
    });
    let mut n = 0;
    while q.delete_min().is_some() {
        n += 1;
    }
    assert_eq!(n, 150);

    let front = q.stats().snapshot();
    let router = q.inner().inner().merged_stats();
    let heaps = router.snapshot();
    // Same shape: both histograms have recorded batches, and merging
    // them (one record for every layer) sums them.
    assert!(front.batches_recorded() > 0, "front recorded no batches");
    assert!(heaps.batches_recorded() > 0, "router heaps recorded no batches");
    router.merge(q.stats());
    assert_eq!(
        router.snapshot().batches_recorded(),
        front.batches_recorded() + heaps.batches_recorded()
    );
}

/// Backpressure: a front over a tiny queue propagates `Full` to the
/// submitter whose key does not fit, while keys that fit succeed.
#[test]
fn full_backend_rejects_typed_not_wedged() {
    // node_capacity 2, 3 nodes ⇒ at most ~8 keys incl. partial buffer.
    let q = Combiner::wrap(CpuBgpq::<u32, u32>::new(BgpqOptions {
        node_capacity: 2,
        max_nodes: 3,
        ..Default::default()
    }));
    let mut accepted = 0u32;
    let mut rejected = 0u32;
    for i in 0..64u32 {
        match q.try_insert(i, 0) {
            Ok(()) => accepted += 1,
            Err(QueueError::Full { .. }) => rejected += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(accepted >= 6, "a tiny queue still takes some keys (got {accepted})");
    assert!(rejected > 0, "64 keys cannot fit in 3 nodes of 2");
    // The front survives backpressure: deletes drain what fit.
    let mut drained = 0;
    while q.try_delete_min().expect("healthy front").is_some() {
        drained += 1;
    }
    assert_eq!(drained, accepted);
}

// ---------------------------------------------------------------------
// Simulator: same engine, polling agents.
// ---------------------------------------------------------------------

/// Combining backend for a simulated GPU block: batched calls go to
/// the shared sim heap, waiting yields virtual time through the
/// platform's backoff (a sim agent must never block on an OS
/// primitive), and the lane is the block id. With `calls` set, every
/// batched call is counted into it.
struct SimBackend<'a> {
    q: &'a Bgpq<u32, u32, SimPlatform>,
    w: &'a mut SimWorker,
    lane: usize,
    calls: Option<&'a InFlight>,
}

/// Backend calls in flight across all blocks, and the most at once.
#[derive(Default)]
struct InFlight {
    now: AtomicUsize,
    peak: AtomicUsize,
}

impl SimBackend<'_> {
    fn counted<T>(
        &mut self,
        call: impl FnOnce(&Bgpq<u32, u32, SimPlatform>, &mut SimWorker) -> T,
    ) -> T {
        if let Some(c) = self.calls {
            let now = c.now.fetch_add(1, Ordering::SeqCst) + 1;
            c.peak.fetch_max(now, Ordering::SeqCst);
        }
        let r = call(self.q, self.w);
        if let Some(c) = self.calls {
            c.now.fetch_sub(1, Ordering::SeqCst);
        }
        r
    }
}

impl CombineBackend<u32, u32> for SimBackend<'_> {
    const CAN_PARK: bool = false;

    fn batch_capacity(&self) -> usize {
        self.q.node_capacity()
    }

    fn try_insert_batch(&mut self, items: &[Entry<u32, u32>]) -> Result<(), QueueError> {
        self.counted(|q, w| q.try_insert(w, items))
    }

    fn try_delete_min_batch(
        &mut self,
        out: &mut Vec<Entry<u32, u32>>,
        count: usize,
    ) -> Result<usize, QueueError> {
        self.counted(|q, w| q.try_delete_min(w, out, count))
    }

    fn relax(&mut self) {
        self.q.platform().backoff(self.w);
    }

    fn lane(&self) -> usize {
        self.lane
    }
}

type SimFront = (Arc<Bgpq<u32, u32, SimPlatform>>, CombineShared<u32, u32>);

/// Conservation through the combining front on the simulator: every
/// block submits single-op traffic, polling for completion in virtual
/// time; the multiset must balance exactly. A block's j-th delete
/// follows its own 3j inserts, so the heap never runs dry: every delete
/// returns a key, and the blocks' counts sum to the front's.
#[test]
fn sim_agents_coalesce_and_conserve() {
    let cfg = GpuConfig::new(4, 32).with_fuzz_seed(13);
    let opts = BgpqOptions { node_capacity: 4, max_nodes: 1 << 10, ..Default::default() };
    let per_block = 60u32;
    let served = AtomicU64::new(0);

    let (_report, shared) = launch(
        cfg,
        |sched| {
            let p = SimPlatform::new(sched, opts.max_nodes + 1, cfg.cost, cfg.block_dim);
            let q = Arc::new(Bgpq::with_platform(p, opts));
            let front = CombineShared::new(q.node_capacity(), CombinerOptions::default());
            let st: SimFront = (q, front);
            st
        },
        |ctx, st: &SimFront| {
            let lane = ctx.block_id();
            let mut backend = SimBackend { q: &st.0, w: ctx.worker(), lane, calls: None };
            let bid = lane as u32;
            let mut kept = 0u64;
            for i in 0..per_block {
                let key = bid * 10_000 + i;
                st.1.submit(&mut backend, Op::Insert(Entry::new(key, key))).expect("healthy sim");
                // Delete every third so coalesced deletes interleave
                // with coalesced inserts across blocks.
                if i % 3 == 2 {
                    if let Some(e) = st.1.submit(&mut backend, Op::DeleteMin).expect("healthy sim")
                    {
                        assert_eq!(e.key, e.value, "payload must travel with its key");
                        kept += 1;
                    }
                }
            }
            assert_eq!(kept, u64::from(per_block / 3), "block {bid}: a delete came back empty");
            served.fetch_add(kept, Ordering::SeqCst);
        },
    );

    let (q, front) = shared;
    let snap = front.stats().snapshot();
    let total = 4 * per_block as u64;
    assert_eq!(snap.items_inserted, total, "every submitted insert was issued");
    assert_eq!(snap.items_deleted + q.len() as u64, total, "conservation across the front");
    assert_eq!(served.load(Ordering::SeqCst), snap.items_deleted, "every served delete counted");
    assert!(!front.is_poisoned());
    assert!(snap.batches_recorded() >= snap.inserts + snap.delete_mins);
}

/// Overlap: the combiner lock scopes only the gather, so a round
/// gathered while another call is inside the heap goes in at once
/// instead of queueing behind that call. Two blocks share a k = 8 heap
/// of 32 full nodes whose partial buffer is one key short of full.
/// Block 0's insert fills the buffer and heapifies a node down five
/// levels; block 1 submits a delete 1000 cycles into that call. Block
/// 1's request must reach the heap before block 0's call returns — two
/// calls in flight at once — where a combiner that held its lock
/// through the call would issue it only afterwards.
#[test]
fn sim_round_is_issued_while_another_call_is_in_the_backend() {
    let k = 8;
    let cfg = GpuConfig::new(2, 32);
    let opts = BgpqOptions { node_capacity: k, max_nodes: 1 << 8, ..Default::default() };
    let preload: Vec<Entry<u32, u32>> =
        (0..(32 * k + k - 1) as u32).map(|x| Entry::new(x, x)).collect();
    let calls = InFlight::default();

    let fill = |ctx: &mut BlockCtx, st: &SimFront| {
        if ctx.block_id() == 0 {
            for chunk in preload.chunks(k) {
                st.0.try_insert(ctx.worker(), chunk).expect("preload fits");
            }
        }
    };
    let race = |ctx: &mut BlockCtx, st: &SimFront| {
        let lane = ctx.block_id();
        let w = ctx.worker();
        let op = if lane == 0 {
            Op::Insert(Entry::new(10_000, 0))
        } else {
            w.advance(1_000);
            Op::DeleteMin
        };
        let mut backend = SimBackend { q: &st.0, w, lane, calls: Some(&calls) };
        st.1.submit(&mut backend, op).expect("healthy sim");
    };
    let (_, (q, front)) = launch_phased(
        cfg,
        |sched| -> SimFront {
            let p = SimPlatform::new(sched, opts.max_nodes + 1, cfg.cost, cfg.block_dim);
            let q = Arc::new(Bgpq::with_platform(p, opts));
            let front = CombineShared::new(q.node_capacity(), CombinerOptions::default());
            (q, front)
        },
        &[&fill, &race],
    );

    // The preload's first batch fills the root; the other 31 and block
    // 0's insert each heapify.
    assert_eq!(q.stats().snapshot().insert_heapifies, 32, "block 0's insert heapified");
    assert_eq!(
        calls.peak.load(Ordering::SeqCst),
        2,
        "block 1's request must reach the heap while block 0's call is in it"
    );
    let snap = front.stats().snapshot();
    assert_eq!((snap.inserts, snap.delete_mins), (1, 1), "two one-wide calls");
    assert_eq!(q.len(), preload.len());
}

//! The coalescing submission front end-to-end: conservation under
//! concurrent single-op traffic, quiescent latency, occupancy-histogram
//! shape across fronts, and the same combining protocol driven by
//! polling simulator agents.

use bgpq::{Bgpq, BgpqOptions, CpuBgpq};
use bgpq_combine::{CombineBackend, CombineShared, Combiner, CombinerOptions, Op};
use bgpq_runtime::{Platform, SimPlatform};
use bgpq_shard::{CpuShardedBgpq, ShardedOptions};
use gpu_sim::sched::SimWorker;
use gpu_sim::{launch, GpuConfig};
use pq_api::{Entry, PriorityQueue, QueueError};
use proptest::prelude::*;
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
/// coming. The submitter itself becomes the combiner and issues a
/// 1-wide batch immediately — observable as one issued batch per
/// request and a window that stays collapsed.
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
    assert_eq!(q.window(), 1, "window stays collapsed without load");
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
/// primitive), and the lane is the block id.
struct SimBackend<'a> {
    q: &'a Bgpq<u32, u32, SimPlatform>,
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

type SimFront = (Arc<Bgpq<u32, u32, SimPlatform>>, CombineShared<u32, u32>);

/// Conservation through the combining front on the simulator: every
/// block submits single-op traffic, polling for completion in virtual
/// time; the multiset must balance exactly.
#[test]
fn sim_agents_coalesce_and_conserve() {
    let cfg = GpuConfig::new(4, 32).with_fuzz_seed(13);
    let opts = BgpqOptions { node_capacity: 4, max_nodes: 1 << 10, ..Default::default() };
    let per_block = 60u32;

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
            let mut backend = SimBackend { q: &st.0, w: ctx.worker(), lane };
            let bid = lane as u32;
            let mut kept = 0u32;
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
            // Stash this block's delete count in virtual time order by
            // advancing; the balance assertions below use stats instead.
            let _ = kept;
        },
    );

    let (q, front) = shared;
    let snap = front.stats().snapshot();
    let total = 4 * per_block as u64;
    assert_eq!(snap.items_inserted, total, "every submitted insert was issued");
    assert_eq!(snap.items_deleted + q.len() as u64, total, "conservation across the front");
    assert!(!front.is_poisoned());
    assert!(snap.batches_recorded() >= snap.inserts + snap.delete_mins);
}

//! Model-based property tests applied uniformly to every strict queue
//! implementation in the workspace: arbitrary operation sequences must
//! match `std::collections::BinaryHeap` exactly.

use baseline_heaps::{CoarseLockPq, FineHeapPq};
use bgpq::{BgpqOptions, CpuBgpq};
use cbpq::CbpqPq;
use pq_api::{BatchPriorityQueue, Entry, ItemwiseBatch};
use proptest::prelude::*;
use psync::SeqBatchHeap;
use skiplist_pq::LindenJonssonPq;
use std::collections::BinaryHeap;

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u32>),
    Delete(usize),
}

fn ops_strategy(max_batch: usize, len: usize) -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        proptest::collection::vec(any::<u32>().prop_map(|x| x % (1 << 30)), 1..=max_batch)
            .prop_map(Op::Insert),
        (1..=max_batch).prop_map(Op::Delete),
    ];
    proptest::collection::vec(op, 1..len)
}

fn drive(
    q: &dyn BatchPriorityQueue<u32, u32>,
    ops: &[Op],
    batch: usize,
) -> Result<(), TestCaseError> {
    let mut model: BinaryHeap<std::cmp::Reverse<u32>> = BinaryHeap::new();
    let mut out = Vec::new();
    for op in ops {
        match op {
            Op::Insert(keys) => {
                let items: Vec<Entry<u32, u32>> = keys.iter().map(|&k| Entry::new(k, k)).collect();
                q.insert_batch(&items);
                for &k in keys {
                    model.push(std::cmp::Reverse(k));
                }
            }
            Op::Delete(n) => {
                out.clear();
                let want = (*n).min(batch);
                let got = q.delete_min_batch(&mut out, want);
                let mut expect = Vec::new();
                for _ in 0..want {
                    match model.pop() {
                        Some(std::cmp::Reverse(k)) => expect.push(k),
                        None => break,
                    }
                }
                prop_assert_eq!(got, expect.len());
                let got_keys: Vec<u32> = out.iter().map(|e| e.key).collect();
                prop_assert_eq!(got_keys, expect);
                // Payloads must still match their keys.
                for e in &out {
                    prop_assert_eq!(e.value, e.key);
                }
            }
        }
        prop_assert_eq!(q.len(), model.len());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn coarse_matches_model(ops in ops_strategy(8, 80)) {
        let q = ItemwiseBatch::new(CoarseLockPq::<u32, u32>::new(), 8);
        drive(&q, &ops, 8)?;
    }

    #[test]
    fn fine_heap_matches_model(ops in ops_strategy(8, 80)) {
        let q = ItemwiseBatch::new(FineHeapPq::<u32, u32>::new(1 << 12), 8);
        drive(&q, &ops, 8)?;
        q.inner().check_invariants();
    }

    #[test]
    fn ljsl_matches_model(ops in ops_strategy(8, 80)) {
        let q = ItemwiseBatch::new(LindenJonssonPq::<u32, u32>::new(4), 8);
        drive(&q, &ops, 8)?;
        q.inner().list().check_invariants();
    }

    #[test]
    fn cbpq_matches_model(ops in ops_strategy(8, 80)) {
        let q = ItemwiseBatch::new(CbpqPq::<u32, u32>::new(8), 8);
        drive(&q, &ops, 8)?;
        q.inner().check_invariants();
    }

    #[test]
    fn bgpq_matches_model(ops in ops_strategy(8, 80)) {
        let q = CpuBgpq::<u32, u32>::new(BgpqOptions {
            node_capacity: 8,
            max_nodes: 512,
            ..Default::default()
        });
        drive(&q, &ops, 8)?;
        q.inner().check_invariants();
    }

    #[test]
    fn seq_batch_heap_matches_model(ops in ops_strategy(8, 80)) {
        // psync's substrate, same contract (single-threaded).
        let mut h = SeqBatchHeap::<u32, u32>::new(8);
        let mut model: BinaryHeap<std::cmp::Reverse<u32>> = BinaryHeap::new();
        let mut out = Vec::new();
        for op in &ops {
            match op {
                Op::Insert(keys) => {
                    let items: Vec<Entry<u32, u32>> =
                        keys.iter().map(|&k| Entry::new(k, k)).collect();
                    h.insert_batch(&items);
                    for &k in keys {
                        model.push(std::cmp::Reverse(k));
                    }
                }
                Op::Delete(n) => {
                    out.clear();
                    let want = (*n).min(8);
                    let got = h.delete_min_batch(&mut out, want);
                    let mut expect = Vec::new();
                    for _ in 0..want {
                        match model.pop() {
                            Some(std::cmp::Reverse(k)) => expect.push(k),
                            None => break,
                        }
                    }
                    prop_assert_eq!(got, expect.len());
                    let got_keys: Vec<u32> = out.iter().map(|e| e.key).collect();
                    prop_assert_eq!(got_keys, expect);
                }
            }
            prop_assert_eq!(h.len(), model.len());
        }
        h.check_invariants();
    }
}

//! Property-based tests: arbitrary operation sequences against the
//! reference model, across node capacities and ablation settings.

use bgpq::{BgpqOptions, CpuBgpq};
use pq_api::{BatchPriorityQueue, Entry};
use proptest::prelude::*;
use std::collections::BinaryHeap;

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u32>),
    Delete(usize),
}

fn ops_strategy(k: usize, len: usize) -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        proptest::collection::vec(any::<u32>().prop_map(|x| x % (1 << 30)), 1..=k)
            .prop_map(Op::Insert),
        (1..=k).prop_map(Op::Delete),
    ];
    proptest::collection::vec(op, 1..len)
}

fn run_against_model(k: usize, opts: BgpqOptions, ops: &[Op]) -> Result<(), TestCaseError> {
    let q: CpuBgpq<u32, ()> = CpuBgpq::new(opts);
    let mut model: BinaryHeap<std::cmp::Reverse<u32>> = BinaryHeap::new();
    let mut out = Vec::new();
    for op in ops {
        match op {
            Op::Insert(keys) => {
                let items: Vec<Entry<u32, ()>> = keys.iter().map(|&x| Entry::new(x, ())).collect();
                q.insert_batch(&items);
                for &x in keys {
                    model.push(std::cmp::Reverse(x));
                }
            }
            Op::Delete(n) => {
                out.clear();
                let got = q.delete_min_batch(&mut out, (*n).min(k));
                let mut expect = Vec::new();
                for _ in 0..(*n).min(k) {
                    match model.pop() {
                        Some(std::cmp::Reverse(x)) => expect.push(x),
                        None => break,
                    }
                }
                prop_assert_eq!(got, expect.len());
                let got_keys: Vec<u32> = out.iter().map(|e| e.key).collect();
                prop_assert_eq!(got_keys, expect);
            }
        }
        prop_assert_eq!(BatchPriorityQueue::<u32, ()>::len(&q), model.len());
    }
    q.inner().check_invariants();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matches_model_k4(ops in ops_strategy(4, 120)) {
        run_against_model(4, BgpqOptions { node_capacity: 4, max_nodes: 512, ..Default::default() }, &ops)?;
    }

    #[test]
    fn matches_model_k8(ops in ops_strategy(8, 80)) {
        run_against_model(8, BgpqOptions { node_capacity: 8, max_nodes: 512, ..Default::default() }, &ops)?;
    }

    #[test]
    fn matches_model_k5_odd_capacity(ops in ops_strategy(5, 100)) {
        run_against_model(5, BgpqOptions { node_capacity: 5, max_nodes: 512, ..Default::default() }, &ops)?;
    }

    #[test]
    fn matches_model_k1(ops in ops_strategy(1, 80)) {
        run_against_model(1, BgpqOptions { node_capacity: 1, max_nodes: 512, ..Default::default() }, &ops)?;
    }

    #[test]
    fn history_always_linearizes(ops in ops_strategy(4, 60)) {
        let q: CpuBgpq<u32, ()> = CpuBgpq::new(BgpqOptions {
            node_capacity: 4,
            max_nodes: 512,
            ..Default::default()
        }).with_history();
        let mut out = Vec::new();
        for op in &ops {
            match op {
                Op::Insert(keys) => {
                    let items: Vec<Entry<u32, ()>> =
                        keys.iter().map(|&x| Entry::new(x, ())).collect();
                    q.insert_batch(&items);
                }
                Op::Delete(n) => {
                    out.clear();
                    q.delete_min_batch(&mut out, (*n).min(4));
                }
            }
        }
        let events = q.inner().take_history();
        prop_assert!(bgpq::check_history(&events).is_none());
    }
}

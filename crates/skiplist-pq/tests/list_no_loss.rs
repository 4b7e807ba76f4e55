//! No-loss property of the skiplist substrate: for any mix of inserts,
//! precise claims, spray claims and batched cleanups, run by one thread
//! or several at once, every inserted key comes out exactly once —
//! claimed during the run or drained after it.

use pq_api::{Entry, PriorityQueue};
use proptest::prelude::*;
use skiplist_pq::SprayListPq;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Insert a key from a narrow range (long runs of equal keys).
    Insert(u32),
    /// Precise claim of the head-most live node.
    Claim,
    /// Spray claim: a random walk that claims without the structure
    /// lock, racing the batched unlink.
    Spray,
    /// Opportunistic batched unlink of the dead prefix.
    Cleanup,
}

fn program() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (0u32..64).prop_map(Op::Insert),
        (0u32..64).prop_map(Op::Insert),
        Just(Op::Claim),
        Just(Op::Spray),
        Just(Op::Cleanup),
    ];
    proptest::collection::vec(op, 1..2000)
}

/// Run each program on its own thread against one queue; returns the
/// sorted keys put in and the sorted keys claimed or drained.
fn run(programs: &[Vec<Op>], cleanup_threshold: usize) -> (Vec<u32>, Vec<u32>) {
    let q = SprayListPq::<u32, ()>::new(programs.len(), cleanup_threshold);
    let (mut put, mut out) = (Vec::new(), Vec::new());
    // Line the threads up so their programs overlap.
    let start = std::sync::Barrier::new(programs.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = programs
            .iter()
            .map(|prog| {
                let (q, start) = (&q, &start);
                s.spawn(move || {
                    let (mut put, mut got) = (Vec::new(), Vec::new());
                    start.wait();
                    for &op in prog {
                        match op {
                            Op::Insert(key) => {
                                q.list().insert(Entry::new(key, ()));
                                put.push(key);
                            }
                            Op::Claim => got.extend(q.list().claim_min().map(|e| e.key)),
                            Op::Spray => got.extend(q.delete_min().map(|e| e.key)),
                            Op::Cleanup => q.list().cleanup(),
                        }
                    }
                    (put, got)
                })
            })
            .collect();
        for h in handles {
            let (p, g) = h.join().unwrap();
            put.extend(p);
            out.extend(g);
        }
    });
    q.list().check_invariants();
    while let Some(e) = q.list().claim_min() {
        out.push(e.key);
    }
    assert!(q.list().is_empty());
    put.sort_unstable();
    out.sort_unstable();
    (put, out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn inserted_equals_claimed_plus_drained(
        programs in proptest::collection::vec(program(), 1..=4),
        cleanup_threshold in 1usize..8,
    ) {
        let (put, out) = run(&programs, cleanup_threshold);
        prop_assert_eq!(put.len(), out.len());
        prop_assert_eq!(put, out);
    }
}

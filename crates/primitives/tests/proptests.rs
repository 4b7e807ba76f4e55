//! Property-based tests for the data-parallel primitives: the merge
//! kernels and the merge-path search must agree with the standard library
//! on every input, and `SORT_SPLIT` must satisfy the paper's formal
//! postconditions.

use primitives::simd::{self, KeyIdxLane};
use primitives::{
    merge_into, merge_into_scalar, merge_into_vec, merge_path_search, sort_split, sort_split_full,
};
use proptest::prelude::*;

fn sorted_vec(max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(any::<u32>(), 0..max_len).prop_map(|mut v| {
        v.sort_unstable();
        v
    })
}

/// Sorted runs drawn from a tiny key domain (lots of duplicates) with an
/// optional tail of `u32::MAX` sentinels — the padding shape the heap's
/// partial buffer and staged insert batches produce.
fn sorted_with_sentinels(max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    (proptest::collection::vec(0u32..64, 0..max_len), 0usize..8).prop_map(|(mut v, pad)| {
        v.extend(std::iter::repeat_n(u32::MAX, pad));
        v.sort_unstable();
        v
    })
}

/// Sorted packed lanes over a tiny key and index domain — bit-identical
/// duplicate lanes as well as equal keys with distinct indices — with
/// an optional tail of `u32::MAX`-key sentinels, whose set top bit
/// exercises the unsigned 64-bit order.
fn sorted_lanes(max_len: usize) -> impl Strategy<Value = Vec<KeyIdxLane>> {
    (proptest::collection::vec((0u32..64, 0u32..4), 0..max_len), 0usize..8).prop_map(|(v, pad)| {
        let mut lanes: Vec<KeyIdxLane> =
            v.into_iter().map(|(k, i)| KeyIdxLane::pack(k, i)).collect();
        lanes.extend(std::iter::repeat_n(KeyIdxLane::pack(u32::MAX, 0), pad));
        lanes.sort_unstable();
        lanes
    })
}

/// Sorted full-width lanes: arbitrary `u64` bit patterns (index halves
/// included, about half with the top bit set), small values and
/// `u64::MAX` duplicates.
fn sorted_raw_lanes(max_len: usize) -> impl Strategy<Value = Vec<KeyIdxLane>> {
    proptest::collection::vec(prop_oneof![any::<u64>(), 0u64..16, Just(u64::MAX)], 0..max_len)
        .prop_map(|v| {
            let mut lanes: Vec<KeyIdxLane> = v.into_iter().map(KeyIdxLane).collect();
            lanes.sort_unstable();
            lanes
        })
}

/// Payload-carrying element whose ordering looks only at the key — lets
/// the differential tests observe tie-breaking (stability), which the
/// plain `u32` properties cannot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Keyed {
    key: u32,
    tag: u32,
}

impl PartialOrd for Keyed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Keyed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

fn sorted_keyed(max_len: usize, side: u32) -> impl Strategy<Value = Vec<Keyed>> {
    proptest::collection::vec(0u32..16, 0..max_len).prop_map(move |mut keys| {
        keys.sort_unstable();
        keys.iter()
            .enumerate()
            .map(|(i, &key)| Keyed { key, tag: side * 1_000_000 + i as u32 })
            .collect()
    })
}

proptest! {
    #[test]
    fn merge_path_search_is_a_valid_split(a in sorted_vec(64), b in sorted_vec(64), frac in 0.0f64..=1.0) {
        let diag = ((a.len() + b.len()) as f64 * frac) as usize;
        let (i, j) = merge_path_search(&a, &b, diag);
        prop_assert_eq!(i + j, diag);
        // Path validity: everything consumed is <= everything not yet consumed.
        if i > 0 && j < b.len() {
            prop_assert!(a[i - 1] <= b[j]);
        }
        if j > 0 && i < a.len() {
            prop_assert!(b[j - 1] <= a[i]);
        }
    }

    #[test]
    fn merge_into_equals_std(a in sorted_vec(128), b in sorted_vec(128)) {
        let mut out = vec![0u32; a.len() + b.len()];
        merge_into(&a, &b, &mut out);
        let mut expect: Vec<u32> = a.iter().chain(b.iter()).copied().collect();
        expect.sort_unstable();
        prop_assert_eq!(out, expect);
    }

    #[test]
    fn sort_split_postconditions(za in sorted_vec(64), wb in sorted_vec(64), frac in 0.0f64..=1.0) {
        let (na, nb) = (za.len(), wb.len());
        let total = na + nb;
        let ma = (total as f64 * frac) as usize;
        // Buffers sized to fit both outcomes.
        let mut z = za.clone();
        z.resize(na.max(ma), 0);
        let mut w = wb.clone();
        w.resize(nb.max(total - ma), 0);
        let mut scratch = Vec::new();
        let r = sort_split(&mut z, na, &mut w, nb, ma, &mut scratch);

        prop_assert_eq!(r.ma + r.mb, total);
        prop_assert_eq!(r.ma, ma);
        let x = &z[..r.ma];
        let y = &w[..r.mb];
        // Both sorted.
        prop_assert!(x.windows(2).all(|p| p[0] <= p[1]));
        prop_assert!(y.windows(2).all(|p| p[0] <= p[1]));
        // Split point: max X <= min Y.
        if !x.is_empty() && !y.is_empty() {
            prop_assert!(x[x.len() - 1] <= y[0]);
        }
        // Multiset preservation.
        let mut got: Vec<u32> = x.iter().chain(y.iter()).copied().collect();
        got.sort_unstable();
        let mut expect: Vec<u32> = za.iter().chain(wb.iter()).copied().collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    // ---- Differential suite: fast kernels vs retained scalar oracles ----

    #[test]
    fn merge_into_matches_scalar_oracle(
        a in sorted_with_sentinels(96),
        b in sorted_with_sentinels(96),
    ) {
        let mut fast = vec![0u32; a.len() + b.len()];
        let mut slow = fast.clone();
        merge_into(&a, &b, &mut fast);
        merge_into_scalar(&a, &b, &mut slow);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn merge_into_preserves_tie_order_of_oracle(
        a in sorted_keyed(80, 1),
        b in sorted_keyed(80, 2),
    ) {
        // Payloads make tie resolution observable: with only 16 distinct
        // keys the merge is mostly ties, and the unrolled kernel must
        // break every one exactly like the oracle (a first, then input
        // order).
        let zero = Keyed { key: 0, tag: 0 };
        let mut fast = vec![zero; a.len() + b.len()];
        let mut slow = fast.clone();
        merge_into(&a, &b, &mut fast);
        merge_into_scalar(&a, &b, &mut slow);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn merge_into_vec_matches_scalar_oracle_and_stays_warm(
        a in sorted_with_sentinels(96),
        b in sorted_with_sentinels(96),
        c in sorted_with_sentinels(96),
    ) {
        let mut out = Vec::new();
        merge_into_vec(&a, &b, &mut out);
        let mut slow = vec![0u32; a.len() + b.len()];
        merge_into_scalar(&a, &b, &mut slow);
        prop_assert_eq!(&out, &slow);

        // Re-merging something no larger into the warm vector must not
        // reallocate (the zero-allocation hot path relies on this).
        let cap = out.capacity();
        merge_into_vec(&b, &c, &mut out);
        let mut slow2 = vec![0u32; b.len() + c.len()];
        merge_into_scalar(&b, &c, &mut slow2);
        prop_assert_eq!(&out, &slow2);
        if b.len() + c.len() <= cap {
            prop_assert_eq!(out.capacity(), cap);
        }
    }

    #[test]
    fn sort_split_matches_oracle_merge(
        za in sorted_with_sentinels(64),
        wb in sorted_with_sentinels(64),
        frac in 0.0f64..=1.0,
    ) {
        let (na, nb) = (za.len(), wb.len());
        let total = na + nb;
        let ma = (total as f64 * frac) as usize;
        let mut z = za.clone();
        z.resize(na.max(ma), 0);
        let mut w = wb.clone();
        w.resize(nb.max(total - ma), 0);
        let mut scratch = Vec::new();
        sort_split(&mut z, na, &mut w, nb, ma, &mut scratch);

        // Oracle: scalar merge, then split at ma.
        let mut merged = vec![0u32; total];
        merge_into_scalar(&za, &wb, &mut merged);
        prop_assert_eq!(&z[..ma], &merged[..ma]);
        prop_assert_eq!(&w[..total - ma], &merged[ma..]);
    }

    #[test]
    fn sort_split_full_postconditions(a in sorted_vec(64), b in sorted_vec(64)) {
        let mut x = a.clone();
        let mut y = b.clone();
        let mut scratch = Vec::new();
        sort_split_full(&mut x, &mut y, &mut scratch);
        prop_assert!(x.windows(2).all(|p| p[0] <= p[1]));
        prop_assert!(y.windows(2).all(|p| p[0] <= p[1]));
        if !x.is_empty() && !y.is_empty() {
            prop_assert!(x[x.len() - 1] <= y[0]);
        }
        let mut got: Vec<u32> = x.iter().chain(y.iter()).copied().collect();
        got.sort_unstable();
        let mut expect: Vec<u32> = a.iter().chain(b.iter()).copied().collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    // ---- Lane suite: the names the kernel probe imports vs scalar oracles ----
    //
    // `simd::merge_into` and `simd::sort_split_full` are the scalar
    // primitives under the names perfbench's `primitives.*` probe
    // imports; these properties run them on packed `KeyIdxLane` runs,
    // the probe's input shape, against the branchy reference merge.

    #[test]
    fn simd_merge_u32_matches_scalar_oracle(
        a in sorted_lanes(200),
        b in sorted_lanes(200),
    ) {
        // 32-bit keys packed with small indices. Lengths are arbitrary,
        // so tails shorter than the merge's 4-wide unrolled step are
        // routine here.
        let mut fast = vec![KeyIdxLane::default(); a.len() + b.len()];
        let mut slow = fast.clone();
        simd::merge_into(&a, &b, &mut fast);
        merge_into_scalar(&a, &b, &mut slow);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn simd_merge_u64_matches_scalar_oracle(
        a in sorted_raw_lanes(160),
        b in sorted_raw_lanes(160),
    ) {
        // Full-width lanes: index halves and top-bit patterns must
        // order exactly as in the reference merge.
        let mut fast = vec![KeyIdxLane::default(); a.len() + b.len()];
        let mut slow = fast.clone();
        simd::merge_into(&a, &b, &mut fast);
        merge_into_scalar(&a, &b, &mut slow);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn simd_sort_split_full_matches_scalar_primitive(
        a in sorted_lanes(128),
        b in sorted_lanes(128),
    ) {
        let mut x = a.clone();
        let mut y = b.clone();
        let mut scratch = Vec::new();
        simd::sort_split_full(&mut x, &mut y, &mut scratch);

        // Oracle: the reference merge, split at |a|.
        let mut merged = vec![KeyIdxLane::default(); a.len() + b.len()];
        merge_into_scalar(&a, &b, &mut merged);
        prop_assert_eq!(&x[..], &merged[..a.len()]);
        prop_assert_eq!(&y[..], &merged[a.len()..]);
    }

    #[test]
    fn simd_lane_merge_is_stable_by_construction(
        a in sorted_keyed(120, 1),
        b in sorted_keyed(120, 2),
    ) {
        // Packing keys in the high 32 bits and source positions in the
        // low 32 makes the plain u64 lane merge reproduce a *stable*
        // keyed merge (a-side before b-side on ties, input order within
        // a side), because a-side lanes carry strictly smaller indices
        // than b-side lanes.
        let la: Vec<KeyIdxLane> =
            a.iter().enumerate().map(|(i, e)| KeyIdxLane::pack(e.key, i as u32)).collect();
        let lb: Vec<KeyIdxLane> = b
            .iter()
            .enumerate()
            .map(|(i, e)| KeyIdxLane::pack(e.key, (a.len() + i) as u32))
            .collect();
        let mut lanes = vec![KeyIdxLane::default(); la.len() + lb.len()];
        simd::merge_into(&la, &lb, &mut lanes);

        // Oracle: the stable scalar merge of the payload-carrying
        // elements. Tags encode side and input order, so equality here
        // pins every tie-break, not just the key sequence.
        let zero = Keyed { key: 0, tag: 0 };
        let mut oracle = vec![zero; a.len() + b.len()];
        merge_into_scalar(&a, &b, &mut oracle);
        for (lane, expect) in lanes.iter().zip(&oracle) {
            prop_assert_eq!(lane.key_lane(), expect.key);
            let idx = lane.idx() as usize;
            let from_a = idx < a.len();
            prop_assert_eq!(from_a, expect.tag < 2_000_000);
            let src = if from_a { a[idx] } else { b[idx - a.len()] };
            prop_assert_eq!(src.tag, expect.tag);
        }
    }
}

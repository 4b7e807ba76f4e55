//! `SORT_SPLIT` routing for the heap's `Entry<K, V>` nodes.
//!
//! Every node operation of the heap is a `SORT_SPLIT` or a merge, and
//! the streaming primitives in `primitives` (merge into scratch, copy
//! both halves back) compute each one in two passes over both runs.
//! Most heap merges need far less: once a subtree settles, its nodes
//! are already split, and a fresh batch usually undercuts a node's
//! maximum in only a few places. This module puts two adaptive
//! short-cuts in front of the primitives; the results are the
//! primitives' exactly (stable, `a` wins ties), so the differential
//! tests below use them as the oracle.
//!
//! * **Disjoint runs.** When the split point coincides with the run
//!   boundary and every small-side key is at most every large-side key,
//!   both halves already hold their output ([`sort_split_entries`]).
//! * **Narrow crossings.** The full-split shape
//!   ([`sort_split_full_entries`], both runs the same length, `a` keeps
//!   the small half — every heapify split is this shape) probes the
//!   Merge Path cut at diagonal `a.len()` first. It counts how many `b`
//!   entries belong in the small half (`j`). `j == 0` is a no-op. A
//!   *narrow* crossing (`j ≤ a.len() /` [`INPLACE_MAX_CROSS_FRAC`]) is
//!   resolved in place: stash the `j` displaced `a`-tail entries, merge
//!   `b`'s head into `a` backwards, merge the stash into `b` forwards —
//!   `O(crossing)` moves and zero bulk copies, ~2.5× the streaming
//!   kernel on sparse crossings (EXPERIMENTS.md E11). Wide crossings
//!   take the streaming primitive, which wins once most of both runs
//!   must move.
//!
//! The routing predicates depend only on key values, so every host
//! takes identical paths and produces identical results.

use pq_api::{Entry, KeyType, ValueType};
use primitives::{merge_into, merge_path_search, SortSplitResult};

/// `SORT_SPLIT` with the same contract as `primitives::sort_split`,
/// short-cut when the runs are already split at `ma`.
pub(crate) fn sort_split_entries<K: KeyType, V: ValueType>(
    z: &mut [Entry<K, V>],
    na: usize,
    w: &mut [Entry<K, V>],
    nb: usize,
    ma: usize,
    orig: &mut Vec<Entry<K, V>>,
) -> SortSplitResult {
    let total = na + nb;
    assert!(ma <= total, "cannot take more smallest elements than exist");
    // Disjoint fast path: when the split point coincides with the run
    // boundary and every `z` key is at most every `w` key, both halves
    // already hold their output.
    if ma == na && (na == 0 || nb == 0 || z[na - 1] <= w[0]) {
        return SortSplitResult { ma, mb: total - ma };
    }
    primitives::sort_split(z, na, w, nb, ma, orig)
}

/// `SORT_SPLIT` between two full batches (`primitives::sort_split_full`
/// contract: `a` keeps the `a.len()` smallest, `a` wins ties), computed
/// **in place** with work proportional to the crossing region.
///
/// The merge-path cut `(i, j)` at `a.len()` splits the outputs into
/// `a' = merge(a[..i], b[..j])` and `b' = merge(a[i..], b[j..])`. Both
/// are built inside their own node:
///
/// * `a'` by a *backward* merge — the write cursor descends from the
///   top of `a` and stays strictly above the `a` read cursor until
///   `b[..j]` drains, at which point the untouched prefix of `a` is
///   already in place. Elements of `a` below `b[0]` are never moved.
/// * `b'` by a *forward* merge of the stashed `a[i..]` into `b` — the
///   mirror-image invariant of [`merge_suffixes_in_place`]. Elements
///   of `b` above `max(a)` are never moved.
///
/// The in-place form loses its element-wise loops' race against the
/// unrolled merge + `memcpy` primitive once the crossing widens
/// (measured ~10% slower at full interleave, 2.5× faster at narrow
/// crossings — E11), so routing is adaptive on the measured cut: the
/// crossing `j` must stay under [`INPLACE_MAX_CROSS_FRAC`] of the
/// node.
pub(crate) fn sort_split_full_entries<K: KeyType, V: ValueType>(
    a: &mut [Entry<K, V>],
    b: &mut [Entry<K, V>],
    orig: &mut Vec<Entry<K, V>>,
) {
    debug_assert!(a.windows(2).all(|p| p[0] <= p[1]), "A not sorted");
    debug_assert!(b.windows(2).all(|p| p[0] <= p[1]), "B not sorted");
    let (i, j) = merge_path_search(a, b, a.len());
    if j == 0 {
        // Already split: every a key is at most every b key.
        return;
    }
    if j > a.len() / INPLACE_MAX_CROSS_FRAC {
        // Wide crossing: the streaming primitive wins.
        primitives::sort_split_full(a, b, orig);
        return;
    }
    // len(a[i..]) == a.len() - i == j: exactly the stash the forward
    // in-place merge needs to stay ahead of its write cursor.
    orig.clear();
    orig.extend_from_slice(&a[i..]);
    merge_prefixes_in_place(a, i, &b[..j]);
    merge_suffixes_in_place(b, j, orig);
}

/// In-place full splits are taken only when the crossing is at most
/// `1/this` of the small side (see [`sort_split_full_entries`]).
const INPLACE_MAX_CROSS_FRAC: usize = 8;

/// Merge `bs` with `a[..i]` into `a[..]` (`a.len() == i + bs.len()`),
/// the `a` side winning ties, writing *backward* from the top.
///
/// In place without scratch: the write cursor `w` descends from
/// `a.len()` while the read cursor `ra` descends from `i`, and
/// `w - ra` equals the unconsumed part of `bs` — strictly positive
/// until `bs` drains, at which point `a[..ra]` is already in its final
/// position and the loop stops. Descending emit order puts a `b`
/// instance *above* an equal `a` instance, which is exactly the
/// stable-merge (`a` wins) order.
fn merge_prefixes_in_place<T: Ord + Copy>(a: &mut [T], i: usize, bs: &[T]) {
    debug_assert_eq!(a.len(), i + bs.len());
    let (mut w, mut ra) = (a.len(), i);
    for &be in bs.iter().rev() {
        while ra > 0 && a[ra - 1] > be {
            w -= 1;
            a[w] = a[ra - 1];
            ra -= 1;
        }
        w -= 1;
        a[w] = be;
    }
    debug_assert!(w == ra, "prefix must land in place");
}

/// In-place absorb merge: `dst[..na]` (sorted) is merged with `add`
/// (sorted) into `dst[..na + add.len()]`, `dst` winning ties — the
/// pBuffer-absorb step of INSERT. The `dst` prefix is stashed in `orig`
/// first so the merge can write `dst` in place.
pub(crate) fn merge_absorb<K: KeyType, V: ValueType>(
    dst: &mut [Entry<K, V>],
    na: usize,
    add: &[Entry<K, V>],
    orig: &mut Vec<Entry<K, V>>,
) {
    let total = na + add.len();
    debug_assert!(dst.len() >= total);
    orig.clear();
    orig.extend_from_slice(&dst[..na]);
    merge_into(orig, add, &mut dst[..total]);
}

/// Merge `ys` (length `j`) with `x[j..]` into `x[..]` in place, `ys`
/// winning ties (it is the `a`-side suffix of the sibling merge).
///
/// Safe without scratch because the write cursor trails the `x` read
/// cursor by exactly `j - (ys consumed)`, which stays positive until
/// `ys` is drained — at which point the remaining `x[rx..]` tail is
/// already in its final position, so the loop stops there.
fn merge_suffixes_in_place<T: Ord + Copy>(x: &mut [T], j: usize, ys: &[T]) {
    debug_assert_eq!(ys.len(), j);
    let (mut w, mut rx) = (0usize, j);
    for &ye in ys {
        while rx < x.len() && x[rx] < ye {
            x[w] = x[rx];
            w += 1;
            rx += 1;
        }
        x[w] = ye;
        w += 1;
    }
    debug_assert!(w == rx, "tail must land in place");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(start: u32, step: u32, n: usize, tag: u32) -> Vec<Entry<u32, u32>> {
        (0..n as u32).map(|i| Entry::new(start + i * step, tag + i)).collect()
    }

    #[test]
    fn routed_split_matches_scalar_primitive() {
        let mut orig = Vec::new();
        for (na, nb, ma) in
            [(0, 0, 0), (1, 0, 1), (7, 9, 7), (128, 128, 128), (300, 200, 300), (200, 400, 150)]
        {
            let mb = na + nb - ma;
            let mut z = run(0, 3, na, 1000);
            z.resize(na.max(ma), Entry::sentinel());
            let mut w = run(1, 2, nb, 5000);
            w.resize(nb.max(mb), Entry::sentinel());
            let mut z2 = z.clone();
            let mut w2 = w.clone();
            let mut s = Vec::new();
            let r1 = sort_split_entries(&mut z, na, &mut w, nb, ma, &mut orig);
            let r2 = primitives::sort_split(&mut z2, na, &mut w2, nb, ma, &mut s);
            assert_eq!((r1.ma, r1.mb), (r2.ma, r2.mb));
            assert_eq!(&z[..r1.ma], &z2[..r1.ma], "na={na} nb={nb} ma={ma}");
            assert_eq!(&w[..r1.mb], &w2[..r1.mb], "na={na} nb={nb} ma={ma}");
        }
    }

    #[test]
    fn gather_preserves_payloads_and_tie_order() {
        let mut orig = Vec::new();
        // All keys equal: output must be a-run payloads then b-run
        // payloads, in original order (stability).
        let n = 96;
        let mut a: Vec<Entry<u32, u32>> = (0..n).map(|i| Entry::new(7, i)).collect();
        let mut b: Vec<Entry<u32, u32>> = (0..n).map(|i| Entry::new(7, 1000 + i)).collect();
        sort_split_full_entries(&mut a, &mut b, &mut orig);
        let vals: Vec<u32> = a.iter().chain(b.iter()).map(|e| e.value).collect();
        let want: Vec<u32> = (0..n).chain(1000..1000 + n).collect();
        assert_eq!(vals, want);
    }

    #[test]
    fn absorb_matches_merge_into() {
        let mut orig = Vec::new();
        for (na, nb) in [(0, 5), (80, 80), (200, 56), (3, 250)] {
            let mut dst = run(0, 2, na, 0);
            dst.resize(na + nb, Entry::sentinel());
            let add = run(1, 2, nb, 9000);
            let mut want = vec![Entry::sentinel(); na + nb];
            let stash: Vec<_> = dst[..na].to_vec();
            merge_into(&stash, &add, &mut want);
            merge_absorb(&mut dst, na, &add, &mut orig);
            assert_eq!(dst, want, "na={na} nb={nb}");
        }
    }

    /// Full splits of two `k`-entry nodes against the streaming
    /// primitive, payloads included (`Entry` equality compares keys
    /// only). `value` builds the payload from a per-entry tag.
    fn check_full_splits<V: ValueType + PartialEq + core::fmt::Debug>(value: impl Fn(u32) -> V) {
        type KeyFn = Box<dyn Fn(u32) -> u32>;
        let mut orig = Vec::new();
        let k = 128;
        // Crossing sizes at and one past the in-place limit: `a` holds
        // the even keys, `b` opens with `cut` odd keys below `a`'s max
        // and continues above it, so exactly `cut` entries of `b`
        // belong in the small half.
        let limit = (k / INPLACE_MAX_CROSS_FRAC) as u32;
        let crossing =
            |cut: u32| -> KeyFn { Box::new(move |i| if i < cut { 2 * i + 1 } else { 1000 + i }) };
        // Patterns: interleaved, disjoint both ways, all-equal keys
        // (pure tie-order check), duplicate-heavy, single-crossing,
        // then the two crossings that bracket the in-place limit.
        let cases: [(KeyFn, KeyFn, Option<u32>); 8] = [
            (Box::new(|i| 2 * i), Box::new(|i| 2 * i + 1), None),
            (Box::new(|i| i), Box::new(|i| i + 1000), None),
            (Box::new(|i| i + 1000), Box::new(|i| i), None),
            (Box::new(|_| 7), Box::new(|_| 7), None),
            (Box::new(|i| i / 4), Box::new(|i| i / 3), None),
            (Box::new(|i| i), Box::new(|i| i + 120), None),
            (Box::new(|i| 2 * i), crossing(limit), Some(limit)),
            (Box::new(|i| 2 * i), crossing(limit + 1), Some(limit + 1)),
        ];
        for (ci, (fa, fb, want_cross)) in cases.iter().enumerate() {
            let mk = |f: &dyn Fn(u32) -> u32, tag: u32| -> Vec<Entry<u32, V>> {
                let mut v: Vec<Entry<u32, V>> =
                    (0..k as u32).map(|i| Entry::new(f(i), value(tag + i))).collect();
                v.sort_by_key(|e| e.key);
                v
            };
            let (mut a, mut b) = (mk(fa, 0), mk(fb, 10_000));
            if let Some(cut) = want_cross {
                assert_eq!(merge_path_search(&a, &b, k).1, *cut as usize, "case {ci} crossing");
            }
            let (mut a2, mut b2) = (a.clone(), b.clone());
            sort_split_full_entries(&mut a, &mut b, &mut orig);
            let mut s = Vec::new();
            primitives::sort_split_full(&mut a2, &mut b2, &mut s);
            let pairs = |v: &[Entry<u32, V>]| -> Vec<(u32, V)> {
                v.iter().map(|e| (e.key, e.value)).collect()
            };
            assert_eq!(pairs(&a), pairs(&a2), "small side mismatch, case {ci}");
            assert_eq!(pairs(&b), pairs(&b2), "large side mismatch, case {ci}");
        }
    }

    #[test]
    fn inplace_full_split_matches_primitive() {
        check_full_splits(|tag| tag);
        // 16-byte entries: their wide crossings take the streaming
        // primitive like every other entry width.
        assert_eq!(core::mem::size_of::<Entry<u32, u64>>(), 16);
        check_full_splits(|tag| (u64::from(tag) << 32) | 0xA5);
    }

    #[test]
    fn inplace_full_split_unequal_sizes() {
        let mut orig = Vec::new();
        let mut a = vec![
            Entry::<u32, u32>::new(10, 0),
            Entry::new(20, 1),
            Entry::new(30, 2),
            Entry::new(40, 3),
            Entry::new(50, 4),
            Entry::new(60, 5),
        ];
        let mut b = vec![Entry::<u32, u32>::new(15, 10), Entry::new(35, 11)];
        sort_split_full_entries(&mut a, &mut b, &mut orig);
        let keys: Vec<u32> = a.iter().map(|e| e.key).collect();
        assert_eq!(keys, [10, 15, 20, 30, 35, 40]);
        let keys: Vec<u32> = b.iter().map(|e| e.key).collect();
        assert_eq!(keys, [50, 60]);
    }

    // Not a correctness test: `cargo test -p bgpq --release
    // inplace_timing -- --ignored --nocapture` compares the in-place
    // crossing-bounded full split against the merge-to-scratch
    // primitive on a full random interleave (its worst case) and a
    // narrow crossing (its best case).
    #[test]
    #[ignore]
    fn inplace_timing() {
        let mut orig = Vec::new();
        let k = 1024;
        let mk = |seed: u32, base: u32| -> Vec<Entry<u32, u32>> {
            let mut s = seed;
            let mut v: Vec<Entry<u32, u32>> = (0..k as u32)
                .map(|i| {
                    s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                    Entry::new(base + (s >> 8) % 100_000, i)
                })
                .collect();
            v.sort_by_key(|e| e.key);
            v
        };
        for (name, a0, b0) in
            [("interleaved", mk(1, 0), mk(2, 0)), ("narrow-cross", mk(3, 0), mk(4, 95_000))]
        {
            let mut s = Vec::new();
            for route in ["in-place", "primitive"] {
                let (mut a, mut b) = (a0.clone(), b0.clone());
                let reps = 20_000;
                let t0 = std::time::Instant::now();
                for _ in 0..reps {
                    a.copy_from_slice(&a0);
                    b.copy_from_slice(&b0);
                    if route == "in-place" {
                        sort_split_full_entries(&mut a, &mut b, &mut orig);
                    } else {
                        primitives::sort_split_full(&mut a, &mut b, &mut s);
                    }
                }
                let ns = t0.elapsed().as_secs_f64() * 1e9 / (reps * 2 * k) as f64;
                println!("{name:12} {route:9} {ns:.3} ns/entry");
            }
        }
    }

    #[test]
    fn disjoint_fast_path_is_a_noop() {
        let mut orig = Vec::new();
        let mut a = run(0, 1, 128, 0);
        let mut b = run(1000, 1, 128, 500);
        let (a0, b0) = (a.clone(), b.clone());
        sort_split_full_entries(&mut a, &mut b, &mut orig);
        assert_eq!(a, a0);
        assert_eq!(b, b0);
        assert!(orig.is_empty(), "fast path must not stage");
    }
}

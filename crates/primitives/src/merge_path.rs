//! GPU Merge Path (Green, McColl & Bader, ICS'12).
//!
//! Merging two sorted sequences `A` (len `m`) and `B` (len `n`) can be
//! viewed as a monotone staircase path through an `m × n` grid. Merge
//! Path assigns thread `i` the segment of the output between cross
//! diagonals `i·L` and `(i+1)·L` (with `L = (m+n)/p`); each thread binary
//! searches its diagonal for the staircase intersection and then merges
//! its chunk independently — no inter-thread communication until the
//! final barrier.
//!
//! The host keeps the diagonal search ([`merge_path_search`], which
//! the heap's `SORT_SPLIT` uses to find its split point) and the chunk
//! walk ([`merge_path_partition`], the outer loop of the SIMD merge).
//! The merges themselves run sequentially ([`merge_into`]); the
//! simulator charges the partitioned schedule from the closed-form
//! counts in [`crate::cost`].

/// Find the merge-path intersection for cross diagonal `diag`
/// (`0 <= diag <= a.len() + b.len()`): returns `(i, j)` with
/// `i + j == diag` such that merging `a[..i]` and `b[..j]` yields the
/// first `diag` output elements. Stable: ties are broken toward
/// consuming from `a` first.
pub fn merge_path_search<T: Ord>(a: &[T], b: &[T], diag: usize) -> (usize, usize) {
    debug_assert!(diag <= a.len() + b.len());
    // Binary search over i in [max(0, diag-n), min(diag, m)].
    let mut lo = diag.saturating_sub(b.len());
    let mut hi = diag.min(a.len());
    while lo < hi {
        let i = lo + (hi - lo) / 2;
        let j = diag - i;
        // Path goes below-left of (i, j) iff a[i] <= b[j-1] is violated.
        // Stability (a first on ties): advance in `a` while
        // a[i] <= b[j-1], i.e. move i up when a[i] < b[j-1] OR equal.
        if j > 0 && a[i] <= b[j - 1] {
            lo = i + 1;
        } else {
            hi = i;
        }
    }
    (lo, diag - lo)
}

/// Walk the merge of sorted `a` and `b` in output chunks of at most
/// `chunk_len`, calling `f(d0..d1, i0..i1, j0..j1)` for each chunk:
/// output positions `d0..d1` are produced by merging `a[i0..i1]` with
/// `b[j0..j1]`. Boundaries come from [`merge_path_search`], so the
/// chunks compose to exactly the stable (`a` wins ties) merge.
///
/// This is the Merge Path *outer loop* of the SIMD kernels in
/// [`crate::simd`]: a chunk whose `a` (or `b`) range is empty is a pure
/// copy of the other run — the caller can service it with a bulk copy
/// and reserve the merge kernel for chunks where the runs actually
/// cross.
pub fn merge_path_partition<T: Ord>(
    a: &[T],
    b: &[T],
    chunk_len: usize,
    mut f: impl FnMut(core::ops::Range<usize>, core::ops::Range<usize>, core::ops::Range<usize>),
) {
    assert!(chunk_len >= 1, "need a positive chunk length");
    let total = a.len() + b.len();
    let (mut i0, mut j0) = (0usize, 0usize);
    let mut d0 = 0usize;
    while d0 < total {
        let d1 = (d0 + chunk_len).min(total);
        let (i1, j1) = merge_path_search(a, b, d1);
        f(d0..d1, i0..i1, j0..j1);
        (i0, j0, d0) = (i1, j1, d1);
    }
}

/// Reference two-way merge: the textbook branchy loop. Kept as the
/// differential-test oracle for [`merge_into`] (and as documentation of
/// the required semantics: stable, `a` wins ties). Not used on hot
/// paths.
pub fn merge_into_scalar<T: Ord + Copy>(a: &[T], b: &[T], out: &mut [T]) {
    assert_eq!(out.len(), a.len() + b.len(), "output size mismatch");
    let (mut i, mut j) = (0, 0);
    for slot in out.iter_mut() {
        if i < a.len() && (j >= b.len() || a[i] <= b[j]) {
            *slot = a[i];
            i += 1;
        } else {
            *slot = b[j];
            j += 1;
        }
    }
}

/// Sequential two-way merge of sorted `a` and `b` into `out`
/// (`out.len() == a.len() + b.len()`). Stable (`a` wins ties).
///
/// Check-free unrolled fast path: while both runs have ≥ 4 elements
/// left, a 4-wide unrolled loop merges with no bounds checks and no
/// run-exhaustion tests — the guard proves every access in-bounds for
/// four steps at a time. The element *selection* stays a branch on
/// purpose: the heapify cascades feed this merge runs whose
/// take-direction is highly predictable (one side wins for long
/// stretches after a `SORT_SPLIT`), and on such inputs the predicted
/// branch lets the core speculate past the serial compare→select→
/// advance dependency chain. The cmov formulation (select and cursor
/// bumps as conditional moves) was measured ~3.5× slower in that
/// regime on the benchmark host, only pulling ahead ~10% on
/// adversarially random interleavings — see EXPERIMENTS.md
/// ("hot-path"). Exhausted tails finish with bulk copies. Semantics
/// are identical to [`merge_into_scalar`] (differential-tested in
/// `tests/proptests.rs`).
pub fn merge_into<T: Ord + Copy>(a: &[T], b: &[T], out: &mut [T]) {
    let (m, n) = (a.len(), b.len());
    assert_eq!(out.len(), m + n, "output size mismatch");
    let (mut i, mut j, mut o) = (0usize, 0usize, 0usize);

    // Fast path: each of the next 4 steps consumes one element from
    // either run, so `i` grows by at most 4 and `j` by at most 4 — the
    // guard makes every access in-bounds with no per-element check.
    while i + 4 <= m && j + 4 <= n {
        for _ in 0..4 {
            // SAFETY: the loop guard bounds i < m and j < n for all four
            // steps (each step advances exactly one cursor by one), and
            // o < m + n because o == i + j.
            unsafe {
                let av = *a.get_unchecked(i);
                let bv = *b.get_unchecked(j);
                if av <= bv {
                    *out.get_unchecked_mut(o) = av;
                    i += 1;
                } else {
                    *out.get_unchecked_mut(o) = bv;
                    j += 1;
                }
            }
            o += 1;
        }
    }

    // Remainder until one run is exhausted.
    while i < m && j < n {
        let (av, bv) = (a[i], b[j]);
        if av <= bv {
            out[o] = av;
            i += 1;
        } else {
            out[o] = bv;
            j += 1;
        }
        o += 1;
    }

    // Exactly one tail is non-empty; both copies are cheap no-ops
    // otherwise.
    out[o..o + (m - i)].copy_from_slice(&a[i..]);
    o += m - i;
    out[o..].copy_from_slice(&b[j..]);
}

/// Merge sorted `a` and `b` into `out`, a `Vec` that is cleared and
/// refilled without zero-initializing: the merge writes straight into
/// the vector's spare capacity. This is the allocation- and
/// memset-free form the `SORT_SPLIT` hot path uses — with a scratch
/// vector that has warmed up to `a.len() + b.len()` capacity, the call
/// performs no allocation at all.
pub fn merge_into_vec<T: Ord + Copy>(a: &[T], b: &[T], out: &mut Vec<T>) {
    let (m, n) = (a.len(), b.len());
    let total = m + n;
    out.clear();
    out.reserve(total);
    // Same check-free unrolled shape as `merge_into` (see its docs for
    // why the selection stays a branch), writing through the spare
    // capacity so nothing is zero-initialized first.
    let dst = out.as_mut_ptr();
    let (mut i, mut j, mut o) = (0usize, 0usize, 0usize);
    while i + 4 <= m && j + 4 <= n {
        for _ in 0..4 {
            // SAFETY: the guard bounds i < m and j < n for all four
            // steps; o == i + j < total <= capacity after the reserve.
            unsafe {
                let av = *a.get_unchecked(i);
                let bv = *b.get_unchecked(j);
                if av <= bv {
                    dst.add(o).write(av);
                    i += 1;
                } else {
                    dst.add(o).write(bv);
                    j += 1;
                }
            }
            o += 1;
        }
    }
    while i < m && j < n {
        let (av, bv) = (a[i], b[j]);
        // SAFETY: o == i + j < total <= capacity.
        unsafe {
            if av <= bv {
                dst.add(o).write(av);
                i += 1;
            } else {
                dst.add(o).write(bv);
                j += 1;
            }
        }
        o += 1;
    }
    // SAFETY: the tail writes stay within o + (m - i) + (n - j) ==
    // total <= capacity, and the sources don't overlap the
    // just-reserved destination.
    unsafe {
        std::ptr::copy_nonoverlapping(a.as_ptr().add(i), dst.add(o), m - i);
        o += m - i;
        std::ptr::copy_nonoverlapping(b.as_ptr().add(j), dst.add(o), n - j);
        o += n - j;
    }
    debug_assert_eq!(o, total);
    // SAFETY: the writes above initialized out[..total]; T: Copy so no
    // drops are skipped by the earlier clear-to-zero-len.
    unsafe { out.set_len(total) };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn std_merge(a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut v: Vec<u32> = a.iter().chain(b.iter()).copied().collect();
        v.sort();
        v
    }

    #[test]
    fn search_endpoints() {
        let a = [1u32, 3, 5];
        let b = [2u32, 4, 6];
        assert_eq!(merge_path_search(&a, &b, 0), (0, 0));
        assert_eq!(merge_path_search(&a, &b, 6), (3, 3));
    }

    #[test]
    fn search_matches_prefix_semantics() {
        let a = [1u32, 3, 5, 7];
        let b = [2u32, 2, 6];
        for diag in 0..=a.len() + b.len() {
            let (i, j) = merge_path_search(&a, &b, diag);
            assert_eq!(i + j, diag);
            // Merging the prefixes must give the diag smallest elements.
            let mut merged: Vec<u32> = a[..i].iter().chain(b[..j].iter()).copied().collect();
            merged.sort();
            let mut all = std_merge(&a, &b);
            all.truncate(diag);
            assert_eq!(merged, all, "diag={diag}");
        }
    }

    #[test]
    fn merge_into_is_stable_and_sorted() {
        let a = [1u32, 4, 4, 9];
        let b = [0u32, 4, 8];
        let mut out = [0u32; 7];
        merge_into(&a, &b, &mut out);
        assert_eq!(out, [0, 1, 4, 4, 4, 8, 9]);
        let mut scalar = [0u32; 7];
        merge_into_scalar(&a, &b, &mut scalar);
        assert_eq!(out, scalar);
    }

    #[test]
    fn branchless_matches_scalar_across_length_mixes() {
        // Cover: both runs long (unrolled path), one short (remainder
        // path), one empty (tail-copy path), ties everywhere.
        for (la, lb) in [(0, 0), (0, 9), (9, 0), (1, 1), (3, 17), (16, 16), (33, 41)] {
            let a: Vec<u32> = (0..la).map(|x: u32| x.wrapping_mul(2654435761) % 50).collect();
            let b: Vec<u32> = (0..lb).map(|x: u32| x.wrapping_mul(40503) % 50).collect();
            let (mut a, mut b) = (a, b);
            a.sort_unstable();
            b.sort_unstable();
            let mut fast = vec![0u32; (la + lb) as usize];
            let mut slow = fast.clone();
            merge_into(&a, &b, &mut fast);
            merge_into_scalar(&a, &b, &mut slow);
            assert_eq!(fast, slow, "la={la} lb={lb}");
        }
    }

    #[test]
    fn merge_into_vec_reuses_capacity() {
        let a = [1u32, 3, 5];
        let b = [2u32, 4, 6, 7];
        let mut out = Vec::new();
        merge_into_vec(&a, &b, &mut out);
        assert_eq!(out, [1, 2, 3, 4, 5, 6, 7]);
        let cap = out.capacity();
        merge_into_vec(&b, &a, &mut out);
        assert_eq!(out, [1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(out.capacity(), cap, "warm scratch must not reallocate");
        merge_into_vec::<u32>(&[], &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn empty_inputs() {
        let mut out: [u32; 0] = [];
        merge_into(&[], &[], &mut out);
        let a = [1u32, 2];
        let mut out2 = [0u32; 2];
        merge_into(&a, &[], &mut out2);
        assert_eq!(out2, [1, 2]);
        let mut out3 = [0u32; 2];
        merge_into(&[], &a, &mut out3);
        assert_eq!(out3, [1, 2]);
    }
}

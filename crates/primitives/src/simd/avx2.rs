//! AVX2 merge kernel: an in-register bitonic merge network over
//! 4 × `u64` lanes.
//!
//! `bmerge8` is the network a CUDA thread block would run across a
//! warp, here folded into two registers: reverse one sorted register
//! against the other, one min/max stage, then the distance-2/1 cleanup
//! stages per register. It is the inner kernel of the merge loop: keep
//! the high half as carry, refill the low operand from whichever run's
//! head is smaller, emit 4 sorted lanes per iteration.
//!
//! AVX2 has no unsigned 64-bit vector compare; the kernel biases both
//! operands by `i64::MIN` and uses the signed `cmpgt`, which realizes
//! unsigned order. Unaligned loads/stores throughout — node buffers
//! carry no alignment guarantee.
//!
//! [`merge_lane`] is called only after dispatch resolved to AVX2
//! (`is_x86_feature_detected!("avx2")` succeeded), which makes the
//! `#[target_feature(enable = "avx2")]` calls sound.

#![allow(unsafe_op_in_unsafe_fn)]

use super::KeyIdxLane;
use crate::merge_path::{merge_into as scalar_merge, merge_path_partition};
use core::arch::x86_64::*;

/// Outer-loop chunk width (in lanes) for the Merge Path partition: a
/// chunk that consumes only one run is serviced by a bulk copy, so
/// merges of mostly-disjoint runs (the heapify steady state after a
/// `SORT_SPLIT` cascade) degrade to `memcpy` speed at this
/// granularity.
const CHUNK: usize = 512;

pub(super) fn merge_lane(a: &[KeyIdxLane], b: &[KeyIdxLane], out: &mut [KeyIdxLane]) {
    debug_assert!(
        std::arch::is_x86_feature_detected!("avx2"),
        "AVX2 kernel invoked without AVX2 dispatch"
    );
    let (a, b, out) = (as_u64(a), as_u64(b), as_u64_mut(out));
    merge_path_partition(a, b, CHUNK, |d, ra, rb| {
        let (ca, cb) = (&a[ra], &b[rb]);
        let dst = &mut out[d];
        if cb.is_empty() {
            dst.copy_from_slice(ca);
        } else if ca.is_empty() {
            dst.copy_from_slice(cb);
        } else {
            // SAFETY: dispatch guarantees AVX2 (see assert above).
            unsafe { merge_runs_u64(ca, cb, dst) }
        }
    });
}

/// Unsigned 64-bit (min, max): signed compare on sign-biased operands.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn minmax_u64(a: __m256i, b: __m256i) -> (__m256i, __m256i) {
    let s = _mm256_set1_epi64x(i64::MIN);
    let g = _mm256_cmpgt_epi64(_mm256_xor_si256(a, s), _mm256_xor_si256(b, s));
    (_mm256_blendv_epi8(a, b, g), _mm256_blendv_epi8(b, a, g))
}

/// Vector-loop merge of two sorted runs (both non-empty). Emits 4
/// sorted lanes per iteration while both runs can refill a register;
/// finishes with a scalar three-way merge of the carry register and
/// the run tails.
#[target_feature(enable = "avx2")]
unsafe fn merge_runs_u64(a: &[u64], b: &[u64], out: &mut [u64]) {
    let (m, n) = (a.len(), b.len());
    if m < 4 || n < 4 {
        scalar_merge(a, b, out);
        return;
    }
    let mut va = _mm256_loadu_si256(a.as_ptr().cast());
    let mut vb = _mm256_loadu_si256(b.as_ptr().cast());
    let (mut ia, mut ib, mut o) = (4usize, 4usize, 0usize);
    loop {
        let (lo, hi) = bmerge8(va, vb);
        _mm256_storeu_si256(out.as_mut_ptr().add(o).cast(), lo);
        o += 4;
        va = hi;
        // Refill from the run whose next head is smaller: the network
        // tolerates any sorted refill — the choice just keeps the carry
        // from starving.
        if ia + 4 <= m && ib + 4 <= n {
            if a[ia] <= b[ib] {
                vb = _mm256_loadu_si256(a.as_ptr().add(ia).cast());
                ia += 4;
            } else {
                vb = _mm256_loadu_si256(b.as_ptr().add(ib).cast());
                ib += 4;
            }
        } else {
            break;
        }
    }
    let mut carry = [0u64; 4];
    _mm256_storeu_si256(carry.as_mut_ptr().cast(), va);
    three_way_tail(&carry, &a[ia..], &b[ib..], &mut out[o..]);
}

/// Bitonic merge network over 8 lanes in two registers (4 + 4): `a`
/// and `b` sorted ascending in, (4 smallest sorted, 4 largest sorted)
/// out.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn bmerge8(a: __m256i, b: __m256i) -> (__m256i, __m256i) {
    let br = _mm256_permute4x64_epi64(b, 0x1B); // reverse
    let (lo, hi) = minmax_u64(a, br);
    (bitonic4(lo), bitonic4(hi))
}

/// Sort a 4-lane bitonic sequence ascending (distances 2, 1).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn bitonic4(x: __m256i) -> __m256i {
    let y = _mm256_permute4x64_epi64(x, 0x4E); // distance 2
    let (mn, mx) = minmax_u64(x, y);
    let x = _mm256_blend_epi32(mn, mx, 0xF0);
    let y = _mm256_permute4x64_epi64(x, 0xB1); // distance 1
    let (mn, mx) = minmax_u64(x, y);
    _mm256_blend_epi32(mn, mx, 0xCC)
}

#[inline]
fn as_u64(v: &[KeyIdxLane]) -> &[u64] {
    // SAFETY: KeyIdxLane is repr(transparent) over u64, and its Ord is
    // the u64 order.
    unsafe { core::slice::from_raw_parts(v.as_ptr().cast(), v.len()) }
}

#[inline]
fn as_u64_mut(v: &mut [KeyIdxLane]) -> &mut [u64] {
    // SAFETY: as `as_u64`.
    unsafe { core::slice::from_raw_parts_mut(v.as_mut_ptr().cast(), v.len()) }
}

/// Scalar three-way merge of the carry register and the two run tails
/// — everything here is >= all previously emitted lanes. Ties prefer
/// carry, then `a`, then `b`; tied lanes are bit-identical, so the
/// output equals the scalar oracle's.
fn three_way_tail(c: &[u64], a: &[u64], b: &[u64], out: &mut [u64]) {
    debug_assert_eq!(out.len(), c.len() + a.len() + b.len());
    let (mut i, mut j, mut l) = (0usize, 0usize, 0usize);
    for slot in out.iter_mut() {
        let from_c =
            i < c.len() && (j >= a.len() || c[i] <= a[j]) && (l >= b.len() || c[i] <= b[l]);
        if from_c {
            *slot = c[i];
            i += 1;
        } else if j < a.len() && (l >= b.len() || a[j] <= b[l]) {
            *slot = a[j];
            j += 1;
        } else {
            *slot = b[l];
            l += 1;
        }
    }
}

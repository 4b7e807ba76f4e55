//! Prefetch hints, and the lane names the benchmark's kernel probe
//! imports.
//!
//! A thread block runs each node operation in lockstep: it
//! merge-path-merges two nodes and splits the result (`SORT_SPLIT`,
//! §4). The simulator charges that schedule from [`crate::cost`]; the
//! host computes every node result with one merge, the generic scalar
//! [`crate::merge_into`], and [`fn@crate::sort_split`] on top of it.
//!
//! Besides the heap's prefetch hints ([`prefetch_read`],
//! [`prefetch_read_l2`]), this module keeps four names only because
//! perfbench's per-layer `primitives.*` probe imports them:
//! [`KeyIdxLane`], [`merge_into`] and [`sort_split_full`] (the scalar
//! primitives, re-exported) and [`dispatch_mode`] (always
//! [`DispatchMode::Scalar`]). They go once the probe times the heap's
//! own entry type (DESIGN.md §8).

pub use crate::merge_path::merge_into;
pub use crate::sort_split::sort_split_full;

/// The host merge in use, as the benchmark header prints it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchMode {
    /// The generic scalar merge, the only one.
    Scalar,
}

/// The host merge in use: always [`DispatchMode::Scalar`].
pub fn dispatch_mode() -> DispatchMode {
    DispatchMode::Scalar
}

/// Packed (key, source index) lane: key in the high 32 bits, index in
/// the low 32. Plain `u64` comparison orders by key first, then by
/// index — so runs packed with ascending indices (`a` before `b`)
/// merge *exactly* stably, and the index doubles as the value
/// permutation the caller applies afterwards. Bit-identical lanes are
/// interchangeable, so any correct merge is stable on them too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct KeyIdxLane(pub u64);

impl KeyIdxLane {
    /// Pack a 32-bit order-preserving key encoding with a source index.
    #[inline]
    pub fn pack(key_lane: u32, idx: u32) -> Self {
        KeyIdxLane(((key_lane as u64) << 32) | idx as u64)
    }

    /// The key encoding (high 32 bits).
    #[inline]
    pub fn key_lane(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The source index (low 32 bits).
    #[inline]
    pub fn idx(self) -> u32 {
        self.0 as u32
    }
}

/// Prefetch the cache line at `p` into all cache levels. A hint only:
/// no memory access happens at the abstract-machine level, so this is
/// safe to call on any address, including memory owned by another
/// thread. Compiles to nothing off x86_64.
#[inline]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch has no observable memory effect; any pointer
    // value (valid or not) is permitted by the instruction.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Like [`prefetch_read`] but with an L2 hint (`T1`): for bulk
/// prefetch of whole nodes that will be *streamed* shortly — pulling
/// 8&nbsp;KiB+ into L1 would evict the working set, L2 is where a
/// subsequent sequential merge wants it.
#[inline]
pub fn prefetch_read_l2<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: as for `prefetch_read`.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T1 }>(p as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_matches_scalar_oracle() {
        let mut x = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for (m, n) in [(0, 5), (5, 0), (1, 1), (7, 9), (8, 8), (100, 3), (1024, 1024), (777, 41)] {
            let mut ka: Vec<u32> = (0..m).map(|_| (next() % 997) as u32).collect();
            let mut kb: Vec<u32> = (0..n).map(|_| (next() % 997) as u32).collect();
            ka.sort_unstable();
            kb.sort_unstable();
            // Distinct indices (the packed payload shape), then index 0
            // everywhere (bit-identical duplicate lanes).
            for distinct in [true, false] {
                let pack = |keys: &[u32], base: usize| -> Vec<KeyIdxLane> {
                    let idx = |i: usize| if distinct { (base + i) as u32 } else { 0 };
                    keys.iter().enumerate().map(|(i, &k)| KeyIdxLane::pack(k, idx(i))).collect()
                };
                let (a, b) = (pack(&ka, 0), pack(&kb, m));
                let mut got = vec![KeyIdxLane::default(); m + n];
                let mut expect = vec![KeyIdxLane::default(); m + n];
                merge_into(&a, &b, &mut got);
                crate::merge_path::merge_into_scalar(&a, &b, &mut expect);
                assert_eq!(got, expect, "m={m} n={n} distinct={distinct}");
            }
        }
    }

    #[test]
    fn packed_lane_merge_is_exactly_stable() {
        // Duplicate keys across both runs; indices make lanes distinct,
        // so the merged index order must be the stable order: a's
        // occurrences (ascending index) before b's.
        let a: Vec<KeyIdxLane> =
            (0..64).map(|i| KeyIdxLane::pack((i / 8) as u32, i as u32)).collect();
        let b: Vec<KeyIdxLane> =
            (0..64).map(|i| KeyIdxLane::pack((i / 8) as u32, 64 + i as u32)).collect();
        let mut got = vec![KeyIdxLane::default(); 128];
        merge_into(&a, &b, &mut got);
        let mut expect = vec![KeyIdxLane::default(); 128];
        crate::merge_path::merge_into_scalar(&a, &b, &mut expect);
        assert_eq!(got, expect);
        // Within each key, indices ascend and a-side (< 64) precede
        // b-side (>= 64).
        for w in got.windows(2) {
            if w[0].key_lane() == w[1].key_lane() {
                assert!(w[0].idx() < w[1].idx());
            }
        }
    }
}

//! Vector merge over packed key|index lanes, and prefetch hints.
//!
//! On the GPU every node operation is executed by `k` threads in
//! lockstep: a thread block merge-path-merges two nodes (§4 "GPU Merge
//! Path") and splits the result (`SORT_SPLIT`). On the CPU the same
//! data parallelism maps onto vector lanes: an AVX2 register holds
//! 4 × `u64` lanes and a compare-exchange is one `min`/`max` pair —
//! exactly one step of the network a warp executes.
//!
//! This module runs that mapping over one lane type, [`KeyIdxLane`]:
//!
//! * [`merge_into`] — Merge Path outer loop (chunked via
//!   [`crate::merge_path::merge_path_partition`]; pure-run chunks are
//!   bulk copies) around an in-register 8-lane bitonic *merge network*
//!   inner kernel;
//! * [`sort_split`] / [`sort_split_full`] — merge + split, the node
//!   operation itself.
//!
//! The heap's `Entry<K, V>` nodes take the generic scalar primitives
//! ([`crate::merge_into`], [`fn@crate::sort_split`]); these kernels are
//! what the benchmark's per-layer `primitives.*` probes time.
//!
//! # Runtime dispatch
//!
//! Kernel selection happens once per process: `is_x86_feature_detected!
//! ("avx2")` combined with the `BGPQ_FORCE_SCALAR` environment variable
//! (any value other than `0`/empty pins the scalar merge). The result
//! is cached, so the steady-state overhead is one relaxed atomic load.
//! The scalar merge is the generic [`crate::merge_path::merge_into`] —
//! always available (non-x86_64 builds compile to it unconditionally)
//! and the differential oracle of the proptest suites.
//!
//! # Stability
//!
//! [`KeyIdxLane`] holds the key in the high 32 bits and a source index
//! in the low 32, so runs packed with distinct indices have distinct
//! lanes — the network's output order on lanes is then the unique
//! stable merge order on (key, index). Bit-identical lanes are
//! interchangeable, so any correct merge is stable on them too.

#[cfg(target_arch = "x86_64")]
mod avx2;

use crate::sort_split::SortSplitResult;
use core::sync::atomic::{AtomicU8, Ordering};

/// How the process resolved kernel dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchMode {
    /// Generic scalar merge (fallback and differential oracle).
    Scalar,
    /// AVX2 vector merge (x86_64 with runtime-detected support).
    Avx2,
}

const MODE_UNINIT: u8 = 0;
const MODE_SCALAR: u8 = 1;
const MODE_AVX2: u8 = 2;

/// Cached dispatch decision. 0 = not yet resolved.
static MODE: AtomicU8 = AtomicU8::new(MODE_UNINIT);

fn detect_mode() -> u8 {
    match std::env::var("BGPQ_FORCE_SCALAR") {
        Ok(v) if !v.is_empty() && v != "0" => return MODE_SCALAR,
        _ => {}
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return MODE_AVX2;
        }
    }
    MODE_SCALAR
}

#[inline]
fn mode_u8() -> u8 {
    let m = MODE.load(Ordering::Relaxed);
    if m != MODE_UNINIT {
        return m;
    }
    let resolved = detect_mode();
    // Racing initializers compute the same value; last store wins.
    MODE.store(resolved, Ordering::Relaxed);
    resolved
}

/// The dispatch mode in effect (resolving it on first use).
pub fn dispatch_mode() -> DispatchMode {
    match mode_u8() {
        MODE_AVX2 => DispatchMode::Avx2,
        _ => DispatchMode::Scalar,
    }
}

/// True when the vector merge is selected.
#[inline]
fn vector_enabled() -> bool {
    mode_u8() == MODE_AVX2
}

/// Pin dispatch to the scalar merge (`true`) or re-resolve from the
/// environment and CPU features (`false`). Process-global; meant for
/// tests and tools that compare both paths in one process — production
/// configuration goes through `BGPQ_FORCE_SCALAR` instead.
pub fn set_forced_scalar(forced: bool) {
    if forced {
        MODE.store(MODE_SCALAR, Ordering::Relaxed);
    } else {
        MODE.store(detect_mode(), Ordering::Relaxed);
    }
}

/// Serializes in-crate tests that flip the dispatch override: the mode
/// is process-global and the test harness is multi-threaded, so any
/// test calling [`set_forced_scalar`] must hold this for its duration.
#[cfg(test)]
pub(crate) static TEST_DISPATCH_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Packed (key, source index) lane: key in the high 32 bits, index in
/// the low 32. Plain `u64` comparison orders by key first, then by
/// index — so runs packed with ascending indices (`a` before `b`)
/// merge *exactly* stably, and the index doubles as the value
/// permutation the caller applies afterwards.
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

/// Dispatched merge of sorted lane runs: stable (`a` wins ties),
/// `out.len() == a.len() + b.len()`. Semantically identical to
/// [`crate::merge_into`]; on AVX2 hosts the inner kernel is an
/// in-register bitonic merge network fed by the Merge Path outer loop.
pub fn merge_into(a: &[KeyIdxLane], b: &[KeyIdxLane], out: &mut [KeyIdxLane]) {
    assert_eq!(out.len(), a.len() + b.len(), "output size mismatch");
    if vector_enabled() {
        #[cfg(target_arch = "x86_64")]
        return avx2::merge_lane(a, b, out);
    }
    crate::merge_path::merge_into(a, b, out);
}

/// Dispatched `SORT_SPLIT` over lane runs — same contract as
/// [`fn@crate::sort_split`], built on the dispatched merge.
pub fn sort_split(
    z: &mut [KeyIdxLane],
    na: usize,
    w: &mut [KeyIdxLane],
    nb: usize,
    ma: usize,
    scratch: &mut Vec<KeyIdxLane>,
) -> SortSplitResult {
    assert!(na <= z.len() && nb <= w.len(), "valid prefix exceeds buffer");
    let total = na + nb;
    assert!(ma <= total, "cannot take more smallest elements than exist");
    let mb = total - ma;
    assert!(ma <= z.len(), "small side does not fit");
    assert!(mb <= w.len(), "large side does not fit");

    // Warm scratch: grow once, then only the `..total` prefix is
    // rewritten per call (the merge fully overwrites it).
    if scratch.len() < total {
        scratch.resize(total, KeyIdxLane::default());
    }
    merge_into(&z[..na], &w[..nb], &mut scratch[..total]);
    z[..ma].copy_from_slice(&scratch[..ma]);
    w[..mb].copy_from_slice(&scratch[ma..total]);
    SortSplitResult { ma, mb }
}

/// Dispatched `SORT_SPLIT` between two full lane runs (`a` keeps the
/// smallest `a.len()`, `b` the largest `b.len()`) — the
/// [`crate::sort_split_full`] shape.
pub fn sort_split_full(a: &mut [KeyIdxLane], b: &mut [KeyIdxLane], scratch: &mut Vec<KeyIdxLane>) {
    let na = a.len();
    let nb = b.len();
    sort_split(a, na, b, nb, na, scratch);
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

    #[test]
    fn sort_split_matches_generic() {
        let lanes = |step: u32| -> Vec<KeyIdxLane> {
            let mut v: Vec<KeyIdxLane> =
                (0..1024u32).map(|i| KeyIdxLane::pack(i * step % 2048, i)).collect();
            v.sort_unstable();
            v
        };
        let (mut z, mut w) = (lanes(3), lanes(7));
        let (mut z2, mut w2) = (z.clone(), w.clone());
        let mut s1 = Vec::new();
        let mut s2 = Vec::new();
        let r1 = sort_split(&mut z, 1024, &mut w, 1024, 1024, &mut s1);
        let r2 = crate::sort_split::sort_split(&mut z2, 1024, &mut w2, 1024, 1024, &mut s2);
        assert_eq!((r1.ma, r1.mb), (r2.ma, r2.mb));
        assert_eq!(z, z2);
        assert_eq!(w, w2);
    }

    #[test]
    fn forced_scalar_roundtrip() {
        let _serial = TEST_DISPATCH_LOCK.lock().unwrap();
        let detected = dispatch_mode();
        set_forced_scalar(true);
        assert_eq!(dispatch_mode(), DispatchMode::Scalar);
        assert!(!vector_enabled());
        // The merge is still correct in scalar mode.
        let lane = |k: u32| KeyIdxLane::pack(k, 0);
        let a = [1, 3, 5, 7].map(lane);
        let b = [2, 4, 6, 8].map(lane);
        let mut out = [KeyIdxLane::default(); 8];
        merge_into(&a, &b, &mut out);
        assert_eq!(out, [1, 2, 3, 4, 5, 6, 7, 8].map(lane));
        set_forced_scalar(false);
        assert_eq!(dispatch_mode(), detected);
    }
}

//! Key and value bounds.
//!
//! The paper's evaluation uses 30-bit and 32-bit integer keys (Table 2,
//! footnote 3) with an application payload (knapsack nodes, A* grid
//! cells). We keep keys generic but require the handful of properties the
//! batched heap relies on:
//!
//! * total order (`Ord`) — the priority;
//! * `Copy` — batch nodes are moved between levels with bulk copies, the
//!   GPU analogue of coalesced loads/stores;
//! * a `MAX` sentinel — used to pad partially-filled batches so that the
//!   data-parallel sort/merge primitives always operate on full,
//!   power-of-two-sized lanes exactly like the CUDA implementation pads
//!   shared-memory tiles.

/// A priority-queue key: a totally ordered, copyable scalar with
/// `MIN`/`MAX` sentinels.
pub trait KeyType: Copy + Ord + Send + Sync + core::fmt::Debug + Default + 'static {
    /// Largest representable key; used as the padding sentinel.
    const MAX_KEY: Self;
    /// Smallest representable key.
    const MIN_KEY: Self;

    /// Lossy conversion used only for diagnostics/statistics.
    fn as_u64(self) -> u64;

    /// Order-preserving encoding: `a <= b` iff
    /// `a.to_ordered_bits() <= b.to_ordered_bits()`. Lets relaxed
    /// frontends publish a key through a single `AtomicU64` (the
    /// sharded router's root-min hint) without locking. For unsigned
    /// keys this is the identity; signed keys flip the sign bit.
    fn to_ordered_bits(self) -> u64;
}

macro_rules! impl_key_unsigned {
    ($($t:ty),*) => {$(
        impl KeyType for $t {
            const MAX_KEY: Self = <$t>::MAX;
            const MIN_KEY: Self = <$t>::MIN;
            #[inline]
            fn as_u64(self) -> u64 { self as u64 }
            #[inline]
            fn to_ordered_bits(self) -> u64 { self as u64 }
        }
    )*};
}

macro_rules! impl_key_signed {
    ($($t:ty),*) => {$(
        impl KeyType for $t {
            const MAX_KEY: Self = <$t>::MAX;
            const MIN_KEY: Self = <$t>::MIN;
            #[inline]
            fn as_u64(self) -> u64 { self as u64 }
            #[inline]
            fn to_ordered_bits(self) -> u64 {
                // Sign-extend to i64, then flip the sign bit: negative
                // keys land below positive ones in unsigned order.
                (self as i64 as u64) ^ (1 << 63)
            }
        }
    )*};
}

impl_key_unsigned!(u8, u16, u32, u64, usize);
impl_key_signed!(i8, i16, i32, i64, isize);

/// A priority-queue payload. BGPQ moves values together with their keys in
/// bulk, so values must be `Copy` (the paper stores fixed-width payloads
/// such as packed knapsack nodes next to the keys in GPU global memory).
pub trait ValueType: Copy + Send + Sync + Default + 'static {}

impl<T: Copy + Send + Sync + Default + 'static> ValueType for T {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinels_are_extremes() {
        assert_eq!(<u32 as KeyType>::MAX_KEY, u32::MAX);
        assert_eq!(<u32 as KeyType>::MIN_KEY, 0);
        assert_eq!(<i32 as KeyType>::MAX_KEY, i32::MAX);
        assert_eq!(<i32 as KeyType>::MIN_KEY, i32::MIN);
    }

    #[test]
    fn as_u64_is_monotone_for_unsigned() {
        let mut prev = 0u64;
        for k in [0u32, 1, 7, 1 << 20, u32::MAX] {
            assert!(KeyType::as_u64(k) >= prev);
            prev = KeyType::as_u64(k);
        }
    }

    #[test]
    fn ordered_bits_are_monotone() {
        let us = [0u32, 1, 7, 1 << 20, u32::MAX];
        assert!(us.windows(2).all(|w| w[0].to_ordered_bits() < w[1].to_ordered_bits()));
        let is = [i32::MIN, -5, -1, 0, 1, 42, i32::MAX];
        assert!(is.windows(2).all(|w| w[0].to_ordered_bits() < w[1].to_ordered_bits()));
        let ls = [i64::MIN, -1, 0, i64::MAX];
        assert!(ls.windows(2).all(|w| w[0].to_ordered_bits() < w[1].to_ordered_bits()));
    }

    #[test]
    fn unit_value_is_a_value() {
        fn takes_value<V: ValueType>(_v: V) {}
        takes_value(());
        takes_value(0u64);
        takes_value([0u8; 16]);
    }
}

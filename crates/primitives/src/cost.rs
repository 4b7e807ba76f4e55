//! GPU cycle-cost model for the primitives.
//!
//! The virtual-time simulator needs to know how long a thread block of
//! `t` threads takes to execute each primitive on a batch of `n`
//! elements. The formulas below follow directly from the algorithms'
//! lock-step schedules:
//!
//! * **Bitonic sort** of `n` keys: `lg(n)·(lg(n)+1)/2` network steps;
//!   each step is `ceil((n/2)/t)` rounds of a shared-memory
//!   compare-exchange plus one block barrier. More threads ⇒ fewer
//!   rounds per step (intra-node data parallelism, Fig. 6a/6b), but each
//!   barrier costs more with more warps (the paper's "a large thread
//!   block size can increase the overhead of synchronization").
//! * **Merge path** of `n` total elements: one diagonal binary search per
//!   thread (`lg n` shared reads) + `ceil(n/t)` sequential merge steps +
//!   two barriers.
//! * **Global memory** node transfers: a warp loading consecutive keys is
//!   one coalesced transaction; a node of `n` elements moved by `t`
//!   threads costs one latency plus `ceil(n/t)` issue rounds, each round
//!   issuing `t/32` concurrent transactions (charged at the per-warp
//!   throughput cost).
//!
//! The constants are order-of-magnitude CUDA values (shared ≈ registers ≪
//! global; barrier tens of cycles; atomic ≈ global round trip). The
//! *shape* of every reproduced figure depends on the formulas, not the
//! constants; `CostModel::default()` documents the calibration used for
//! EXPERIMENTS.md.
//!
//! These formulas price the *simulated device's* lock-step execution:
//! a `SortSplit { na, nb }` charge depends only on the operand shape
//! and the block width, never on how the host computed the result, so
//! simulated virtual time is bit-for-bit reproducible across hosts.

/// Which sorting network/algorithm a batch sort uses (§4 names all
/// three as the available GPU primitives).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SortAlgo {
    /// Bitonic sorting network (the paper's choice).
    #[default]
    Bitonic,
    /// Pairwise merge rounds built on merge path.
    MergeSort,
    /// 8-bit-digit LSD radix sort (count/scan/scatter per pass).
    Radix { rank_bits: u32 },
}

/// A primitive operation whose virtual-time cost the platform charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimitiveCost {
    /// Bitonic-sort `n` elements in shared memory.
    Sort { n: usize },
    /// Sort `n` elements with an explicit algorithm choice.
    SortWith { n: usize, algo: SortAlgo },
    /// Merge-path merge totalling `n` elements.
    Merge { n: usize },
    /// `SORT_SPLIT` of two batches with `na + nb` total elements.
    SortSplit { na: usize, nb: usize },
    /// Coalesced global-memory read of `n` elements.
    GlobalRead { n: usize },
    /// Coalesced global-memory write of `n` elements.
    GlobalWrite { n: usize },
    /// One global atomic operation (lock word CAS, state update).
    Atomic,
    /// `ops` plain ALU operations per thread.
    Compute { ops: u64 },
    /// Kernel-launch / block-dispatch overhead.
    Dispatch,
}

/// Cycle-cost parameters for a simulated GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Threads per warp (32 on every shipped NVIDIA part).
    pub warp_size: u32,
    /// Cycles per ALU op.
    pub c_compute: u64,
    /// Cycles per shared-memory access.
    pub c_shared: u64,
    /// One-time global-memory latency per bulk transfer.
    pub c_global_latency: u64,
    /// Cycles per coalesced 32-wide transaction round.
    pub c_global_round: u64,
    /// Barrier base cost.
    pub c_sync_base: u64,
    /// Barrier cost added per resident warp (makes very wide blocks pay
    /// for synchronization, per §6.2).
    pub c_sync_per_warp: u64,
    /// Global atomic (lock CAS / state flag) round trip.
    pub c_atomic: u64,
    /// One spin-loop iteration (re-check of a flag).
    pub c_spin: u64,
    /// Per-block dispatch overhead of a kernel launch.
    pub c_dispatch: u64,
    /// Simulated SM clock in GHz — converts cycles to milliseconds for
    /// table output.
    pub clock_ghz: f64,
}

impl Default for CostModel {
    /// Calibrated loosely against a TITAN X (Pascal): ~1.4 GHz SM clock,
    /// ~400-cycle global latency, single-cycle-ish shared/ALU throughput.
    fn default() -> Self {
        Self {
            warp_size: 32,
            c_compute: 1,
            c_shared: 2,
            c_global_latency: 400,
            c_global_round: 16,
            c_sync_base: 20,
            c_sync_per_warp: 1,
            c_atomic: 200,
            c_spin: 40,
            c_dispatch: 600,
            clock_ghz: 1.4,
        }
    }
}

impl CostModel {
    /// Cost of one block-wide barrier for `t` threads.
    #[inline]
    pub fn sync(&self, t: u32) -> u64 {
        let warps = u64::from(t.div_ceil(self.warp_size));
        self.c_sync_base + self.c_sync_per_warp * warps
    }

    /// ceil(log2(n)), with lg(0|1) = 0.
    #[inline]
    fn lg(n: usize) -> u64 {
        if n <= 1 {
            0
        } else {
            u64::from(usize::BITS - (n - 1).leading_zeros())
        }
    }

    /// Bitonic sort of `n` elements by a `t`-thread block.
    pub fn bitonic_sort_cycles(&self, n: usize, t: u32) -> u64 {
        if n <= 1 {
            return 0;
        }
        let n_pow2 = n.next_power_of_two();
        let lg = Self::lg(n_pow2);
        let steps = lg * (lg + 1) / 2;
        let cmps_per_step = (n_pow2 / 2) as u64;
        let rounds = cmps_per_step.div_ceil(u64::from(t.max(1)));
        // Each compare-exchange: 2 shared reads + compare + 2 shared
        // writes (worst case).
        let per_round = 4 * self.c_shared + self.c_compute;
        steps * (rounds * per_round + self.sync(t))
    }

    /// Merge-path merge totalling `n` output elements by `t` threads.
    pub fn merge_cycles(&self, n: usize, t: u32) -> u64 {
        if n == 0 {
            return 0;
        }
        let search = Self::lg(n) * (self.c_shared + self.c_compute);
        let per_thread = (n as u64).div_ceil(u64::from(t.max(1)));
        let merge = per_thread * (2 * self.c_shared + self.c_compute);
        search + merge + 2 * self.sync(t)
    }

    /// Merge sort of `n` elements: `ceil(log2 n)` rounds, each a full
    /// merge-path pass over the data plus a barrier.
    pub fn merge_sort_cycles(&self, n: usize, t: u32) -> u64 {
        if n <= 1 {
            return 0;
        }
        let rounds = Self::lg(n);
        rounds * self.merge_cycles(n, t)
    }

    /// LSD radix sort: `rank_bits/8` passes, each pass a histogram
    /// round, a 256-bucket scan, and a scatter round, with barriers
    /// between stages. Scatters to shared memory are bank-conflicted,
    /// charged at 2x the shared cost.
    pub fn radix_sort_cycles(&self, n: usize, rank_bits: u32, t: u32) -> u64 {
        if n <= 1 {
            return 0;
        }
        let passes = u64::from(rank_bits.div_ceil(8));
        let per_thread = (n as u64).div_ceil(u64::from(t.max(1)));
        let histogram = per_thread * (self.c_shared + self.c_compute);
        let scan = 8 * (self.c_shared + self.c_compute); // 256-wide scan, log2 steps
        let scatter = per_thread * (3 * self.c_shared + self.c_compute);
        passes * (histogram + scan + scatter + 3 * self.sync(t))
    }

    /// Cost of a batch sort with the given algorithm.
    pub fn sort_cycles(&self, n: usize, algo: SortAlgo, t: u32) -> u64 {
        match algo {
            SortAlgo::Bitonic => self.bitonic_sort_cycles(n, t),
            SortAlgo::MergeSort => self.merge_sort_cycles(n, t),
            SortAlgo::Radix { rank_bits } => self.radix_sort_cycles(n, rank_bits, t),
        }
    }

    /// `SORT_SPLIT` = one merge-path pass plus the split write-back.
    pub fn sort_split_cycles(&self, na: usize, nb: usize, t: u32) -> u64 {
        let n = na + nb;
        let writeback = (n as u64).div_ceil(u64::from(t.max(1))) * self.c_shared;
        self.merge_cycles(n, t) + writeback + self.sync(t)
    }

    /// Coalesced bulk transfer of `n` elements between global memory and
    /// shared memory/registers.
    pub fn global_transfer_cycles(&self, n: usize, t: u32) -> u64 {
        if n == 0 {
            return 0;
        }
        let rounds = (n as u64).div_ceil(u64::from(t.max(1)));
        self.c_global_latency + rounds * self.c_global_round
    }

    /// Total cycle cost of a [`PrimitiveCost`] executed by a `t`-thread
    /// block.
    pub fn cycles(&self, cost: PrimitiveCost, t: u32) -> u64 {
        match cost {
            PrimitiveCost::Sort { n } => self.bitonic_sort_cycles(n, t),
            PrimitiveCost::SortWith { n, algo } => self.sort_cycles(n, algo, t),
            PrimitiveCost::Merge { n } => self.merge_cycles(n, t),
            PrimitiveCost::SortSplit { na, nb } => self.sort_split_cycles(na, nb, t),
            PrimitiveCost::GlobalRead { n } | PrimitiveCost::GlobalWrite { n } => {
                self.global_transfer_cycles(n, t)
            }
            PrimitiveCost::Atomic => self.c_atomic,
            PrimitiveCost::Compute { ops } => ops * self.c_compute,
            PrimitiveCost::Dispatch => self.c_dispatch,
        }
    }

    /// Convert a cycle count to milliseconds at the simulated clock.
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        (cycles as f64) / (self.clock_ghz * 1e9) * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_threads_speed_up_sorting_until_saturation() {
        let m = CostModel::default();
        let slow = m.bitonic_sort_cycles(1024, 32);
        let mid = m.bitonic_sort_cycles(1024, 128);
        let fast = m.bitonic_sort_cycles(1024, 512);
        assert!(slow > mid && mid > fast, "{slow} > {mid} > {fast}");
    }

    #[test]
    fn oversized_blocks_pay_sync_overhead() {
        let m = CostModel::default();
        // Sorting a small batch with a huge block: all the parallelism is
        // exhausted, so the wider barrier must make it slower.
        let right_sized = m.bitonic_sort_cycles(64, 32);
        let oversized = m.bitonic_sort_cycles(64, 1024);
        assert!(oversized > right_sized, "{oversized} <= {right_sized}");
    }

    #[test]
    fn bigger_batches_cost_more() {
        let m = CostModel::default();
        for t in [32u32, 128, 512] {
            assert!(m.merge_cycles(2048, t) > m.merge_cycles(512, t));
            assert!(m.bitonic_sort_cycles(2048, t) > m.bitonic_sort_cycles(512, t));
            assert!(m.global_transfer_cycles(2048, t) > m.global_transfer_cycles(512, t));
        }
    }

    #[test]
    fn zero_sized_ops_are_free() {
        let m = CostModel::default();
        assert_eq!(m.bitonic_sort_cycles(0, 128), 0);
        assert_eq!(m.merge_cycles(0, 128), 0);
        assert_eq!(m.global_transfer_cycles(0, 128), 0);
    }

    #[test]
    fn cycles_dispatch_matches_direct_calls() {
        let m = CostModel::default();
        assert_eq!(m.cycles(PrimitiveCost::Sort { n: 256 }, 128), m.bitonic_sort_cycles(256, 128));
        assert_eq!(m.cycles(PrimitiveCost::Atomic, 128), m.c_atomic);
        assert_eq!(m.cycles(PrimitiveCost::Compute { ops: 7 }, 128), 7 * m.c_compute);
    }

    #[test]
    fn ms_conversion() {
        let m = CostModel::default();
        let ms = m.cycles_to_ms(1_400_000);
        assert!((ms - 1.0).abs() < 1e-9, "1.4M cycles at 1.4GHz = 1ms, got {ms}");
    }
}

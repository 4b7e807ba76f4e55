//! Simulated-GPU launch configuration.

use primitives::CostModel;

/// Launch geometry of a simulated kernel, mirroring the paper's
/// configuration space (§6.1: "128 thread blocks per kernel, 512 threads
/// per block, and 1024 keys per batch").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuConfig {
    /// Number of thread blocks (concurrent agents).
    pub num_blocks: usize,
    /// Threads per block.
    pub block_dim: u32,
    /// Streaming multiprocessors on the simulated device (TITAN X
    /// Pascal: 28).
    pub sm_count: usize,
    /// Maximum resident threads per SM (2048 on Maxwell/Pascal).
    pub max_threads_per_sm: u32,
    /// Hardware cap on resident blocks per SM (32 on Maxwell/Pascal).
    pub max_blocks_per_sm: u32,
    /// Schedule-fuzzing seed (None = deterministic arrival-order ties).
    /// See [`crate::Scheduler::set_tie_seed`].
    pub fuzz_seed: Option<u64>,
    /// Cycle-cost parameters of the simulated device.
    pub cost: CostModel,
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self {
            num_blocks: 128,
            block_dim: 512,
            sm_count: 28,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            fuzz_seed: None,
            cost: CostModel::default(),
        }
    }
}

impl GpuConfig {
    pub fn new(num_blocks: usize, block_dim: u32) -> Self {
        Self { num_blocks, block_dim, ..Self::default() }
    }

    /// Enable schedule fuzzing (tie-order exploration) for this launch.
    pub fn with_fuzz_seed(mut self, seed: u64) -> Self {
        self.fuzz_seed = Some(seed);
        self
    }

    /// Total simulated threads in the launch.
    pub fn total_threads(&self) -> usize {
        self.num_blocks * self.block_dim as usize
    }

    /// How many blocks the device can keep resident at once — the
    /// occupancy limit. Launches with more blocks execute in waves, as
    /// on real hardware: with 512-thread blocks a 28-SM Pascal part
    /// keeps 4 per SM = 112 resident, so a 128-block launch has a
    /// second (partial) wave.
    pub fn resident_blocks(&self) -> usize {
        let per_sm =
            (self.max_threads_per_sm / self.block_dim.max(1)).clamp(1, self.max_blocks_per_sm);
        (self.sm_count * per_sm as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_config() {
        let c = GpuConfig::default();
        assert_eq!(c.num_blocks, 128);
        assert_eq!(c.block_dim, 512);
        assert_eq!(c.total_threads(), 65536);
    }
}

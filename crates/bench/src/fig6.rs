//! Regenerates **Figure 6** of the paper: BGPQ performance w.r.t.
//! thread-block size, node capacity (6a insert / 6b delete), and
//! thread-block count (6c), on the virtual-time simulator.
//!
//! `bench fig6 [all|a|b|c] [--scale small|medium|full]`

use crate::report::{ms, Table};
use crate::sim::bgpq_sim_insdel;
use crate::Scale;
use gpu_sim::GpuConfig;
use std::io;
use workloads::{generate_keys, KeyDist};

const CAPACITIES: [usize; 5] = [64, 128, 256, 512, 1024];
const BLOCK_SIZES: [u32; 4] = [128, 256, 512, 1024];
const BLOCK_COUNTS: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// Fig. 6a/6b: capacity × block size sweep at 128 (scaled: 32) blocks.
fn fig6_ab(scale: Scale) -> io::Result<()> {
    let n = scale.fig6_keys();
    let keys = generate_keys(n, KeyDist::Random, 0xF16);
    let blocks = scale.sweep_blocks();
    let mut ta = Table::new("fig6a_insert", &["capacity", "t=128", "t=256", "t=512", "t=1024"]);
    let mut tb = Table::new("fig6b_delete", &["capacity", "t=128", "t=256", "t=512", "t=1024"]);
    for k in CAPACITIES {
        let mut row_a = vec![format!("{k}")];
        let mut row_b = vec![format!("{k}")];
        for t in BLOCK_SIZES {
            eprintln!("[fig6ab] capacity {k}, block size {t} ...");
            let timing = bgpq_sim_insdel(GpuConfig::new(blocks, t), k, &keys);
            row_a.push(ms(timing.insert_ms));
            row_b.push(ms(timing.delete_ms));
        }
        ta.row(row_a);
        tb.row(row_b);
    }
    ta.save()?;
    tb.save()
}

/// Fig. 6c: block-count sweep at block size 512, capacity 1024.
fn fig6_c(scale: Scale) -> io::Result<()> {
    let n = scale.fig6_keys();
    let keys = generate_keys(n, KeyDist::Random, 0xF16C);
    let k = 1024;
    let mut t = Table::new("fig6c_blocks", &["blocks", "insert_ms", "delete_ms", "total_ms"]);
    for blocks in BLOCK_COUNTS {
        eprintln!("[fig6c] {blocks} blocks ...");
        let timing = bgpq_sim_insdel(GpuConfig::new(blocks, 512), k, &keys);
        t.row(vec![
            format!("{blocks}"),
            ms(timing.insert_ms),
            ms(timing.delete_ms),
            ms(timing.total_ms),
        ]);
    }
    t.save()
}

pub fn run(part: &str, scale: Scale) -> io::Result<()> {
    eprintln!("fig6: {part} (scale {scale:?})");
    if part != "c" {
        fig6_ab(scale)?;
    }
    if part == "c" || part == "all" {
        fig6_c(scale)?;
    }
    Ok(())
}

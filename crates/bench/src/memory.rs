//! Memory-footprint experiment (E8): the paper's §2.1 argument for
//! heaps over skiplists on GPUs — "With p = 50%, skip-list may use as
//! much as twice memory as a heap. GPU memory … is scarce" — and
//! Table 1's memory-efficiency criterion ("k + O(1) memory, where k is
//! the number of keys").
//!
//! `bench memory [--scale small|medium|full]`
//!
//! Loads the same key set into BGPQ and into the skiplist and reports
//! resident bytes per key. The skiplist is also measured after a
//! delete-heavy phase to show logical-deletion garbage (arena nodes
//! that batched cleanup has unlinked but not freed).

use crate::report::Table;
use crate::Scale;
use bgpq::{BgpqOptions, CpuBgpq};
use pq_api::{BatchPriorityQueue, Entry, PriorityQueue};
use skiplist_pq::LindenJonssonPq;
use std::io;
use workloads::{generate_keys, KeyDist};

pub fn run(scale: Scale) -> io::Result<()> {
    let n = scale.fig6_keys();
    let keys = generate_keys(n, KeyDist::Random, 0x3E3);
    let entry_bytes = std::mem::size_of::<Entry<u32, ()>>();
    eprintln!("memory experiment: {n} keys of {entry_bytes} payload bytes each");

    let mut t = Table::new(
        "memory_footprint",
        &["structure", "phase", "keys", "resident_bytes", "bytes/key", "overhead_vs_payload"],
    );
    let mut row = |structure: &str, phase: &str, keys: usize, bytes: usize| {
        t.row(vec![
            structure.into(),
            phase.into(),
            format!("{keys}"),
            format!("{bytes}"),
            format!("{:.2}", bytes as f64 / keys as f64),
            format!("{:.2}x", bytes as f64 / (keys * entry_bytes) as f64),
        ]);
    };

    // BGPQ sized for exactly this workload (k = 1024, as evaluated).
    let q: CpuBgpq<u32, ()> = CpuBgpq::new(BgpqOptions::with_capacity_for(1024, n));
    let mut items = Vec::with_capacity(1024);
    for chunk in keys.chunks(1024) {
        items.clear();
        items.extend(chunk.iter().map(|&k| Entry::new(k, ())));
        q.insert_batch(&items);
    }
    row("BGPQ (k=1024)", "loaded", n, q.inner().memory_bytes());

    // Skiplist, same keys.
    let sl = LindenJonssonPq::<u32, ()>::new(32);
    for &k in &keys {
        sl.insert(k, ());
    }
    row("LJSL skiplist", "loaded", n, sl.list().memory_bytes());

    // Delete-heavy phase: logical deletion leaves arena garbage.
    for _ in 0..n / 2 {
        sl.delete_min();
    }
    row("LJSL skiplist", "after 50% deletes", sl.len(), sl.list().memory_bytes());

    t.save()
}

//! BGPQ's node storage is reserved, not written: building a queue
//! leaves its node array untouched, and resident memory grows with the
//! nodes the heap fills, not with the reservation. Reads the process's
//! resident set from `/proc/self/status`, so Linux only. One test per
//! file: a test running beside it would move the resident set too.
#![cfg(target_os = "linux")]

use bgpq::{BgpqOptions, CpuBgpq};
use pq_api::{BatchPriorityQueue, Entry};

const KIB: usize = 1024;
const MIB: usize = 1024 * KIB;

/// This process's resident set size (`VmRSS`), in bytes.
fn resident_bytes() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).expect("no VmRSS line");
    let kib: usize = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmRSS is not a kB count");
    kib * KIB
}

#[test]
fn resident_memory_follows_the_filled_nodes_not_the_reservation() {
    let k = 1024;
    let node_bytes = k * std::mem::size_of::<Entry<u32, u32>>();
    // 256 MiB of entries: 32767 heap nodes of 8 KiB plus the pBuffer.
    let max_nodes = 256 * MIB / node_bytes - 1;
    let start = resident_bytes();
    let q: CpuBgpq<u32, u32> =
        CpuBgpq::new(BgpqOptions { node_capacity: k, max_nodes, ..Default::default() });
    assert!(q.inner().memory_bytes() >= 256 * MIB, "memory_bytes reports the reservation");
    let built = resident_bytes().saturating_sub(start);
    assert!(built < 8 * MIB, "building the queue made {} KiB resident", built / KIB);

    // 64 full batches fill the root and 63 more nodes.
    let batches = 64;
    for b in 0..batches {
        let items: Vec<Entry<u32, u32>> =
            (0..k).map(|i| Entry::new((i * batches + b) as u32, 0)).collect();
        q.insert_batch(&items);
    }
    assert_eq!(q.len(), batches * k);
    q.inner().check_invariants();
    let filled = resident_bytes().saturating_sub(start);
    eprintln!(
        "resident: +{} KiB after the build, +{} KiB after {batches} batches",
        built / KIB,
        filled / KIB
    );
    let grew = filled.saturating_sub(built);
    assert!(
        grew < batches * node_bytes + 2 * MIB,
        "{batches} batches of {} KiB made {} KiB resident",
        node_bytes / KIB,
        grew / KIB
    );
}

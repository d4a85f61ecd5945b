//! The block-scan engine never starts more workers than the scan has
//! blocks. Kept in its own test binary: the `parallel_scan_workers` gauge
//! and the registry's enable flag are process-wide, so no other test may
//! scan while this one reads the gauge.

use noisemine_core::matching::MemorySequences;
use noisemine_core::parallel::{try_scan_map_reduce, SCAN_BLOCK_SIZE};
use noisemine_core::Symbol;

#[test]
fn scan_workers_are_capped_at_the_block_count() {
    // 300 sequences fill two 256-sequence blocks.
    let db = MemorySequences((0..300u16).map(|i| vec![Symbol(i % 4); 3]).collect());
    noisemine_obs::enable();
    let sizes = try_scan_map_reduce(
        &db,
        SCAN_BLOCK_SIZE,
        64,
        &mut |_| {},
        &|| (),
        &|_, _, block| block.len(),
    )
    .expect("in-memory scans cannot fail");
    assert_eq!(sizes, vec![256, 44]);
    let workers = noisemine_obs::global()
        .snapshot()
        .gauge_value("parallel_scan_workers")
        .expect("worker gauge registered");
    assert_eq!(workers, 2.0, "64 requested threads on 2 blocks");
}

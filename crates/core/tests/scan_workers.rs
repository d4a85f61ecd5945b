//! The block-scan engine never starts more workers than the scan has
//! blocks, or than the caller's thread count allows. Kept in its own test
//! binary: the `parallel_*` gauges and the registry's enable flag are
//! process-wide, so no other test may scan while one of these reads them,
//! and the tests here take turns.

use std::sync::Mutex;

use noisemine_core::matching::MemorySequences;
use noisemine_core::miner::{mine, MinerConfig};
use noisemine_core::parallel::{try_scan_map_reduce, PARALLEL_THRESHOLD, SCAN_BLOCK_SIZE};
use noisemine_core::{CompatibilityMatrix, PatternSpace, Symbol};

static SERIAL: Mutex<()> = Mutex::new(());

fn gauge(name: &str) -> Option<f64> {
    noisemine_obs::global().snapshot().gauge_value(name)
}

#[test]
fn scan_workers_are_capped_at_the_block_count() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
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
    let workers = gauge("parallel_scan_workers").expect("worker gauge registered");
    assert_eq!(workers, 2.0, "64 requested threads on 2 blocks");
}

#[test]
fn a_single_threaded_mine_runs_every_phase_on_one_thread() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Phase 2's first level evaluates all 20 symbols on all 3 000 sampled
    // sequences, above the size where an automatic thread count fans out.
    let (m, n) = (20usize, 3_000usize);
    assert!(m * n >= PARALLEL_THRESHOLD);
    let db = MemorySequences(
        (0..n)
            .map(|i| {
                (0..10)
                    .map(|j| Symbol(((i * 7 + j * 3) % m) as u16))
                    .collect()
            })
            .collect(),
    );
    let matrix = CompatibilityMatrix::uniform_noise(m, 0.1).unwrap();
    let config = MinerConfig {
        min_match: 0.3,
        sample_size: n,
        space: PatternSpace::contiguous(3),
        threads: 1,
        ..MinerConfig::default()
    };
    noisemine_obs::enable();
    noisemine_obs::global().reset();
    mine(&db, &matrix, &config).unwrap();
    // Only a pool of two or more workers queues blocks for the ordered
    // reduction; one worker maps each block as it is read.
    assert_eq!(
        gauge("parallel_reduce_queue_peak").unwrap_or(0.0),
        0.0,
        "a phase ran a worker pool under threads = 1"
    );
    assert_eq!(gauge("parallel_scan_workers"), Some(1.0));
}

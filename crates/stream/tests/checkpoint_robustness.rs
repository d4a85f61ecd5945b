//! Robustness of checkpoint restore against damaged files: every byte-level
//! truncation and targeted bit flips must surface as typed errors — never a
//! panic, never a silently wrong engine.

use noisemine_core::miner::MinerConfig;
use noisemine_core::{CompatibilityMatrix, PatternSpace, Symbol};
use noisemine_stream::{Error, StreamState};

fn tmp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("noisemine-ckpt-rob-{}-{name}", std::process::id()))
}

fn config() -> MinerConfig {
    MinerConfig {
        min_match: 0.2,
        delta: 0.05,
        sample_size: 8,
        counters_per_scan: 10,
        space: PatternSpace::contiguous(3),
        seed: 42,
        ..MinerConfig::default()
    }
}

/// A small engine with non-trivial state: sequences ingested, a populated
/// reservoir, and (via one mine over the reservoir) tracked patterns plus a
/// drift anchor.
fn engine_with_state() -> StreamState {
    let matrix = CompatibilityMatrix::paper_figure2();
    let mut engine = StreamState::new(matrix, config()).unwrap();
    let seqs: Vec<Vec<Symbol>> = (0..20u16)
        .map(|i| (0..6).map(|j| Symbol((i + j) % 5)).collect())
        .collect();
    engine.ingest_all(&seqs);
    let db = noisemine_core::matching::MemorySequences(seqs);
    engine.mine(&db).unwrap();
    engine
}

/// Truncation sweep: restoring any strict prefix of a valid checkpoint must
/// return a structural error. This is the torn-write model — a crash left
/// only the first `len` bytes.
#[test]
fn every_truncation_is_rejected() {
    let engine = engine_with_state();
    let full_path = tmp_path("trunc-full");
    engine.checkpoint(&full_path).unwrap();
    let bytes = std::fs::read(&full_path).unwrap();
    std::fs::remove_file(&full_path).unwrap();
    assert!(bytes.len() > 100, "checkpoint suspiciously small");

    let matrix = CompatibilityMatrix::paper_figure2();
    let path = tmp_path("trunc-cut");
    for len in 0..bytes.len() {
        std::fs::write(&path, &bytes[..len]).unwrap();
        let result = StreamState::restore(&path, matrix.clone());
        assert!(
            matches!(result, Err(Error::Corrupt(_))),
            "prefix of {len}/{} bytes must fail structurally",
            bytes.len()
        );
    }
    std::fs::remove_file(&path).unwrap();
}

/// Flipping any bit of the stored matrix fingerprint must be caught by the
/// fingerprint comparison (or, for the alphabet-size field, the size
/// check) — state from one matrix can never silently attach to another.
#[test]
fn matrix_fingerprint_bit_flips_are_rejected() {
    let engine = engine_with_state();
    let path = tmp_path("fp-full");
    engine.checkpoint(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();

    // Layout: magic(8) + version(4) + config(8+8+8+8+8+8+1+1+8+8 = 66
    // bytes) + alphabet size u32 + fingerprint u64.
    let fp_region = 8 + 4 + 66;
    let matrix = CompatibilityMatrix::paper_figure2();
    let path = tmp_path("fp-flip");
    for bit in 0..(4 + 8) * 8 {
        let mut corrupt = bytes.clone();
        corrupt[fp_region + bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&path, &corrupt).unwrap();
        let result = StreamState::restore(&path, matrix.clone());
        assert!(
            matches!(
                result,
                Err(Error::Corrupt(_)) | Err(Error::MatrixMismatch { .. })
            ),
            "fingerprint-region bit {bit} flipped but restore did not reject"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

/// A restored engine from an *intact* checkpoint still works — guard that
/// the sweep above is testing corruption, not a reader that rejects
/// everything.
#[test]
fn intact_checkpoint_restores() {
    let engine = engine_with_state();
    let path = tmp_path("intact");
    engine.checkpoint(&path).unwrap();
    let restored = StreamState::restore(&path, CompatibilityMatrix::paper_figure2()).unwrap();
    assert_eq!(restored.total_seen(), engine.total_seen());
    assert_eq!(restored.symbol_match(), engine.symbol_match());
    std::fs::remove_file(&path).unwrap();
}

/// Length-field sweep: a tracked pattern whose element count is larger
/// than the bytes left in the file (`u32::MAX`, or just one element too
/// many) must be rejected before anything is allocated for it, not abort
/// the process on a multi-gigabyte allocation.
#[test]
fn oversized_tracked_pattern_lengths_are_rejected() {
    let engine = engine_with_state();
    let path = tmp_path("plen-full");
    engine.checkpoint(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();

    // Layout up to the tracked list: magic(8) + version(4) + config(66) +
    // alphabet size(4) + fingerprint(8) + total(8) + match sums and pending
    // sums (2 × m × 8) + rng(32) + reservoir count(8) + each reservoir
    // sequence (4 + 2 × len) + tracked count(8).
    let m = CompatibilityMatrix::paper_figure2().len();
    let reservoir: usize = engine.sample().iter().map(|s| 4 + 2 * s.len()).sum();
    let mut at = 8 + 4 + 66 + 4 + 8 + 8 + 2 * m * 8 + 32 + 8 + reservoir + 8;
    let lengths: Vec<usize> = engine.tracked_patterns().map(|p| p.len()).collect();
    assert!(!lengths.is_empty(), "the sweep needs tracked patterns");

    let matrix = CompatibilityMatrix::paper_figure2();
    let path = tmp_path("plen-flip");
    for (i, &len) in lengths.iter().enumerate() {
        let field = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        assert_eq!(field as usize, len, "pattern {i} length field not at {at}");
        let left = bytes.len() - (at + 4);
        for bad in [u32::MAX, (left / 4 + 1) as u32] {
            let mut corrupt = bytes.clone();
            corrupt[at..at + 4].copy_from_slice(&bad.to_le_bytes());
            std::fs::write(&path, &corrupt).unwrap();
            let result = StreamState::restore(&path, matrix.clone());
            assert!(
                matches!(result, Err(Error::Corrupt(_))),
                "pattern {i} length {bad} must be rejected as corrupt"
            );
        }
        at += 4 + 4 * len + 8;
    }
    std::fs::remove_file(&path).unwrap();
}

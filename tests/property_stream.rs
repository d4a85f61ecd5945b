//! Property tests for the streaming layer: reservoir sampling statistics
//! and checkpoint→restore state equality on random workloads.

mod common;

use common::{random_matrix, random_sequences, run_cases};
use noisemine::core::miner::MinerConfig;
use noisemine::core::{CompatibilityMatrix, PatternSpace, Symbol};
use noisemine::stream::StreamState;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const M: usize = 5;

/// The engine's reservoir after ingesting `count` sequences with capacity
/// `n` (the engine's `sample_size`), seeded with `seed`.
fn reservoir(count: usize, n: usize, seed: u64) -> Vec<Vec<Symbol>> {
    let config = MinerConfig {
        sample_size: n,
        seed,
        ..MinerConfig::default()
    };
    let mut engine = StreamState::new(CompatibilityMatrix::identity(count.max(M)), config).unwrap();
    engine.ingest_all((0..count).map(|i| vec![Symbol(i as u16)]));
    engine.sample().to_vec()
}

/// The stream engine's reservoir (Algorithm R) holds exactly `min(n, N)`
/// sequences for arbitrary capacity/stream-length combinations, including
/// n >= N (a capacity of 0 is a configuration error).
#[test]
fn reservoir_sample_size_is_exact() {
    run_cases(128, |rng| {
        let count = rng.gen_range(0..40usize);
        let n = rng.gen_range(1..50usize);
        assert_eq!(reservoir(count, n, rng.gen()).len(), n.min(count));
    });
}

/// Chi-square uniformity smoke test: sampling 10 of 20 sequences many
/// times, each sequence's selection count must stay within a generous
/// chi-square bound of the uniform expectation (Algorithm R is exactly
/// uniform; this guards against off-by-one bias in the replacement index).
#[test]
fn reservoir_selection_is_uniform_chi_square() {
    let count = 20usize;
    let quota = 10usize;
    let trials = 4000usize;
    for seed in [3u64, 1031, 777_777] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut hits = vec![0usize; count];
        for _ in 0..trials {
            for seq in reservoir(count, quota, rng.gen()) {
                hits[seq[0].0 as usize] += 1;
            }
        }
        // Each sequence is selected with probability quota/count = 1/2.
        let expected = trials as f64 * quota as f64 / count as f64;
        let chi2: f64 = hits
            .iter()
            .map(|&h| {
                let d = h as f64 - expected;
                d * d / expected
            })
            .sum();
        // 19 degrees of freedom; the 99.9th percentile is ~43.8. A correct
        // sampler exceeds 60 with negligible probability, a biased one
        // blows past it immediately.
        assert!(
            chi2 < 60.0,
            "chi-square {chi2:.1} for seed {seed}: {hits:?}"
        );
    }
}

/// Checkpoint→restore roundtrip: for random workloads, random chunkings,
/// and checkpoints at random points (including before any data and after a
/// mine), the restored engine equals the original — same totals, symbol
/// matches, reservoir, and identical behavior on the remaining stream.
#[test]
fn stream_checkpoint_roundtrip_preserves_state() {
    let dir = std::env::temp_dir();
    let mut case_id = 0u64;
    run_cases(24, |rng| {
        case_id += 1;
        let matrix = random_matrix(rng, M, 0.05);
        let seqs = random_sequences(rng, M, 12, 10, 60);
        let config = MinerConfig {
            min_match: rng.gen_range(0.1..0.4f64),
            delta: 0.01,
            sample_size: rng.gen_range(1..20usize),
            counters_per_scan: 16,
            space: PatternSpace::contiguous(3),
            seed: rng.gen_range(0..1000u64),
            ..MinerConfig::default()
        };
        let path = dir.join(format!(
            "noisemine-prop-ckpt-{}-{case_id}.bin",
            std::process::id()
        ));

        let cut = rng.gen_range(0..=seqs.len());
        let mut original = StreamState::new(matrix.clone(), config).unwrap();
        original.ingest_all(&seqs[..cut]);
        if rng.gen_bool(0.3) && cut > 0 {
            // Sometimes checkpoint a post-mine engine so tracked borders
            // and the drift anchor ride through serialization too.
            let prefix = noisemine::core::matching::MemorySequences(seqs[..cut].to_vec());
            original.mine(&prefix).unwrap();
        }
        original.checkpoint(&path).unwrap();
        let mut restored = StreamState::restore(&path, matrix).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(original.total_seen(), restored.total_seen());
        assert_eq!(original.symbol_match(), restored.symbol_match());
        assert_eq!(original.sample(), restored.sample());
        assert_eq!(
            original.tracked_patterns().collect::<Vec<_>>(),
            restored.tracked_patterns().collect::<Vec<_>>(),
        );
        assert_eq!(original.drift_exceeded(), restored.drift_exceeded());

        // Both engines must stay in lockstep over the remaining stream
        // (reservoir RNG state survived the roundtrip).
        original.ingest_all(&seqs[cut..]);
        restored.ingest_all(&seqs[cut..]);
        assert_eq!(original.sample(), restored.sample());
        assert_eq!(original.symbol_match(), restored.symbol_match());

        let db = noisemine::core::matching::MemorySequences(seqs.clone());
        let a = original.mine(&db).unwrap();
        let b = restored.mine(&db).unwrap();
        assert_eq!(a.patterns(), b.patterns());
    });
}

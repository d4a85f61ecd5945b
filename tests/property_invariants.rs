//! Property-based tests of the model's core invariants (seeded harness).
//!
//! These exercise the claims of Section 3 on *random* patterns, sequences,
//! and compatibility matrices — not just the worked examples:
//!
//! - Claim 3.1/3.2 (Apriori): subpatterns match at least as strongly;
//! - identity matrix ⇒ match ≡ support (observation 3);
//! - total noise (all entries `1/m`) ⇒ all k-patterns have equal match;
//! - the restricted spread bounds every pattern's match (Claim 4.2);
//! - halfway patterns lie between their endpoints (Algorithm 4.4);
//! - sequential sampling returns exactly `min(n, N)` distinct sequences;
//! - the parallel block scan is bit-identical to the serial one at every
//!   thread count, and stream ingestion reproduces batch phase 1 exactly.

mod common;

use common::{random_matrix, random_pattern, random_sequence, random_sequences, run_cases};
use noisemine::core::chernoff::restricted_spread;
use noisemine::core::matching::{
    db_match, db_support, sequence_match, symbol_db_match, MemorySequences, SequenceScan,
};
use noisemine::core::miner::{mine, try_phase1_threads, MineOutcome, MinerConfig};
use noisemine::core::{CompatibilityMatrix, Pattern, PatternSpace, Symbol};
use noisemine::seqdb::{DiskDb, MemoryDb};
use noisemine::stream::StreamState;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const M: usize = 6;
const CASES: usize = 128;

/// Claim 3.1: the match of a pattern never exceeds the match of any of
/// its (immediate) subpatterns, in any sequence.
#[test]
fn apriori_on_sequences() {
    run_cases(CASES, |rng| {
        let pattern = random_pattern(rng, M);
        let seq = random_sequence(rng, M, 20);
        let matrix = random_matrix(rng, M, 0.01);
        let sup_match = sequence_match(&pattern, &seq, &matrix);
        for sub in pattern.immediate_subpatterns() {
            let sub_match = sequence_match(&sub, &seq, &matrix);
            assert!(
                sub_match >= sup_match - 1e-12,
                "subpattern {sub} matches {sub_match} < superpattern {pattern} {sup_match}"
            );
        }
    });
}

/// Claim 3.2: Apriori carries over to whole databases.
#[test]
fn apriori_on_databases() {
    run_cases(CASES, |rng| {
        let pattern = random_pattern(rng, M);
        let db = MemorySequences(random_sequences(rng, M, 15, 1, 12));
        let matrix = random_matrix(rng, M, 0.01);
        let sup = db_match(&pattern, &db, &matrix);
        for sub in pattern.immediate_subpatterns() {
            assert!(db_match(&sub, &db, &matrix) >= sup - 1e-12);
        }
    });
}

/// Identity matrix: match degenerates to support exactly.
#[test]
fn identity_matrix_means_support() {
    run_cases(CASES, |rng| {
        let pattern = random_pattern(rng, M);
        let db = MemorySequences(random_sequences(rng, M, 15, 1, 12));
        let id = CompatibilityMatrix::identity(M);
        let m = db_match(&pattern, &db, &id);
        let s = db_support(&pattern, &db);
        assert!((m - s).abs() < 1e-12, "match {m} != support {s}");
    });
}

/// Total noise: every pattern with the same number of concrete symbols
/// has exactly the same match in every sufficiently long sequence.
#[test]
fn total_noise_flattens_all_patterns() {
    run_cases(CASES, |rng| {
        let db = MemorySequences(random_sequences(rng, M, 15, 1, 8));
        let (a, b) = (rng.gen_range(0..M as u16), rng.gen_range(0..M as u16));
        let (c, d) = (rng.gen_range(0..M as u16), rng.gen_range(0..M as u16));
        let flat = CompatibilityMatrix::total_noise(M);
        let p1 = Pattern::contiguous(&[Symbol(a), Symbol(b)]).unwrap();
        let p2 = Pattern::contiguous(&[Symbol(c), Symbol(d)]).unwrap();
        assert!((db_match(&p1, &db, &flat) - db_match(&p2, &db, &flat)).abs() < 1e-12);
    });
}

/// Claim 4.2: a pattern's database match never exceeds its restricted
/// spread (the minimum of its symbols' matches).
#[test]
fn restricted_spread_bounds_match() {
    run_cases(CASES, |rng| {
        let pattern = random_pattern(rng, M);
        let db = MemorySequences(random_sequences(rng, M, 15, 1, 12));
        let matrix = random_matrix(rng, M, 0.01);
        let symbol_match = symbol_db_match(&db, &matrix);
        let spread = restricted_spread(&pattern, &symbol_match);
        let value = db_match(&pattern, &db, &matrix);
        assert!(
            value <= spread + 1e-12,
            "match {value} exceeds restricted spread {spread} for {pattern}"
        );
    });
}

/// Match is always a probability-like value in [0, 1].
#[test]
fn match_is_bounded() {
    run_cases(CASES, |rng| {
        let pattern = random_pattern(rng, M);
        let seq = random_sequence(rng, M, 20);
        let matrix = random_matrix(rng, M, 0.01);
        let v = sequence_match(&pattern, &seq, &matrix);
        assert!((0.0..=1.0).contains(&v));
    });
}

/// Algorithm 4.4: every halfway pattern between `P` and a superpattern
/// extension of `P` is a superpattern of `P` and a subpattern of the
/// extension, with the right number of concrete symbols.
#[test]
fn halfway_patterns_are_between() {
    run_cases(CASES, |rng| {
        let pattern = random_pattern(rng, M);
        let mut sup = pattern.clone();
        for _ in 0..rng.gen_range(1..4usize) {
            let gap = rng.gen_range(0..2usize);
            let sym = Symbol(rng.gen_range(0..M as u16));
            sup = sup.extend(gap, sym);
        }
        let k1 = pattern.non_eternal_count();
        let k2 = sup.non_eternal_count();
        let mid = (k1 + k2).div_ceil(2);
        for candidate in pattern.between(&sup, mid) {
            assert_eq!(candidate.non_eternal_count(), mid);
            assert!(pattern.is_subpattern_of(&candidate));
            assert!(candidate.is_subpattern_of(&sup));
        }
    });
}

/// Phase 1's sequential sampler returns exactly `min(n, N)` sequences.
#[test]
fn sequential_sampling_quota() {
    let matrix = CompatibilityMatrix::identity(M);
    run_cases(CASES, |rng| {
        let n = rng.gen_range(0..40usize);
        let count = rng.gen_range(1..30usize);
        let db = MemoryDb::from_sequences(
            (0..count).map(|i| vec![Symbol((i % M) as u16), Symbol(((i / M) % M) as u16)]),
        );
        let sample = try_phase1_threads(&db, &matrix, n, rng, 1).unwrap().sample;
        assert_eq!(sample.len(), n.min(count));
    });
}

/// The determinism contract of the parallel scan: phase 1 — symbol matches
/// *and* the seeded sample — is bit-identical at every thread count, on
/// random databases large enough to span several scan blocks.
#[test]
fn parallel_phase1_is_bit_identical_to_serial() {
    run_cases(12, |rng| {
        let matrix = random_matrix(rng, M, 0.01);
        // 200..700 sequences straddles the 256-sequence block size, so both
        // single-block and multi-block (tail-block) groupings are exercised.
        let db = MemorySequences(random_sequences(rng, M, 12, 200, 700));
        let sample_size = rng.gen_range(0..50usize);
        let seed = rng.gen::<u64>();
        let mut rng1 = StdRng::seed_from_u64(seed);
        let serial = try_phase1_threads(&db, &matrix, sample_size, &mut rng1, 1).unwrap();
        for threads in [2usize, 3, 8] {
            let mut rngt = StdRng::seed_from_u64(seed);
            let parallel =
                try_phase1_threads(&db, &matrix, sample_size, &mut rngt, threads).unwrap();
            assert_eq!(
                serial.symbol_match, parallel.symbol_match,
                "symbol matches diverged at {threads} threads"
            );
            assert_eq!(
                serial.sample, parallel.sample,
                "sample diverged at {threads} threads"
            );
        }
    });
}

/// Incremental stream ingestion accumulates per-symbol sums with the same
/// block grouping as the batch scan, so its symbol matches equal batch
/// phase 1 *bit for bit* — even though f64 addition is non-associative.
#[test]
fn stream_ingest_sums_equal_batch_phase1_bitwise() {
    run_cases(12, |rng| {
        let matrix = random_matrix(rng, M, 0.01);
        let seqs = random_sequences(rng, M, 12, 200, 700);
        let config = MinerConfig {
            min_match: 0.2,
            sample_size: 30,
            space: PatternSpace::contiguous(6),
            seed: rng.gen(),
            ..MinerConfig::default()
        };
        let mut engine = StreamState::new(matrix.clone(), config.clone()).unwrap();
        engine.ingest_all(seqs.iter().map(Vec::as_slice));

        let db = MemorySequences(seqs);
        let mut p1_rng = StdRng::seed_from_u64(config.seed);
        let batch = try_phase1_threads(&db, &matrix, config.sample_size, &mut p1_rng, 1).unwrap();
        assert_eq!(engine.symbol_match(), batch.symbol_match);
    });
}

/// The full miner — patterns, match estimates, and stats that derive from
/// phase-1 output — is bit-identical at every thread count, over the
/// in-memory store and over the same database written as an NMSEQDB file.
#[test]
fn mine_output_is_bit_identical_across_thread_counts() {
    let mut case = 0;
    run_cases(6, |rng| {
        let matrix = random_matrix(rng, M, 0.05);
        let db = MemorySequences(random_sequences(rng, M, 10, 150, 400));
        let path = std::env::temp_dir().join(format!(
            "noisemine-prop-threads-{}-{case}.db",
            std::process::id()
        ));
        case += 1;
        let disk = DiskDb::create_from(&path, db.0.iter().map(Vec::as_slice)).unwrap();
        let mut config = MinerConfig {
            min_match: 0.25,
            delta: 0.05,
            sample_size: 40,
            counters_per_scan: 64,
            space: PatternSpace::contiguous(5),
            seed: rng.gen(),
            threads: 1,
            ..MinerConfig::default()
        };
        let key = |outcome: &MineOutcome| -> Vec<_> {
            outcome
                .frequent
                .iter()
                .map(|f| (f.pattern.clone(), f.match_estimate.to_bits()))
                .collect()
        };
        let serial = mine(&db, &matrix, &config).unwrap();
        let inputs = [
            ("memory", 2usize, &db as &dyn SequenceScan),
            ("memory", 8, &db),
            ("disk", 1, &disk),
            ("disk", 2, &disk),
            ("disk", 8, &disk),
        ];
        for (store, threads, input) in inputs {
            config.threads = threads;
            let parallel = mine(input, &matrix, &config).unwrap();
            assert_eq!(
                key(&serial),
                key(&parallel),
                "{store} mining output diverged at {threads} threads"
            );
            assert_eq!(serial.border.elements(), parallel.border.elements());
        }
        std::fs::remove_file(&path).ok();
    });
}

/// Sub-/super-pattern relation is transitive through `extend`.
#[test]
fn extension_preserves_subpattern_relation() {
    run_cases(CASES, |rng| {
        let pattern = random_pattern(rng, M);
        let gap = rng.gen_range(0..3usize);
        let sym = Symbol(rng.gen_range(0..M as u16));
        let ext = pattern.extend(gap, sym);
        assert!(pattern.is_subpattern_of(&ext));
        assert!(!ext.is_subpattern_of(&pattern) || ext == pattern);
        assert_eq!(ext.non_eternal_count(), pattern.non_eternal_count() + 1);
    });
}

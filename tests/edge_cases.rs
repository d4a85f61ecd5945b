//! Edge-case tests across the public API: boundary conditions, degenerate
//! inputs, and behaviors not exercised by the worked-example suites.

use noisemine::baselines::MaxMinerConfig;
use noisemine::core::border_collapse::levels_in_collapse_order;
use noisemine::core::chernoff::{mislabel_tail, SpreadMode};
use noisemine::core::lattice::halfway;
use noisemine::core::matching::{
    db_match, db_support, sequence_match, sequence_support, MemorySequences,
};
use noisemine::core::miner::{mine, MinerConfig, Provenance};
use noisemine::core::{Alphabet, CompatibilityMatrix, Pattern, PatternSpace, Symbol};
use noisemine::datagen::{generate, Background, GeneratorConfig};
use noisemine::seqdb::{DiskDbWriter, MemoryDb};

fn a10() -> Alphabet {
    Alphabet::synthetic(10)
}

fn pat(text: &str) -> Pattern {
    Pattern::parse(text, &a10()).unwrap()
}

#[test]
fn multiple_alignments_are_all_found() {
    let sub = pat("d1 d2");
    let sup = pat("d1 d2 d1 d2");
    let alignments: Vec<usize> = sub.alignments_in(&sup).collect();
    assert_eq!(alignments, vec![0, 2]);
}

#[test]
fn equal_length_patterns_subpattern_iff_star_compatible() {
    assert!(pat("d1 * d3").is_subpattern_of(&pat("d1 d2 d3")));
    assert!(!pat("d1 d2 d3").is_subpattern_of(&pat("d1 * d3")));
    assert!(!pat("d1 d4 d3").is_subpattern_of(&pat("d1 d2 d3")));
}

#[test]
fn immediate_subpatterns_trim_both_ends_of_gapped_pattern() {
    // Removing the first symbol of d1 * d2 leaves * d2 -> trimmed to d2.
    let p = pat("d1 * d2");
    let subs = p.immediate_subpatterns();
    assert_eq!(subs.len(), 2);
    assert!(subs.contains(&pat("d2")));
    assert!(subs.contains(&pat("d1")));
}

#[test]
fn multi_character_names_display_with_spaces() {
    let alphabet = Alphabet::new(["alpha", "beta"]).unwrap();
    let p = Pattern::parse("alpha * beta", &alphabet).unwrap();
    assert_eq!(p.display(&alphabet).unwrap(), "alpha * beta");
}

#[test]
fn gapped_support_counts_fixed_length_gaps_only() {
    let alphabet = a10();
    let db = MemorySequences(vec![
        alphabet.encode("d1 d9 d2").unwrap(), // d1 * d2 occurs (gap 1)
        alphabet.encode("d1 d9 d9 d2").unwrap(), // gap 2: does NOT match d1 * d2
    ]);
    let p = pat("d1 * d2");
    assert!((db_support(&p, &db) - 0.5).abs() < 1e-12);
    assert_eq!(
        sequence_support(&p, &alphabet.encode("d1 d9 d9 d2").unwrap()),
        0.0
    );
}

#[test]
fn full_noise_uniform_matrix_is_valid_but_not_normalizable() {
    // alpha = 1: the diagonal is zero; match still computes, normalization
    // correctly refuses.
    let c = CompatibilityMatrix::uniform_noise(4, 1.0).unwrap();
    assert_eq!(c.get(Symbol(0), Symbol(0)), 0.0);
    assert!(c.diagonal_normalized().is_err());
    assert!(c.diagonal_normalized_clamped().is_err());
    // With alpha = 1 a symbol is NEVER observed as itself: the exact text
    // "d0 d1" has match zero, while the flipped "d1 d0" has (1/3)^2.
    let db = MemorySequences(vec![vec![Symbol(1), Symbol(0)]]);
    let p = pat("d0 d1");
    assert!((db_match(&p, &db, &c) - 1.0 / 9.0).abs() < 1e-12);
    let exact = MemorySequences(vec![vec![Symbol(0), Symbol(1)]]);
    assert_eq!(db_match(&p, &exact, &c), 0.0);
}

#[test]
fn figure2_density_counts_zero_entries() {
    let c = CompatibilityMatrix::paper_figure2();
    // 16 non-zero entries out of 25 (2 + 4 + 4 + 4 + 2 per row).
    assert!((c.density() - 16.0 / 25.0).abs() < 1e-12);
}

#[test]
fn mislabel_tail_zero_spread_is_zero() {
    assert_eq!(mislabel_tail(0.01, 0.0, 100), 0.0);
    assert_eq!(SpreadMode::default(), SpreadMode::Restricted);
}

#[test]
fn collapse_order_is_a_permutation_of_levels() {
    for (lo, hi) in [(1usize, 1usize), (1, 2), (2, 9), (5, 20), (1, 64)] {
        let mut order = levels_in_collapse_order(lo, hi);
        assert_eq!(order.len(), hi - lo + 1, "({lo},{hi})");
        order.sort_unstable();
        let expect: Vec<usize> = (lo..=hi).collect();
        assert_eq!(order, expect, "({lo},{hi})");
    }
}

#[test]
fn halfway_of_identical_borders_is_the_border() {
    let p = pat("d1 d2 d3");
    let mids = halfway(std::slice::from_ref(&p), std::slice::from_ref(&p));
    assert_eq!(mids, vec![p]);
}

#[test]
fn implied_provenance_appears_with_tiny_counter_budget() {
    // A strong planted chain with a tiny phase-3 budget: border collapsing
    // probes a mid-level pattern first and resolves its subpatterns by
    // Apriori propagation -> Implied provenance.
    let alphabet = a10();
    let seqs = generate(&GeneratorConfig {
        num_sequences: 120,
        min_len: 12,
        max_len: 16,
        alphabet_size: 10,
        background: Background::Uniform,
        motifs: vec![noisemine::datagen::PlantedMotif::new(
            Pattern::parse("d0 d1 d2 d3 d4 d5", &alphabet).unwrap(),
            0.5,
        )],
        seed: 5,
    });
    let matrix = CompatibilityMatrix::uniform_noise(10, 0.1).unwrap();
    // Tiny sample makes many chain patterns ambiguous; budget 1 forces
    // one-probe-per-scan collapsing with propagation.
    let config = MinerConfig {
        min_match: 0.25,
        delta: 0.2,
        sample_size: 30,
        counters_per_scan: 1,
        space: PatternSpace::contiguous(6),
        seed: 12,
        ..MinerConfig::default()
    };
    let db = MemoryDb::from_sequences(seqs);
    let outcome = mine(&db, &matrix, &config).unwrap();
    let provenances: std::collections::HashSet<_> =
        outcome.frequent.iter().map(|f| f.provenance).collect();
    assert!(
        provenances.contains(&Provenance::Verified),
        "expected probed patterns"
    );
    assert!(
        provenances.contains(&Provenance::Implied),
        "expected Apriori-propagated patterns with a 1-counter budget: {provenances:?}"
    );
}

#[test]
fn disk_writer_preserves_sparse_ids() {
    let path = std::env::temp_dir().join(format!("noisemine-sparse-ids-{}.db", std::process::id()));
    let mut w = DiskDbWriter::create(&path).unwrap();
    w.write_sequence(7, &[Symbol(1)]).unwrap();
    w.write_sequence(99, &[Symbol(2), Symbol(3)]).unwrap();
    let db = w.finish().unwrap();
    let mut ids = Vec::new();
    noisemine::core::matching::SequenceScan::scan(&db, &mut |id, _| ids.push(id));
    assert_eq!(ids, vec![7, 99]);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn generator_fixed_length_and_degenerate_weights() {
    let seqs = generate(&GeneratorConfig {
        num_sequences: 10,
        min_len: 7,
        max_len: 7,
        alphabet_size: 4,
        background: Background::Weights(vec![1.0, 0.0, 0.0, 0.0]),
        motifs: Vec::new(),
        seed: 3,
    });
    for s in &seqs {
        assert_eq!(s.len(), 7);
        assert!(s.iter().all(|&x| x == Symbol(0)));
    }
}

#[test]
fn maxminer_config_default_is_sane() {
    let c = MaxMinerConfig::default();
    assert!(c.lookaheads_per_scan > 0);
    assert!(c.counters_per_scan > 0);
}

#[test]
fn sequence_match_handles_pattern_equal_to_sequence_length() {
    let c = CompatibilityMatrix::paper_figure2();
    let alphabet = Alphabet::synthetic(5);
    let s = alphabet.encode("d0 d1 d2").unwrap();
    let p = Pattern::parse("d0 d1 d2", &alphabet).unwrap();
    let v = sequence_match(&p, &s, &c);
    assert!((v - 0.9 * 0.8 * 0.7).abs() < 1e-12);
}

#[test]
fn miner_on_single_sequence_database() {
    let alphabet = Alphabet::synthetic(4);
    let db = MemoryDb::from_sequences(vec![alphabet.encode("d0 d1 d0 d1").unwrap()]);
    let matrix = CompatibilityMatrix::identity(4);
    let outcome = mine(
        &db,
        &matrix,
        &MinerConfig {
            min_match: 0.9,
            sample_size: 1,
            space: PatternSpace::contiguous(4),
            ..MinerConfig::default()
        },
    )
    .unwrap();
    let patterns = outcome.patterns();
    assert!(patterns.contains(&Pattern::parse("d0 d1 d0 d1", &alphabet).unwrap()));
}

#[test]
fn zero_length_min_match_accepts_everything_reachable() {
    // min_match = 0 is legal: every candidate with positive sample match is
    // frequent; the space bound keeps it finite.
    let alphabet = Alphabet::synthetic(3);
    let db = MemoryDb::from_sequences(vec![alphabet.encode("d0 d1").unwrap()]);
    let matrix = CompatibilityMatrix::identity(3);
    let outcome = mine(
        &db,
        &matrix,
        &MinerConfig {
            min_match: 0.0,
            sample_size: 1,
            space: PatternSpace::contiguous(2),
            ..MinerConfig::default()
        },
    )
    .unwrap();
    // With identity matrix: d0, d1, d0 d1 all have match 1; every other
    // symbol has match 0 which still satisfies min_match = 0.
    assert!(outcome.frequent.len() >= 3);
}

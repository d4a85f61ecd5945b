//! Property tests for the positional symbol index (seeded harness, see
//! `common`).
//!
//! The index's whole contract is *bit-identity*: a [`SkipPlan`] may only
//! skip sequences whose match is provably exactly `0.0` (a concrete probe
//! symbol with no compatible observation, or a sequence shorter than the
//! probe), and every skipped sequence still counts in the Def-3.7
//! denominator, so the indexed scan returns the exact `Vec<f64>` of the
//! full scan — at any thread count, under either kernel, for any matrix
//! sparsity. These suites drive that contract on random sparse matrices
//! (the regime where skips actually fire) and wildcard-heavy and gapped
//! batches. The miner never builds an index; these suites cover the
//! library surface that still accepts one.

mod common;

use common::{random_matrix, random_pattern, random_sequences, run_cases};
use noisemine::core::matching::{sequence_match, try_db_match_many};
use noisemine::core::{
    CompatibilityMatrix, MatchKernel, Pattern, PatternElem, SkipPlan, Symbol, SymbolIndex,
    SymbolIndexBuilder,
};
use noisemine::datagen::sparse_random_matrix;
use noisemine::seqdb::MemoryDb;
use rand::rngs::StdRng;
use rand::Rng;

const M: usize = 8;
const CASES: usize = 64;

/// A matrix biased toward sparsity — the regime the index exists for.
/// Identity and sparse matrices make skips fire; the occasional dense
/// matrix checks that the plan degrades to "visit everything" without
/// changing a bit.
fn random_index_matrix(rng: &mut StdRng, m: usize) -> CompatibilityMatrix {
    match rng.gen_range(0..4u8) {
        0 => CompatibilityMatrix::identity(m),
        1 | 2 => sparse_random_matrix(m, rng.gen_range(0.0..0.4), 0.7, rng.gen()),
        _ => random_matrix(rng, m, 0.01),
    }
}

/// A random probe batch mixing the short wildcard patterns of the common
/// generator with longer wildcard-heavy ones (concrete endpoints, up to
/// 60% `*` inside) — wildcards never constrain the plan, so heavy use
/// stresses the "length filter only" degenerate case.
fn random_batch(rng: &mut StdRng, m: usize, count: usize) -> Vec<Pattern> {
    (0..count)
        .map(|_| {
            if rng.gen_bool(0.5) {
                random_pattern(rng, m)
            } else {
                let len = rng.gen_range(2..10usize);
                let mut elems: Vec<PatternElem> = (0..len)
                    .map(|_| {
                        if rng.gen_bool(0.6) {
                            PatternElem::Any
                        } else {
                            PatternElem::Sym(Symbol(rng.gen_range(0..m as u16)))
                        }
                    })
                    .collect();
                let n = elems.len();
                elems[0] = PatternElem::Sym(Symbol(rng.gen_range(0..m as u16)));
                elems[n - 1] = PatternElem::Sym(Symbol(rng.gen_range(0..m as u16)));
                Pattern::new(elems).expect("endpoints are concrete")
            }
        })
        .collect()
}

fn build_index(sequences: &[Vec<Symbol>], m: usize) -> SymbolIndex {
    let mut builder = SymbolIndexBuilder::new(m);
    for seq in sequences {
        builder.add_sequence(seq);
    }
    builder.finish()
}

fn assert_bit_identical(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{what}: pattern {i} diverged: indexed {g:e} vs full {w:e}"
        );
    }
}

/// The core contract: the indexed scan returns exactly the full scan's
/// bits for random sparse matrices and wildcard-heavy batches, under both
/// kernels, at one worker and at four.
#[test]
fn indexed_scan_is_bit_identical_to_full_scan() {
    run_cases(CASES, |rng| {
        let sequences = random_sequences(rng, M, 25, 1, 16);
        let db = MemoryDb::from_sequences(sequences.clone());
        let index = build_index(&sequences, M);
        let count = rng.gen_range(1..16usize);
        let patterns = random_batch(rng, M, count);
        let matrix = random_index_matrix(rng, M);
        let plan = SkipPlan::build(&index, &patterns, &matrix);
        let reference =
            try_db_match_many(&patterns, &db, &matrix, 1, MatchKernel::Naive, None).unwrap();
        for kernel in [MatchKernel::Naive, MatchKernel::Trie] {
            for threads in [1, 4] {
                let got = try_db_match_many(&patterns, &db, &matrix, threads, kernel, Some(&plan))
                    .unwrap();
                assert_bit_identical(
                    &got,
                    &reference,
                    &format!("{} @ {threads} thread(s)", kernel.name()),
                );
            }
        }
    });
}

/// Soundness, stated directly: the plan never skips a sequence whose true
/// match against *any* probe in the batch is non-zero. (The converse is
/// allowed — a visited sequence may still match at 0.0; that is a false
/// positive the scan resolves.)
#[test]
fn plan_never_skips_a_matching_sequence() {
    run_cases(CASES, |rng| {
        let sequences = random_sequences(rng, M, 25, 1, 16);
        let index = build_index(&sequences, M);
        let count = rng.gen_range(1..12usize);
        let patterns = random_batch(rng, M, count);
        let matrix = random_index_matrix(rng, M);
        let plan = SkipPlan::build(&index, &patterns, &matrix);
        for (ordinal, seq) in sequences.iter().enumerate() {
            let best = patterns
                .iter()
                .map(|p| sequence_match(p, seq, &matrix))
                .fold(0.0f64, f64::max);
            if best > 0.0 {
                assert!(
                    plan.is_candidate(ordinal),
                    "sequence {ordinal} matches at {best:e} but the plan skipped it"
                );
            }
        }
    });
}

/// Ordinals beyond the index's coverage are always candidates — an index
/// built over a shorter prefix of the database (appends since build) can
/// only lose skips, never answers.
#[test]
fn ordinals_beyond_coverage_are_candidates() {
    run_cases(24, |rng| {
        let sequences = random_sequences(rng, M, 25, 2, 16);
        let covered = rng.gen_range(1..sequences.len());
        let index = build_index(&sequences[..covered], M);
        let count = rng.gen_range(1..8usize);
        let patterns = random_batch(rng, M, count);
        let matrix = random_index_matrix(rng, M);
        let plan = SkipPlan::build(&index, &patterns, &matrix);
        for ordinal in covered..sequences.len() + 3 {
            assert!(
                plan.is_candidate(ordinal),
                "uncovered ordinal {ordinal} must be a candidate (coverage {covered})"
            );
        }
    });
}

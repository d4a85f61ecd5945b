//! Property tests for the columnar SIMD match kernel (seeded harness, see
//! `common`).
//!
//! The columnar kernel ships with a *documented* tolerance against the
//! trie oracle: [`SIMD_MAX_ULP`] units in the last place. The constant is
//! currently **zero** — the kernel preserves the per-window multiplication
//! order and the max over windows is order-independent for the
//! non-negative finite values the match metric produces — so these suites
//! measure the actual ULP distance on random matrices, random mixed
//! batches, and gapped Apriori-style frontiers and assert it never exceeds
//! the contract. Should a future layout widen `SIMD_MAX_ULP`, the suites
//! keep working and keep the new bound honest.
//!
//! Two paths are checked independently: whatever
//! `batch_sequence_match_columnar` dispatches to on this host (AVX2 where
//! available, otherwise the portable fallback — under
//! `NOISEMINE_FORCE_SCALAR=1` the CI fallback lane pins it), and the
//! scalar path forced explicitly, which must be *bit-identical* to the
//! oracle regardless of the contract's headroom. Database-level scans are
//! additionally held bit-identical across all three kernels and across
//! thread counts.

mod common;

use common::{random_matrix, random_pattern, random_sequence, random_sequences, run_cases};
use noisemine::core::matching::{sequence_match, try_db_match_many};
use noisemine::core::{
    simd_active, CandidateTrie, CompatibilityMatrix, MatchKernel, Pattern, PatternElem,
    PatternSpace, Symbol, SIMD_MAX_ULP,
};
use noisemine::seqdb::MemoryDb;
use rand::rngs::StdRng;
use rand::Rng;

const M: usize = 6;
const CASES: usize = 96;

/// ULP distance between two non-negative finite `f64`s (the only values
/// the match metric produces): the absolute difference of their ordered
/// bit representations. Identical bits ⇒ 0.
fn ulp_distance(a: f64, b: f64) -> u64 {
    assert!(
        a.is_finite() && b.is_finite() && a >= 0.0 && b >= 0.0,
        "match values must be non-negative finite, got {a:e} / {b:e}"
    );
    a.to_bits().abs_diff(b.to_bits())
}

/// Asserts every pairing in `got`/`want` is within the documented
/// [`SIMD_MAX_ULP`] tolerance.
fn assert_within_contract(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let ulp = ulp_distance(*g, *w);
        assert!(
            ulp <= u64::from(SIMD_MAX_ULP),
            "{what}: pattern {i} off by {ulp} ULP (> {SIMD_MAX_ULP}): \
             columnar {g:e} vs oracle {w:e}"
        );
    }
}

/// A random batch mixing short wildcard patterns with longer gapped ones —
/// deep trie paths, shared prefixes, interior `*` columns.
fn random_batch(rng: &mut StdRng, m: usize, count: usize, max_len: usize) -> Vec<Pattern> {
    (0..count)
        .map(|_| {
            if rng.gen_bool(0.5) {
                random_pattern(rng, m)
            } else {
                random_long_pattern(rng, m, max_len)
            }
        })
        .collect()
}

/// A random pattern of `2..=max_len` positions: concrete endpoints with a
/// 35% interior wildcard rate.
fn random_long_pattern(rng: &mut StdRng, m: usize, max_len: usize) -> Pattern {
    let len = rng.gen_range(2..=max_len);
    let mut elems: Vec<PatternElem> = (0..len)
        .map(|_| {
            if rng.gen_bool(0.35) {
                PatternElem::Any
            } else {
                PatternElem::Sym(Symbol(rng.gen_range(0..m as u16)))
            }
        })
        .collect();
    elems[0] = PatternElem::Sym(Symbol(rng.gen_range(0..m as u16)));
    let n = elems.len();
    elems[n - 1] = PatternElem::Sym(Symbol(rng.gen_range(0..m as u16)));
    Pattern::new(elems).expect("endpoints are concrete")
}

/// A random matrix: identity (saturation early-exit), near-sparse
/// (pruning floors and dead stripe entries), or plainly noisy.
fn random_kernel_matrix(rng: &mut StdRng, m: usize) -> CompatibilityMatrix {
    match rng.gen_range(0..4u8) {
        0 => CompatibilityMatrix::identity(m),
        1 => random_matrix(rng, m, 1e-6),
        _ => random_matrix(rng, m, 0.01),
    }
}

/// The dispatched columnar path (AVX2 on capable hosts) stays within the
/// documented ULP tolerance of the per-pattern oracle on random batches.
#[test]
fn columnar_batch_is_within_ulp_contract_of_the_oracle() {
    run_cases(CASES, |rng| {
        let count = rng.gen_range(1..20usize);
        let patterns = random_batch(rng, M, count, 10);
        let seq = random_sequence(rng, M, 25);
        let matrix = random_kernel_matrix(rng, M);
        let trie = CandidateTrie::new(&patterns);
        let mut scratch = trie.simd_scratch();
        let mut got = vec![f64::NAN; patterns.len()];
        trie.batch_sequence_match_columnar(&seq, &matrix, &mut scratch, &mut got);
        let want: Vec<f64> = patterns
            .iter()
            .map(|p| sequence_match(p, &seq, &matrix))
            .collect();
        assert_within_contract(&got, &want, "columnar vs oracle");
    });
}

/// The portable scalar path is *bit-identical* to the oracle — stricter
/// than the ULP contract, because it is also the reference the AVX2 path
/// is held to and what Miri and non-x86 hosts execute.
#[test]
fn forced_scalar_path_is_bit_identical_to_the_oracle() {
    run_cases(CASES, |rng| {
        let count = rng.gen_range(1..20usize);
        let patterns = random_batch(rng, M, count, 10);
        let seq = random_sequence(rng, M, 25);
        let matrix = random_kernel_matrix(rng, M);
        let trie = CandidateTrie::new(&patterns);
        let mut scratch = trie.simd_scratch();
        let mut got = vec![f64::NAN; patterns.len()];
        trie.batch_sequence_match_columnar_scalar(&seq, &matrix, &mut scratch, &mut got);
        for (i, p) in patterns.iter().enumerate() {
            let want = sequence_match(p, &seq, &matrix);
            assert!(
                got[i].to_bits() == want.to_bits(),
                "{p}: scalar columnar {:e} != oracle {want:e}",
                got[i]
            );
        }
    });
}

/// Gapped-space frontiers — the batches the Apriori phases actually probe:
/// heavy prefix sharing, wildcard columns, duplicate patterns after
/// filtering. Both columnar paths on one reused scratch.
#[test]
fn gapped_frontier_is_within_ulp_contract() {
    run_cases(CASES, |rng| {
        let max_gap = rng.gen_range(0..3usize);
        let space = PatternSpace::new(max_gap, 12).expect("valid space");
        let mut frontier: Vec<Pattern> =
            (0..M as u16).map(|s| Pattern::single(Symbol(s))).collect();
        for _ in 0..rng.gen_range(1..4usize) {
            frontier = frontier
                .iter()
                .flat_map(|base| {
                    let gap = rng.gen_range(0..=max_gap);
                    (0..M as u16).map(move |s| base.extend(gap, Symbol(s)))
                })
                .filter(|p| space.admits(p))
                .collect();
        }
        let seq = random_sequence(rng, M, 25);
        let matrix = random_kernel_matrix(rng, M);
        let trie = CandidateTrie::new(&frontier);
        let mut scratch = trie.simd_scratch();
        let want: Vec<f64> = frontier
            .iter()
            .map(|p| sequence_match(p, &seq, &matrix))
            .collect();
        let mut got = vec![f64::NAN; frontier.len()];
        trie.batch_sequence_match_columnar(&seq, &matrix, &mut scratch, &mut got);
        assert_within_contract(&got, &want, "gapped frontier (dispatched)");
        // Scratch reuse across paths must not leak state between walks.
        let mut scalar = vec![f64::NAN; frontier.len()];
        trie.batch_sequence_match_columnar_scalar(&seq, &matrix, &mut scratch, &mut scalar);
        for (i, (g, w)) in scalar.iter().zip(&want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits(),
                "gapped frontier (scalar): pattern {i}: {g:e} vs {w:e}"
            );
        }
    });
}

/// The accumulating entry point used by database scans: summing per-block
/// partials through `MatchKernel::Simd` at one worker and at four returns
/// the exact bits of the naive scan — the kernel choice and the thread
/// count are both purely operational.
#[test]
fn db_scans_with_simd_kernel_are_bit_identical_across_threads() {
    run_cases(48, |rng| {
        let db = MemoryDb::from_sequences(random_sequences(rng, M, 25, 1, 12));
        let count = rng.gen_range(1..16usize);
        let patterns = random_batch(rng, M, count, 10);
        let matrix = random_kernel_matrix(rng, M);
        let reference =
            try_db_match_many(&patterns, &db, &matrix, 1, MatchKernel::Naive, None).unwrap();
        for kernel in [MatchKernel::Trie, MatchKernel::Simd] {
            for threads in [1, 4] {
                let got =
                    try_db_match_many(&patterns, &db, &matrix, threads, kernel, None).unwrap();
                assert_eq!(got.len(), reference.len());
                for (i, (g, w)) in got.iter().zip(&reference).enumerate() {
                    assert!(
                        g.to_bits() == w.to_bits(),
                        "{} @ {threads} thread(s): pattern {i}: {g:e} vs {w:e}",
                        kernel.name()
                    );
                }
            }
        }
    });
}

/// Sanity on the dispatch witness: whichever way `simd_active()` resolved
/// for this process, the scratch's per-path sequence counters must agree
/// with it — the suite would otherwise silently test one path twice.
#[test]
fn dispatch_matches_the_advertised_path() {
    let patterns = vec![Pattern::single(Symbol(0))];
    let matrix = CompatibilityMatrix::identity(M);
    let trie = CandidateTrie::new(&patterns);
    let mut scratch = trie.simd_scratch();
    let mut out = vec![0.0f64; 1];
    trie.batch_sequence_match_columnar(&[Symbol(0)], &matrix, &mut scratch, &mut out);
    if simd_active() {
        assert_eq!(
            scratch.simd_sequences, 1,
            "AVX2 host must take the simd path"
        );
        assert_eq!(scratch.scalar_sequences, 0);
    } else {
        assert_eq!(
            scratch.scalar_sequences, 1,
            "fallback host must take scalar"
        );
        assert_eq!(scratch.simd_sequences, 0);
    }
}

//! Property tests for the batched candidate-trie match kernel (seeded
//! harness, see `common`).
//!
//! The kernel's whole contract is *bit-identity*: for every pattern in a
//! batch, [`CandidateTrie::batch_sequence_match`] must return exactly the
//! `f64` that the naive per-pattern [`sequence_match`] oracle returns —
//! same windows, same left-to-right products, and a subtree-pruning floor
//! that is provably lossless (Claim 3.1 monotonicity: products only shrink
//! as a window extends). These suites drive that contract on random
//! matrices, random batches (short wildcard patterns, long gapped
//! Apriori-style frontiers), and random databases, plus the edge cases
//! where the trie's shape degenerates: an empty batch, patterns longer
//! than the sequence, and shared-prefix wildcard columns. The database
//! scans are additionally checked across thread counts and both kernels —
//! four ways to compute the same `Vec<f64>`, one acceptable answer.
//!
//! The trie expands only the children an observed symbol's column can
//! match, so the sparse-matrix suites pin that walk on the matrices where
//! it skips most children: the Fig-14 partner channel, a 0.5%-fan-out
//! 1 000-item matrix, a score matrix with an empty column, and an alphabet
//! past the dense-storage limit.

mod common;

use common::{random_matrix, random_pattern, random_sequence, random_sequences, run_cases};
use noisemine::core::matching::{sequence_match, symbol_db_match, try_db_match_many};
use noisemine::core::matrix::DENSE_STORAGE_LIMIT;
use noisemine::core::parallel::CHUNK_SIZE;
use noisemine::core::sample_miner::mine_sample_budgeted_kernel;
use noisemine::core::{
    CandidateTrie, CompatibilityMatrix, MatchKernel, Pattern, PatternElem, PatternSpace,
    SpreadMode, Symbol,
};
use noisemine::datagen::noise::{channel_to_compatibility, partner_channel};
use noisemine::datagen::sparse_random_matrix;
use noisemine::seqdb::MemoryDb;
use rand::rngs::StdRng;
use rand::Rng;

const M: usize = 6;
const CASES: usize = 96;

/// A random batch mixing short wildcard patterns with longer ones (up to
/// `max_len` positions, concrete endpoints, wildcard runs inside).
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
/// 35% wildcard rate in between — long enough to exercise deep trie paths
/// and the floor-based subtree pruning.
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

/// A random matrix: mostly noisy column-stochastic, sometimes the identity
/// (exact hits saturate the kernel's early-exit path), sometimes nearly
/// sparse (entries close to zero stress the pruning floor).
fn random_kernel_matrix(rng: &mut StdRng, m: usize) -> CompatibilityMatrix {
    match rng.gen_range(0..4u8) {
        0 => CompatibilityMatrix::identity(m),
        1 => random_matrix(rng, m, 1e-6),
        _ => random_matrix(rng, m, 0.01),
    }
}

/// Bit-for-bit equality of two match vectors, with a readable diagnostic.
fn assert_bit_identical(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{what}: pattern {i} diverged: kernel {g:e} vs oracle {w:e}"
        );
    }
}

/// The core contract: one trie walk over a sequence returns exactly what
/// the per-pattern oracle returns, for every pattern in a random batch.
#[test]
fn batch_matches_the_per_pattern_oracle() {
    run_cases(CASES, |rng| {
        let count = rng.gen_range(1..20usize);
        let patterns = random_batch(rng, M, count, 10);
        let seq = random_sequence(rng, M, 25);
        let matrix = random_kernel_matrix(rng, M);
        let trie = CandidateTrie::new(&patterns);
        let mut scratch = trie.scratch();
        let mut got = vec![0.0f64; patterns.len()];
        trie.batch_sequence_match(&seq, &matrix, &mut scratch, &mut got);
        let want: Vec<f64> = patterns
            .iter()
            .map(|p| sequence_match(p, &seq, &matrix))
            .collect();
        assert_bit_identical(&got, &want, "batch vs oracle");
    });
}

/// Gapped-space frontiers — the batches phase 3 actually probes: a random
/// Apriori level grown with `Pattern::extend` under a gapped
/// [`PatternSpace`], heavy prefix sharing and wildcard columns included.
#[test]
fn gapped_frontier_matches_the_oracle() {
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
        let mut scratch = trie.scratch();
        let mut got = vec![0.0f64; frontier.len()];
        trie.batch_sequence_match(&seq, &matrix, &mut scratch, &mut got);
        let want: Vec<f64> = frontier
            .iter()
            .map(|p| sequence_match(p, &seq, &matrix))
            .collect();
        assert_bit_identical(&got, &want, "gapped frontier vs oracle");
    });
}

/// An empty batch is a no-op under both kernels and never touches the
/// output slice.
#[test]
fn empty_trie_is_a_no_op() {
    run_cases(12, |rng| {
        let seq = random_sequence(rng, M, 25);
        let matrix = random_kernel_matrix(rng, M);
        let trie = CandidateTrie::new(&[]);
        let mut scratch = trie.scratch();
        trie.batch_sequence_match(&seq, &matrix, &mut scratch, &mut []);
        let db = MemoryDb::from_sequences(vec![seq]);
        for kernel in [MatchKernel::Naive, MatchKernel::Trie] {
            assert!(try_db_match_many(&[], &db, &matrix, 1, kernel, None)
                .unwrap()
                .is_empty());
        }
    });
}

/// Patterns longer than the sequence have no window at all: the kernel
/// must report exactly 0, like the oracle, not skip the output slot.
#[test]
fn pattern_longer_than_sequence_is_zero() {
    run_cases(24, |rng| {
        let seq = random_sequence(rng, M, 6);
        let count = rng.gen_range(1..8usize);
        let patterns = random_batch(rng, M, count, 12);
        let matrix = random_kernel_matrix(rng, M);
        let trie = CandidateTrie::new(&patterns);
        let mut scratch = trie.scratch();
        let mut got = vec![f64::NAN; patterns.len()];
        trie.batch_sequence_match(&seq, &matrix, &mut scratch, &mut got);
        for (p, &g) in patterns.iter().zip(&got) {
            let want = sequence_match(p, &seq, &matrix);
            assert!(g.to_bits() == want.to_bits(), "{p}: {g:e} vs {want:e}");
            if p.len() > seq.len() {
                assert_eq!(g, 0.0, "{p} is longer than the sequence");
            }
        }
    });
}

/// Database scans: both kernels, at one worker and at four, produce the
/// same bits — the thread count and the kernel are both purely
/// operational knobs.
#[test]
fn db_scans_are_bit_identical_across_kernels_and_threads() {
    run_cases(48, |rng| {
        let db = MemoryDb::from_sequences(random_sequences(rng, M, 25, 1, 12));
        let count = rng.gen_range(1..16usize);
        let patterns = random_batch(rng, M, count, 10);
        let matrix = random_kernel_matrix(rng, M);
        let reference =
            try_db_match_many(&patterns, &db, &matrix, 1, MatchKernel::Naive, None).unwrap();
        for kernel in [MatchKernel::Naive, MatchKernel::Trie] {
            for threads in [1, 4] {
                let got =
                    try_db_match_many(&patterns, &db, &matrix, threads, kernel, None).unwrap();
                assert_bit_identical(
                    &got,
                    &reference,
                    &format!("{} @ {threads} thread(s)", kernel.name()),
                );
            }
        }
    });
}

/// A gapped pattern read off a window of `seq`: interior positions become
/// `*` at a 30% rate, and concrete positions are swapped for another true
/// symbol the observation can stand for at a 40% rate — so the pattern has
/// non-zero matches even on a sparse matrix where a random one has none.
fn window_pattern(
    rng: &mut StdRng,
    seq: &[Symbol],
    matrix: &CompatibilityMatrix,
    max_len: usize,
) -> Pattern {
    let len = rng.gen_range(1..=max_len.min(seq.len()));
    let start = rng.gen_range(0..=seq.len() - len);
    let elems = seq[start..start + len]
        .iter()
        .enumerate()
        .map(|(i, &obs)| {
            if i > 0 && i + 1 < len && rng.gen_bool(0.3) {
                return PatternElem::Any;
            }
            let column = matrix.column(obs);
            if !column.is_empty() && rng.gen_bool(0.4) {
                PatternElem::Sym(column[rng.gen_range(0..column.len())].0)
            } else {
                PatternElem::Sym(obs)
            }
        })
        .collect();
    Pattern::new(elems).expect("window endpoints are concrete")
}

/// One sparse-matrix case: a database of up to 600 sequences over `m`
/// symbols, a batch of window patterns plus random ones with duplicates
/// appended, then the trie against the per-pattern oracle sequence by
/// sequence, and phase 3's database scan (`try_db_match_many`) at one and
/// four threads against the naive kernel; on small alphabets also phase 2's
/// sample matches under every kernel against the definition.
fn check_sparse_regime(rng: &mut StdRng, matrix: &CompatibilityMatrix, what: &str) {
    let m = matrix.len();
    let seqs = random_sequences(rng, m, 30, 300, 600);
    let mut patterns: Vec<Pattern> = (0..rng.gen_range(20..60usize))
        .map(|_| {
            let seq = &seqs[rng.gen_range(0..seqs.len())];
            window_pattern(rng, seq, matrix, 8)
        })
        .collect();
    patterns.extend((0..5).map(|_| random_pattern(rng, m)));
    for _ in 0..rng.gen_range(1..6usize) {
        let dup = patterns[rng.gen_range(0..patterns.len())].clone();
        patterns.push(dup);
    }

    let trie = CandidateTrie::new(&patterns);
    let mut scratch = trie.scratch();
    let mut got = vec![0.0f64; patterns.len()];
    for seq in seqs.iter().take(40) {
        trie.batch_sequence_match(seq, matrix, &mut scratch, &mut got);
        let want: Vec<f64> = patterns
            .iter()
            .map(|p| sequence_match(p, seq, matrix))
            .collect();
        assert_bit_identical(&got, &want, &format!("{what}: batch vs oracle"));
    }

    let db = MemoryDb::from_sequences(seqs.clone());
    let reference = try_db_match_many(&patterns, &db, matrix, 1, MatchKernel::Naive, None).unwrap();
    assert!(
        reference.iter().any(|&v| v > 0.0),
        "{what}: degenerate case, every pattern matches nothing"
    );
    for threads in [1, 4] {
        let got =
            try_db_match_many(&patterns, &db, matrix, threads, MatchKernel::Trie, None).unwrap();
        assert_bit_identical(&got, &reference, &format!("{what}: db scan @ {threads}"));
    }
    // Phase 2 evaluates every symbol at level 1, so the 1 000+-item
    // regimes run this check on a few cases of their own.
    if m <= 64 {
        check_sample_matches(&seqs[..130], matrix, what);
    }
}

/// Phase 2 on `sample`, under every kernel: each evaluated candidate's
/// sample match carries exactly the bits of the definition (footnote 7)
/// summed in the engine's [`CHUNK_SIZE`] blocks. The threshold sits at the
/// sixth-best symbol so levels 2 and 3 stay small on a 1 000-item alphabet.
/// Phase 2 takes every core, so this runs at the host's core count; the
/// `sample_miner` unit tests pin 1, 2, 3 and 8 threads.
fn check_sample_matches(sample: &[Vec<Symbol>], matrix: &CompatibilityMatrix, what: &str) {
    let symbol_match = symbol_db_match(&MemoryDb::from_sequences(sample.to_vec()), matrix);
    let mut ranked = symbol_match.clone();
    ranked.sort_by(|a, b| b.total_cmp(a));
    let min_match = ranked[5].max(1e-9);
    let mut oracle: Option<Vec<(Pattern, f64)>> = None;
    for kernel in [MatchKernel::Naive, MatchKernel::Trie, MatchKernel::Simd] {
        let p2 = mine_sample_budgeted_kernel(
            sample,
            matrix,
            &symbol_match,
            min_match,
            0.9,
            SpreadMode::Restricted,
            &PatternSpace::contiguous(3),
            100_000,
            kernel,
        );
        assert!(!p2.truncated, "{what}: phase 2 ran out of budget");
        let oracle = oracle.get_or_insert_with(|| {
            p2.labels
                .keys()
                .map(|pattern| {
                    let mut total = 0.0f64;
                    for chunk in sample.chunks(CHUNK_SIZE) {
                        let mut partial = 0.0f64;
                        for seq in chunk {
                            partial += sequence_match(pattern, seq, matrix);
                        }
                        total += partial;
                    }
                    (pattern.clone(), total / sample.len() as f64)
                })
                .collect()
        });
        assert_eq!(p2.labels.len(), oracle.len(), "{what}: {}", kernel.name());
        for (pattern, want) in oracle.iter() {
            let got = p2.labels[pattern].0;
            assert!(
                got.to_bits() == want.to_bits(),
                "{what}: {} sample match of {pattern}: {got:e} vs {want:e}",
                kernel.name()
            );
        }
    }
}

/// The Fig-14 partner channel: each observation is compatible with two
/// true symbols of 20, so a wide sibling list is expanded from the column.
#[test]
fn partner_channel_matches_the_oracle() {
    let partners: Vec<Vec<usize>> = (0..20).map(|i| vec![i ^ 1]).collect();
    let matrix = channel_to_compatibility(&partner_channel(20, 0.15, &partners))
        .diagonal_normalized_clamped()
        .expect("partner channel normalizes");
    assert_eq!(matrix.column(Symbol(3)).len(), 2);
    run_cases(16, |rng| check_sparse_regime(rng, &matrix, "partner"));
}

/// The clickstream regime: 1 000 items at 0.5% fan-out.
#[test]
fn sparse_clickstream_matrix_matches_the_oracle() {
    let matrix = sparse_random_matrix(1000, 0.005, 0.85, 0xc11c);
    run_cases(12, |rng| check_sparse_regime(rng, &matrix, "clickstream"));
    run_cases(2, |rng| {
        let sample = random_sequences(rng, 1000, 30, 65, 100);
        check_sample_matches(&sample, &matrix, "clickstream");
    });
}

/// A score matrix with an empty column: the symbol it observes matches no
/// true symbol at all, so only `*` children survive it.
#[test]
fn score_matrix_with_an_empty_column_matches_the_oracle() {
    run_cases(24, |rng| {
        let m: usize = 12;
        let empty = rng.gen_range(0..m);
        let columns: Vec<Vec<(Symbol, f64)>> = (0..m)
            .map(|j| {
                if j == empty {
                    return Vec::new();
                }
                let mut col = vec![(Symbol(j as u16), rng.gen_range(0.3..1.0))];
                for _ in 0..rng.gen_range(0..3usize) {
                    let i = rng.gen_range(0..m);
                    if col.iter().all(|&(s, _)| s.index() != i) {
                        col.push((Symbol(i as u16), rng.gen_range(0.01..1.0)));
                    }
                }
                col
            })
            .collect();
        let matrix = CompatibilityMatrix::scores_from_sparse_columns(columns).expect("weights");
        assert!(matrix.column(Symbol(empty as u16)).is_empty());
        check_sparse_regime(rng, &matrix, "empty column");
    });
}

/// An alphabet past [`DENSE_STORAGE_LIMIT`]: lookups go through the sparse
/// columns (`Storage::Sparse`), where the column entry replaces a binary
/// search per node.
#[test]
fn sparse_storage_matrix_matches_the_oracle() {
    let matrix = sparse_random_matrix(DENSE_STORAGE_LIMIT + 52, 0.001, 0.85, 0x5ba7);
    assert!(
        !matrix.is_dense(),
        "m > DENSE_STORAGE_LIMIT must use sparse storage"
    );
    run_cases(8, |rng| check_sparse_regime(rng, &matrix, "sparse storage"));
    run_cases(2, |rng| {
        let sample = random_sequences(rng, matrix.len(), 30, 65, 100);
        check_sample_matches(&sample, &matrix, "sparse storage");
    });
}

//! Phase 2: ambiguous-pattern discovery on the in-memory sample (§4.2).
//!
//! All candidate patterns are mined level-wise over the sample and labeled
//! *frequent*, *ambiguous*, or *infrequent* by the Chernoff bound
//! (Algorithm 4.2). A pattern remains a candidate for extension iff it is
//! frequent-or-ambiguous (patterns below the INFQT border). The output is
//! the two borders `FQT` / `INFQT` embracing the ambiguous region, plus the
//! full ambiguous set that phase 3 must resolve.

use std::collections::{HashMap, HashSet};

use serde::{Deserialize, Serialize};

use crate::alphabet::Symbol;
use crate::candidates::{next_level, LevelTrace, PatternSpace};
use crate::chernoff::{classify, epsilon, Label, SpreadMode};
use crate::lattice::Border;
use crate::match_kernel::MatchKernel;
use crate::matching::try_sum_matches;
use crate::matrix::CompatibilityMatrix;
use crate::parallel::CHUNK_SIZE;
use crate::pattern::Pattern;

/// Default ceiling on the number of candidate patterns phase 2 may
/// evaluate. When the Chernoff band `±ε` is wider than `min_match`, *no*
/// pattern can be labeled infrequent and the level-wise enumeration
/// diverges — the budget turns that configuration error into a loud,
/// diagnosable failure instead of an endless run. The cure is more samples,
/// a larger `min_match`, or a larger `δ` (Section 4.2; this is also why the
/// restricted spread of Claim 4.2 matters in practice).
pub const DEFAULT_MAX_SAMPLE_PATTERNS: usize = 2_000_000;

/// The result of mining the sample (phase 2).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SampleMineResult {
    /// Every evaluated candidate with its sample match and label.
    pub labels: HashMap<Pattern, (f64, Label)>,
    /// Patterns labeled frequent (sample match `> min_match + ε`).
    pub frequent: Vec<(Pattern, f64)>,
    /// Patterns labeled ambiguous, to be resolved by phase 3.
    pub ambiguous: Vec<(Pattern, f64)>,
    /// Border between frequent and ambiguous patterns (maximal frequent).
    pub fqt: Border,
    /// Border between ambiguous and infrequent patterns (maximal ambiguous).
    pub infqt: Border,
    /// Candidates/survivors per level — the instrumentation behind Fig. 9/10.
    pub trace: LevelTrace,
    /// Set when enumeration hit the candidate budget and stopped early; the
    /// classification is then incomplete and the caller must treat the run
    /// as failed (the miner surfaces an error).
    pub truncated: bool,
}

impl SampleMineResult {
    /// Number of ambiguous patterns.
    pub fn ambiguous_count(&self) -> usize {
        self.ambiguous.len()
    }
}

/// Mines the sample level-wise and classifies every candidate (§4.2).
///
/// - `sample`: the in-memory sample sequences from phase 1;
/// - `symbol_match`: per-symbol match over the **entire** database (phase 1),
///   used for the restricted spread of Claim 4.2;
/// - `min_match`: the user threshold; `delta`: Chernoff failure probability;
/// - `spread_mode`: full (`R = 1`) or restricted spread;
/// - `space`: bounds of the enumerated pattern space;
/// - `max_patterns`: the candidate budget (see
///   [`DEFAULT_MAX_SAMPLE_PATTERNS`] for why a budget exists);
/// - `kernel`: the [`MatchKernel`] that evaluates each level's candidates.
///   The kernels produce identical values (see [`crate::match_kernel`]), so
///   the knob never changes the classification.
///
/// Each evaluated level is timed in three parts, one observation each: its
/// sample match (`core_phase2_evaluate_seconds`), its labelling
/// (`core_phase2_label_seconds`), and the generation of the next level's
/// candidates from its survivors (`core_phase2_generate_seconds`).
///
/// The sample match runs with `threads = 0`: all available cores, or the
/// calling thread alone for small levels. The miner bounds phase 2 by
/// [`MinerConfig::threads`](crate::miner::MinerConfig::threads) instead;
/// the classification is bit-identical at every thread count.
#[allow(clippy::too_many_arguments)]
pub fn mine_sample_budgeted_kernel(
    sample: &[Vec<Symbol>],
    matrix: &CompatibilityMatrix,
    symbol_match: &[f64],
    min_match: f64,
    delta: f64,
    spread_mode: SpreadMode,
    space: &PatternSpace,
    max_patterns: usize,
    kernel: MatchKernel,
) -> SampleMineResult {
    mine_sample(
        sample,
        matrix,
        symbol_match,
        min_match,
        delta,
        spread_mode,
        space,
        max_patterns,
        kernel,
        0,
    )
}

/// [`mine_sample_budgeted_kernel`] with the sample match on at most
/// `threads` workers (`0` = all available cores).
#[allow(clippy::too_many_arguments)]
pub(crate) fn mine_sample(
    sample: &[Vec<Symbol>],
    matrix: &CompatibilityMatrix,
    symbol_match: &[f64],
    min_match: f64,
    delta: f64,
    spread_mode: SpreadMode,
    space: &PatternSpace,
    max_patterns: usize,
    kernel: MatchKernel,
    threads: usize,
) -> SampleMineResult {
    let n = sample.len().max(1);
    let m = matrix.len();
    let mut result = SampleMineResult::default();
    let mut alive: HashSet<Pattern> = HashSet::new();
    let mut surviving_symbols: Vec<Symbol> = Vec::new();

    // Level 1: every symbol is a candidate.
    let mut candidates: Vec<Pattern> = (0..m).map(|i| Pattern::single(Symbol(i as u16))).collect();
    let mut evaluated = candidates.len();
    loop {
        let evaluate = crate::obs::phase2_evaluate_seconds().span();
        let values = sample_matches(&candidates, sample, matrix, kernel, threads);
        evaluate.finish();

        let label_span = crate::obs::phase2_label_seconds().span();
        let mut survivors = Vec::new();
        for (pattern, &value) in candidates.iter().zip(&values) {
            let spread = spread_mode.spread(pattern, symbol_match);
            let eps = epsilon(spread, n, delta);
            crate::obs::restricted_spread_min().set_min(spread);
            crate::obs::chernoff_epsilon_max().set_max(eps);
            let label = classify(value, min_match, eps);
            record(&mut result, pattern.clone(), value, label);
            if label != Label::Infrequent {
                alive.insert(pattern.clone());
                survivors.push(pattern.clone());
            }
        }
        result.trace.record(candidates.len(), survivors.len());
        label_span.finish();

        // The next level's candidates; the span records when it drops, on
        // every way out of this iteration.
        let _generate = crate::obs::phase2_generate_seconds().span();
        if result.trace.levels() == 1 {
            surviving_symbols = survivors
                .iter()
                .map(|p| {
                    p.symbols()
                        .next()
                        .expect("singleton pattern has one symbol")
                })
                .collect();
            if diverges(
                &survivors,
                symbol_match,
                min_match,
                delta,
                n,
                spread_mode,
                space,
                max_patterns,
            ) {
                result.truncated = true;
                return result;
            }
        }
        if survivors.is_empty() {
            return result;
        }
        candidates = next_level(&survivors, &alive, &surviving_symbols, space);
        if candidates.is_empty() {
            return result;
        }
        evaluated += candidates.len();
        if evaluated > max_patterns {
            result.truncated = true;
            return result;
        }
    }
}

/// Fast divergence check after level 1: a surviving symbol whose Chernoff
/// band swallows zero (`min_match − ε(R_d) ≤ 0`) can never have any of its
/// pure combinations labeled infrequent — values only shrink with length,
/// but the infrequent band is empty for those spreads. Returns `true` when
/// the enumerable pattern count over such symbols already exceeds the
/// budget, so the run fails now instead of after millions of evaluations.
#[allow(clippy::too_many_arguments)]
fn diverges(
    survivors: &[Pattern],
    symbol_match: &[f64],
    min_match: f64,
    delta: f64,
    n: usize,
    spread_mode: SpreadMode,
    space: &PatternSpace,
    max_patterns: usize,
) -> bool {
    let diverging = survivors
        .iter()
        .filter(|p| min_match - epsilon(spread_mode.spread(p, symbol_match), n, delta) <= 0.0)
        .count();
    if diverging < 2 {
        return false;
    }
    // Lower bound: contiguous patterns only, each level multiplies the
    // frontier by `diverging` choices (gaps only add more).
    let mut frontier = diverging as f64;
    let mut total = frontier;
    for _ in 1..space.max_len {
        frontier *= diverging as f64;
        total += frontier;
        if total > max_patterns as f64 {
            return true;
        }
    }
    false
}

/// Sample match of each pattern: the mean of its sequence match over the
/// sample (footnote 7). The sample is evaluated by the same block engine
/// and match evaluator as the phase-3 probe scans, in blocks of
/// [`CHUNK_SIZE`] reduced in block order, so the values are bit-identical
/// at every `threads` (`0` = all available cores, or the calling thread
/// alone for small batches).
fn sample_matches(
    patterns: &[Pattern],
    sample: &[Vec<Symbol>],
    matrix: &CompatibilityMatrix,
    kernel: MatchKernel,
    threads: usize,
) -> Vec<f64> {
    let n = sample.len().max(1) as f64;
    let mut totals = try_sum_matches(
        patterns,
        sample,
        matrix,
        threads,
        kernel,
        None,
        CHUNK_SIZE,
        &mut |_| {},
    )
    .expect("an in-memory sample scan cannot fail");
    for t in &mut totals {
        *t /= n;
    }
    totals
}

fn record(result: &mut SampleMineResult, pattern: Pattern, value: f64, label: Label) {
    match label {
        Label::Frequent => {
            crate::obs::candidates_frequent().inc();
            result.fqt.insert(pattern.clone());
            result.frequent.push((pattern.clone(), value));
        }
        Label::Ambiguous => {
            crate::obs::candidates_ambiguous().inc();
            result.infqt.insert(pattern.clone());
            result.ambiguous.push((pattern.clone(), value));
        }
        Label::Infrequent => {
            crate::obs::candidates_infrequent().inc();
        }
    }
    result.labels.insert(pattern, (value, label));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::matching::{db_match, MemorySequences, SequenceScan};

    fn sample_db() -> (Vec<Vec<Symbol>>, CompatibilityMatrix) {
        let a = Alphabet::synthetic(5);
        let seqs = vec![
            a.encode("d0 d1 d2 d0").unwrap(),
            a.encode("d3 d1 d0").unwrap(),
            a.encode("d2 d3 d1 d0").unwrap(),
            a.encode("d1 d1").unwrap(),
        ];
        (seqs, CompatibilityMatrix::paper_figure2())
    }

    #[test]
    fn classification_covers_all_candidates() {
        let (sample, matrix) = sample_db();
        let symbol_match = [0.7, 0.8, 0.3875, 0.425, 0.075];
        let space = PatternSpace::contiguous(4);
        let r = mine_sample_budgeted_kernel(
            &sample,
            &matrix,
            &symbol_match,
            0.15,
            0.01,
            SpreadMode::Restricted,
            &space,
            DEFAULT_MAX_SAMPLE_PATTERNS,
            MatchKernel::default(),
        );
        assert!(!r.labels.is_empty());
        // frequent + ambiguous sets are consistent with the label map.
        for (p, v) in &r.frequent {
            assert_eq!(r.labels[p], (*v, Label::Frequent));
        }
        for (p, v) in &r.ambiguous {
            assert_eq!(r.labels[p], (*v, Label::Ambiguous));
        }
        // Borders cover their sets.
        for (p, _) in &r.frequent {
            assert!(r.fqt.covers(p));
        }
        for (p, _) in &r.ambiguous {
            assert!(r.infqt.covers(p));
        }
    }

    #[test]
    fn sample_match_equals_db_match_when_sample_is_whole_db() {
        let (sample, matrix) = sample_db();
        let db = MemorySequences(sample.clone());
        let symbol_match = crate::matching::symbol_db_match(&db, &matrix);
        let space = PatternSpace::contiguous(3);
        let r = mine_sample_budgeted_kernel(
            &sample,
            &matrix,
            &symbol_match,
            0.10,
            0.001,
            SpreadMode::Restricted,
            &space,
            DEFAULT_MAX_SAMPLE_PATTERNS,
            MatchKernel::default(),
        );
        for (p, (v, _)) in &r.labels {
            let exact = db_match(p, &db, &matrix);
            assert!(
                (v - exact).abs() < 1e-12,
                "{p}: sample {v} != exact {exact}"
            );
        }
        assert_eq!(db.num_sequences(), 4);
    }

    #[test]
    fn frequent_labels_imply_margin() {
        let (sample, matrix) = sample_db();
        let symbol_match = [0.7, 0.8, 0.3875, 0.425, 0.075];
        let min_match = 0.2;
        let delta = 0.05;
        let space = PatternSpace::contiguous(3);
        let r = mine_sample_budgeted_kernel(
            &sample,
            &matrix,
            &symbol_match,
            min_match,
            delta,
            SpreadMode::Restricted,
            &space,
            DEFAULT_MAX_SAMPLE_PATTERNS,
            MatchKernel::default(),
        );
        for (p, v) in &r.frequent {
            let spread = SpreadMode::Restricted.spread(p, &symbol_match);
            let eps = epsilon(spread, sample.len(), delta);
            assert!(*v > min_match + eps);
        }
        for (p, v) in &r.ambiguous {
            let spread = SpreadMode::Restricted.spread(p, &symbol_match);
            let eps = epsilon(spread, sample.len(), delta);
            assert!(*v <= min_match + eps && *v >= min_match - eps);
        }
    }

    #[test]
    fn restricted_spread_never_increases_ambiguity() {
        let (sample, matrix) = sample_db();
        let symbol_match = [0.7, 0.8, 0.3875, 0.425, 0.075];
        let space = PatternSpace::contiguous(3);
        let full = mine_sample_budgeted_kernel(
            &sample,
            &matrix,
            &symbol_match,
            0.15,
            0.01,
            SpreadMode::Full,
            &space,
            DEFAULT_MAX_SAMPLE_PATTERNS,
            MatchKernel::default(),
        );
        let restricted = mine_sample_budgeted_kernel(
            &sample,
            &matrix,
            &symbol_match,
            0.15,
            0.01,
            SpreadMode::Restricted,
            &space,
            DEFAULT_MAX_SAMPLE_PATTERNS,
            MatchKernel::default(),
        );
        assert!(restricted.ambiguous_count() <= full.ambiguous_count());
    }

    #[test]
    fn divergent_configuration_fails_fast() {
        // A tiny sample makes the Chernoff band wider than the threshold:
        // nothing can be labeled infrequent and the enumeration would
        // diverge. The guard must set `truncated` without evaluating
        // millions of candidates.
        let (sample, matrix) = sample_db();
        let tiny: Vec<_> = sample.into_iter().take(2).collect();
        let symbol_match = [0.9; 5];
        let r = mine_sample_budgeted_kernel(
            &tiny,
            &matrix,
            &symbol_match,
            0.01, // far below epsilon at n = 2
            0.0001,
            SpreadMode::Restricted,
            &PatternSpace::contiguous(64),
            100_000,
            MatchKernel::default(),
        );
        assert!(r.truncated, "divergence guard did not trip");
        // Only level 1 was evaluated.
        assert_eq!(r.trace.levels(), 1);
    }

    #[test]
    fn empty_sample_yields_no_frequent_patterns() {
        let matrix = CompatibilityMatrix::paper_figure2();
        let symbol_match = [0.0; 5];
        let r = mine_sample_budgeted_kernel(
            &[],
            &matrix,
            &symbol_match,
            0.1,
            0.01,
            SpreadMode::Full,
            &PatternSpace::contiguous(3),
            DEFAULT_MAX_SAMPLE_PATTERNS,
            MatchKernel::default(),
        );
        assert!(r.frequent.is_empty());
    }

    const KERNELS: [MatchKernel; 3] = [MatchKernel::Naive, MatchKernel::Trie, MatchKernel::Simd];

    /// 500 sequences span eight [`CHUNK_SIZE`] blocks, so an explicit
    /// thread count really fans the blocks out.
    fn workload() -> (Vec<Pattern>, Vec<Vec<Symbol>>, CompatibilityMatrix) {
        let patterns: Vec<Pattern> = (0..6u16)
            .flat_map(|x| {
                (0..6u16).map(move |y| Pattern::contiguous(&[Symbol(x), Symbol(y)]).unwrap())
            })
            .collect();
        let sequences: Vec<Vec<Symbol>> = (0..500)
            .map(|i| {
                (0..40)
                    .map(|j| Symbol(((i * 7 + j * 3) % 6) as u16))
                    .collect()
            })
            .collect();
        let matrix = CompatibilityMatrix::uniform_noise(6, 0.2).unwrap();
        (patterns, sequences, matrix)
    }

    #[test]
    fn sample_matches_are_bit_identical_across_threads_and_kernels() {
        let (patterns, sequences, matrix) = workload();
        let serial = sample_matches(&patterns, &sequences, &matrix, MatchKernel::Naive, 1);
        for kernel in KERNELS {
            for threads in [1, 2, 3, 8] {
                let got = sample_matches(&patterns, &sequences, &matrix, kernel, threads);
                assert_eq!(serial, got, "{} @ {threads} threads", kernel.name());
            }
        }
    }

    #[test]
    fn sample_matches_agree_with_direct_computation() {
        let (patterns, sequences, matrix) = workload();
        for kernel in KERNELS {
            let means = sample_matches(&patterns, &sequences, &matrix, kernel, 4);
            for (p, &mean) in patterns.iter().zip(&means) {
                let direct: f64 = sequences
                    .iter()
                    .map(|seq| crate::matching::sequence_match(p, seq, &matrix))
                    .sum::<f64>()
                    / sequences.len() as f64;
                assert!((mean - direct).abs() < 1e-12, "{p} ({})", kernel.name());
            }
        }
    }

    #[test]
    fn sample_matches_of_empty_inputs() {
        let (patterns, sequences, matrix) = workload();
        for kernel in KERNELS {
            assert!(sample_matches(&[], &sequences, &matrix, kernel, 4).is_empty());
            assert_eq!(
                sample_matches(&patterns, &[], &matrix, kernel, 4),
                vec![0.0; patterns.len()]
            );
        }
    }

    #[test]
    fn small_sample_work_takes_the_serial_path() {
        let (patterns, sequences, matrix) = workload();
        let tiny = &sequences[..2];
        for kernel in KERNELS {
            // Auto threads on a batch far below the threshold: one worker,
            // and the same bits as an explicit single thread.
            let auto = sample_matches(&patterns[..2], tiny, &matrix, kernel, 0);
            assert_eq!(auto.len(), 2);
            assert_eq!(
                auto,
                sample_matches(&patterns[..2], tiny, &matrix, kernel, 1)
            );
        }
    }
}

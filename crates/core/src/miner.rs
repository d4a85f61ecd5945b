//! The three-phase probabilistic miner (Section 4) — the paper's headline
//! algorithm.
//!
//! 1. **Phase 1** (Algorithm 4.1): one scan of the database computes the
//!    match of every individual symbol (first-occurrence optimized) and
//!    draws a uniform random sample of sequences as a by-product.
//! 2. **Phase 2** (Algorithm 4.2): level-wise mining of the in-memory
//!    sample classifies every candidate as frequent / ambiguous /
//!    infrequent by the Chernoff bound with restricted spread.
//! 3. **Phase 3** (Algorithms 4.3/4.4): border collapsing resolves the
//!    ambiguous patterns against the full database in a minimal number of
//!    scans under a counter-memory budget.
//!
//! # Observability
//!
//! With the [`noisemine_obs`] registry enabled (`--metrics-out` in the
//! CLI), each phase is timed into the
//! `core_phase{1,2,3}_seconds` histograms, and each phase-2 level into
//! `core_phase2_{generate,evaluate,label}_seconds`. Instrumentation is
//! observe-only: enabling it never changes sampling, classification, or
//! the mined pattern set, and with no sink attached every record site
//! reduces to one relaxed atomic load. `docs/OBSERVABILITY.md` maps each
//! metric to the paper quantity it tracks.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::alphabet::Symbol;
use crate::border_collapse::{
    try_collapse_with_known_kernel_indexed, CollapseResult, ProbeStrategy, Resolution,
};
use crate::candidates::{LevelTrace, PatternSpace};
use crate::chernoff::SpreadMode;
use crate::error::{Error, Result, ScanError};
use crate::lattice::{AmbiguousSpace, Border};
use crate::match_kernel::MatchKernel;
use crate::matching::{SequenceBlock, SequenceScan, SymbolMatchScratch};
use crate::matrix::CompatibilityMatrix;
use crate::parallel::{resolve_threads, try_scan_map_reduce, SCAN_BLOCK_SIZE};
use crate::pattern::Pattern;
use crate::sample_miner::{mine_sample, DEFAULT_MAX_SAMPLE_PATTERNS};

/// Configuration of the three-phase miner.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MinerConfig {
    /// The significance threshold `min_match` (Definition 3.7).
    pub min_match: f64,
    /// Chernoff failure probability `δ` (the paper uses `1 − δ = 0.9999`).
    pub delta: f64,
    /// Number of sequences to sample into memory in phase 1.
    pub sample_size: usize,
    /// Match counters that fit in memory per database scan in phase 3.
    pub counters_per_scan: usize,
    /// Bounds of the enumerated pattern space.
    pub space: PatternSpace,
    /// Spread selection for the Chernoff bound (Claim 4.2).
    pub spread_mode: SpreadMode,
    /// Probe strategy for phase 3 (border collapsing vs level-wise).
    pub probe_strategy: ProbeStrategy,
    /// RNG seed for the phase-1 sample — mining is fully deterministic.
    pub seed: u64,
    /// Ceiling on the candidate patterns phase 2 may evaluate; exceeding it
    /// aborts the run with a diagnostic (it means the Chernoff band is too
    /// wide to prune — raise the sample size, threshold, or delta).
    pub max_sample_patterns: usize,
    /// Worker threads for the scans of all three phases (phase 2 scans the
    /// in-memory sample); `0` means all available cores. Purely
    /// operational: block sizes are constants and partial sums reduce in
    /// block order, so mining output is bit-identical at every thread count
    /// (which is also why this knob is not part of any checkpointed state).
    pub threads: usize,
    /// Which match kernel evaluates candidate batches in phases 2 and 3 —
    /// the batched [`CandidateTrie`](crate::match_kernel::CandidateTrie)
    /// (default), the naive per-pattern reference, or the columnar SIMD
    /// kernel (`simd`, 8 windows per step). Every product path (the
    /// `noisemine` CLI, streaming, serving) uses the trie; the naive and
    /// columnar kernels are library and benchmark paths only, kept for the
    /// property suites and the kernel benchmarks. Purely operational, like
    /// `threads`: all three kernels produce identical values (trie/naive
    /// are bit-identical by construction; simd is bound to them by
    /// [`SIMD_MAX_ULP`](crate::match_kernel::simd::SIMD_MAX_ULP), currently
    /// zero), so this knob never changes mining output and is not part of
    /// any checkpointed state.
    pub match_kernel: MatchKernel,
}

impl Default for MinerConfig {
    fn default() -> Self {
        Self {
            min_match: 0.01,
            delta: 0.0001,
            sample_size: 1000,
            counters_per_scan: 10_000,
            space: PatternSpace::default(),
            spread_mode: SpreadMode::Restricted,
            probe_strategy: ProbeStrategy::BorderCollapsing,
            seed: 0x6e6f_6973, // "nois"
            max_sample_patterns: DEFAULT_MAX_SAMPLE_PATTERNS,
            threads: 0,
            match_kernel: MatchKernel::default(),
        }
    }
}

impl MinerConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.min_match) {
            return Err(Error::InvalidConfig(format!(
                "min_match {} outside [0, 1]",
                self.min_match
            )));
        }
        if !(self.delta > 0.0 && self.delta < 1.0) {
            return Err(Error::InvalidConfig(format!(
                "delta {} outside (0, 1)",
                self.delta
            )));
        }
        if self.sample_size == 0 {
            return Err(Error::InvalidConfig("sample_size must be positive".into()));
        }
        if self.counters_per_scan == 0 {
            return Err(Error::InvalidConfig(
                "counters_per_scan must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Which phase established that a pattern is frequent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Provenance {
    /// Labeled frequent from the sample with Chernoff confidence `1 − δ`.
    SampleConfident,
    /// Verified exactly against the full database in phase 3.
    Verified,
    /// Implied frequent by a phase-3 verified superpattern (Apriori).
    Implied,
}

/// A frequent pattern in the miner's output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrequentPattern {
    /// The pattern.
    pub pattern: Pattern,
    /// Best available estimate of its match: the exact database match for
    /// verified patterns, the sample match otherwise.
    pub match_estimate: f64,
    /// How it was established.
    pub provenance: Provenance,
}

/// Statistics of one mining run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MineStats {
    /// Total full scans of the database (phase 1 + phase 3).
    pub db_scans: usize,
    /// Sequences actually sampled in phase 1.
    pub sample_size: usize,
    /// Candidates / survivors per level in phase 2.
    pub trace: LevelTrace,
    /// Patterns labeled frequent from the sample alone.
    pub sample_frequent: usize,
    /// Ambiguous patterns after phase 2 (what phase 3 must resolve).
    pub ambiguous_after_sample: usize,
    /// Exact match counters evaluated during phase 3.
    pub verified_patterns: usize,
    /// Ambiguous patterns resolved by Apriori propagation alone.
    pub propagated_patterns: usize,
    /// Patterns counted in each phase-3 scan (Fig. 14(c) instrumentation).
    pub probes_per_scan: Vec<usize>,
    /// Wall-clock time of each phase.
    pub phase1_time: Duration,
    /// Phase-2 wall-clock time.
    pub phase2_time: Duration,
    /// Phase-3 wall-clock time.
    pub phase3_time: Duration,
}

impl MineStats {
    /// Total wall-clock time across phases.
    pub fn total_time(&self) -> Duration {
        self.phase1_time + self.phase2_time + self.phase3_time
    }
}

/// The complete result of a mining run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MineOutcome {
    /// All frequent patterns with provenance.
    pub frequent: Vec<FrequentPattern>,
    /// The border of frequent patterns (maximal frequent patterns).
    pub border: Border,
    /// Per-symbol match over the whole database (phase 1 output).
    pub symbol_match: Vec<f64>,
    /// Run statistics.
    pub stats: MineStats,
}

impl MineOutcome {
    /// The frequent patterns with exactly `k` concrete symbols.
    pub fn at_level(&self, k: usize) -> impl Iterator<Item = &FrequentPattern> {
        self.frequent
            .iter()
            .filter(move |f| f.pattern.non_eternal_count() == k)
    }

    /// Looks up a pattern's match estimate.
    pub fn match_of(&self, pattern: &Pattern) -> Option<f64> {
        self.frequent
            .iter()
            .find(|f| &f.pattern == pattern)
            .map(|f| f.match_estimate)
    }

    /// Just the patterns, sorted for deterministic output.
    pub fn patterns(&self) -> Vec<Pattern> {
        let mut v: Vec<Pattern> = self.frequent.iter().map(|f| f.pattern.clone()).collect();
        v.sort();
        v
    }
}

/// Phase 1 output: per-symbol matches and the in-memory sample.
#[derive(Debug, Clone, Default)]
pub struct Phase1Output {
    /// `symbol_match[d]` — match of symbol `d` in the whole database.
    pub symbol_match: Vec<f64>,
    /// The uniformly sampled sequences.
    pub sample: Vec<Vec<Symbol>>,
}

/// The phase-1 sequence sampler: Vitter's sequential sampling within the
/// reported database size, hardened with a reservoir fallback for scans
/// that yield more sequences than [`SequenceScan::num_sequences`] reported
/// (a store being appended to concurrently). Without the fallback,
/// `reported - seen` underflows on the first surplus sequence — a panic in
/// debug builds, a corrupted inclusion probability in release builds.
struct SequentialSampler {
    /// The caller's requested sample size.
    requested: usize,
    /// `min(requested, reported)` — the sequential-sampling quota.
    quota: usize,
    reported: usize,
    seen: usize,
    sample: Vec<Vec<Symbol>>,
}

impl SequentialSampler {
    fn new(requested: usize, reported: usize) -> Self {
        let quota = requested.min(reported);
        Self {
            requested,
            quota,
            reported,
            seen: 0,
            sample: Vec::with_capacity(quota),
        }
    }

    fn offer(&mut self, seq: &[Symbol], rng: &mut impl Rng) {
        if self.seen < self.reported {
            // Sequential sampling: exactly `quota` of the reported `N`
            // sequences, uniformly, in scan order.
            let needed = self.quota - self.sample.len();
            let remaining = self.reported - self.seen;
            if needed > 0 && rng.gen::<f64>() < needed as f64 / remaining as f64 {
                self.sample.push(seq.to_vec());
            }
        } else if self.sample.len() < self.requested {
            // The reported count was a lie: grow toward the full quota...
            self.sample.push(seq.to_vec());
        } else if self.requested > 0 {
            // ...then degrade to reservoir replacement so the surplus
            // sequences still have a chance of being represented.
            let k = rng.gen_range(0..=self.seen);
            if k < self.requested {
                self.sample[k] = seq.to_vec();
            }
        }
        self.seen += 1;
    }

    /// The sample plus the number of sequences actually offered.
    fn finish(self) -> (Vec<Vec<Symbol>>, usize) {
        (self.sample, self.seen)
    }
}

/// Runs phase 1 (Algorithm 4.1): one scan computing every symbol's match
/// and drawing a uniform sample of up to `sample_size` sequences using
/// sequential sampling (choose the `i`-th sequence with probability
/// `(n − j) / (N − i)` given `j` already chosen), with `threads` workers
/// (`0` = all available cores).
///
/// The scan streams blocks of [`SCAN_BLOCK_SIZE`] sequences through
/// [`try_scan_map_reduce`]: per-symbol matches accumulate on worker threads
/// (one [`SymbolMatchScratch`] per worker) into per-block partial sums that
/// are reduced in block order, while sequential sampling runs on the
/// in-order block stream *before* the fan-out — so both the symbol matches
/// and the seeded sample are bit-identical at every thread count. The final
/// average divides by the number of sequences actually visited, not the
/// reported count, and the sampler falls back to reservoir replacement past
/// the reported count, so a database appended to mid-scan yields a
/// full-quota sample and in-range match values instead of a panic.
///
/// A failed scan surfaces as `Err` and no partial phase-1 output escapes —
/// both the sample and the symbol matches are discarded, since a partial
/// scan would bias them.
pub fn try_phase1_threads<S: SequenceScan + ?Sized>(
    db: &S,
    matrix: &CompatibilityMatrix,
    sample_size: usize,
    rng: &mut impl Rng,
    threads: usize,
) -> std::result::Result<Phase1Output, ScanError> {
    let m = matrix.len();
    let threads = resolve_threads(threads);
    let mut sampler = SequentialSampler::new(sample_size, db.num_sequences());
    let partials = try_scan_map_reduce(
        db,
        SCAN_BLOCK_SIZE,
        threads,
        &mut |block| {
            crate::obs::parallel_scan_blocks().inc();
            crate::obs::scan_sequences().add(block.len() as u64);
            for (_, seq) in block.iter() {
                sampler.offer(seq, rng);
            }
        },
        &|| SymbolMatchScratch::new(m),
        &|scratch: &mut SymbolMatchScratch, _idx, block: &SequenceBlock| {
            let mut partial = vec![0.0f64; m];
            for (_, seq) in block.iter() {
                for (acc, &v) in partial.iter_mut().zip(scratch.sequence(seq, matrix)) {
                    *acc += v;
                }
            }
            partial
        },
    )?;
    let mut match_acc = vec![0.0f64; m];
    for partial in &partials {
        for (acc, &v) in match_acc.iter_mut().zip(partial) {
            *acc += v;
        }
    }
    let (sample, visited) = sampler.finish();
    if visited > 0 {
        for v in &mut match_acc {
            *v /= visited as f64;
        }
    }
    Ok(Phase1Output {
        symbol_match: match_acc,
        sample,
    })
}

/// Runs the full three-phase miner.
pub fn mine<S: SequenceScan + ?Sized>(
    db: &S,
    matrix: &CompatibilityMatrix,
    config: &MinerConfig,
) -> Result<MineOutcome> {
    config.validate()?;
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Phase 1: symbol matches + sample, one scan. A scan failure surfaces
    // as `Error::Scan` instead of killing the run with a panic.
    let span = crate::obs::phase1_seconds().span();
    let t0 = Instant::now();
    let p1 = try_phase1_threads(db, matrix, config.sample_size, &mut rng, config.threads)?;
    let phase1_time = t0.elapsed();
    span.finish();

    let mut outcome = mine_from_phase1(db, matrix, config, &p1, &[])?.0;
    outcome.stats.db_scans += 1;
    outcome.stats.phase1_time = phase1_time;
    Ok(outcome)
}

/// Runs phases 2 and 3 on an already-computed [`Phase1Output`].
///
/// This is the batch miner minus the phase-1 scan: an engine that maintains
/// symbol matches and a sample *incrementally* (the streaming engine in
/// `noisemine-stream`) calls this to re-mine without touching phase 1.
/// `stats.db_scans` counts only phase-3 scans and `stats.phase1_time` stays
/// zero; [`mine`] adds its own phase-1 contribution on top.
///
/// `known` pairs patterns with their *exact database match*, maintained
/// online by the caller; phase 3 applies them first (see
/// [`try_collapse_with_known_kernel_indexed`]), so previously verified
/// patterns collapse their region of the ambiguous space with zero scans.
/// `config.threads` bounds the workers of phases 2 and 3. Also returns the
/// raw phase-3 [`CollapseResult`] so an incremental caller can adopt the
/// probed FQT/INFQT border patterns (with their exact matches) as its next
/// tracked set.
pub fn mine_from_phase1<S: SequenceScan + ?Sized>(
    db: &S,
    matrix: &CompatibilityMatrix,
    config: &MinerConfig,
    p1: &Phase1Output,
    known: &[(Pattern, f64)],
) -> Result<(MineOutcome, CollapseResult)> {
    config.validate()?;
    let mut stats = MineStats {
        sample_size: p1.sample.len(),
        ..MineStats::default()
    };

    // Phase 2: classify candidates on the sample.
    let phase2_span = crate::obs::phase2_seconds().span();
    let t1 = Instant::now();
    let p2 = mine_sample(
        &p1.sample,
        matrix,
        &p1.symbol_match,
        config.min_match,
        config.delta,
        config.spread_mode,
        &config.space,
        config.max_sample_patterns,
        config.match_kernel,
        config.threads,
    );
    if p2.truncated {
        return Err(Error::InvalidConfig(format!(
            "phase 2 exceeded the {}-pattern budget: the Chernoff band (delta = {}, {} samples) \
             is too wide to prune at min_match = {} — raise the sample size, threshold, or delta",
            config.max_sample_patterns,
            config.delta,
            p1.sample.len(),
            config.min_match
        )));
    }
    stats.trace = p2.trace.clone();
    stats.sample_frequent = p2.frequent.len();
    stats.ambiguous_after_sample = p2.ambiguous.len();
    stats.phase2_time = t1.elapsed();
    phase2_span.finish();

    // Phase 3: resolve the ambiguous patterns against the full database.
    let phase3_span = crate::obs::phase3_seconds().span();
    let t2 = Instant::now();
    let ambiguous = AmbiguousSpace::new(p2.ambiguous.iter().map(|(p, _)| p.clone()));
    let p3 = try_collapse_with_known_kernel_indexed(
        ambiguous,
        known,
        db,
        matrix,
        config.min_match,
        config.counters_per_scan,
        config.probe_strategy,
        config.threads,
        config.match_kernel,
        None,
    )?;
    stats.db_scans += p3.scans;
    stats.verified_patterns = p3.probes;
    stats.propagated_patterns = p3.propagated;
    stats.probes_per_scan = p3.probes_per_scan.clone();
    stats.phase3_time = t2.elapsed();
    phase3_span.finish();

    // Assemble: sample-confident frequents + phase-3 resolutions.
    let (frequent, border) = assemble_outcome(&p2, &p3);

    Ok((
        MineOutcome {
            frequent,
            border,
            symbol_match: p1.symbol_match.clone(),
            stats,
        },
        p3,
    ))
}

/// Assembles the final frequent-pattern list (with provenance and best
/// available match estimates) and its border from the phase-2 sample
/// classification and the phase-3 resolutions. Shared by the three-phase
/// miner and the Toivonen-style baseline, whose outputs differ only in the
/// phase-3 probe order.
pub fn assemble_outcome(
    p2: &crate::sample_miner::SampleMineResult,
    p3: &crate::border_collapse::CollapseResult,
) -> (Vec<FrequentPattern>, Border) {
    let sample_match_of = |p: &Pattern| p2.labels.get(p).map(|&(v, _)| v).unwrap_or(0.0);
    let mut frequent: Vec<FrequentPattern> = p2
        .frequent
        .iter()
        .map(|(p, v)| FrequentPattern {
            pattern: p.clone(),
            match_estimate: *v,
            provenance: Provenance::SampleConfident,
        })
        .collect();
    for r in &p3.frequent {
        frequent.push(FrequentPattern {
            pattern: r.pattern.clone(),
            match_estimate: r.match_value.unwrap_or_else(|| sample_match_of(&r.pattern)),
            provenance: match r.resolution {
                Resolution::Probed => Provenance::Verified,
                Resolution::Propagated => Provenance::Implied,
            },
        });
    }
    frequent.sort_by(|a, b| a.pattern.cmp(&b.pattern));
    let border = Border::from_patterns(frequent.iter().map(|f| f.pattern.clone()));
    (frequent, border)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::matching::{db_match, MemorySequences};

    fn db() -> MemorySequences {
        let a = Alphabet::synthetic(5);
        MemorySequences(vec![
            a.encode("d0 d1 d2 d0").unwrap(),
            a.encode("d3 d1 d0").unwrap(),
            a.encode("d2 d3 d1 d0").unwrap(),
            a.encode("d1 d1").unwrap(),
            a.encode("d0 d1 d2").unwrap(),
            a.encode("d3 d1 d2 d0").unwrap(),
        ])
    }

    fn config() -> MinerConfig {
        MinerConfig {
            min_match: 0.15,
            delta: 0.01,
            sample_size: 6,
            counters_per_scan: 8,
            space: PatternSpace::contiguous(4),
            ..MinerConfig::default()
        }
    }

    #[test]
    fn phase1_counts_and_samples() {
        let database = db();
        let matrix = CompatibilityMatrix::paper_figure2();
        let mut rng = StdRng::seed_from_u64(1);
        let out = try_phase1_threads(&database, &matrix, 3, &mut rng, 0).unwrap();
        assert_eq!(out.sample.len(), 3);
        assert_eq!(out.symbol_match.len(), 5);
        // Every sampled sequence is from the database.
        for s in &out.sample {
            assert!(database.0.contains(s));
        }
        // Symbol matches agree with the standalone implementation.
        let expect = crate::matching::symbol_db_match(&database, &matrix);
        for (a, b) in out.symbol_match.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn phase1_sample_size_capped_at_db_size() {
        let database = db();
        let matrix = CompatibilityMatrix::paper_figure2();
        let mut rng = StdRng::seed_from_u64(1);
        let out = try_phase1_threads(&database, &matrix, 100, &mut rng, 0).unwrap();
        assert_eq!(out.sample.len(), 6);
        // With the sample being the whole DB, sampling is order-preserving.
        assert_eq!(out.sample, database.0);
    }

    #[test]
    fn full_sample_mining_is_exact() {
        // When the sample covers the whole database, every frequent pattern
        // in the outcome has true match >= min_match and nothing is missed
        // (sample match == true match, so the Chernoff bands are exact).
        let database = db();
        let matrix = CompatibilityMatrix::paper_figure2();
        let cfg = config();
        let out = mine(&database, &matrix, &cfg).unwrap();
        assert!(!out.frequent.is_empty());
        for f in &out.frequent {
            let exact = db_match(&f.pattern, &database, &matrix);
            assert!(
                exact >= cfg.min_match - 1e-12,
                "{} reported frequent but exact match {exact} < {}",
                f.pattern,
                cfg.min_match
            );
        }
        // Completeness at level 1: every symbol with exact match above the
        // threshold appears in the output.
        for (i, &v) in out.symbol_match.iter().enumerate() {
            let p = Pattern::single(Symbol(i as u16));
            if v >= cfg.min_match + 1e-12 {
                assert!(
                    out.frequent.iter().any(|f| f.pattern == p),
                    "missing frequent symbol {p} (match {v})"
                );
            }
        }
    }

    #[test]
    fn stats_account_for_scans() {
        let database = db();
        let matrix = CompatibilityMatrix::paper_figure2();
        let out = mine(&database, &matrix, &config()).unwrap();
        // At least phase 1's scan.
        assert!(out.stats.db_scans >= 1);
        assert_eq!(out.stats.sample_size, 6);
        assert!(out.stats.trace.levels() >= 1);
    }

    #[test]
    fn border_covers_all_frequent() {
        let database = db();
        let matrix = CompatibilityMatrix::paper_figure2();
        let out = mine(&database, &matrix, &config()).unwrap();
        for f in &out.frequent {
            assert!(out.border.covers(&f.pattern));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let database = db();
        let matrix = CompatibilityMatrix::paper_figure2();
        let mut cfg = config();
        cfg.sample_size = 3;
        let a = mine(&database, &matrix, &cfg).unwrap();
        let b = mine(&database, &matrix, &cfg).unwrap();
        assert_eq!(a.patterns(), b.patterns());
        cfg.seed ^= 0xdead_beef;
        let _c = mine(&database, &matrix, &cfg).unwrap(); // different seed still valid
    }

    #[test]
    fn config_validation() {
        let mut cfg = config();
        cfg.min_match = 1.5;
        assert!(cfg.validate().is_err());
        let mut cfg = config();
        cfg.delta = 0.0;
        assert!(cfg.validate().is_err());
        let mut cfg = config();
        cfg.sample_size = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = config();
        cfg.counters_per_scan = 0;
        assert!(cfg.validate().is_err());
        assert!(config().validate().is_ok());
    }

    /// A database whose scan yields more sequences than `num_sequences()`
    /// reports — the concurrent-append scenario behind the phase-1
    /// underflow bug.
    struct UnderReportingDb {
        inner: MemorySequences,
        reported: usize,
    }

    impl SequenceScan for UnderReportingDb {
        fn num_sequences(&self) -> usize {
            self.reported
        }
        fn scan(&self, visit: &mut dyn FnMut(u64, &[Symbol])) {
            self.inner.scan(visit)
        }
    }

    #[test]
    fn phase1_fills_quota_on_underreporting_db() {
        // Regression: `total - seen` underflowed once the scan ran past the
        // reported count. The sampler must fall back to reservoir
        // replacement and still fill its quota.
        let matrix = CompatibilityMatrix::paper_figure2();
        let database = UnderReportingDb {
            inner: db(), // 6 sequences
            reported: 2,
        };
        for requested in [1usize, 2, 4, 6, 10] {
            let mut rng = StdRng::seed_from_u64(9);
            let out = try_phase1_threads(&database, &matrix, requested, &mut rng, 0).unwrap();
            assert_eq!(
                out.sample.len(),
                requested.min(6),
                "requested = {requested}"
            );
            for s in &out.sample {
                assert!(database.inner.0.contains(s));
            }
            for &v in &out.symbol_match {
                assert!((0.0..=1.0).contains(&v), "symbol match {v} out of range");
            }
        }
        // Matches divide by the visited count, so they equal the honest
        // full-database values.
        let mut rng = StdRng::seed_from_u64(3);
        let out = try_phase1_threads(&database, &matrix, 3, &mut rng, 0).unwrap();
        let expect = crate::matching::symbol_db_match(&database.inner, &matrix);
        for (a, b) in out.symbol_match.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    /// `n` one-symbol sequences whose symbol is their scan position.
    fn numbered(n: usize) -> MemorySequences {
        MemorySequences((0..n).map(|i| vec![Symbol(i as u16)]).collect())
    }

    /// Phase 1's sample of `requested` sequences from `database`, as scan
    /// positions.
    fn sample_ids<S: SequenceScan + ?Sized>(
        database: &S,
        requested: usize,
        rng: &mut StdRng,
    ) -> Vec<u16> {
        let matrix = CompatibilityMatrix::identity(64);
        let out = try_phase1_threads(database, &matrix, requested, rng, 1).unwrap();
        out.sample.iter().map(|seq| seq[0].0).collect()
    }

    #[test]
    fn phase1_sample_preserves_order_and_uniqueness() {
        let mut rng = StdRng::seed_from_u64(7);
        let ids = sample_ids(&numbered(50), 20, &mut rng);
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20, "duplicates in sample");
        assert_eq!(ids, sorted, "sequential sampling preserves scan order");
    }

    #[test]
    fn phase1_sample_is_approximately_uniform() {
        // Sample 10 of 20 sequences many times; each sequence should be
        // selected about half the time.
        let database = numbered(20);
        let mut rng = StdRng::seed_from_u64(99);
        let trials = 2000;
        let mut counts = [0usize; 20];
        for _ in 0..trials {
            for id in sample_ids(&database, 10, &mut rng) {
                counts[id as usize] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let freq = c as f64 / trials as f64;
            assert!(
                (freq - 0.5).abs() < 0.06,
                "sequence {i} selected with frequency {freq}, expected ~0.5"
            );
        }
    }

    #[test]
    fn phase1_sample_handles_empty_requests_and_empty_dbs() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(sample_ids(&numbered(0), 0, &mut rng).is_empty());
        assert!(sample_ids(&numbered(0), 10, &mut rng).is_empty());
        assert!(sample_ids(&numbered(25), 0, &mut rng).is_empty());
    }

    #[test]
    fn phase1_fallback_covers_surplus_sequences() {
        // With n >= actual the fallback must return every sequence,
        // including the ones past the reported count.
        let lying = UnderReportingDb {
            inner: numbered(30),
            reported: 5,
        };
        let mut rng = StdRng::seed_from_u64(77);
        let mut ids = sample_ids(&lying, 30, &mut rng);
        ids.sort_unstable();
        assert_eq!(ids, (0..30).collect::<Vec<u16>>());
    }

    #[test]
    fn phase1_fallback_reaches_all_positions() {
        // Reservoir replacement must be able to select surplus sequences
        // without starving the sequentially chosen prefix.
        let lying = UnderReportingDb {
            inner: numbered(20),
            reported: 10,
        };
        let mut rng = StdRng::seed_from_u64(13);
        let trials = 2000;
        let mut counts = [0usize; 20];
        for _ in 0..trials {
            for id in sample_ids(&lying, 5, &mut rng) {
                counts[id as usize] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 0, "sequence {i} never selected across {trials} trials");
        }
    }

    #[test]
    fn phase1_samples_in_one_scan() {
        /// Counts the scans made through it.
        struct Counting(MemorySequences, std::sync::atomic::AtomicUsize);
        impl SequenceScan for Counting {
            fn num_sequences(&self) -> usize {
                self.0.num_sequences()
            }
            fn scan(&self, visit: &mut dyn FnMut(u64, &[Symbol])) {
                self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                self.0.scan(visit)
            }
        }
        let database = Counting(numbered(10), Default::default());
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(sample_ids(&database, 5, &mut rng).len(), 5);
        assert_eq!(database.1.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn mine_survives_underreporting_db() {
        let matrix = CompatibilityMatrix::paper_figure2();
        let database = UnderReportingDb {
            inner: db(),
            reported: 3,
        };
        let cfg = config(); // sample_size 6: the fallback grows to full coverage
        let out = mine(&database, &matrix, &cfg).unwrap();
        assert!(!out.frequent.is_empty());
        for f in &out.frequent {
            let exact = db_match(&f.pattern, &database.inner, &matrix);
            assert!(
                exact >= cfg.min_match - 1e-12,
                "{} frequent but exact match {exact} < {}",
                f.pattern,
                cfg.min_match
            );
        }
    }

    #[test]
    fn phase1_threads_bit_identical_across_thread_counts() {
        // Enough sequences for several scan blocks.
        let a = Alphabet::synthetic(5);
        let seqs: Vec<Vec<Symbol>> = (0..600u16)
            .map(|i| (0..10).map(|j| Symbol((i + j) % 5)).collect())
            .collect();
        let database = MemorySequences(seqs);
        let matrix = CompatibilityMatrix::paper_figure2();
        let _ = a;
        let mut rng = StdRng::seed_from_u64(77);
        let serial = try_phase1_threads(&database, &matrix, 40, &mut rng, 1).unwrap();
        for threads in [2, 3, 8] {
            let mut rng = StdRng::seed_from_u64(77);
            let par = try_phase1_threads(&database, &matrix, 40, &mut rng, threads).unwrap();
            assert_eq!(serial.symbol_match, par.symbol_match, "threads = {threads}");
            assert_eq!(serial.sample, par.sample, "threads = {threads}");
        }
    }

    #[test]
    fn outcome_helpers() {
        let database = db();
        let matrix = CompatibilityMatrix::paper_figure2();
        let out = mine(&database, &matrix, &config()).unwrap();
        let level1: Vec<_> = out.at_level(1).collect();
        assert!(!level1.is_empty());
        let first = &out.frequent[0];
        assert_eq!(out.match_of(&first.pattern), Some(first.match_estimate));
        assert!(out.stats.total_time() >= out.stats.phase1_time);
    }
}

//! Match computation (Definitions 3.5–3.7 and Algorithms 4.1 / 4.2).
//!
//! - the match of a pattern in a *segment* is the product of per-position
//!   compatibilities, `M(P, s) = ∏ C(pᵢ, sᵢ)`, with `C(*, x) = 1`;
//! - the match in a *sequence* is the maximum over all sliding windows;
//! - the match in a *database* is the mean over its sequences.
//!
//! The module also implements the per-symbol match scan of Algorithm 4.1 in
//! both the straightforward `O(N·l̄·m)` form and the first-occurrence
//! optimized `O(N·(l̄ + m²))` form (§4.1), and the exact-occurrence
//! *support* metric used by the paper as the baseline model.
//!
//! # Observability
//!
//! Multi-pattern scans issued here ([`try_db_match_many`]) run on
//! [`crate::parallel::try_scan_map_reduce`] and, when the
//! [`noisemine_obs`] registry is enabled, count every sequence of a
//! database scan in `core_scan_sequences_total` and every block in
//! `parallel_scan_blocks_total` — together with the phase-1 scan in
//! [`crate::miner`], those counters read N × database scans. Phase 2's
//! sample match shares the block engine and the match evaluator but scans
//! no database, so it counts in neither. See `docs/OBSERVABILITY.md` for
//! the full metric reference.

use crate::alphabet::Symbol;
use crate::error::ScanError;
use crate::index::SkipPlan;
use crate::match_kernel::simd::SimdScratch;
use crate::match_kernel::{CandidateTrie, MatchKernel, TrieScratch};
use crate::matrix::CompatibilityMatrix;
use crate::parallel::{resolve_threads, try_scan_map_reduce, PARALLEL_THRESHOLD, SCAN_BLOCK_SIZE};
use crate::pattern::{Pattern, PatternElem};

/// A batch of sequences in flat storage, the unit of work of the block
/// scan API ([`SequenceScan::try_scan_blocks`]).
///
/// All symbols live in one contiguous buffer with per-sequence end offsets,
/// so a block can be recycled across scan iterations: once its vectors have
/// grown to a block's worth of data, refilling it allocates nothing. Blocks
/// are passed **by value** so the scanning thread and the workers of
/// [`crate::parallel::try_scan_map_reduce`] can hand buffers back and forth
/// instead of copying sequences out.
#[derive(Debug, Clone, Default)]
pub struct SequenceBlock {
    ids: Vec<u64>,
    ends: Vec<usize>,
    symbols: Vec<Symbol>,
}

impl SequenceBlock {
    /// An empty block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one sequence to the block.
    pub fn push(&mut self, id: u64, seq: &[Symbol]) {
        self.ids.push(id);
        self.symbols.extend_from_slice(seq);
        self.ends.push(self.symbols.len());
    }

    /// Number of sequences currently in the block.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the block holds no sequences.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Empties the block, keeping its allocations for reuse.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.ends.clear();
        self.symbols.clear();
    }

    /// The `i`-th sequence as `(id, symbols)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> (u64, &[Symbol]) {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        (self.ids[i], &self.symbols[start..self.ends[i]])
    }

    /// Iterates the sequences in insertion (scan) order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[Symbol])> {
        (0..self.len()).map(move |i| self.get(i))
    }
}

/// A source of sequences that can be scanned front to back.
///
/// This is the minimal contract the mining algorithms need; the
/// `noisemine-seqdb` crate provides in-memory and disk-resident
/// implementations with scan accounting. A "scan" in the paper's
/// cost model corresponds to exactly one call of [`SequenceScan::scan`],
/// [`SequenceScan::try_scan`], [`SequenceScan::try_scan_from`] or
/// [`SequenceScan::try_scan_blocks`].
///
/// A store implements `num_sequences` and `scan`, plus `try_scan` when it
/// can fail. Block scans always come from the provided
/// [`SequenceScan::try_scan_blocks`], which batches `try_scan`'s visits on
/// the calling thread, so a store counts its scans in `try_scan` alone.
pub trait SequenceScan {
    /// Number of sequences `N` in the database.
    ///
    /// This is a *report*, not a promise: a store that is being appended to
    /// concurrently may yield more sequences during a scan than it reported
    /// here. Consumers that average over a scan must count the sequences
    /// actually visited rather than trust this number.
    fn num_sequences(&self) -> usize;

    /// Visits every sequence in order, calling `visit(id, symbols)` once per
    /// sequence. Implementations that track I/O cost count one database scan
    /// per call.
    fn scan(&self, visit: &mut dyn FnMut(u64, &[Symbol]));

    /// Fallible variant of [`SequenceScan::scan`]: visits every sequence in
    /// order and returns `Err` if the underlying store fails partway through
    /// (I/O error, corrupt record, truncation) instead of panicking.
    ///
    /// The default implementation delegates to the infallible [`scan`]
    /// (in-memory stores cannot fail) and returns `Ok(())`. Stores with a
    /// real failure mode — disk-resident databases, network-backed stores —
    /// should override this and implement `scan` on top of it.
    ///
    /// Sequences visited before the failure have already been handed to
    /// `visit`; callers that aggregate must discard partial state on `Err`.
    ///
    /// [`scan`]: SequenceScan::scan
    fn try_scan(&self, visit: &mut dyn FnMut(u64, &[Symbol])) -> Result<(), ScanError> {
        self.scan(visit);
        Ok(())
    }

    /// [`SequenceScan::try_scan`] that visits only the sequences after the
    /// first `skip`: the tail read of an append-only log. One call is one
    /// database scan.
    ///
    /// The default scans everything and drops the first `skip` visits. A
    /// store that can seek to its tail overrides this; it must visit the
    /// same sequences, and may leave the skipped ones unread.
    fn try_scan_from(
        &self,
        skip: u64,
        visit: &mut dyn FnMut(u64, &[Symbol]),
    ) -> Result<(), ScanError> {
        let mut seen = 0u64;
        self.try_scan(&mut |id, seq| {
            if seen >= skip {
                visit(id, seq);
            }
            seen += 1;
        })
    }

    /// Visits every sequence in [`SequenceScan::try_scan`] order, batched
    /// into [`SequenceBlock`]s of up to `block_size` sequences (only the
    /// final block may be smaller). One call is one `try_scan`, so it counts
    /// as one database scan.
    ///
    /// `sink` consumes each filled block and returns a block to refill (its
    /// contents are cleared first). That ownership round-trip lets the
    /// caller ship blocks to worker threads and recycle their buffers
    /// without copying sequences one by one.
    ///
    /// On `Err` the blocks filled before the failure have already been
    /// handed to `sink`; the partial block at the failure is dropped.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    fn try_scan_blocks(
        &self,
        block_size: usize,
        sink: &mut dyn FnMut(SequenceBlock) -> SequenceBlock,
    ) -> Result<(), ScanError> {
        assert!(block_size >= 1, "block_size must be at least 1");
        let mut block = SequenceBlock::new();
        self.try_scan(&mut |id, seq| {
            block.push(id, seq);
            if block.len() >= block_size {
                block = sink(std::mem::take(&mut block));
                block.clear();
            }
        })?;
        if !block.is_empty() {
            sink(block);
        }
        Ok(())
    }
}

impl<T: SequenceScan + ?Sized> SequenceScan for &T {
    fn num_sequences(&self) -> usize {
        (**self).num_sequences()
    }
    fn scan(&self, visit: &mut dyn FnMut(u64, &[Symbol])) {
        (**self).scan(visit)
    }
    fn try_scan(&self, visit: &mut dyn FnMut(u64, &[Symbol])) -> Result<(), ScanError> {
        (**self).try_scan(visit)
    }
    fn try_scan_from(
        &self,
        skip: u64,
        visit: &mut dyn FnMut(u64, &[Symbol]),
    ) -> Result<(), ScanError> {
        (**self).try_scan_from(skip, visit)
    }
}

/// A plain in-memory sequence collection. The `noisemine-seqdb` crate offers
/// a richer store (ids, disk residency, scan counters); this type exists so
/// the core crate is usable and testable on its own.
#[derive(Debug, Clone, Default)]
pub struct MemorySequences(pub Vec<Vec<Symbol>>);

impl SequenceScan for MemorySequences {
    fn num_sequences(&self) -> usize {
        self.0.len()
    }
    fn scan(&self, visit: &mut dyn FnMut(u64, &[Symbol])) {
        self.0.scan(visit)
    }
}

/// A borrowed run of sequences scans in place, with its positions as ids:
/// a phase-2 sample or a prefix of a log is matched without copying it.
impl SequenceScan for [Vec<Symbol>] {
    fn num_sequences(&self) -> usize {
        self.len()
    }
    fn scan(&self, visit: &mut dyn FnMut(u64, &[Symbol])) {
        for (i, s) in self.iter().enumerate() {
            visit(i as u64, s);
        }
    }
}

/// Match of a pattern in a segment of equal length (Definition 3.5):
/// `M(P, s) = ∏ᵢ C(pᵢ, sᵢ)`, with early abort on a zero factor.
///
/// Returns 0 when the segment is shorter than the pattern.
#[inline]
pub fn segment_match(pattern: &Pattern, segment: &[Symbol], matrix: &CompatibilityMatrix) -> f64 {
    if segment.len() < pattern.len() {
        return 0.0;
    }
    let mut product = 1.0;
    for (elem, &obs) in pattern.elems().iter().zip(segment) {
        match elem {
            PatternElem::Any => {}
            PatternElem::Sym(s) => {
                product *= matrix.get(*s, obs);
                if product == 0.0 {
                    return 0.0;
                }
            }
        }
    }
    product
}

/// Match of a pattern in a sequence (Definition 3.6): the maximum of
/// [`segment_match`] over all `|S| − l + 1` sliding windows (Algorithm 4.2).
///
/// Each window's product is abandoned as soon as it falls to (or below) the
/// best window seen so far — factors never exceed 1, so the product can only
/// shrink. On dense matrices (where the zero-abort of [`segment_match`]
/// never fires) this prunes most windows after a couple of positions.
pub fn sequence_match(pattern: &Pattern, sequence: &[Symbol], matrix: &CompatibilityMatrix) -> f64 {
    let l = pattern.len();
    if sequence.len() < l {
        return 0.0;
    }
    let mut best = 0.0f64;
    for window in sequence.windows(l) {
        let m = segment_match_pruned(pattern, window, matrix, best);
        if m > best {
            best = m;
            if best >= 1.0 {
                break; // cannot improve on a perfect match
            }
        }
    }
    best
}

/// [`segment_match`] that abandons the product once it is `<= floor` (the
/// caller's best-so-far). Returns 0 for abandoned windows, which is safe
/// because the caller only takes the maximum.
#[inline]
fn segment_match_pruned(
    pattern: &Pattern,
    segment: &[Symbol],
    matrix: &CompatibilityMatrix,
    floor: f64,
) -> f64 {
    let mut product = 1.0;
    for (elem, &obs) in pattern.elems().iter().zip(segment) {
        if let PatternElem::Sym(s) = elem {
            product *= matrix.get(*s, obs);
            if product <= floor {
                return 0.0;
            }
        }
    }
    product
}

/// Match of a pattern in a database (Definition 3.7): the average of
/// [`sequence_match`] over every sequence. Performs exactly one scan — the
/// one-pattern reference the batched scans of [`try_db_match_many`] are
/// tested against.
///
/// The average is taken over the sequences the scan *actually* visited, not
/// over the reported [`SequenceScan::num_sequences`] — the two can disagree
/// on a store that is appended to mid-scan, and dividing by a stale report
/// would push the result outside `[0, 1]`.
pub fn db_match<S: SequenceScan + ?Sized>(
    pattern: &Pattern,
    db: &S,
    matrix: &CompatibilityMatrix,
) -> f64 {
    let mut total = 0.0;
    let mut visited = 0usize;
    db.scan(&mut |_, seq| {
        total += sequence_match(pattern, seq, matrix);
        visited += 1;
    });
    if visited == 0 {
        0.0
    } else {
        total / visited as f64
    }
}

/// [`try_db_match_many`] with all available cores, the default
/// [`MatchKernel`] and no index, panicking if the scan fails.
pub fn db_match_many<S: SequenceScan + ?Sized>(
    patterns: &[Pattern],
    db: &S,
    matrix: &CompatibilityMatrix,
) -> Vec<f64> {
    match try_db_match_many(patterns, db, matrix, 0, MatchKernel::default(), None) {
        Ok(v) => v,
        Err(e) => panic!("database scan failed: {e}"),
    }
}

/// Computes the match of many patterns in one scan of the database — the
/// building block of phase 3, where a memory-budgeted set of counters is
/// evaluated per scan (§4.3). Returns values aligned with `patterns`; a
/// failed scan returns `Err` and no partial values.
///
/// - `threads` is the worker count (`0` = all available cores, or the
///   calling thread alone when the batch × reported size is below
///   [`PARALLEL_THRESHOLD`]). Blocks are the constant [`SCAN_BLOCK_SIZE`]
///   and per-block partial sums reduce in block order, so results are
///   bit-identical at every thread count.
/// - `kernel` picks the match kernel. [`MatchKernel::Trie`] and
///   [`MatchKernel::Simd`] load the batch into one [`CandidateTrie`] shared
///   read-only by every worker, so each sequence window is walked once for
///   the whole batch; every kernel's per-(pattern, sequence) value is
///   bit-identical to [`sequence_match`], so the kernel never changes a
///   result either.
/// - `plan`, a [`SkipPlan`] from a positional symbol index (see
///   [`crate::index`]), limits evaluation to the sequences it marks as
///   candidates. Every skipped sequence's match against every pattern in
///   the batch is exactly `0.0`, so omitting its `+0.0` leaves the sums
///   unchanged, and skipped sequences still count toward the Definition
///   3.7 denominator.
///
/// The average divides by the number of sequences the scan actually
/// visited, which keeps values in `[0, 1]` even when the store
/// under-reports [`SequenceScan::num_sequences`].
pub fn try_db_match_many<S: SequenceScan + ?Sized>(
    patterns: &[Pattern],
    db: &S,
    matrix: &CompatibilityMatrix,
    threads: usize,
    kernel: MatchKernel,
    plan: Option<&SkipPlan>,
) -> Result<Vec<f64>, ScanError> {
    let mut visited = 0usize;
    let mut totals = try_sum_matches(
        patterns,
        db,
        matrix,
        threads,
        kernel,
        plan,
        SCAN_BLOCK_SIZE,
        &mut |block| {
            visited += block.len();
            crate::obs::parallel_scan_blocks().inc();
            crate::obs::scan_sequences().add(block.len() as u64);
        },
    )?;
    if visited > 0 {
        for t in &mut totals {
            *t /= visited as f64;
        }
    }
    Ok(totals)
}

/// Sums each pattern's sequence match over every sequence of `db`, in
/// blocks of `block_size` reduced in block order — the engine behind both
/// the phase-3 probe scans ([`try_db_match_many`]) and the phase-2 sample
/// match. `threads`, `kernel` and `plan` behave as in
/// [`try_db_match_many`]; `inspect` sees each block in scan order before it
/// is evaluated. An empty batch returns at once without scanning.
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_sum_matches<S: SequenceScan + ?Sized>(
    patterns: &[Pattern],
    db: &S,
    matrix: &CompatibilityMatrix,
    threads: usize,
    kernel: MatchKernel,
    plan: Option<&SkipPlan>,
    block_size: usize,
    inspect: &mut dyn FnMut(&SequenceBlock),
) -> Result<Vec<f64>, ScanError> {
    let p = patterns.len();
    let mut totals = vec![0.0f64; p];
    if p == 0 {
        return Ok(totals);
    }
    // With `threads = 0` (auto), skip spawning when the reported work is too
    // small to pay for it; an explicit thread count is honored as given.
    let threads = if threads == 0 && p.saturating_mul(db.num_sequences()) < PARALLEL_THRESHOLD {
        1
    } else {
        resolve_threads(threads)
    };
    let trie = (kernel != MatchKernel::Naive).then(|| {
        crate::obs::kernel_patterns_per_scan().set(p as f64);
        CandidateTrie::new(patterns)
    });
    let partials = try_scan_map_reduce(
        db,
        block_size,
        threads,
        inspect,
        &|| Evaluator::new(kernel, patterns, trie.as_ref()),
        &|eval: &mut Evaluator, block_idx, block| {
            let mut partial = vec![0.0f64; p];
            let mut stats = BlockSkipStats::default();
            for (i, (_, seq)) in block.iter().enumerate() {
                if stats.visit(plan, block_idx * block_size + i) {
                    stats.contributed(eval.add(seq, matrix, &mut partial));
                }
            }
            stats.record();
            partial
        },
    )?;
    for partial in &partials {
        for (t, &v) in totals.iter_mut().zip(partial) {
            *t += v;
        }
    }
    Ok(totals)
}

/// One worker's match evaluator. The [`MatchKernel`] branch is picked once,
/// when the worker starts: the naive per-pattern loop, or the shared
/// [`CandidateTrie`] with this worker's private trie or columnar scratch.
enum Evaluator<'a> {
    Naive(&'a [Pattern]),
    Trie(&'a CandidateTrie, TrieScratch),
    Simd(&'a CandidateTrie, SimdScratch),
}

impl<'a> Evaluator<'a> {
    fn new(kernel: MatchKernel, patterns: &'a [Pattern], trie: Option<&'a CandidateTrie>) -> Self {
        match (kernel, trie) {
            (MatchKernel::Trie, Some(trie)) => Self::Trie(trie, trie.scratch()),
            (MatchKernel::Simd, Some(trie)) => Self::Simd(trie, trie.simd_scratch()),
            _ => Self::Naive(patterns),
        }
    }

    /// Adds each pattern's match in `seq` into `partial`; returns whether
    /// any was non-zero. The trie kernels add only the patterns the
    /// sequence matched — `x += 0.0` never changes the bits of a
    /// non-negative partial, so every kernel accumulates the same bits.
    fn add(&mut self, seq: &[Symbol], matrix: &CompatibilityMatrix, partial: &mut [f64]) -> bool {
        match self {
            Self::Naive(patterns) => {
                let mut nonzero = false;
                for (t, pattern) in partial.iter_mut().zip(*patterns) {
                    let v = sequence_match(pattern, seq, matrix);
                    nonzero |= v != 0.0;
                    *t += v;
                }
                nonzero
            }
            Self::Trie(trie, scratch) => {
                trie.batch_sequence_match_sum(seq, matrix, scratch, partial)
            }
            Self::Simd(trie, scratch) => {
                trie.batch_sequence_match_columnar_sum(seq, matrix, scratch, partial)
            }
        }
    }
}

/// Per-block skip accounting for the indexed scan path: candidates
/// visited, sequences skipped, and candidates whose every match turned out
/// to be zero anyway (index false positives). Counters are flushed once
/// per block to keep the per-sequence path free of atomics.
#[derive(Default)]
struct BlockSkipStats {
    indexed: bool,
    candidates: u64,
    skipped: u64,
    false_positives: u64,
}

impl BlockSkipStats {
    /// Consults the plan for `ordinal`; returns `true` when the sequence
    /// must be evaluated. Without a plan everything is visited and nothing
    /// is counted.
    #[inline]
    fn visit(&mut self, plan: Option<&SkipPlan>, ordinal: usize) -> bool {
        let Some(plan) = plan else { return true };
        self.indexed = true;
        if plan.is_candidate(ordinal) {
            self.candidates += 1;
            true
        } else {
            self.skipped += 1;
            false
        }
    }

    /// Notes whether the just-visited candidate contributed any non-zero
    /// match value.
    #[inline]
    fn contributed(&mut self, nonzero: bool) {
        if self.indexed && !nonzero {
            self.false_positives += 1;
        }
    }

    /// Flushes the block's counts into the index metrics.
    fn record(&self) {
        if self.indexed {
            crate::obs::index_candidates_visited().add(self.candidates);
            crate::obs::index_sequences_skipped().add(self.skipped);
            crate::obs::index_false_positives().add(self.false_positives);
        }
    }
}

/// Exact-occurrence support of a pattern in a sequence: 1 if some window
/// matches the pattern exactly (with `*` matching any symbol), else 0. This
/// is the traditional *support model* the paper compares against.
pub fn sequence_support(pattern: &Pattern, sequence: &[Symbol]) -> f64 {
    let l = pattern.len();
    if sequence.len() < l {
        return 0.0;
    }
    let hit = sequence.windows(l).any(|w| {
        pattern.elems().iter().zip(w).all(|(e, &obs)| match e {
            PatternElem::Any => true,
            PatternElem::Sym(s) => *s == obs,
        })
    });
    if hit {
        1.0
    } else {
        0.0
    }
}

/// Support of a pattern in a database: the fraction of sequences containing
/// an exact occurrence. Averaged over the sequences actually visited, like
/// [`db_match`].
pub fn db_support<S: SequenceScan + ?Sized>(pattern: &Pattern, db: &S) -> f64 {
    let mut total = 0.0;
    let mut visited = 0usize;
    db.scan(&mut |_, seq| {
        total += sequence_support(pattern, seq);
        visited += 1;
    });
    if visited == 0 {
        0.0
    } else {
        total / visited as f64
    }
}

/// A significance metric on `(pattern, sequence)` pairs, averaged over the
/// database by level-wise engines. The two models of the paper — *match*
/// and *support* — both implement this trait, which lets every miner run
/// under either model (the paper notes any support-model algorithm
/// generalizes to match).
pub trait PatternMetric {
    /// The metric value of `pattern` in one sequence, in `[0, 1]`.
    fn sequence_value(&self, pattern: &Pattern, sequence: &[Symbol]) -> f64;

    /// The per-symbol values in one sequence — used by Algorithm 4.1 to
    /// obtain the restricted spread. Default: evaluate each symbol as a
    /// 1-pattern.
    fn symbol_values(&self, sequence: &[Symbol], m: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), m);
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.sequence_value(&Pattern::single(Symbol(i as u16)), sequence);
        }
    }

    /// Short human-readable name ("match" / "support").
    fn name(&self) -> &'static str;
}

/// The paper's match model, parameterized by a compatibility matrix.
#[derive(Debug, Clone)]
pub struct MatchMetric<'a> {
    /// The compatibility matrix defining symbol compatibilities.
    pub matrix: &'a CompatibilityMatrix,
}

impl PatternMetric for MatchMetric<'_> {
    fn sequence_value(&self, pattern: &Pattern, sequence: &[Symbol]) -> f64 {
        sequence_match(pattern, sequence, self.matrix)
    }

    fn symbol_values(&self, sequence: &[Symbol], m: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), m);
        out.fill(0.0);
        symbol_sequence_match_into(sequence, self.matrix, out);
    }

    fn name(&self) -> &'static str {
        "match"
    }
}

/// The traditional exact-occurrence support model.
#[derive(Debug, Clone, Copy, Default)]
pub struct SupportMetric;

impl PatternMetric for SupportMetric {
    fn sequence_value(&self, pattern: &Pattern, sequence: &[Symbol]) -> f64 {
        sequence_support(pattern, sequence)
    }

    fn symbol_values(&self, sequence: &[Symbol], m: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), m);
        out.fill(0.0);
        for &s in sequence {
            if s.index() < m {
                out[s.index()] = 1.0;
            }
        }
    }

    fn name(&self) -> &'static str {
        "support"
    }
}

/// Fills `max_match[d] = max over positions x of C(d, x)` for one sequence —
/// the inner loop of Algorithm 4.1, using the first-occurrence optimization
/// of §4.1: only the first occurrence of each distinct observed symbol can
/// change any maximum, so work is `O(l̄ + (#distinct)·nnz_col)` rather than
/// `O(l̄ · m)`.
///
/// `out` must be zero-filled (or hold a lower bound) on entry and have
/// length `m`.
pub fn symbol_sequence_match_into(
    sequence: &[Symbol],
    matrix: &CompatibilityMatrix,
    out: &mut [f64],
) {
    let m = matrix.len();
    debug_assert_eq!(out.len(), m);
    // Seen flags, small enough to allocate per call for clarity; callers on
    // the hot path use `SymbolMatchScratch` to reuse the buffer.
    let mut seen = vec![false; m];
    for &obs in sequence {
        let j = obs.index();
        assert!(
            j < m,
            "sequence symbol d{} lies outside the {m}-symbol compatibility matrix \
             (alphabet/matrix mismatch)",
            obs.0
        );
        if seen[j] {
            continue;
        }
        seen[j] = true;
        for &(true_sym, v) in matrix.column(obs) {
            let slot = &mut out[true_sym.index()];
            if v > *slot {
                *slot = v;
            }
        }
    }
}

/// The unoptimized variant of [`symbol_sequence_match_into`], processing
/// every position (`O(l̄·m)` worst case). Retained for the ablation
/// benchmark of §4.1's complexity claim; results are identical.
pub fn symbol_sequence_match_naive_into(
    sequence: &[Symbol],
    matrix: &CompatibilityMatrix,
    out: &mut [f64],
) {
    debug_assert_eq!(out.len(), matrix.len());
    for &obs in sequence {
        for &(true_sym, v) in matrix.column(obs) {
            let slot = &mut out[true_sym.index()];
            if v > *slot {
                *slot = v;
            }
        }
    }
}

/// Reusable scratch buffers for the per-symbol match scan.
#[derive(Debug, Clone)]
pub struct SymbolMatchScratch {
    max_match: Vec<f64>,
    seen: Vec<bool>,
    touched: Vec<u16>,
}

impl SymbolMatchScratch {
    /// Creates scratch space for an `m`-symbol alphabet.
    pub fn new(m: usize) -> Self {
        Self {
            max_match: vec![0.0; m],
            seen: vec![false; m],
            touched: Vec::with_capacity(m.min(1024)),
        }
    }

    /// Computes `max_match` for one sequence, reusing buffers; returns the
    /// slice of per-symbol maxima.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message if the sequence contains a symbol
    /// id outside the matrix's alphabet — the mining entry points all pass
    /// through this scan first, so an alphabet/matrix mismatch is caught
    /// here, up front, instead of surfacing as a raw index error (dense
    /// storage) or silent zero matches (sparse storage) deep in phase 2.
    pub fn sequence(&mut self, sequence: &[Symbol], matrix: &CompatibilityMatrix) -> &[f64] {
        let m = matrix.len();
        // Reset only what the previous call touched.
        for &j in &self.touched {
            self.seen[j as usize] = false;
        }
        self.touched.clear();
        self.max_match.fill(0.0);
        for &obs in sequence {
            let j = obs.index();
            assert!(
                j < m,
                "sequence symbol d{} lies outside the {m}-symbol compatibility matrix \
                 (alphabet/matrix mismatch)",
                obs.0
            );
            if self.seen[j] {
                continue;
            }
            self.seen[j] = true;
            self.touched.push(obs.0);
            for &(true_sym, v) in matrix.column(obs) {
                let slot = &mut self.max_match[true_sym.index()];
                if v > *slot {
                    *slot = v;
                }
            }
        }
        &self.max_match
    }
}

/// Match of every individual symbol across the whole database — the output
/// of Algorithm 4.1 (sampling is layered on top by the miner). One scan,
/// averaged over the sequences actually visited, like [`db_match`].
pub fn symbol_db_match<S: SequenceScan + ?Sized>(db: &S, matrix: &CompatibilityMatrix) -> Vec<f64> {
    let m = matrix.len();
    let mut match_acc = vec![0.0f64; m];
    let mut scratch = SymbolMatchScratch::new(m);
    let mut visited = 0usize;
    db.scan(&mut |_, seq| {
        let per_seq = scratch.sequence(seq, matrix);
        for (acc, &v) in match_acc.iter_mut().zip(per_seq) {
            *acc += v;
        }
        visited += 1;
    });
    if visited > 0 {
        for v in &mut match_acc {
            *v /= visited as f64;
        }
    }
    match_acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::error::ScanErrorKind;

    fn fig2() -> CompatibilityMatrix {
        CompatibilityMatrix::paper_figure2()
    }

    fn pat(text: &str) -> Pattern {
        Pattern::parse(text, &Alphabet::synthetic(6)).unwrap()
    }

    fn seq(text: &str) -> Vec<Symbol> {
        Alphabet::synthetic(6).encode(text).unwrap()
    }

    /// The paper's Figure 4(a) database, re-indexed to d0..d4.
    fn fig4_db() -> MemorySequences {
        MemorySequences(vec![
            seq("d0 d1 d2 d0"),
            seq("d3 d1 d0"),
            seq("d2 d3 d1 d0"),
            seq("d1 d1"),
        ])
    }

    /// Re-indexes the paper's 1-based symbol names (d1..d5) to 0-based.
    fn p(text: &str) -> Pattern {
        let shifted: String = text
            .split_whitespace()
            .map(|tok| {
                if tok == "*" {
                    "*".to_string()
                } else {
                    let n: u16 = tok[1..].parse().unwrap();
                    format!("d{}", n - 1)
                }
            })
            .collect::<Vec<_>>()
            .join(" ");
        pat(&shifted)
    }

    #[test]
    fn segment_match_paper_example() {
        // M(d1*d2, d1 d2 d2) = 0.9 * 1 * 0.8 = 0.72
        let m = segment_match(&p("d1 * d2"), &seq("d0 d1 d1"), &fig2());
        assert!((m - 0.72).abs() < 1e-12);
        // M(d1 d2 d5, d1 d2 d2) = 0 because C(d5, d2) = 0
        let z = segment_match(&p("d1 d2 d5"), &seq("d0 d1 d1"), &fig2());
        assert_eq!(z, 0.0);
    }

    #[test]
    fn sequence_match_paper_example() {
        // M(d1 d2, d1 d2 d2 d3 d4 d1) = max{0.72, 0.08, 0.005, 0, 0} = 0.72
        let m = sequence_match(&p("d1 d2"), &seq("d0 d1 d1 d2 d3 d0"), &fig2());
        assert!((m - 0.72).abs() < 1e-12);
    }

    #[test]
    fn sequence_shorter_than_pattern_is_zero() {
        assert_eq!(sequence_match(&p("d1 d2 d3"), &seq("d0 d1"), &fig2()), 0.0);
    }

    #[test]
    fn db_match_of_symbols_matches_figure4b() {
        // Figure 4(b)/5(b). The paper's own two tables disagree for d1 and
        // d3 (4(b) prints 0.538/0.4, but 5(b)'s running sums give per-
        // sequence contributions of 0.9 each for d1, i.e. 0.7, and the d3
        // column cannot increase on "d2 d2" since C(d3, d2) = 0). We lock
        // in the values implied by Definition 3.7 + Figure 2; d2/d4/d5 agree
        // with Figure 5(b) exactly.
        let db = fig4_db();
        let c = fig2();
        let vals = symbol_db_match(&db, &c);
        assert!((vals[0] - 0.7).abs() < 1e-9, "d1: {}", vals[0]);
        assert!((vals[1] - 0.8).abs() < 1e-9, "d2: {}", vals[1]);
        assert!((vals[2] - 0.3875).abs() < 1e-9, "d3: {}", vals[2]);
        assert!((vals[3] - 0.425).abs() < 1e-9, "d4: {}", vals[3]);
        assert!((vals[4] - 0.075).abs() < 1e-9, "d5: {}", vals[4]);
        // Cross-check against the generic path.
        for (i, &v) in vals.iter().enumerate() {
            let direct = db_match(&Pattern::single(Symbol(i as u16)), &db, &c);
            assert!((v - direct).abs() < 1e-12);
        }
    }

    #[test]
    fn db_match_of_pairs_matches_figure4c() {
        let db = fig4_db();
        let c = fig2();
        let cases = [
            ("d1 d1", 0.070),
            ("d1 d2", 0.203),
            ("d2 d1", 0.391),
            // Figure 4(c) prints 0.200 for d2d2, but the per-sequence maxima
            // under Figure 2 are 0.04, 0.08, 0.08, 0.64 -> 0.21 (paper
            // erratum; segments "d4 d2" give C(d2,d4)*C(d2,d2) = 0.08).
            ("d2 d2", 0.210),
            ("d3 d4", 0.136),
            ("d4 d2", 0.321),
            ("d3 d5", 0.0),
            ("d5 d5", 0.0),
        ];
        for (text, expect) in cases {
            let got = db_match(&p(text), &db, &c);
            // The paper's table rounds to three decimals (e.g. 0.2025 is
            // printed as 0.203), so allow half an ulp of that rounding.
            assert!(
                (got - expect).abs() <= 5e-4 + 1e-12,
                "match of {text}: got {got}, paper says {expect}"
            );
        }
    }

    #[test]
    fn chain_of_patterns_matches_paper_narrative() {
        // §3: matches of d3, d3d2, d3d2d2, d3d2d2d1 are quoted as 0.4, 0.07,
        // 0.016, 0.00522 while their supports are 0.5, 0, 0, 0. The first
        // and last match values are paper errata: Definition 3.7 with
        // Figure 2 gives 0.3875 (the paper's own Figure 5(b) running sum
        // reaches 0.388) and 0.01305 (the per-sequence maxima sum to
        // 0.0522 = 0.0018 + 0.0504; the quoted 0.00522 is that sum with a
        // slipped decimal instead of the /4 average).
        let db = fig4_db();
        let c = fig2();
        let chain = [
            ("d3", 0.3875, 0.5),
            ("d3 d2", 0.07, 0.0),
            ("d3 d2 d2", 0.016, 0.0),
            ("d3 d2 d2 d1", 0.01305, 0.0),
        ];
        for (text, match_expect, support_expect) in chain {
            let pattern = p(text);
            let m = db_match(&pattern, &db, &c);
            let s = db_support(&pattern, &db);
            assert!(
                (m - match_expect).abs() < 5e-4,
                "match of {text}: got {m}, expected {match_expect}"
            );
            assert!((s - support_expect).abs() < 1e-12);
        }
    }

    #[test]
    fn figure4d_redistribution_sums_to_one() {
        // The match contributed by an observed segment "d2 d2" to all 2-patterns
        // over {d1..d5} (contiguous) sums to 1 (Figure 4(d)).
        let c = fig2();
        let obs = seq("d1 d1");
        let mut total = 0.0;
        for a in 0..5u16 {
            for b in 0..5u16 {
                let pattern = Pattern::contiguous(&[Symbol(a), Symbol(b)]).unwrap();
                total += segment_match(&pattern, &obs, &c);
            }
        }
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
        // Spot values from Figure 4(d).
        assert!((segment_match(&p("d2 d2"), &obs, &c) - 0.64).abs() < 1e-12);
        assert!((segment_match(&p("d2 d1"), &obs, &c) - 0.08).abs() < 1e-12);
        assert!((segment_match(&p("d1 d4"), &obs, &c) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn identity_matrix_match_equals_support() {
        let id = CompatibilityMatrix::identity(6);
        let db = fig4_db();
        for text in ["d1 d2", "d2 d1", "d3 * d1", "d4 d2 d1", "d2 d2"] {
            let pattern = p(text);
            let m = db_match(&pattern, &db, &id);
            let s = db_support(&pattern, &db);
            assert!(
                (m - s).abs() < 1e-12,
                "identity-matrix match {m} != support {s} for {text}"
            );
        }
    }

    #[test]
    fn eternal_positions_do_not_reduce_match() {
        let c = fig2();
        let s = seq("d0 d3 d1");
        let gapped = p("d1 * d2");
        let tight = p("d1 d2");
        assert!(sequence_match(&gapped, &s, &c) >= sequence_match(&tight, &s, &c));
    }

    #[test]
    fn db_match_many_agrees_with_single() {
        let db = fig4_db();
        let c = fig2();
        let patterns = vec![p("d1 d2"), p("d2 d1"), p("d3 d4"), p("d5 d5")];
        let many = db_match_many(&patterns, &db, &c);
        for (pattern, &v) in patterns.iter().zip(&many) {
            assert!((v - db_match(pattern, &db, &c)).abs() < 1e-12);
        }
    }

    #[test]
    fn naive_and_optimized_symbol_match_agree() {
        let c = fig2();
        let s = seq("d0 d1 d2 d0 d4 d3 d3 d1");
        let mut a = vec![0.0; 5];
        let mut b = vec![0.0; 5];
        symbol_sequence_match_into(&s, &c, &mut a);
        symbol_sequence_match_naive_into(&s, &c, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn figure5a_max_match_trace() {
        // After scanning "d1 d2 d3 d1" the per-symbol maxima are
        // 0.9, 0.8, 0.7, 0.1, 0.15 (Figure 5(a), final column).
        let c = fig2();
        let mut out = vec![0.0; 5];
        symbol_sequence_match_into(&seq("d0 d1 d2 d0"), &c, &mut out);
        let expect = [0.9, 0.8, 0.7, 0.1, 0.15];
        for (got, want) in out.iter().zip(expect) {
            assert!((got - want).abs() < 1e-12, "{out:?}");
        }
    }

    #[test]
    fn support_metric_symbol_values() {
        let sup = SupportMetric;
        let mut out = vec![0.0; 6];
        sup.symbol_values(&seq("d0 d2 d2"), 6, &mut out);
        assert_eq!(out, vec![1.0, 0.0, 1.0, 0.0, 0.0, 0.0]);
    }

    /// A database that reports fewer sequences than its scan yields — the
    /// shape of a store that is appended to between `num_sequences()` and
    /// the scan (or during it).
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

    /// A store whose scan fails after visiting its first `fail_after`
    /// sequences, the way a disk scan stops at a damaged record.
    struct FailingDb {
        inner: MemorySequences,
        fail_after: usize,
    }

    impl SequenceScan for FailingDb {
        fn num_sequences(&self) -> usize {
            self.inner.num_sequences()
        }
        fn scan(&self, _: &mut dyn FnMut(u64, &[Symbol])) {
            unreachable!("only the fallible scan is exercised")
        }
        fn try_scan(&self, visit: &mut dyn FnMut(u64, &[Symbol])) -> Result<(), ScanError> {
            for (i, s) in self.inner.0.iter().take(self.fail_after).enumerate() {
                visit(i as u64, s);
            }
            Err(ScanError::new(ScanErrorKind::Io, "disk on fire"))
        }
    }

    /// Block sizes and ids a `try_scan_blocks` pass hands to its sink.
    fn blocks_of(
        db: &dyn SequenceScan,
        block_size: usize,
    ) -> (Vec<usize>, Vec<u64>, Result<(), ScanError>) {
        let mut sizes = Vec::new();
        let mut ids = Vec::new();
        let result = db.try_scan_blocks(block_size, &mut |block| {
            sizes.push(block.len());
            for (id, seq) in block.iter() {
                ids.push(id);
                assert_eq!(seq[0], Symbol((id % 6) as u16));
            }
            block
        });
        (sizes, ids, result)
    }

    #[test]
    fn scan_blocks_default_impl_preserves_order_and_sizes() {
        let seqs = |n: u16| MemorySequences((0..n).map(|i| vec![Symbol(i % 6); 3]).collect());
        // Full blocks plus a short tail block.
        let (sizes, ids, result) = blocks_of(&seqs(10), 4);
        result.unwrap();
        assert_eq!(sizes, vec![4, 4, 2]);
        assert_eq!(ids, (0..10u64).collect::<Vec<_>>());
        // A tail of one sequence, and no blocks at all for an empty store.
        let (sizes, _, result) = blocks_of(&seqs(7), 3);
        result.unwrap();
        assert_eq!(sizes, vec![3, 3, 1]);
        let (sizes, _, result) = blocks_of(&seqs(0), 8);
        result.unwrap();
        assert!(sizes.is_empty());
        // A fault after two full blocks: both reach the sink before the
        // `Err`, and the partial block at the fault is dropped.
        let failing = FailingDb {
            inner: seqs(10),
            fail_after: 5,
        };
        let (sizes, ids, result) = blocks_of(&failing, 2);
        let err = result.unwrap_err();
        assert_eq!(err.message(), "disk on fire");
        assert_eq!(sizes, vec![2, 2]);
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn scan_blocks_recycles_returned_blocks() {
        let db = MemorySequences((0..9u16).map(|i| vec![Symbol(i % 6)]).collect());
        let mut seen = 0usize;
        db.try_scan_blocks(2, &mut |block| {
            seen += block.len();
            // Hand back the same (uncleaned) block: the scan must clear it
            // before refilling, so no sequence is ever observed twice.
            block
        })
        .unwrap();
        assert_eq!(seen, 9);
    }

    #[test]
    fn averages_use_visited_count_not_reported_count() {
        let db = UnderReportingDb {
            inner: fig4_db(),
            reported: 2, // actual: 4
        };
        let c = fig2();
        let pattern = p("d2 d1");
        let truth = db_match(&pattern, &db.inner, &c);
        assert!((db_match(&pattern, &db, &c) - truth).abs() < 1e-15);
        assert!((db_support(&pattern, &db) - db_support(&pattern, &db.inner)).abs() < 1e-15);
        let many = db_match_many(std::slice::from_ref(&pattern), &db, &c);
        assert!((many[0] - truth).abs() < 1e-15);
        for (got, want) in symbol_db_match(&db, &c)
            .iter()
            .zip(symbol_db_match(&db.inner, &c))
        {
            assert!((got - want).abs() < 1e-15);
            assert!((0.0..=1.0).contains(got));
        }
    }

    #[test]
    fn empty_scan_yields_zero_not_nan() {
        let db = MemorySequences(Vec::new());
        let c = fig2();
        let pattern = p("d1 d2");
        assert_eq!(db_match(&pattern, &db, &c), 0.0);
        assert_eq!(db_support(&pattern, &db), 0.0);
        assert_eq!(db_match_many(&[pattern], &db, &c), vec![0.0]);
        assert!(symbol_db_match(&db, &c).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn db_match_many_is_bit_identical_across_thread_counts() {
        let db = MemorySequences(
            (0..700u16)
                .map(|i| (0..12).map(|j| Symbol((i + j) % 5)).collect())
                .collect(),
        );
        let c = fig2();
        let patterns = vec![p("d1 d2"), p("d2 d1"), p("d3 d4"), p("d2 * d1")];
        let run = |threads| {
            try_db_match_many(&patterns, &db, &c, threads, MatchKernel::default(), None).unwrap()
        };
        let serial = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(serial, run(threads), "threads = {threads}");
        }
    }

    #[test]
    fn scratch_reuse_is_correct_across_sequences() {
        let c = fig2();
        let mut scratch = SymbolMatchScratch::new(5);
        let s1 = seq("d0 d1");
        let s2 = seq("d4");
        let first = scratch.sequence(&s1, &c).to_vec();
        let mut expect1 = vec![0.0; 5];
        symbol_sequence_match_into(&s1, &c, &mut expect1);
        assert_eq!(first, expect1);
        let second = scratch.sequence(&s2, &c).to_vec();
        let mut expect2 = vec![0.0; 5];
        symbol_sequence_match_into(&s2, &c, &mut expect2);
        assert_eq!(second, expect2);
    }
}

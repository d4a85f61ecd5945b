//! Positional symbol index for skip-scans.
//!
//! No production path builds an index: the miner, the CLI and the stream
//! and serve engines always scan every sequence. The index stays as a
//! library building block — [`crate::border_collapse::try_collapse_with_known_kernel_indexed`]
//! and [`crate::matching::try_db_match_many`] accept one — so a caller
//! that has an index can measure what it would skip. DESIGN.md's rejected
//! optimizations record why the miner does not build one.
//!
//! Phase 1 and every phase-3 border probe stream the whole database, yet
//! most sequences cannot contribute a non-zero match to a given pattern:
//! [`crate::matching::sequence_match`] is *exactly* `0.0` whenever the
//! sequence is shorter than the pattern or some concrete pattern symbol
//! `p` has no observed symbol `x` in the sequence with `C(p, x) > 0`
//! (every window product contains a zero factor). A [`SymbolIndex`]
//! records, per observed symbol, which sequences contain it; a
//! [`SkipPlan`] intersects those postings through the compatibility
//! matrix's non-zero structure to find the only sequences a probe batch
//! needs to visit.
//!
//! ## Exactness
//!
//! Skipping is sound because it is *bitwise invisible*: a skipped
//! sequence's contribution to every pattern in the batch is the literal
//! `+0.0`, and `x + 0.0 == x` bit-for-bit for every non-negative `x`
//! (block partials start at `+0.0` and accumulate non-negative match
//! values, so `-0.0` never arises). The Definition 3.7 denominator is
//! untouched: visited-sequence accounting happens in the scan pipeline's
//! in-order `inspect` hook, which sees every block whether or not the map
//! stage skips its sequences. The unindexed path is kept as the oracle in
//! `tests/property_index.rs`.
//!
//! ## Append safety
//!
//! [`SequenceScan::num_sequences`] is a report, not a promise — a scan may
//! deliver more sequences than the index covers (a concurrent append).
//! Ordinals beyond the index's coverage are always treated as candidates,
//! so an index can only ever *reduce* work, never change results.
//!
//! [`SequenceScan::num_sequences`]: crate::matching::SequenceScan::num_sequences

use crate::alphabet::Symbol;
use crate::matrix::CompatibilityMatrix;
use crate::pattern::Pattern;

/// Incremental construction of a [`SymbolIndex`] from an in-order scan:
/// feed each sequence as it streams by (ordinal = arrival order), then
/// [`SymbolIndexBuilder::finish`].
#[derive(Debug)]
pub struct SymbolIndexBuilder {
    alphabet_size: usize,
    lens: Vec<u32>,
    /// Per observed symbol, the ascending ordinals of sequences containing
    /// it (deduplicated — at most one entry per sequence).
    postings: Vec<Vec<u32>>,
}

impl SymbolIndexBuilder {
    /// A builder for an alphabet of `alphabet_size` observed symbols.
    pub fn new(alphabet_size: usize) -> Self {
        Self {
            alphabet_size,
            lens: Vec::new(),
            postings: vec![Vec::new(); alphabet_size],
        }
    }

    /// Records the next sequence in scan order. Symbols outside the
    /// alphabet are ignored (they can never appear in a compatibility
    /// row, so no pattern probe consults them).
    pub fn add_sequence(&mut self, seq: &[Symbol]) {
        let ordinal = self.lens.len() as u32;
        self.lens.push(seq.len().min(u32::MAX as usize) as u32);
        for s in seq {
            if let Some(row) = self.postings.get_mut(s.index()) {
                if row.last() != Some(&ordinal) {
                    row.push(ordinal);
                }
            }
        }
    }

    /// Number of sequences recorded so far.
    pub fn len(&self) -> usize {
        self.lens.len()
    }

    /// `true` before the first sequence is recorded.
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// Freezes the builder into a queryable index.
    pub fn finish(self) -> SymbolIndex {
        let num_sequences = self.lens.len();
        let words = num_sequences.div_ceil(64);
        let mut present = vec![0u64; self.alphabet_size * words];
        for (sym, row) in self.postings.iter().enumerate() {
            for &ordinal in row {
                present[sym * words + ordinal as usize / 64] |= 1u64 << (ordinal % 64);
            }
        }
        SymbolIndex {
            alphabet_size: self.alphabet_size,
            num_sequences,
            words,
            lens: self.lens,
            present,
        }
    }
}

/// A positional symbol index: per observed symbol, a bitset over sequence
/// ordinals recording which sequences contain that symbol, plus each
/// sequence's length. Built in one pass (see [`SymbolIndexBuilder`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolIndex {
    alphabet_size: usize,
    num_sequences: usize,
    /// `u64` words per presence row: `ceil(num_sequences / 64)`.
    words: usize,
    /// Sequence lengths by ordinal.
    lens: Vec<u32>,
    /// Concatenated presence rows, `alphabet_size * words` words: bit
    /// `present[s * words + o / 64] >> (o % 64)` is set iff sequence `o`
    /// contains symbol `s`.
    present: Vec<u64>,
}

impl SymbolIndex {
    /// Number of sequences the index covers.
    pub fn num_sequences(&self) -> usize {
        self.num_sequences
    }

    /// The presence bitset row of `sym`, or `None` outside the alphabet.
    fn presence_row(&self, sym: Symbol) -> Option<&[u64]> {
        let s = sym.index();
        if s >= self.alphabet_size {
            return None;
        }
        Some(&self.present[s * self.words..(s + 1) * self.words])
    }
}

/// The candidate set for one probe batch: a bitset over sequence ordinals
/// marking every sequence that *might* contribute a non-zero match to at
/// least one pattern in the batch. Built per batch by
/// [`SkipPlan::build`]; consulted per sequence via
/// [`SkipPlan::is_candidate`].
#[derive(Debug, Clone)]
pub struct SkipPlan {
    /// Union over the batch of per-pattern candidate bitsets.
    words: Vec<u64>,
    num_sequences: usize,
    candidates: usize,
}

impl SkipPlan {
    /// Computes the candidate set of `patterns` against `index` under
    /// `matrix`. A sequence is a candidate for a pattern iff it is at
    /// least as long as the pattern and, for every concrete pattern
    /// symbol `p`, contains some observed symbol `x` with `C(p, x) > 0`
    /// (the non-zeros of `matrix.row(p)`). Everything else provably
    /// matches the pattern with exactly `0.0` and can be skipped.
    pub fn build(index: &SymbolIndex, patterns: &[Pattern], matrix: &CompatibilityMatrix) -> Self {
        let words = index.words;
        let n = index.num_sequences;
        let mut union = vec![0u64; words];
        let mut acc = vec![0u64; words];
        let mut compat = vec![0u64; words];
        let mut seen_syms: Vec<Symbol> = Vec::new();
        for pattern in patterns {
            // Start from all-ones (trimmed to `n` bits), then AND in one
            // presence union per distinct concrete symbol.
            acc.fill(!0u64);
            if words > 0 && n % 64 != 0 {
                acc[words - 1] = (1u64 << (n % 64)) - 1;
            }
            seen_syms.clear();
            for sym in pattern.symbols() {
                if seen_syms.contains(&sym) {
                    continue;
                }
                seen_syms.push(sym);
                compat.fill(0);
                for &(observed, _) in matrix.row(sym) {
                    if let Some(row) = index.presence_row(observed) {
                        for (w, &word) in row.iter().enumerate() {
                            compat[w] |= word;
                        }
                    }
                }
                for (a, &c) in acc.iter_mut().zip(&compat) {
                    *a &= c;
                }
            }
            // Length filter: a sequence shorter than the pattern has no
            // window at all (Definition 3.6), so its match is exactly 0.
            let min_len = pattern.len() as u32;
            for (w, word) in acc.iter_mut().enumerate() {
                let mut bits = *word;
                while bits != 0 {
                    let b = bits.trailing_zeros();
                    let ordinal = w * 64 + b as usize;
                    if index.lens[ordinal] < min_len {
                        *word &= !(1u64 << b);
                    }
                    bits &= bits - 1;
                }
            }
            for (u, &a) in union.iter_mut().zip(&acc) {
                *u |= a;
            }
        }
        let candidates = union.iter().map(|w| w.count_ones() as usize).sum();
        Self {
            words: union,
            num_sequences: n,
            candidates,
        }
    }

    /// `true` when the sequence at `ordinal` must be visited. Ordinals
    /// beyond the index's coverage (appended after the build) are always
    /// candidates.
    #[inline]
    pub fn is_candidate(&self, ordinal: usize) -> bool {
        if ordinal >= self.num_sequences {
            return true;
        }
        self.words[ordinal / 64] >> (ordinal % 64) & 1 != 0
    }

    /// Number of candidate sequences within the index's coverage.
    pub fn candidates(&self) -> usize {
        self.candidates
    }

    /// Number of sequences the underlying index covers.
    pub fn num_sequences(&self) -> usize {
        self.num_sequences
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::sequence_match;
    use crate::pattern::PatternElem;

    fn syms(v: &[u16]) -> Vec<Symbol> {
        v.iter().map(|&x| Symbol(x)).collect()
    }

    fn pattern(elems: &[Option<u16>]) -> Pattern {
        Pattern::new(
            elems
                .iter()
                .map(|e| match e {
                    Some(s) => PatternElem::Sym(Symbol(*s)),
                    None => PatternElem::Any,
                })
                .collect(),
        )
        .expect("valid pattern")
    }

    fn build_index(seqs: &[Vec<Symbol>], m: usize) -> SymbolIndex {
        let mut b = SymbolIndexBuilder::new(m);
        for s in seqs {
            b.add_sequence(s);
        }
        b.finish()
    }

    #[test]
    fn builder_records_presence_and_lengths() {
        let idx = build_index(&[syms(&[1, 1, 2]), syms(&[2]), syms(&[1, 2, 1])], 4);
        assert_eq!(idx.num_sequences(), 3);
        assert_eq!(idx.presence_row(Symbol(1)), Some(&[0b101u64][..]));
        assert_eq!(idx.presence_row(Symbol(2)), Some(&[0b111u64][..]));
        assert_eq!(idx.presence_row(Symbol(0)), Some(&[0u64][..]));
        assert_eq!(idx.presence_row(Symbol(9)), None);
        assert_eq!(idx.lens, vec![3, 1, 3]);
    }

    #[test]
    fn plan_skips_only_provably_zero_sequences() {
        // Identity matrix: a sequence is a candidate iff it contains every
        // concrete pattern symbol and is long enough.
        let m = 4;
        let seqs = vec![
            syms(&[0, 1, 2]),    // has 0 and 1
            syms(&[2, 3]),       // lacks 0
            syms(&[1, 0]),       // has both, length 2
            syms(&[0, 3, 1, 2]), // has both
            syms(&[0]),          // lacks 1
        ];
        let idx = build_index(&seqs, m);
        let matrix = CompatibilityMatrix::identity(m);
        let p = pattern(&[Some(0), None, Some(1)]); // length 3
        let plan = SkipPlan::build(&idx, std::slice::from_ref(&p), &matrix);
        // The plan may only over-approximate the true non-zero set: every
        // sequence with a positive match is a candidate...
        for (o, s) in seqs.iter().enumerate() {
            if sequence_match(&p, s, &matrix) > 0.0 {
                assert!(plan.is_candidate(o), "ordinal {o} wrongly skipped");
            }
        }
        // ...and the symbol + length test skips exactly ordinals 1 (no
        // symbol 0), 2 (too short), and 4 (no symbol 1). Ordinal 0 is a
        // false positive — it has both symbols but not at compatible
        // positions — which the scan resolves, not the plan.
        for (o, want) in [true, false, false, true, false].into_iter().enumerate() {
            assert_eq!(plan.is_candidate(o), want, "ordinal {o}");
        }
        assert_eq!(plan.candidates(), 2);
        // Soundness on every skipped sequence: the match is exactly zero.
        for (o, s) in seqs.iter().enumerate() {
            if !plan.is_candidate(o) {
                assert_eq!(sequence_match(&p, s, &matrix).to_bits(), 0.0f64.to_bits());
            }
        }
    }

    #[test]
    fn plan_unions_over_the_batch() {
        let m = 3;
        let seqs = vec![syms(&[0, 0]), syms(&[1, 1]), syms(&[2, 2])];
        let idx = build_index(&seqs, m);
        let matrix = CompatibilityMatrix::identity(m);
        let batch = [pattern(&[Some(0), Some(0)]), pattern(&[Some(2), Some(2)])];
        let plan = SkipPlan::build(&idx, &batch, &matrix);
        assert!(plan.is_candidate(0));
        assert!(!plan.is_candidate(1));
        assert!(plan.is_candidate(2));
    }

    #[test]
    fn noisy_matrix_widens_the_candidate_set() {
        // Under a noisy matrix, symbol 0 is compatible with every
        // observation, so no sequence can be skipped on symbol grounds.
        let m = 3;
        let seqs = vec![syms(&[1, 1]), syms(&[2])];
        let idx = build_index(&seqs, m);
        let matrix = CompatibilityMatrix::uniform_noise(m, 0.3).unwrap();
        let plan = SkipPlan::build(&idx, &[pattern(&[Some(0), Some(0)])], &matrix);
        assert!(plan.is_candidate(0));
        assert!(!plan.is_candidate(1), "length filter still applies");
    }

    #[test]
    fn ordinals_beyond_coverage_are_candidates() {
        let idx = build_index(&[syms(&[0])], 2);
        let matrix = CompatibilityMatrix::identity(2);
        let plan = SkipPlan::build(&idx, &[pattern(&[Some(1)])], &matrix);
        assert!(!plan.is_candidate(0));
        assert!(plan.is_candidate(1), "appended sequences must be visited");
        assert!(plan.is_candidate(500));
    }

    #[test]
    fn empty_batch_and_empty_index() {
        let idx = build_index(&[], 2);
        let matrix = CompatibilityMatrix::identity(2);
        let plan = SkipPlan::build(&idx, &[], &matrix);
        assert_eq!(plan.candidates(), 0);
        assert!(plan.is_candidate(0), "beyond coverage");
    }
}

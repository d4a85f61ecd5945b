//! Depth-first, projection-based in-memory mining.
//!
//! Section 2.2 of the paper observes that depth-first, projection-based
//! miners (FreeSpan, SPADE, the DepthProject family) "generally perform
//! better than breadth-first ones if the data is memory-resident, and the
//! advantage becomes more substantial when the pattern is long" — but sets
//! them aside because its target data is disk-resident. This module
//! implements that alternative for the match model, so the trade-off can
//! be measured rather than assumed (see the depth-first row of the
//! `ablations` binary in `noisemine-bench`).
//!
//! The key idea adapts prefix-projection to the match metric: for the
//! current pattern `P`, keep the **occurrence list** — every window start
//! `(sequence, start, product)` with a positive partial product
//! `∏ᵢ C(pᵢ, s[start+i])`. Extending `P` on the right with `gap` eternal
//! symbols and a concrete symbol `d` just multiplies each surviving
//! occurrence by `C(d, s[start + |P| + gap])`: no window is ever
//! re-scanned. Right-extension generates each pattern exactly once (a
//! pattern's derivation from its first symbol is unique), so no
//! deduplication or candidate join is needed.

use noisemine_core::candidates::PatternSpace;
use noisemine_core::lattice::Border;
use noisemine_core::matching::SymbolMatchScratch;
use noisemine_core::matrix::CompatibilityMatrix;
use noisemine_core::pattern::Pattern;
use noisemine_core::Symbol;

/// One surviving window of the current pattern.
#[derive(Debug, Clone, Copy)]
struct Occurrence {
    /// Index of the sequence in the input slice.
    seq: u32,
    /// Window start position within the sequence.
    start: u32,
    /// Partial product `∏ C(pᵢ, observed)` over the pattern so far.
    product: f64,
}

/// Result of a depth-first mining run.
#[derive(Debug, Clone, Default)]
pub struct DepthFirstResult {
    /// Every frequent pattern with its exact match.
    pub frequent: Vec<(Pattern, f64)>,
    /// The border (maximal frequent patterns).
    pub border: Border,
    /// Patterns whose match was evaluated (frequent or not).
    pub patterns_evaluated: usize,
    /// Deepest recursion reached (longest frequent prefix + 1).
    pub max_depth: usize,
}

impl DepthFirstResult {
    /// The frequent patterns as a set.
    pub fn pattern_set(&self) -> std::collections::HashSet<Pattern> {
        self.frequent.iter().map(|(p, _)| p.clone()).collect()
    }
}

/// Mines all patterns with database match ≥ `min_match` from memory-resident
/// sequences, depth first. Produces exactly the same set as
/// [`crate::mine_levelwise`] under the match metric, with no database
/// re-scanning: cost is proportional to the total size of the occurrence
/// lists actually explored.
pub fn mine_depth_first(
    sequences: &[Vec<Symbol>],
    matrix: &CompatibilityMatrix,
    min_match: f64,
    space: &PatternSpace,
) -> DepthFirstResult {
    let mut result = DepthFirstResult::default();
    let n = sequences.len();
    let m = matrix.len();
    if n == 0 || m == 0 {
        return result;
    }

    // Frequent symbols via the phase-1 scan kernel.
    let mut symbol_match = vec![0.0f64; m];
    let mut scratch = SymbolMatchScratch::new(m);
    for seq in sequences {
        for (acc, &v) in symbol_match.iter_mut().zip(scratch.sequence(seq, matrix)) {
            *acc += v;
        }
    }
    for v in &mut symbol_match {
        *v /= n as f64;
    }
    result.patterns_evaluated += m;
    let frequent_symbols: Vec<Symbol> = (0..m)
        .map(|i| Symbol(i as u16))
        .filter(|s| symbol_match[s.index()] >= min_match)
        .collect();

    let mut ctx = Context {
        sequences,
        matrix,
        min_match,
        space,
        frequent_symbols: &frequent_symbols,
        n,
        result: &mut result,
    };

    for &d in &frequent_symbols {
        // Seed occurrence list: every position compatible with d.
        let mut occs = Vec::new();
        for (si, seq) in sequences.iter().enumerate() {
            for (pi, &obs) in seq.iter().enumerate() {
                let c = matrix.get(d, obs);
                if c > 0.0 {
                    occs.push(Occurrence {
                        seq: si as u32,
                        start: pi as u32,
                        product: c,
                    });
                }
            }
        }
        let value = mean_of_per_sequence_max(&occs, n);
        debug_assert!((value - symbol_match[d.index()]).abs() < 1e-9);
        let pattern = Pattern::single(d);
        ctx.result.frequent.push((pattern.clone(), value));
        grow(&mut ctx, &pattern, &occs, 1);
    }

    result.frequent.sort_by(|a, b| a.0.cmp(&b.0));
    result.border = Border::from_patterns(result.frequent.iter().map(|(p, _)| p.clone()));
    result
}

struct Context<'a> {
    sequences: &'a [Vec<Symbol>],
    matrix: &'a CompatibilityMatrix,
    min_match: f64,
    space: &'a PatternSpace,
    frequent_symbols: &'a [Symbol],
    n: usize,
    result: &'a mut DepthFirstResult,
}

/// Recursively extends `pattern` (whose surviving windows are `occs`) on
/// the right.
fn grow(ctx: &mut Context<'_>, pattern: &Pattern, occs: &[Occurrence], depth: usize) {
    ctx.result.max_depth = ctx.result.max_depth.max(depth);
    let base_len = pattern.len();
    for gap in 0..=ctx.space.max_gap {
        if base_len + gap + 1 > ctx.space.max_len {
            break;
        }
        for &d in ctx.frequent_symbols {
            ctx.result.patterns_evaluated += 1;
            let mut extended = Vec::new();
            for occ in occs {
                let seq = &ctx.sequences[occ.seq as usize];
                let pos = occ.start as usize + base_len + gap;
                if pos >= seq.len() {
                    continue;
                }
                let c = ctx.matrix.get(d, seq[pos]);
                if c > 0.0 {
                    extended.push(Occurrence {
                        seq: occ.seq,
                        start: occ.start,
                        product: occ.product * c,
                    });
                }
            }
            if extended.is_empty() {
                continue;
            }
            let value = mean_of_per_sequence_max(&extended, ctx.n);
            if value >= ctx.min_match {
                let next = pattern.extend(gap, d);
                ctx.result.frequent.push((next.clone(), value));
                grow(ctx, &next, &extended, depth + 1);
            }
        }
    }
}

/// Database match from an occurrence list: the mean over all `n` sequences
/// of the per-sequence maximum product (sequences without occurrences
/// contribute 0). Occurrence lists are built in sequence order, so one
/// linear pass suffices.
fn mean_of_per_sequence_max(occs: &[Occurrence], n: usize) -> f64 {
    let mut total = 0.0;
    let mut current_seq = u32::MAX;
    let mut current_max = 0.0f64;
    for occ in occs {
        if occ.seq != current_seq {
            total += current_max;
            current_seq = occ.seq;
            current_max = 0.0;
        }
        current_max = current_max.max(occ.product);
    }
    total += current_max;
    total / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levelwise::mine_levelwise;
    use noisemine_core::matching::{db_match, MatchMetric};
    use noisemine_core::Alphabet;
    use noisemine_seqdb::MemoryDb;

    fn db() -> Vec<Vec<Symbol>> {
        let a = Alphabet::synthetic(5);
        vec![
            a.encode("d0 d1 d2 d0").unwrap(),
            a.encode("d3 d1 d0").unwrap(),
            a.encode("d2 d3 d1 d0").unwrap(),
            a.encode("d1 d1").unwrap(),
        ]
    }

    #[test]
    fn matches_levelwise_exactly() {
        let seqs = db();
        let matrix = CompatibilityMatrix::paper_figure2();
        let space = PatternSpace::contiguous(4);
        for threshold in [0.05, 0.15, 0.3] {
            let dfs = mine_depth_first(&seqs, &matrix, threshold, &space);
            let mem = MemoryDb::from_sequences(seqs.clone());
            let lw = mine_levelwise(
                &mem,
                &MatchMetric { matrix: &matrix },
                5,
                threshold,
                &space,
                usize::MAX,
            );
            assert_eq!(dfs.pattern_set(), lw.pattern_set(), "threshold {threshold}");
            // Values agree with the oracle.
            let mem_seqs = MemoryDb::from_sequences(seqs.clone());
            for (p, v) in &dfs.frequent {
                let exact = db_match(p, &mem_seqs, &matrix);
                assert!((exact - v).abs() < 1e-12, "{p}: {v} vs {exact}");
            }
        }
    }

    #[test]
    fn gapped_space_matches_levelwise() {
        let seqs = db();
        let matrix = CompatibilityMatrix::paper_figure2();
        let space = PatternSpace::new(1, 4).unwrap();
        let dfs = mine_depth_first(&seqs, &matrix, 0.15, &space);
        let mem = MemoryDb::from_sequences(seqs);
        let lw = mine_levelwise(
            &mem,
            &MatchMetric { matrix: &matrix },
            5,
            0.15,
            &space,
            usize::MAX,
        );
        // Depth-first explores all patterns >= threshold whose *prefixes*
        // are frequent; level-wise prunes on *all* subpatterns. Both are
        // supersets of neither: with the match metric every subpattern of a
        // frequent pattern is frequent (Apriori), so the sets coincide.
        assert_eq!(dfs.pattern_set(), lw.pattern_set());
        assert!(dfs.frequent.iter().any(|(p, _)| p.max_gap() == 1));
    }

    #[test]
    fn identity_matrix_equals_support_semantics() {
        let seqs = db();
        let id = CompatibilityMatrix::identity(5);
        let space = PatternSpace::contiguous(4);
        let dfs = mine_depth_first(&seqs, &id, 0.5, &space);
        let a = Alphabet::synthetic(5);
        // "d1 d0" has support 0.5 (sequences 2 and 3).
        assert!(dfs
            .pattern_set()
            .contains(&Pattern::parse("d1 d0", &a).unwrap()));
        for (_, v) in &dfs.frequent {
            assert!(*v >= 0.5);
        }
    }

    #[test]
    fn empty_input() {
        let r = mine_depth_first(
            &[],
            &CompatibilityMatrix::identity(3),
            0.1,
            &PatternSpace::contiguous(3),
        );
        assert!(r.frequent.is_empty());
        assert_eq!(r.max_depth, 0);
    }

    #[test]
    fn respects_max_len() {
        let seqs = db();
        let matrix = CompatibilityMatrix::paper_figure2();
        let dfs = mine_depth_first(&seqs, &matrix, 0.01, &PatternSpace::contiguous(2));
        assert!(dfs.frequent.iter().all(|(p, _)| p.len() <= 2));
        assert!(dfs.max_depth <= 2);
    }
}

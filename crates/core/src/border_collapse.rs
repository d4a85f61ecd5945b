//! Phase 3: border collapsing (§4.3, Algorithms 4.3 / 4.4).
//!
//! The ambiguous patterns left by phase 2 occupy a contiguous region of the
//! lattice between the FQT and INFQT borders. Verifying them level by level
//! costs one scan per level; border collapsing instead probes the patterns
//! with the highest *collapsing power* — the halfway layer between the two
//! borders, then the quarter-way layers, and so on — so that each exact
//! verification resolves, via the Apriori property, as many other ambiguous
//! patterns as possible without ever counting them. With a memory budget of
//! `x` layers per scan the ambiguous space shrinks to `1/x` per scan, giving
//! `O(log_x y)` scans where a level-wise search needs `y`.
//!
//! # Observability
//!
//! Each full-database probe scan increments `core_collapse_db_scans` (the
//! quantity the `O(log_x y)` bound of Algorithm 4.3 controls), with
//! `core_collapse_probes_total` patterns counted exactly across
//! `core_collapse_layers_probed_total` distinct lattice layers;
//! `core_collapse_propagated_total` patterns resolve by Apriori propagation
//! alone and `core_collapse_known_applied_total` reuse pre-verified matches
//! without any scan. See `docs/OBSERVABILITY.md`.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::error::ScanError;
use crate::index::{SkipPlan, SymbolIndex};
use crate::lattice::AmbiguousSpace;
use crate::match_kernel::MatchKernel;
use crate::matching::{try_db_match_many, SequenceScan};
use crate::matrix::CompatibilityMatrix;
use crate::pattern::Pattern;

/// How a pattern's frequency was established during phase 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Resolution {
    /// Its exact match was counted against the full database.
    Probed,
    /// It was resolved by Apriori propagation from a probed pattern.
    Propagated,
}

/// One resolved ambiguous pattern.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResolvedPattern {
    /// The pattern.
    pub pattern: Pattern,
    /// Exact database match — known only for probed patterns.
    pub match_value: Option<f64>,
    /// How it was resolved.
    pub resolution: Resolution,
}

/// The outcome of phase 3.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CollapseResult {
    /// Ambiguous patterns that turned out to be frequent.
    pub frequent: Vec<ResolvedPattern>,
    /// Ambiguous patterns that turned out to be infrequent.
    pub infrequent: Vec<ResolvedPattern>,
    /// Number of full database scans performed.
    pub scans: usize,
    /// Number of patterns whose exact match was counted.
    pub probes: usize,
    /// Number of patterns resolved purely by Apriori propagation.
    pub propagated: usize,
    /// Patterns counted in each scan, in scan order — the per-scan probe
    /// sizes behind the paper's Figure 14(c) discussion (how far the final
    /// border sits from the estimate shows up as how much counting each
    /// verification scan needs).
    pub probes_per_scan: Vec<usize>,
    /// Pre-verified patterns applied without scanning (the `known` argument
    /// of [`try_collapse_with_known_kernel_indexed`]).
    pub known_applied: usize,
}

/// The order in which ambiguous patterns are probed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ProbeStrategy {
    /// Border collapsing: halfway layer first, then quarter-way layers, …
    /// (Algorithm 4.3) — the paper's contribution.
    #[default]
    BorderCollapsing,
    /// Level-wise from the bottom (the Toivonen-style finalization the
    /// paper compares against, §5.6).
    LevelWise,
}

/// Resolves every ambiguous pattern against the full database.
///
/// - `known` holds `(pattern, exact database match)` pairs the caller
///   already maintains — an incremental engine keeps online counters for
///   the patterns it has probed before. Those verdicts are applied first,
///   collapsing their region of the ambiguous space via Apriori propagation
///   without a single database scan; only what remains is probed. Known
///   patterns outside the ambiguous space are ignored.
/// - `counters_per_scan` models the memory available for match counters:
///   each database scan evaluates at most that many patterns ("until the
///   memory is filled up", Algorithm 4.3).
/// - `threads` (`0` = all available cores), `kernel` and `symbol_index`
///   are purely operational, as in
///   [`try_db_match_many`]: with an
///   index, each probe scan builds a [`SkipPlan`] for its batch and
///   evaluates only the sequences that can match at least one probe. The
///   verdicts and match values never depend on any of the three.
///
/// A failed verification scan surfaces as `Err`. No partial phase-3 result
/// escapes — verdicts applied before the failing scan are discarded with
/// the rest, so a caller that retries starts from a clean collapse.
#[allow(clippy::too_many_arguments)]
pub fn try_collapse_with_known_kernel_indexed<S: SequenceScan + ?Sized>(
    mut space: AmbiguousSpace,
    known: &[(Pattern, f64)],
    db: &S,
    matrix: &CompatibilityMatrix,
    min_match: f64,
    counters_per_scan: usize,
    strategy: ProbeStrategy,
    threads: usize,
    kernel: MatchKernel,
    symbol_index: Option<&SymbolIndex>,
) -> Result<CollapseResult, ScanError> {
    assert!(counters_per_scan >= 1, "need room for at least one counter");
    let mut result = CollapseResult::default();
    let mut index = ResultIndex::default();

    let (known_patterns, known_values): (Vec<Pattern>, Vec<f64>) = known
        .iter()
        .filter(|(p, _)| space.contains(p))
        .cloned()
        .unzip();
    result.known_applied = known_patterns.len();
    apply_exact_values(
        &mut space,
        &mut result,
        &mut index,
        &known_patterns,
        &known_values,
        min_match,
    );

    while !space.is_empty() {
        let probes = select_probes(&space, counters_per_scan, strategy);
        debug_assert!(!probes.is_empty());
        if noisemine_obs::enabled() {
            let layers: std::collections::HashSet<usize> =
                probes.iter().map(|p| p.non_eternal_count()).collect();
            crate::obs::collapse_layers_probed().add(layers.len() as u64);
        }
        let plan = symbol_index.map(|ix| {
            crate::obs::index_plans_built().inc();
            SkipPlan::build(ix, &probes, matrix)
        });
        let values = try_db_match_many(&probes, db, matrix, threads, kernel, plan.as_ref())?;
        result.scans += 1;
        result.probes += probes.len();
        result.probes_per_scan.push(probes.len());
        crate::obs::collapse_db_scans().inc();
        crate::obs::collapse_probes().add(probes.len() as u64);
        apply_exact_values(
            &mut space,
            &mut result,
            &mut index,
            &probes,
            &values,
            min_match,
        );
    }

    result.propagated = result
        .frequent
        .iter()
        .chain(&result.infrequent)
        .filter(|r| r.resolution == Resolution::Propagated)
        .count();
    crate::obs::collapse_propagated().add(result.propagated as u64);
    crate::obs::collapse_known_applied().add(result.known_applied as u64);
    Ok(result)
}

/// Applies a batch of exact match values to the ambiguous space, bottom-up
/// (ascending concrete-symbol count); the exact values make the final
/// verdicts order-independent, and evaluated patterns always get their exact
/// value recorded even when a sibling in the same batch already propagated
/// over them.
fn apply_exact_values(
    space: &mut AmbiguousSpace,
    result: &mut CollapseResult,
    index: &mut ResultIndex,
    patterns: &[Pattern],
    values: &[f64],
    min_match: f64,
) {
    let mut order: Vec<usize> = (0..patterns.len()).collect();
    order.sort_by_key(|&i| patterns[i].non_eternal_count());
    for &i in &order {
        let pattern = &patterns[i];
        let value = values[i];
        if !space.contains(pattern) {
            attach_exact_value(result, index, pattern, value, min_match);
            continue;
        }
        if value >= min_match {
            for p in space.resolve_frequent(pattern) {
                push(result, index, p, true);
            }
            replace_probe_record(result, index, pattern, value, true);
        } else {
            for p in space.resolve_infrequent(pattern) {
                push(result, index, p, false);
            }
            replace_probe_record(result, index, pattern, value, false);
        }
    }
}

/// Positions of every recorded pattern within [`CollapseResult`]'s frequent
/// and infrequent lists. A collapse run can resolve tens of thousands of
/// patterns; upgrading a probe record by linear search made phase 3
/// O(probes²) overall, so the maps keep it O(1) per record.
#[derive(Default)]
struct ResultIndex {
    frequent: HashMap<Pattern, usize>,
    infrequent: HashMap<Pattern, usize>,
}

impl ResultIndex {
    fn list_of<'a>(
        &'a mut self,
        result: &'a mut CollapseResult,
        frequent: bool,
    ) -> (
        &'a mut Vec<ResolvedPattern>,
        &'a mut HashMap<Pattern, usize>,
    ) {
        if frequent {
            (&mut result.frequent, &mut self.frequent)
        } else {
            (&mut result.infrequent, &mut self.infrequent)
        }
    }
}

/// Records a resolved pattern; the probe pattern itself is upgraded to
/// `Probed` by [`replace_probe_record`].
fn push(result: &mut CollapseResult, index: &mut ResultIndex, pattern: Pattern, frequent: bool) {
    let (list, map) = index.list_of(result, frequent);
    map.insert(pattern.clone(), list.len());
    list.push(ResolvedPattern {
        pattern,
        match_value: None,
        resolution: Resolution::Propagated,
    });
}

/// Upgrades the record of the probed pattern itself with its exact value.
fn replace_probe_record(
    result: &mut CollapseResult,
    index: &mut ResultIndex,
    pattern: &Pattern,
    value: f64,
    frequent: bool,
) {
    let (list, map) = index.list_of(result, frequent);
    if let Some(&at) = map.get(pattern) {
        let rec = &mut list[at];
        rec.match_value = Some(value);
        rec.resolution = Resolution::Probed;
    } else {
        map.insert(pattern.clone(), list.len());
        list.push(ResolvedPattern {
            pattern: pattern.clone(),
            match_value: Some(value),
            resolution: Resolution::Probed,
        });
    }
}

/// A probed pattern that was propagated earlier in the same batch still has
/// an exact value available — attach it.
fn attach_exact_value(
    result: &mut CollapseResult,
    index: &mut ResultIndex,
    pattern: &Pattern,
    value: f64,
    min_match: f64,
) {
    let frequent = value >= min_match;
    replace_probe_record(result, index, pattern, value, frequent);
}

/// Selects up to `budget` patterns to probe in the next scan.
fn select_probes(space: &AmbiguousSpace, budget: usize, strategy: ProbeStrategy) -> Vec<Pattern> {
    let (lo, hi) = space
        .level_range()
        .expect("select_probes requires a non-empty space");
    let levels = match strategy {
        ProbeStrategy::BorderCollapsing => levels_in_collapse_order(lo, hi),
        ProbeStrategy::LevelWise => (lo..=hi).collect(),
    };
    let mut probes = Vec::with_capacity(budget);
    for level in levels {
        if probes.len() >= budget {
            break;
        }
        for p in space.at_level(level) {
            if probes.len() >= budget {
                break;
            }
            probes.push(p);
        }
        // A level-wise search verifies one level per scan: never mix levels
        // within a scan (this is what makes it need many scans).
        if strategy == ProbeStrategy::LevelWise && !probes.is_empty() {
            break;
        }
    }
    probes
}

/// The probe order of Algorithm 4.3 expressed on levels: the halfway level
/// of `[lo, hi]` first, then the halfway levels of the two halves
/// (quarter-way layers), then the ⅛ layers, … — a breadth-first traversal
/// of the binary interval subdivision.
pub fn levels_in_collapse_order(lo: usize, hi: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(hi - lo + 1);
    let mut queue = std::collections::VecDeque::new();
    queue.push_back((lo, hi));
    while let Some((a, b)) = queue.pop_front() {
        if a > b {
            continue;
        }
        let mid = (a + b).div_ceil(2);
        out.push(mid);
        if a <= b {
            if mid > a {
                queue.push_back((a, mid - 1));
            }
            if mid < b {
                queue.push_back((mid + 1, b));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::matching::{db_match, MemorySequences};
    use crate::matrix::CompatibilityMatrix;

    fn pat(text: &str) -> Pattern {
        Pattern::parse(text, &Alphabet::synthetic(5)).unwrap()
    }

    fn db() -> MemorySequences {
        let a = Alphabet::synthetic(5);
        MemorySequences(vec![
            a.encode("d0 d1 d2 d0").unwrap(),
            a.encode("d3 d1 d0").unwrap(),
            a.encode("d2 d3 d1 d0").unwrap(),
            a.encode("d1 d1").unwrap(),
        ])
    }

    #[test]
    fn collapse_order_is_halfway_first() {
        // Levels 1..=5: halfway 3, then halves [1,2] -> 2 and [4,5] -> 5,
        // then 1 and 4.
        assert_eq!(levels_in_collapse_order(1, 5), vec![3, 2, 5, 1, 4]);
        assert_eq!(levels_in_collapse_order(2, 2), vec![2]);
        assert_eq!(levels_in_collapse_order(1, 2), vec![2, 1]);
    }

    #[test]
    fn chain_collapses_in_one_scan_with_enough_memory() {
        // Figure 6(a)'s chain: with a big enough budget every layer fits in
        // one scan.
        let chain = vec![pat("d1"), pat("d1 d2"), pat("d1 d2 d0")];
        let space = AmbiguousSpace::new(chain);
        let database = db();
        let matrix = CompatibilityMatrix::paper_figure2();
        let r = try_collapse_with_known_kernel_indexed(
            space,
            &[],
            &database,
            &matrix,
            0.15,
            100,
            ProbeStrategy::BorderCollapsing,
            0,
            MatchKernel::default(),
            None,
        )
        .unwrap();
        assert_eq!(r.scans, 1);
        assert_eq!(r.frequent.len() + r.infrequent.len(), 3);
    }

    #[test]
    fn collapse_matches_exact_verification() {
        let database = db();
        let matrix = CompatibilityMatrix::paper_figure2();
        let min_match = 0.15;
        let patterns = vec![
            pat("d0"),
            pat("d1"),
            pat("d3"),
            pat("d1 d0"),
            pat("d3 d1"),
            pat("d3 d1 d0"),
            pat("d0 d1"),
            pat("d0 d1 d2"),
        ];
        let r = try_collapse_with_known_kernel_indexed(
            AmbiguousSpace::new(patterns.clone()),
            &[],
            &database,
            &matrix,
            min_match,
            2,
            // tiny budget forces multiple scans
            ProbeStrategy::BorderCollapsing,
            0,
            MatchKernel::default(),
            None,
        )
        .unwrap();
        assert!(r.scans >= 2);
        // Every pattern must be resolved exactly as the oracle says.
        for p in &patterns {
            let exact = db_match(p, &database, &matrix);
            let in_frequent = r.frequent.iter().any(|x| x.pattern == *p);
            let in_infrequent = r.infrequent.iter().any(|x| x.pattern == *p);
            assert!(in_frequent ^ in_infrequent, "{p} resolved twice or never");
            assert_eq!(
                in_frequent,
                exact >= min_match,
                "{p}: exact match {exact}, threshold {min_match}"
            );
        }
    }

    #[test]
    fn levelwise_uses_at_least_one_scan_per_level() {
        let database = db();
        let matrix = CompatibilityMatrix::paper_figure2();
        let patterns = vec![pat("d1"), pat("d1 d0"), pat("d2 d1 d0")];
        let r = try_collapse_with_known_kernel_indexed(
            AmbiguousSpace::new(patterns),
            &[],
            &database,
            &matrix,
            0.15,
            100,
            ProbeStrategy::LevelWise,
            0,
            MatchKernel::default(),
            None,
        )
        .unwrap();
        // Three levels present; level-wise probes one level per scan, but
        // Apriori propagation may resolve later levels early.
        assert!(r.scans >= 1 && r.scans <= 3);
    }

    #[test]
    fn collapsing_never_uses_more_scans_than_levelwise() {
        let database = db();
        let matrix = CompatibilityMatrix::paper_figure2();
        let patterns: Vec<Pattern> = vec![
            pat("d1"),
            pat("d1 d0"),
            pat("d1 d1"),
            pat("d2 d1 d0"),
            pat("d3 d1 d0"),
            pat("d0 d1 d2 d0"),
        ];
        let budget = 3;
        let bc = try_collapse_with_known_kernel_indexed(
            AmbiguousSpace::new(patterns.clone()),
            &[],
            &database,
            &matrix,
            0.1,
            budget,
            ProbeStrategy::BorderCollapsing,
            0,
            MatchKernel::default(),
            None,
        )
        .unwrap();
        let lw = try_collapse_with_known_kernel_indexed(
            AmbiguousSpace::new(patterns),
            &[],
            &database,
            &matrix,
            0.1,
            budget,
            ProbeStrategy::LevelWise,
            0,
            MatchKernel::default(),
            None,
        )
        .unwrap();
        assert!(
            bc.scans <= lw.scans,
            "border collapsing {} scans > level-wise {}",
            bc.scans,
            lw.scans
        );
        // Both strategies agree on the verdicts.
        let freq_bc: std::collections::HashSet<_> =
            bc.frequent.iter().map(|r| r.pattern.clone()).collect();
        let freq_lw: std::collections::HashSet<_> =
            lw.frequent.iter().map(|r| r.pattern.clone()).collect();
        assert_eq!(freq_bc, freq_lw);
    }

    #[test]
    fn fully_known_space_collapses_without_scans() {
        let database = db();
        let matrix = CompatibilityMatrix::paper_figure2();
        let min_match = 0.15;
        let patterns = vec![pat("d0"), pat("d1"), pat("d1 d0"), pat("d3 d1 d0")];
        let known: Vec<(Pattern, f64)> = patterns
            .iter()
            .map(|p| (p.clone(), db_match(p, &database, &matrix)))
            .collect();
        let r = try_collapse_with_known_kernel_indexed(
            AmbiguousSpace::new(patterns.clone()),
            &known,
            &database,
            &matrix,
            min_match,
            10,
            ProbeStrategy::BorderCollapsing,
            0,
            MatchKernel::default(),
            None,
        )
        .unwrap();
        assert_eq!(r.scans, 0, "known values must resolve without scanning");
        assert_eq!(r.frequent.len() + r.infrequent.len(), patterns.len());
        for p in &patterns {
            let exact = db_match(p, &database, &matrix);
            let in_frequent = r.frequent.iter().any(|x| x.pattern == *p);
            assert_eq!(in_frequent, exact >= min_match, "{p}");
        }
    }

    #[test]
    fn partially_known_space_agrees_with_plain_collapse() {
        let database = db();
        let matrix = CompatibilityMatrix::paper_figure2();
        let min_match = 0.15;
        let patterns = vec![
            pat("d0"),
            pat("d1"),
            pat("d3"),
            pat("d1 d0"),
            pat("d3 d1"),
            pat("d3 d1 d0"),
            pat("d0 d1"),
            pat("d0 d1 d2"),
        ];
        // Exact values for a couple of mid-lattice patterns only.
        let known: Vec<(Pattern, f64)> = [pat("d3 d1"), pat("d0 d1")]
            .iter()
            .map(|p| (p.clone(), db_match(p, &database, &matrix)))
            .collect();
        let with_known = try_collapse_with_known_kernel_indexed(
            AmbiguousSpace::new(patterns.clone()),
            &known,
            &database,
            &matrix,
            min_match,
            2,
            ProbeStrategy::BorderCollapsing,
            0,
            MatchKernel::default(),
            None,
        )
        .unwrap();
        let plain = try_collapse_with_known_kernel_indexed(
            AmbiguousSpace::new(patterns.clone()),
            &[],
            &database,
            &matrix,
            min_match,
            2,
            ProbeStrategy::BorderCollapsing,
            0,
            MatchKernel::default(),
            None,
        )
        .unwrap();
        assert_eq!(with_known.known_applied, 2);
        assert!(with_known.scans <= plain.scans);
        let freq_known: std::collections::HashSet<_> = with_known
            .frequent
            .iter()
            .map(|r| r.pattern.clone())
            .collect();
        let freq_plain: std::collections::HashSet<_> =
            plain.frequent.iter().map(|r| r.pattern.clone()).collect();
        assert_eq!(freq_known, freq_plain);
        // Everything resolved exactly once.
        for p in &patterns {
            let in_frequent = with_known.frequent.iter().any(|x| x.pattern == *p);
            let in_infrequent = with_known.infrequent.iter().any(|x| x.pattern == *p);
            assert!(in_frequent ^ in_infrequent, "{p} resolved twice or never");
        }
    }

    #[test]
    fn known_patterns_outside_space_are_ignored() {
        let database = db();
        let matrix = CompatibilityMatrix::paper_figure2();
        let known = vec![(pat("d4 d4"), 0.9)];
        let r = try_collapse_with_known_kernel_indexed(
            AmbiguousSpace::new(vec![pat("d1")]),
            &known,
            &database,
            &matrix,
            0.15,
            10,
            ProbeStrategy::BorderCollapsing,
            0,
            MatchKernel::default(),
            None,
        )
        .unwrap();
        assert_eq!(r.known_applied, 0);
        assert!(!r
            .frequent
            .iter()
            .chain(&r.infrequent)
            .any(|x| x.pattern == pat("d4 d4")));
    }

    #[test]
    fn empty_space_needs_no_scans() {
        let r = try_collapse_with_known_kernel_indexed(
            AmbiguousSpace::default(),
            &[],
            &db(),
            &CompatibilityMatrix::paper_figure2(),
            0.1,
            10,
            ProbeStrategy::BorderCollapsing,
            0,
            MatchKernel::default(),
            None,
        )
        .unwrap();
        assert_eq!(r.scans, 0);
        assert!(r.frequent.is_empty() && r.infrequent.is_empty());
    }
}

//! The three mining phases as the benchmark drives them.
//!
//! The timed path calls the production entry points (`miner::mine`,
//! `StreamState::mine`). The traced path composes the same public phase
//! functions those entry points run, one span per phase, and keeps the
//! phase outputs the layer probes need. Both paths must yield the same
//! outcome digest; the workloads check that.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use noisemine_core::border_collapse::{try_collapse_with_known_kernel_indexed, CollapseResult};
use noisemine_core::lattice::AmbiguousSpace;
use noisemine_core::matching::SequenceScan;
use noisemine_core::miner::{
    assemble_outcome, try_phase1_threads, MineOutcome, MineStats, MinerConfig, Phase1Output,
};
use noisemine_core::sample_miner::{mine_sample_budgeted_kernel, SampleMineResult};
use noisemine_core::{CompatibilityMatrix, Pattern};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::Tracer;

/// A mine composed phase by phase, with the outputs of each phase.
pub struct Composed {
    pub outcome: MineOutcome,
    pub sample: Vec<Vec<noisemine_core::Symbol>>,
    pub p2: SampleMineResult,
    pub p3: CollapseResult,
}

/// Phase 1 exactly as `miner::mine` runs it (same RNG, no index).
pub fn phase1<S: SequenceScan + ?Sized>(
    db: &S,
    matrix: &CompatibilityMatrix,
    config: &MinerConfig,
    tr: &mut Tracer,
) -> Phase1Output {
    let mut rng = StdRng::seed_from_u64(config.seed);
    tr.span("core::miner", "try_phase1_threads", |_| {
        try_phase1_threads(db, matrix, config.sample_size, &mut rng, config.threads)
            .expect("phase-1 scan")
    })
}

/// Phases 2 and 3 plus assembly, exactly as
/// `miner::mine_from_phase1_with_known` runs them.
pub fn phases23<S: SequenceScan + ?Sized>(
    db: &S,
    matrix: &CompatibilityMatrix,
    config: &MinerConfig,
    p1: &Phase1Output,
    known: &[(Pattern, f64)],
    tr: &mut Tracer,
) -> Composed {
    let p2 = tr.span("core::sample_miner", "mine_sample_budgeted_kernel", |_| {
        mine_sample_budgeted_kernel(
            &p1.sample,
            matrix,
            &p1.symbol_match,
            config.min_match,
            config.delta,
            config.spread_mode,
            &config.space,
            config.max_sample_patterns,
            config.match_kernel,
        )
    });
    assert!(!p2.truncated, "phase 2 exceeded its candidate budget");
    let p3 = tr.span("core::border_collapse", "try_collapse_with_known", |_| {
        let ambiguous = AmbiguousSpace::new(p2.ambiguous.iter().map(|(p, _)| p.clone()));
        try_collapse_with_known_kernel_indexed(
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
        )
        .expect("phase-3 scan")
    });
    let (frequent, border) = tr.span("core::miner", "assemble_outcome", |_| {
        assemble_outcome(&p2, &p3)
    });
    let stats = MineStats {
        db_scans: p3.scans,
        sample_size: p1.sample.len(),
        ambiguous_after_sample: p2.ambiguous.len(),
        verified_patterns: p3.probes,
        propagated_patterns: p3.propagated,
        ..MineStats::default()
    };
    Composed {
        outcome: MineOutcome {
            frequent,
            border,
            symbol_match: p1.symbol_match.clone(),
            stats,
        },
        sample: p1.sample.clone(),
        p2,
        p3,
    }
}

/// A full three-phase mine composed from the phase functions.
pub fn mine_composed<S: SequenceScan + ?Sized>(
    db: &S,
    matrix: &CompatibilityMatrix,
    config: &MinerConfig,
    tr: &mut Tracer,
) -> Composed {
    let p1 = phase1(db, matrix, config, tr);
    let mut c = phases23(db, matrix, config, &p1, &[], tr);
    c.outcome.stats.db_scans += 1;
    c
}

/// Digest of everything a mine outputs: frequent patterns with their
/// match values and provenance, the border, and the symbol matches, all
/// bit for bit.
pub fn digest(outcome: &MineOutcome) -> u64 {
    let mut h = DefaultHasher::new();
    for f in &outcome.frequent {
        f.pattern.hash(&mut h);
        f.match_estimate.to_bits().hash(&mut h);
        format!("{:?}", f.provenance).hash(&mut h);
    }
    let mut border = outcome.border.elements().to_vec();
    border.sort();
    border.hash(&mut h);
    for v in &outcome.symbol_match {
        v.to_bits().hash(&mut h);
    }
    h.finish()
}

/// The candidates phase 2 evaluated, one batch per level.
pub fn phase2_batches(p2: &SampleMineResult) -> Vec<Vec<Pattern>> {
    let mut levels: Vec<Vec<Pattern>> = Vec::new();
    for p in p2.labels.keys() {
        let k = p.non_eternal_count();
        if levels.len() < k {
            levels.resize(k, Vec::new());
        }
        levels[k - 1].push(p.clone());
    }
    for level in &mut levels {
        level.sort();
    }
    levels.retain(|l| !l.is_empty());
    levels
}

/// The patterns phase 3 probed, split into batches of the sizes its scans
/// used (patterns ordered by level, so a batch approximates one scan's
/// probe set).
pub fn phase3_batches(p3: &CollapseResult) -> Vec<Vec<Pattern>> {
    use noisemine_core::border_collapse::Resolution;
    let mut probed: Vec<Pattern> = p3
        .frequent
        .iter()
        .chain(&p3.infrequent)
        .filter(|r| r.resolution == Resolution::Probed)
        .map(|r| r.pattern.clone())
        .collect();
    probed.sort_by(|a, b| {
        a.non_eternal_count()
            .cmp(&b.non_eternal_count())
            .then_with(|| a.cmp(b))
    });
    let mut batches = Vec::new();
    let mut rest = probed.as_slice();
    for &n in &p3.probes_per_scan {
        let (batch, tail) = rest.split_at(n.min(rest.len()));
        if !batch.is_empty() {
            batches.push(batch.to_vec());
        }
        rest = tail;
    }
    batches
}

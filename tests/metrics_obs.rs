//! Observability contract tests: enabling the metrics registry must never
//! change mining output (instrumentation is observe-only), and a
//! planted-pattern run must populate the documented counters — in
//! particular `core_collapse_db_scans`, the paper quantity border
//! collapsing (Algorithm 4.3) exists to minimize.

use noisemine::core::border_collapse::ProbeStrategy;
use noisemine::core::chernoff::SpreadMode;
use noisemine::core::miner::{mine, MineOutcome, MinerConfig};
use noisemine::core::{CompatibilityMatrix, Pattern, PatternSpace};
use noisemine::datagen::noise::{channel_to_compatibility, partner_channel};
use noisemine::datagen::{apply_channel, generate, Background, GeneratorConfig, PlantedMotif};
use noisemine::seqdb::MemoryDb;

/// A deterministic noisy workload with one strong planted motif, sized so
/// that phase 2 leaves ambiguous patterns for phase 3 to verify (the
/// sample is a strict subset of the database).
fn workload() -> (MemoryDb, CompatibilityMatrix) {
    let alphabet = noisemine::core::Alphabet::synthetic(12);
    let motif = Pattern::parse("d0 d1 d2 d3 d4", &alphabet).unwrap();
    let standard = generate(&GeneratorConfig {
        num_sequences: 400,
        min_len: 20,
        max_len: 30,
        alphabet_size: 12,
        background: Background::Uniform,
        motifs: vec![PlantedMotif::new(motif, 0.6)],
        seed: 77,
    });
    let partners: Vec<Vec<usize>> = (0..12).map(|i| vec![i ^ 1]).collect();
    let channel = partner_channel(12, 0.3, &partners);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let noisy = apply_channel(&standard, &channel, &mut rng);
    let matrix = channel_to_compatibility(&channel)
        .diagonal_normalized_clamped()
        .unwrap();
    (MemoryDb::from_sequences(noisy), matrix)
}

fn config() -> MinerConfig {
    MinerConfig {
        min_match: 0.25,
        delta: 0.01,
        sample_size: 150, // strict subset -> a real Chernoff band
        counters_per_scan: 500,
        space: PatternSpace::contiguous(8),
        spread_mode: SpreadMode::Restricted,
        probe_strategy: ProbeStrategy::BorderCollapsing,
        seed: 13,
        ..MinerConfig::default()
    }
}

/// Canonical rendering of an outcome for byte-level comparison.
fn render(outcome: &MineOutcome) -> String {
    let mut lines: Vec<String> = outcome
        .frequent
        .iter()
        .map(|f| format!("{:?} {:.12}", f.pattern, f.match_estimate))
        .collect();
    lines.sort();
    lines.join("\n")
}

#[test]
fn instrumentation_never_changes_output_and_counters_are_live() {
    let (db, matrix) = workload();
    let cfg = config();

    // Baseline run. The registry enable flag is process-global and another
    // test binary cannot interfere (each integration test is its own
    // process), but within this test the order matters: first without.
    assert!(
        !noisemine::obs::enabled(),
        "registry must start disabled in a fresh process"
    );
    let plain = mine(&db, &matrix, &cfg).expect("mine (metrics off)");

    noisemine::obs::enable();
    let instrumented = mine(&db, &matrix, &cfg).expect("mine (metrics on)");

    assert_eq!(
        render(&plain),
        render(&instrumented),
        "enabling metrics changed the mined pattern set"
    );
    assert_eq!(plain.stats.db_scans, instrumented.stats.db_scans);

    // The planted workload must light up the documented counters.
    let snap = noisemine::obs::global().snapshot();
    let scans = snap
        .counter_value("core_collapse_db_scans")
        .expect("core_collapse_db_scans registered");
    assert!(
        scans >= 1,
        "expected at least one collapse scan, got {scans}"
    );
    assert!(
        snap.counter_value("core_candidates_frequent_total")
            .unwrap_or(0)
            >= 1,
        "no frequent candidates recorded"
    );
    let eps = snap.gauge_value("core_chernoff_epsilon_max").unwrap_or(0.0);
    assert!(eps > 0.0, "Chernoff epsilon gauge not set");
    let spread = snap
        .gauge_value("core_restricted_spread_min")
        .unwrap_or(0.0);
    assert!(
        spread > 0.0 && spread <= 1.0,
        "restricted spread out of range: {spread}"
    );
    let (count, sum) = snap
        .histogram_totals("core_phase1_seconds")
        .expect("phase-1 span recorded");
    // Only the second mine ran with the registry enabled, so exactly one
    // span per phase.
    assert_eq!(count, 1, "expected one instrumented phase-1 span");
    assert!(sum > 0.0);

    // Phase 2 splits into generation, sample match and labelling: one
    // observation of each per evaluated level, together inside the
    // phase-2 span.
    let levels = instrumented.stats.trace.levels() as u64;
    assert!(levels >= 2, "the workload should evaluate several levels");
    let (_, phase2) = snap
        .histogram_totals("core_phase2_seconds")
        .expect("phase-2 span recorded");
    let mut parts = 0.0;
    for name in [
        "core_phase2_generate_seconds",
        "core_phase2_evaluate_seconds",
        "core_phase2_label_seconds",
    ] {
        let (count, sum) = snap.histogram_totals(name).expect("phase-2 part recorded");
        assert_eq!(count, levels, "{name}: one observation per evaluated level");
        parts += sum;
    }
    assert!(
        parts <= phase2,
        "phase-2 parts sum to {parts} s, more than the phase-2 span's {phase2} s"
    );
    let seqs = snap
        .counter_value("core_scan_sequences_total")
        .expect("scan sequence counter registered");
    // One phase-1 pass plus `db_scans - 1` collapse passes over 400
    // sequences each (stats.db_scans counts phase 1 too).
    assert_eq!(
        seqs,
        400 * instrumented.stats.db_scans as u64,
        "scan volume disagrees with the miner's own scan statistics"
    );

    // Snapshot rendering is deterministic and both formats carry the data.
    let snap2 = noisemine::obs::global().snapshot();
    assert_eq!(snap.to_json(), snap2.to_json());
    assert!(snap.to_prometheus().contains("core_collapse_db_scans"));
}

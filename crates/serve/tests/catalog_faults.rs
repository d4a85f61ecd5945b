//! NMMODEL fault-injection sweep at the catalog boundary: every possible
//! truncation and every single-bit flip of an artifact must be rejected by
//! the loader AND ignored by the catalog supervisor — the last-good model
//! keeps serving, and a fresh tenant with only corrupt artifacts is
//! degraded, never served garbage.
//!
//! The loader-level sweeps in `model_io` prove `read_model` rejects the
//! corruption; this suite proves the *adoption path* built on top of it
//! inherits the guarantee: no corrupt byte pattern, at any offset, can
//! reach a registry through [`Catalog::sync`] or the supervisor's ticks.

use std::sync::Arc;
use std::time::{Duration, Instant};

use noisemine_core::lattice::Border;
use noisemine_core::miner::{FrequentPattern, MineOutcome, MineStats, Provenance};
use noisemine_core::{Alphabet, CompatibilityMatrix, Pattern, PatternModel, Symbol};
use noisemine_serve::{
    model_bytes, read_model, Catalog, ModelRegistry, ServeModel, Supervisor, TenantLookup,
};

fn sample_model(version: u64) -> PatternModel {
    let alphabet = Alphabet::synthetic(4);
    let matrix = CompatibilityMatrix::uniform_noise(4, 0.1).unwrap();
    let outcome = MineOutcome {
        frequent: vec![FrequentPattern {
            pattern: Pattern::contiguous(&[Symbol(0), Symbol(1)]).unwrap(),
            match_estimate: 0.5,
            provenance: Provenance::Verified,
        }],
        border: Border::default(),
        symbol_match: vec![0.4; 4],
        stats: MineStats::default(),
    };
    PatternModel::from_outcome(&outcome, &alphabet, &matrix, 0.1, version)
}

fn tmp_catalog(name: &str) -> Catalog {
    let root =
        std::env::temp_dir().join(format!("noisemine-catfault-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    Catalog::new(root)
}

/// A registry already serving last-good v1 for tenant `t`.
fn registry_with_v1() -> ModelRegistry {
    let registry = ModelRegistry::new(0.0);
    registry.swap("t", ServeModel::compile(sample_model(1)));
    registry
}

/// Truncation at every byte: each prefix of a valid v2 artifact is an
/// invalid file the loader rejects and the catalog never adopts — the
/// registry keeps serving v1 through every single sweep step.
#[test]
fn every_truncation_is_rejected_and_never_adopted() {
    let cat = tmp_catalog("trunc");
    cat.write("t", &sample_model(1)).unwrap();
    let registry = registry_with_v1();
    let v2 = cat.model_path("t", 2);
    let bytes = model_bytes(&sample_model(2));
    std::fs::create_dir_all(v2.parent().unwrap()).unwrap();
    for len in 0..bytes.len() {
        std::fs::write(&v2, &bytes[..len]).unwrap();
        assert!(
            read_model(&v2).is_err(),
            "truncation to {len}/{} bytes must not load",
            bytes.len()
        );
        let report = cat.sync(&registry);
        assert!(
            report.adopted.is_empty(),
            "truncated artifact ({len} bytes) was adopted"
        );
        assert_eq!(
            registry.current_version("t"),
            Some(1),
            "truncation to {len} bytes disturbed the serving model"
        );
    }
    // The intact artifact is adopted on the very next pass — the sweep
    // left no poisoned state behind.
    std::fs::write(&v2, &bytes).unwrap();
    let report = cat.sync(&registry);
    assert_eq!(report.adopted, vec![("t".to_string(), 2)]);
    assert_eq!(registry.current_version("t"), Some(2));
    std::fs::remove_dir_all(cat.root()).ok();
}

/// Single-bit flips at every position: the whole-file CRC32C detects every
/// 1-bit error, so no flipped artifact can load or be adopted.
#[test]
fn every_single_bit_flip_is_rejected_and_never_adopted() {
    let cat = tmp_catalog("bitflip");
    cat.write("t", &sample_model(1)).unwrap();
    let registry = registry_with_v1();
    let v2 = cat.model_path("t", 2);
    let bytes = model_bytes(&sample_model(2));
    std::fs::create_dir_all(v2.parent().unwrap()).unwrap();
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[byte] ^= 1 << bit;
            std::fs::write(&v2, &corrupt).unwrap();
            assert!(
                read_model(&v2).is_err(),
                "flip of byte {byte} bit {bit} must not load"
            );
            let report = cat.sync(&registry);
            assert!(
                report.adopted.is_empty(),
                "flipped artifact (byte {byte} bit {bit}) was adopted"
            );
            assert_eq!(
                registry.current_version("t"),
                Some(1),
                "flip of byte {byte} bit {bit} disturbed the serving model"
            );
        }
    }
    std::fs::remove_dir_all(cat.root()).ok();
}

/// A fresh tenant whose only artifacts are corrupt is declared degraded
/// (NoModel), never served garbage — for every truncation length.
#[test]
fn fresh_tenant_with_only_corrupt_artifacts_is_degraded() {
    let cat = tmp_catalog("freshcorrupt");
    let registry = ModelRegistry::new(0.0);
    let v1 = cat.model_path("fresh", 1);
    let bytes = model_bytes(&sample_model(1));
    std::fs::create_dir_all(v1.parent().unwrap()).unwrap();
    // Sample the truncation space (every 7th length keeps this case fast;
    // the exhaustive sweep lives above).
    for len in (0..bytes.len()).step_by(7) {
        std::fs::write(&v1, &bytes[..len]).unwrap();
        let report = cat.sync(&registry);
        assert!(report.adopted.is_empty());
        assert!(
            matches!(registry.lookup("fresh"), TenantLookup::NoModel),
            "corrupt-only tenant must be degraded, not served (len {len})"
        );
    }
    std::fs::remove_dir_all(cat.root()).ok();
}

/// The supervisor (not just the sync primitive) never adopts a corrupt
/// artifact: with a bit-flipped v2 on disk, the registry still serves v1
/// across many scan ticks — and picks up a valid v3 on the first scan
/// tick after it lands, not before.
#[test]
fn supervisor_keeps_last_good_across_scan_ticks() {
    let cat = tmp_catalog("supervisor");
    cat.write("t", &sample_model(1)).unwrap();
    let registry = Arc::new(registry_with_v1());
    let mut corrupt = model_bytes(&sample_model(2));
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x01;
    std::fs::write(cat.model_path("t", 2), &corrupt).unwrap();

    let interval = Duration::from_millis(5);
    let t0 = Instant::now();
    let mut supervisor = Supervisor::new(
        Arc::clone(&registry),
        Some((cat.clone(), interval)),
        None,
        t0,
    )
    .unwrap();
    // Many scan ticks over the corrupt artifact…
    let mut now = t0;
    for _ in 0..12 {
        let report = supervisor.tick(now).expect("a scan is due every interval");
        assert!(report.adopted.is_empty(), "{report:?}");
        assert_eq!(registry.current_version("t"), Some(1));
        now += interval;
    }

    // …then a valid v3 lands (crash-safe write): a tick before the next
    // scan is due adopts nothing, the scan tick adopts it.
    cat.write("t", &sample_model(3)).unwrap();
    assert!(supervisor.tick(now - Duration::from_millis(1)).is_none());
    assert_eq!(registry.current_version("t"), Some(1));
    let report = supervisor.tick(now).expect("scan due");
    assert_eq!(report.adopted, vec![("t".to_string(), 3)]);
    assert_eq!(registry.current_version("t"), Some(3));
    std::fs::remove_dir_all(cat.root()).ok();
}

//! Property tests for the positional symbol index (seeded harness, see
//! `common`).
//!
//! The index's whole contract is *bit-identity*: a [`SkipPlan`] may only
//! skip sequences whose match is provably exactly `0.0` (a concrete probe
//! symbol with no compatible observation, or a sequence shorter than the
//! probe), and every skipped sequence still counts in the Def-3.7
//! denominator, so the indexed scan returns the exact `Vec<f64>` of the
//! full scan — at any thread count, under either kernel, for any matrix
//! sparsity. These suites drive that contract on random sparse matrices
//! (the regime where skips actually fire), wildcard-heavy and gapped
//! batches, and the full three-phase miner, then cover the NMIDX sidecar's
//! persistence story: build/load round-trips through format v1 and v2
//! databases, stale-sidecar detection after the database changes
//! underneath, and binding to a quarantined view of a corrupted database.

mod common;

use common::{random_matrix, random_pattern, random_sequences, run_cases};
use noisemine::core::matching::{sequence_match, try_db_match_many, SequenceScan};
use noisemine::core::miner::{mine, MinerConfig};
use noisemine::core::{
    CompatibilityMatrix, IndexMode, MatchKernel, Pattern, PatternElem, SkipPlan, Symbol,
    SymbolIndex, SymbolIndexBuilder,
};
use noisemine::datagen::sparse_random_matrix;
use noisemine::seqdb::{load_validated, sidecar_path, DiskDb, DiskDbWriter, FaultPolicy, MemoryDb};
use rand::rngs::StdRng;
use rand::Rng;

const M: usize = 8;
const CASES: usize = 64;

/// A matrix biased toward sparsity — the regime the index exists for.
/// Identity and sparse matrices make skips fire; the occasional dense
/// matrix checks that the plan degrades to "visit everything" without
/// changing a bit.
fn random_index_matrix(rng: &mut StdRng, m: usize) -> CompatibilityMatrix {
    match rng.gen_range(0..4u8) {
        0 => CompatibilityMatrix::identity(m),
        1 | 2 => sparse_random_matrix(m, rng.gen_range(0.0..0.4), 0.7, rng.gen()),
        _ => random_matrix(rng, m, 0.01),
    }
}

/// A random probe batch mixing the short wildcard patterns of the common
/// generator with longer wildcard-heavy ones (concrete endpoints, up to
/// 60% `*` inside) — wildcards never constrain the plan, so heavy use
/// stresses the "length filter only" degenerate case.
fn random_batch(rng: &mut StdRng, m: usize, count: usize) -> Vec<Pattern> {
    (0..count)
        .map(|_| {
            if rng.gen_bool(0.5) {
                random_pattern(rng, m)
            } else {
                let len = rng.gen_range(2..10usize);
                let mut elems: Vec<PatternElem> = (0..len)
                    .map(|_| {
                        if rng.gen_bool(0.6) {
                            PatternElem::Any
                        } else {
                            PatternElem::Sym(Symbol(rng.gen_range(0..m as u16)))
                        }
                    })
                    .collect();
                let n = elems.len();
                elems[0] = PatternElem::Sym(Symbol(rng.gen_range(0..m as u16)));
                elems[n - 1] = PatternElem::Sym(Symbol(rng.gen_range(0..m as u16)));
                Pattern::new(elems).expect("endpoints are concrete")
            }
        })
        .collect()
}

fn build_index(sequences: &[Vec<Symbol>], m: usize) -> SymbolIndex {
    let mut builder = SymbolIndexBuilder::new(m);
    for seq in sequences {
        builder.add_sequence(seq);
    }
    builder.finish()
}

fn assert_bit_identical(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{what}: pattern {i} diverged: indexed {g:e} vs full {w:e}"
        );
    }
}

/// The core contract: the indexed scan returns exactly the full scan's
/// bits for random sparse matrices and wildcard-heavy batches, under both
/// kernels, at one worker and at four.
#[test]
fn indexed_scan_is_bit_identical_to_full_scan() {
    run_cases(CASES, |rng| {
        let sequences = random_sequences(rng, M, 25, 1, 16);
        let db = MemoryDb::from_sequences(sequences.clone());
        let index = build_index(&sequences, M);
        let count = rng.gen_range(1..16usize);
        let patterns = random_batch(rng, M, count);
        let matrix = random_index_matrix(rng, M);
        let plan = SkipPlan::build(&index, &patterns, &matrix);
        let reference =
            try_db_match_many(&patterns, &db, &matrix, 1, MatchKernel::Naive, None).unwrap();
        for kernel in [MatchKernel::Naive, MatchKernel::Trie] {
            for threads in [1, 4] {
                let got = try_db_match_many(&patterns, &db, &matrix, threads, kernel, Some(&plan))
                    .unwrap();
                assert_bit_identical(
                    &got,
                    &reference,
                    &format!("{} @ {threads} thread(s)", kernel.name()),
                );
            }
        }
    });
}

/// Soundness, stated directly: the plan never skips a sequence whose true
/// match against *any* probe in the batch is non-zero. (The converse is
/// allowed — a visited sequence may still match at 0.0; that is a false
/// positive the scan resolves.)
#[test]
fn plan_never_skips_a_matching_sequence() {
    run_cases(CASES, |rng| {
        let sequences = random_sequences(rng, M, 25, 1, 16);
        let index = build_index(&sequences, M);
        let count = rng.gen_range(1..12usize);
        let patterns = random_batch(rng, M, count);
        let matrix = random_index_matrix(rng, M);
        let plan = SkipPlan::build(&index, &patterns, &matrix);
        for (ordinal, seq) in sequences.iter().enumerate() {
            let best = patterns
                .iter()
                .map(|p| sequence_match(p, seq, &matrix))
                .fold(0.0f64, f64::max);
            if best > 0.0 {
                assert!(
                    plan.is_candidate(ordinal),
                    "sequence {ordinal} matches at {best:e} but the plan skipped it"
                );
            }
        }
    });
}

/// Ordinals beyond the index's coverage are always candidates — an index
/// built over a shorter prefix of the database (appends since build) can
/// only lose skips, never answers.
#[test]
fn ordinals_beyond_coverage_are_candidates() {
    run_cases(24, |rng| {
        let sequences = random_sequences(rng, M, 25, 2, 16);
        let covered = rng.gen_range(1..sequences.len());
        let index = build_index(&sequences[..covered], M);
        let count = rng.gen_range(1..8usize);
        let patterns = random_batch(rng, M, count);
        let matrix = random_index_matrix(rng, M);
        let plan = SkipPlan::build(&index, &patterns, &matrix);
        for ordinal in covered..sequences.len() + 3 {
            assert!(
                plan.is_candidate(ordinal),
                "uncovered ordinal {ordinal} must be a candidate (coverage {covered})"
            );
        }
    });
}

/// The index is purely operational: the full three-phase miner returns the
/// same frequent patterns with the same match-estimate bits whether the
/// index is off or built-and-used.
#[test]
fn miner_output_identical_with_index() {
    run_cases(24, |rng| {
        let db = MemoryDb::from_sequences(random_sequences(rng, M, 10, 3, 12));
        // Sparse matrices only: they are the regime where the plan actually
        // skips (the scan-level suite already covers dense matrices), and a
        // dense matrix with a low threshold makes the *miner's* frontier
        // explode — a cost property unrelated to the index. The pattern
        // space is kept small for the same reason: with a handful of
        // sequences the Chernoff band is wide and phase 2 cannot prune, so
        // the sample lattice enumerates most of the space.
        let matrix = if rng.gen_bool(0.4) {
            CompatibilityMatrix::identity(M)
        } else {
            sparse_random_matrix(M, rng.gen_range(0.0..0.3), 0.8, rng.gen())
        };
        let min_match = rng.gen_range(0.15..0.5);
        let max_gap = rng.gen_range(0..2usize);
        let cfg = |index| MinerConfig {
            min_match,
            delta: 0.05,
            sample_size: db.num_sequences(),
            space: noisemine::core::PatternSpace::new(max_gap, 4).expect("valid space"),
            seed: 7,
            index,
            ..MinerConfig::default()
        };
        let off = mine(&db, &matrix, &cfg(IndexMode::Off)).unwrap();
        let on = mine(&db, &matrix, &cfg(IndexMode::Build)).unwrap();
        assert_eq!(
            off.frequent.len(),
            on.frequent.len(),
            "pattern count diverged"
        );
        for (a, b) in off.frequent.iter().zip(&on.frequent) {
            assert_eq!(a.pattern, b.pattern, "pattern set diverged");
            assert!(
                a.match_estimate.to_bits() == b.match_estimate.to_bits(),
                "{}: estimate diverged: {:e} vs {:e}",
                a.pattern,
                a.match_estimate,
                b.match_estimate
            );
        }
        assert_eq!(
            off.border.elements(),
            on.border.elements(),
            "border diverged"
        );
    });
}

fn tmp(name: &str, case: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "noisemine-prop-index-{}-{name}-{case}.nmdb",
        std::process::id()
    ))
}

/// The NMIDX sidecar round-trips through both database formats: build,
/// persist, load-validated returns the identical index (v2 binds to the
/// whole-file checksum; v1 has none and binds to length + count).
#[test]
fn sidecar_round_trips_through_v1_and_v2_databases() {
    let mut case = 0u64;
    run_cases(24, |rng| {
        case += 1;
        let sequences = random_sequences(rng, M, 25, 1, 16);
        for v1 in [false, true] {
            let path = tmp(if v1 { "v1" } else { "v2" }, case);
            let mut w = if v1 {
                DiskDbWriter::create_v1(&path).unwrap()
            } else {
                DiskDbWriter::create(&path).unwrap()
            };
            for (i, seq) in sequences.iter().enumerate() {
                w.write_sequence(i as u64, seq).unwrap();
            }
            let db = w.finish().unwrap();
            let built = noisemine::seqdb::index::ensure_index(&db, M).unwrap();
            assert_eq!(built.num_sequences(), sequences.len());
            let loaded = load_validated(&db)
                .unwrap()
                .expect("freshly built sidecar must validate");
            assert_eq!(loaded, built, "sidecar round-trip changed the index");
            std::fs::remove_file(sidecar_path(&path)).ok();
            std::fs::remove_file(&path).ok();
        }
    });
}

/// Rewriting the database underneath its sidecar — or corrupting the
/// sidecar itself — must be detected: `load_validated` reports "no usable
/// index" rather than serving stale postings.
#[test]
fn stale_or_corrupt_sidecar_is_detected() {
    let mut case = 0u64;
    run_cases(24, |rng| {
        case += 1;
        let path = tmp("stale", case);
        let sequences = random_sequences(rng, M, 25, 2, 16);
        let db = DiskDb::create_from(&path, sequences.iter().map(Vec::as_slice)).unwrap();
        noisemine::seqdb::index::ensure_index(&db, M).unwrap();

        // Rewrite the database with different contents: the old sidecar no
        // longer describes the file and must be rejected.
        let mut changed = sequences.clone();
        changed.push(vec![Symbol(0); rng.gen_range(1..20usize)]);
        let db2 = DiskDb::create_from(&path, changed.iter().map(Vec::as_slice)).unwrap();
        assert!(
            load_validated(&db2).unwrap().is_none(),
            "sidecar for the old database contents must read as stale"
        );

        // Rebuild for the new contents, then corrupt one sidecar byte: the
        // whole-file checksum must reject it (again as "rebuild", not an
        // error).
        noisemine::seqdb::index::ensure_index(&db2, M).unwrap();
        let sp = sidecar_path(&path);
        let mut bytes = std::fs::read(&sp).unwrap();
        let target = bytes.len() / 2;
        bytes[target] ^= 0x40;
        std::fs::write(&sp, &bytes).unwrap();
        assert!(
            load_validated(&db2).unwrap().is_none(),
            "corrupted sidecar must read as stale, not load"
        );
        std::fs::remove_file(sp).ok();
        std::fs::remove_file(&path).ok();
    });
}

/// Quarantine interplay: a sidecar built over the pristine database is
/// stale for a quarantined view of the corrupted file (different survivor
/// set), and the rebuilt sidecar binds to that view — covering exactly the
/// surviving sequences.
#[test]
fn sidecar_binds_to_the_quarantined_view() {
    let mut case = 0u64;
    run_cases(12, |rng| {
        case += 1;
        let path = tmp("quarantine", case);
        // Enough payload that a mid-file byte flip lands inside a record.
        let sequences: Vec<Vec<Symbol>> = (0..24)
            .map(|_| {
                (0..rng.gen_range(12..25usize))
                    .map(|_| Symbol(rng.gen_range(0..M as u16)))
                    .collect()
            })
            .collect();
        let db = DiskDb::create_from(&path, sequences.iter().map(Vec::as_slice)).unwrap();
        noisemine::seqdb::index::ensure_index(&db, M).unwrap();
        drop(db);

        // Flip a byte in the middle of the file: some record's checksum now
        // fails and the quarantine census drops it.
        let mut bytes = std::fs::read(&path).unwrap();
        let target = bytes.len() / 2;
        bytes[target] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let db = DiskDb::open_with_policy(&path, FaultPolicy::Quarantine).unwrap();
        assert!(
            !db.quarantined().is_empty(),
            "mid-file corruption should quarantine at least one record"
        );
        assert!(
            load_validated(&db).unwrap().is_none(),
            "pristine-view sidecar must be stale for the quarantined view"
        );
        let rebuilt = noisemine::seqdb::index::ensure_index(&db, M).unwrap();
        assert_eq!(
            rebuilt.num_sequences(),
            db.num_sequences(),
            "rebuilt sidecar must cover exactly the surviving sequences"
        );
        // A second handle with the same policy sees the same census and
        // accepts the rebuilt sidecar.
        let again = DiskDb::open_with_policy(&path, FaultPolicy::Quarantine).unwrap();
        assert_eq!(
            load_validated(&again).unwrap().as_ref(),
            Some(&rebuilt),
            "deterministic census must validate the quarantined-view sidecar"
        );
        std::fs::remove_file(sidecar_path(&path)).ok();
        std::fs::remove_file(&path).ok();
    });
}

//! Chaos suite: seeded, deterministic fault injection against the disk
//! scan path, proving the contract of each [`FaultPolicy`]:
//!
//! - **Strict** surfaces the *first* fault, with the offending record's
//!   byte offset;
//! - **Retry** converges on flaky-but-recoverable stores with zero output
//!   difference from a clean run;
//! - **Quarantine** mines bit-identically to a clean run over the
//!   surviving subset, at any thread count;
//! - NMSEQDB v2 detects **every** injected single-bit corruption.

use noisemine_core::matching::SequenceScan;
use noisemine_core::miner::{mine, MinerConfig};
use noisemine_core::{CompatibilityMatrix, PatternSpace, ScanErrorKind, Symbol};
use noisemine_seqdb::{DiskDb, DiskDbWriter, FaultPlan, FaultPolicy, FaultyStore};
use std::time::Duration;

/// Header length, v2 record-head length (id + len + crc) — mirrors the
/// documented format, independently of the implementation's constants.
const HEADER: u64 = 20;
const REC_HEAD: u64 = 16;
/// Symbols per test sequence; each record is `REC_HEAD + 2 * SEQ_LEN`.
const SEQ_LEN: u64 = 5;
const REC: u64 = REC_HEAD + 2 * SEQ_LEN;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("noisemine-chaos-{}-{name}", std::process::id()))
}

fn sequences(n: u16) -> Vec<Vec<Symbol>> {
    (0..n)
        .map(|i| (0..SEQ_LEN as u16).map(|j| Symbol((i + j) % 5)).collect())
        .collect()
}

fn build_db(name: &str, seqs: &[Vec<Symbol>]) -> std::path::PathBuf {
    let path = tmp(name);
    DiskDb::create_from(&path, seqs.iter().map(Vec::as_slice)).unwrap();
    path
}

fn collect<S: SequenceScan>(db: &S) -> Vec<(u64, Vec<Symbol>)> {
    let mut out = Vec::new();
    db.try_scan(&mut |id, s| out.push((id, s.to_vec())))
        .unwrap();
    out
}

fn miner_config(threads: usize) -> MinerConfig {
    MinerConfig {
        min_match: 0.2,
        delta: 0.05,
        sample_size: 16,
        counters_per_scan: 10,
        space: PatternSpace::contiguous(3),
        seed: 42,
        threads,
        ..MinerConfig::default()
    }
}

/// First-byte offset of record `k`'s data section.
fn data_offset(k: u64) -> u64 {
    HEADER + k * REC + REC_HEAD
}

// ---------------------------------------------------------------- Strict

#[test]
fn strict_surfaces_first_fault_with_offset() {
    let seqs = sequences(10);
    let path = build_db("strict-offset.nmdb", &seqs);
    // Corrupt records 3 and 7; Strict must report record 3 — the first.
    let plan = FaultPlan::new()
        .flip_bit(data_offset(3) * 8 + 2)
        .flip_bit(data_offset(7) * 8 + 5);
    let store = FaultyStore::open(&path, plan, FaultPolicy::Strict).unwrap();
    let err = store.try_scan(&mut |_, _| {}).unwrap_err();
    assert_eq!(err.kind(), ScanErrorKind::Corrupt);
    assert_eq!(err.record(), Some(3));
    assert_eq!(err.offset(), Some(HEADER + 3 * REC));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn strict_fails_fast_on_transients() {
    let seqs = sequences(10);
    let path = build_db("strict-transient.nmdb", &seqs);
    // The open reads the header alone, so it never reaches the site. The
    // site heals after one failure, so a single retry would get past it:
    // the first scan failing on it proves Strict grants zero retries.
    let plan = FaultPlan::new().transient_at(HEADER + 2 * REC, 1);
    let store = FaultyStore::open(&path, plan, FaultPolicy::Strict).unwrap();
    let err = store.try_scan(&mut |_, _| {}).unwrap_err();
    assert_eq!(err.kind(), ScanErrorKind::Transient, "{err}");
    assert!(err.to_string().contains("transient"), "{err}");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn strict_detects_truncation() {
    let seqs = sequences(10);
    let path = build_db("strict-trunc.nmdb", &seqs);
    let plan = FaultPlan::new().truncate(HEADER + 5 * REC + 3);
    let store = FaultyStore::open(&path, plan, FaultPolicy::Strict).unwrap();
    let err = store.try_scan(&mut |_, _| {}).unwrap_err();
    assert!(
        matches!(
            err.kind(),
            ScanErrorKind::Corrupt | ScanErrorKind::Truncated
        ),
        "{err}"
    );
    std::fs::remove_file(&path).unwrap();
}

// ----------------------------------------------------------------- Retry

#[test]
fn retry_converges_with_zero_output_difference() {
    let seqs = sequences(40);
    let path = build_db("retry-converge.nmdb", &seqs);
    let clean = DiskDb::open(&path).unwrap();
    let expected = collect(&clean);

    // Seeded random transient sites (each heals after 1–2 failures), no
    // corruption: a flaky-but-recoverable store. The retry budget is per
    // read, and one buffered read can cover several sites, so it must
    // exceed the worst-case stack of failures (6 sites × 2 fails).
    let file_len = std::fs::metadata(&path).unwrap().len();
    for seed in [1u64, 7, 99] {
        let plan = FaultPlan::random(seed, file_len, 6, 0);
        let store = FaultyStore::open(
            &path,
            plan,
            FaultPolicy::Retry {
                attempts: 16,
                backoff: Duration::ZERO,
            },
        )
        .unwrap();
        assert_eq!(collect(&store), expected, "seed {seed}");
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn retry_mines_identically_to_clean_store() {
    let seqs = sequences(40);
    let path = build_db("retry-mine.nmdb", &seqs);
    let matrix = CompatibilityMatrix::paper_figure2();
    let clean = DiskDb::open(&path).unwrap();
    let expected = mine(&clean, &matrix, &miner_config(0)).unwrap();

    let file_len = std::fs::metadata(&path).unwrap().len();
    let plan = FaultPlan::random(5, file_len, 4, 0);
    let store = FaultyStore::open(
        &path,
        plan,
        FaultPolicy::Retry {
            attempts: 16,
            backoff: Duration::ZERO,
        },
    )
    .unwrap();
    let outcome = mine(&store, &matrix, &miner_config(0)).unwrap();
    assert_eq!(
        format!("{:?}", outcome.frequent),
        format!("{:?}", expected.frequent)
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn retry_exhaustion_surfaces_the_fault() {
    let seqs = sequences(10);
    let path = build_db("retry-exhaust.nmdb", &seqs);
    // A site that fails more times than the budget allows: the fault
    // outlives every retry and surfaces as a transient error at the first
    // scan (the open reads the header alone).
    let plan = FaultPlan::new().transient_at(HEADER + REC, 10);
    let store = FaultyStore::open(
        &path,
        plan,
        FaultPolicy::Retry {
            attempts: 2,
            backoff: Duration::ZERO,
        },
    )
    .unwrap();
    let err = store.try_scan(&mut |_, _| {}).unwrap_err();
    assert_eq!(err.kind(), ScanErrorKind::Transient, "{err}");
    assert!(err.to_string().contains("transient"), "{err}");
    std::fs::remove_file(&path).unwrap();
}

// ------------------------------------------------------------ Quarantine

#[test]
fn quarantine_mines_bit_identically_to_clean_subset_at_any_thread_count() {
    let seqs = sequences(60);
    let path = build_db("quarantine-mine.nmdb", &seqs);
    // Corrupt records 7 and 23.
    let plan = FaultPlan::new()
        .flip_bit(data_offset(7) * 8 + 1)
        .flip_bit(data_offset(23) * 8 + 9);
    let store = FaultyStore::open(&path, plan, FaultPolicy::Quarantine).unwrap();
    assert_eq!(store.num_sequences(), 58);
    assert_eq!(store.db().quarantined().len(), 2);

    // The clean comparison run: a database holding only the survivors.
    let survivors: Vec<Vec<Symbol>> = seqs
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 7 && *i != 23)
        .map(|(_, s)| s.clone())
        .collect();
    let clean_path = build_db("quarantine-clean.nmdb", &survivors);
    let clean = DiskDb::open(&clean_path).unwrap();

    let matrix = CompatibilityMatrix::paper_figure2();
    let reference = mine(&clean, &matrix, &miner_config(1)).unwrap();
    for threads in [1usize, 4] {
        let outcome = mine(&store, &matrix, &miner_config(threads)).unwrap();
        assert_eq!(
            format!("{:?}", outcome.frequent),
            format!("{:?}", reference.frequent),
            "threads {threads}"
        );
        let clean_t = mine(&clean, &matrix, &miner_config(threads)).unwrap();
        assert_eq!(
            format!("{:?}", clean_t.frequent),
            format!("{:?}", reference.frequent),
            "clean at threads {threads}"
        );
    }
    std::fs::remove_file(&path).unwrap();
    std::fs::remove_file(&clean_path).unwrap();
}

#[test]
fn quarantine_resynchronizes_and_reports_skips() {
    let seqs = sequences(12);
    let path = build_db("quarantine-resync.nmdb", &seqs);
    let plan = FaultPlan::new().flip_bit(data_offset(4) * 8);
    let store = FaultyStore::open(&path, plan, FaultPolicy::Quarantine).unwrap();
    let q = store.db().quarantined();
    assert_eq!(q.len(), 1);
    assert_eq!(q[0].offset, HEADER + 4 * REC);
    // Resynchronization lands exactly on the next record: one record's
    // worth of bytes skipped.
    assert_eq!(q[0].skipped, REC);
    let visited = collect(&store);
    assert_eq!(visited.len(), 11);
    assert!(visited.iter().all(|(id, _)| *id != 4));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn quarantine_survives_truncation() {
    let seqs = sequences(10);
    let path = build_db("quarantine-trunc.nmdb", &seqs);
    // Cut mid-way through record 6: records 0–5 survive.
    let plan = FaultPlan::new().truncate(HEADER + 6 * REC + 3);
    let store = FaultyStore::open(&path, plan, FaultPolicy::Quarantine).unwrap();
    assert_eq!(store.num_sequences(), 6);
    let visited = collect(&store);
    assert_eq!(visited.len(), 6);
    assert_eq!(visited.last().unwrap().0, 5);
    std::fs::remove_file(&path).unwrap();
}

// ----------------------------------------------- single-bit detection

/// The v2 acceptance bar: flipping *any* single bit of a finished file is
/// detected — at open (header damage) or by a strict scan (everything
/// else). 100%, no exceptions.
#[test]
fn v2_detects_every_single_bit_flip() {
    let seqs = sequences(3);
    let path = build_db("bitflip-all.nmdb", &seqs);
    let file_len = std::fs::metadata(&path).unwrap().len();
    let mut undetected = Vec::new();
    for bit in 0..file_len * 8 {
        let plan = FaultPlan::new().flip_bit(bit);
        match FaultyStore::open(&path, plan, FaultPolicy::Strict) {
            Err(_) => {} // detected at open
            Ok(store) => {
                if store.try_scan(&mut |_, _| {}).is_ok() {
                    undetected.push(bit);
                }
            }
        }
    }
    assert!(
        undetected.is_empty(),
        "{} of {} bit flips undetected: {undetected:?}",
        undetected.len(),
        file_len * 8
    );
    std::fs::remove_file(&path).unwrap();
}

// ----------------------------------------------------- v1 compatibility

#[test]
fn v1_file_scans_bit_identically_through_v2_reader() {
    let seqs = sequences(15);
    let v1_path = tmp("compat-v1.nmdb");
    let mut w = DiskDbWriter::create_v1(&v1_path).unwrap();
    for (i, s) in seqs.iter().enumerate() {
        w.write_sequence(i as u64, s).unwrap();
    }
    let v1 = w.finish().unwrap();
    assert_eq!(v1.version(), 1);

    let v2_path = build_db("compat-v2.nmdb", &seqs);
    let v2 = DiskDb::open(&v2_path).unwrap();
    assert_eq!(collect(&v1), collect(&v2));

    // And the mining outcome over a v1 store equals the v2 one, bit for bit.
    let matrix = CompatibilityMatrix::paper_figure2();
    let from_v1 = mine(&v1, &matrix, &miner_config(0)).unwrap();
    let from_v2 = mine(&v2, &matrix, &miner_config(0)).unwrap();
    assert_eq!(
        format!("{:?}", from_v1.frequent),
        format!("{:?}", from_v2.frequent)
    );
    std::fs::remove_file(&v1_path).unwrap();
    std::fs::remove_file(&v2_path).unwrap();
}

#[test]
fn v2_append_round_trips_with_fresh_footer() {
    let seqs = sequences(8);
    let path = build_db("append-v2.nmdb", &seqs[..5]);
    let mut w = DiskDbWriter::append(&path).unwrap();
    assert_eq!(w.count(), 5);
    for (i, s) in seqs[5..].iter().enumerate() {
        w.write_sequence(5 + i as u64, s).unwrap();
    }
    let db = w.finish().unwrap();
    assert_eq!(db.num_sequences(), 8);
    // The extended file passes full strict validation (footer + file CRC
    // were rewritten), and yields all sequences in order.
    let visited = collect(&db);
    assert_eq!(visited.len(), 8);
    for (i, (id, s)) in visited.iter().enumerate() {
        assert_eq!(*id, i as u64);
        assert_eq!(s, &seqs[i]);
    }
    std::fs::remove_file(&path).unwrap();
}

//! Chunked appends and tail reads of an append-only log.
//!
//! [`DiskDbWriter::append`] finds the end of a finished v2 file from its
//! footer and extends the whole-file CRC from the stored value;
//! [`DiskDbWriter::finish`] folds the new header count in without reading
//! the file back; and `StreamState::ingest_from` on the returned [`DiskDb`]
//! reads only the appended records. This suite pins what those shortcuts
//! must not change:
//!
//! - a log built chunk by chunk is byte-identical to a one-shot write, v1
//!   and v2, and tail ingestion gives the same engine as ingesting
//!   everything at once (a property over random chunkings);
//! - files the footer cannot vouch for (torn tail, footer count ≠ header
//!   count) take the head-walk fallback and are repaired as before;
//! - a tail read checks every new byte, and leaves old records to the next
//!   full strict scan.
//!
//! `NOISEMINE_PROPTEST_CASES=<n>` overrides the property's case count.

use noisemine_core::matching::SequenceScan;
use noisemine_core::miner::MinerConfig;
use noisemine_core::{CompatibilityMatrix, PatternSpace, ScanErrorKind, Symbol};
use noisemine_seqdb::{DiskDb, DiskDbWriter};
use noisemine_stream::StreamState;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Header and footer lengths and the v2 record head, as documented.
const HEADER: usize = 20;
const FOOTER: usize = 20;
const REC_HEAD: usize = 16;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("noisemine-tail-{}-{name}", std::process::id()))
}

fn config() -> MinerConfig {
    MinerConfig {
        min_match: 0.2,
        delta: 0.05,
        sample_size: 6,
        counters_per_scan: 10,
        space: PatternSpace::contiguous(3),
        seed: 42,
        ..MinerConfig::default()
    }
}

fn random_sequences(rng: &mut StdRng, n: usize, m: u16) -> Vec<Vec<Symbol>> {
    (0..n)
        .map(|_| {
            let len = rng.gen_range(0..12usize);
            (0..len).map(|_| Symbol(rng.gen_range(0..m))).collect()
        })
        .collect()
}

fn writer(path: &std::path::Path, v1: bool) -> DiskDbWriter {
    if v1 {
        DiskDbWriter::create_v1(path).unwrap()
    } else {
        DiskDbWriter::create(path).unwrap()
    }
}

fn write_all(mut w: DiskDbWriter, seqs: &[Vec<Symbol>]) -> DiskDb {
    for s in seqs {
        let id = w.count();
        w.write_sequence(id, s).unwrap();
    }
    w.finish().unwrap()
}

/// Writes `seqs` in one go.
fn one_shot(path: &std::path::Path, v1: bool, seqs: &[Vec<Symbol>]) -> DiskDb {
    write_all(writer(path, v1), seqs)
}

/// Appends `seqs` to the finished file at `path`.
fn append(path: &std::path::Path, seqs: &[Vec<Symbol>]) -> DiskDb {
    write_all(DiskDbWriter::append(path).unwrap(), seqs)
}

fn visits(db: &DiskDb, skip: u64) -> Result<Vec<(u64, Vec<Symbol>)>, ScanErrorKind> {
    let mut out = Vec::new();
    db.try_scan_from(skip, &mut |id, s| out.push((id, s.to_vec())))
        .map_err(|e| e.kind())?;
    Ok(out)
}

fn checkpoint_bytes(state: &StreamState, name: &str) -> Vec<u8> {
    let path = tmp(name);
    state.checkpoint(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn cases(default: usize) -> usize {
    std::env::var("NOISEMINE_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[test]
fn chunked_appends_and_tail_ingestion_equal_one_shot() {
    for case in 0..cases(32) {
        let seed = 0x7A11_u64 ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut rng = StdRng::seed_from_u64(seed);
        let v1 = case % 2 == 1;
        let m = rng.gen_range(2..7u16);
        let matrix = CompatibilityMatrix::uniform_noise(m as usize, 0.1).unwrap();
        let n = rng.gen_range(0..300usize);
        let seqs = random_sequences(&mut rng, n, m);
        let (whole, chunked) = (tmp("whole.db"), tmp("chunked.db"));
        one_shot(&whole, v1, &seqs);

        let mut engine = StreamState::new(matrix.clone(), config()).unwrap();
        let mut at = 0;
        let mut first = true;
        while first || at < seqs.len() {
            let end = (at + rng.gen_range(0..80usize)).min(seqs.len());
            let db = if first {
                one_shot(&chunked, v1, &seqs[at..end])
            } else {
                append(&chunked, &seqs[at..end])
            };
            let ingested = engine.ingest_from(&db, engine.total_seen()).unwrap();
            assert_eq!(ingested, (end - at) as u64, "case {case} (seed {seed:#x})");
            assert_eq!(db.scans_performed(), 1, "a tail read is one scan");
            at = end;
            first = false;
        }
        assert_eq!(
            std::fs::read(&chunked).unwrap(),
            std::fs::read(&whole).unwrap(),
            "case {case} (seed {seed:#x}, v1 {v1}): chunked file differs"
        );

        let mut batch = StreamState::new(matrix, config()).unwrap();
        batch.ingest_all(&seqs);
        assert_eq!(bits(&engine.symbol_match()), bits(&batch.symbol_match()));
        assert_eq!(
            checkpoint_bytes(&engine, "tail.ckpt"),
            checkpoint_bytes(&batch, "batch.ckpt"),
            "case {case} (seed {seed:#x}): checkpoints differ"
        );
        std::fs::remove_file(&whole).unwrap();
        std::fs::remove_file(&chunked).unwrap();
    }
}

fn fixture(rng_seed: u64, n: usize) -> Vec<Vec<Symbol>> {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    (0..n)
        .map(|_| {
            (0..rng.gen_range(1..8usize))
                .map(|_| Symbol(rng.gen_range(0..5u16)))
                .collect()
        })
        .collect()
}

/// Appending to a damaged first half, then comparing with a one-shot write
/// of what the head walk keeps plus the new half.
fn assert_repaired(name: &str, damage: impl Fn(&mut Vec<u8>), kept: usize) {
    let seqs = fixture(1, 12);
    let (old, new) = seqs.split_at(6);
    let path = tmp(name);
    one_shot(&path, false, old);
    let mut bytes = std::fs::read(&path).unwrap();
    damage(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();
    let mut w = DiskDbWriter::append(&path).unwrap();
    for s in new {
        let id = w.count();
        w.write_sequence(id, s).unwrap();
    }
    w.finish().unwrap();

    let expected = tmp(&format!("{name}.expected"));
    let mut w = DiskDbWriter::create(&expected).unwrap();
    for (i, s) in old[..kept].iter().enumerate() {
        w.write_sequence(i as u64, s).unwrap();
    }
    for (i, s) in new.iter().enumerate() {
        w.write_sequence((kept + i) as u64, s).unwrap();
    }
    w.finish().unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(&expected).unwrap(),
        "{name}"
    );
    let db = DiskDb::open(&path).unwrap();
    assert_eq!(visits(&db, 0).unwrap().len(), kept + new.len());
    std::fs::remove_file(&path).unwrap();
    std::fs::remove_file(&expected).unwrap();
}

#[test]
fn append_without_a_trusted_footer_walks_the_heads() {
    // Torn tail: the footer is gone (a crash between append and finish).
    assert_repaired("torn.db", |b| b.truncate(b.len() - FOOTER), 6);
    // A footer followed by junk no longer ends the file.
    assert_repaired("junk.db", |b| b.extend_from_slice(&[0xde, 0xad]), 6);
    // The footer's count disagrees with the header's: the header counts.
    assert_repaired(
        "footer-count.db",
        |b| {
            let at = b.len() - FOOTER + 8;
            b[at] ^= 0x01;
        },
        6,
    );
    assert_repaired(
        "header-count.db",
        |b| b[12..20].copy_from_slice(&4u64.to_le_bytes()),
        4,
    );
}

#[test]
fn tail_scan_checks_new_records_and_the_footer() {
    let seqs = fixture(2, 10);
    let path = tmp("tail-flips.db");
    one_shot(&path, false, &seqs[..6]);
    let db = append(&path, &seqs[6..]);
    let clean = std::fs::read(&path).unwrap();
    let expected: Vec<(u64, Vec<Symbol>)> = (6..10).map(|i| (i as u64, seqs[i].clone())).collect();
    assert_eq!(visits(&db, 6).unwrap(), expected);

    // First byte of record 6's data, then every footer field.
    let record6 = HEADER + (0..6).map(|i| REC_HEAD + 2 * seqs[i].len()).sum::<usize>();
    let footer = clean.len() - FOOTER;
    for at in [record6 + REC_HEAD, record6, footer, footer + 8, footer + 16] {
        let mut bytes = clean.clone();
        bytes[at] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(
            visits(&db, 6).map(|_| ()),
            Err(ScanErrorKind::Corrupt),
            "flip at byte {at} of {}",
            clean.len()
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn tail_scan_leaves_old_records_to_the_next_full_scan() {
    let seqs = fixture(3, 10);
    let path = tmp("tail-old.db");
    one_shot(&path, false, &seqs[..6]);
    let db = append(&path, &seqs[6..]);
    // Flip a data bit of record 0: the tail read never reads it.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[HEADER + REC_HEAD] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(visits(&db, 6).unwrap().len(), 4);
    let full = db.try_scan(&mut |_, _| {}).unwrap_err();
    assert_eq!(full.kind(), ScanErrorKind::Corrupt);
    assert_eq!(full.record(), Some(0));
    // Skipping anything but the writer's first index is a full scan, which
    // reads record 0 too.
    assert_eq!(visits(&db, 5), Err(ScanErrorKind::Corrupt));
    assert_eq!(visits(&db, 7), Err(ScanErrorKind::Corrupt));
    assert_eq!(db.scans_performed(), 4);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn tail_scan_falls_back_when_the_file_moved_on() {
    let seqs = fixture(4, 12);
    let path = tmp("tail-stale.db");
    one_shot(&path, false, &seqs[..4]);
    let stale = append(&path, &seqs[4..8]);
    append(&path, &seqs[8..]);
    // `stale` remembers index 4 under a header that now counts 12: its
    // tail read is a full scan that visits everything after the first 4.
    let expected: Vec<(u64, Vec<Symbol>)> = (4..12).map(|i| (i as u64, seqs[i].clone())).collect();
    assert_eq!(visits(&stale, 4).unwrap(), expected);
    // A store opened from the path has no writer to remember.
    let reopened = DiskDb::open(&path).unwrap();
    assert_eq!(visits(&reopened, 4).unwrap(), expected);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn v1_tail_scan_reads_the_appended_records() {
    let seqs = fixture(5, 9);
    let path = tmp("tail-v1.db");
    one_shot(&path, true, &seqs[..5]);
    let db = append(&path, &seqs[5..]);
    assert_eq!(db.version(), 1);
    let expected: Vec<(u64, Vec<Symbol>)> = (5..9).map(|i| (i as u64, seqs[i].clone())).collect();
    assert_eq!(visits(&db, 5).unwrap(), expected);
    std::fs::remove_file(&path).unwrap();
}

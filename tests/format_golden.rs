//! Golden bytes for every binary format the workspace writes: NMSEQDB v1
//! and v2, an NMMODEL artifact and an NMSTRCK checkpoint.
//!
//! Each case encodes a fixed small input and compares the output with
//! pinned bytes (a hex literal, or length plus CRC32C for the larger
//! outputs), then decodes it and re-encodes the result to the same bytes.
//! A refactor of any encoder or decoder that moves a single byte fails
//! here.

use std::path::PathBuf;

use noisemine::core::lattice::Border;
use noisemine::core::matching::{MemorySequences, SequenceScan as _};
use noisemine::core::miner::{FrequentPattern, MineOutcome, MineStats, MinerConfig, Provenance};
use noisemine::core::{
    Alphabet, CompatibilityMatrix, Pattern, PatternElem, PatternModel, PatternSpace, Symbol,
};
use noisemine::seqdb::crc::crc32c;
use noisemine::seqdb::{DiskDb, DiskDbWriter};
use noisemine::serve::{decode_model_file, model_bytes};
use noisemine::stream::StreamState;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("noisemine-golden-{}-{name}", std::process::id()))
}

fn syms(v: &[u16]) -> Vec<Symbol> {
    v.iter().map(|&x| Symbol(x)).collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Writes two sequences, finishes, reopens with `append`, writes a third
/// and finishes again — the log pattern of the streaming engine.
fn write_seqdb(path: &PathBuf, v1: bool) -> Vec<u8> {
    let mut w = if v1 {
        DiskDbWriter::create_v1(path).unwrap()
    } else {
        DiskDbWriter::create(path).unwrap()
    };
    w.write_sequence(0, &syms(&[1, 2, 3])).unwrap();
    w.write_sequence(7, &syms(&[])).unwrap();
    w.finish().unwrap();
    let mut w = DiskDbWriter::append(path).unwrap();
    w.write_sequence(9, &syms(&[0x0102, 0xfffe])).unwrap();
    w.finish().unwrap();
    std::fs::read(path).unwrap()
}

/// Decodes `path` and writes its records to a fresh file of the same
/// version in one pass; returns those bytes.
fn reencode_seqdb(path: &PathBuf, copy: &PathBuf) -> Vec<u8> {
    let db = DiskDb::open(path).unwrap();
    let mut records = Vec::new();
    db.try_scan(&mut |id, s| records.push((id, s.to_vec())))
        .unwrap();
    let mut w = if db.version() == 1 {
        DiskDbWriter::create_v1(copy).unwrap()
    } else {
        DiskDbWriter::create(copy).unwrap()
    };
    for (id, s) in &records {
        w.write_sequence(*id, s).unwrap();
    }
    w.finish().unwrap();
    std::fs::read(copy).unwrap()
}

fn check_seqdb(v1: bool, expected_hex: &str) {
    let tag = if v1 { "v1" } else { "v2" };
    let path = tmp(&format!("seqdb-{tag}.nmdb"));
    let copy = tmp(&format!("seqdb-{tag}-copy.nmdb"));
    let bytes = write_seqdb(&path, v1);
    assert_eq!(hex(&bytes), expected_hex, "NMSEQDB {tag} bytes moved");
    assert_eq!(
        reencode_seqdb(&path, &copy),
        bytes,
        "NMSEQDB {tag} re-encode"
    );
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&copy).ok();
}

#[test]
fn nmseqdb_v1_bytes_are_pinned() {
    check_seqdb(
        true,
        "4e4d5345514442000100000003000000000000000000000000000000030000000100020003000700\
         000000000000000000000900000000000000020000000201feff",
    );
}

#[test]
fn nmseqdb_v2_bytes_are_pinned() {
    check_seqdb(
        false,
        "4e4d5345514442000200000003000000000000000000000000000000030000003bd783f501000200\
         0300070000000000000000000000cd9935bd090000000000000002000000271cfbac0201feff4e4d\
         534551465400030000000000000015b09657",
    );
}

fn model() -> PatternModel {
    let alphabet = Alphabet::new(["a", "bb", "c", "d"]).unwrap();
    let matrix = CompatibilityMatrix::uniform_noise(4, 0.2).unwrap();
    let outcome = MineOutcome {
        frequent: vec![
            FrequentPattern {
                pattern: Pattern::contiguous(&[Symbol(0), Symbol(1), Symbol(3)]).unwrap(),
                match_estimate: 0.625,
                provenance: Provenance::Verified,
            },
            FrequentPattern {
                pattern: Pattern::new(vec![
                    PatternElem::Sym(Symbol(2)),
                    PatternElem::Any,
                    PatternElem::Sym(Symbol(1)),
                ])
                .unwrap(),
                match_estimate: 0.1875,
                provenance: Provenance::Implied,
            },
            FrequentPattern {
                pattern: Pattern::contiguous(&[Symbol(3)]).unwrap(),
                match_estimate: 0.5,
                provenance: Provenance::SampleConfident,
            },
        ],
        border: Border::default(),
        symbol_match: vec![0.5; 4],
        stats: MineStats::default(),
    };
    PatternModel::from_outcome(&outcome, &alphabet, &matrix, 0.125, 42)
}

#[test]
fn nmmodel_bytes_are_pinned() {
    let bytes = model_bytes(&model());
    assert_eq!(
        (bytes.len(), crc32c(&bytes)),
        (319, 0x4867_4bc7),
        "NMMODEL bytes moved"
    );
    let back = decode_model_file(&bytes).unwrap();
    assert_eq!(model_bytes(&back), bytes, "NMMODEL re-encode");
}

#[test]
fn nmstrck_bytes_are_pinned() {
    let matrix = CompatibilityMatrix::uniform_noise(3, 0.1).unwrap();
    let config = MinerConfig {
        min_match: 0.3,
        delta: 0.01,
        sample_size: 4,
        counters_per_scan: 16,
        space: PatternSpace::contiguous(3),
        seed: 11,
        threads: 1,
        ..MinerConfig::default()
    };
    let seqs: Vec<Vec<Symbol>> = (0..10u16)
        .map(|i| syms(&[i % 3, (i + 1) % 3, 0, (i * 2) % 3]))
        .collect();
    let mut engine = StreamState::new(matrix.clone(), config).unwrap();
    engine.ingest_all(&seqs[..7]);
    engine.mine(&MemorySequences(seqs[..7].to_vec())).unwrap();
    engine.ingest_all(&seqs[7..]);
    assert!(engine.tracked_patterns().count() > 0);

    let path = tmp("checkpoint.nmstrck");
    engine.checkpoint(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(
        (bytes.len(), crc32c(&bytes)),
        (695, 0xa45c_3b91),
        "NMSTRCK bytes moved"
    );
    let restored = StreamState::restore(&path, matrix).unwrap();
    restored.checkpoint(&path).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), bytes, "NMSTRCK re-encode");
    std::fs::remove_file(&path).ok();
}

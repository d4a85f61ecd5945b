//! NMMODEL artifact round-trip and corruption tests over a *mined* model:
//! byte-stable writes, bit-flip rejection driven by the seqdb fault
//! harness, and bit-identical loaded-model classification.

use std::path::PathBuf;

use noisemine_core::matching::{db_match_many, MemorySequences};
use noisemine_core::miner::{mine, MinerConfig};
use noisemine_core::{Alphabet, CompatibilityMatrix, PatternModel, PatternSpace, Symbol};
use noisemine_datagen::{ProteinWorkload, ProteinWorkloadConfig};
use noisemine_seqdb::{FaultPlan, MemoryDb};
use noisemine_serve::model_io::encode_payload;
use noisemine_serve::{
    classify, decode_model_file, model_bytes, read_model, write_model, ServeModel,
};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("noisemine-serve-rt-{}-{name}", std::process::id()))
}

/// Mines a small noisy protein workload into a model plus the noisy
/// database it was mined from.
fn mined_model() -> (
    PatternModel,
    Vec<Vec<Symbol>>,
    Alphabet,
    CompatibilityMatrix,
) {
    let workload = ProteinWorkload::new(ProteinWorkloadConfig {
        num_sequences: 80,
        min_len: 15,
        max_len: 25,
        num_motifs: 2,
        min_motif_len: 4,
        max_motif_len: 5,
        occurrence: 0.6,
        seed: 7,
    });
    let (noisy, matrix) = workload.uniform_test_db(0.1, 9);
    let matrix = matrix.diagonal_normalized_clamped().unwrap();
    let config = MinerConfig {
        min_match: 0.25,
        sample_size: noisy.len(),
        space: PatternSpace::new(0, 8).unwrap(),
        ..MinerConfig::default()
    };
    let db = MemoryDb::from_sequences(noisy.clone());
    let outcome = mine(&db, &matrix, &config).expect("mining succeeds");
    assert!(!outcome.frequent.is_empty(), "workload yields patterns");
    let model = PatternModel::from_outcome(&outcome, &workload.alphabet, &matrix, 0.25, 42);
    (model, noisy, workload.alphabet.clone(), matrix)
}

#[test]
fn write_read_round_trip_is_byte_stable() {
    let (model, _, _, _) = mined_model();
    let a = tmp("a.nmmodel");
    let b = tmp("b.nmmodel");
    write_model(&a, &model).unwrap();
    write_model(&b, &model).unwrap();
    let bytes_a = std::fs::read(&a).unwrap();
    let bytes_b = std::fs::read(&b).unwrap();
    assert_eq!(bytes_a, bytes_b, "writes are deterministic");
    assert_eq!(bytes_a, model_bytes(&model), "file is exactly model_bytes");

    // Read back and re-encode: the payload survives bit-for-bit.
    let back = read_model(&a).unwrap();
    assert_eq!(back.version, 42);
    assert_eq!(
        encode_payload(&back),
        encode_payload(&model),
        "payload round-trips bit-exactly"
    );
    assert_eq!(
        model_bytes(&back),
        bytes_a,
        "re-written artifact is identical"
    );

    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

#[test]
fn fault_plan_bit_flips_are_rejected_with_context() {
    let (model, _, _, _) = mined_model();
    let pristine = model_bytes(&model);
    let mut rejected = 0usize;
    for seed in 0..32u64 {
        // Reuse the seqdb fault harness to pick the corruption sites.
        let plan = FaultPlan::random(seed, pristine.len() as u64, 0, 3);
        let mut bytes = pristine.clone();
        if plan.corrupt_bytes(&mut bytes) == 0 || bytes == pristine {
            continue; // plan landed out of range — nothing corrupted
        }
        let err = decode_model_file(&bytes).expect_err("corruption must be detected");
        let msg = err.to_string();
        assert!(
            msg.contains("checksum") || msg.contains("magic") || msg.contains("truncated"),
            "error should say what failed: {msg}"
        );
        rejected += 1;
    }
    assert!(
        rejected >= 16,
        "most plans should corrupt in range ({rejected}/32)"
    );

    // Through the file path the error names the file.
    let path = tmp("corrupt.nmmodel");
    let mut bytes = pristine.clone();
    let flipped = FaultPlan::new().flip_bit(8 * 40 + 3);
    flipped.corrupt_bytes(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();
    let err = read_model(&path).expect_err("corrupt file rejected");
    let msg = err.to_string();
    assert!(
        msg.contains("corrupt.nmmodel"),
        "error names the path: {msg}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_file_is_rejected() {
    let (model, _, _, _) = mined_model();
    let bytes = model_bytes(&model);
    // Deep truncation (below the fixed framing) names the cause outright.
    let err = decode_model_file(&bytes[..10]).expect_err("deep truncation detected");
    assert!(err.to_string().contains("truncated"), "{err}");
    // Mild truncation is caught by the whole-file checksum.
    let err = decode_model_file(&bytes[..bytes.len() - 5]).expect_err("truncation detected");
    assert!(err.to_string().contains("checksum"), "{err}");
}

#[test]
fn loaded_model_classifies_bit_identical_to_db_match_many() {
    let (model, noisy, _, matrix) = mined_model();
    let path = tmp("serve.nmmodel");
    write_model(&path, &model).unwrap();
    let serve = ServeModel::compile(read_model(&path).unwrap());
    std::fs::remove_file(&path).ok();

    let online = classify(&serve, &noisy);
    let offline = db_match_many(&serve.patterns, &MemorySequences(noisy.clone()), &matrix);
    assert_eq!(online.db_match.len(), offline.len());
    for (i, (a, b)) in online.db_match.iter().zip(&offline).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "pattern {i}: {a} vs {b}");
    }
}

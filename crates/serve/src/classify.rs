//! The serving hot path: scoring a batch of sequences against a compiled
//! model, bit-identical to the offline miner.
//!
//! [`classify`] reproduces [`db_match_many`]'s exact floating-point
//! reduction: per-sequence scores come from the shared
//! [`CandidateTrie::batch_sequence_match`] kernel (itself bit-identical to
//! per-pattern `sequence_match`), and the Def-3.7 database match is
//! accumulated in [`SCAN_BLOCK_SIZE`]-sequence blocks whose partial sums
//! are reduced in block order — the workspace's determinism contract. A
//! request served online therefore scores **bit-for-bit** what an offline
//! `db_match_many` over the same sequences would report, at any thread
//! count on either side.
//!
//! [`db_match_many`]: noisemine_core::matching::db_match_many
//! [`CandidateTrie::batch_sequence_match`]: noisemine_core::CandidateTrie::batch_sequence_match
//! [`SCAN_BLOCK_SIZE`]: noisemine_core::parallel::SCAN_BLOCK_SIZE

use noisemine_core::parallel::SCAN_BLOCK_SIZE;
use noisemine_core::Symbol;

use crate::registry::ServeModel;

/// Scores for one classification request.
#[derive(Debug, Clone)]
pub struct Classification {
    /// Version of the model that produced the scores.
    pub model_version: u64,
    /// `per_sequence[s][p]` — Def-3.6 sequence match of pattern `p`
    /// against submitted sequence `s`.
    pub per_sequence: Vec<Vec<f64>>,
    /// `db_match[p]` — the Def-3.7 normalized score: the average of
    /// pattern `p`'s sequence matches over the submitted batch, reduced in
    /// the miner's block order. Empty batch ⇒ all zeros.
    pub db_match: Vec<f64>,
}

/// Classifies `sequences` against `model` with the trie kernel, the one
/// offline `db_match_many` runs.
///
/// Symbols must already be encoded against the model's alphabet (the HTTP
/// layer handles name→symbol translation and range checks).
pub fn classify(model: &ServeModel, sequences: &[Vec<Symbol>]) -> Classification {
    let p = model.num_patterns();
    let mut per_sequence = Vec::with_capacity(sequences.len());
    let mut totals = vec![0.0f64; p];
    let Some(trie) = model.trie.as_ref() else {
        per_sequence.resize(sequences.len(), Vec::new());
        return Classification {
            model_version: model.version(),
            per_sequence,
            db_match: totals,
        };
    };
    let mut scratch = trie.scratch();
    let mut out = vec![0.0f64; p];
    // Block-ordered reduction: identical to try_db_match_many's block scan
    // over SCAN_BLOCK_SIZE-sequence blocks.
    for block in sequences.chunks(SCAN_BLOCK_SIZE) {
        let mut partial = vec![0.0f64; p];
        for seq in block {
            trie.batch_sequence_match(seq, &model.spec.matrix, &mut scratch, &mut out);
            for (t, &v) in partial.iter_mut().zip(out.iter()) {
                *t += v;
            }
            per_sequence.push(out.clone());
        }
        for (t, &v) in totals.iter_mut().zip(partial.iter()) {
            *t += v;
        }
    }
    if !sequences.is_empty() {
        let n = sequences.len() as f64;
        for t in &mut totals {
            *t /= n;
        }
    }
    Classification {
        model_version: model.version(),
        per_sequence,
        db_match: totals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noisemine_core::lattice::Border;
    use noisemine_core::matching::{db_match_many, MemorySequences};
    use noisemine_core::miner::{FrequentPattern, MineOutcome, MineStats, Provenance};
    use noisemine_core::{Alphabet, CompatibilityMatrix, Pattern, PatternModel};

    fn toy_model(num_patterns: usize) -> ServeModel {
        let m = 8;
        let alphabet = Alphabet::synthetic(m);
        let matrix = CompatibilityMatrix::uniform_noise(m, 0.15).unwrap();
        let frequent = (0..num_patterns)
            .map(|i| {
                let a = Symbol((i % m) as u16);
                let b = Symbol(((i + 3) % m) as u16);
                let c = Symbol(((i * 5 + 1) % m) as u16);
                FrequentPattern {
                    pattern: Pattern::contiguous(&[a, b, c]).unwrap(),
                    match_estimate: 0.5,
                    provenance: Provenance::Verified,
                }
            })
            .collect();
        let outcome = MineOutcome {
            frequent,
            border: Border::default(),
            symbol_match: vec![0.4; m],
            stats: MineStats::default(),
        };
        ServeModel::compile(PatternModel::from_outcome(
            &outcome, &alphabet, &matrix, 0.1, 1,
        ))
    }

    fn toy_sequences(n: usize, len: usize, m: u16) -> Vec<Vec<Symbol>> {
        // Deterministic pseudo-random sequences (no RNG dependency).
        let mut state = 0x9e37_79b9_u64;
        (0..n)
            .map(|_| {
                (0..len)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        Symbol(((state >> 33) % m as u64) as u16)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn db_match_bits_equal_offline_db_match_many() {
        // 600 sequences spans multiple 256-blocks, so the block-ordered
        // reduction is actually exercised.
        let model = toy_model(7);
        let seqs = toy_sequences(600, 24, 8);
        let result = classify(&model, &seqs);
        let offline = db_match_many(
            &model.patterns,
            &MemorySequences(seqs.clone()),
            &model.spec.matrix,
        );
        assert_eq!(result.db_match.len(), offline.len());
        for (i, (a, b)) in result.db_match.iter().zip(&offline).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "pattern {i}: {a} vs {b}");
        }
    }

    #[test]
    fn empty_batch_and_empty_model() {
        let model = toy_model(3);
        let r = classify(&model, &[]);
        assert!(r.per_sequence.is_empty());
        assert_eq!(r.db_match, vec![0.0; 3]);

        let empty = toy_model(0);
        let r = classify(&empty, &toy_sequences(4, 10, 8));
        assert_eq!(r.per_sequence.len(), 4);
        assert!(r.db_match.is_empty());
    }
}

//! Versioned pattern models — the serving-side artifact of a mining run.
//!
//! A [`PatternModel`] freezes everything the online match-serving layer
//! needs to classify new sequences exactly as the offline miner would:
//! the alphabet, the compatibility matrix, the mined frequent patterns
//! with their match estimates and provenance, the mining threshold, and
//! the compiled [`CandidateTrie`] metadata (node count) used to verify
//! that a reloaded model compiles to the same kernel shape.
//!
//! The model's on-disk form, the `NMMODEL` artifact, is encoded and
//! decoded by the serving crate's `model_io` module, which owns the whole
//! format: the byte-stable payload and its framing.
//!
//! [`CandidateTrie`]: crate::match_kernel::CandidateTrie

use crate::alphabet::Alphabet;
use crate::match_kernel::CandidateTrie;
use crate::matrix::CompatibilityMatrix;
use crate::miner::{MineOutcome, Provenance};
use crate::pattern::Pattern;

/// One mined pattern as frozen into a model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelPattern {
    /// The pattern.
    pub pattern: Pattern,
    /// Best available match estimate at mining time (Def 3.7).
    pub match_estimate: f64,
    /// How the miner established the pattern.
    pub provenance: Provenance,
}

/// A complete, self-contained pattern model.
///
/// Equality of two models is equality of their canonical payloads
/// (compare the serving crate's `model_io::encode_payload` outputs — the
/// encoding is byte-stable).
#[derive(Debug, Clone)]
pub struct PatternModel {
    /// Monotone model version (e.g. the stream position it was mined at).
    pub version: u64,
    /// The mining threshold the patterns were frequent at.
    pub min_match: f64,
    /// The alphabet the patterns and matrix are expressed over.
    pub alphabet: Alphabet,
    /// The compatibility matrix used for matching.
    pub matrix: CompatibilityMatrix,
    /// The mined frequent patterns.
    pub patterns: Vec<ModelPattern>,
    /// Node count of the compiled [`CandidateTrie`] at write time; checked
    /// on load so a decoded model provably compiles to the same kernel.
    pub trie_nodes: u64,
}

impl PatternModel {
    /// Freezes a mining outcome into a model.
    ///
    /// Compiles the [`CandidateTrie`] once to record its node count as
    /// integrity metadata.
    pub fn from_outcome(
        outcome: &MineOutcome,
        alphabet: &Alphabet,
        matrix: &CompatibilityMatrix,
        min_match: f64,
        version: u64,
    ) -> Self {
        let patterns: Vec<ModelPattern> = outcome
            .frequent
            .iter()
            .map(|f| ModelPattern {
                pattern: f.pattern.clone(),
                match_estimate: f.match_estimate,
                provenance: f.provenance,
            })
            .collect();
        let plain: Vec<Pattern> = patterns.iter().map(|p| p.pattern.clone()).collect();
        let trie_nodes = if plain.is_empty() {
            0
        } else {
            CandidateTrie::new(&plain).num_nodes() as u64
        };
        Self {
            version,
            min_match,
            alphabet: alphabet.clone(),
            matrix: matrix.clone(),
            patterns,
            trie_nodes,
        }
    }

    /// The bare patterns, in model order (the order kernel outputs use).
    pub fn plain_patterns(&self) -> Vec<Pattern> {
        self.patterns.iter().map(|p| p.pattern.clone()).collect()
    }
}

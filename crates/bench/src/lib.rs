//! # noisemine-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (Section 5). Each `src/bin/` binary reproduces one
//! figure and prints the same rows/series the paper reports; `run_all`
//! executes the full suite. `ablations` times the DESIGN.md ✦ decisions
//! against their naive alternatives. Performance is measured end to end by
//! the separate `e2ebench/` package, not here.
//!
//! All binaries take `--key value` overrides for scale parameters; the
//! defaults are laptop-scale versions of the paper's workloads, chosen to
//! preserve the *shape* of every result.

pub mod args;
pub mod table;

use noisemine_datagen::{ProteinWorkload, ProteinWorkloadConfig};

/// The default laptop-scale protein workload shared by the §5.1–§5.6
/// experiments (the paper uses 600 K NCBI sequences; see DESIGN.md for the
/// substitution rationale).
pub fn default_protein_workload(seed: u64) -> ProteinWorkload {
    ProteinWorkload::new(ProteinWorkloadConfig {
        num_sequences: 600,
        min_len: 40,
        max_len: 60,
        num_motifs: 6,
        min_motif_len: 3,
        max_motif_len: 12,
        occurrence: 0.4,
        seed,
    })
}

/// A larger, shorter-sequence workload for the sampling experiments
/// (Figures 10-13): the Chernoff machinery needs enough sequences that the
/// error band `ε` fits under the threshold (see
/// `noisemine_core::sample_miner::DEFAULT_MAX_SAMPLE_PATTERNS`), and
/// shorter sequences keep the random-occurrence floor of short patterns
/// below the classification band.
pub fn sampling_protein_workload(seed: u64, num_sequences: usize) -> ProteinWorkload {
    ProteinWorkload::new(ProteinWorkloadConfig {
        num_sequences,
        min_len: 30,
        max_len: 40,
        num_motifs: 5,
        min_motif_len: 3,
        max_motif_len: 10,
        occurrence: 0.4,
        seed,
    })
}

/// Formats a duration in seconds with 3 decimals.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

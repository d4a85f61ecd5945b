//! Seeded input generators and miner configurations of the workloads.
//! The same seed always yields the same inputs.

use std::path::Path;

use noisemine_core::border_collapse::ProbeStrategy;
use noisemine_core::chernoff::SpreadMode;
use noisemine_core::miner::MinerConfig;
use noisemine_core::{CompatibilityMatrix, Pattern, PatternSpace, Symbol};
use noisemine_datagen::noise::{apply_channel, channel_to_compatibility, partner_channel};
use noisemine_datagen::{
    generate, sparse_random_matrix, Background, GeneratorConfig, PlantedMotif,
};
use noisemine_seqdb::{DiskDb, DiskDbWriter};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Alphabet size of the Fig-14 regime.
pub const DENSE_M: usize = 20;
/// Sequence length of the Fig-14 regime.
pub const DENSE_LEN: usize = 200;
/// Sequences in the mine_dense database.
pub const DENSE_SEQUENCES: usize = 20_000;
/// Sequences generated per batch; the generator never holds the whole
/// database in memory.
const DENSE_BATCH: usize = 5_000;

/// The planted 12-symbol motif of the Fig-14 regime.
pub fn dense_motif() -> Pattern {
    let symbols: Vec<Symbol> = (0..12).map(Symbol).collect();
    Pattern::contiguous(&symbols).expect("non-empty motif")
}

fn dense_channel() -> Vec<Vec<f64>> {
    let partners: Vec<Vec<usize>> = (0..DENSE_M).map(|i| vec![i ^ 1]).collect();
    partner_channel(DENSE_M, 0.15, &partners)
}

/// The diagonal-normalized, clamped compatibility matrix of the partner
/// channel with α = 0.15.
pub fn dense_matrix() -> CompatibilityMatrix {
    channel_to_compatibility(&dense_channel())
        .diagonal_normalized_clamped()
        .expect("partner channel normalizes")
}

/// Noisy sequences `start..start + count` of the dense stream for `seed`:
/// the planted motif in half of the sequences, then the partner channel.
/// Batches are seeded by position, so any window regenerates identically.
fn dense_batch(start: usize, count: usize, seed: u64) -> Vec<Vec<Symbol>> {
    let batch = (start / DENSE_BATCH) as u64;
    let standard = generate(&GeneratorConfig {
        num_sequences: count,
        min_len: DENSE_LEN,
        max_len: DENSE_LEN,
        alphabet_size: DENSE_M,
        background: Background::Uniform,
        motifs: vec![PlantedMotif::new(dense_motif(), 0.5)],
        seed: seed.wrapping_add(batch),
    });
    let mut rng = StdRng::seed_from_u64((seed ^ 0x57).wrapping_add(batch));
    apply_channel(&standard, &dense_channel(), &mut rng)
}

/// Writes `n` dense sequences to a fresh NMSEQDB v2 file at `path`.
pub fn write_dense_db(path: &Path, n: usize, seed: u64) -> DiskDb {
    let mut writer = DiskDbWriter::create(path).expect("create dense db");
    let mut written = 0;
    while written < n {
        let count = DENSE_BATCH.min(n - written);
        for seq in dense_batch(written, count, seed) {
            writer
                .write_sequence(written as u64, &seq)
                .expect("write dense sequence");
            written += 1;
        }
    }
    writer.finish().expect("finish dense db")
}

/// `count` dense sequences drawn from a different part of the stream than
/// any database (request bodies for the `dense` tenant).
pub fn dense_requests(count: usize, seed: u64) -> Vec<Vec<Symbol>> {
    dense_batch(1 << 30, count, seed ^ 0x5e7e)
}

/// The Fig-14 mining configuration: contiguous patterns up to 16,
/// `min_match` 0.08, a 2 000-sequence sample and 4 096 counters per scan.
/// Threads, kernel and index stay at their production defaults.
pub fn dense_config(seed: u64) -> MinerConfig {
    MinerConfig {
        min_match: 0.08,
        delta: 0.001,
        sample_size: 2_000,
        counters_per_scan: 4_096,
        space: PatternSpace::contiguous(16),
        spread_mode: SpreadMode::Restricted,
        probe_strategy: ProbeStrategy::BorderCollapsing,
        seed,
        ..MinerConfig::default()
    }
}

/// Alphabet size of the clickstream (the Fig-15 regime).
pub const CLICKS_M: usize = 1_000;
/// Symbols per session.
pub const SESSION_LEN: usize = 30;
/// Sequences appended per op (the `noisemine stream` default chunk).
pub const CHUNK: usize = 1_000;
/// Chunks in one stream_clicks replay.
pub const REPLAY_CHUNKS: usize = 40;

/// Sparse compatibility matrix over the item catalog: ≈0.5% fan-out per
/// symbol, diagonal 0.85. The catalog is fixed; the seed varies only the
/// traffic, so that runs on different seeds do comparable work.
pub fn clicks_matrix() -> CompatibilityMatrix {
    sparse_random_matrix(CLICKS_M, 0.005, 0.85, 0xc11c)
}

/// The planted motif of the first (`shifted == false`) or second half of
/// the stream.
pub fn clicks_motif(shifted: bool) -> Pattern {
    let base = if shifted { 200 } else { 100 };
    let symbols: Vec<Symbol> = (0..6).map(|i| Symbol(base + i)).collect();
    Pattern::contiguous(&symbols).expect("non-empty motif")
}

/// `n` Zipf-distributed sessions; the first `stationary` carry the first
/// motif, the rest the second.
pub fn clicks_sessions(n: usize, stationary: usize, seed: u64) -> Vec<Vec<Symbol>> {
    let part = |count: usize, shifted: bool, seed: u64| {
        generate(&GeneratorConfig {
            num_sequences: count,
            min_len: SESSION_LEN,
            max_len: SESSION_LEN,
            alphabet_size: CLICKS_M,
            background: Background::Zipf(1.0),
            motifs: vec![PlantedMotif::new(clicks_motif(shifted), 0.3)],
            seed,
        })
    };
    let stationary = stationary.min(n);
    let mut sessions = part(stationary, false, seed ^ 0xc1);
    sessions.extend(part(n - stationary, true, seed ^ 0xc2));
    sessions
}

/// Short patterns over the large sparse alphabet.
pub fn clicks_config(seed: u64) -> MinerConfig {
    MinerConfig {
        min_match: 0.1,
        delta: 0.001,
        sample_size: 1_000,
        counters_per_scan: 100_000,
        space: PatternSpace::contiguous(8),
        seed,
        ..MinerConfig::default()
    }
}

/// A seeded RNG for request schedules and pools.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

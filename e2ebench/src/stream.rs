//! Clickstream replay through the streaming engine against a disk log.
//!
//! One op handles one chunk: append it to the NMSEQDB file
//! (`DiskDbWriter::append`, whose `finish` fsyncs), read the tail with
//! `StreamState::ingest_from`, check drift, and on a fire re-mine against
//! the file. The replay ends with one checkpoint.

use std::path::Path;
use std::time::Instant;

use noisemine_core::miner::{MineOutcome, MinerConfig};
use noisemine_core::{CompatibilityMatrix, Symbol};
use noisemine_seqdb::{DiskDb, DiskDbWriter};
use noisemine_stream::StreamState;

use crate::gen::CHUNK;
use crate::layers::StreamLayer;
use crate::mining::{self, Composed};
use crate::stats::median;
use crate::trace::Tracer;

/// What one replay did and measured.
pub struct Replay {
    /// Seconds per op (chunk).
    pub latencies: Vec<f64>,
    /// Wall seconds of the whole replay, checkpoint included.
    pub wall: f64,
    /// Full database scans: one tail read per chunk plus the re-mines'
    /// phase-3 scans.
    pub scans: usize,
    pub remines: usize,
    /// Re-mines fired inside the stationary first half, after the first.
    pub stationary_remines: usize,
    pub tracked: usize,
    /// Digest of the last re-mine's outcome and of the final checkpoint.
    pub digest: (u64, Vec<u8>),
    pub last: Option<MineOutcome>,
    /// Phase outputs of the last re-mine that probed the file (traced
    /// replays only).
    pub last_composed: Option<Composed>,
    pub state: StreamState,
    pub db: DiskDb,
}

/// Replays `sessions` chunk by chunk into a fresh log at `db_path`.
/// Chunks before `stationary_chunks` come from the stationary half.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    sessions: &[Vec<Symbol>],
    chunk: usize,
    stationary_chunks: usize,
    matrix: &CompatibilityMatrix,
    config: &MinerConfig,
    db_path: &Path,
    ckpt_path: &Path,
    first_op: u64,
    tr: &mut Tracer,
) -> Replay {
    let start = Instant::now();
    let mut state = StreamState::new(matrix.clone(), config.clone()).expect("valid stream config");
    let mut latencies = Vec::new();
    let (mut scans, mut remines, mut stationary_remines) = (0, 0, 0);
    let mut last = None;
    let mut last_composed = None;
    let mut db = None;
    for (i, part) in sessions.chunks(chunk).enumerate() {
        tr.set_op(first_op + i as u64);
        let t0 = Instant::now();
        let log = tr.span("bench", "op", |tr| {
            let log = tr.span("seqdb", "append", |_| append(db_path, i == 0, part));
            let skip = state.total_seen();
            tr.span("stream", "ingest_from", |_| {
                state.ingest_from(&log, skip).expect("tail read")
            });
            let fired = tr.span("stream", "drift_exceeded", |_| state.drift_exceeded());
            if fired {
                let outcome = if tr.enabled() {
                    let prep = tr.span("stream", "prepare_mine", |_| state.prepare_mine());
                    let c = mining::phases23(
                        &log,
                        &prep.matrix,
                        &prep.config,
                        &prep.p1,
                        &prep.known,
                        tr,
                    );
                    tr.span("stream", "complete_mine", |_| {
                        state.complete_mine(&prep, &c.p3)
                    });
                    let outcome = c.outcome.clone();
                    // Keep the latest re-mine that probed the file, for
                    // the kernel and index probes.
                    if c.p3.probes > 0 || last_composed.is_none() {
                        last_composed = Some(c);
                    }
                    outcome
                } else {
                    state.mine(&log).expect("re-mine")
                };
                remines += 1;
                if i > 0 && i < stationary_chunks {
                    stationary_remines += 1;
                }
                last = Some(outcome);
            }
            log
        });
        scans += log.scans_performed();
        latencies.push(t0.elapsed().as_secs_f64());
        db = Some(log);
    }
    tr.set_op(0);
    tr.span("stream", "checkpoint", |_| {
        state.checkpoint(ckpt_path).expect("checkpoint")
    });
    let wall = start.elapsed().as_secs_f64();
    let checkpoint = std::fs::read(ckpt_path).expect("read checkpoint");
    let digest = (last.as_ref().map_or(0, mining::digest), checkpoint);
    Replay {
        latencies,
        wall,
        scans,
        remines,
        stationary_remines,
        tracked: state.tracked_patterns().count(),
        digest,
        last,
        last_composed,
        state,
        db: db.expect("at least one chunk"),
    }
}

fn append(path: &Path, create: bool, part: &[Vec<Symbol>]) -> DiskDb {
    let mut w = if create {
        DiskDbWriter::create(path)
    } else {
        DiskDbWriter::append(path)
    }
    .expect("open log for append");
    for seq in part {
        let id = w.count();
        w.write_sequence(id, seq).expect("append sequence");
    }
    w.finish().expect("finish append")
}

/// The replay's output checks: the engine's symbol matches equal a batch
/// phase 1 over the same file bit for bit, and checkpoint → restore →
/// checkpoint reproduces the checkpoint bytes.
pub fn verify(r: &Replay, matrix: &CompatibilityMatrix, ckpt_path: &Path, tr: &mut Tracer) -> bool {
    let batch = mining::phase1(&r.db, matrix, r.state.config(), tr);
    let online = r.state.symbol_match();
    let same_matches = batch.symbol_match.len() == online.len()
        && batch
            .symbol_match
            .iter()
            .zip(&online)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    let again = ckpt_path.with_extension("again");
    let restored = StreamState::restore(ckpt_path, matrix.clone()).expect("restore checkpoint");
    restored.checkpoint(&again).expect("re-checkpoint");
    let same_bytes = std::fs::read(&again).expect("read re-checkpoint") == r.digest.1;
    std::fs::remove_file(&again).ok();
    same_matches && same_bytes
}

/// Stream-layer metrics from a traced replay's spans.
pub fn stream_layer(tr: &Tracer, r: &Replay) -> StreamLayer {
    let ingest: Vec<f64> = tr
        .durations("stream", "ingest_from")
        .iter()
        .map(|ms| ms * 1e3 / CHUNK as f64)
        .collect();
    let drift: Vec<f64> = tr
        .durations("stream", "drift_exceeded")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    let remine = tr.per_op_ms(&[
        ("stream", "prepare_mine"),
        ("core::sample_miner", "mine_sample_budgeted_kernel"),
        ("core::border_collapse", "try_collapse_with_known"),
        ("core::miner", "assemble_outcome"),
        ("stream", "complete_mine"),
    ]);
    StreamLayer {
        ingest_us_per_seq: median(&ingest),
        drift_check_us: median(&drift),
        remines: r.remines,
        stationary_remines: r.stationary_remines,
        remine_ms: median(&remine),
        tracked_patterns: r.tracked,
        checkpoint_ms: median(&tr.durations("stream", "checkpoint")),
    }
}

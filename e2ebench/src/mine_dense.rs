//! `mine_dense`: the paper's Fig-14 regime on disk. One op is one full
//! three-phase `miner::mine` over a 20 000 × 200 NMSEQDB v2 file.

use std::time::Instant;

use noisemine_core::matching::MemorySequences;
use noisemine_core::miner::{mine, MineOutcome, MinerConfig};
use noisemine_core::{Alphabet, PatternModel};
use noisemine_seqdb::DiskDb;

use crate::gen::{self, CHUNK, DENSE_M, DENSE_SEQUENCES};
use crate::layers::{self, StreamLayer};
use crate::mining::{self, phase3_batches};
use crate::stats::{cpu_seconds, median, secs, Metrics, Window};
use crate::{repeat_setup, serve, Ctx, RunResult, SETUP_REPEATS};

/// Sequences of the database each kernel probe batch is evaluated on.
const KERNEL_PROBE_SEQUENCES: usize = 5_000;
/// Fewest mines per timed window.
const MIN_OPS: usize = 3;

/// What one mine is checked for.
struct Checked {
    digest: u64,
    /// `stats.db_scans` equals the scans the file itself counted, and the
    /// planted motif was recovered.
    sound: bool,
    scans: usize,
}

fn check(outcome: &MineOutcome, db: &DiskDb) -> Checked {
    let motif = gen::dense_motif();
    Checked {
        digest: mining::digest(outcome),
        sound: outcome.stats.db_scans == db.scans_performed()
            && outcome.frequent.iter().any(|f| f.pattern == motif),
        scans: outcome.stats.db_scans,
    }
}

pub fn run(ctx: &mut Ctx) -> RunResult {
    let matrix = gen::dense_matrix();
    let config = gen::dense_config(ctx.seed);
    let (setup, db) = repeat_setup(
        SETUP_REPEATS,
        |i| {
            gen::write_dense_db(
                &ctx.work.join(format!("dense-{i}.db")),
                DENSE_SEQUENCES,
                ctx.seed,
            )
        },
        |old: DiskDb| {
            std::fs::remove_file(old.path()).ok();
        },
    );

    // The timed path: the production entry point at production defaults.
    let window = |seconds: f64, ops: usize| {
        let mut latencies = Vec::new();
        let mut checked = Vec::new();
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        while checked.len() < ops || secs(t0) < seconds {
            db.reset_scans();
            let t = Instant::now();
            let outcome = mine(&db, &matrix, &config).expect("mine");
            latencies.push(secs(t));
            checked.push(check(&outcome, &db));
        }
        (latencies, secs(t0), cpu_seconds() - cpu0, checked)
    };

    if !ctx.tracer.enabled() {
        let (latencies, _, cpu, checked) = window(ctx.seconds, MIN_OPS);
        // The reference: the same mine over an in-memory copy on one
        // thread must give the same bits.
        let memory = MemorySequences(layers::load(&db));
        let single = MinerConfig {
            threads: 1,
            ..config.clone()
        };
        let reference = mining::digest(&mine(&memory, &matrix, &single).expect("reference mine"));
        let verified = checked
            .iter()
            .filter(|c| c.sound && c.digest == reference)
            .count();
        // Every mine does the same work, so throughput is taken from the
        // median mine rather than the window's wall time.
        let mine_s = median(&latencies);
        let ops = latencies.len();
        let scans = median(&checked.iter().map(|c| c.scans as f64).collect::<Vec<_>>());
        return Window {
            latencies,
            ops,
            verified,
            ops_per_s: 1.0 / mine_s,
            seqs_per_s: DENSE_SEQUENCES as f64 / mine_s,
            cpu,
            setup,
            db_scans: (scans, ops),
        }
        .result();
    }

    // Traced run: the production path first, untraced, for the overhead
    // baseline; then the same mines composed phase by phase inside spans.
    let (plain, _, _, plain_checked) = window(ctx.seconds / 2.0, 2);
    noisemine_obs::enable();
    let bytes0 = layers::bytes_read();
    let tr = &mut ctx.tracer;
    let mut traced = Vec::new();
    let mut last = None;
    let mut failed = 0;
    let t0 = Instant::now();
    while traced.len() < 2 || secs(t0) < ctx.seconds / 2.0 {
        db.reset_scans();
        tr.set_op(traced.len() as u64 + 1);
        let t = Instant::now();
        let c = tr.span("bench", "op", |tr| {
            mining::mine_composed(&db, &matrix, &config, tr)
        });
        traced.push(secs(t));
        // The composed phases must reproduce `miner::mine` bit for bit.
        let ok = check(&c.outcome, &db);
        failed += usize::from(!(ok.sound && ok.digest == plain_checked[0].digest));
        last = Some(c);
    }
    tr.set_op(0);
    let bytes_per_op = (layers::bytes_read() - bytes0) as f64 / traced.len() as f64;
    let c = last.expect("at least one traced mine");
    let ops = traced.len();
    let seqs = layers::load(&db);

    let mut m = Metrics::default();
    m.push("seqdb.scan_ms", layers::scan_ms(&db), "ms", 3);
    m.push("seqdb.bytes_read", bytes_per_op, "bytes", ops);
    m.push(
        "seqdb.append_ms",
        layers::append_ms(&ctx.work, &seqs[..CHUNK]),
        "ms",
        3,
    );
    m.push(
        "seqdb.tail_read_ms",
        layers::tail_read_ms(&db, CHUNK),
        "ms",
        3,
    );
    layers::push_phase_metrics(tr, &c, &mut m);
    let probe_seqs = &seqs[..KERNEL_PROBE_SEQUENCES];
    let batches = layers::phase_batches(&c, probe_seqs, &matrix);
    let kernels_agree = layers::kernel_metrics(&batches, &mut m);
    let skip = layers::skip_ratio(&db, DENSE_M, &phase3_batches(&c.p3), &matrix);
    m.push("index.skip_ratio", skip, "ratio", c.p3.scans);
    stream_probe(&db, &matrix, &config, &ctx.work, &seqs[0]).push(1, &mut m);
    let model = PatternModel::from_outcome(
        &c.outcome,
        &Alphabet::synthetic(DENSE_M),
        &matrix,
        config.min_match,
        1,
    );
    let served_ok = serve::probe(model, &seqs, ctx.seed, &mut m);
    m.push(
        "trace.attributed_share",
        tr.attributed_share(),
        "ratio",
        ops,
    );
    m.push(
        "trace.overhead_ms",
        1e3 * (median(&traced) - median(&plain)),
        "ms",
        ops,
    );
    crate::report_self_times(tr, ops);
    RunResult {
        metrics: m,
        attempted: ops,
        failed,
        correct: failed == 0 && kernels_agree && served_ok,
    }
}

/// The streaming engine over the Fig-14 file: ingest it, re-mine once,
/// check drift after one more sequence, checkpoint.
fn stream_probe(
    db: &DiskDb,
    matrix: &noisemine_core::CompatibilityMatrix,
    config: &MinerConfig,
    work: &std::path::Path,
    extra: &[noisemine_core::Symbol],
) -> StreamLayer {
    use noisemine_stream::StreamState;
    let mut state = StreamState::new(matrix.clone(), config.clone()).expect("stream config");
    let t = Instant::now();
    let n = state.ingest_from(db, 0).expect("ingest");
    let ingest_us_per_seq = secs(t) * 1e6 / n as f64;
    let t = Instant::now();
    state.mine(db).expect("stream re-mine");
    let remine_ms = secs(t) * 1e3;
    state.ingest(extra);
    let drift: Vec<f64> = (0..101)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(state.drift_exceeded());
            secs(t) * 1e6
        })
        .collect();
    let ckpt = work.join("probe.ckpt");
    let t = Instant::now();
    state.checkpoint(&ckpt).expect("checkpoint");
    let checkpoint_ms = secs(t) * 1e3;
    StreamLayer {
        ingest_us_per_seq,
        drift_check_us: median(&drift),
        remines: 1,
        stationary_remines: 0,
        remine_ms,
        tracked_patterns: state.tracked_patterns().count(),
        checkpoint_ms,
    }
}

//! `serve_classify`: an in-process `Server` with two tenants whose models
//! are mined at set-up — `dense` from the mine_dense distribution and
//! `clicks` from a stationary clickstream replay — under a closed loop of
//! keep-alive clients. Three of every four requests are one session to
//! `clicks`; the fourth is eight 200-symbol sequences to `dense`.

use std::time::{Duration, Instant};

use noisemine_core::miner::mine;
use noisemine_core::{Alphabet, PatternModel, Symbol};
use noisemine_seqdb::DiskDb;
use noisemine_serve::ServeModel;

use crate::gen::{self, CHUNK, CLICKS_M, DENSE_M};
use crate::layers::{self, KernelBatch};
use crate::mining::{self, phase3_batches, Composed};
use crate::serve::{self, closed_loop, ClientRun, Fixture};
use crate::stats::{cpu_seconds, median, Metrics, Window};
use crate::stream::{replay, stream_layer, Replay};
use crate::trace::Tracer;
use crate::{repeat_setup, Ctx, RunResult, SETUP_REPEATS};

/// Sequences the `dense` tenant's model is mined from.
const DENSE_MODEL_SEQUENCES: usize = 5_000;
/// Chunks of stationary clickstream the `clicks` tenant's model is mined
/// from.
const CLICKS_MODEL_CHUNKS: usize = 5;
/// Distinct small and large request bodies.
const SMALL_POOL: usize = 64;
const LARGE_POOL: usize = 16;
/// Sequences per large request.
const LARGE_BATCH: usize = 8;

/// Everything set-up builds.
struct Setup {
    fx: Fixture,
    dense_db: DiskDb,
    /// Scans spent mining both models.
    scans: usize,
    /// Phase outputs of the `dense` mine (traced runs only).
    dense: Option<Composed>,
    clicks: Replay,
}

/// Builds both models and the server. The `dense` mine records spans in
/// `dense_tr`, the clickstream replay in `clicks_tr`.
fn setup(ctx: &Ctx, i: usize, dense_tr: &mut Tracer, clicks_tr: &mut Tracer) -> Setup {
    let seed = ctx.seed;
    let matrix = gen::dense_matrix();
    let config = gen::dense_config(seed);
    let dense_db = gen::write_dense_db(
        &ctx.work.join(format!("serve-dense-{i}.db")),
        DENSE_MODEL_SEQUENCES,
        seed,
    );
    let (outcome, dense) = if dense_tr.enabled() {
        let c = mining::mine_composed(&dense_db, &matrix, &config, dense_tr);
        (c.outcome.clone(), Some(c))
    } else {
        (
            mine(&dense_db, &matrix, &config).expect("dense model mine"),
            None,
        )
    };
    let dense_model = PatternModel::from_outcome(
        &outcome,
        &Alphabet::synthetic(DENSE_M),
        &matrix,
        config.min_match,
        1,
    );

    let clicks_matrix = gen::clicks_matrix();
    let n = CLICKS_MODEL_CHUNKS * CHUNK;
    let sessions = gen::clicks_sessions(n, n, seed);
    let clicks = replay(
        &sessions,
        CHUNK,
        CLICKS_MODEL_CHUNKS,
        &clicks_matrix,
        &gen::clicks_config(seed),
        &ctx.work.join(format!("serve-clicks-{i}.db")),
        &ctx.work.join(format!("serve-clicks-{i}.ckpt")),
        1,
        clicks_tr,
    );
    let clicks_model = clicks.state.to_model(
        clicks.last.as_ref().expect("the replay mined"),
        &Alphabet::synthetic(CLICKS_M),
    );

    let small = gen::clicks_sessions(SMALL_POOL, SMALL_POOL, seed ^ 0x5a11);
    let large = gen::dense_requests(LARGE_POOL * LARGE_BATCH, seed);
    let mut pool: Vec<(usize, bool, Vec<Vec<Symbol>>)> =
        small.into_iter().map(|s| (1, false, vec![s])).collect();
    pool.extend(large.chunks(LARGE_BATCH).map(|b| (0, true, b.to_vec())));
    let fx = Fixture::start(
        vec![
            ("dense".to_string(), dense_model),
            ("clicks".to_string(), clicks_model),
        ],
        pool,
    );
    Setup {
        fx,
        dense_db,
        scans: outcome.stats.db_scans + clicks.scans,
        dense,
        clicks,
    }
}

/// One closed-loop client per core until `seconds` pass.
fn window(
    fx: &Fixture,
    seed: u64,
    seconds: f64,
    traced: bool,
    epoch: Instant,
) -> (Vec<ClientRun>, f64, f64) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let runs = std::thread::scope(|s| {
        let clients: Vec<_> = (0..serve::nproc() as u64)
            .map(|c| {
                s.spawn(move || {
                    closed_loop(
                        fx,
                        c + 1,
                        gen::rng(seed, 0x100 + c),
                        deadline,
                        usize::MAX,
                        Tracer::new(traced, epoch),
                    )
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    (runs, t0.elapsed().as_secs_f64(), cpu_seconds() - cpu0)
}

fn latencies(runs: &[ClientRun]) -> Vec<f64> {
    runs.iter()
        .flat_map(|r| r.requests.iter().map(|&(_, t)| t))
        .collect()
}

pub fn run(ctx: &mut Ctx) -> RunResult {
    let epoch = ctx.tracer.epoch();
    if !ctx.tracer.enabled() {
        let (mut off_a, mut off_b) = (Tracer::new(false, epoch), Tracer::new(false, epoch));
        let (secs, s) = repeat_setup(
            SETUP_REPEATS,
            |i| setup(ctx, i, &mut off_a, &mut off_b),
            |old: Setup| old.fx.stop(),
        );
        let (runs, wall, cpu) = window(&s.fx, ctx.seed, ctx.seconds, false, epoch);
        s.fx.stop();
        let latencies = latencies(&runs);
        let ops = latencies.len();
        let sequences: usize = runs.iter().map(|r| r.sequences).sum();
        return Window {
            latencies,
            ops,
            verified: runs.iter().map(|r| r.verified).sum(),
            ops_per_s: ops as f64 / wall,
            seqs_per_s: sequences as f64 / wall,
            cpu,
            setup: secs,
            db_scans: (s.scans as f64, 1),
        }
        .result();
    }

    // Traced run: set-up with composed mines, an untraced window for the
    // overhead baseline, then a window whose requests are spans.
    let mut dense_tr = Tracer::new(true, epoch);
    let mut clicks_tr = Tracer::new(true, epoch);
    let s = setup(ctx, 0, &mut dense_tr, &mut clicks_tr);
    let (plain, _, _) = window(&s.fx, ctx.seed, ctx.seconds / 2.0, false, epoch);
    let wakeups = serve::poll_wakeups();
    let bytes0 = layers::bytes_read();
    let (mut runs, _, _) = window(&s.fx, ctx.seed, ctx.seconds / 2.0, true, epoch);
    let wakeups = serve::poll_wakeups() - wakeups;
    let ops = latencies(&runs).len();
    let bytes_per_op = (layers::bytes_read() - bytes0) as f64 / ops as f64;
    let verified: usize = runs.iter().map(|r| r.verified).sum();
    for r in &mut runs {
        ctx.tracer
            .absorb(std::mem::replace(&mut r.tracer, Tracer::new(false, epoch)));
    }
    let tr = &ctx.tracer;

    let mut m = Metrics::default();
    m.push("seqdb.scan_ms", layers::scan_ms(&s.dense_db), "ms", 3);
    m.push("seqdb.bytes_read", bytes_per_op, "bytes", ops);
    let append = clicks_tr.durations("seqdb", "append");
    m.push("seqdb.append_ms", median(&append), "ms", append.len());
    m.push(
        "seqdb.tail_read_ms",
        layers::tail_read_ms(&s.dense_db, CHUNK),
        "ms",
        3,
    );
    let dense = s.dense.as_ref().expect("traced set-up keeps phase outputs");
    layers::push_phase_metrics(&dense_tr, dense, &mut m);
    // The kernels on both request shapes, each against its tenant's model.
    let shapes: Vec<(&ServeModel, Vec<Vec<Symbol>>)> = [&s.fx.small, &s.fx.large]
        .into_iter()
        .map(|pool| {
            let model = &s.fx.tenants[pool[0].tenant].1;
            (model, pool.iter().flat_map(|r| r.seqs.clone()).collect())
        })
        .collect();
    let batches: Vec<KernelBatch> = shapes
        .iter()
        .map(|(model, seqs)| KernelBatch {
            patterns: model.patterns.clone(),
            seqs,
            matrix: &model.spec.matrix,
        })
        .collect();
    let kernels_agree = layers::kernel_metrics(&batches, &mut m);
    let skip = layers::skip_ratio(
        &s.dense_db,
        DENSE_M,
        &phase3_batches(&dense.p3),
        &gen::dense_matrix(),
    );
    m.push("index.skip_ratio", skip, "ratio", dense.p3.scans);
    stream_layer(&clicks_tr, &s.clicks).push(s.clicks.latencies.len(), &mut m);
    serve::layer_metrics(&s.fx, &runs, wakeups, &mut m);
    m.push(
        "trace.attributed_share",
        tr.attributed_share(),
        "ratio",
        ops,
    );
    m.push(
        "trace.overhead_ms",
        1e3 * (median(&latencies(&runs)) - median(&latencies(&plain))),
        "ms",
        ops,
    );
    crate::report_self_times(tr, ops);
    ctx.tracer.absorb(dense_tr);
    ctx.tracer.absorb(clicks_tr);
    s.fx.stop();
    RunResult {
        metrics: m,
        attempted: ops,
        failed: ops - verified,
        correct: verified == ops && kernels_agree,
    }
}

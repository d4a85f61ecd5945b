//! `stream_clicks`: a clickstream in the Fig-15 regime replayed through
//! the streaming engine. The first half is stationary, the second half
//! shifts to another motif. One op is one 1 000-sequence chunk.

use noisemine_core::Alphabet;

use crate::gen::{self, CHUNK, CLICKS_M, REPLAY_CHUNKS};
use crate::layers;
use crate::mining::phase3_batches;
use crate::stats::{cpu_seconds, median, secs, Metrics, Window};
use crate::stream::{replay, stream_layer, verify};
use crate::trace::Tracer;
use crate::{repeat_setup, serve, Ctx, RunResult, SETUP_REPEATS};

/// Sequences of the final log each kernel probe batch is evaluated on.
const KERNEL_PROBE_SEQUENCES: usize = 5_000;

pub fn run(ctx: &mut Ctx) -> RunResult {
    let matrix = gen::clicks_matrix();
    let config = gen::clicks_config(ctx.seed);
    let half = REPLAY_CHUNKS / 2;
    let (setup, sessions) = repeat_setup(
        SETUP_REPEATS,
        |_| gen::clicks_sessions(REPLAY_CHUNKS * CHUNK, half * CHUNK, ctx.seed),
        drop,
    );
    let db_path = ctx.work.join("clicks.db");
    let ckpt = ctx.work.join("clicks.ckpt");
    let run_replay = |tr: &mut Tracer, first_op| {
        replay(
            &sessions, CHUNK, half, &matrix, &config, &db_path, &ckpt, first_op, tr,
        )
    };

    if !ctx.tracer.enabled() {
        let (mut per_replay, mut walls, mut cpu) = (Vec::new(), Vec::new(), 0.0);
        let (mut verified, mut scans) = (0, Vec::new());
        let mut first_digest = None;
        let t0 = std::time::Instant::now();
        while per_replay.is_empty() || secs(t0) < ctx.seconds {
            let cpu0 = cpu_seconds();
            let r = run_replay(&mut ctx.tracer, 1);
            cpu += cpu_seconds() - cpu0;
            let same = first_digest.get_or_insert_with(|| r.digest.clone()) == &r.digest;
            if verify(&r, &matrix, &ckpt, &mut ctx.tracer) && same {
                verified += r.latencies.len();
            }
            walls.push(r.wall);
            scans.push(r.scans as f64);
            per_replay.push(r.latencies);
        }
        // Every replay of a run repeats the same chunks, so each chunk's
        // latency is its median over the replays, and throughput comes
        // from the median replay.
        let chunks = per_replay[0].len();
        let latencies: Vec<f64> = (0..chunks)
            .map(|i| median(&per_replay.iter().map(|l| l[i]).collect::<Vec<_>>()))
            .collect();
        let replay_s = median(&walls);
        return Window {
            latencies,
            ops: chunks * per_replay.len(),
            verified,
            ops_per_s: chunks as f64 / replay_s,
            seqs_per_s: sessions.len() as f64 / replay_s,
            cpu,
            setup,
            db_scans: (median(&scans), scans.len()),
        }
        .result();
    }

    // Traced run: one untraced replay for the overhead baseline, then one
    // traced replay whose re-mines are composed phase by phase.
    let plain = run_replay(&mut Tracer::new(false, ctx.tracer.epoch()), 1);
    noisemine_obs::enable();
    let bytes0 = layers::bytes_read();
    let tr = &mut ctx.tracer;
    let r = run_replay(tr, 1);
    let bytes_per_op = (layers::bytes_read() - bytes0) as f64 / r.latencies.len() as f64;
    // The composed re-mines must reproduce `StreamState::mine` bit for bit.
    let replay_ok = r.digest == plain.digest && verify(&r, &matrix, &ckpt, tr);
    let ops = r.latencies.len();
    let c = r.last_composed.as_ref().expect("the replay re-mined");

    let mut m = Metrics::default();
    m.push("seqdb.scan_ms", layers::scan_ms(&r.db), "ms", 3);
    m.push("seqdb.bytes_read", bytes_per_op, "bytes", ops);
    let append = tr.durations("seqdb", "append");
    m.push("seqdb.append_ms", median(&append), "ms", append.len());
    m.push(
        "seqdb.tail_read_ms",
        layers::tail_read_ms(&r.db, CHUNK),
        "ms",
        3,
    );
    layers::push_phase_metrics(tr, c, &mut m);
    let seqs = layers::load(&r.db);
    let stride = (seqs.len() / KERNEL_PROBE_SEQUENCES).max(1);
    let probe_seqs: Vec<_> = seqs.iter().step_by(stride).cloned().collect();
    let batches = layers::phase_batches(c, &probe_seqs, &matrix);
    let kernels_agree = layers::kernel_metrics(&batches, &mut m);
    let skip = layers::skip_ratio(&r.db, CLICKS_M, &phase3_batches(&c.p3), &matrix);
    m.push("index.skip_ratio", skip, "ratio", c.p3.scans);
    stream_layer(tr, &r).push(ops, &mut m);
    let model = r.state.to_model(
        r.last.as_ref().expect("the replay re-mined"),
        &Alphabet::synthetic(CLICKS_M),
    );
    let served_ok = serve::probe(model, &sessions, ctx.seed, &mut m);
    m.push(
        "trace.attributed_share",
        tr.attributed_share(),
        "ratio",
        ops,
    );
    m.push(
        "trace.overhead_ms",
        1e3 * (median(&r.latencies) - median(&plain.latencies)),
        "ms",
        ops,
    );
    crate::report_self_times(tr, ops);
    RunResult {
        metrics: m,
        attempted: ops,
        failed: if replay_ok { 0 } else { ops },
        correct: replay_ok && kernels_agree && served_ok,
    }
}

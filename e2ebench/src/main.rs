//! End-to-end benchmark of noisemine.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload mine_dense --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Each workload generates its inputs from `--seed`, runs its ops for
//! `--seconds`, checks every output, prints each metric with its unit and
//! sample count on standard error, and prints one JSON result as the last
//! line of standard output. `--trace 0` reports the end-to-end metrics of
//! the production path; `--trace 1` reports the per-layer metrics instead
//! and writes the recorded spans under `.e2ebench/traces/`. See
//! `e2ebench/README.md` for the workloads and metric definitions.

mod gen;
mod layers;
mod mine_dense;
mod mining;
mod serve;
mod serve_classify;
mod stats;
mod stream;
mod stream_clicks;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use stats::Metrics;
use trace::Tracer;

/// What a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Scratch directory for databases and checkpoints, removed at exit.
    pub work: PathBuf,
    pub tracer: Tracer,
}

/// The outcome of one run.
pub struct RunResult {
    pub metrics: Metrics,
    pub attempted: usize,
    pub failed: usize,
    /// Every check passed.
    pub correct: bool,
}

/// Runs set-up `times` times so that its median is steady, timing each
/// repetition. Returns the seconds of every repetition and the last
/// repetition's product; earlier products go to `discard`, untimed.
pub fn repeat_setup<T>(
    times: usize,
    mut f: impl FnMut(usize) -> T,
    mut discard: impl FnMut(T),
) -> (Vec<f64>, T) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for i in 0..times {
        if let Some(previous) = last.take() {
            discard(previous);
        }
        let t = Instant::now();
        last = Some(f(i));
        secs.push(t.elapsed().as_secs_f64());
    }
    (secs, last.expect("at least one set-up"))
}

/// Set-up repetitions per run.
pub const SETUP_REPEATS: usize = 3;

const WORKLOADS: [&str; 3] = ["mine_dense", "stream_clicks", "serve_classify"];

fn usage() -> ! {
    eprintln!(
        "usage: e2ebench --workload mine_dense|stream_clicks|serve_classify|all \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

/// `--workload all`: every workload in a process of its own, one after
/// the other, each printing its own report and result line.
fn run_all(args: &[String]) -> ! {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut ok = true;
    for w in WORKLOADS {
        let mut child_args = args.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("--workload given");
        child_args[at + 1] = w.to_string();
        let status = std::process::Command::new(&exe)
            .args(&child_args)
            .status()
            .expect("start workload process");
        ok &= status.success();
    }
    std::process::exit(if ok { 0 } else { 1 });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => traced = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, traced)
    else {
        usage()
    };
    if workload == "all" {
        run_all(&args);
    }
    let run: fn(&mut Ctx) -> RunResult = match workload.as_str() {
        "mine_dense" => mine_dense::run,
        "stream_clicks" => stream_clicks::run,
        "serve_classify" => serve_classify::run,
        _ => usage(),
    };

    let root = PathBuf::from(".e2ebench");
    let work = root.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).expect("create work directory");
    let mut ctx = Ctx {
        seed,
        seconds,
        work: work.clone(),
        tracer: Tracer::new(traced, Instant::now()),
    };
    let result = run(&mut ctx);
    std::fs::remove_dir_all(&work).ok();
    if traced {
        let path = root
            .join("traces")
            .join(format!("{workload}-seed{seed}.jsonl"));
        ctx.tracer.write_jsonl(&path).expect("write trace");
        eprintln!("spans written to {}", path.display());
    }

    eprintln!("{workload} seed {seed}:");
    for m in &result.metrics.0 {
        eprintln!(
            "  {:<30} {:>16.6} {:<6} (n = {})",
            m.name, m.value, m.unit, m.samples
        );
    }
    eprintln!(
        "  attempted {} failed {} correct {}",
        result.attempted, result.failed, result.correct
    );
    let mut metrics = String::new();
    for (i, m) in result.metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        result.correct, result.attempted, result.failed
    );
}

/// Prints each layer's self time per op, for the traced run.
pub fn report_self_times(tr: &Tracer, ops: usize) {
    eprintln!("self time per op by layer (ms):");
    for (layer, ms) in tr.self_time_by_layer() {
        eprintln!("  {layer:<24} {:>12.3}", ms / ops.max(1) as f64);
    }
}

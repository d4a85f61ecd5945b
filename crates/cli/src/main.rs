//! `noisemine` — mine long sequential patterns in noisy data.
//!
//! ```text
//! noisemine gen     --out db.txt [--matrix-out m.txt] [--sequences N] [--alphabet amino|dN]
//!                   [--motifs "AMTKY:0.4,QVC"] [--noise uniform:0.2|partner:0.3|blosum:0.2]
//! noisemine stats   --db db.txt [--matrix m.txt]
//! noisemine match   --db db.txt --pattern "A*TKY" [--matrix m.txt] [--normalize]
//! noisemine mine    --db db.txt|db.nmdb [--matrix m.txt] [--normalize] [--min-match 0.1]
//!                   [--max-gap 0] [--max-len 16] [--sample N]
//!                   [--threads 0] [--metrics-out m.json]
//!                   [--on-fault strict|retry[:N]|quarantine]   (.nmdb inputs)
//! noisemine stream  --db db.txt [--matrix m.txt] [--checkpoint state.ckpt]
//!                   [--chunk 1000] [--min-match 0.1] [--sample 1000] [--threads 0]
//!                   [--metrics-out m.json]
//! noisemine convert --db db.txt --out db.nmdb [--matrix m.txt]
//! noisemine serve   [--model [tenant=]model.nmmodel[,t2=m2.nmmodel]] [--catalog dir]
//!                   [--catalog-interval 2] [--drift] [--drift-interval 1]
//!                   [--drift-min-seqs 256] [--remine-timeout 30] [--remine-backoff 1]
//!                   [--remine-backoff-max 60] [--breaker-threshold 5]
//!                   [--breaker-cooldown 30] [--addr 127.0.0.1:7700]
//!                   [--threads 4] [--tenant-quota 0]
//!                   [--max-requests-per-conn 0]
//!                   [--idle-timeout 10] [--metrics-out m.json]
//! ```
//!
//! `mine` and `stream` run the paper's three-phase miner with border
//! collapsing. The comparison miners of `noisemine_baselines` (level-wise,
//! Max-Miner, depth-first, Toivonen) and the level-wise phase-3 ablation
//! are library, figure and test oracles only. Every command scores
//! candidate batches with the batched candidate-trie kernel. The naive and
//! columnar kernels of `noisemine_core::MatchKernel` are library and
//! benchmark paths only.

mod commands;
mod opts;

use opts::{CliError, CliResult, Opts};

const USAGE: &str = "\
noisemine — mine long sequential patterns in noisy data (Yang/Wang/Yu/Han, SIGMOD 2002)

USAGE:
  noisemine gen     --out db.txt [--matrix-out m.txt] [--sequences 1000]
                    [--min-len 40] [--max-len 60] [--alphabet amino|dN]
                    [--motifs \"AMTKY:0.4,QVCER\"] [--occurrence 0.4]
                    [--noise uniform:0.2|partner:0.3|blosum:0.2] [--seed 2002]
  noisemine stats   --db db.txt [--matrix m.txt]
  noisemine match   --db db.txt --pattern \"A*TKY\" [--matrix m.txt] [--normalize]
  noisemine mine    --db db.txt|db.nmdb [--matrix m.txt] [--normalize] [--min-match 0.1]
                    [--max-gap 0] [--max-len 16] [--sample N] [--delta 0.001]
                    [--counters 100000] [--seed 2002] [--threads 0] [--limit 50]
                    [--format table|csv|json] [--metrics-out m.json]
                    [--on-fault strict|retry[:N]|quarantine]
                    [--model-out model.nmmodel] [--model-version 1]
  noisemine stream  --db db.txt|- [--matrix m.txt] [--normalize]
                    [--checkpoint state.ckpt] [--chunk 1000] [--min-match 0.1]
                    [--sample 1000] [--delta 0.001] [--counters 100000]
                    [--max-gap 0] [--max-len 16] [--seed 2002] [--threads 0]
                    [--limit 50] [--format table|csv|json] [--metrics-out m.json]
  noisemine learn   --truth clean.txt --observed noisy.txt --out m.txt [--lambda 0.1]
  noisemine convert --db db.txt --out db.nmdb [--matrix m.txt]
  noisemine serve   [--model [tenant=]model.nmmodel[,t2=m2.nmmodel]]
                    [--catalog dir] [--catalog-interval 2]
                    [--drift] [--drift-interval 1] [--drift-min-seqs 256]
                    [--remine-timeout 30] [--remine-backoff 1]
                    [--remine-backoff-max 60] [--breaker-threshold 5]
                    [--breaker-cooldown 30] [--drift-sample 512]
                    [--drift-max-len 8] [--drift-max-gap 0]
                    [--drift-max-buffer 100000]
                    [--addr 127.0.0.1:7700] [--threads 4] [--tenant-quota 0]
                    [--max-requests-per-conn 0] [--idle-timeout 10]
                    [--metrics-out m.json]

Databases are plain text (one sequence per line, single letters or
whitespace-separated tokens; `#`, `>` and blank lines skipped). Matrices use
the #noisemine-matrix dense/sparse text format. --normalize mines with the
diagonal-normalized score matrix (match on the noise-free support scale).
`stream` ingests incrementally, re-mines only when symbol-match estimates
drift past the Chernoff bound, and persists engine state via --checkpoint so
a later run over a grown file resumes from the tail. --threads sets the
worker count of all three phases of the miner (0 = auto); results are
bit-identical at any thread count. --metrics-out enables the observability
layer and writes a metrics snapshot to the given path (JSON, or Prometheus
text when the path ends in .prom/.txt); `stream` rewrites it after every
chunk. Metrics never change mining output — see docs/OBSERVABILITY.md.
`mine` and `stream` run the paper's three-phase miner. `mine` also
accepts a binary .nmdb database: scans then stream from disk under the
--on-fault policy — strict fails on the first damaged byte, retry[:N]
rides out transient I/O faults, quarantine skips corrupt records and
mines the surviving subset — see docs/ROBUSTNESS.md.
`mine --model-out` also writes the three-phase outcome as a versioned,
checksummed NMMODEL serving artifact; `serve` loads such artifacts into
per-tenant slots and answers classification requests over HTTP until POST
/admin/shutdown — hot-swap models with POST /admin/swap, scrape Prometheus
metrics from /metrics, and cap tenants at --tenant-quota requests/second
(0 = unlimited). `serve --catalog` watches a directory of
<tenant>/<version>.nmmodel artifacts and crash-safely adopts the newest
valid version per tenant (torn/corrupt files are ignored; the last-good
model keeps serving); `serve --drift` feeds classified traffic to per-tenant
drift detectors and re-mines + self-swaps models in-process under a
supervised, circuit-broken re-mine loop. /healthz is liveness only; /readyz
reports per-tenant readiness with degradation reasons — see docs/SERVING.md.";

fn run() -> CliResult<()> {
    let opts = Opts::parse(std::env::args().skip(1))?;
    match opts.command.as_str() {
        "gen" => commands::cmd_gen(&opts),
        "stats" => commands::cmd_stats(&opts),
        "match" => commands::cmd_match(&opts),
        "mine" => commands::cmd_mine(&opts),
        "stream" => commands::cmd_stream(&opts),
        "convert" => commands::cmd_convert(&opts),
        "serve" => commands::cmd_serve(&opts),
        "learn" => commands::cmd_learn(&opts),
        "help" | "--help" | "-h" => commands::write_stdout(|out| writeln!(out, "{USAGE}")),
        other => Err(CliError::usage(format!("unknown subcommand {other:?}"))),
    }
}

fn main() {
    if let Err(e) = run() {
        if e.usage {
            eprintln!("error: {e}\n\n{USAGE}");
        } else {
            eprintln!("error: {e}");
        }
        std::process::exit(2);
    }
}

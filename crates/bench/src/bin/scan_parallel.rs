//! Parallel phase-1 scan throughput (`try_scan_map_reduce` over both
//! stores).
//!
//! Times [`try_phase1_threads`] over the same synthetic database at several
//! worker-thread counts, against both the in-memory store and the
//! disk-resident store (whose block scan overlaps file I/O with compute via
//! read-ahead double buffering). Before timing anything it verifies the
//! determinism contract: symbol matches **and** the seeded sample must be
//! bit-identical at every thread count. Results are printed as a table and
//! recorded as JSON (default `BENCH_parallel.json`), including the host's
//! available parallelism — speedups are meaningless without it.

use std::fmt::Write as _;
use std::time::Instant;

use noisemine_bench::args::Args;
use noisemine_bench::table::Table;
use noisemine_core::matching::SequenceScan;
use noisemine_core::miner::{try_phase1_threads, Phase1Output};
use noisemine_core::CompatibilityMatrix;
use noisemine_datagen::{scalability_db, sparse_random_matrix};
use noisemine_seqdb::{DiskDb, MemoryDb};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Row {
    backend: &'static str,
    threads: usize,
    secs: f64,
    seqs_per_sec: f64,
    speedup: f64,
}

fn main() {
    let args = Args::parse();
    args.deny_unknown(&[
        "seed",
        "symbols",
        "sequences",
        "length",
        "sample",
        "threads",
        "repeat",
        "out",
    ]);
    let seed = args.u64("seed", 2002);
    let m = args.usize("symbols", 20);
    let n = args.usize("sequences", 20_000);
    let len = args.usize("length", 50);
    let sample = args.usize("sample", 500);
    let thread_counts = args.usize_list("threads", &[1, 2, 4, 8]);
    let repeat = args.usize("repeat", 3).max(1);
    let out = args.get("out", "BENCH_parallel.json").to_string();

    noisemine_obs::enable();
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let matrix = sparse_random_matrix(m, 0.2, 0.85, seed ^ 0x57);
    let seqs = scalability_db(m, n, len, seed ^ 0x59);

    let disk_path =
        std::env::temp_dir().join(format!("noisemine-scan-bench-{}.nmdb", std::process::id()));
    let disk = DiskDb::create_from(&disk_path, seqs.iter().map(Vec::as_slice)).expect("disk db");
    let memory = MemoryDb::from_sequences(seqs);

    let mut t = Table::new(
        &format!("Parallel phase-1 scan (n = {n}, len = {len}, m = {m}, {cpus} cpu(s))"),
        ["backend", "threads", "secs", "seqs/s", "speedup"],
    );
    let mut rows = Vec::new();
    for (backend, db) in [
        ("memory", &memory as &dyn SequenceScan),
        ("disk", &disk as &dyn SequenceScan),
    ] {
        let (serial_secs, serial_p1) = run(db, &matrix, sample, seed, 1, repeat);
        for &threads in &thread_counts {
            let (secs, p1) = if threads == 1 {
                (serial_secs, serial_p1.clone())
            } else {
                run(db, &matrix, sample, seed, threads, repeat)
            };
            assert!(
                p1.symbol_match == serial_p1.symbol_match && p1.sample == serial_p1.sample,
                "{backend} phase 1 diverged at {threads} threads — determinism contract broken"
            );
            let row = Row {
                backend,
                threads,
                secs,
                seqs_per_sec: n as f64 / secs,
                speedup: serial_secs / secs,
            };
            t.row([
                row.backend.to_string(),
                row.threads.to_string(),
                format!("{:.4}", row.secs),
                format!("{:.0}", row.seqs_per_sec),
                format!("{:.2}", row.speedup),
            ]);
            rows.push(row);
        }
    }
    std::fs::remove_file(&disk_path).ok();
    t.emit(None);

    std::fs::write(&out, to_json(seed, m, n, len, sample, cpus, &rows)).expect("write json");
    println!("\nwrote {out}");
}

/// Times `repeat` runs of phase 1 (fresh seeded RNG each run, so every run
/// draws the same sample) and returns the best wall-clock with the output.
fn run(
    db: &dyn SequenceScan,
    matrix: &CompatibilityMatrix,
    sample: usize,
    seed: u64,
    threads: usize,
    repeat: usize,
) -> (f64, Phase1Output) {
    let mut best = f64::INFINITY;
    let mut output = None;
    for _ in 0..repeat {
        let mut rng = StdRng::seed_from_u64(seed);
        let start = Instant::now();
        let p1 = try_phase1_threads(db, matrix, sample, &mut rng, threads).expect("phase-1 scan");
        best = best.min(start.elapsed().as_secs_f64());
        output = Some(p1);
    }
    (best, output.expect("repeat >= 1"))
}

/// Hand-rolled JSON (the vendored serde shim does not serialize).
fn to_json(
    seed: u64,
    m: usize,
    n: usize,
    len: usize,
    sample: usize,
    cpus: usize,
    rows: &[Row],
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"scan_parallel\",");
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(s, "  \"symbols\": {m},");
    let _ = writeln!(s, "  \"sequences\": {n},");
    let _ = writeln!(s, "  \"seq_len\": {len},");
    let _ = writeln!(s, "  \"sample\": {sample},");
    let _ = writeln!(s, "  \"cpus\": {cpus},");
    let _ = writeln!(
        s,
        "  \"metrics\": {},",
        noisemine_bench::metrics_json_fragment(2)
    );
    let _ = writeln!(s, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"backend\": \"{}\", \"threads\": {}, \"secs\": {:.6}, \
             \"seqs_per_sec\": {:.1}, \"speedup\": {:.3}}}{comma}",
            r.backend, r.threads, r.secs, r.seqs_per_sec, r.speedup,
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

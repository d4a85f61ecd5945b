//! Positional symbol index: skip-scan probe throughput vs the full scan.
//!
//! Times phase-3-style probe batches through
//! [`try_db_match_many`] with and without a [`SkipPlan`],
//! over a grid of alphabet sizes × probe lengths × batch sizes. Probe
//! batches mimic a border-collapse frontier: every probe shares a common
//! motif core and perturbs one position, exactly the shape
//! border collapsing emits — the shared core is what keeps the
//! union-of-candidates plan selective.
//!
//! The matrix is the identity, the sparsest compatibility structure: a
//! concrete probe symbol can only be observed as itself, so a sequence
//! missing any core symbol provably matches at 0.0 and the plan may skip
//! it. Dense matrices make every symbol reachable from every other and the
//! index (correctly) degrades to a no-op — that regime is not interesting
//! to time.
//!
//! Before timing anything it verifies the bit-identity contract: the
//! indexed scan must return the exact same `Vec<f64>` as the full scan for
//! every grid point. Plan construction is timed inside the indexed mode
//! (that is where border collapsing pays it). Results are printed as a
//! table and recorded as JSON (default `BENCH_index.json`); the CI bench
//! gate compares that file against the committed baseline.

use std::fmt::Write as _;
use std::time::Instant;

use noisemine_bench::args::Args;
use noisemine_bench::table::Table;
use noisemine_core::matching::try_db_match_many;
use noisemine_core::pattern::Pattern;
use noisemine_core::{CompatibilityMatrix, MatchKernel, SkipPlan, Symbol, SymbolIndexBuilder};
use noisemine_datagen::scalability_db;
use noisemine_seqdb::MemoryDb;

struct Row {
    symbols: usize,
    len: usize,
    candidates: usize,
    mode: &'static str,
    secs: f64,
    evals_per_sec: f64,
    speedup: f64,
    visit_frac: f64,
}

fn main() {
    let args = Args::parse();
    args.deny_unknown(&[
        "seed",
        "symbols",
        "sequences",
        "length",
        "candidates",
        "probe-lens",
        "repeat",
        "out",
    ]);
    let seed = args.u64("seed", 2002);
    let symbol_counts = args.usize_list("symbols", &[32, 64, 128]);
    let n = args.usize("sequences", 2000);
    let seq_len = args.usize("length", 40);
    let candidate_counts = args.usize_list("candidates", &[16, 64]);
    let probe_lens = args.usize_list("probe-lens", &[6, 10]);
    let repeat = args.usize("repeat", 5).max(1);
    let out = args.get("out", "BENCH_index.json").to_string();

    noisemine_obs::enable();
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());

    let mut t = Table::new(
        &format!("Symbol-index skip-scan (n = {n}, seq_len = {seq_len}, {cpus} cpu(s))"),
        [
            "m", "len", "probes", "mode", "secs", "evals/s", "speedup", "visit",
        ],
    );
    let mut rows = Vec::new();
    for &m in &symbol_counts {
        // Identity: observed symbol x is compatible with probe symbol p iff
        // x == p. The sparse-alphabet regime the index targets.
        let matrix = CompatibilityMatrix::identity(m);
        let sequences = scalability_db(m, n, seq_len, seed ^ 0x59 ^ m as u64);
        let db = MemoryDb::from_sequences(sequences.clone());
        let mut builder = SymbolIndexBuilder::new(m);
        for seq in &sequences {
            builder.add_sequence(seq);
        }
        let index = builder.finish();

        for &len in &probe_lens {
            for &candidates in &candidate_counts {
                let probes = probe_batch(m, len, candidates);
                // Bit-identity first: the skip plan is only a valid
                // optimization if it never changes a single bit.
                let full_out = scan(&probes, &db, &matrix, None);
                let plan = SkipPlan::build(&index, &probes, &matrix);
                let indexed_out = scan(&probes, &db, &matrix, Some(&plan));
                assert!(
                    full_out == indexed_out,
                    "indexed scan diverged at m = {m}, len = {len}, candidates = {candidates} \
                     — bit-identity contract broken"
                );
                let visit_frac = plan.candidates() as f64 / n as f64;

                let full_secs = run_full(&probes, &db, &matrix, repeat);
                let indexed_secs = run_indexed(&probes, &db, &matrix, &index, repeat);
                for (mode, secs, visit) in [
                    ("full", full_secs, 1.0),
                    ("indexed", indexed_secs, visit_frac),
                ] {
                    let row = Row {
                        symbols: m,
                        len,
                        candidates,
                        mode,
                        secs,
                        evals_per_sec: (candidates * n) as f64 / secs,
                        speedup: full_secs / secs,
                        visit_frac: visit,
                    };
                    t.row([
                        row.symbols.to_string(),
                        row.len.to_string(),
                        row.candidates.to_string(),
                        row.mode.to_string(),
                        format!("{:.4}", row.secs),
                        format!("{:.0}", row.evals_per_sec),
                        format!("{:.2}", row.speedup),
                        format!("{:.2}", row.visit_frac),
                    ]);
                    rows.push(row);
                }
            }
        }
    }
    t.emit(None);

    std::fs::write(&out, to_json(seed, n, seq_len, cpus, &rows)).expect("write json");
    println!("\nwrote {out}");
}

/// A border-collapse-shaped probe batch: `count` length-`len` contiguous
/// probes sharing a fixed motif core spread across the `m`-symbol alphabet,
/// each perturbing exactly one core position. Every probe therefore demands
/// `len - 1` specific shared symbols, which is what keeps the union skip
/// plan selective even across a large batch.
fn probe_batch(m: usize, len: usize, count: usize) -> Vec<Pattern> {
    let core: Vec<usize> = (0..len).map(|j| (j * 17 + 3) % m).collect();
    let mut probes = Vec::with_capacity(count);
    for i in 0..count {
        let mut symbols: Vec<Symbol> = core.iter().map(|&s| Symbol(s as u16)).collect();
        let pos = i % len;
        symbols[pos] = Symbol(((core[pos] + 1 + i / len) % m) as u16);
        probes.push(Pattern::contiguous(&symbols).expect("non-empty probe"));
    }
    probes
}

fn scan(
    probes: &[Pattern],
    db: &MemoryDb,
    matrix: &CompatibilityMatrix,
    plan: Option<&SkipPlan>,
) -> Vec<f64> {
    try_db_match_many(probes, db, matrix, 1, MatchKernel::Trie, plan)
        .expect("in-memory scan cannot fail")
}

/// Times `repeat` single-threaded full scans and returns the best
/// wall-clock.
fn run_full(probes: &[Pattern], db: &MemoryDb, matrix: &CompatibilityMatrix, repeat: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeat {
        let start = Instant::now();
        let out = scan(probes, db, matrix, None);
        best = best.min(start.elapsed().as_secs_f64());
        std::hint::black_box(out);
    }
    best
}

/// Times `repeat` single-threaded indexed scans — including plan
/// construction, which is where border collapsing pays for it on every
/// probe batch — and returns the best wall-clock.
fn run_indexed(
    probes: &[Pattern],
    db: &MemoryDb,
    matrix: &CompatibilityMatrix,
    index: &noisemine_core::SymbolIndex,
    repeat: usize,
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeat {
        let start = Instant::now();
        let plan = SkipPlan::build(index, probes, matrix);
        let out = scan(probes, db, matrix, Some(&plan));
        best = best.min(start.elapsed().as_secs_f64());
        std::hint::black_box(out);
    }
    best
}

/// Hand-rolled JSON (the vendored serde shim does not serialize).
fn to_json(seed: u64, n: usize, seq_len: usize, cpus: usize, rows: &[Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"index_scan\",");
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(s, "  \"sequences\": {n},");
    let _ = writeln!(s, "  \"seq_len\": {seq_len},");
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
            "    {{\"symbols\": {}, \"len\": {}, \"candidates\": {}, \"mode\": \"{}\", \
             \"secs\": {:.6}, \"evals_per_sec\": {:.1}, \"speedup\": {:.3}, \
             \"visit_frac\": {:.4}}}{comma}",
            r.symbols,
            r.len,
            r.candidates,
            r.mode,
            r.secs,
            r.evals_per_sec,
            r.speedup,
            r.visit_frac,
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

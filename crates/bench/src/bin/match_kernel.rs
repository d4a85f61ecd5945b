//! Batched candidate-trie and columnar SIMD kernels vs the naive oracle.
//!
//! Times [`try_db_match_many`] under all three [`MatchKernel`]s over a
//! grid of candidate-batch sizes × pattern lengths × matrices, on the same
//! synthetic database per alphabet. Two matrix regimes:
//!
//! - `fanout`: a [`sparse_random_matrix`] with 20% fan-out per alphabet
//!   size in `--symbols`. Every candidate symbol sits in most columns, so
//!   the trie expands nearly every child it meets;
//! - `partner`: the Fig-14 partner channel (m = 20, α = 0.15, each symbol
//!   confusable with one partner), diagonal-normalized and clamped — two
//!   non-zeros per column, so the trie's column-driven expansion skips all
//!   but two children of every wide sibling list.
//!
//! Candidate batches mimic an Apriori level: the
//! first `candidates` length-`len` contiguous patterns over a small symbol
//! subset in lexicographic order, which share long prefixes exactly the way
//! a level-wise frontier does — that prefix sharing is what the trie and
//! simd kernels exploit (one window walk per batch instead of one per
//! pattern; the simd kernel additionally advances eight windows per step).
//!
//! Before timing anything it verifies the value contract: the trie kernel
//! must return the exact same `Vec<f64>` as the naive oracle, and the simd
//! kernel the exact same bits as the trie (its documented ULP tolerance is
//! zero) — for every grid point. Results are printed as a table and
//! recorded as JSON (default `BENCH_kernel.json`); the CI bench gate
//! compares that file against the committed baseline, gating simd rows on
//! the within-run `speedup_vs_trie` ratio so the verdict is
//! hardware-relative.

use std::fmt::Write as _;
use std::time::Instant;

use noisemine_bench::args::Args;
use noisemine_bench::table::Table;
use noisemine_core::matching::try_db_match_many;
use noisemine_core::pattern::Pattern;
use noisemine_core::{simd_active, CompatibilityMatrix, MatchKernel, Symbol};
use noisemine_datagen::noise::{channel_to_compatibility, partner_channel};
use noisemine_datagen::{scalability_db, sparse_random_matrix};
use noisemine_seqdb::MemoryDb;

/// Symbols the candidate generator draws from — small on purpose, so
/// lexicographic neighbors share long prefixes (an Apriori level over a
/// frequent subset, not the whole alphabet).
const CANDIDATE_BASE: usize = 4;

/// Alphabet size of the partner regime (the Fig-14 alphabet).
const PARTNER_M: usize = 20;

struct Row {
    matrix: &'static str,
    symbols: usize,
    len: usize,
    candidates: usize,
    kernel: &'static str,
    secs: f64,
    evals_per_sec: f64,
    speedup: f64,
    speedup_vs_trie: f64,
}

fn main() {
    let args = Args::parse();
    args.deny_unknown(&[
        "seed",
        "symbols",
        "sequences",
        "length",
        "candidates",
        "pattern-lens",
        "repeat",
        "out",
    ]);
    let seed = args.u64("seed", 2002);
    // Alphabets from the paper's regimes: 20 (protein, the running
    // example) and 100 (mid-scale of the |Λ| ≤ 1000 scalability sweeps).
    let symbol_counts = args.usize_list("symbols", &[20, 100]);
    // Large enough that the fastest rows run long enough to time reliably
    // on a busy host (sub-100µs rows made the gated ratios flaky).
    let n = args.usize("sequences", 2000);
    let seq_len = args.usize("length", 40);
    let candidate_counts = args.usize_list("candidates", &[16, 64, 256]);
    // Short control (4: the regime where the trie's per-window pruning
    // already wins) plus the long-pattern lengths the paper targets.
    let pattern_lens = args.usize_list("pattern-lens", &[4, 12, 16]);
    let repeat = args.usize("repeat", 3).max(1);
    let out = args.get("out", "BENCH_kernel.json").to_string();

    noisemine_obs::enable();
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let simd_path = if simd_active() { "avx2" } else { "scalar" };

    let mut t = Table::new(
        &format!(
            "Batched match kernel (n = {n}, seq_len = {seq_len}, {cpus} cpu(s), simd = {simd_path})"
        ),
        [
            "matrix", "m", "len", "cands", "kernel", "secs", "evals/s", "vs naive", "vs trie",
        ],
    );
    let regimes = symbol_counts
        .iter()
        .map(|&m| {
            let matrix = sparse_random_matrix(m, 0.2, 0.85, seed ^ 0x57 ^ m as u64);
            ("fanout", m, matrix)
        })
        .chain(std::iter::once(("partner", PARTNER_M, partner_matrix())));
    let mut rows = Vec::new();
    for (regime, m, matrix) in regimes {
        let db = MemoryDb::from_sequences(scalability_db(m, n, seq_len, seed ^ 0x59 ^ m as u64));
        for &len in &pattern_lens {
            for &candidates in &candidate_counts {
                let patterns = apriori_level(m, len, candidates);
                // Value contracts first: the fast kernels are only valid
                // optimizations if they never change a single bit.
                let naive_out =
                    try_db_match_many(&patterns, &db, &matrix, 1, MatchKernel::Naive, None)
                        .expect("in-memory scan cannot fail");
                let trie_out =
                    try_db_match_many(&patterns, &db, &matrix, 1, MatchKernel::Trie, None)
                        .expect("in-memory scan cannot fail");
                assert!(
                    naive_out == trie_out,
                    "trie kernel diverged from naive at {regime} m = {m}, len = {len}, \
                     candidates = {candidates} — bit-identity contract broken"
                );
                let simd_out =
                    try_db_match_many(&patterns, &db, &matrix, 1, MatchKernel::Simd, None)
                        .expect("in-memory scan cannot fail");
                for (i, (a, b)) in simd_out.iter().zip(&trie_out).enumerate() {
                    assert!(
                        a.to_bits() == b.to_bits(),
                        "simd kernel diverged from trie at {regime} m = {m}, len = {len}, \
                         candidates = {candidates}, pattern {i}: {a} vs {b} \
                         — SIMD_MAX_ULP = 0 contract broken"
                    );
                }

                let naive_secs = run(&patterns, &db, &matrix, MatchKernel::Naive, repeat);
                let trie_secs = run(&patterns, &db, &matrix, MatchKernel::Trie, repeat);
                let simd_secs = run(&patterns, &db, &matrix, MatchKernel::Simd, repeat);
                for (kernel, secs) in [
                    ("naive", naive_secs),
                    ("trie", trie_secs),
                    ("simd", simd_secs),
                ] {
                    let row = Row {
                        matrix: regime,
                        symbols: m,
                        len,
                        candidates,
                        kernel,
                        secs,
                        evals_per_sec: (candidates * n) as f64 / secs,
                        speedup: naive_secs / secs,
                        speedup_vs_trie: trie_secs / secs,
                    };
                    t.row([
                        row.matrix.to_string(),
                        row.symbols.to_string(),
                        row.len.to_string(),
                        row.candidates.to_string(),
                        row.kernel.to_string(),
                        format!("{:.4}", row.secs),
                        format!("{:.0}", row.evals_per_sec),
                        format!("{:.2}", row.speedup),
                        format!("{:.2}", row.speedup_vs_trie),
                    ]);
                    rows.push(row);
                }
            }
        }
    }
    t.emit(None);

    std::fs::write(&out, to_json(seed, n, seq_len, cpus, simd_path, &rows)).expect("write json");
    println!("\nwrote {out}");
}

/// The mine_dense matrix: the partner channel with α = 0.15 where each
/// symbol `i` mutates only into `i ^ 1`, Bayes-inverted, then
/// diagonal-normalized and clamped.
fn partner_matrix() -> CompatibilityMatrix {
    let partners: Vec<Vec<usize>> = (0..PARTNER_M).map(|i| vec![i ^ 1]).collect();
    channel_to_compatibility(&partner_channel(PARTNER_M, 0.15, &partners))
        .diagonal_normalized_clamped()
        .expect("partner channel normalizes")
}

/// The first `count` length-`len` contiguous patterns over the first
/// [`CANDIDATE_BASE`] symbols of an `m`-symbol alphabet, in lexicographic
/// order — a synthetic Apriori level with maximal prefix sharing.
fn apriori_level(m: usize, len: usize, count: usize) -> Vec<Pattern> {
    let base = CANDIDATE_BASE.min(m);
    let mut patterns = Vec::with_capacity(count);
    let mut digits = vec![0usize; len];
    for _ in 0..count {
        let symbols: Vec<Symbol> = digits.iter().map(|&d| Symbol(d as u16)).collect();
        patterns.push(Pattern::contiguous(&symbols).expect("non-empty candidate"));
        // Lexicographic increment (most-significant digit first).
        for d in digits.iter_mut().rev() {
            *d += 1;
            if *d < base {
                break;
            }
            *d = 0;
        }
    }
    patterns
}

/// Times `repeat` single-threaded scans of the full batch and returns the
/// best wall-clock — the kernels' algorithmic difference, not scheduling
/// noise, is what this bench isolates.
fn run(
    patterns: &[Pattern],
    db: &MemoryDb,
    matrix: &CompatibilityMatrix,
    kernel: MatchKernel,
    repeat: usize,
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeat {
        let start = Instant::now();
        let out = try_db_match_many(patterns, db, matrix, 1, kernel, None)
            .expect("in-memory scan cannot fail");
        best = best.min(start.elapsed().as_secs_f64());
        std::hint::black_box(out);
    }
    best
}

/// Hand-rolled JSON (the vendored serde shim does not serialize).
fn to_json(
    seed: u64,
    n: usize,
    seq_len: usize,
    cpus: usize,
    simd_path: &str,
    rows: &[Row],
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"match_kernel\",");
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(s, "  \"sequences\": {n},");
    let _ = writeln!(s, "  \"seq_len\": {seq_len},");
    let _ = writeln!(s, "  \"cpus\": {cpus},");
    let _ = writeln!(s, "  \"simd_path\": \"{simd_path}\",");
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
            "    {{\"matrix\": \"{}\", \"symbols\": {}, \"len\": {}, \"candidates\": {}, \
             \"kernel\": \"{}\", \"secs\": {:.6}, \"evals_per_sec\": {:.1}, \
             \"speedup\": {:.3}, \"speedup_vs_trie\": {:.3}}}{comma}",
            r.matrix,
            r.symbols,
            r.len,
            r.candidates,
            r.kernel,
            r.secs,
            r.evals_per_sec,
            r.speedup,
            r.speedup_vs_trie,
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

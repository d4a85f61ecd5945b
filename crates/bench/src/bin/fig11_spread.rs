//! Figure 11: effect of the restricted spread `R` (Claim 4.2).
//!
//! - 11(a): average spread `R = minᵢ match[dᵢ]` of a candidate pattern, by
//!   number of non-eternal symbols, for several α;
//! - 11(b): the ratio of ambiguous patterns produced with the restricted
//!   spread over the count with the default `R = 1` — the paper reports a
//!   roughly five-fold reduction for patterns beyond ten symbols.

use std::collections::HashMap;

use noisemine_bench::args::Args;
use noisemine_bench::table::{fmt, Table};
use noisemine_core::chernoff::{restricted_spread, SpreadMode};
use noisemine_core::matching::MemorySequences;
use noisemine_core::miner::try_phase1_threads;
use noisemine_core::sample_miner::{mine_sample_budgeted_kernel, DEFAULT_MAX_SAMPLE_PATTERNS};
use noisemine_core::{MatchKernel, PatternSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse();
    args.deny_unknown(&[
        "seed",
        "threshold",
        "delta",
        "samples",
        "alphas",
        "max-len",
        "sequences",
    ]);
    let seed = args.u64("seed", 2002);
    let min_match = args.f64("threshold", 0.1);
    let delta = args.f64("delta", 0.001);
    let sample_size = args.usize("samples", 1500);
    let alphas = args.f64_list("alphas", &[0.1, 0.2, 0.3]);
    let space = PatternSpace::contiguous(args.usize("max-len", 14));
    let workload = noisemine_bench::sampling_protein_workload(seed, args.usize("sequences", 4000));

    let mut spread_table = Table::new(
        "Figure 11(a): average spread R of candidate patterns vs non-eternal symbols",
        ["k", "alpha", "avg spread R", "candidates"],
    );
    let mut ratio_table = Table::new(
        "Figure 11(b): ambiguous patterns, restricted R vs default R = 1",
        [
            "alpha",
            "ambiguous (R=1)",
            "ambiguous (restricted)",
            "ratio",
        ],
    );

    for &alpha in &alphas {
        let (noisy, matrix) = workload.partner_test_db(alpha, seed ^ 0x1101);
        let norm = matrix
            .diagonal_normalized_clamped()
            .expect("positive diagonals");
        let db = MemorySequences(noisy);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1102);
        let p1 = try_phase1_threads(&db, &norm, sample_size, &mut rng, 0).expect("in-memory scan");

        let restricted = mine_sample_budgeted_kernel(
            &p1.sample,
            &norm,
            &p1.symbol_match,
            min_match,
            delta,
            SpreadMode::Restricted,
            &space,
            DEFAULT_MAX_SAMPLE_PATTERNS,
            MatchKernel::default(),
        );
        let full = mine_sample_budgeted_kernel(
            &p1.sample,
            &norm,
            &p1.symbol_match,
            min_match,
            delta,
            SpreadMode::Full,
            &space,
            DEFAULT_MAX_SAMPLE_PATTERNS,
            MatchKernel::default(),
        );

        // 11(a): average restricted spread per level over all evaluated
        // candidates (frequent + ambiguous + infrequent).
        let mut by_level: HashMap<usize, (f64, usize)> = HashMap::new();
        for pattern in restricted.labels.keys() {
            let k = pattern.non_eternal_count();
            let r = restricted_spread(pattern, &p1.symbol_match);
            let e = by_level.entry(k).or_insert((0.0, 0));
            e.0 += r;
            e.1 += 1;
        }
        let mut levels: Vec<usize> = by_level.keys().copied().collect();
        levels.sort_unstable();
        for k in levels {
            let (sum, count) = by_level[&k];
            spread_table.row([
                k.to_string(),
                format!("{alpha:.1}"),
                fmt(sum / count as f64, 4),
                count.to_string(),
            ]);
        }

        // 11(b): ambiguity reduction.
        let n_full = full.ambiguous.len();
        let n_restricted = restricted.ambiguous.len();
        let ratio = if n_full == 0 {
            1.0
        } else {
            n_restricted as f64 / n_full as f64
        };
        ratio_table.row([
            format!("{alpha:.1}"),
            n_full.to_string(),
            n_restricted.to_string(),
            fmt(ratio, 3),
        ]);
    }
    spread_table.emit(Some(std::path::Path::new("results/fig11a.csv")));
    ratio_table.emit(Some(std::path::Path::new("results/fig11b.csv")));
    println!(
        "paper reports: spread tightens with more non-eternal symbols and higher alpha; the \
         restricted spread cuts ambiguous patterns to ~20% (a five-fold pruning power)"
    );
}

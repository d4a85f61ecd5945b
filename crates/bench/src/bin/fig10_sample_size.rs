//! Figure 10: number of ambiguous patterns vs sample size, for several
//! noise degrees α.
//!
//! Runs phases 1–2 of the miner only (per-symbol matches + Chernoff
//! classification on the sample) and counts the patterns that fall inside
//! the `±ε` band. The paper's observations: ambiguity drops sharply as the
//! sample grows, and higher noise produces more ambiguity.

use noisemine_bench::args::Args;
use noisemine_bench::table::Table;
use noisemine_core::chernoff::SpreadMode;
use noisemine_core::matching::MemorySequences;
use noisemine_core::miner::try_phase1_threads;
use noisemine_core::sample_miner::mine_sample_budgeted_kernel;
use noisemine_core::{MatchKernel, PatternSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse();
    args.deny_unknown(&[
        "seed",
        "threshold",
        "delta",
        "alphas",
        "samples",
        "max-len",
        "sequences",
    ]);
    let seed = args.u64("seed", 2002);
    let min_match = args.f64("threshold", 0.1);
    let delta = args.f64("delta", 0.01);
    let alphas = args.f64_list("alphas", &[0.1, 0.2, 0.3]);
    let sample_sizes = args.usize_list("samples", &[250, 500, 1000, 2000, 4000]);
    let space = PatternSpace::contiguous(args.usize("max-len", 14));
    let workload = noisemine_bench::sampling_protein_workload(seed, args.usize("sequences", 4000));

    let mut t = Table::new(
        &format!(
            "Figure 10: ambiguous patterns vs sample size (delta = {delta}, threshold = {min_match})"
        ),
        ["samples", "alpha", "ambiguous", "sample-frequent"],
    );
    for &alpha in &alphas {
        let (noisy, matrix) = workload.partner_test_db(alpha, seed ^ 0x1001);
        let norm = matrix
            .diagonal_normalized_clamped()
            .expect("positive diagonals");
        let db = MemorySequences(noisy);
        for &n in &sample_sizes {
            let mut rng = StdRng::seed_from_u64(seed ^ (n as u64) << 8);
            let p1 = try_phase1_threads(&db, &norm, n, &mut rng, 0).expect("in-memory scan");
            let p2 = mine_sample_budgeted_kernel(
                &p1.sample,
                &norm,
                &p1.symbol_match,
                min_match,
                delta,
                SpreadMode::Restricted,
                &space,
                2_000_000,
                MatchKernel::default(),
            );
            assert!(
                !p2.truncated,
                "sample of {n} too small to prune at this threshold/delta"
            );
            t.row([
                n.to_string(),
                format!("{alpha:.1}"),
                p2.ambiguous.len().to_string(),
                p2.frequent.len().to_string(),
            ]);
        }
    }
    t.emit(Some(std::path::Path::new("results/fig10.csv")));
}

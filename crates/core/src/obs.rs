//! Metric handles for the core crate's instrumentation.
//!
//! Each function lazily registers one metric in the process-wide
//! [`noisemine_obs::global`] registry and caches the `Arc`-backed handle in
//! a `OnceLock`, so hot paths pay one relaxed atomic load per record call
//! (plus nothing at all while recording is disabled — see
//! [`noisemine_obs::enabled`]). Every metric defined here is documented in
//! `docs/OBSERVABILITY.md` with the paper quantity it corresponds to.
//!
//! Instrumentation is strictly observational: nothing read from these
//! metrics ever feeds back into a mining computation, which is what keeps
//! an instrumented run bit-identical to an uninstrumented one.

use noisemine_obs::{self as obs, Counter, Gauge, Histogram};
use std::sync::OnceLock;

macro_rules! counter {
    ($fn_name:ident, $name:literal, $help:literal, $unit:literal) => {
        pub(crate) fn $fn_name() -> &'static Counter {
            static H: OnceLock<Counter> = OnceLock::new();
            H.get_or_init(|| obs::counter($name, $help, $unit))
        }
    };
}

macro_rules! gauge {
    ($fn_name:ident, $name:literal, $help:literal, $unit:literal) => {
        pub(crate) fn $fn_name() -> &'static Gauge {
            static H: OnceLock<Gauge> = OnceLock::new();
            H.get_or_init(|| obs::gauge($name, $help, $unit))
        }
    };
}

macro_rules! duration_histogram {
    ($fn_name:ident, $name:literal, $help:literal) => {
        pub(crate) fn $fn_name() -> &'static Histogram {
            static H: OnceLock<Histogram> = OnceLock::new();
            H.get_or_init(|| obs::histogram($name, $help, "seconds", obs::duration_buckets()))
        }
    };
}

// Phase spans (Algorithms 4.1 / 4.2 / 4.3-4.4).
duration_histogram!(
    phase1_seconds,
    "core_phase1_seconds",
    "Wall-clock time of phase 1: the single symbol-match + sampling scan (Algorithm 4.1)"
);
duration_histogram!(
    phase2_seconds,
    "core_phase2_seconds",
    "Wall-clock time of phase 2: Chernoff classification of the sample (Algorithm 4.2)"
);
duration_histogram!(
    phase2_generate_seconds,
    "core_phase2_generate_seconds",
    "Phase-2 time generating the next level's candidates from one level's survivors (one observation per evaluated level)"
);
duration_histogram!(
    phase2_evaluate_seconds,
    "core_phase2_evaluate_seconds",
    "Phase-2 time computing one level's sample matches (one observation per evaluated level)"
);
duration_histogram!(
    phase2_label_seconds,
    "core_phase2_label_seconds",
    "Phase-2 time labelling one level by the Chernoff bound and recording its survivors (one observation per evaluated level)"
);
duration_histogram!(
    phase3_seconds,
    "core_phase3_seconds",
    "Wall-clock time of phase 3: border collapsing against the full database (Algorithms 4.3/4.4)"
);

// Phase-2 classification (Algorithm 4.2, Claims 4.1/4.2).
counter!(
    candidates_frequent,
    "core_candidates_frequent_total",
    "Sample candidates labeled frequent (sample match > min_match + eps)",
    "patterns"
);
counter!(
    candidates_ambiguous,
    "core_candidates_ambiguous_total",
    "Sample candidates labeled ambiguous (within +-eps of min_match), left for phase 3",
    "patterns"
);
counter!(
    candidates_infrequent,
    "core_candidates_infrequent_total",
    "Sample candidates labeled infrequent (sample match < min_match - eps) and pruned",
    "patterns"
);
gauge!(
    chernoff_epsilon_max,
    "core_chernoff_epsilon_max",
    "Widest Chernoff half-band eps = sqrt(R^2 ln(1/delta) / 2n) used in phase 2 (Claim 4.1)",
    "match"
);
gauge!(
    restricted_spread_min,
    "core_restricted_spread_min",
    "Smallest restricted spread R (minimum per-symbol match of a candidate, Claim 4.2)",
    "match"
);

// Phase-3 border collapsing (Algorithm 4.3: O(log(len(FQT))) scans).
counter!(
    collapse_db_scans,
    "core_collapse_db_scans",
    "Full database scans performed by border collapsing (the O(log(len(FQT))) cost of Algorithm 4.3)",
    "scans"
);
counter!(
    collapse_probes,
    "core_collapse_probes_total",
    "Ambiguous patterns whose exact match was counted against the full database",
    "patterns"
);
counter!(
    collapse_layers_probed,
    "core_collapse_layers_probed_total",
    "Distinct lattice layers probed across all collapse scans (halfway, quarter-way, ...)",
    "layers"
);
counter!(
    collapse_propagated,
    "core_collapse_propagated_total",
    "Ambiguous patterns resolved by Apriori propagation alone, without counting",
    "patterns"
);
counter!(
    collapse_known_applied,
    "core_collapse_known_applied_total",
    "Pre-verified exact matches applied by border collapsing without any scan (incremental reuse)",
    "patterns"
);

// Batched candidate-trie match kernel (match_kernel.rs).
counter!(
    kernel_nodes_visited,
    "core_kernel_nodes_visited_total",
    "Trie nodes the batched match kernel reached with a non-zero product (expanded or cut at a floor)",
    "nodes"
);
counter!(
    kernel_prunes,
    "core_kernel_prunes_total",
    "Subtrees cut by the kernel's exact best-window floor (Claim 3.1 monotonicity)",
    "subtrees"
);
gauge!(
    kernel_patterns_per_scan,
    "core_kernel_patterns_per_scan",
    "Candidate batch width of the most recent kernel-evaluated database scan",
    "patterns"
);

// Columnar SIMD kernel (match_kernel/simd.rs).
counter!(
    simd_sequences,
    "core_simd_sequences_total",
    "Sequences evaluated on the AVX2 columnar path of the simd kernel",
    "sequences"
);
counter!(
    simd_scalar_fallback,
    "core_simd_scalar_fallback_total",
    "Sequences evaluated on the portable scalar path of the simd kernel (no AVX2, Miri, or NOISEMINE_FORCE_SCALAR)",
    "sequences"
);
counter!(
    simd_lane_slots,
    "core_simd_lane_slots_total",
    "Window-lane slots processed by the columnar kernel (LANES per chunk, filled or not)",
    "lanes"
);
counter!(
    simd_lanes_filled,
    "core_simd_lanes_filled_total",
    "Window-lane slots that held a real window (the rest were tail padding)",
    "lanes"
);
gauge!(
    simd_lane_occupancy,
    "core_simd_lane_occupancy",
    "Filled-lane fraction over the most recently dropped columnar-kernel scratch (1.0 = every lane useful)",
    "ratio"
);

// Positional symbol index skip-scans (index.rs; beyond the paper). They
// move only when a caller passes an index to a phase-3 scan; the miner
// never does.
counter!(
    index_plans_built,
    "core_index_plans_built_total",
    "Skip plans computed from the symbol index (one per indexed probe scan)",
    "plans"
);
counter!(
    index_candidates_visited,
    "core_index_candidates_visited_total",
    "Sequences evaluated by indexed scans because the skip plan marked them candidates",
    "sequences"
);
counter!(
    index_sequences_skipped,
    "core_index_sequences_skipped_total",
    "Sequences skipped by indexed scans (match provably 0.0 for every probe in the batch)",
    "sequences"
);
counter!(
    index_false_positives,
    "core_index_false_positives_total",
    "Skip-plan candidates whose every probe match still evaluated to 0.0 (index selectivity loss)",
    "sequences"
);

// Deterministic scan map-reduce (phases 1, 2 and 3 share it; the two
// counters count database scans only, phases 1 and 3).
counter!(
    scan_sequences,
    "core_scan_sequences_total",
    "Sequences streamed by database scans (phase 1 + phase 3; the phase-2 sample is not counted)",
    "sequences"
);
counter!(
    parallel_scan_blocks,
    "parallel_scan_blocks_total",
    "Blocks of SCAN_BLOCK_SIZE sequences dispatched by database scans (phase 1 + phase 3)",
    "blocks"
);
gauge!(
    parallel_scan_workers,
    "parallel_scan_workers",
    "Worker threads used by the most recent block scan (at most one per block)",
    "threads"
);
gauge!(
    parallel_reduce_queue_peak,
    "parallel_reduce_queue_peak",
    "Peak number of in-flight blocks awaiting ordered reduction in one scan",
    "blocks"
);

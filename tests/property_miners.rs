//! Property tests on the *algorithms*: on random small instances the
//! probabilistic miner (with a full-coverage sample), Max-Miner, and the
//! Toivonen baseline must all reproduce the exact level-wise result, and
//! border collapsing must agree with level-wise verification for any
//! counter budget.

mod common;

use std::collections::HashSet;

use common::{random_matrix, run_cases};
use noisemine::baselines::{
    mine_depth_first, mine_hierarchical, mine_levelwise, mine_maxminer, MaxMinerConfig,
};
use noisemine::core::border_collapse::{try_collapse_with_known_kernel_indexed, ProbeStrategy};
use noisemine::core::lattice::AmbiguousSpace;
use noisemine::core::matching::{db_match, MatchMetric};
use noisemine::core::miner::{mine, MinerConfig};
use noisemine::core::{MatchKernel, Pattern, PatternSpace, Symbol};
use noisemine::seqdb::MemoryDb;
use rand::rngs::StdRng;
use rand::Rng;

const M: usize = 5;
const CASES: usize = 48;

fn random_db(rng: &mut StdRng) -> MemoryDb {
    let count = rng.gen_range(3..12usize);
    MemoryDb::from_sequences((0..count).map(|_| {
        let len = rng.gen_range(2..10usize);
        (0..len)
            .map(|_| Symbol(rng.gen_range(0..M as u16)))
            .collect::<Vec<_>>()
    }))
}

/// With the sample covering the whole database, the three-phase miner's
/// output equals the exact level-wise result for any threshold and
/// either probe strategy.
#[test]
fn three_phase_with_full_sample_is_exact() {
    run_cases(CASES, |rng| {
        let db = random_db(rng);
        let matrix = random_matrix(rng, M, 0.05);
        let min_match = rng.gen_range(0.05..0.6f64);
        let counters = rng.gen_range(1..20usize);
        let levelwise_probe = rng.gen_bool(0.5);
        let space = PatternSpace::contiguous(4);
        let cfg = MinerConfig {
            min_match,
            delta: 0.05,
            sample_size: db.num_sequences_hint(),
            counters_per_scan: counters,
            space,
            probe_strategy: if levelwise_probe {
                ProbeStrategy::LevelWise
            } else {
                ProbeStrategy::BorderCollapsing
            },
            seed: 1,
            ..MinerConfig::default()
        };
        let outcome = mine(&db, &matrix, &cfg).unwrap();
        let exact = mine_levelwise(
            &db,
            &MatchMetric { matrix: &matrix },
            M,
            min_match,
            &cfg.space,
            usize::MAX,
        );
        let got: HashSet<Pattern> = outcome.patterns().into_iter().collect();
        assert_eq!(got, exact.pattern_set());
    });
}

/// Max-Miner finds exactly the level-wise frequent set regardless of
/// look-ahead configuration.
#[test]
fn maxminer_is_exact() {
    run_cases(CASES, |rng| {
        let db = random_db(rng);
        let matrix = random_matrix(rng, M, 0.05);
        let min_match = rng.gen_range(0.05..0.6f64);
        let lookaheads = rng.gen_range(0..16usize);
        let space = PatternSpace::contiguous(4);
        let mm = mine_maxminer(
            &db,
            &MatchMetric { matrix: &matrix },
            M,
            min_match,
            &space,
            &MaxMinerConfig {
                lookaheads_per_scan: lookaheads,
                counters_per_scan: 50,
            },
        );
        let exact = mine_levelwise(
            &db,
            &MatchMetric { matrix: &matrix },
            M,
            min_match,
            &space,
            usize::MAX,
        );
        assert_eq!(mm.pattern_set(), exact.pattern_set());
    });
}

/// Depth-first and hierarchical mining both reproduce the exact
/// level-wise frequent set on random instances.
#[test]
fn depthfirst_and_hierarchical_are_exact() {
    run_cases(CASES, |rng| {
        let db = random_db(rng);
        let matrix = random_matrix(rng, M, 0.05);
        let min_match = rng.gen_range(0.05..0.6f64);
        let min_compat = rng.gen_range(0.05..0.5f64);
        let space = PatternSpace::contiguous(4);
        let sequences: Vec<Vec<Symbol>> = {
            use noisemine::core::matching::SequenceScan;
            let mut v = Vec::new();
            db.scan(&mut |_, s| v.push(s.to_vec()));
            v
        };
        let exact = mine_levelwise(
            &db,
            &MatchMetric { matrix: &matrix },
            M,
            min_match,
            &space,
            usize::MAX,
        );
        let dfs = mine_depth_first(&sequences, &matrix, min_match, &space);
        assert_eq!(dfs.pattern_set(), exact.pattern_set());
        let hier = mine_hierarchical(&sequences, &matrix, min_match, &space, min_compat);
        assert_eq!(hier.pattern_set(), exact.pattern_set());
    });
}

/// Border collapsing resolves every ambiguous pattern to the same
/// verdict as direct counting, for any probe budget and strategy.
#[test]
fn collapse_is_exact_for_any_budget() {
    run_cases(CASES, |rng| {
        let db = random_db(rng);
        let matrix = random_matrix(rng, M, 0.05);
        let min_match = rng.gen_range(0.05..0.6f64);
        let budget = rng.gen_range(1..12usize);
        let levelwise_probe = rng.gen_bool(0.5);
        // Ambiguous set: all 1- and 2-patterns.
        let mut patterns = Vec::new();
        for a in 0..M as u16 {
            patterns.push(Pattern::single(Symbol(a)));
            for b in 0..M as u16 {
                patterns.push(Pattern::contiguous(&[Symbol(a), Symbol(b)]).unwrap());
            }
        }
        let strategy = if levelwise_probe {
            ProbeStrategy::LevelWise
        } else {
            ProbeStrategy::BorderCollapsing
        };
        let result = try_collapse_with_known_kernel_indexed(
            AmbiguousSpace::new(patterns.clone()),
            &[],
            &db,
            &matrix,
            min_match,
            budget,
            strategy,
            0,
            MatchKernel::default(),
            None,
        )
        .unwrap();
        for p in &patterns {
            let exact = db_match(p, &db, &matrix);
            let frequent = result.frequent.iter().any(|r| &r.pattern == p);
            let infrequent = result.infrequent.iter().any(|r| &r.pattern == p);
            assert!(
                frequent ^ infrequent,
                "{} resolved {}",
                p,
                if frequent { "twice" } else { "never" }
            );
            assert_eq!(frequent, exact >= min_match);
        }
    });
}

/// Helper: MemoryDb does not expose num_sequences directly without the
/// trait; small extension for the test.
trait NumSequences {
    fn num_sequences_hint(&self) -> usize;
}

impl NumSequences for MemoryDb {
    fn num_sequences_hint(&self) -> usize {
        use noisemine::core::matching::SequenceScan;
        self.num_sequences()
    }
}

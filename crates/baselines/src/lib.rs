//! # noisemine-baselines
//!
//! The comparison algorithms of the paper's evaluation (Section 5):
//!
//! - [`levelwise`] — exact level-wise (Apriori) mining, generic over the
//!   match/support [`noisemine_core::matching::PatternMetric`]; the oracle
//!   and the support-model miner;
//! - [`maxminer`] — a Max-Miner-style look-ahead miner adapted to sequences
//!   and the match metric (Fig. 14's deterministic baseline);
//! - [`toivonen`] — sampling followed by level-wise finalization (Fig. 14's
//!   sampling baseline);
//! - [`depthfirst`] — projection-based depth-first mining for
//!   memory-resident data (the §2.2 alternative the paper sets aside);
//! - [`hierarchical`] — coarse-to-fine mining over symbol groups, the
//!   paper's stated future work for huge alphabets (Section 6).

pub mod depthfirst;
pub mod hierarchical;
pub mod levelwise;
pub mod maxminer;
pub mod toivonen;

pub use depthfirst::{mine_depth_first, DepthFirstResult};
pub use hierarchical::{mine_hierarchical, HierarchicalResult, SymbolGrouping};
pub use levelwise::{evaluate_patterns, mine_levelwise, LevelwiseResult};
pub use maxminer::{mine_maxminer, MaxMinerConfig, MaxMinerResult};
pub use toivonen::{mine_toivonen, toivonen_config, ToivonenResult};

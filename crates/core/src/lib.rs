//! # noisemine-core
//!
//! A faithful, production-quality implementation of
//! *Mining Long Sequential Patterns in a Noisy Environment*
//! (Yang, Wang, Yu, Han — SIGMOD 2002).
//!
//! In a noisy environment an observed sequence may not accurately reflect
//! the underlying behaviour: an amino acid mutates, a quantized measurement
//! lands in the adjacent bin, a customer substitutes a product. The plain
//! *support* of a pattern (its count of exact occurrences) is brittle under
//! such noise — a long frequent pattern can easily be "concealed". This
//! crate implements the paper's remedy:
//!
//! - a [`matrix::CompatibilityMatrix`] giving, for each observed symbol, the
//!   conditional probability of each underlying true symbol;
//! - the [`matching`] module's **match** metric — the "real support" a
//!   pattern would have in a noise-free world — which satisfies the Apriori
//!   property and degrades to support exactly when the matrix is identity;
//! - the three-phase probabilistic [`miner`]: one scan for per-symbol
//!   matches and a uniform sample (Algorithm 4.1), Chernoff-bound
//!   classification of candidates on the sample with the restricted-spread
//!   refinement ([`chernoff`], Algorithm 4.2), and **border collapsing**
//!   ([`border_collapse`], Algorithms 4.3/4.4) to resolve the ambiguous
//!   patterns in a near-minimal number of full database scans.
//!
//! ## Quick start
//!
//! ```
//! use noisemine_core::alphabet::Alphabet;
//! use noisemine_core::candidates::PatternSpace;
//! use noisemine_core::matching::MemorySequences;
//! use noisemine_core::matrix::CompatibilityMatrix;
//! use noisemine_core::miner::{mine, MinerConfig};
//!
//! let alphabet = Alphabet::synthetic(5);
//! let db = MemorySequences(vec![
//!     alphabet.encode("d0 d1 d2 d0").unwrap(),
//!     alphabet.encode("d3 d1 d0").unwrap(),
//!     alphabet.encode("d2 d3 d1 d0").unwrap(),
//!     alphabet.encode("d1 d1").unwrap(),
//! ]);
//! let matrix = CompatibilityMatrix::paper_figure2();
//! let config = MinerConfig {
//!     min_match: 0.15,
//!     sample_size: 4,
//!     space: PatternSpace::contiguous(4),
//!     ..MinerConfig::default()
//! };
//! let outcome = mine(&db, &matrix, &config).unwrap();
//! assert!(!outcome.frequent.is_empty());
//! ```

pub mod alphabet;
pub mod border_collapse;
pub mod candidates;
pub mod chernoff;
pub mod error;
pub mod index;
pub mod lattice;
pub mod match_kernel;
pub mod matching;
pub mod matrix;
pub mod matrix_io;
pub mod miner;
pub mod model;
pub(crate) mod obs;
pub mod parallel;
pub mod pattern;
pub mod sample_miner;

pub use alphabet::{Alphabet, Symbol};
pub use border_collapse::{CollapseResult, ProbeStrategy};
pub use candidates::PatternSpace;
pub use chernoff::{Label, SpreadMode};
pub use error::{Error, Result, ScanError, ScanErrorKind};
pub use index::{SkipPlan, SymbolIndex, SymbolIndexBuilder};
pub use lattice::Border;
pub use match_kernel::simd::{simd_active, SimdScratch, FORCE_SCALAR_ENV, SIMD_MAX_ULP};
pub use match_kernel::{CandidateTrie, MatchKernel, TrieScratch};
pub use matching::{MatchMetric, PatternMetric, SequenceScan, SupportMetric};
pub use matrix::CompatibilityMatrix;
pub use miner::{mine, FrequentPattern, MineOutcome, MineStats, MinerConfig};
pub use model::{ModelPattern, PatternModel};
pub use pattern::{Pattern, PatternElem};

//! The incremental mining engine: online phase-1 state plus drift-triggered
//! re-mining.
//!
//! [`StreamState`] maintains, per appended sequence and without rescanning
//! anything:
//!
//! - the **per-symbol match sums** of Algorithm 4.1 (first-occurrence
//!   optimized via [`SymbolMatchScratch`]), so the phase-1 symbol matches of
//!   the whole ingested prefix are always available as `sums / total`.
//!   Sums are accumulated in [`SCAN_BLOCK_SIZE`]-sequence blocks — the same
//!   grouping the batch miner's block scan uses — so incremental ingestion
//!   reproduces batch phase 1 **bit for bit** despite floating-point
//!   addition being non-associative;
//! - a **uniform reservoir sample** (Vitter's Algorithm R) of up to
//!   `sample_size` sequences — the streaming replacement for the paper's
//!   sequential sampler, which needs the total count `N` up front;
//! - **exact match sums for tracked patterns**: the FQT/INFQT border
//!   patterns probed by the last phase 3. Keeping their exact matches
//!   online means the next re-mine collapses their region of the ambiguous
//!   space with *zero* database scans (the `known` matches of
//!   [`mine_from_phase1`]); only patterns between the stale borders are
//!   re-probed.
//!
//! A re-mine is triggered when the per-symbol match estimates drift by more
//! than the Chernoff deviation `ε = sqrt(R²·ln(1/δ) / 2n)` since the last
//! mine — the same bound phase 2 uses for classification, so a smaller
//! movement provably cannot flip a confident label.

use noisemine_core::border_collapse::CollapseResult;
use noisemine_core::chernoff::epsilon;
use noisemine_core::matching::{sequence_match, SequenceScan, SymbolMatchScratch};
use noisemine_core::miner::{mine_from_phase1, MineOutcome, MinerConfig, Phase1Output};
use noisemine_core::parallel::SCAN_BLOCK_SIZE;
use noisemine_core::{Alphabet, CompatibilityMatrix, MatchKernel, Pattern, PatternModel, Symbol};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::Result;

/// Phase-1 snapshot taken at the last re-mine, for drift detection.
#[derive(Debug, Clone, PartialEq)]
pub struct MineSnapshot {
    /// Sequences ingested when the snapshot was taken.
    pub total: u64,
    /// Per-symbol matches at that point.
    pub symbol_match: Vec<f64>,
}

/// Everything a re-mine needs, detached from the engine.
///
/// [`StreamState::prepare_mine`] snapshots the engine's phase-1 view,
/// tracked exact matches, matrix, and configuration into one owned value,
/// so the expensive mining step ([`mine_from_phase1`]) can run
/// on another thread — panic-isolated and time-bounded — without borrowing
/// the engine. On success the caller feeds the result back through
/// [`StreamState::complete_mine`]; on failure (panic, timeout, error) the
/// engine was never touched and simply retries later. [`StreamState::mine`]
/// itself is the prepare → mine → complete composition, so a supervised
/// out-of-band mine is bit-identical to an in-place one.
#[derive(Debug, Clone)]
pub struct MinePrep {
    /// Phase-1 view (normalized symbol matches + reservoir sample).
    pub p1: Phase1Output,
    /// Tracked border patterns with normalized exact matches.
    pub known: Vec<(Pattern, f64)>,
    /// The engine's compatibility matrix.
    pub matrix: CompatibilityMatrix,
    /// The engine's miner configuration.
    pub config: MinerConfig,
    /// Stream position the snapshot was taken at.
    pub total: u64,
}

/// Incremental mining engine over an append-only sequence stream.
///
/// The engine owns everything phase 1 produces (symbol matches, sample) and
/// everything phase 3 learned (tracked border patterns with exact match
/// sums); the full ingested prefix itself lives with the caller (typically
/// an appendable [`DiskDb`] log), and is passed in only when
/// [`StreamState::mine`] needs phase-3 scans.
///
/// [`DiskDb`]: noisemine_seqdb::DiskDb
#[derive(Debug)]
pub struct StreamState {
    pub(crate) matrix: CompatibilityMatrix,
    pub(crate) config: MinerConfig,
    /// Sequences ingested so far.
    pub(crate) total: u64,
    /// Unnormalized per-symbol match accumulators over *completed*
    /// [`SCAN_BLOCK_SIZE`]-sequence blocks (`match · total`, minus the
    /// pending partial below).
    pub(crate) match_sums: Vec<f64>,
    /// Per-symbol partial sums of the current (incomplete) block; flushed
    /// into `match_sums` every [`SCAN_BLOCK_SIZE`] sequences so the
    /// grouping of additions matches the batch miner's block scan exactly.
    pub(crate) pending: Vec<f64>,
    /// RNG driving reservoir replacement; checkpointed exactly so a
    /// restored engine draws the same replacements as an uninterrupted one.
    pub(crate) rng: StdRng,
    /// The uniform sample (capacity `config.sample_size`).
    pub(crate) reservoir: Vec<Vec<Symbol>>,
    /// `(pattern, unnormalized exact match sum)` for the borders probed by
    /// the last phase 3.
    pub(crate) tracked: Vec<(Pattern, f64)>,
    /// Phase-1 snapshot at the last re-mine.
    pub(crate) last_mine: Option<MineSnapshot>,
    pub(crate) scratch: SymbolMatchScratch,
}

impl StreamState {
    /// Creates an empty engine for the given compatibility matrix.
    ///
    /// `config.sample_size` bounds the reservoir; `config.seed` seeds the
    /// reservoir RNG, making the whole engine deterministic.
    pub fn new(matrix: CompatibilityMatrix, config: MinerConfig) -> Result<Self> {
        config.validate()?;
        let m = matrix.len();
        Ok(Self {
            config: config.clone(),
            total: 0,
            match_sums: vec![0.0; m],
            pending: vec![0.0; m],
            rng: StdRng::seed_from_u64(config.seed),
            reservoir: Vec::with_capacity(config.sample_size),
            tracked: Vec::new(),
            last_mine: None,
            scratch: SymbolMatchScratch::new(m),
            matrix,
        })
    }

    /// Ingests one appended sequence: O(len · m) symbol-match update, O(1)
    /// expected reservoir update, one match evaluation per tracked pattern.
    pub fn ingest(&mut self, seq: &[Symbol]) {
        let per_seq = self.scratch.sequence(seq, &self.matrix);
        for (acc, &v) in self.pending.iter_mut().zip(per_seq) {
            *acc += v;
        }
        for (pattern, sum) in &mut self.tracked {
            *sum += sequence_match(pattern, seq, &self.matrix);
        }
        // Algorithm R: the (total+1)-th sequence replaces a random slot
        // with probability capacity / (total+1).
        let capacity = self.config.sample_size;
        if self.reservoir.len() < capacity {
            self.reservoir.push(seq.to_vec());
        } else if capacity > 0 {
            let k = self.rng.gen_range(0..=self.total as usize);
            if k < capacity {
                self.reservoir[k] = seq.to_vec();
            }
        }
        self.total += 1;
        crate::obs::sequences_ingested().inc();
        // Block boundary: fold the completed block's partial into the grand
        // sums, mirroring the batch scan's per-block reduction order.
        if self.total % SCAN_BLOCK_SIZE as u64 == 0 {
            for (acc, p) in self.match_sums.iter_mut().zip(&mut self.pending) {
                *acc += *p;
                *p = 0.0;
            }
        }
    }

    /// Ingests a batch of sequences in order.
    pub fn ingest_all<I, T>(&mut self, seqs: I)
    where
        I: IntoIterator<Item = T>,
        T: AsRef<[Symbol]>,
    {
        for s in seqs {
            self.ingest(s.as_ref());
        }
    }

    /// Ingests from a sequence store through its *fallible* scan path,
    /// skipping the first `skip` sequences (those already ingested).
    /// Returns the number of sequences ingested.
    ///
    /// One [`SequenceScan::try_scan_from`]: on a log just extended by
    /// [`DiskDbWriter::finish`], with `skip` the count before the append,
    /// that reads only the appended records.
    ///
    /// On `Err` the sequences visited before the fault have already been
    /// ingested; `total_seen() − skip` tells how far the scan got, and the
    /// caller can resume with a fresh `ingest_from(db, state.total_seen())`
    /// once the store recovers.
    ///
    /// [`DiskDbWriter::finish`]: noisemine_seqdb::DiskDbWriter::finish
    pub fn ingest_from<S: SequenceScan + ?Sized>(&mut self, db: &S, skip: u64) -> Result<u64> {
        let mut ingested = 0u64;
        let state = &mut *self;
        db.try_scan_from(skip, &mut |_id, seq| {
            state.ingest(seq);
            ingested += 1;
        })?;
        Ok(ingested)
    }

    /// Number of sequences ingested so far.
    pub fn total_seen(&self) -> u64 {
        self.total
    }

    /// The current reservoir sample.
    pub fn sample(&self) -> &[Vec<Symbol>] {
        &self.reservoir
    }

    /// The engine's miner configuration.
    pub fn config(&self) -> &MinerConfig {
        &self.config
    }

    /// Sets the operational fields of the configuration: the worker count
    /// (`0` = all cores) and the match kernel. Neither is checkpointed and
    /// neither changes a result, so a restored engine takes them from its
    /// caller.
    pub fn set_operational(&mut self, threads: usize, match_kernel: MatchKernel) {
        self.config.threads = threads;
        self.config.match_kernel = match_kernel;
    }

    /// The engine's compatibility matrix.
    pub fn matrix(&self) -> &CompatibilityMatrix {
        &self.matrix
    }

    /// Patterns whose exact matches are maintained online (last borders).
    pub fn tracked_patterns(&self) -> impl Iterator<Item = &Pattern> {
        self.tracked.iter().map(|(p, _)| p)
    }

    /// Per-symbol matches of the ingested prefix (phase-1 output).
    pub fn symbol_match(&self) -> Vec<f64> {
        if self.total == 0 {
            return self.match_sums.clone();
        }
        let n = self.total as f64;
        // The tail block's partial joins the reduction last, exactly where
        // the batch scan adds its final (short) block.
        self.match_sums
            .iter()
            .zip(&self.pending)
            .map(|(&s, &p)| (s + p) / n)
            .collect()
    }

    /// The phase-1 view of the ingested prefix: normalized symbol matches
    /// plus the reservoir sample.
    pub fn phase1_output(&self) -> Phase1Output {
        Phase1Output {
            symbol_match: self.symbol_match(),
            sample: self.reservoir.clone(),
        }
    }

    /// Tracked patterns with normalized exact matches over the prefix.
    pub fn known_matches(&self) -> Vec<(Pattern, f64)> {
        if self.total == 0 {
            return Vec::new();
        }
        let n = self.total as f64;
        self.tracked
            .iter()
            .map(|(p, s)| (p.clone(), s / n))
            .collect()
    }

    /// Per-symbol drift since the last mine, as `|current − last|`.
    pub fn drift(&self) -> Vec<f64> {
        match &self.last_mine {
            None => self.symbol_match(),
            Some(snap) => self
                .symbol_match()
                .iter()
                .zip(&snap.symbol_match)
                .map(|(c, l)| (c - l).abs())
                .collect(),
        }
    }

    /// Whether some symbol's match estimate has moved by more than the
    /// Chernoff deviation `ε = sqrt(R²·ln(1/δ) / 2n)` since the last mine
    /// (`R` = the symbol's own match, its restricted spread as a
    /// 1-pattern; `n` = the current prefix length). Until the first mine,
    /// any non-empty prefix counts as drifted.
    pub fn drift_exceeded(&self) -> bool {
        let fired = self.drift_exceeded_inner();
        if fired {
            crate::obs::drift_fires().inc();
        }
        fired
    }

    fn drift_exceeded_inner(&self) -> bool {
        let Some(snap) = &self.last_mine else {
            return self.total > 0;
        };
        if self.total == snap.total {
            return false;
        }
        let n = self.total as usize;
        let delta = self.config.delta;
        self.symbol_match()
            .iter()
            .zip(&snap.symbol_match)
            .any(|(c, l)| {
                let spread = c.max(*l).min(1.0);
                if spread <= 0.0 {
                    return false;
                }
                (c - l).abs() > epsilon(spread, n, delta)
            })
    }

    /// Re-mines the ingested prefix.
    ///
    /// Runs phase 2 on the reservoir and phase 3 against `db` — which must
    /// scan exactly the sequences ingested so far, in ingestion order.
    /// Tracked border patterns contribute their online exact matches, so
    /// only ambiguous patterns between the stale FQT/INFQT borders cost
    /// scans. Afterwards the tracked set is replaced by the borders this
    /// mine probed, and the drift detector is re-anchored.
    pub fn mine<S: SequenceScan + ?Sized>(&mut self, db: &S) -> Result<MineOutcome> {
        let prep = self.prepare_mine();
        let (outcome, p3) =
            mine_from_phase1(db, &prep.matrix, &prep.config, &prep.p1, &prep.known)?;
        self.complete_mine(&prep, &p3);
        Ok(outcome)
    }

    /// Snapshots everything a re-mine needs (see [`MinePrep`]). The caller
    /// runs [`mine_from_phase1`] over the snapshot — possibly on
    /// another thread, under a panic guard and a deadline — and applies the
    /// result with [`Self::complete_mine`].
    pub fn prepare_mine(&self) -> MinePrep {
        MinePrep {
            p1: self.phase1_output(),
            known: self.known_matches(),
            matrix: self.matrix.clone(),
            config: self.config.clone(),
            total: self.total,
        }
    }

    /// Applies a finished re-mine: adopts the borders phase 3 probed as the
    /// new tracked set and re-anchors the drift detector at the snapshot.
    ///
    /// Exactness of the tracked sums requires that nothing was ingested
    /// between [`Self::prepare_mine`] and this call (the serve-layer drift
    /// loop runs both from one thread, so the window is empty by
    /// construction). A supervised mine that fails never reaches this
    /// point, leaving the engine exactly as prepared — drift stays fired
    /// and the caller retries.
    pub fn complete_mine(&mut self, prep: &MinePrep, p3: &CollapseResult) {
        debug_assert_eq!(
            prep.total, self.total,
            "sequences were ingested between prepare_mine and complete_mine"
        );
        crate::obs::remines().inc();
        crate::obs::border_reuse_hits().add(p3.known_applied as u64);
        self.adopt_borders(p3);
        crate::obs::tracked_patterns().set(self.tracked.len() as f64);
        self.last_mine = Some(MineSnapshot {
            total: prep.total,
            symbol_match: prep.p1.symbol_match.clone(),
        });
    }

    /// Re-anchors the drift detector at the current prefix **without**
    /// mining: subsequent [`Self::drift_exceeded`] calls measure movement
    /// relative to now. Used by the serve-layer drift loop to calibrate a
    /// freshly attached traffic stream against the model already serving,
    /// so the first few requests don't count as "drift" from an empty
    /// baseline.
    pub fn anchor(&mut self) {
        self.last_mine = Some(MineSnapshot {
            total: self.total,
            symbol_match: self.symbol_match(),
        });
    }

    /// Convenience driver: re-mines only if the drift bound is exceeded.
    /// Returns `None` when the current borders are still trustworthy.
    pub fn mine_if_drifted<S: SequenceScan + ?Sized>(
        &mut self,
        db: &S,
    ) -> Result<Option<MineOutcome>> {
        if self.drift_exceeded() {
            self.mine(db).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Freezes a mining outcome into a versioned [`PatternModel`] for the
    /// online serving layer — the drift→swap hook.
    ///
    /// The model's version is the stream position ([`Self::total_seen`])
    /// at freeze time, so successive drift-triggered re-mines yield
    /// strictly increasing versions and a serving registry can hot-swap
    /// monotonically. The matrix and `min_match` are the engine's own.
    pub fn to_model(&self, outcome: &MineOutcome, alphabet: &Alphabet) -> PatternModel {
        PatternModel::from_outcome(
            outcome,
            alphabet,
            &self.matrix,
            self.config.min_match,
            self.total_seen(),
        )
    }

    /// Replaces the tracked set with every pattern the given phase-3 run
    /// verified exactly (probed, or pre-verified and re-applied), seeding
    /// each with `match · total` so future ingests keep the sum exact.
    fn adopt_borders(&mut self, p3: &CollapseResult) {
        let n = self.total as f64;
        self.tracked = p3
            .frequent
            .iter()
            .chain(&p3.infrequent)
            .filter_map(|r| r.match_value.map(|v| (r.pattern.clone(), v * n)))
            .collect();
    }
}

//! In-server drift detection and re-mining, ticked by the
//! [`Supervisor`](crate::Supervisor): classified traffic feeds a
//! per-tenant [`StreamState`]; when the Chernoff drift detector fires, a
//! supervised background re-mine produces a new model, writes it into the
//! catalog crash-safely, and self-swaps — closing mine → serve → drift
//! without an operator.
//!
//! ## The per-tenant machine
//!
//! The supervisor owns every tenant's [`StreamState`] and traffic buffer
//! ([`Supervisor::absorb`](crate::Supervisor::absorb)) and, on each drift
//! tick at `now`:
//!
//! 1. anchors a fresh tenant's baseline once `min_sequences` samples have
//!    arrived (no mine — the offline model already serves; drift is
//!    measured *from here*),
//! 2. checks [`StreamState::drift_exceeded`]; a fire marks the tenant
//!    `stale`,
//! 3. runs the re-mine **supervised**: on a separate thread (panic
//!    isolation via the thread boundary), bounded by `remine_timeout`
//!    (result channel `recv_timeout`; an overrunning mine is abandoned —
//!    it holds only cloned data, so the engine is untouched). The tick
//!    waits for the attempt,
//! 4. on success, writes the model into the catalog (tmp + rename),
//!    **re-reads and re-validates the artifact**, and only then adopts it
//!    through [`ModelRegistry::adopt_if_newer`] — a corrupt write is
//!    caught here and counts as a failure, the last-good model keeps
//!    serving,
//! 5. on failure (panic, timeout, mine error, corrupt write), retries with
//!    exponential backoff; after `breaker_threshold` consecutive failures
//!    the **circuit breaker** opens (state `circuit_open`, re-mines
//!    suspended). At `breaker_cooldown` it half-opens: one trial attempt
//!    is allowed — success closes the breaker, failure re-opens it for
//!    another cooldown.
//!
//! Backoff and cooldown count from the `now` of the tick that ran the
//! failed attempt — or from its deadline, `now + remine_timeout`, when it
//! timed out — so a test that steps `now` sees the schedule exactly.
//!
//! Every state transition lands on the registry ([`ServingState`]) and the
//! obs surface, so `/admin/models`, `/readyz`, and `/metrics` all tell the
//! same story. Because the engine is only mutated by
//! [`StreamState::complete_mine`] *after* a fully validated adoption, a
//! failed attempt of any kind leaves both the served model and the drift
//! detector exactly as they were.
//!
//! ## Chaos hooks
//!
//! [`DriftConfig::fault_hook`] lets tests inject failures at exact points:
//! a panic inside the supervised mine, a stall past the deadline, or a
//! corrupted artifact write. The chaos suite drives all three and asserts
//! the breaker schedule and byte-identical serving throughout.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use noisemine_core::miner::{mine_from_phase1, MinerConfig};
use noisemine_core::{PatternModel, PatternSpace, Symbol};
use noisemine_seqdb::MemoryDb;
use noisemine_stream::StreamState;

use crate::catalog::Catalog;
use crate::registry::{Adoption, ModelRegistry, ServeModel, ServingState};

/// An injected re-mine failure (chaos testing; see the module docs).
#[derive(Debug, Clone, Copy)]
pub enum DriftFault {
    /// Panic inside the supervised mine thread.
    Panic,
    /// Sleep this long inside the supervised mine thread (set it past
    /// `remine_timeout` to exercise the deadline path).
    Stall(Duration),
    /// Replace the catalog artifact's bytes with garbage after the write —
    /// the validate-before-adopt step must reject it.
    CorruptWrite,
}

/// Decides whether attempt number `n` (1-based, per tenant) for `tenant`
/// should fail, and how.
pub type FaultHook = Arc<dyn Fn(&str, u32) -> Option<DriftFault> + Send + Sync>;

/// Drift configuration.
#[derive(Clone)]
pub struct DriftConfig {
    /// How often the supervisor checks each tenant for drift.
    pub interval: Duration,
    /// Samples a tenant must accumulate before its baseline is anchored
    /// (and before any re-mine): the Chernoff bound is meaningless over a
    /// handful of sequences.
    pub min_sequences: u64,
    /// Deadline for one supervised re-mine.
    pub remine_timeout: Duration,
    /// First retry delay after a failed re-mine; doubles per consecutive
    /// failure up to [`Self::backoff_max`].
    pub backoff_base: Duration,
    /// Exponential-backoff ceiling.
    pub backoff_max: Duration,
    /// Consecutive failures that open the circuit breaker.
    pub breaker_threshold: u32,
    /// How long the breaker stays open before half-opening (one trial
    /// attempt allowed).
    pub breaker_cooldown: Duration,
    /// Retained-traffic cap per tenant. Beyond it, new samples no longer
    /// grow the re-mine buffer (dropped and counted) — bounding memory on
    /// a long-lived server.
    pub max_buffer: usize,
    /// Reservoir size for each tenant's [`StreamState`].
    pub sample_size: usize,
    /// Pattern-space bound for in-server re-mines: maximum pattern length.
    pub max_len: usize,
    /// Pattern-space bound for in-server re-mines: maximum gap.
    pub max_gap: usize,
    /// Seed for each tenant's engine (reservoir RNG).
    pub seed: u64,
    /// Chaos hook: injects failures into exact points of the re-mine path
    /// (`None` in production).
    pub fault_hook: Option<FaultHook>,
}

impl std::fmt::Debug for DriftConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriftConfig")
            .field("interval", &self.interval)
            .field("min_sequences", &self.min_sequences)
            .field("remine_timeout", &self.remine_timeout)
            .field("backoff_base", &self.backoff_base)
            .field("backoff_max", &self.backoff_max)
            .field("breaker_threshold", &self.breaker_threshold)
            .field("breaker_cooldown", &self.breaker_cooldown)
            .field("max_buffer", &self.max_buffer)
            .field("fault_hook", &self.fault_hook.is_some())
            .finish()
    }
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_secs(1),
            min_sequences: 256,
            remine_timeout: Duration::from_secs(30),
            backoff_base: Duration::from_secs(1),
            backoff_max: Duration::from_secs(60),
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_secs(30),
            max_buffer: 100_000,
            sample_size: 512,
            max_len: 8,
            max_gap: 0,
            seed: 2002,
            fault_hook: None,
        }
    }
}

/// Per-tenant drift state, owned by the supervisor.
struct TenantDrift {
    stream: StreamState,
    /// Every retained sample, in arrival order — the re-mine's phase-3
    /// database (capped at `max_buffer`).
    buffer: Vec<Vec<Symbol>>,
    /// Model metadata frozen from the tenant's serving model at attach
    /// time (alphabet for freezing outcomes, min_match already inside the
    /// stream config).
    alphabet: noisemine_core::Alphabet,
    /// Whether the baseline has been anchored (first `min_sequences`
    /// samples calibrate the detector; no mine).
    anchored: bool,
    /// Consecutive re-mine failures (reset on success).
    failures: u32,
    /// Whether the circuit breaker is open: re-mines are suspended until
    /// `retry_at`, then one half-open trial decides.
    open: bool,
    /// No attempt runs before this instant: the backoff after a failure,
    /// or the cooldown while the breaker is open.
    retry_at: Option<Instant>,
    /// Total attempts (1-based counter fed to the fault hook).
    attempts: u32,
}

/// The supervisor's drift half: the configuration, the validated
/// pattern space, and every tenant's state, in tenant-name order (the
/// order a tick visits them).
pub(crate) struct Drift {
    config: DriftConfig,
    space: PatternSpace,
    tenants: BTreeMap<String, TenantDrift>,
}

impl Drift {
    /// Validates the configuration once, so a bad pattern space fails at
    /// startup instead of on every sample.
    pub(crate) fn new(config: DriftConfig) -> noisemine_core::Result<Self> {
        let space = PatternSpace::new(config.max_gap, config.max_len)?;
        Ok(Self {
            config,
            space,
            tenants: BTreeMap::new(),
        })
    }

    pub(crate) fn interval(&self) -> Duration {
        self.config.interval
    }

    /// Folds one classified batch into its tenant's engine, creating the
    /// engine from the tenant's serving model on first contact. A batch
    /// that cannot be absorbed is counted as dropped.
    pub(crate) fn absorb(
        &mut self,
        registry: &ModelRegistry,
        tenant: &str,
        sequences: Vec<Vec<Symbol>>,
    ) {
        if !self.tenants.contains_key(tenant) {
            // Bootstrap from the serving model: its matrix and threshold
            // ARE the mining contract the model was built under.
            let stream = registry.model(tenant).and_then(|model| {
                let miner_config = MinerConfig {
                    min_match: model.spec.min_match,
                    sample_size: self.config.sample_size.max(1),
                    space: self.space,
                    seed: self.config.seed,
                    ..MinerConfig::default()
                };
                let stream = StreamState::new(model.spec.matrix.clone(), miner_config).ok()?;
                Some((stream, model.spec.alphabet.clone()))
            });
            let Some((stream, alphabet)) = stream else {
                crate::obs::drift_samples_dropped().add(sequences.len() as u64);
                return;
            };
            self.tenants.insert(
                tenant.to_string(),
                TenantDrift {
                    stream,
                    buffer: Vec::new(),
                    alphabet,
                    anchored: false,
                    failures: 0,
                    open: false,
                    retry_at: None,
                    attempts: 0,
                },
            );
        }
        let td = self.tenants.get_mut(tenant).expect("just inserted");
        for seq in sequences {
            if td.buffer.len() >= self.config.max_buffer {
                crate::obs::drift_samples_dropped().inc();
                continue;
            }
            td.stream.ingest(&seq);
            td.buffer.push(seq);
        }
        let buffered = self.tenants.values().map(|t| t.buffer.len() as f64).sum();
        crate::obs::drift_buffered().set(buffered);
    }

    /// One drift tick at `now`: every tenant, in name order. Each re-mine
    /// runs to completion (or its deadline) before the next tenant's turn.
    pub(crate) fn tick(
        &mut self,
        registry: &ModelRegistry,
        catalog: Option<&Catalog>,
        now: Instant,
    ) {
        for (name, td) in &mut self.tenants {
            tick_tenant(&self.config, registry, catalog, name, td, now);
        }
    }
}

/// One drift tick for one tenant: baseline anchoring, drift check,
/// breaker schedule, and (possibly) a supervised re-mine attempt.
fn tick_tenant(
    config: &DriftConfig,
    registry: &ModelRegistry,
    catalog: Option<&Catalog>,
    tenant: &str,
    td: &mut TenantDrift,
    now: Instant,
) {
    if td.stream.total_seen() < config.min_sequences {
        return;
    }
    // Calibration: the first min_sequences samples define "what traffic
    // looked like under the model we already serve" — anchor there, no
    // mine. Drift is measured from this baseline on.
    if !td.anchored {
        td.stream.anchor();
        td.anchored = true;
        return;
    }
    if !td.stream.drift_exceeded() {
        return;
    }
    if td.retry_at.is_some_and(|at| now < at) {
        let (state, reason) = if td.open {
            let reason = format!("{} consecutive re-mine failures", td.failures);
            (ServingState::CircuitOpen, reason)
        } else {
            let reason = format!("drift detected; retry backoff ({} failures)", td.failures);
            (ServingState::Stale, reason)
        };
        registry.set_state(tenant, state, &reason);
        return;
    }
    if td.open {
        // Cooldown over: half-open (gauge 1) for one trial attempt.
        crate::obs::set_breaker(tenant, 1.0);
    }
    registry.set_state(tenant, ServingState::Remining, "drift detected; re-mining");
    td.attempts += 1;
    let fault = config
        .fault_hook
        .as_ref()
        .and_then(|hook| hook(tenant, td.attempts));
    crate::obs::remine_attempts().inc();
    let span = crate::obs::remine_seconds().span();
    match supervised_remine(config, registry, catalog, tenant, td, fault, now) {
        Ok(()) => {
            span.finish();
            crate::obs::remines_completed().inc();
            td.failures = 0;
            td.open = false;
            td.retry_at = None;
            crate::obs::set_breaker(tenant, 0.0);
            crate::obs::self_swaps().inc();
            registry.set_state(tenant, ServingState::Current, "");
        }
        Err((why, failed_at)) => {
            span.cancel();
            td.failures += 1;
            crate::obs::remine_failures().inc();
            if td.open || td.failures >= config.breaker_threshold {
                // A half-open trial failure re-opens immediately; a closed
                // breaker opens once the failure budget is spent.
                td.open = true;
                td.retry_at = Some(failed_at + config.breaker_cooldown);
                crate::obs::set_breaker(tenant, 2.0);
                crate::obs::breaker_opens().inc();
                registry.set_state(
                    tenant,
                    ServingState::CircuitOpen,
                    &format!("{} consecutive re-mine failures; last: {why}", td.failures),
                );
            } else {
                let exp = td.failures.saturating_sub(1).min(16);
                let backoff = config
                    .backoff_base
                    .saturating_mul(1u32 << exp)
                    .min(config.backoff_max);
                td.retry_at = Some(failed_at + backoff);
                registry.set_state(
                    tenant,
                    ServingState::Stale,
                    &format!("re-mine failed ({why}); retrying in {backoff:?}"),
                );
            }
        }
    }
}

/// Runs one supervised re-mine attempt: panic-isolated, time-bounded, and
/// validated end-to-end before anything observable changes. A failure
/// comes with the instant the tick learned of it: the deadline
/// (`now + remine_timeout`) if the attempt timed out, else `now`.
fn supervised_remine(
    config: &DriftConfig,
    registry: &ModelRegistry,
    catalog: Option<&Catalog>,
    tenant: &str,
    td: &mut TenantDrift,
    fault: Option<DriftFault>,
    now: Instant,
) -> Result<(), (String, Instant)> {
    let prep = td.stream.prepare_mine();
    let db = MemoryDb::from_sequences(td.buffer.clone());
    let mine_prep = prep.clone();
    let (result_tx, result_rx) = mpsc::sync_channel(1);
    let worker = std::thread::Builder::new()
        .name(format!("serve-remine-{tenant}"))
        .spawn(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                match fault {
                    Some(DriftFault::Panic) => panic!("injected re-mine panic"),
                    Some(DriftFault::Stall(d)) => std::thread::sleep(d),
                    _ => {}
                }
                mine_from_phase1(
                    &db,
                    &mine_prep.matrix,
                    &mine_prep.config,
                    &mine_prep.p1,
                    &mine_prep.known,
                )
            }));
            // The tick may have timed out and dropped the receiver —
            // a send error is the expected way an abandoned mine ends.
            let _ = result_tx.send(outcome);
        })
        .map_err(|e| (format!("spawn re-mine thread: {e}"), now))?;
    let result = result_rx.recv_timeout(config.remine_timeout);
    if result.is_ok() {
        let _ = worker.join();
    }
    let (outcome, p3) = match result {
        Ok(Ok(Ok(pair))) => pair,
        Ok(Ok(Err(e))) => return Err((format!("mine error: {e}"), now)),
        Ok(Err(_panic)) => {
            crate::obs::remine_panics().inc();
            return Err(("re-mine panicked".to_string(), now));
        }
        Err(_) => {
            // Deadline blown. The worker keeps running detached on cloned
            // data; its eventual result is discarded with the channel.
            crate::obs::remine_timeouts().inc();
            let why = format!("re-mine exceeded {:?}", config.remine_timeout);
            return Err((why, now + config.remine_timeout));
        }
    };
    // Version: strictly newer than whatever serves now, and at least the
    // stream position (StreamState::to_model's convention), so successive
    // self-swaps are monotone even across an operator's manual swap.
    let current = registry.current_version(tenant);
    let version = current.map_or(prep.total, |c| c.saturating_add(1).max(prep.total));
    let model = PatternModel::from_outcome(
        &outcome,
        &td.alphabet,
        &prep.matrix,
        prep.config.min_match,
        version,
    );
    let compiled = match catalog {
        Some(cat) => {
            // Crash-safe write, then read back and re-validate: the served
            // model must come from the exact bytes on disk, and a corrupt
            // write must never reach the registry.
            let path = cat
                .write(tenant, &model)
                .map_err(|e| (format!("catalog write: {e}"), now))?;
            if matches!(fault, Some(DriftFault::CorruptWrite)) {
                corrupt_artifact(&path).map_err(|why| (why, now))?;
            }
            let reread = crate::model_io::read_model(&path).map_err(|e| {
                crate::obs::catalog_rejects().inc();
                (format!("artifact failed validation after write: {e}"), now)
            })?;
            ServeModel::compile(reread)
        }
        None => ServeModel::compile(model),
    };
    if let Adoption::NotNewer { current } = registry.adopt_if_newer(tenant, compiled) {
        // An operator swapped a newer model mid-mine; drop ours.
        return Err((format!("superseded by concurrent swap to v{current}"), now));
    }
    // Only now — model validated, adopted, serving — does the engine
    // absorb the mine (tracked borders + drift re-anchor).
    td.stream.complete_mine(&prep, &p3);
    Ok(())
}

/// Chaos helper: flips bits in the middle of a written artifact, in place,
/// simulating a buggy or torn writer.
fn corrupt_artifact(path: &std::path::Path) -> Result<(), String> {
    let mut bytes = std::fs::read(path).map_err(|e| format!("corrupt hook read: {e}"))?;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5a;
    std::fs::write(path, bytes).map_err(|e| format!("corrupt hook write: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServeModel, Supervisor};
    use noisemine_core::lattice::Border;
    use noisemine_core::miner::{FrequentPattern, MineOutcome, MineStats, Provenance};
    use noisemine_core::{Alphabet, CompatibilityMatrix, Pattern};
    use std::sync::Mutex;

    const MS: Duration = Duration::from_millis(1);
    const COOLDOWN: Duration = Duration::from_millis(500);

    fn model(version: u64, min_match: f64) -> PatternModel {
        let alphabet = Alphabet::synthetic(4);
        let matrix = CompatibilityMatrix::uniform_noise(4, 0.1).unwrap();
        let outcome = MineOutcome {
            frequent: vec![FrequentPattern {
                pattern: Pattern::contiguous(&[Symbol(0), Symbol(1)]).unwrap(),
                match_estimate: 0.5,
                provenance: Provenance::Verified,
            }],
            border: Border::default(),
            symbol_match: vec![0.4; 4],
            stats: MineStats::default(),
        };
        PatternModel::from_outcome(&outcome, &alphabet, &matrix, min_match, version)
    }

    /// `n` sequences alternating symbols `a` and `b`.
    fn traffic(a: u16, b: u16, n: usize) -> Vec<Vec<Symbol>> {
        let seq: Vec<Symbol> = (0..8)
            .map(|i| Symbol(if i % 2 == 0 { a } else { b }))
            .collect();
        vec![seq; n]
    }

    /// A registry serving tenant `t` at v5.
    fn registry() -> Arc<ModelRegistry> {
        let registry = Arc::new(ModelRegistry::new(0.0));
        registry.swap("t", ServeModel::compile(model(5, 0.1)));
        registry
    }

    /// A drift config ticking every millisecond whose fault hook logs each
    /// attempt number and injects `fault(n)`.
    fn config(log: &Arc<Mutex<Vec<u32>>>, fault: fn(u32) -> Option<DriftFault>) -> DriftConfig {
        let log = Arc::clone(log);
        DriftConfig {
            interval: MS,
            min_sequences: 100,
            remine_timeout: Duration::from_secs(60),
            backoff_base: 20 * MS,
            backoff_max: 50 * MS,
            breaker_threshold: 3,
            breaker_cooldown: COOLDOWN,
            sample_size: 200,
            max_len: 4,
            fault_hook: Some(Arc::new(move |_: &str, n: u32| {
                log.lock().unwrap().push(n);
                fault(n)
            })),
            ..DriftConfig::default()
        }
    }

    fn tenant(sup: &Supervisor) -> &TenantDrift {
        &sup.drift.as_ref().unwrap().tenants["t"]
    }

    /// Anchors `t` on clean traffic at `t0`, then feeds drifted traffic:
    /// the next tick fires the detector.
    fn drifted(registry: &Arc<ModelRegistry>, config: DriftConfig, t0: Instant) -> Supervisor {
        let mut sup = Supervisor::new(Arc::clone(registry), None, Some(config), t0).unwrap();
        sup.absorb("t", traffic(0, 1, 100));
        sup.tick(t0);
        assert!(tenant(&sup).anchored);
        sup.absorb("t", traffic(2, 3, 100));
        sup
    }

    fn attempts(log: &Mutex<Vec<u32>>) -> usize {
        log.lock().unwrap().len()
    }

    #[test]
    fn anchors_at_exactly_min_sequences() {
        let log = Arc::default();
        let t0 = Instant::now();
        let mut sup = Supervisor::new(registry(), None, Some(config(&log, |_| None)), t0).unwrap();
        sup.absorb("t", traffic(0, 1, 99));
        sup.tick(t0);
        assert!(!tenant(&sup).anchored, "anchored below min_sequences");
        sup.absorb("t", traffic(0, 1, 1));
        sup.tick(t0 + MS);
        assert!(tenant(&sup).anchored, "not anchored at min_sequences");
        // Anchoring is the whole tick: no re-mine, even though the
        // detector had no baseline before it.
        assert_eq!(attempts(&log), 0);
    }

    #[test]
    fn backoff_doubles_up_to_its_cap() {
        let log = Arc::default();
        let mut config = config(&log, |_| Some(DriftFault::Panic));
        config.breaker_threshold = 10;
        let t0 = Instant::now();
        let mut sup = drifted(&registry(), config, t0);
        let mut at = t0 + MS;
        sup.tick(at);
        assert_eq!(attempts(&log), 1);
        // 20 ms, doubled to 40, capped at 50, and 50 again.
        for (n, backoff) in [(2, 20), (3, 40), (4, 50), (5, 50)] {
            let retry = at + backoff * MS;
            assert_eq!(tenant(&sup).retry_at, Some(retry));
            sup.tick(retry - MS);
            assert_eq!(attempts(&log), n - 1, "attempt {n} ran before its backoff");
            sup.tick(retry);
            assert_eq!(attempts(&log), n, "attempt {n} did not run at its backoff");
            at = retry;
        }
        assert!(!tenant(&sup).open);
    }

    #[test]
    fn breaker_opens_half_opens_and_reopens_on_schedule() {
        let log = Arc::default();
        let mut config = config(&log, |n| (n <= 4).then_some(DriftFault::Panic));
        config.backoff_base = MS;
        config.backoff_max = MS;
        let t0 = Instant::now();
        let registry = registry();
        let mut sup = drifted(&registry, config, t0);
        let state = || registry.tenants()[0].state;

        // Failures 1 and 2 back off; failure 3 spends the budget.
        for n in 1..=3u32 {
            sup.tick(t0 + n * MS);
            assert_eq!(attempts(&log), n as usize);
            assert_eq!(tenant(&sup).failures, n);
        }
        let opened = t0 + 3 * MS;
        assert!(tenant(&sup).open);
        assert_eq!(tenant(&sup).retry_at, Some(opened + COOLDOWN));
        assert_eq!(state(), ServingState::CircuitOpen);

        // Still open 1 ms before the cooldown; half-open exactly at it. The
        // trial (attempt 4) fails, which re-opens at that instant.
        sup.tick(opened + COOLDOWN - MS);
        assert_eq!(attempts(&log), 3);
        assert_eq!(state(), ServingState::CircuitOpen);
        let trial = opened + COOLDOWN;
        sup.tick(trial);
        assert_eq!(attempts(&log), 4);
        assert!(tenant(&sup).open);
        assert_eq!(tenant(&sup).retry_at, Some(trial + COOLDOWN));
        assert_eq!(state(), ServingState::CircuitOpen);
        assert!(registry.tenants()[0]
            .reason
            .starts_with("4 consecutive re-mine failures"));

        // The next trial waits out a full cooldown again, then succeeds:
        // the breaker closes and the re-mined model serves.
        sup.tick(trial + COOLDOWN - MS);
        assert_eq!(attempts(&log), 4);
        sup.tick(trial + COOLDOWN);
        assert_eq!(attempts(&log), 5);
        assert!(!tenant(&sup).open);
        assert_eq!(tenant(&sup).retry_at, None);
        assert_eq!(tenant(&sup).failures, 0);
        assert_eq!(state(), ServingState::Current);
        assert!(registry.current_version("t").unwrap() > 5);
    }

    #[test]
    fn catalog_pass_runs_before_a_drift_tick_due_at_the_same_now() {
        let root =
            std::env::temp_dir().join(format!("noisemine-drift-tick-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let catalog = Catalog::new(&root);
        let registry = registry();
        // The fault hook records which version served when attempt 1 ran.
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (hook_seen, hook_registry) = (Arc::clone(&seen), Arc::clone(&registry));
        let drift = DriftConfig {
            interval: 10 * MS,
            min_sequences: 100,
            sample_size: 200,
            max_len: 4,
            fault_hook: Some(Arc::new(move |_: &str, _: u32| {
                hook_seen
                    .lock()
                    .unwrap()
                    .push(hook_registry.current_version("t"));
                Some(DriftFault::Panic)
            })),
            ..DriftConfig::default()
        };
        let t0 = Instant::now();
        let catalog_interval = 50 * MS;
        let mut sup = Supervisor::new(
            Arc::clone(&registry),
            Some((catalog.clone(), catalog_interval)),
            Some(drift),
            t0,
        )
        .unwrap();
        sup.absorb("t", traffic(0, 1, 100));
        assert!(sup.tick(t0).is_some(), "first catalog pass is due at t0");
        sup.absorb("t", traffic(2, 3, 100));
        catalog.write("t", &model(9, 0.1)).unwrap();

        // Both are due at t0 + 50 ms: the catalog adopts v9 first, then the
        // drift tick's attempt sees v9 serving.
        let both = t0 + catalog_interval;
        let report = sup.tick(both).expect("catalog pass due");
        assert_eq!(report.adopted, vec![("t".to_string(), 9)]);
        assert_eq!(*seen.lock().unwrap(), vec![Some(9)]);
        // Each rescheduled itself from the same now: drift is next.
        assert_eq!(sup.next_due(), Some(both + 10 * MS));
        assert!(sup.tick(both + 10 * MS).is_none());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn invalid_pattern_space_fails_at_construction() {
        let config = DriftConfig {
            max_len: 0,
            ..DriftConfig::default()
        };
        assert!(Supervisor::new(registry(), None, Some(config), Instant::now()).is_err());
    }

    #[test]
    fn engine_construction_failure_drops_the_sample() {
        noisemine_obs::enable();
        let registry = Arc::new(ModelRegistry::new(0.0));
        // min_match outside [0, 1]: the tenant's engine cannot be built.
        registry.swap("t", ServeModel::compile(model(5, 2.0)));
        let mut sup =
            Supervisor::new(registry, None, Some(DriftConfig::default()), Instant::now()).unwrap();
        let before = crate::obs::drift_samples_dropped().get();
        sup.absorb("t", traffic(0, 1, 7));
        assert!(sup.drift.as_ref().unwrap().tenants.is_empty());
        assert!(crate::obs::drift_samples_dropped().get() >= before + 7);
    }
}

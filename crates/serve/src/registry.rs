//! The per-tenant model registry: compiled models, atomic hot-swap,
//! serving-state tracking, and admission state.
//!
//! Each tenant owns a slot whose active model is an ArcSwap-style epoch
//! pointer — a `Mutex<Option<Arc<ServeModel>>>`. A request clones the
//! `Arc` under a brief lock and then classifies entirely on its private
//! handle, so a concurrent [`ModelRegistry::swap`] never interrupts
//! in-flight work: requests started before the swap finish on the old
//! model, requests started after see the new one, and the old model is
//! freed when its last in-flight reference drops.
//!
//! A slot can also exist **without** a model: the catalog pass
//! declares a tenant as soon as its directory appears, even when no valid
//! artifact has been adopted yet, so `/readyz` can report the tenant as
//! degraded instead of silently 404-ing. Each slot additionally carries a
//! [`ServingState`] (`current` / `stale` / `remining` / `circuit_open`)
//! maintained by the in-server drift loop and surfaced on `/admin/models`,
//! `/readyz`, and the per-tenant metrics.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use noisemine_core::{CandidateTrie, Pattern, PatternModel};

use crate::admission::TokenBucket;
use crate::obs::TenantMetrics;

/// A pattern model compiled for serving: the frozen spec plus the shared
/// [`CandidateTrie`] the hot path batches against.
#[derive(Debug)]
pub struct ServeModel {
    /// The model as loaded from the artifact.
    pub spec: PatternModel,
    /// Patterns in model order (the order of every score vector).
    pub patterns: Vec<Pattern>,
    /// The compiled batch-match kernel (`None` for an empty pattern set).
    pub trie: Option<CandidateTrie>,
    /// Per-pattern response fragments (`"pattern": …, "match_estimate": …`),
    /// rendered and JSON-escaped once at compile time — the classify route
    /// serves them on every request without re-rendering.
    pub pattern_json: Vec<String>,
}

impl ServeModel {
    /// Compiles a model for serving. The trie and the per-pattern JSON
    /// fragments are built once here and shared by every request until the
    /// model is swapped out.
    pub fn compile(spec: PatternModel) -> Self {
        let patterns = spec.plain_patterns();
        let trie = if patterns.is_empty() {
            None
        } else {
            Some(CandidateTrie::new(&patterns))
        };
        let pattern_json = spec
            .patterns
            .iter()
            .map(|mp| {
                let display = mp
                    .pattern
                    .display(&spec.alphabet)
                    .unwrap_or_else(|_| "<unrenderable>".to_string());
                format!(
                    "\"pattern\": {}, \"match_estimate\": {}",
                    crate::json::escape(&display),
                    crate::json::num(mp.match_estimate),
                )
            })
            .collect();
        Self {
            spec,
            patterns,
            trie,
            pattern_json,
        }
    }

    /// The model's version.
    pub fn version(&self) -> u64 {
        self.spec.version
    }

    /// Number of patterns the model scores.
    pub fn num_patterns(&self) -> usize {
        self.patterns.len()
    }
}

/// Why a request was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The request may proceed.
    Granted,
    /// The tenant's token bucket is empty — answer 429.
    Throttled,
    /// No model is installed for the tenant — answer 404.
    UnknownTenant,
}

/// Result of a tenant lookup on the classify path.
#[derive(Debug)]
pub enum TenantLookup {
    /// The tenant has never been declared or installed — answer 404.
    Unknown,
    /// The tenant is declared (e.g. its catalog directory exists) but no
    /// valid model has ever been adopted — answer 503, the tenant is
    /// degraded, not absent.
    NoModel,
    /// The tenant's active model.
    Model(Arc<ServeModel>),
}

/// A tenant's serving state, maintained by the drift loop (documented in
/// `docs/SERVING.md`'s lifecycle section).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingState {
    /// The active model reflects the observed traffic distribution.
    Current,
    /// The drift detector has fired: the model still serves, but a re-mine
    /// is pending (or failing and awaiting its next backoff slot).
    Stale,
    /// A supervised re-mine is running right now.
    Remining,
    /// Repeated re-mine failures opened the circuit breaker; the last-good
    /// model keeps serving and re-mines are suspended until the breaker
    /// half-opens.
    CircuitOpen,
}

impl ServingState {
    /// The state's wire name (JSON fields, docs, and metric values).
    pub fn name(self) -> &'static str {
        match self {
            ServingState::Current => "current",
            ServingState::Stale => "stale",
            ServingState::Remining => "remining",
            ServingState::CircuitOpen => "circuit_open",
        }
    }

    /// Numeric encoding for the per-tenant state gauge
    /// (`0=current 1=stale 2=remining 3=circuit_open`).
    pub fn as_gauge(self) -> f64 {
        match self {
            ServingState::Current => 0.0,
            ServingState::Stale => 1.0,
            ServingState::Remining => 2.0,
            ServingState::CircuitOpen => 3.0,
        }
    }
}

/// One row of [`ModelRegistry::tenants`]: a tenant's externally visible
/// serving status.
#[derive(Debug, Clone)]
pub struct TenantInfo {
    /// The tenant name.
    pub tenant: String,
    /// Active model version (`None` when declared but modelless).
    pub version: Option<u64>,
    /// Patterns the active model scores (0 when modelless).
    pub patterns: usize,
    /// The drift-loop serving state.
    pub state: ServingState,
    /// Human-readable reason for a non-`current` state (empty otherwise).
    pub reason: String,
}

/// Outcome of a version-gated adoption attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adoption {
    /// The model was installed; `old` is the previously active version.
    Adopted {
        /// The version replaced (`None` when the tenant had no model).
        old: Option<u64>,
    },
    /// The offered version is not strictly newer than the active one —
    /// nothing changed (the never-downgrade guarantee).
    NotNewer {
        /// The version that stays active.
        current: u64,
    },
}

/// One tenant's serving state.
struct TenantSlot {
    /// The epoch pointer: swap replaces the `Arc`, readers clone it.
    /// `None` = declared but no valid model adopted yet.
    model: Mutex<Option<Arc<ServeModel>>>,
    bucket: Mutex<TokenBucket>,
    metrics: TenantMetrics,
    /// Drift-loop serving state + reason, for `/admin/models` and
    /// `/readyz`.
    status: Mutex<(ServingState, String)>,
}

impl TenantSlot {
    fn new(quota: f64, tenant: &str) -> Self {
        Self {
            model: Mutex::new(None),
            bucket: Mutex::new(TokenBucket::per_second(quota)),
            metrics: TenantMetrics::register(tenant),
            status: Mutex::new((ServingState::Current, String::new())),
        }
    }
}

/// The multi-tenant model registry.
pub struct ModelRegistry {
    tenants: Mutex<HashMap<String, Arc<TenantSlot>>>,
    /// Per-tenant quota in requests/second (`<= 0` = unlimited), applied
    /// to tenants as they are installed.
    quota: f64,
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("tenants", &self.tenants())
            .field("quota", &self.quota)
            .finish()
    }
}

impl ModelRegistry {
    /// An empty registry with a per-tenant quota (requests/second;
    /// non-positive = unlimited).
    pub fn new(quota: f64) -> Self {
        Self {
            tenants: Mutex::new(HashMap::new()),
            quota,
        }
    }

    /// The tenant's slot, creating it (modelless) if absent.
    fn slot(&self, tenant: &str) -> Arc<TenantSlot> {
        let mut map = self.tenants.lock().expect("registry poisoned");
        if let Some(slot) = map.get(tenant) {
            return Arc::clone(slot);
        }
        let slot = Arc::new(TenantSlot::new(self.quota, tenant));
        map.insert(tenant.to_string(), Arc::clone(&slot));
        slot
    }

    /// The tenant's slot if it exists.
    fn existing_slot(&self, tenant: &str) -> Option<Arc<TenantSlot>> {
        let map = self.tenants.lock().expect("registry poisoned");
        map.get(tenant).cloned()
    }

    /// Declares a tenant without installing a model (idempotent). Used by
    /// the catalog pass so a tenant whose directory holds no valid
    /// artifact still shows up — degraded — on `/readyz` instead of
    /// 404-ing.
    pub fn declare(&self, tenant: &str) {
        let slot = self.slot(tenant);
        let has_model = slot.model.lock().expect("model slot poisoned").is_some();
        if !has_model {
            let mut status = slot.status.lock().expect("status poisoned");
            if status.1.is_empty() {
                *status = (
                    ServingState::Stale,
                    "no valid model adopted yet".to_string(),
                );
            }
        }
    }

    /// Installs (or hot-swaps) `model` as the tenant's active model,
    /// unconditionally — the explicit-operator path (`/admin/swap`,
    /// `--model` at startup), which may intentionally roll *back*.
    ///
    /// Returns the previous version when the tenant already had a model.
    /// The swap is atomic: concurrent classifications that already cloned
    /// the old `Arc` finish undisturbed.
    pub fn swap(&self, tenant: &str, model: ServeModel) -> Option<u64> {
        let new_version = model.version();
        let model = Arc::new(model);
        let slot = self.slot(tenant);
        let old = {
            let mut active = slot.model.lock().expect("model slot poisoned");
            active.replace(model)
        };
        slot.metrics.model_version.set(new_version as f64);
        {
            let mut status = slot.status.lock().expect("status poisoned");
            *status = (ServingState::Current, String::new());
        }
        old.map(|m| m.version())
    }

    /// Installs `model` only if it is strictly newer than the tenant's
    /// active model — the automatic-adoption path (catalog pass,
    /// drift-loop self-swap). A stale or replayed artifact can therefore
    /// never roll a tenant back.
    pub fn adopt_if_newer(&self, tenant: &str, model: ServeModel) -> Adoption {
        let new_version = model.version();
        let slot = self.slot(tenant);
        let mut active = slot.model.lock().expect("model slot poisoned");
        if let Some(current) = active.as_ref() {
            if current.version() >= new_version {
                return Adoption::NotNewer {
                    current: current.version(),
                };
            }
        }
        let old = active.replace(Arc::new(model));
        drop(active);
        slot.metrics.model_version.set(new_version as f64);
        {
            let mut status = slot.status.lock().expect("status poisoned");
            *status = (ServingState::Current, String::new());
        }
        Adoption::Adopted {
            old: old.map(|m| m.version()),
        }
    }

    /// The tenant's active model (cloned `Arc`; survives any later swap).
    pub fn model(&self, tenant: &str) -> Option<Arc<ServeModel>> {
        match self.lookup(tenant) {
            TenantLookup::Model(m) => Some(m),
            _ => None,
        }
    }

    /// Three-way tenant lookup for the classify path: unknown (404),
    /// declared-but-modelless (503, degraded), or the active model.
    pub fn lookup(&self, tenant: &str) -> TenantLookup {
        let Some(slot) = self.existing_slot(tenant) else {
            return TenantLookup::Unknown;
        };
        let model = slot.model.lock().expect("model slot poisoned").clone();
        match model {
            Some(m) => TenantLookup::Model(m),
            None => TenantLookup::NoModel,
        }
    }

    /// The tenant's active model version, if any.
    pub fn current_version(&self, tenant: &str) -> Option<u64> {
        let slot = self.existing_slot(tenant)?;
        let model = slot.model.lock().expect("model slot poisoned").clone();
        model.map(|m| m.version())
    }

    /// Sets the tenant's drift-loop serving state (and its per-tenant
    /// state gauge). No-op for unknown tenants.
    pub fn set_state(&self, tenant: &str, state: ServingState, reason: &str) {
        if let Some(slot) = self.existing_slot(tenant) {
            let mut status = slot.status.lock().expect("status poisoned");
            *status = (state, reason.to_string());
            slot.metrics.serving_state.set(state.as_gauge());
        }
    }

    /// Admission decision for one classification request at `now_secs`
    /// (seconds since the server's epoch).
    pub fn admit(&self, tenant: &str, now_secs: f64) -> Admission {
        let Some(slot) = self.existing_slot(tenant) else {
            return Admission::UnknownTenant;
        };
        let granted = slot
            .bucket
            .lock()
            .expect("bucket poisoned")
            .try_acquire_at(now_secs);
        if granted {
            Admission::Granted
        } else {
            slot.metrics.throttled.inc();
            crate::obs::throttled().inc();
            Admission::Throttled
        }
    }

    /// Tokens currently available in the tenant's admission bucket
    /// (`None` for an unknown tenant). For tests and introspection — the
    /// quota-burn regression suite asserts rejected requests leave this
    /// untouched.
    pub fn available_quota(&self, tenant: &str) -> Option<f64> {
        let slot = self.existing_slot(tenant)?;
        let available = slot.bucket.lock().expect("bucket poisoned").available();
        Some(available)
    }

    /// Records a successfully admitted classification for tenant metrics.
    pub(crate) fn record_classification(&self, tenant: &str, sequences: u64) {
        if let Some(slot) = self.existing_slot(tenant) {
            slot.metrics.requests.inc();
            slot.metrics.sequences.add(sequences);
        }
    }

    /// Every tenant's externally visible status, sorted by tenant name.
    pub fn tenants(&self) -> Vec<TenantInfo> {
        let map = self.tenants.lock().expect("registry poisoned");
        let mut out: Vec<TenantInfo> = map
            .iter()
            .map(|(name, slot)| {
                let model = slot.model.lock().expect("model slot poisoned").clone();
                let (state, reason) = slot.status.lock().expect("status poisoned").clone();
                TenantInfo {
                    tenant: name.clone(),
                    version: model.as_ref().map(|m| m.version()),
                    patterns: model.as_ref().map_or(0, |m| m.num_patterns()),
                    state,
                    reason,
                }
            })
            .collect();
        out.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        out
    }

    /// `(tenant, active version, pattern count)` for every tenant **with a
    /// model**, sorted by tenant name. Declared-but-modelless tenants are
    /// omitted; see [`Self::tenants`] for the full status view.
    pub fn tenant_versions(&self) -> Vec<(String, u64, usize)> {
        self.tenants()
            .into_iter()
            .filter_map(|t| t.version.map(|v| (t.tenant, v, t.patterns)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noisemine_core::lattice::Border;
    use noisemine_core::miner::{MineOutcome, MineStats};
    use noisemine_core::{Alphabet, CompatibilityMatrix};

    fn model(version: u64) -> ServeModel {
        let alphabet = Alphabet::synthetic(3);
        let matrix = CompatibilityMatrix::identity(3);
        let outcome = MineOutcome {
            frequent: Vec::new(),
            border: Border::default(),
            symbol_match: vec![0.0; 3],
            stats: MineStats::default(),
        };
        ServeModel::compile(PatternModel::from_outcome(
            &outcome, &alphabet, &matrix, 0.5, version,
        ))
    }

    #[test]
    fn swap_keeps_old_arc_alive() {
        let reg = ModelRegistry::new(0.0);
        assert_eq!(reg.swap("t", model(1)), None);
        let in_flight = reg.model("t").unwrap();
        assert_eq!(reg.swap("t", model(2)), Some(1));
        // The in-flight handle still sees version 1; new readers see 2.
        assert_eq!(in_flight.version(), 1);
        assert_eq!(reg.model("t").unwrap().version(), 2);
    }

    #[test]
    fn adopt_if_newer_never_downgrades() {
        let reg = ModelRegistry::new(0.0);
        assert_eq!(
            reg.adopt_if_newer("t", model(5)),
            Adoption::Adopted { old: None }
        );
        assert_eq!(
            reg.adopt_if_newer("t", model(5)),
            Adoption::NotNewer { current: 5 }
        );
        assert_eq!(
            reg.adopt_if_newer("t", model(3)),
            Adoption::NotNewer { current: 5 }
        );
        assert_eq!(reg.current_version("t"), Some(5));
        assert_eq!(
            reg.adopt_if_newer("t", model(6)),
            Adoption::Adopted { old: Some(5) }
        );
        // The explicit-operator path may still roll back.
        assert_eq!(reg.swap("t", model(2)), Some(6));
        assert_eq!(reg.current_version("t"), Some(2));
    }

    #[test]
    fn declared_tenant_is_degraded_not_unknown() {
        let reg = ModelRegistry::new(0.0);
        assert!(matches!(reg.lookup("ghost"), TenantLookup::Unknown));
        reg.declare("empty");
        assert!(matches!(reg.lookup("empty"), TenantLookup::NoModel));
        let infos = reg.tenants();
        assert_eq!(infos.len(), 1);
        assert_eq!(infos[0].version, None);
        assert_eq!(infos[0].state, ServingState::Stale);
        assert!(infos[0].reason.contains("no valid model"), "{:?}", infos[0]);
        // tenant_versions (models only) omits it.
        assert!(reg.tenant_versions().is_empty());
        // Adopting a model clears the degradation.
        assert!(matches!(
            reg.adopt_if_newer("empty", model(1)),
            Adoption::Adopted { old: None }
        ));
        assert_eq!(reg.tenants()[0].state, ServingState::Current);
        assert_eq!(reg.tenant_versions().len(), 1);
    }

    #[test]
    fn serving_state_round_trips() {
        let reg = ModelRegistry::new(0.0);
        reg.swap("t", model(1));
        reg.set_state("t", ServingState::CircuitOpen, "3 consecutive failures");
        let info = &reg.tenants()[0];
        assert_eq!(info.state, ServingState::CircuitOpen);
        assert_eq!(info.reason, "3 consecutive failures");
        assert_eq!(info.state.name(), "circuit_open");
        // Unknown tenants are a no-op, not a panic.
        reg.set_state("ghost", ServingState::Stale, "x");
    }

    #[test]
    fn admission_per_tenant() {
        let reg = ModelRegistry::new(1.0);
        reg.swap("a", model(1));
        reg.swap("b", model(1));
        assert_eq!(reg.admit("a", 0.0), Admission::Granted);
        assert_eq!(reg.admit("a", 0.0), Admission::Throttled);
        // Tenant b has its own bucket.
        assert_eq!(reg.admit("b", 0.0), Admission::Granted);
        assert_eq!(reg.admit("missing", 0.0), Admission::UnknownTenant);
        // a refills after a second.
        assert_eq!(reg.admit("a", 1.5), Admission::Granted);
    }

    #[test]
    fn tenant_versions_sorted() {
        let reg = ModelRegistry::new(0.0);
        reg.swap("zeta", model(3));
        reg.swap("alpha", model(9));
        let v = reg.tenant_versions();
        assert_eq!(v[0].0, "alpha");
        assert_eq!(v[0].1, 9);
        assert_eq!(v[1].0, "zeta");
    }
}

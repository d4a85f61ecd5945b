//! Metric handles for the serving layer: request volume, latency, throttle
//! and swap counts, plus per-tenant families.
//!
//! Global handles follow the workspace idiom (lazily registered in the
//! process-wide [`noisemine_obs::global`] registry, cached in `OnceLock`s,
//! recording gated on [`noisemine_obs::enabled`]). The registry is
//! flat-name only (no labels), so per-tenant metrics encode the tenant in
//! the metric name — `serve_tenant_<tenant>_requests_total` — with the
//! tenant sanitized to `[a-z0-9_]` by [`sanitize_tenant`]. Every metric is
//! documented in `docs/OBSERVABILITY.md`.

use noisemine_obs::{self as obs, metric, Counter, Gauge};

metric!(
    counter requests,
    "serve_requests_total",
    "HTTP requests parsed and routed by the serving layer (all routes)",
    "requests"
);
metric!(
    counter connections,
    "serve_connections_total",
    "TCP connections accepted by the serving layer",
    "connections"
);
metric!(
    counter keepalive_reuses,
    "serve_keepalive_reuses_total",
    "Requests served on an already-used keep-alive connection (second and later per connection)",
    "requests"
);
metric!(
    counter pipelined_requests,
    "serve_pipelined_requests_total",
    "Requests parsed from bytes already buffered behind an earlier request on the same connection",
    "requests"
);
metric!(
    counter idle_evictions,
    "serve_idle_evictions_total",
    "Keep-alive connections closed by the idle timeout",
    "connections"
);
metric!(
    counter poll_wakeups,
    "serve_poll_wakeups_total",
    "Readiness event-loop iterations (poll(2) returns)",
    "wakeups"
);
metric!(
    counter drain_rejects,
    "serve_drain_rejects_total",
    "Requests answered 503 because they arrived during graceful drain",
    "requests"
);
metric!(
    counter classifications,
    "serve_classifications_total",
    "Classification requests that produced a scored response",
    "requests"
);
metric!(
    counter sequences_classified,
    "serve_sequences_classified_total",
    "Event sequences scored across all classification requests",
    "sequences"
);
metric!(
    counter throttled,
    "serve_throttled_total",
    "Requests rejected with 429 by token-bucket admission control",
    "requests"
);
metric!(
    counter client_errors,
    "serve_client_errors_total",
    "Requests rejected with a 4xx other than 429 (bad JSON, unknown route/tenant)",
    "requests"
);
metric!(
    counter swaps,
    "serve_model_swaps_total",
    "Successful hot-swaps of a tenant's active model",
    "swaps"
);
metric!(
    counter catalog_scans,
    "serve_catalog_scans_total",
    "Catalog directory scans performed by the supervisor (startup sync plus every watch interval)",
    "scans"
);
metric!(
    counter catalog_adoptions,
    "serve_catalog_adoptions_total",
    "Models adopted from the catalog into the live registry (newest valid version per tenant)",
    "models"
);
metric!(
    counter catalog_rejects,
    "serve_catalog_rejects_total",
    "Catalog artifacts rejected by validation (torn, truncated, corrupt, or mislabeled files)",
    "files"
);
metric!(
    counter drift_samples,
    "serve_drift_samples_total",
    "Classified sequences forwarded into the drift loop",
    "sequences"
);
metric!(
    counter drift_samples_dropped,
    "serve_drift_samples_dropped_total",
    "Classified sequences dropped by the drift loop (full channel, full buffer, or unknown tenant)",
    "sequences"
);
metric!(
    counter remine_attempts,
    "serve_remine_attempts_total",
    "Supervised in-server re-mine attempts started by the drift loop",
    "attempts"
);
metric!(
    counter remines_completed,
    "serve_remines_completed_total",
    "Supervised re-mines that completed, validated, and self-swapped a new model",
    "remines"
);
metric!(
    counter remine_failures,
    "serve_remine_failures_total",
    "Supervised re-mine attempts that failed (panic, timeout, mine error, or invalid artifact)",
    "attempts"
);
metric!(
    counter remine_panics,
    "serve_remine_panics_total",
    "Supervised re-mine attempts that panicked (isolated; the server keeps serving)",
    "attempts"
);
metric!(
    counter remine_timeouts,
    "serve_remine_timeouts_total",
    "Supervised re-mine attempts abandoned at the re-mine deadline",
    "attempts"
);
metric!(
    counter breaker_opens,
    "serve_breaker_opens_total",
    "Circuit-breaker open transitions (failure budget exhausted or half-open trial failed)",
    "transitions"
);
metric!(
    counter self_swaps,
    "serve_self_swaps_total",
    "Model swaps initiated by the drift loop itself (no operator involved)",
    "swaps"
);
metric!(
    gauge open_connections,
    "serve_open_connections",
    "Connections currently open (accepted and not yet closed)",
    "connections"
);
metric!(
    gauge idle_connections,
    "serve_idle_connections",
    "Keep-alive connections parked in the readiness loop awaiting their next request",
    "connections"
);
metric!(
    gauge drift_buffered,
    "serve_drift_buffered_sequences",
    "Sequences currently buffered across all tenants for the next re-mine",
    "sequences"
);

/// Per-tenant circuit-breaker state gauge
/// (`0` = closed, `1` = half-open, `2` = open).
pub(crate) fn set_breaker(tenant: &str, value: f64) {
    let t = sanitize_tenant(tenant);
    obs::gauge(
        &format!("serve_tenant_{t}_breaker_state"),
        "Re-mine circuit-breaker state for this tenant (0=closed, 1=half_open, 2=open)",
        "state",
    )
    .set(value);
}

metric!(
    duration_histogram remine_seconds,
    "serve_remine_seconds",
    "Wall-clock time of a successful supervised re-mine, prepare through adoption"
);
metric!(
    duration_histogram classify_seconds,
    "serve_classify_seconds",
    "Wall-clock time to score one classification request against the active model"
);

/// Maps a tenant name onto the metric-name-safe alphabet `[a-z0-9_]`
/// (uppercase folded, everything else becomes `_`).
pub fn sanitize_tenant(tenant: &str) -> String {
    tenant
        .chars()
        .map(|c| match c {
            'a'..='z' | '0'..='9' => c,
            'A'..='Z' => c.to_ascii_lowercase(),
            _ => '_',
        })
        .collect()
}

/// Per-tenant metric handles, registered when the tenant's first model is
/// installed (bounded cardinality: only configured tenants get a family).
#[derive(Debug, Clone)]
pub(crate) struct TenantMetrics {
    /// Classification requests admitted for this tenant.
    pub requests: Counter,
    /// Requests rejected with 429 for this tenant.
    pub throttled: Counter,
    /// Sequences scored for this tenant.
    pub sequences: Counter,
    /// The tenant's active model version.
    pub model_version: Gauge,
    /// The tenant's serving state
    /// (`0` = current, `1` = stale, `2` = remining, `3` = circuit_open).
    pub serving_state: Gauge,
}

impl TenantMetrics {
    pub(crate) fn register(tenant: &str) -> Self {
        let t = sanitize_tenant(tenant);
        Self {
            requests: obs::counter(
                &format!("serve_tenant_{t}_requests_total"),
                "Classification requests admitted for this tenant",
                "requests",
            ),
            throttled: obs::counter(
                &format!("serve_tenant_{t}_throttled_total"),
                "Requests rejected with 429 for this tenant",
                "requests",
            ),
            sequences: obs::counter(
                &format!("serve_tenant_{t}_sequences_total"),
                "Event sequences scored for this tenant",
                "sequences",
            ),
            model_version: obs::gauge(
                &format!("serve_tenant_{t}_model_version"),
                "The tenant's active model version",
                "version",
            ),
            serving_state: obs::gauge(
                &format!("serve_tenant_{t}_serving_state"),
                "The tenant's serving state (0=current, 1=stale, 2=remining, 3=circuit_open)",
                "state",
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitizes_tenant_names() {
        assert_eq!(sanitize_tenant("Acme-Corp.EU"), "acme_corp_eu");
        assert_eq!(sanitize_tenant("default"), "default");
        assert_eq!(sanitize_tenant("日本"), "__");
    }
}

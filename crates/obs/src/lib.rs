//! # noisemine-obs
//!
//! The observability layer of the noisemine workspace: a lightweight,
//! zero-dependency metrics registry plus structured span timers, with
//! pluggable sinks that render both JSON snapshots and Prometheus text
//! exposition.
//!
//! The paper's whole pitch is operational — border collapsing exists so the
//! miner performs `O(log(len(FQT)))` full database scans instead of one per
//! lattice level (Algorithm 4.3), and the Chernoff bound trades sample size
//! for ambiguity (Claim 4.1). This crate makes those costs *visible*: the
//! other workspace crates record counters (`collapse_db_scans`, candidates
//! classified frequent/ambiguous/infrequent, bytes read), gauges (Chernoff
//! `ε`, restricted spread `R`), and histograms (phase durations, block
//! fill/drain times) into a process-wide [`Registry`]; callers snapshot the
//! registry and render it wherever they need it. See
//! `docs/OBSERVABILITY.md` for the complete reference of every metric the
//! workspace emits and which paper quantity each corresponds to.
//!
//! ## Design constraints
//!
//! - **Zero dependencies.** Everything is `std`: atomics for the hot path,
//!   a mutex only for metric registration (which happens once per metric
//!   name, not per observation).
//! - **Bit-identical mining output.** Instrumentation only *observes* — it
//!   never participates in a mining computation, so an instrumented run
//!   produces exactly the same patterns as an uninstrumented one.
//! - **Near-zero cost when disabled.** Recording is gated on a single
//!   relaxed atomic-bool load (see [`enabled`]); span timers skip the
//!   `Instant::now` calls entirely while disabled. Nothing is recorded
//!   until a caller opts in with [`enable`], which the CLI does only when
//!   `--metrics-out` is given.
//!
//! ## Quick start
//!
//! ```
//! use noisemine_obs as obs;
//!
//! obs::enable();
//! let scans = obs::counter("demo_db_scans", "Full database scans", "scans");
//! scans.inc();
//! let timer = obs::histogram(
//!     "demo_phase_seconds",
//!     "Phase wall-clock time",
//!     "seconds",
//!     obs::duration_buckets(),
//! );
//! {
//!     let _span = timer.span(); // records elapsed seconds on drop
//! }
//! let snapshot = obs::global().snapshot();
//! assert!(snapshot.to_json().contains("demo_db_scans"));
//! assert!(snapshot.to_prometheus().contains("# TYPE demo_db_scans counter"));
//! ```

mod registry;
mod sink;
mod snapshot;

pub use registry::{count_buckets, duration_buckets, Counter, Gauge, Histogram, Registry, Span};
pub use sink::{FileSink, SinkFormat};
pub use snapshot::{MetricSnapshot, MetricValue, Snapshot};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// Turns recording on for the process-wide registry. Until this is called,
/// every counter/gauge/histogram operation is a single relaxed load + branch.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns recording back off (primarily for tests).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-wide registry all workspace instrumentation records into.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Registers (or fetches) a counter in the [`global`] registry.
pub fn counter(name: &str, help: &str, unit: &str) -> Counter {
    global().counter(name, help, unit)
}

/// Registers (or fetches) a gauge in the [`global`] registry.
pub fn gauge(name: &str, help: &str, unit: &str) -> Gauge {
    global().gauge(name, help, unit)
}

/// Registers (or fetches) a histogram in the [`global`] registry.
pub fn histogram(name: &str, help: &str, unit: &str, bounds: Vec<f64>) -> Histogram {
    global().histogram(name, help, unit, bounds)
}

/// Defines a `pub(crate)` accessor for one metric of the [`global`]
/// registry. The handle registers on the first call and is cached in a
/// `OnceLock`, so later calls cost one atomic load. The three forms:
///
/// ```
/// noisemine_obs::metric!(counter scans, "demo_scans_total", "Full scans", "scans");
/// noisemine_obs::metric!(gauge width, "demo_width", "Batch width", "patterns");
/// noisemine_obs::metric!(duration_histogram phase_seconds, "demo_phase_seconds", "Phase time");
///
/// scans().inc();
/// width().set(3.0);
/// drop(phase_seconds().span());
/// ```
#[macro_export]
macro_rules! metric {
    (counter $fn_name:ident, $name:literal, $help:literal, $unit:literal) => {
        pub(crate) fn $fn_name() -> &'static $crate::Counter {
            static H: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
            H.get_or_init(|| $crate::counter($name, $help, $unit))
        }
    };
    (gauge $fn_name:ident, $name:literal, $help:literal, $unit:literal) => {
        pub(crate) fn $fn_name() -> &'static $crate::Gauge {
            static H: ::std::sync::OnceLock<$crate::Gauge> = ::std::sync::OnceLock::new();
            H.get_or_init(|| $crate::gauge($name, $help, $unit))
        }
    };
    (duration_histogram $fn_name:ident, $name:literal, $help:literal) => {
        pub(crate) fn $fn_name() -> &'static $crate::Histogram {
            static H: ::std::sync::OnceLock<$crate::Histogram> = ::std::sync::OnceLock::new();
            H.get_or_init(|| $crate::histogram($name, $help, "seconds", $crate::duration_buckets()))
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

    /// Serialises the process-wide flag across this binary's tests: tests
    /// that record hold it shared ([`recording`]), tests that switch
    /// recording off hold it exclusively ([`flipping`]), so no test ever
    /// records while another has the flag off.
    static FLAG: RwLock<()> = RwLock::new(());

    /// Enables recording and keeps it on until the guard drops.
    pub(crate) fn recording() -> RwLockReadGuard<'static, ()> {
        let guard = FLAG.read().unwrap_or_else(PoisonError::into_inner);
        enable();
        guard
    }

    /// Excludes every recording test until the guard drops; the holder
    /// must leave the flag enabled.
    pub(crate) fn flipping() -> RwLockWriteGuard<'static, ()> {
        FLAG.write().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn enable_disable_round_trip() {
        let _flag = flipping();
        enable();
        assert!(enabled());
        disable();
        assert!(!enabled());
        enable();
    }

    #[test]
    fn global_registry_is_shared() {
        let _flag = recording();
        let a = counter("obs_test_shared", "test", "ops");
        let b = counter("obs_test_shared", "test", "ops");
        let before = a.get();
        b.inc();
        assert_eq!(a.get(), before + 1);
    }
}

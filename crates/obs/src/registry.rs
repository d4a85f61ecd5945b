//! The metrics registry: named atomic counters, gauges, and bucketed
//! histograms, plus the span timer that feeds histograms.
//!
//! Registration (name → metric) goes through a mutex and happens once per
//! metric name; the handles it returns are `Arc`-backed and record through
//! plain atomics, so the hot path never touches a lock. All recording is
//! gated on [`crate::enabled`] so an instrumented binary with observability
//! off pays one relaxed load + branch per call site.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::snapshot::{MetricSnapshot, MetricValue, Snapshot};

/// A monotonically increasing integer metric.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point metric.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        if crate::enabled() {
            self.0.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Sets the gauge to `min(current, value)` (e.g. the smallest restricted
    /// spread seen in a run). Lock-free CAS loop; last concurrent minimum
    /// wins deterministically because `min` is commutative.
    pub fn set_min(&self, value: f64) {
        if !crate::enabled() {
            return;
        }
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let cur = f64::from_bits(current);
            // An untouched gauge reads 0.0; treat it as "unset" so the first
            // observation establishes the minimum.
            if cur != 0.0 && cur <= value {
                return;
            }
            match self.0.compare_exchange_weak(
                current,
                value.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Sets the gauge to `max(current, value)` (e.g. the widest Chernoff
    /// half-band `ε` used in a run). As with [`Gauge::set_min`], an
    /// untouched gauge (0.0) counts as unset.
    pub fn set_max(&self, value: f64) {
        if !crate::enabled() {
            return;
        }
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let cur = f64::from_bits(current);
            if cur != 0.0 && cur >= value {
                return;
            }
            match self.0.compare_exchange_weak(
                current,
                value.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
pub(crate) struct HistogramInner {
    /// Upper bounds of the finite buckets (strictly increasing). A value
    /// `v` lands in the first bucket with `v <= bound` — Prometheus `le`
    /// semantics — and past the last bound in the implicit `+Inf` bucket.
    pub(crate) bounds: Vec<f64>,
    /// One count per finite bound, plus the trailing `+Inf` bucket.
    pub(crate) buckets: Vec<AtomicU64>,
    pub(crate) count: AtomicU64,
    /// Sum of observations as f64 bits, updated with a CAS loop.
    pub(crate) sum_bits: AtomicU64,
}

/// A bucketed distribution metric (Prometheus-style cumulative-`le`
/// buckets at snapshot time; stored as per-bucket counts internally).
#[derive(Clone, Debug)]
pub struct Histogram(pub(crate) Arc<HistogramInner>);

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, value: f64) {
        if !crate::enabled() {
            return;
        }
        let inner = &self.0;
        let idx = inner
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(inner.bounds.len());
        inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        let mut current = inner.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match inner.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
    }

    /// Starts a span whose elapsed seconds are recorded on drop (or
    /// [`Span::finish`]). While recording is disabled the span takes no
    /// timestamp and records nothing.
    pub fn span(&self) -> Span {
        Span {
            start: crate::enabled().then(Instant::now),
            histogram: self.clone(),
        }
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations so far.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }
}

/// A scoped timer feeding a [`Histogram`] in seconds.
///
/// Obtained from [`Histogram::span`]; records the elapsed wall-clock time
/// exactly once, on drop or on an explicit [`Span::finish`].
#[derive(Debug)]
pub struct Span {
    start: Option<Instant>,
    histogram: Histogram,
}

impl Span {
    /// Ends the span now, recording its duration.
    pub fn finish(mut self) {
        self.record();
    }

    /// Discards the span without recording anything (e.g. a wait that ended
    /// because the stream closed rather than because work arrived).
    pub fn cancel(mut self) {
        self.start = None;
    }

    fn record(&mut self) {
        if let Some(start) = self.start.take() {
            self.histogram.observe(start.elapsed().as_secs_f64());
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.record();
    }
}

/// Exponential duration buckets in seconds: 1 µs … ~67 s (powers of 4),
/// suiting everything from a per-block drain to a full phase.
pub fn duration_buckets() -> Vec<f64> {
    (0..14).map(|i| 1e-6 * 4f64.powi(i)).collect()
}

/// Exponential count buckets: 1 … 65 536 (powers of 4), for queue depths
/// and per-scan probe sizes.
pub fn count_buckets() -> Vec<f64> {
    (0..9).map(|i| 4f64.powi(i)).collect()
}

#[derive(Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Registration {
    help: String,
    unit: String,
    metric: Metric,
}

/// A set of named metrics. Most code uses the process-wide
/// [`crate::global`] registry; tests construct private ones.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Registration>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a counter, or returns the existing handle for `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str, help: &str, unit: &str) -> Counter {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        let reg = metrics
            .entry(name.to_string())
            .or_insert_with(|| Registration {
                help: help.to_string(),
                unit: unit.to_string(),
                metric: Metric::Counter(Counter(Arc::new(AtomicU64::new(0)))),
            });
        match &reg.metric {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name} is already registered as a non-counter"),
        }
    }

    /// Registers a gauge, or returns the existing handle for `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str, help: &str, unit: &str) -> Gauge {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        let reg = metrics
            .entry(name.to_string())
            .or_insert_with(|| Registration {
                help: help.to_string(),
                unit: unit.to_string(),
                metric: Metric::Gauge(Gauge(Arc::new(AtomicU64::new(0)))),
            });
        match &reg.metric {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name} is already registered as a non-gauge"),
        }
    }

    /// Registers a histogram with the given finite bucket bounds, or
    /// returns the existing handle for `name` (the bounds of the first
    /// registration win).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind,
    /// or if `bounds` is empty or not strictly increasing.
    pub fn histogram(&self, name: &str, help: &str, unit: &str, bounds: Vec<f64>) -> Histogram {
        assert!(
            !bounds.is_empty(),
            "histogram {name} needs at least one bucket bound"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram {name} bounds must be strictly increasing"
        );
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        let reg = metrics.entry(name.to_string()).or_insert_with(|| {
            let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
            Registration {
                help: help.to_string(),
                unit: unit.to_string(),
                metric: Metric::Histogram(Histogram(Arc::new(HistogramInner {
                    bounds,
                    buckets,
                    count: AtomicU64::new(0),
                    sum_bits: AtomicU64::new(0.0f64.to_bits()),
                }))),
            }
        });
        match &reg.metric {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name} is already registered as a non-histogram"),
        }
    }

    /// Takes a point-in-time snapshot of every registered metric, sorted by
    /// name. Each atomic is read once, so a snapshot taken under concurrent
    /// increments is internally consistent per metric and deterministic to
    /// render (the name order never depends on registration order).
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.lock().expect("metrics registry poisoned");
        let metrics = metrics
            .iter()
            .map(|(name, reg)| {
                let value = match &reg.metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => {
                        let counts: Vec<u64> =
                            h.0.buckets
                                .iter()
                                .map(|b| b.load(Ordering::Relaxed))
                                .collect();
                        MetricValue::Histogram {
                            bounds: h.0.bounds.clone(),
                            counts,
                            count: h.count(),
                            sum: h.sum(),
                        }
                    }
                };
                MetricSnapshot {
                    name: name.clone(),
                    help: reg.help.clone(),
                    unit: reg.unit.clone(),
                    value,
                }
            })
            .collect();
        Snapshot { metrics }
    }

    /// Resets every metric to zero (counters/gauges to 0, histograms to
    /// empty), keeping registrations and handles valid. Used between bench
    /// scale points so each snapshot covers one run.
    pub fn reset(&self) {
        let metrics = self.metrics.lock().expect("metrics registry poisoned");
        for reg in metrics.values() {
            match &reg.metric {
                Metric::Counter(c) => c.0.store(0, Ordering::Relaxed),
                Metric::Gauge(g) => g.0.store(0.0f64.to_bits(), Ordering::Relaxed),
                Metric::Histogram(h) => {
                    for b in &h.0.buckets {
                        b.store(0, Ordering::Relaxed);
                    }
                    h.0.count.store(0, Ordering::Relaxed);
                    h.0.sum_bits.store(0.0f64.to_bits(), Ordering::Relaxed);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let _flag = crate::tests::recording();
        let r = Registry::new();
        let c = r.counter("c", "a counter", "ops");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = r.gauge("g", "a gauge", "ratio");
        g.set(0.25);
        assert_eq!(g.get(), 0.25);
        g.set_min(0.5);
        assert_eq!(g.get(), 0.25, "set_min must not raise the value");
        g.set_min(0.1);
        assert_eq!(g.get(), 0.1);
        g.set_max(0.05);
        assert_eq!(g.get(), 0.1, "set_max must not lower the value");
        g.set_max(0.9);
        assert_eq!(g.get(), 0.9);
    }

    #[test]
    fn histogram_bucket_boundaries_use_le_semantics() {
        let _flag = crate::tests::recording();
        let r = Registry::new();
        let h = r.histogram("h", "test", "seconds", vec![1.0, 2.0, 4.0]);
        // A value equal to a bound lands in that bucket (v <= bound).
        for v in [0.5, 1.0, 1.5, 2.0, 4.0, 9.0] {
            h.observe(v);
        }
        let snap = r.snapshot();
        let MetricValue::Histogram {
            counts,
            count,
            sum,
            bounds,
        } = &snap.metrics[0].value
        else {
            panic!("expected histogram");
        };
        assert_eq!(bounds, &vec![1.0, 2.0, 4.0]);
        assert_eq!(counts, &vec![2, 2, 1, 1]); // (≤1): 0.5, 1.0; (≤2): 1.5, 2.0; (≤4): 4.0; +Inf: 9.0
        assert_eq!(*count, 6);
        assert!((sum - 18.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_rejects_bad_bounds() {
        let r = Registry::new();
        assert!(std::panic::catch_unwind(|| r.histogram("x", "", "", vec![])).is_err());
        let r = Registry::new();
        assert!(std::panic::catch_unwind(|| r.histogram("y", "", "", vec![2.0, 1.0])).is_err());
    }

    #[test]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("m", "", "");
        assert!(std::panic::catch_unwind(|| r.gauge("m", "", "")).is_err());
    }

    #[test]
    fn snapshot_deterministic_under_concurrent_increments() {
        let _flag = crate::tests::recording();
        let r = Registry::new();
        let c = r.counter("concurrent", "test", "ops");
        let h = r.histogram("concurrent_h", "test", "units", count_buckets());
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let c = c.clone();
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        c.inc();
                        h.observe((i % 7) as f64);
                    }
                });
            }
            // Snapshots taken mid-flight must render without panicking and
            // stay monotone in the counter.
            let mut last = 0;
            for _ in 0..50 {
                let snap = r.snapshot();
                let MetricValue::Counter(v) = snap.metrics[0].value else {
                    panic!("expected counter first (sorted by name)");
                };
                assert!(v >= last);
                last = v;
                let _ = snap.to_json();
            }
        });
        let total = THREADS as u64 * PER_THREAD;
        assert_eq!(c.get(), total);
        assert_eq!(h.count(), total);
        // Histogram bucket counts and count agree after the dust settles.
        let snap = r.snapshot();
        let MetricValue::Histogram { counts, count, .. } = &snap
            .metrics
            .iter()
            .find(|m| m.name == "concurrent_h")
            .unwrap()
            .value
        else {
            panic!("expected histogram");
        };
        assert_eq!(counts.iter().sum::<u64>(), *count);
        // Two quiescent snapshots render identically.
        assert_eq!(r.snapshot().to_json(), r.snapshot().to_json());
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let r = Registry::new();
        let c = r.counter("gated", "", "");
        let h = r.histogram("gated_h", "", "", vec![1.0]);
        let _flag = crate::tests::flipping();
        crate::disable();
        c.inc();
        h.observe(0.5);
        let span = h.span();
        drop(span);
        crate::enable();
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn span_records_elapsed_seconds() {
        let _flag = crate::tests::recording();
        let r = Registry::new();
        let h = r.histogram("span_h", "", "seconds", duration_buckets());
        {
            let _span = h.span();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= 0.002);
        let span = h.span();
        span.finish();
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let _flag = crate::tests::recording();
        let r = Registry::new();
        let c = r.counter("resettable", "", "");
        c.add(7);
        r.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(c.get(), 1);
    }
}

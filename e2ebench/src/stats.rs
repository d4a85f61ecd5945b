//! Summary statistics and process-level measurements: percentiles, CPU
//! time from `getrusage`, peak resident set size, and the metric list a
//! run reports.

use std::time::Instant;

/// Nearest-rank percentile (`q` in `[0, 1]`) of the values; `0.0` when
/// there are none.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median by nearest rank.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Arithmetic mean; `0.0` when there are no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals followed by fourteen
/// `long` counters this benchmark does not read.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU seconds consumed by every thread of this process
/// so far.
pub fn cpu_seconds() -> f64 {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value laid out as the kernel's
    // `struct rusage` on 64-bit Linux, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let tv = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    tv(&usage.utime) + tv(&usage.stime)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the value summarizes.
    pub samples: usize,
}

/// The metrics of one run, in report order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        assert!(
            value.is_finite(),
            "metric {name} is not a finite number: {value}"
        );
        assert!(
            self.0.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.0.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }
}

/// What a workload's timed window measured.
pub struct Window {
    /// Op latencies in seconds that the percentiles are taken over.
    pub latencies: Vec<f64>,
    /// Ops attempted in the window.
    pub ops: usize,
    /// Ops whose outputs passed every check.
    pub verified: usize,
    /// Completed ops and sequences per wall second.
    pub ops_per_s: f64,
    pub seqs_per_s: f64,
    /// Process CPU seconds spent in the window.
    pub cpu: f64,
    /// Median set-up seconds and their samples.
    pub setup: Vec<f64>,
    /// Database scans, and how many measurements the value summarizes.
    pub db_scans: (f64, usize),
}

impl Window {
    /// The end-to-end metrics every workload reports.
    pub fn report(&self) -> Metrics {
        let (ops, n) = (self.ops, self.latencies.len());
        let mut m = Metrics::default();
        m.push("setup_s", median(&self.setup), "s", self.setup.len());
        m.push("op_p50_ms", 1e3 * median(&self.latencies), "ms", n);
        m.push(
            "op_p99_ms",
            1e3 * percentile(&self.latencies, 0.99),
            "ms",
            n,
        );
        m.push("seqs_per_s", self.seqs_per_s, "1/s", ops);
        m.push("rps", self.ops_per_s, "1/s", ops);
        m.push("cpu_ms_per_op", 1e3 * self.cpu / ops as f64, "ms", ops);
        m.push("db_scans", self.db_scans.0, "count", self.db_scans.1);
        m.push("peak_rss_mb", peak_rss_mb(), "MiB", 1);
        m.push(
            "success_rate",
            self.verified as f64 / ops as f64,
            "ratio",
            ops,
        );
        m
    }

    /// The run's result with these metrics.
    pub fn result(&self) -> crate::RunResult {
        crate::RunResult {
            metrics: self.report(),
            attempted: self.ops,
            failed: self.ops - self.verified,
            correct: self.verified == self.ops,
        }
    }
}

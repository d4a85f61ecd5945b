//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call into a layer of the program in a span
//! (layer, call, start, end, parent) and tags every span with the op it
//! belongs to. Spans stay in memory until the run ends, when they are
//! written out as JSON lines and summarized into per-layer self time: a
//! span's duration minus the durations of its children. Children of one
//! span never overlap, because every span of a tracer is opened and
//! closed on the tracer's own thread.
//!
//! A disabled tracer records nothing, so the untraced path through the
//! same code costs one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Clone)]
pub struct Span {
    pub layer: &'static str,
    pub call: &'static str,
    /// The op this span belongs to (`0` = outside any op, e.g. set-up).
    pub op: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Records spans on one thread. Tracers of other threads share the epoch
/// and are merged with [`Tracer::absorb`].
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Starts tagging spans with op `id`.
    pub fn set_op(&mut self, id: u64) {
        self.op = id;
    }

    /// Runs `f` inside a span of `layer` / `call`.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        call: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            layer,
            call,
            op: self.op,
            parent: self.open.last().copied(),
            start_us: self.now_us(),
            end_us: 0.0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_us = self.now_us();
        out
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Moves another thread's spans into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations in ms of every span of `layer` / `call`.
    pub fn durations(&self, layer: &str, call: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.call == call)
            .map(Span::dur_ms)
            .collect()
    }

    /// Per op that has any, the summed duration in ms of its spans whose
    /// `(layer, call)` is in `calls`.
    pub fn per_op_ms(&self, calls: &[(&str, &str)]) -> Vec<f64> {
        let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
        for s in &self.spans {
            if s.op != 0 && calls.contains(&(s.layer, s.call)) {
                *by_op.entry(s.op).or_insert(0.0) += s.dur_ms();
            }
        }
        by_op.into_values().collect()
    }

    /// Summed duration in ms of each span's direct children.
    fn child_ms(&self) -> Vec<f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.dur_ms();
            }
        }
        child_ms
    }

    /// Self time in ms per layer, summed over spans that belong to an op.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut by_layer = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(self.child_ms()) {
            if s.op != 0 {
                *by_layer.entry(s.layer).or_insert(0.0) += s.dur_ms() - children;
            }
        }
        by_layer
    }

    /// Share of op time spent inside spans of the program's layers: one
    /// minus the self time of the root `op` spans over their duration.
    pub fn attributed_share(&self) -> f64 {
        let (mut root, mut root_self) = (0.0, 0.0);
        for (s, children) in self.spans.iter().zip(self.child_ms()) {
            if s.op != 0 && s.parent.is_none() {
                root += s.dur_ms();
                root_self += s.dur_ms() - children;
            }
        }
        if root > 0.0 {
            1.0 - root_self / root
        } else {
            0.0
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"op\": {}, \"parent\": {parent}, \"layer\": \"{}\", \
                 \"call\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}}}",
                s.op, s.layer, s.call, s.start_us, s.end_us
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

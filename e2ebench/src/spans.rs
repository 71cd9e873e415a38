//! In-memory span tracing for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer
//! (a crate); a span's name is `<layer>.<call>`. Spans nest through the
//! open-span stack, carry the id of the iteration (or phase) they belong
//! to, and may carry a work count (records processed). Scalar
//! observations made at the same boundary — cycles simulated, a miss
//! rate's numerator and denominator — are recorded as notes. Nothing is
//! written until [`Tracer::write_jsonl`] runs at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Iteration id of the set-up phase.
pub const SETUP: u32 = 0;
/// Iteration id of the per-workload layer probes (run once, outside the
/// timed iterations, on the workload's own inputs).
pub const LAYER_PROBE: u32 = 1_000_000;
/// Iteration id of the fixed probe that covers layers a workload does
/// not exercise.
pub const FIXED_PROBE: u32 = 1_000_001;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Iteration (or phase) id.
    pub iter: u32,
    /// Work done inside the span (records), 0 when not counted.
    pub count: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The layer part of a span or note name.
pub fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

/// The span and note store.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    notes: Vec<(&'static str, u32, f64)>,
    open: Vec<usize>,
    iter: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            notes: Vec::new(),
            open: Vec::new(),
            iter: SETUP,
        }
    }

    /// Sets the iteration id stamped on spans and notes from now on.
    pub fn set_iter(&mut self, iter: u32) {
        self.iter = iter;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).expect("a run lasts less than 584 years")
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.counted(name, |t| (f(t), 0))
    }

    /// Runs `f` inside a span named `name`; `f` also returns the work
    /// count the span is credited with.
    pub fn counted<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> (T, u64)) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            iter: self.iter,
            count: 0,
        });
        self.open.push(index);
        let (value, count) = f(self);
        self.open.pop();
        let end = self.now_ns();
        let span = &mut self.spans[index];
        span.end_ns = end;
        span.count = count;
        value
    }

    /// Records a scalar observation under `name` for the current
    /// iteration.
    pub fn note(&mut self, name: &'static str, value: f64) {
        self.notes.push((name, self.iter, value));
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every note recorded so far, as `(name, iteration, value)`.
    pub fn notes(&self) -> &[(&'static str, u32, f64)] {
        &self.notes
    }

    /// Self time of every span: its duration minus the durations of its
    /// direct children (children are strictly nested and sequential).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Per-layer self time (ms) of iteration `iter`.
    pub fn layer_self_ms(&self, iter: u32) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            if s.iter == iter {
                *out.entry(layer_of(s.name)).or_insert(0.0) += own as f64 / 1e6;
            }
        }
        out
    }

    /// Renders every span and note as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"iter\":{},\"count\":{}}}",
                span.name, span.start_ns, span.end_ns, span.iter, span.count
            );
        }
        for (name, iter, value) in &self.notes {
            let _ = writeln!(
                s,
                "{{\"note\":\"{name}\",\"iter\":{iter},\"value\":{value}}}"
            );
        }
        s
    }

    /// Writes [`Tracer::to_jsonl`] to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.set_iter(1);
        t.span("bench.iter", |t| {
            spin(200);
            t.counted("core.run", |_| {
                spin(500);
                ((), 42)
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].count, 42);
        let own = t.self_ns();
        assert_eq!(own[0] + own[1], spans[0].dur_ns());
        let layers = t.layer_self_ms(1);
        assert!(layers["core"] >= 0.5);
        assert!(layers["bench"] >= 0.2);
        assert!(t.to_jsonl().contains("\"name\":\"core.run\""));
    }
}

//! In-memory span recorder for the traced replays.
//!
//! A span is one timed call: name, start, end, parent span and the op it
//! served. Spans stay in memory while the replay runs and are written
//! out once at the end, so recording costs two clock reads and a vector
//! push per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;
/// Op id of spans that serve no single op (roots, end-of-stream work).
pub const NO_OP: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`; the layer is the part before the first `.`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch (`0` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The op this call served, or [`NO_OP`].
    pub op: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer this span's self time is charged to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The span recorder. Disabled tracers record nothing, so one replay
/// routine serves both the untimed state-building prefix and the
/// traced part.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer that starts disabled.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off (only between top-level spans).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggle tracing outside spans");
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u32) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(self.spans.len() as u32);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            op,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        let idx = self.stack.pop().expect("exit matches an enter");
        self.spans[idx as usize].end_ns = end;
    }

    /// Times one call as a leaf span.
    pub fn time<R>(&mut self, name: &'static str, op: u32, f: impl FnOnce() -> R) -> R {
        self.enter(name, op);
        let out = f();
        self.exit();
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            let op = if s.op == NO_OP {
                "null".to_owned()
            } else {
                s.op.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{op}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Per-name call statistics over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallStats {
    /// Calls recorded.
    pub count: u64,
    /// Summed duration (children included), ns.
    pub total_ns: u64,
}

impl CallStats {
    /// Mean duration per call in µs (`0.0` when never called).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Index of the root span each span belongs to.
fn roots(spans: &[Span]) -> Vec<u32> {
    let mut root = vec![0u32; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        // parents always precede children
        root[i] = if s.parent == NO_PARENT {
            i as u32
        } else {
            root[s.parent as usize]
        };
    }
    root
}

/// Whether each span lies under a root named `root`.
pub fn under_root(spans: &[Span], root: &str) -> Vec<bool> {
    let owner = roots(spans);
    owner
        .iter()
        .map(|&r| spans[r as usize].name == root)
        .collect()
}

/// Call statistics by span name over the subtrees of roots named `root`.
pub fn call_stats(spans: &[Span], root: &str) -> BTreeMap<&'static str, CallStats> {
    let owner = roots(spans);
    let mut out: BTreeMap<&'static str, CallStats> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if spans[owner[i] as usize].name == root {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.dur_ns();
        }
    }
    out
}

/// Self time (duration minus the time covered by direct children) and
/// span count per layer, over the subtrees of roots named `root`.
pub fn layer_self_times(spans: &[Span], root: &str) -> BTreeMap<&'static str, (u64, u64)> {
    let owner = roots(spans);
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if spans[owner[i] as usize].name == root {
            let e = out.entry(s.layer()).or_default();
            e.0 += s.dur_ns().saturating_sub(child_ns[i]);
            e.1 += 1;
        }
    }
    out
}

/// Summed duration of the roots named `root`, ns.
pub fn root_ns(spans: &[Span], root: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == NO_PARENT && s.name == root)
        .map(Span::dur_ns)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: NO_OP,
        }
    }

    #[test]
    fn self_times_subtract_direct_children_and_sum_to_the_root() {
        let spans = vec![
            span("replay", 0, 100, NO_PARENT),
            span("serve.op", 0, 90, 0),
            span("batch.run_batch", 10, 70, 1),
            span("serve.format", 70, 80, 1),
            span("probe", 100, 150, NO_PARENT),
            span("index.nearest", 100, 140, 4),
        ];
        let layers = layer_self_times(&spans, "replay");
        assert_eq!(layers["replay"], (10, 1));
        assert_eq!(layers["serve"], (20 + 10, 2));
        assert_eq!(layers["batch"], (60, 1));
        assert!(!layers.contains_key("index"));
        let total: u64 = layers.values().map(|v| v.0).sum();
        assert_eq!(total, root_ns(&spans, "replay"));
        let calls = call_stats(&spans, "probe");
        assert_eq!(calls["index.nearest"].count, 1);
        assert_eq!(calls["index.nearest"].mean_us(), 0.04);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        t.time("serve.parse", 0, || 1);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        t.enter("replay", NO_OP);
        t.time("serve.parse", 3, || 1);
        t.exit();
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.spans()[1].op, 3);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}

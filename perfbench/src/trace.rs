//! In-memory span recorder for the traced run.
//!
//! A span is one public call the benchmark makes into a layer: its name
//! (`<layer>.<call>`), start and end, the span that caused it and the op
//! it belongs to. Counts (windows imaged, pixels, shift-cache hits...)
//! are recorded beside the spans they describe. Nothing is aggregated
//! while the run is timed; [`Tracer::write_json`] dumps the raw record at
//! exit and the per-layer metrics are derived from it afterwards.
//!
//! A disabled tracer records nothing, so the untraced run pays one branch
//! per call site.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Op id of spans recorded while setting up (before the first timed op).
pub const SETUP: i64 = -1;
/// Op id of spans recorded while replaying extraction windows through
/// the OPC, imaging and slicing calls `extract_gates` makes internally.
pub const REPLAY: i64 = -2;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: i64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// One recorded count, attached to the innermost open span.
#[derive(Debug, Clone)]
pub struct Count {
    pub name: &'static str,
    pub value: f64,
    pub span: Option<usize>,
    pub op: i64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: i64,
    stack: Vec<usize>,
    spans: Vec<Span>,
    counts: Vec<Count>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            op: SETUP,
            stack: Vec::new(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags every span begun from now on with `op`.
    pub fn set_op(&mut self, op: i64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; its parent is the innermost span still open.
    pub fn begin(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id` and any span opened inside it that is still open
    /// (an error can leave one behind).
    pub fn end(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Records a count against the innermost open span.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.counts.push(Count {
                name,
                value,
                span: self.stack.last().copied(),
                op: self.op,
            });
        }
    }

    /// Spans whose name is `name`.
    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations in ms of every call named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.dur_ns() as f64 / 1e6).collect()
    }

    /// Values of every count named `name`.
    pub fn counts(&self, name: &str) -> Vec<f64> {
        self.counts
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .collect()
    }

    /// For each root span named `root`, the summed duration (ms) of its
    /// children named `name`; roots without such a child are skipped.
    pub fn per_root_ms(&self, root: &str, name: &str) -> Vec<f64> {
        let mut sums = vec![0.0; self.spans.len()];
        let mut seen = vec![false; self.spans.len()];
        for s in self.named(name) {
            if let Some(p) = s.parent {
                if self.spans[p].name == root {
                    sums[p] += s.dur_ns() as f64 / 1e6;
                    seen[p] = true;
                }
            }
        }
        (0..self.spans.len())
            .filter(|&i| seen[i])
            .map(|i| sums[i])
            .collect()
    }

    /// The root span of every span (spans are pushed after their parent,
    /// so one forward pass suffices).
    fn roots(&self) -> Vec<usize> {
        let mut root = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            root.push(s.parent.map_or(i, |p| root[p]));
        }
        root
    }

    /// Self time (duration minus the children's durations) per span, ns.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Calls and self-time share of `layer` under the root spans named in
    /// `roots`: `(calls, self-time percent of the roots' total duration)`.
    pub fn layer_share(&self, layer: &str, roots: &[&str]) -> (usize, f64) {
        let root_of = self.roots();
        let own = self.self_ns();
        let in_scope = |i: usize| roots.contains(&self.spans[root_of[i]].name);
        let total: u64 = (0..self.spans.len())
            .filter(|&i| self.spans[i].parent.is_none() && in_scope(i))
            .map(|i| self.spans[i].dur_ns())
            .sum();
        let mut calls = 0;
        let mut layer_ns = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_some() && s.layer() == layer && in_scope(i) {
                calls += 1;
                layer_ns += own[i];
            }
        }
        let share = if total == 0 {
            0.0
        } else {
            100.0 * layer_ns as f64 / total as f64
        };
        (calls, share)
    }

    /// Writes every span and count as one JSON document.
    pub fn write_json(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = String::new();
        let _ = write!(out, "{{\"env\": {header},\n\"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out.push_str("],\n\"counts\": [");
        for (i, c) in self.counts.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let span = c.span.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"name\": \"{}\", \"value\": {}, \"span\": {span}, \"op\": {}}}",
                c.name, c.value, c.op
            );
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_and_shares_follow_the_span_tree() {
        let mut t = Tracer::new(true);
        t.set_op(0);
        let root = t.begin("op");
        let a = t.begin("extract.gates");
        t.span("sta.evaluate", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(a);
        t.end(root);
        let (calls, share) = t.layer_share("extract", &["op"]);
        assert_eq!(calls, 1);
        let (sta_calls, sta_share) = t.layer_share("sta", &["op"]);
        assert_eq!(sta_calls, 1);
        assert!(sta_share > 0.0 && share + sta_share <= 100.0 + 1e-9);
        assert_eq!(t.layer_share("litho", &["op"]), (0, 0.0));
    }

    #[test]
    fn end_closes_spans_left_open_inside() {
        let mut t = Tracer::new(true);
        let root = t.begin("op");
        let _inner = t.begin("sta.compile");
        t.end(root);
        assert!(t.stack.is_empty());
        assert!(t.spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("op");
        t.count("extract.windows", 3.0);
        t.end(id);
        assert!(t.spans.is_empty() && t.counts.is_empty());
    }
}

//! The span recorder of the traced run.
//!
//! The benchmark's own code opens a span around each call it makes into a
//! layer's public functions. A span records its name, start, end, parent span
//! and op id; spans stay in memory until the run ends. Counters returned by the
//! layers (search statistics, cache counters) are summed by name next to them.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a span opened directly under its op's root span.
pub const ROOT: u64 = 0;

/// Name of the span that covers one whole op, as the client sees it.
pub const OP: &str = "op";

/// Where a new span hangs: its op and its parent span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ctx {
    /// The op the span belongs to.
    pub op: u64,
    /// The parent span, or [`ROOT`].
    pub parent: u64,
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub id: u64,
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span and counter store, shared by every thread of a traced run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            next_id: AtomicU64::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Reserves a span id, for a span whose children start before it ends.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Stores a finished span.
    pub fn record(&self, name: &'static str, ctx: Ctx, id: u64, start_ns: u64, end_ns: u64) {
        self.spans.lock().expect("span store poisoned").push(Span {
            name,
            op: ctx.op,
            id,
            parent: ctx.parent,
            start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span; `f` receives the context its own children hang
    /// under.
    pub fn span<T>(&self, name: &'static str, ctx: Ctx, f: impl FnOnce(Ctx) -> T) -> T {
        let id = self.reserve();
        let start = self.now();
        let out = f(Ctx {
            op: ctx.op,
            parent: id,
        });
        self.record(name, ctx, id, start, self.now());
        out
    }

    /// Adds `value` to the named counter.
    pub fn add(&self, counter: &'static str, value: f64) {
        *self
            .counters
            .lock()
            .expect("counter store poisoned")
            .entry(counter)
            .or_insert(0.0) += value;
    }

    /// The named counter's total (0 when never added to).
    pub fn counter(&self, counter: &str) -> f64 {
        self.counters
            .lock()
            .expect("counter store poisoned")
            .get(counter)
            .copied()
            .unwrap_or(0.0)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Writes every span as one JSON line, then the counters as a last line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in self.spans() {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.op, span.id, span.parent, span.start_ns, span.end_ns
            )?;
        }
        let counters = self.counters.lock().expect("counter store poisoned");
        let fields: Vec<String> = counters
            .iter()
            .map(|(name, value)| format!("\"{name}\":{value}"))
            .collect();
        writeln!(out, "{{\"counters\":{{{}}}}}", fields.join(","))?;
        out.flush()
    }
}

/// Total length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// Per-layer totals of a finished traced phase.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Inclusive time per span name, nanoseconds.
    pub inclusive_ns: BTreeMap<&'static str, u64>,
    /// Self time per span name (duration minus the part its children cover).
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Spans per name.
    pub count: BTreeMap<&'static str, u64>,
    /// Ops with a root span.
    pub ops: u64,
    /// Summed wall time of the ops' root spans.
    pub op_wall_ns: u64,
    /// Summed time of each op's wall that some layer span covers.
    pub covered_ns: u64,
    /// Names of layers with a span outside its op's wall time.
    pub outside: Vec<&'static str>,
}

impl Ledger {
    /// Builds the ledger from recorded spans. Spans of ops without a root span
    /// (side probes) count toward the layer totals but not toward coverage.
    pub fn from_spans(spans: &[Span]) -> Ledger {
        let mut ledger = Ledger::default();
        let roots: HashMap<u64, &Span> = spans
            .iter()
            .filter(|s| s.name == OP)
            .map(|s| (s.op, s))
            .collect();
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        let mut op_layers: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for span in spans.iter().filter(|s| s.name != OP) {
            let parent = match (span.parent, roots.get(&span.op)) {
                (ROOT, Some(root)) => root.id,
                (parent, _) => parent,
            };
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
            if let Some(root) = roots.get(&span.op) {
                op_layers
                    .entry(span.op)
                    .or_default()
                    .push((span.start_ns, span.end_ns));
                let outside = span.start_ns < root.start_ns || span.end_ns > root.end_ns;
                if outside && !ledger.outside.contains(&span.name) {
                    ledger.outside.push(span.name);
                }
            }
        }
        for span in spans {
            if span.name == OP {
                ledger.ops += 1;
                ledger.op_wall_ns += span.duration_ns();
                if let Some(layers) = op_layers.get_mut(&span.op) {
                    ledger.covered_ns += covered_ns(layers, span.start_ns, span.end_ns);
                }
                continue;
            }
            let nested = children
                .get_mut(&span.id)
                .map_or(0, |c| covered_ns(c, span.start_ns, span.end_ns));
            *ledger.inclusive_ns.entry(span.name).or_insert(0) += span.duration_ns();
            *ledger.self_ns.entry(span.name).or_insert(0) += span.duration_ns() - nested;
            *ledger.count.entry(span.name).or_insert(0) += 1;
        }
        ledger
    }

    /// Inclusive milliseconds of `name`, per op.
    pub fn ms_per_op(&self, name: &str) -> f64 {
        self.per_op(self.inclusive_ns.get(name).copied().unwrap_or(0) as f64) / 1e6
    }

    /// Self milliseconds of `name`, per op.
    pub fn self_ms_per_op(&self, name: &str) -> f64 {
        self.per_op(self.self_ns.get(name).copied().unwrap_or(0) as f64) / 1e6
    }

    /// Mean inclusive milliseconds of one `name` span (0 when none ran).
    pub fn ms_per_span(&self, name: &str) -> f64 {
        match self.count.get(name) {
            Some(&n) if n > 0 => self.inclusive_ns[name] as f64 / n as f64 / 1e6,
            _ => 0.0,
        }
    }

    /// Inclusive seconds of `name`, in total.
    pub fn total_s(&self, name: &str) -> f64 {
        self.inclusive_ns.get(name).copied().unwrap_or(0) as f64 / 1e9
    }

    /// `value` divided by the ops of the phase.
    pub fn per_op(&self, value: f64) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            value / self.ops as f64
        }
    }

    /// Layer span time over op wall time.
    pub fn coverage(&self) -> f64 {
        if self.op_wall_ns == 0 {
            0.0
        } else {
            self.covered_ns as f64 / self.op_wall_ns as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, op: u64, id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            name,
            op,
            id,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(OP, 1, 1, ROOT, 0, 100),
            span("outer", 1, 2, ROOT, 10, 90),
            // Two overlapping children (parallel calls) cover 20..60.
            span("child", 1, 3, 2, 20, 50),
            span("child", 1, 4, 2, 30, 60),
        ];
        let ledger = Ledger::from_spans(&spans);
        assert_eq!(ledger.self_ns["outer"], 80 - 40);
        assert_eq!(ledger.inclusive_ns["child"], 60);
        assert_eq!(ledger.count["child"], 2);
        assert_eq!(ledger.ops, 1);
        assert!((ledger.coverage() - 0.8).abs() < 1e-12);
        assert!(ledger.outside.is_empty());
    }

    #[test]
    fn spans_outside_their_op_are_named() {
        let spans = vec![
            span(OP, 7, 1, ROOT, 100, 200),
            span("late", 7, 2, ROOT, 150, 250),
            // A side probe of an op without a root span: no coverage, no check.
            span("probe", 8, 3, ROOT, 0, 10),
        ];
        let ledger = Ledger::from_spans(&spans);
        assert_eq!(ledger.outside, vec!["late"]);
        assert_eq!(ledger.inclusive_ns["probe"], 10);
        assert!((ledger.coverage() - 0.5).abs() < 1e-12);
    }
}

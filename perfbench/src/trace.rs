//! The traced run's span recorder.
//!
//! Spans are opened by the benchmark around each call it makes into a
//! layer's public functions; each records its name, layer, start, end,
//! parent and the op it belongs to. The only spans from inside the
//! program are the ones `ic-core` already emits, read back through an
//! `ic_obs::MemorySink` and attached under the call that produced them.
//! Everything stays in memory until [`Tracer::write_jsonl`] at the end.
//!
//! A span's self time is its duration minus its children's. A layer's
//! self time is the sum over its spans, and the residual is the part of
//! the traced wall time that no top-level span covers, so the layers'
//! self times plus the residual add up to the wall time.

use crate::stats::Metric;
use crate::{Args, Outcome};
use ic_obs::SpanNode;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The workspace crates, in the order the split is printed.
pub const LAYERS: [&str; 6] = ["core", "pool", "index", "serve", "store", "obs"];

#[derive(Debug, Clone)]
struct SpanRec {
    op: u64,
    name: &'static str,
    layer: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// Single-threaded span recorder.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Starts a new op: spans opened from here on share its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.t0.elapsed();
        self.spans.push(SpanRec {
            op: self.op,
            name,
            layer,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close in LIFO order");
        self.spans[id].end = self.t0.elapsed();
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(layer, name);
        let r = f();
        self.end(id);
        r
    }

    pub fn duration(&self, id: usize) -> Duration {
        self.spans[id].end - self.spans[id].start
    }

    /// Adds a closed child of `parent` lasting `dur`, placed at `at`
    /// (an offset into the parent) — for times measured elsewhere, such
    /// as the server's `elapsed_us` or a merged `ic-core` span.
    pub fn child(
        &mut self,
        parent: usize,
        layer: &'static str,
        name: &'static str,
        at: Duration,
        dur: Duration,
    ) -> usize {
        let start = self.spans[parent].start + at;
        self.spans.push(SpanRec {
            op: self.spans[parent].op,
            name,
            layer,
            start,
            end: start + dur,
            parent: Some(parent),
        });
        self.spans.len() - 1
    }

    /// Attaches the `ic-core` span tree of one observation report under
    /// `parent`, children laid out one after another.
    pub fn attach(&mut self, parent: usize, nodes: &[SpanNode]) {
        let mut at = Duration::ZERO;
        for node in nodes {
            let id = self.child(parent, "core", node.name, at, node.total);
            self.attach(id, &node.children);
            at += node.total;
        }
    }

    /// Each span's self time in seconds: its duration minus its
    /// children's.
    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self
            .spans
            .iter()
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= (s.end - s.start).as_secs_f64();
            }
        }
        own
    }

    /// Per-layer self time plus the residual, as metrics named
    /// `split.<layer>_ms`, `split.residual_ms` and `split.wall_ms`.
    pub fn split(&self, wall: Duration) -> Vec<Metric> {
        let mut by_layer = [0f64; LAYERS.len()];
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let slot = LAYERS
                .iter()
                .position(|l| *l == s.layer)
                .expect("known layer");
            by_layer[slot] += own * 1e3;
        }
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum();
        let mut out: Vec<Metric> = LAYERS
            .iter()
            .zip(by_layer)
            .map(|(l, ms)| Metric::new(format!("split.{l}_ms"), "ms", ms))
            .collect();
        out.push(Metric::new(
            "split.residual_ms",
            "ms",
            (wall.as_secs_f64() - covered) * 1e3,
        ));
        out.push(Metric::new("split.wall_ms", "ms", wall.as_secs_f64() * 1e3));
        out
    }

    /// Writes every span as one JSON object per line; returns how many.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"op\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.op,
                s.layer,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)?;
        Ok(self.spans.len())
    }
}

/// Cost per op of untraced and traced ops, interleaved in one loop so
/// both see the same machine; the difference is the tracing overhead.
#[derive(Debug, Default)]
pub struct Overhead {
    secs: [f64; 2],
    ops: [u64; 2],
}

impl Overhead {
    pub fn add(&mut self, traced: bool, d: Duration) {
        self.secs[usize::from(traced)] += d.as_secs_f64();
        self.ops[usize::from(traced)] += 1;
    }

    /// Mean seconds per op.
    pub fn per_op(&self, traced: bool) -> f64 {
        let i = usize::from(traced);
        self.secs[i] / self.ops[i].max(1) as f64
    }

    /// How much slower traced ops were, in percent.
    pub fn pct(&self) -> f64 {
        (self.per_op(true) / self.per_op(false) - 1.0) * 100.0
    }

    /// Summed wall time of the traced ops.
    pub fn traced_wall(&self) -> Duration {
        Duration::from_secs_f64(self.secs[1])
    }
}

/// Ends a traced run: writes its spans to `perfbench/out/` and adds the
/// layer split (`ops` traced ops over `wall`) to `out`.
pub fn finish(
    args: &Args,
    tr: &Tracer,
    wall: Duration,
    ops: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/trace-{}-{}.jsonl",
        args.workload, args.seed
    ));
    let spans = tr
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    out.param("trace_file", path.display());
    for m in tr.split(wall) {
        out.metric(m);
    }
    out.metric(Metric::new("split.ops", "count", ops as f64));
    out.metric(Metric::new("trace.spans", "count", spans as f64));
    Ok(())
}

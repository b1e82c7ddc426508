//! In-memory spans recorded by the harness around each call into a layer.
//!
//! Nothing inside `crates/` is instrumented: a span here brackets one call
//! of a layer's public function as seen from the benchmark's own files. Spans
//! live in memory for the whole run and are written once, at exit, as a
//! Chrome trace. A disabled tracer records nothing, so the untraced run pays
//! one branch per call site.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.function`, e.g. `smtsim.run_timeslice`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Display lane: 0 for the driving thread, 1.. for worker threads.
    pub lane: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder of one traced run.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Per worker lane (index 0 is lane 1), the end of the last span on it.
    worker_busy_until: Vec<u64>,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every call.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            worker_busy_until: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.t0).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            lane: 0,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.open.pop().expect("end() without a matching begin()");
        self.spans[idx].end_ns = self.ns(Instant::now());
    }

    /// Records a span that was timed elsewhere (on a worker thread) as a
    /// child of the innermost open one. Workers overlap, so each such span
    /// goes on the first worker lane that is free at its start.
    pub fn add(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let free = self.worker_busy_until.iter().position(|&b| b <= start_ns);
        let slot = free.unwrap_or_else(|| {
            self.worker_busy_until.push(0);
            self.worker_busy_until.len() - 1
        });
        self.worker_busy_until[slot] = end_ns;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            lane: slot as u32 + 1,
        });
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total seconds spent in spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Self time in seconds per span name: each span's duration minus the
    /// part of its interval that its child spans cover.
    pub fn self_time_s(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (name, ns) in self_times_ns(&self.spans) {
            *out.entry(name).or_insert(0.0) += ns as f64 / 1e9;
        }
        out
    }

    /// Measures what one `begin`/`end` pair costs on this host, in
    /// nanoseconds (median of several batches on a scratch tracer).
    pub fn span_cost_ns() -> f64 {
        const BATCH: usize = 20_000;
        let costs: Vec<f64> = (0..7)
            .map(|_| {
                let mut t = Tracer::new(true);
                t.spans.reserve(BATCH);
                let start = Instant::now();
                for _ in 0..BATCH {
                    t.begin("calibration");
                    t.end();
                }
                let ns = start.elapsed().as_nanos() as f64 / BATCH as f64;
                std::hint::black_box(&t.spans);
                ns
            })
            .collect();
        crate::stats::median(&costs)
    }

    /// Writes the spans as a Chrome trace (`chrome://tracing`, Perfetto),
    /// one `tid` per lane.
    pub fn write_chrome(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                write!(out, ",")?;
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"workload\":\"{}\"}}}}",
                s.name,
                layer_of(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.lane,
                i,
                parent,
                workload
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

/// The layer (module) a span or metric name belongs to: the part before the
/// first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time of every span, in nanoseconds, paired with its name: duration
/// minus the union of its children's intervals clipped to its own.
fn self_times_ns(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| (s.name, s.dur_ns() - covered_ns(kids)))
        .collect()
}

/// Length of the union of `intervals` (sorted in place).
fn covered_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for &(lo, hi) in intervals.iter() {
        let lo = lo.max(reach);
        if hi > lo {
            covered += hi - lo;
            reach = hi;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root 0..100; sequential children 10..30 and 40..60; a grandchild
        // inside the first child must not be subtracted from the root again.
        let spans = vec![
            span("a.root", 0, 100, None),
            span("b.child", 10, 30, Some(0)),
            span("c.grand", 12, 20, Some(1)),
            span("b.child", 40, 60, Some(0)),
        ];
        let st = self_times_ns(&spans);
        assert_eq!(st[0], ("a.root", 60));
        assert_eq!(st[1], ("b.child", 12));
        assert_eq!(st[2], ("c.grand", 8));
        assert_eq!(st[3], ("b.child", 20));
    }

    #[test]
    fn self_time_uses_the_union_of_parallel_children() {
        // Two workers overlap on 20..50; together they cover 10..70 of the
        // parent, and a child sticking out past the parent is clipped.
        let spans = vec![
            span("par.map", 0, 80, None),
            span("sos.stage", 10, 50, Some(0)),
            span("sos.stage", 20, 70, Some(0)),
            span("sos.stage", 75, 90, Some(0)),
        ];
        let st = self_times_ns(&spans);
        assert_eq!(st[0], ("par.map", 80 - 60 - 5));
    }

    #[test]
    fn self_time_by_name_sums_spans() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("a.root", 0, 1_000_000_000, None),
            span("b.child", 0, 250_000_000, Some(0)),
            span("b.child", 500_000_000, 750_000_000, Some(0)),
        ];
        let st = t.self_time_s();
        assert!((st["a.root"] - 0.5).abs() < 1e-12);
        assert!((st["b.child"] - 0.5).abs() < 1e-12);
        assert!((t.total_s("b.child") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin("x.y");
        t.add("x.z", Instant::now(), Instant::now());
        t.end();
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn begin_end_nest_by_call_order() {
        let mut t = Tracer::new(true);
        t.begin("a.outer");
        t.begin("b.inner");
        t.end();
        t.add("c.worker", Instant::now(), Instant::now());
        t.end();
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
    }

    #[test]
    fn overlapping_worker_spans_get_their_own_lanes() {
        let mut t = Tracer::new(true);
        let at = |ms: u64| t.t0 + std::time::Duration::from_millis(ms);
        let (a, b, c, d) = (at(0), at(50), at(60), at(90));
        t.begin("par.map");
        t.add("sos.stage", a, c);
        t.add("sos.stage", a, b);
        t.add("sos.stage", c, d);
        t.end();
        let lanes: Vec<u32> = t.spans.iter().map(|s| s.lane).collect();
        assert_eq!(lanes, vec![0, 1, 2, 1]);
    }

    #[test]
    fn layer_is_the_prefix_before_the_first_dot() {
        assert_eq!(layer_of("smtsim.mips.c4.compute"), "smtsim");
        assert_eq!(layer_of("plain"), "plain");
    }
}

//! Zero-dependency observability: one instance-scoped [`Telemetry`] handle
//! owning a metric registry, an event buffer and a simulated clock.
//!
//! A handle is in one of three states, fixed at construction:
//!
//! * [`Telemetry::off`] — every probe is one branch on a `None`; nothing is
//!   allocated or recorded. This is what the batch entry points run with.
//! * [`Telemetry::metrics`] — the registry is live: named [`Counter`] /
//!   [`Gauge`] handles (single relaxed atomics, resolved once and written
//!   without a map or a lock) and lifetime log2 [`Histogram`]s.
//! * [`Telemetry::tracing`] — metrics plus a time-stamped [`Event`] stream of
//!   spans, instants and counter samples on the handle's simulated-cycle
//!   clock.
//!
//! Handles are cheap clones of one `Arc` and are *passed*: whoever builds an
//! engine, runner or cluster hands it the handle it should report to, so two
//! runs in one process never share a buffer or a clock. A
//! [`child`](Telemetry::child) shares its parent's registry but stamps
//! events from its own clock into its own buffer under a track prefix; the
//! parent's [`drain`](Telemetry::drain) appends children in creation order.
//!
//! One [`Snapshot`] type comes out, rendered by two exporters: Prometheus
//! text ([`Snapshot::prometheus_text`]) and JSONL rows plus Chrome
//! `trace_event` JSON loadable in Perfetto (<https://ui.perfetto.dev>;
//! [`Snapshot::metrics_jsonl`], [`Snapshot::events_jsonl`],
//! [`Snapshot::chrome_trace_json`]). Cycles become microseconds at
//! [`TRACE_CLOCK_MHZ`].
//!
//! ```
//! use sos_core::telemetry::{Attr, Telemetry};
//!
//! let tel = Telemetry::tracing();
//! {
//!     let _span = tel.span("scheduler", "demo.phase", Vec::new);
//!     tel.counter_add("demo.widgets", 3);
//!     tel.instant("scheduler", "demo.tick", || vec![Attr::num("n", 1.0)]);
//! }
//! let snapshot = tel.drain();
//! assert_eq!(snapshot.events.len(), 3); // span start + instant + span end
//! assert_eq!(snapshot.counters["demo.widgets"], 3);
//! assert!(snapshot.chrome_trace_json().contains("traceEvents"));
//! ```

use crate::report::Percentiles;
use serde::{Deserialize, Serialize};
use smtsim::counters::Resource;
use smtsim::{Processor, TimesliceStats};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Simulated clock rate assumed when converting cycles to trace time:
/// 500 MHz (a late-90s Alpha 21264), i.e. 500 cycles per microsecond.
pub const TRACE_CLOCK_MHZ: u64 = 500;

/// Version of the [`Snapshot`] schema carried by the `metrics` protocol
/// verb; bump on incompatible change so pollers can detect a mismatch
/// instead of misreading fields.
pub const METRICS_VERSION: u32 = 2;

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// What kind of moment an [`Event`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventPhase {
    /// A span (nested duration) opens.
    SpanStart,
    /// The most recent open span with the same track and name closes.
    SpanEnd,
    /// A point event.
    Instant,
    /// A sampled numeric series (rendered as a counter track in Perfetto).
    Counter,
}

/// One structured attribute on an [`Event`]: a key with a numeric and/or
/// text value. (A struct of two `Option`s rather than an enum keeps the
/// type friendly to minimal serde derives and to JSONL readers.)
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Attr {
    /// Attribute name.
    pub key: String,
    /// Numeric value, if any.
    pub num: Option<f64>,
    /// Text value, if any.
    pub text: Option<String>,
}

impl Attr {
    /// A numeric attribute.
    pub fn num(key: impl Into<String>, value: f64) -> Attr {
        Attr {
            key: key.into(),
            num: Some(value),
            text: None,
        }
    }

    /// A text attribute.
    pub fn text(key: impl Into<String>, value: impl Into<String>) -> Attr {
        Attr {
            key: key.into(),
            num: None,
            text: Some(value.into()),
        }
    }
}

/// One telemetry event on its handle's simulated-cycle timeline.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Simulated-cycle timestamp.
    pub ts_cycles: u64,
    /// Span/instant/counter discriminator.
    pub phase: EventPhase,
    /// Logical track (rendered as a Perfetto thread): `"smtsim"`,
    /// `"scheduler"`, `"opensys"`, `"job/3"`, ... — prefixed
    /// `"cluster.shard0/"` when recorded through a child handle.
    pub track: String,
    /// Low-cardinality event name, e.g. `"sos.candidate"`.
    pub name: String,
    /// Structured details.
    pub attrs: Vec<Attr>,
}

// ---------------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------------

/// A monotonic counter: one relaxed atomic, safe to share across threads.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raises the counter to an absolute `target` (no-op when already at or
    /// past it), so a summary-driven exporter keeps counter semantics.
    pub fn raise_to(&self, target: u64) {
        self.value.fetch_max(target, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge: an `f64` stored as atomic bits.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A histogram over `u64` values with logarithmic (power-of-two) buckets.
///
/// Bucket `0` counts zeros; bucket `i > 0` counts values `v` with
/// `2^(i-1) <= v < 2^i`. 65 buckets cover the full `u64` range.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Per-bucket counts (see type docs for bucket boundaries).
    pub buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            buckets: vec![0; 65],
        }
    }
}

impl Histogram {
    /// Bucket index for `value`.
    pub fn bucket_index(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Inclusive lower bound of bucket `i`.
    pub fn bucket_lower_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[Self::bucket_index(value)] += 1;
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`): the lower bound of the bucket
    /// containing the `q`-th ordered value.
    pub fn approx_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Self::bucket_lower_bound(i);
            }
        }
        Self::bucket_lower_bound(64)
    }

    /// The p50/p95/p99 summary of the recorded distribution, from
    /// [`approx_quantile`](Self::approx_quantile) (so each value is the
    /// lower bound of its log2 bucket — a floor, not an interpolation).
    /// All fields are `NaN` when the histogram is empty, matching
    /// [`crate::report::percentiles`] on empty input.
    pub fn percentile_summary(&self) -> Percentiles {
        if self.count == 0 {
            return Percentiles {
                p50: f64::NAN,
                p95: f64::NAN,
                p99: f64::NAN,
            };
        }
        Percentiles {
            p50: self.approx_quantile(0.50) as f64,
            p95: self.approx_quantile(0.95) as f64,
            p99: self.approx_quantile(0.99) as f64,
        }
    }

    /// Adds another histogram's observations into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }
}

// ---------------------------------------------------------------------------
// The handle
// ---------------------------------------------------------------------------

/// The named metrics behind every handle of one family (a root and its
/// children). Counters and gauges are handed out as `Arc`s — callers look a
/// name up once and then write through a single relaxed atomic. Histograms
/// sit behind one mutex; they are written off the per-timeslice path and
/// read by snapshotters.
#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// A handle's event buffer and the simulated clock that stamps it.
#[derive(Default)]
struct Trace {
    clock: u64,
    events: Vec<Event>,
}

struct Inner {
    registry: Arc<Registry>,
    /// `Some` in the metrics+events state.
    trace: Option<Mutex<Trace>>,
    /// Set on child handles: the track prefix, and the scope engines book
    /// their series under.
    prefix: Option<String>,
    /// Children in creation order, appended by [`Telemetry::drain`].
    children: Mutex<Vec<Telemetry>>,
}

/// Telemetry must keep working even if a panicking thread poisoned a lock;
/// the data is append-mostly and stays structurally valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The one observability handle (see the module docs for states and
/// ownership). `Default` is [`Telemetry::off`].
#[derive(Clone, Default)]
pub struct Telemetry(Option<Arc<Inner>>);

/// An RAII span: emits `SpanStart` on creation and `SpanEnd` on drop, so
/// spans close on every exit path.
///
/// Track and name are `'static` by design — span names should be
/// low-cardinality; put per-instance details in the attributes.
#[must_use = "the span closes when this guard drops"]
pub struct SpanGuard<'a> {
    tel: &'a Telemetry,
    track: &'static str,
    name: &'static str,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tel.span_end(self.track, self.name);
    }
}

impl Telemetry {
    fn build(trace: bool, registry: Arc<Registry>, prefix: Option<String>) -> Self {
        Telemetry(Some(Arc::new(Inner {
            registry,
            trace: trace.then(Mutex::default),
            prefix,
            children: Mutex::default(),
        })))
    }

    /// The off handle: records nothing, allocates nothing.
    pub fn off() -> Self {
        Telemetry(None)
    }

    /// A handle recording metrics only.
    pub fn metrics() -> Self {
        Self::build(false, Arc::default(), None)
    }

    /// A handle recording metrics and events.
    pub fn tracing() -> Self {
        Self::build(true, Arc::default(), None)
    }

    /// A child in the same state sharing this handle's registry, with its
    /// own event buffer and its own clock, which starts at this handle's.
    /// Its events land on `"<prefix>/<track>"`
    /// tracks and are appended, after the parent's own and in creation
    /// order, by the parent's [`drain`](Self::drain). A child of the off
    /// handle is off.
    pub fn child(&self, prefix: &str) -> Telemetry {
        let Some(inner) = &self.0 else {
            return Telemetry::off();
        };
        let child = Self::build(
            inner.trace.is_some(),
            Arc::clone(&inner.registry),
            Some(prefix.to_string()),
        );
        child.set_clock(self.clock());
        lock(&inner.children).push(child.clone());
        child
    }

    /// The prefix this handle was created with by [`child`](Self::child).
    pub fn prefix(&self) -> Option<&str> {
        self.0.as_ref()?.prefix.as_deref()
    }

    /// Whether the handle records metrics (true in both on-states).
    #[inline]
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Whether the handle records events. Probes whose attributes are
    /// costly to build check this first (or pass a closure, which only runs
    /// when it is true).
    #[inline]
    pub fn events_on(&self) -> bool {
        self.trace().is_some()
    }

    #[inline]
    fn trace(&self) -> Option<&Mutex<Trace>> {
        self.0.as_ref()?.trace.as_ref()
    }

    fn registry(&self) -> Option<&Registry> {
        Some(&self.0.as_ref()?.registry)
    }

    // -- clock and events ---------------------------------------------------

    /// Current simulated-cycle clock (0 unless recording events).
    pub fn clock(&self) -> u64 {
        self.trace().map_or(0, |t| lock(t).clock)
    }

    /// Sets the clock (used by code that tracks simulated time itself).
    pub fn set_clock(&self, cycles: u64) {
        if let Some(t) = self.trace() {
            lock(t).clock = cycles;
        }
    }

    /// Advances the clock by `cycles`.
    pub fn advance_clock(&self, cycles: u64) {
        if let Some(t) = self.trace() {
            lock(t).clock += cycles;
        }
    }

    fn push(
        &self,
        ts: Option<u64>,
        phase: EventPhase,
        track: &str,
        name: &str,
        attrs: impl FnOnce() -> Vec<Attr>,
    ) {
        let Some(t) = self.trace() else {
            return;
        };
        let track = match self.prefix() {
            Some(p) => format!("{p}/{track}"),
            None => track.to_string(),
        };
        let attrs = attrs();
        let mut t = lock(t);
        let ts_cycles = ts.unwrap_or(t.clock);
        t.events.push(Event {
            ts_cycles,
            phase,
            track,
            name: name.to_string(),
            attrs,
        });
    }

    /// Emits a [`EventPhase::SpanStart`] at the current clock (see
    /// [`span`](Self::span) for the RAII form).
    pub fn span_start(&self, track: &str, name: &str, attrs: impl FnOnce() -> Vec<Attr>) {
        self.push(None, EventPhase::SpanStart, track, name, attrs);
    }

    /// Emits a [`EventPhase::SpanEnd`] at the current clock.
    pub fn span_end(&self, track: &str, name: &str) {
        self.push(None, EventPhase::SpanEnd, track, name, Vec::new);
    }

    /// Emits an [`EventPhase::Instant`] at the current clock.
    pub fn instant(&self, track: &str, name: &str, attrs: impl FnOnce() -> Vec<Attr>) {
        self.push(None, EventPhase::Instant, track, name, attrs);
    }

    /// Emits an [`EventPhase::Counter`] sample at an explicit timestamp
    /// (e.g. occupancy sampled mid-timeslice, before the clock advances).
    pub fn counter_sample_at(
        &self,
        ts_cycles: u64,
        track: &str,
        name: &str,
        attrs: impl FnOnce() -> Vec<Attr>,
    ) {
        self.push(Some(ts_cycles), EventPhase::Counter, track, name, attrs);
    }

    /// Opens a span closed when the returned guard drops.
    pub fn span(
        &self,
        track: &'static str,
        name: &'static str,
        attrs: impl FnOnce() -> Vec<Attr>,
    ) -> SpanGuard<'_> {
        self.span_start(track, name, attrs);
        SpanGuard {
            tel: self,
            track,
            name,
        }
    }

    // -- metrics ------------------------------------------------------------

    /// The counter named `name`, created at zero on first use. Resolve once
    /// and keep the `Arc` on hot paths. (On the off handle this is a
    /// detached counter nobody reads.)
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.registry() {
            Some(r) => Arc::clone(lock(&r.counters).entry(name.into()).or_default()),
            None => Arc::default(),
        }
    }

    /// The gauge named `name`, created at 0.0 on first use (detached on the
    /// off handle, like [`counter`](Self::counter)).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.registry() {
            Some(r) => Arc::clone(lock(&r.gauges).entry(name.into()).or_default()),
            None => Arc::default(),
        }
    }

    /// Adds to a counter by name (a map lookup under a lock: for
    /// per-experiment and per-phase paths, not per-timeslice ones).
    pub fn counter_add(&self, name: &str, delta: u64) {
        if self.is_on() {
            self.counter(name).add(delta);
        }
    }

    /// Sets a gauge by name (same cost caveat as
    /// [`counter_add`](Self::counter_add)).
    pub fn gauge_set(&self, name: &str, value: f64) {
        if self.is_on() {
            self.gauge(name).set(value);
        }
    }

    /// Lists the histogram named `name` at zero, so the exposition carries
    /// it before its first value.
    pub fn register_histogram(&self, name: &str) {
        if let Some(r) = self.registry() {
            lock(&r.histograms).entry(name.into()).or_default();
        }
    }

    /// Records `value` into histogram `name`, created on first use.
    pub fn histogram_record(&self, name: &str, value: u64) {
        if let Some(r) = self.registry() {
            lock(&r.histograms)
                .entry(name.into())
                .or_default()
                .record(value);
        }
    }

    // -- snapshots ----------------------------------------------------------

    /// A point-in-time view of every metric, stamped `now`; no events, and
    /// nothing is reset (what a live poller reads).
    pub fn snapshot(&self, now: u64) -> Snapshot {
        let mut snap = Snapshot {
            version: METRICS_VERSION,
            now_cycles: now,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            events: Vec::new(),
        };
        if let Some(r) = self.registry() {
            snap.counters = (lock(&r.counters).iter())
                .map(|(k, v)| (k.clone(), v.get()))
                .collect();
            snap.gauges = (lock(&r.gauges).iter())
                .map(|(k, v)| (k.clone(), v.get()))
                .collect();
            snap.histograms = lock(&r.histograms).clone();
        }
        snap
    }

    fn take_events(&self, out: &mut Vec<Event>) {
        let Some(i) = &self.0 else {
            return;
        };
        if let Some(t) = &i.trace {
            out.append(&mut lock(t).events);
        }
        for child in lock(&i.children).iter() {
            child.take_events(out);
        }
    }

    /// [`snapshot`](Self::snapshot) at this handle's clock, plus the
    /// buffered events — its own in emission order, then each child's in
    /// creation order — which are cleared. Metrics are not reset: their
    /// handles stay live in whoever resolved them.
    pub fn drain(&self) -> Snapshot {
        let mut snap = self.snapshot(self.clock());
        self.take_events(&mut snap.events);
        snap
    }
}

// ---------------------------------------------------------------------------
// Snapshot and the two exporters
// ---------------------------------------------------------------------------

/// A versioned view of a handle: every metric, plus (from
/// [`Telemetry::drain`]) the event stream. Carried by the `metrics`
/// protocol verb, rendered by `sos-top`, and the input of both exporters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Schema version ([`METRICS_VERSION`]).
    pub version: u32,
    /// Simulated clock at snapshot time.
    pub now_cycles: u64,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Lifetime histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Drained events (empty in a live [`Telemetry::snapshot`]).
    #[serde(default)]
    pub events: Vec<Event>,
}

/// Discriminates [`Metric`] payloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// Monotonic `u64` sum.
    Counter,
    /// Last-write-wins `f64`.
    Gauge,
    /// Log2-bucket distribution.
    Histogram,
}

/// One line of the metrics JSONL export: exactly one of the payload fields
/// is set, matching `kind`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Metric name, e.g. `"smtsim.cycles"`.
    pub name: String,
    /// Payload discriminator.
    pub kind: MetricKind,
    /// Counter value (when `kind == Counter`).
    pub counter: Option<u64>,
    /// Gauge value (when `kind == Gauge`).
    pub gauge: Option<f64>,
    /// Histogram value (when `kind == Histogram`).
    pub histogram: Option<Histogram>,
}

/// Sanitizes a metric name into a Prometheus-legal series name:
/// `serve.request_us.submit` → `sos_serve_request_us_submit`.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("sos_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

fn jsonl<T: Serialize>(rows: &[T]) -> String {
    let mut out = String::new();
    for row in rows {
        out.push_str(&serde_json::to_string(row).expect("telemetry row serializes"));
        out.push('\n');
    }
    out
}

impl Snapshot {
    /// Renders the metrics as Prometheus text exposition (format 0.0.4):
    /// counters and gauges as single series, histograms as cumulative
    /// `_bucket{le=…}` series over their non-empty buckets with
    /// `_sum`/`_count`.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let p = prometheus_name(name);
            out.push_str(&format!("# TYPE {p} counter\n{p} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let p = prometheus_name(name);
            out.push_str(&format!("# TYPE {p} gauge\n{p} {}\n", fmt_f64(*v)));
        }
        for (name, h) in &self.histograms {
            let p = prometheus_name(name);
            out.push_str(&format!("# TYPE {p} histogram\n"));
            let mut cumulative = 0u64;
            for (i, &c) in h.buckets.iter().enumerate().filter(|(_, &c)| c > 0) {
                cumulative += c;
                // The log2 bucket [lo, 2·lo) is reported at its exclusive
                // upper bound, the Prometheus `le` convention.
                let lo = Histogram::bucket_lower_bound(i);
                let le = if lo == 0 { 1 } else { lo.saturating_mul(2) };
                out.push_str(&format!("{p}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{p}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{p}_sum {}\n{p}_count {}\n", h.sum, h.count));
        }
        out
    }

    /// The counters, gauges and histograms as JSONL rows, sorted by name.
    pub fn metric_rows(&self) -> Vec<Metric> {
        let row = |name: &String, kind| Metric {
            name: name.clone(),
            kind,
            counter: None,
            gauge: None,
            histogram: None,
        };
        let mut out = Vec::new();
        for (name, &v) in &self.counters {
            out.push(Metric {
                counter: Some(v),
                ..row(name, MetricKind::Counter)
            });
        }
        for (name, &v) in &self.gauges {
            out.push(Metric {
                gauge: Some(v),
                ..row(name, MetricKind::Gauge)
            });
        }
        for (name, h) in &self.histograms {
            out.push(Metric {
                histogram: Some(h.clone()),
                ..row(name, MetricKind::Histogram)
            });
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Metrics as JSONL (one [`Metric`] object per line, sorted by name).
    pub fn metrics_jsonl(&self) -> String {
        jsonl(&self.metric_rows())
    }

    /// Events as JSONL (one [`Event`] object per line).
    pub fn events_jsonl(&self) -> String {
        jsonl(&self.events)
    }

    /// The event stream as Chrome `trace_event` JSON (object format), with
    /// cycles converted to microseconds at [`TRACE_CLOCK_MHZ`]. Loadable in
    /// Perfetto or `chrome://tracing`.
    pub fn chrome_trace_json(&self) -> String {
        serde_json::to_string_pretty(&chrome_trace_value(&self.events)).expect("trace serializes")
    }
}

fn attr_to_json(attr: &Attr) -> (String, serde::Value) {
    let value = match (&attr.num, &attr.text) {
        (Some(n), _) => serde_json::to_value(n).expect("f64 serializes"),
        (None, Some(t)) => serde::Value::String(t.clone()),
        (None, None) => serde::Value::Null,
    };
    (attr.key.clone(), value)
}

/// Builds the Chrome `trace_event` JSON value for an event stream.
///
/// Layout: one process (`pid` 1), one Perfetto thread per distinct event
/// track (named via `thread_name` metadata events), `ph` values `B`/`E`
/// for spans, `i` for instants, and `C` for counter samples.
pub fn chrome_trace_value(events: &[Event]) -> serde::Value {
    let mut tracks: Vec<&str> = Vec::new();
    for e in events {
        if !tracks.iter().any(|t| *t == e.track) {
            tracks.push(&e.track);
        }
    }
    let tid_of =
        |track: &str| -> u64 { tracks.iter().position(|t| *t == track).unwrap_or(0) as u64 + 1 };

    let mut trace_events: Vec<serde::Value> = Vec::new();
    // Thread-name metadata first, one per track.
    for track in &tracks {
        trace_events.push(serde::Value::Object(vec![
            ("name".into(), serde::Value::String("thread_name".into())),
            ("ph".into(), serde::Value::String("M".into())),
            ("pid".into(), serde_json::to_value(&1u64).unwrap()),
            ("tid".into(), serde_json::to_value(&tid_of(track)).unwrap()),
            (
                "args".into(),
                serde::Value::Object(vec![(
                    "name".into(),
                    serde::Value::String((*track).to_string()),
                )]),
            ),
        ]));
    }

    for e in events {
        let ts_us = e.ts_cycles as f64 / TRACE_CLOCK_MHZ as f64;
        let ph = match e.phase {
            EventPhase::SpanStart => "B",
            EventPhase::SpanEnd => "E",
            EventPhase::Instant => "i",
            EventPhase::Counter => "C",
        };
        let mut obj: Vec<(String, serde::Value)> = vec![
            ("name".into(), serde::Value::String(e.name.clone())),
            ("cat".into(), serde::Value::String(e.track.clone())),
            ("ph".into(), serde::Value::String(ph.into())),
            ("ts".into(), serde_json::to_value(&ts_us).unwrap()),
            ("pid".into(), serde_json::to_value(&1u64).unwrap()),
            (
                "tid".into(),
                serde_json::to_value(&tid_of(&e.track)).unwrap(),
            ),
        ];
        if e.phase == EventPhase::Instant {
            // Thread-scoped instant.
            obj.push(("s".into(), serde::Value::String("t".into())));
        }
        if !e.attrs.is_empty() {
            obj.push((
                "args".into(),
                serde::Value::Object(e.attrs.iter().map(attr_to_json).collect()),
            ));
        }
        trace_events.push(serde::Value::Object(obj));
    }

    serde::Value::Object(vec![
        ("traceEvents".into(), serde::Value::Array(trace_events)),
        ("displayTimeUnit".into(), serde::Value::String("ms".into())),
        (
            "otherData".into(),
            serde::Value::Object(vec![(
                "clockMHz".into(),
                serde_json::to_value(&TRACE_CLOCK_MHZ).unwrap(),
            )]),
        ),
    ])
}

// ---------------------------------------------------------------------------
// The smtsim bridge
// ---------------------------------------------------------------------------

/// Records the detailed timeslice `cpu` just ran, which started at the
/// handle's clock, on a tracing handle:
///
/// * an `smtsim.timeslice` span, after which the clock has advanced by the
///   slice's cycles;
/// * each of [`Processor::occupancy`]'s samples as an `smtsim.occupancy`
///   `C` (counter-track) event at the sampled cycle;
/// * the `smtsim.cycles`, `smtsim.timeslices` and `smtsim.committed`
///   counters, the `smtsim.timeslice_committed` histogram, and the slice's
///   non-zero conflict counters as `smtsim.conflict_cycles.<resource>`.
///
/// Does nothing unless the handle records events (see
/// [`crate::runner::Runner::attach_telemetry`], which turns occupancy
/// sampling on for such handles).
pub fn trace_timeslice(tel: &Telemetry, stats: &TimesliceStats, cpu: &Processor) {
    if !tel.events_on() {
        return;
    }
    let base_cycle = tel.clock();
    tel.span_start("smtsim", "smtsim.timeslice", || {
        vec![
            Attr::num("threads", stats.threads.len() as f64),
            Attr::num("cycles", stats.cycles as f64),
        ]
    });
    for occ in cpu.occupancy() {
        tel.counter_sample_at(base_cycle + occ.cycle, "smtsim", "smtsim.occupancy", || {
            vec![
                Attr::num("decode", occ.decode as f64),
                Attr::num("int_queue", occ.int_queue as f64),
                Attr::num("fp_queue", occ.fp_queue as f64),
                Attr::num("int_regs", occ.int_regs_in_use as f64),
                Attr::num("fp_regs", occ.fp_regs_in_use as f64),
                Attr::num("inflight", occ.inflight as f64),
            ]
        });
    }
    tel.advance_clock(stats.cycles);
    tel.counter_add("smtsim.cycles", stats.cycles);
    tel.counter_add("smtsim.timeslices", 1);
    let committed = stats.total_committed();
    tel.counter_add("smtsim.committed", committed);
    tel.histogram_record("smtsim.timeslice_committed", committed);
    for r in Resource::ALL {
        let cycles = stats.conflicts.get(r);
        if cycles > 0 {
            tel.counter_add(&format!("smtsim.conflict_cycles.{r}"), cycles);
        }
    }
    tel.span_end("smtsim", "smtsim.timeslice");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_drops_everything() {
        let tel = Telemetry::off();
        tel.span_start("t", "a", Vec::new);
        tel.instant("t", "b", || unreachable!("attrs are not built when off"));
        tel.counter_add("c", 5);
        tel.histogram_record("h", 5);
        tel.advance_clock(100);
        assert!(!tel.is_on() && !tel.events_on());
        assert!(!tel.child("x").is_on());
        let snap = tel.drain();
        assert!(snap.events.is_empty());
        assert!(snap.metric_rows().is_empty());
        assert_eq!(tel.clock(), 0);
    }

    #[test]
    fn metrics_handle_records_metrics_but_no_events() {
        let tel = Telemetry::metrics();
        tel.instant("t", "a", || {
            unreachable!("attrs are not built without events")
        });
        tel.set_clock(9);
        tel.counter_add("c", 5);
        let snap = tel.drain();
        assert!(snap.events.is_empty());
        assert_eq!(snap.counters["c"], 5);
        assert_eq!(tel.clock(), 0);
    }

    #[test]
    fn tracing_handle_buffers_events_and_metrics() {
        let tel = Telemetry::tracing();
        tel.advance_clock(50);
        tel.span_start("track", "phase", || vec![Attr::text("k", "v")]);
        tel.advance_clock(25);
        tel.instant("track", "tick", || vec![Attr::num("n", 2.0)]);
        tel.span_end("track", "phase");
        tel.counter_add("jobs", 2);
        tel.counter_add("jobs", 3);
        tel.gauge_set("load", 0.75);
        tel.histogram_record("lat", 100);
        tel.histogram_record("lat", 3_000);

        let snap = tel.drain();
        assert_eq!(snap.now_cycles, 75);
        assert_eq!(snap.events.len(), 3);
        assert_eq!(snap.events[0].ts_cycles, 50);
        assert_eq!(snap.events[1].ts_cycles, 75);
        assert_eq!(snap.events[0].phase, EventPhase::SpanStart);
        assert_eq!(snap.events[2].phase, EventPhase::SpanEnd);

        let rows = snap.metric_rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(snap.counters["jobs"], 5);
        assert_eq!(snap.gauges["load"], 0.75);
        let h = rows[1].histogram.as_ref().unwrap();
        assert_eq!((h.count, h.sum), (2, 3_100));

        // Events are drained; metrics handles stay live.
        let again = tel.drain();
        assert!(again.events.is_empty());
        assert_eq!(again.counters["jobs"], 5);
    }

    #[test]
    fn counter_and_gauge_are_shared_atomic_handles() {
        let tel = Telemetry::metrics();
        let c = tel.counter("x");
        c.inc();
        tel.clone().counter("x").add(4);
        assert_eq!(tel.counter("x").get(), 5);
        c.raise_to(3);
        assert_eq!(c.get(), 5, "raise_to never lowers");
        c.raise_to(8);
        assert_eq!(c.get(), 8);
        tel.gauge("y").set(2.5);
        assert_eq!(tel.gauge("y").get(), 2.5);
    }

    #[test]
    fn child_shares_registry_but_owns_clock_buffer_and_track_prefix() {
        let root = Telemetry::tracing();
        root.set_clock(3);
        let a = root.child("cluster.shard0");
        let b = root.child("cluster.shard1");
        assert_eq!((a.clock(), a.prefix()), (3, Some("cluster.shard0")));
        assert_eq!(root.prefix(), None);
        b.set_clock(700);
        b.instant("opensys", "late", Vec::new);
        a.set_clock(40);
        a.instant("opensys", "early", Vec::new);
        root.set_clock(5);
        root.instant("cluster", "own", Vec::new);
        a.counter("n").inc();
        b.counter("n").inc();
        assert_eq!(root.counter("n").get(), 2);

        // Own events first, then children in creation order — regardless of
        // the order they were recorded in.
        let snap = root.drain();
        let seen: Vec<(&str, u64)> = snap
            .events
            .iter()
            .map(|e| (e.track.as_str(), e.ts_cycles))
            .collect();
        assert_eq!(
            seen,
            [
                ("cluster", 5),
                ("cluster.shard0/opensys", 40),
                ("cluster.shard1/opensys", 700)
            ]
        );
        assert!(a.drain().events.is_empty(), "the parent drained the child");
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[3], 2); // 4..8
        assert_eq!(h.buckets[4], 1); // 8..16
        assert_eq!(h.buckets[11], 1); // 1024..2048
        assert_eq!(h.count, 8);
        assert_eq!(Histogram::bucket_lower_bound(11), 1024);
        assert!(h.approx_quantile(0.0) <= h.approx_quantile(1.0));
    }

    #[test]
    fn histogram_percentile_summary() {
        let mut h = Histogram::default();
        for _ in 0..99 {
            h.record(100); // bucket lower bound 64
        }
        h.record(1 << 20);
        let p = h.percentile_summary();
        assert_eq!(p.p50, 64.0);
        assert_eq!(p.p95, 64.0);
        // The single outlier is the 100th value: p99 still lands in the
        // dense bucket, and the summary is monotone.
        assert!(p.p50 <= p.p95 && p.p95 <= p.p99);
        let empty = Histogram::default().percentile_summary();
        assert!(empty.p50.is_nan() && empty.p95.is_nan() && empty.p99.is_nan());
    }

    #[test]
    fn histogram_merge_adds_observations() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.record(10);
        b.record(100);
        b.record(1);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 111);
    }

    #[test]
    fn snapshot_round_trips_through_serde() {
        let tel = Telemetry::metrics();
        tel.counter("serve.requests.submit").add(7);
        tel.gauge("engine.queue_depth").set(3.0);
        tel.register_histogram("serve.response_cycles");
        tel.histogram_record("serve.response_cycles", 2_048);
        tel.histogram_record("serve.response_cycles", 4_096);
        let snap = tel.snapshot(250);

        let json = serde_json::to_string(&snap).unwrap();
        let back: Snapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.version, METRICS_VERSION);
        assert_eq!(back.counters["serve.requests.submit"], 7);
        assert_eq!(back.gauges["engine.queue_depth"], 3.0);
        let h = &back.histograms["serve.response_cycles"];
        assert_eq!((h.count, h.sum), (2, 6_144));
    }

    #[test]
    fn prometheus_exposition_has_expected_series() {
        let tel = Telemetry::metrics();
        tel.counter("serve.requests.submit").add(3);
        tel.gauge("engine.queue_depth").set(2.0);
        tel.register_histogram("serve.response_cycles");
        tel.histogram_record("serve.response_cycles", 3); // bucket [2,4) → le=4
        tel.histogram_record("serve.response_cycles", 100); // bucket [64,128) → le=128
        let text = tel.snapshot(0).prometheus_text();

        assert!(text.contains("# TYPE sos_serve_requests_submit counter"));
        assert!(text.contains("sos_serve_requests_submit 3"));
        assert!(text.contains("sos_engine_queue_depth 2"));
        assert!(text.contains("# TYPE sos_serve_response_cycles histogram"));
        assert!(text.contains("sos_serve_response_cycles_bucket{le=\"4\"} 1"));
        // Buckets are cumulative.
        assert!(text.contains("sos_serve_response_cycles_bucket{le=\"128\"} 2"));
        assert!(text.contains("sos_serve_response_cycles_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("sos_serve_response_cycles_sum 103"));
        assert!(text.contains("sos_serve_response_cycles_count 2"));
        // Every non-comment line is "name[{labels}] value".
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (series, value) = line.rsplit_once(' ').unwrap();
            assert!(!series.is_empty(), "bad exposition line {line:?}");
            assert!(
                value.parse::<f64>().is_ok() || matches!(value, "NaN" | "+Inf" | "-Inf"),
                "bad exposition value in {line:?}"
            );
        }
    }

    /// Parses a Prometheus exposition into `series → value` text.
    fn prom_series(text: &str) -> BTreeMap<&str, &str> {
        text.lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| l.rsplit_once(' ').expect("series and value"))
            .collect()
    }

    #[test]
    fn both_exporters_carry_the_same_names_and_values() {
        let tel = Telemetry::tracing();
        tel.counter("a.count").add(2);
        tel.counter("a.zero");
        tel.gauge("g.plain").set(1.5);
        tel.gauge("g.nan").set(f64::NAN);
        tel.gauge("g.inf").set(f64::INFINITY);
        tel.gauge("g.ninf").set(f64::NEG_INFINITY);
        tel.register_histogram("h.empty");
        for v in [0, 3, 3, 100, 5_000] {
            tel.histogram_record("h.full", v);
        }
        let snap = tel.drain();
        let text = snap.prometheus_text();
        let prom = prom_series(&text);
        let rows = snap.metric_rows();
        assert_eq!(rows.len(), 8);

        let mut prom_names: Vec<String> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .map(|l| l.split(' ').next().unwrap().to_string())
            .collect();
        prom_names.sort();
        let mut row_names: Vec<String> = rows.iter().map(|m| prometheus_name(&m.name)).collect();
        row_names.sort();
        assert_eq!(prom_names, row_names, "one exposition family per JSONL row");

        for m in &rows {
            let p = prometheus_name(&m.name);
            match m.kind {
                MetricKind::Counter => {
                    assert_eq!(prom[p.as_str()], m.counter.unwrap().to_string());
                }
                MetricKind::Gauge => {
                    let g = m.gauge.unwrap();
                    let shown = prom[p.as_str()];
                    match m.name.as_str() {
                        "g.nan" => assert!(g.is_nan() && shown == "NaN"),
                        "g.inf" => assert!(g == f64::INFINITY && shown == "+Inf"),
                        "g.ninf" => assert!(g == f64::NEG_INFINITY && shown == "-Inf"),
                        _ => assert_eq!(shown.parse::<f64>().unwrap(), g),
                    }
                }
                MetricKind::Histogram => {
                    let h = m.histogram.as_ref().unwrap();
                    assert_eq!(prom[format!("{p}_count").as_str()], h.count.to_string());
                    assert_eq!(prom[format!("{p}_sum").as_str()], h.sum.to_string());
                    // The row's non-empty buckets, as (exclusive upper bound,
                    // cumulative count), are exactly the `le` series.
                    let bucket = format!("{p}_bucket{{le=\"");
                    let mut from_prom: Vec<(u64, u64)> = prom
                        .iter()
                        .filter_map(|(s, v)| Some((s.strip_prefix(&bucket)?, v)))
                        .filter_map(|(s, v)| Some((s.strip_suffix("\"}")?.parse().ok()?, v)))
                        .map(|(le, v)| (le, v.parse().unwrap()))
                        .collect();
                    from_prom.sort_unstable();
                    let mut seen = 0u64;
                    let from_rows: Vec<(u64, u64)> = (h.buckets.iter().enumerate())
                        .filter(|(_, &c)| c > 0)
                        .map(|(i, &c)| {
                            seen += c;
                            let lo = Histogram::bucket_lower_bound(i);
                            (if lo == 0 { 1 } else { lo * 2 }, seen)
                        })
                        .collect();
                    assert_eq!(from_prom, from_rows, "{}", m.name);
                    assert_eq!(
                        prom[format!("{p}_bucket{{le=\"+Inf\"}}").as_str()],
                        h.count.to_string()
                    );
                }
            }
        }
        // An empty histogram renders as the +Inf bucket, sum and count only,
        // and as an all-zero row.
        assert_eq!(
            text.lines().filter(|l| l.contains("sos_h_empty")).count(),
            4
        );
        let empty = rows.iter().find(|m| m.name == "h.empty").unwrap();
        assert_eq!(empty.histogram, Some(Histogram::default()));
        // The rows serialize in the JSONL line format and parse back.
        for line in snap.metrics_jsonl().lines() {
            let back: Metric = serde_json::from_str(line).unwrap();
            assert!(rows
                .iter()
                .any(|m| m.name == back.name && m.kind == back.kind));
        }
    }

    #[test]
    fn span_guard_closes_on_drop() {
        let tel = Telemetry::tracing();
        {
            let _g = tel.span("scheduler", "outer", Vec::new);
            tel.instant("scheduler", "mid", Vec::new);
        }
        let phases: Vec<EventPhase> = tel.drain().events.iter().map(|e| e.phase).collect();
        assert_eq!(
            phases,
            vec![
                EventPhase::SpanStart,
                EventPhase::Instant,
                EventPhase::SpanEnd
            ]
        );
    }

    #[test]
    fn chrome_trace_has_expected_shape() {
        let event = |ts_cycles, phase, track: &str, name: &str, attrs| Event {
            ts_cycles,
            phase,
            track: track.into(),
            name: name.into(),
            attrs,
        };
        let events = vec![
            event(
                1_000,
                EventPhase::SpanStart,
                "scheduler",
                "phase",
                vec![Attr::text("spec", "Jsb(6,3,3)")],
            ),
            event(
                1_500,
                EventPhase::Counter,
                "smtsim",
                "occupancy",
                vec![Attr::num("int_queue", 12.0)],
            ),
            event(2_000, EventPhase::SpanEnd, "scheduler", "phase", vec![]),
        ];
        let value = chrome_trace_value(&events);
        let trace_events = value.get("traceEvents").unwrap().as_array().unwrap();
        // 2 thread_name metadata + 3 events.
        assert_eq!(trace_events.len(), 5);
        let get = |v: &serde::Value, k: &str| v.get(k).cloned().unwrap();
        // Metadata first.
        assert_eq!(get(&trace_events[0], "ph").as_str(), Some("M"));
        // Span start: ph B, ts in µs at 500 cycles/µs.
        let b = &trace_events[2];
        assert_eq!(get(b, "ph").as_str(), Some("B"));
        assert_eq!(get(b, "ts").as_f64(), Some(2.0));
        // Tracks map to distinct tids.
        assert_ne!(
            get(&trace_events[2], "tid").as_u64(),
            get(&trace_events[3], "tid").as_u64()
        );
    }

    #[test]
    fn trace_timeslice_bridges_pipeline_counters() {
        use smtsim::pipeline::OCCUPANCY_INTERVAL;
        use smtsim::MachineConfig;

        struct Alu {
            pc: u64,
        }
        impl smtsim::trace::InstructionSource for Alu {
            fn next_instr(&mut self) -> smtsim::Fetch {
                self.pc += 4;
                smtsim::Fetch::Instr(smtsim::Instr::int_alu(self.pc, 0))
            }
            fn id(&self) -> smtsim::StreamId {
                smtsim::StreamId(0)
            }
        }

        let tel = Telemetry::tracing();
        let mut p = Processor::new(MachineConfig::alpha21264_like(2));
        p.sample_occupancy(true);
        let mut job = Alu { pc: 0 };
        for _ in 0..2 {
            let stats = p.run_timeslice(&mut [&mut job], 2_000);
            trace_timeslice(&tel, &stats, &p);
        }
        let snap = tel.drain();

        assert_eq!(tel.clock(), 4_000);
        // Second timeslice's span starts at the advanced clock.
        let start_ts: Vec<u64> = snap
            .events
            .iter()
            .filter(|e| e.name == "smtsim.timeslice" && e.phase == EventPhase::SpanStart)
            .map(|e| e.ts_cycles)
            .collect();
        assert_eq!(start_ts, vec![0, 2_000]);
        // Occupancy counter samples at cycles 0, 64, ... of each slice,
        // stamped inside it.
        let occ: Vec<u64> = snap
            .events
            .iter()
            .filter(|e| e.name == "smtsim.occupancy")
            .map(|e| e.ts_cycles)
            .collect();
        let per_slice = 2_000u64.div_ceil(OCCUPANCY_INTERVAL);
        assert_eq!(occ.len() as u64, 2 * per_slice);
        assert_eq!(occ[per_slice as usize], 2_000);
        assert_eq!(snap.counters["smtsim.cycles"], 4_000);
    }
}

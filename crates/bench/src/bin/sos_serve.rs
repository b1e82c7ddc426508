//! `sos-serve` — a long-running online job-scheduling daemon.
//!
//! Accepts job submissions over a local TCP socket (JSON lines; see
//! `sos_bench::serve` for the protocol) and schedules them on a simulated
//! SMT machine through `sos_core::online::OnlineEngine`, under either the
//! naive arrival-order policy or SOS with live resampling. The daemon is
//! the serving-layer counterpart of the batch §9 reproduction (`fig5`,
//! `fig6`): same engine, driven by wire events instead of a pre-generated
//! trace.
//!
//! Service behaviour:
//! * **Admission control** — at most `--queue-cap` jobs in the system;
//!   excess submissions get an explicit `backpressure` error reply.
//! * **Graceful drain** — `drain`/`shutdown` stop admission and complete
//!   every in-flight job before replying / exiting 0.
//! * **Snapshot/restore** — scheduler accounting is written atomically to
//!   `<snapshot-dir>/snapshot.json` every `--snapshot-every` completions
//!   and on shutdown; on restart, completed-job accounting is restored
//!   exactly and in-flight jobs are re-queued from their arrival records.
//! * **Live metrics** — every request, error, departure, and engine
//!   timeslice feeds one `sos_core::telemetry::Telemetry` handle; the `metrics` verb
//!   returns the versioned snapshot plus a Prometheus text exposition, and
//!   the `stats` verb reports exact and histogram-approximated p50/p95/p99
//!   along with per-class protocol error counts.
//! * **Latency SLOs** — per-job response time and slowdown are tracked
//!   against `--slo-response` / `--slo-slowdown` at `--slo-objective`,
//!   with attainment and error-budget burn rate in the `metrics` snapshot.
//! * **Request-scoped tracing** — with `--trace FILE` or `--metrics FILE`
//!   the handle also records events: every job's life (admit → queue wait →
//!   schedule decision → timeslices → complete) as Perfetto-compatible
//!   spans, written as a Chrome trace (`--trace`) and/or as JSONL events
//!   plus metric rows (`--metrics`) at shutdown.
//!
//! * **Fast simulation** — `--fast` (optionally `--fast-threshold F`)
//!   starts the engine with phase-aware sampled fast simulation; the
//!   `fastsim` verb toggles it at runtime, and `status` echoes the active
//!   policy plus the extrapolated-timeslice count.
//!
//! * **Learned prediction** — `--predictor learned|bandit` (any
//!   `PredictorKind` name is accepted) runs the SOS optimize phase on the
//!   `sos_core::learn` online model; the learner's state rides in the
//!   snapshot so restarts keep the trained model, and its counters surface
//!   under `learn.*` in the `metrics` verb.
//!
//! Usage: `sos-serve [--port P] [--policy sos|naive] [--smt N]
//! [--queue-cap N] [--timeslice C] [--predictor NAME] [--snapshot-dir DIR]
//! [--snapshot-every N] [--seed S] [--fast] [--fast-threshold F]
//! [--metrics FILE] [--trace FILE]
//! [--slo-response CYCLES] [--slo-slowdown X] [--slo-objective F]
//! [--metrics-window CYCLES]`
//!
//! The daemon prints `sos-serve listening on ADDR` once ready (with
//! `--port 0` the OS picks the port; parse it from this line).

use smtsim::FastSimPolicy;
use sos_bench::serve::{
    CompletedJob, MetricsReply, Request, Response, Snapshot, StatsReply, StatusReply,
};
use sos_core::online::{OnlineConfig, OnlineEngine, SchedulerKind};
use sos_core::opensys::{calibrate_benchmarks, JobArrival, JOB_KINDS};
use sos_core::report::{percentiles, Percentiles};
use sos_core::telemetry::{Counter, Gauge, Telemetry};
use sos_core::PredictorKind;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::spec::Benchmark;

/// The protocol verbs with per-verb request counters and latency series.
const VERBS: [&str; 7] = [
    "submit", "status", "stats", "metrics", "fastsim", "drain", "shutdown",
];

struct Args {
    port: u16,
    policy: SchedulerKind,
    smt: usize,
    timeslice: u64,
    queue_cap: usize,
    predictor: PredictorKind,
    sample_schedules: usize,
    base_interval: u64,
    calibration_cycles: u64,
    seed: u64,
    fastsim: Option<FastSimPolicy>,
    snapshot_dir: PathBuf,
    snapshot_every: u64,
    metrics: Option<PathBuf>,
    trace: Option<PathBuf>,
    slo_response: u64,
    slo_slowdown: f64,
    slo_objective: f64,
    metrics_window: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            port: 7077,
            policy: SchedulerKind::Sos,
            smt: 4,
            timeslice: 5_000,
            queue_cap: 64,
            predictor: PredictorKind::Ipc,
            sample_schedules: 6,
            base_interval: 500_000,
            calibration_cycles: 60_000,
            seed: 0x5E54E,
            fastsim: None,
            snapshot_dir: PathBuf::from("results/serve"),
            snapshot_every: 16,
            metrics: None,
            trace: None,
            slo_response: 2_000_000,
            slo_slowdown: 8.0,
            slo_objective: 0.95,
            metrics_window: 1_000_000,
        }
    }
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let (mut fast, mut fast_threshold) = (false, None);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--port" => args.port = num(&value("--port")?, "--port")?,
            "--policy" => {
                let v = value("--policy")?;
                args.policy = SchedulerKind::parse(&v)
                    .ok_or_else(|| format!("unknown policy {v:?} (naive|sos)"))?;
            }
            "--smt" => args.smt = num(&value("--smt")?, "--smt")?,
            "--timeslice" => args.timeslice = num(&value("--timeslice")?, "--timeslice")?,
            "--queue-cap" => args.queue_cap = num(&value("--queue-cap")?, "--queue-cap")?,
            "--predictor" => {
                let v = value("--predictor")?;
                args.predictor = PredictorKind::parse(&v).ok_or_else(|| {
                    format!(
                        "unknown predictor {v:?} (one of {})",
                        PredictorKind::names()
                    )
                })?;
            }
            "--sample-schedules" => {
                args.sample_schedules = num(&value("--sample-schedules")?, "--sample-schedules")?
            }
            "--base-interval" => {
                args.base_interval = num(&value("--base-interval")?, "--base-interval")?
            }
            "--calibration-cycles" => {
                args.calibration_cycles =
                    num(&value("--calibration-cycles")?, "--calibration-cycles")?
            }
            "--seed" => args.seed = num(&value("--seed")?, "--seed")?,
            "--fast" => fast = true,
            "--fast-threshold" => {
                fast_threshold = Some(num(&value("--fast-threshold")?, "--fast-threshold")?)
            }
            "--snapshot-dir" => args.snapshot_dir = PathBuf::from(value("--snapshot-dir")?),
            "--snapshot-every" => {
                args.snapshot_every = num(&value("--snapshot-every")?, "--snapshot-every")?
            }
            "--metrics" => args.metrics = Some(PathBuf::from(value("--metrics")?)),
            "--trace" => args.trace = Some(PathBuf::from(value("--trace")?)),
            "--slo-response" => {
                args.slo_response = num(&value("--slo-response")?, "--slo-response")?
            }
            "--slo-slowdown" => {
                args.slo_slowdown = num(&value("--slo-slowdown")?, "--slo-slowdown")?
            }
            "--slo-objective" => {
                args.slo_objective = num(&value("--slo-objective")?, "--slo-objective")?
            }
            "--metrics-window" => {
                args.metrics_window = num(&value("--metrics-window")?, "--metrics-window")?
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.smt == 0 || args.timeslice == 0 || args.queue_cap == 0 {
        return Err("--smt, --timeslice, and --queue-cap must be positive".into());
    }
    // Each `_ok` is false for NaN too, which `<=`-style rejections let through.
    let objective_ok = args.slo_objective > 0.0 && args.slo_objective <= 1.0;
    if !objective_ok {
        return Err("--slo-objective must be in (0, 1]".into());
    }
    let slowdown_ok = args.slo_slowdown > 0.0;
    if !slowdown_ok || args.slo_response == 0 || args.metrics_window == 0 {
        return Err("--slo-response, --slo-slowdown, and --metrics-window must be positive".into());
    }
    args.fastsim = sos_bench::fastsim_policy(fast, fast_threshold)?;
    Ok(args)
}

fn num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad value {s:?} for {flag}"))
}

/// One request routed from a connection thread to the scheduler thread.
struct Msg {
    req: Request,
    reply: mpsc::Sender<Response>,
}

/// Counter/gauge handles for the serve loop, resolved once at startup so
/// the per-request and per-departure cost is a relaxed atomic write.
struct ServeMetrics {
    submitted: Arc<Counter>,
    completed: Arc<Counter>,
    rejected: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    snapshot_age: Arc<Gauge>,
    snapshot_write_us: Arc<Gauge>,
    cache_hits: Arc<Gauge>,
    cache_misses: Arc<Gauge>,
    err_unparsable: Arc<Counter>,
    err_unknown_cmd: Arc<Counter>,
    err_bad_submit: Arc<Counter>,
    err_backpressure: Arc<Counter>,
    err_draining: Arc<Counter>,
}

impl ServeMetrics {
    fn register(tel: &Telemetry) -> Self {
        ServeMetrics {
            submitted: tel.counter("serve.submitted"),
            completed: tel.counter("serve.completed"),
            rejected: tel.counter("serve.rejected"),
            queue_depth: tel.gauge("serve.queue_depth"),
            snapshot_age: tel.gauge("serve.snapshot_age_cycles"),
            snapshot_write_us: tel.gauge("serve.snapshot_write_us"),
            cache_hits: tel.gauge("serve.cache_hits"),
            cache_misses: tel.gauge("serve.cache_misses"),
            err_unparsable: tel.counter("serve.errors.unparsable"),
            err_unknown_cmd: tel.counter("serve.errors.unknown_cmd"),
            err_bad_submit: tel.counter("serve.errors.bad_submit"),
            err_backpressure: tel.counter("serve.errors.backpressure"),
            err_draining: tel.counter("serve.errors.draining"),
        }
    }

    /// The error counters by wire-visible class name, for the `stats` verb.
    fn error_classes(&self) -> BTreeMap<String, u64> {
        [
            ("unparsable", &self.err_unparsable),
            ("unknown_cmd", &self.err_unknown_cmd),
            ("bad_submit", &self.err_bad_submit),
            ("backpressure", &self.err_backpressure),
            ("draining", &self.err_draining),
        ]
        .into_iter()
        .map(|(k, c)| (k.to_string(), c.get()))
        .collect()
    }
}

/// The scheduler thread's full state.
struct Daemon {
    engine: OnlineEngine,
    solo: HashMap<Benchmark, f64>,
    tel: Telemetry,
    sm: ServeMetrics,
    queue_cap: usize,
    draining: bool,
    shutdown: bool,
    drain_waiters: Vec<mpsc::Sender<Response>>,
    completed: Vec<CompletedJob>,
    restored: u64,
    rejected: u64,
    /// Jobs accounted in the restored snapshot but not resubmitted to this
    /// process's engine (so `submitted_base + engine.submitted()` is the
    /// lifetime total across restarts).
    submitted_base: u64,
    snapshot_dir: PathBuf,
    snapshot_every: u64,
    since_snapshot: u64,
    last_snapshot_cycles: u64,
    metrics: Option<PathBuf>,
    trace: Option<PathBuf>,
}

impl Daemon {
    fn policy(&self) -> &'static str {
        self.engine.kind().name()
    }

    fn solo_ipc(&self, bench: Benchmark) -> f64 {
        self.solo.get(&bench).copied().unwrap_or(1.0).max(1e-6)
    }

    fn handle(&mut self, msg: Msg) {
        let start = Instant::now();
        let verb = VERBS
            .iter()
            .copied()
            .find(|v| *v == msg.req.cmd)
            .unwrap_or("unknown");
        self.tel.counter_add(&format!("serve.requests.{verb}"), 1);
        let reply = match msg.req.cmd.as_str() {
            "submit" => Some(self.handle_submit(&msg.req)),
            "status" => Some(self.handle_status()),
            "stats" => Some(self.handle_stats()),
            "metrics" => Some(self.handle_metrics()),
            "fastsim" => Some(self.handle_fastsim(&msg.req)),
            "drain" | "shutdown" => {
                self.draining = true;
                if msg.req.cmd == "shutdown" {
                    self.shutdown = true;
                }
                if self.engine.live_count() == 0 {
                    Some(Response::ok())
                } else {
                    // Deferred: answered when the last in-flight job departs.
                    self.drain_waiters.push(msg.reply.clone());
                    None
                }
            }
            other => {
                self.sm.err_unknown_cmd.inc();
                Some(Response::err(format!(
                    "unknown cmd {other:?} (submit|status|stats|metrics|fastsim|drain|shutdown)"
                )))
            }
        };
        if verb != "unknown" {
            self.tel.histogram_record(
                &format!("serve.request_us.{verb}"),
                self.engine.now(),
                start.elapsed().as_micros() as u64,
            );
        }
        if let Some(reply) = reply {
            let _ = msg.reply.send(reply);
        }
    }

    fn handle_submit(&mut self, req: &Request) -> Response {
        if self.draining {
            self.sm.err_draining.inc();
            return Response::err("draining");
        }
        if self.engine.live_count() >= self.queue_cap {
            self.rejected += 1;
            self.sm.rejected.inc();
            self.sm.err_backpressure.inc();
            return Response::err("backpressure");
        }
        let Some(name) = req.bench.as_deref() else {
            self.sm.err_bad_submit.inc();
            return Response::err("submit requires a bench field");
        };
        let Some(benchmark) = JOB_KINDS
            .iter()
            .copied()
            .find(|b| b.name().eq_ignore_ascii_case(name))
        else {
            self.sm.err_bad_submit.inc();
            let known: Vec<&str> = JOB_KINDS.iter().map(|b| b.name()).collect();
            return Response::err(format!("unknown bench {name:?} (one of {known:?})"));
        };
        let instructions = match (req.instructions, req.cycles) {
            (Some(i), _) => i,
            (None, Some(c)) => ((c as f64 * self.solo_ipc(benchmark)) as u64).max(1_000),
            (None, None) => {
                self.sm.err_bad_submit.inc();
                return Response::err("submit requires cycles or instructions");
            }
        };
        if instructions == 0 {
            self.sm.err_bad_submit.inc();
            return Response::err("job length must be positive");
        }
        let arrival = JobArrival {
            arrival: self.engine.now(),
            benchmark,
            instructions,
            phased: req.phased.unwrap_or(false),
        };
        let key = self.engine.submit(arrival);
        self.sm.submitted.inc();
        self.sm.queue_depth.set(self.engine.live_count() as f64);
        let mut r = Response::ok();
        r.id = Some(self.submitted_base + key as u64);
        r
    }

    fn handle_status(&mut self) -> Response {
        let mut r = Response::ok();
        r.status = Some(StatusReply {
            policy: self.policy().to_string(),
            smt: self.engine.config().smt as u64,
            live: self.engine.live_count() as u64,
            queue_cap: self.queue_cap as u64,
            submitted: self.submitted_base + self.engine.submitted() as u64,
            completed: self.completed.len() as u64,
            rejected: self.rejected,
            now_cycles: self.engine.now(),
            draining: self.draining,
            restored: self.restored,
            fastsim: self.engine.fastsim_policy().map(|p| p.describe()),
            extrapolated_slices: self
                .engine
                .fastsim_counters()
                .map(|c| c.extrapolated_slices),
        });
        r
    }

    /// Answers the `fastsim` verb: switches phase-aware sampled fast
    /// simulation on or off at runtime and echoes the new status. Detailed
    /// re-sampling restarts from scratch after every toggle (phase state is
    /// rebuilt, never carried across policies).
    fn handle_fastsim(&mut self, req: &Request) -> Response {
        // An explicit `fast: false` switches off whatever else is sent.
        let policy = match req.fast {
            Some(false) => Ok(None),
            _ => sos_bench::fastsim_policy(true, req.fast_threshold),
        };
        match policy {
            Ok(policy) => self.engine.set_fastsim(policy),
            Err(e) => return Response::err(e),
        }
        self.handle_status()
    }

    fn handle_stats(&mut self) -> Response {
        let responses: Vec<f64> = self.completed.iter().map(|c| c.response as f64).collect();
        let slowdowns: Vec<f64> = self.completed.iter().map(|c| c.slowdown).collect();
        let mean = |v: &[f64]| {
            if v.is_empty() {
                f64::NAN
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let response_approx = self
            .tel
            .with_histogram("serve.response_cycles", |h| h.merged().percentile_summary())
            .unwrap_or(Percentiles {
                p50: f64::NAN,
                p95: f64::NAN,
                p99: f64::NAN,
            });
        let cache = sos_core::cache::stats();
        let mut r = Response::ok();
        r.stats = Some(StatsReply {
            completed: self.completed.len() as u64,
            mean_response: mean(&responses),
            response: percentiles(&responses),
            mean_slowdown: mean(&slowdowns),
            slowdown: percentiles(&slowdowns),
            response_approx,
            resamples: self.engine.resamples(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            errors: Some(self.sm.error_classes()),
        });
        r
    }

    /// Answers the `metrics` verb: refresh the point-in-time gauges, then
    /// snapshot the hub as versioned JSON plus a Prometheus exposition.
    fn handle_metrics(&mut self) -> Response {
        self.refresh_gauges();
        let snapshot = self.tel.snapshot(self.engine.now());
        let prometheus = snapshot.prometheus_text();
        let mut r = Response::ok();
        r.metrics = Some(Box::new(MetricsReply {
            snapshot,
            prometheus,
        }));
        r
    }

    /// Updates gauges that are sampled (not event-driven): queue depth,
    /// snapshot age, evaluation-cache hit/miss totals.
    fn refresh_gauges(&self) {
        self.sm.queue_depth.set(self.engine.live_count() as f64);
        self.sm
            .snapshot_age
            .set(self.engine.now().saturating_sub(self.last_snapshot_cycles) as f64);
        let cache = sos_core::cache::stats();
        self.sm.cache_hits.set(cache.hits as f64);
        self.sm.cache_misses.set(cache.misses as f64);
    }

    /// Books a batch of departures: SLO accounting, hub metrics, periodic
    /// snapshot, drain notifications.
    fn after_step(&mut self, departed: Vec<sos_core::online::JobRecord>) {
        let n = departed.len() as u64;
        let now = self.engine.now();
        for rec in departed {
            let response = rec.response();
            let service = rec.arrival.instructions as f64 / self.solo_ipc(rec.arrival.benchmark);
            let slowdown = if service > 0.0 {
                response as f64 / service
            } else {
                f64::NAN
            };
            self.sm.completed.inc();
            self.tel
                .histogram_record("serve.response_cycles", now, response);
            self.tel.observe_slo("serve.response_cycles", response);
            if slowdown.is_finite() {
                let x100 = (slowdown * 100.0) as u64;
                self.tel.histogram_record("serve.slowdown_x100", now, x100);
                self.tel.observe_slo("serve.slowdown_x100", x100);
            }
            self.completed.push(CompletedJob {
                arrival: rec.arrival.arrival,
                response,
                slowdown,
            });
        }
        if n == 0 {
            return;
        }
        self.sm.queue_depth.set(self.engine.live_count() as f64);
        self.since_snapshot += n;
        if self.since_snapshot >= self.snapshot_every {
            self.write_snapshot();
        }
        if self.engine.live_count() == 0 && self.draining {
            for w in self.drain_waiters.drain(..) {
                let _ = w.send(Response::ok());
            }
        }
    }

    fn write_snapshot(&mut self) {
        self.since_snapshot = 0;
        let started = Instant::now();
        let snap = Snapshot {
            version: sos_bench::serve::SNAPSHOT_VERSION,
            policy: self.policy().to_string(),
            smt: self.engine.config().smt as u64,
            seed: self.engine.config().seed,
            now_cycles: self.engine.now(),
            submitted: self.submitted_base + self.engine.submitted() as u64,
            rejected: self.rejected,
            completed: self.completed.clone(),
            inflight: self.engine.live_arrivals(),
            learner: self.engine.learner().cloned(),
        };
        if let Err(e) = snap.store(&self.snapshot_dir) {
            eprintln!(
                "sos-serve: snapshot to {} failed: {e} (continuing without persistence)",
                self.snapshot_dir.display()
            );
        } else {
            self.last_snapshot_cycles = self.engine.now();
            self.sm.snapshot_age.set(0.0);
            self.sm
                .snapshot_write_us
                .set(started.elapsed().as_micros() as f64);
        }
    }

    /// Writes end-of-life telemetry from one drained snapshot: the Chrome
    /// trace of request spans to `--trace`, and the events plus every metric
    /// row as JSONL appended to `--metrics`.
    fn export_telemetry(&mut self) {
        if self.metrics.is_none() && self.trace.is_none() {
            return;
        }
        self.refresh_gauges();
        self.tel.set_clock(self.engine.now());
        let snap = self.tel.drain();
        if let Some(path) = &self.trace {
            if let Err(e) = std::fs::write(path, snap.chrome_trace_json()) {
                eprintln!("sos-serve: trace export to {} failed: {e}", path.display());
            }
        }
        if let Some(path) = &self.metrics {
            let out = snap.events_jsonl() + &snap.metrics_jsonl();
            let res = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| f.write_all(out.as_bytes()));
            if let Err(e) = res {
                eprintln!(
                    "sos-serve: metrics export to {} failed: {e}",
                    path.display()
                );
            }
        }
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sos-serve: {e}");
            std::process::exit(2);
        }
    };
    sos_bench::init_cache();
    eprintln!(
        "# sos-serve: calibrating {} benchmarks at SMT {} ...",
        JOB_KINDS.len(),
        args.smt
    );
    let solo = calibrate_benchmarks(args.smt, args.calibration_cycles, args.seed);

    // The daemon always serves metrics; an export file additionally turns
    // on the event stream it is written from.
    let tel = if args.metrics.is_some() || args.trace.is_some() {
        Telemetry::tracing()
    } else {
        Telemetry::metrics()
    };
    for verb in VERBS {
        // Created at zero so the exposition lists every verb from the start.
        tel.counter(&format!("serve.requests.{verb}"));
        tel.register_histogram(&format!("serve.request_us.{verb}"), args.metrics_window, 8);
    }
    tel.register_histogram("serve.response_cycles", args.metrics_window, 8);
    tel.register_histogram("serve.slowdown_x100", args.metrics_window, 8);
    tel.register_slo(
        "serve.response_cycles",
        args.slo_response,
        args.slo_objective,
    );
    tel.register_slo(
        "serve.slowdown_x100",
        (args.slo_slowdown * 100.0).round() as u64,
        args.slo_objective,
    );
    let sm = ServeMetrics::register(&tel);

    let cfg = OnlineConfig {
        smt: args.smt,
        timeslice: args.timeslice,
        sample_schedules: args.sample_schedules,
        predictor: args.predictor,
        drift_threshold: Some(0.35),
        base_interval: args.base_interval,
        seed: args.seed,
        fastsim: args.fastsim,
        learn: None,
    };
    if let Some(p) = &cfg.fastsim {
        eprintln!("# sos-serve: fastsim on ({})", p.describe());
    }
    let mut engine = OnlineEngine::new(args.policy, &cfg);
    engine.set_telemetry(tel.clone());
    if cfg.effective_learn().is_some() {
        eprintln!(
            "# sos-serve: learned prediction on ({})",
            args.predictor.name()
        );
    }

    // Restore the latest snapshot, if one matches this configuration.
    let mut daemon_completed = Vec::new();
    let mut restored = 0u64;
    let mut rejected = 0u64;
    let mut submitted_base = 0u64;
    if let Some(snap) = Snapshot::load(&args.snapshot_dir) {
        if snap.policy == args.policy.name() && snap.smt == args.smt as u64 {
            engine.jump_to(snap.now_cycles);
            restored = snap.completed.len() as u64;
            rejected = snap.rejected;
            submitted_base = snap.submitted.saturating_sub(snap.inflight.len() as u64);
            daemon_completed = snap.completed;
            let inflight = snap.inflight.len();
            for job in snap.inflight {
                engine.submit(job);
            }
            // Restore the model only when this run is actually learning —
            // a fixed-predictor restart ignores a stale learner rather
            // than silently turning shadow training back on.
            let learned = match snap.learner {
                Some(learner) if cfg.effective_learn().is_some() => {
                    engine.restore_learner(learner);
                    ", learner restored"
                }
                _ => "",
            };
            eprintln!(
                "# sos-serve: restored snapshot ({restored} completed, {inflight} in-flight re-queued{learned})"
            );
        } else {
            eprintln!(
                "# sos-serve: ignoring snapshot for policy={} smt={} (running policy={} smt={})",
                snap.policy,
                snap.smt,
                args.policy.name(),
                args.smt
            );
        }
    }

    let err_unparsable = sm.err_unparsable.clone();
    let mut daemon = Daemon {
        engine,
        solo,
        tel,
        sm,
        queue_cap: args.queue_cap,
        draining: false,
        shutdown: false,
        drain_waiters: Vec::new(),
        completed: daemon_completed,
        restored,
        rejected,
        submitted_base,
        snapshot_dir: args.snapshot_dir.clone(),
        snapshot_every: args.snapshot_every.max(1),
        since_snapshot: 0,
        last_snapshot_cycles: 0,
        metrics: args.metrics.clone(),
        trace: args.trace.clone(),
    };

    let listener = match TcpListener::bind(("127.0.0.1", args.port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("sos-serve: cannot bind 127.0.0.1:{}: {e}", args.port);
            std::process::exit(2);
        }
    };
    let addr = listener.local_addr().expect("bound socket has an address");
    println!("sos-serve listening on {addr}");
    let _ = std::io::stdout().flush();

    let (tx, rx) = mpsc::channel::<Msg>();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            match conn {
                Ok(stream) => {
                    let tx = tx.clone();
                    let unparsable = err_unparsable.clone();
                    std::thread::spawn(move || serve_connection(stream, tx, unparsable));
                }
                Err(e) => eprintln!("sos-serve: accept failed: {e}"),
            }
        }
    });

    // The scheduler loop: drain control messages, then either run one
    // timeslice or block briefly waiting for work.
    loop {
        loop {
            match rx.try_recv() {
                Ok(msg) => daemon.handle(msg),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => break,
            }
        }
        if daemon.shutdown && daemon.engine.live_count() == 0 {
            break;
        }
        if daemon.engine.live_count() > 0 {
            let departed = daemon.engine.step();
            daemon.after_step(departed);
        } else {
            match rx.recv_timeout(Duration::from_millis(25)) {
                Ok(msg) => daemon.handle(msg),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
    }

    daemon.write_snapshot();
    daemon.export_telemetry();
    sos_bench::print_cache_stats();
    eprintln!(
        "# sos-serve: shutdown after {} completed jobs at cycle {}",
        daemon.completed.len(),
        daemon.engine.now()
    );
    // Give connection threads a beat to flush the shutdown reply before the
    // process (and its sockets) go away.
    std::thread::sleep(Duration::from_millis(200));
    std::process::exit(0);
}

/// Reads JSON-line requests off one connection, routing well-formed ones to
/// the scheduler thread and answering malformed ones directly with a
/// diagnostic error reply (counted under `serve.errors.unparsable`).
fn serve_connection(stream: TcpStream, tx: mpsc::Sender<Msg>, unparsable: Arc<Counter>) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".into());
    let reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sos-serve: cannot clone stream for {peer}: {e}");
            return;
        }
    });
    // Replies are one small segment each; without this every round trip
    // waits out Nagle and the client's delayed ACK.
    if let Err(e) = stream.set_nodelay(true) {
        eprintln!("sos-serve: cannot set TCP_NODELAY for {peer}: {e}");
    }
    let mut writer = stream;
    for line in reader.lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break, // client went away
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = match serde_json::from_str::<Request>(&line) {
            Err(e) => {
                unparsable.inc();
                Response::err(format!("unparsable request: {e}"))
            }
            Ok(req) => {
                let (rtx, rrx) = mpsc::channel();
                if tx.send(Msg { req, reply: rtx }).is_err() {
                    break; // scheduler is gone; daemon is exiting
                }
                match rrx.recv() {
                    Ok(r) => r,
                    Err(_) => break,
                }
            }
        };
        let mut json = match serde_json::to_string(&response) {
            Ok(j) => j,
            Err(e) => format!("{{\"ok\":false,\"error\":\"reply serialization: {e}\"}}"),
        };
        json.push('\n');
        if writer
            .write_all(json.as_bytes())
            .and_then(|_| writer.flush())
            .is_err()
        {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn slo_objective_must_be_a_fraction_in_zero_one() {
        for bad in ["NaN", "0", "-0.5", "1.5", "inf"] {
            assert!(parse(&["--slo-objective", bad]).is_err(), "accepted {bad}");
        }
        assert_eq!(parse(&["--slo-objective", "1"]).unwrap().slo_objective, 1.0);
        assert_eq!(
            parse(&["--slo-objective", "0.99"]).unwrap().slo_objective,
            0.99
        );
    }

    #[test]
    fn fast_threshold_must_be_a_finite_positive_number() {
        for bad in ["NaN", "inf", "0", "-1", "abc"] {
            assert!(parse(&["--fast-threshold", bad]).is_err(), "accepted {bad}");
        }
        assert!(parse(&["--fast", "--fast-threshold"]).is_err(), "no value");
        let ok = parse(&["--fast-threshold", "0.1"]).unwrap();
        assert_eq!(ok.fastsim, Some(FastSimPolicy::with_threshold(0.1)));
        let default = parse(&["--fast"]).unwrap();
        assert_eq!(default.fastsim, Some(FastSimPolicy::default()));
        assert!(parse(&[]).unwrap().fastsim.is_none());
    }
}

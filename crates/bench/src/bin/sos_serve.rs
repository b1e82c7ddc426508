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
//! Threads: connection threads read, validate, admit and answer every verb
//! themselves; the scheduler (main) thread only simulates and publishes.
//! They meet at one mutex-guarded front desk ([`Front`]) and one condvar, so
//! no request waits out the timeslice in flight (DESIGN.md §9).
//!
//! Service behaviour:
//! * **Admission control** — at most `--queue-cap` jobs in the system;
//!   excess submissions get an explicit `backpressure` error reply. An
//!   accepted job enters the machine at the first timeslice boundary after
//!   its acknowledgement.
//! * **Graceful drain** — `drain`/`shutdown` stop admission and complete
//!   every in-flight job before replying / exiting 0.
//! * **Snapshot/restore** — scheduler accounting is written atomically to
//!   `<snapshot-dir>/snapshot.json` every `--snapshot-every` completions
//!   and on shutdown; on restart, completed-job accounting is restored
//!   exactly and in-flight jobs are re-queued from their arrival records.
//! * **Live metrics** — every request, error, departure, and engine
//!   timeslice feeds one `sos_core::telemetry::Telemetry` handle, whose
//!   histograms count every value since start-up; the `metrics` verb
//!   returns the versioned snapshot plus a Prometheus text exposition, and
//!   the `stats` verb reports exact and log2-bucket p50/p95/p99 along with
//!   per-class protocol error counts.
//! * **Latency SLOs** — at each `metrics` request, the response times and
//!   slowdowns of the jobs this process completed are held against
//!   `--slo-response` / `--slo-slowdown` at `--slo-objective`; the reply
//!   carries attainment and error-budget burn rate, and the exposition
//!   their `_slo_*` gauges.
//! * **Request-scoped tracing** — with `--trace FILE` or `--metrics FILE`
//!   the handle also records events: every job's life (admit → queue wait →
//!   schedule decision → timeslices → complete) as Perfetto-compatible
//!   spans, written as a Chrome trace (`--trace`) and/or as JSONL events
//!   plus metric rows (`--metrics`) at shutdown.
//!
//! * **Fast simulation** — `--fast` (optionally `--fast-threshold F`)
//!   runs the engine under phase-aware sampled fast simulation for the
//!   daemon's whole life; `status` echoes the policy plus the
//!   extrapolated-timeslice count.
//!
//! * **Learned prediction** — `--predictor learned|bandit` (any
//!   `PredictorKind` name is accepted) runs the SOS optimize phase on the
//!   `sos_core::learn` online model; the learner's state rides in the
//!   snapshot so restarts keep the trained model, and its counters surface
//!   under `learn.*` in the `metrics` verb.
//!
//! Usage: `sos-serve [--port P] [--policy sos|naive] [--smt N]
//! [--queue-cap N] [--timeslice C] [--predictor NAME] [--sample-schedules N]
//! [--base-interval C] [--calibration-cycles C] [--snapshot-dir DIR]
//! [--snapshot-every N] [--seed S] [--fast] [--fast-threshold F]
//! [--metrics FILE] [--trace FILE]
//! [--slo-response CYCLES] [--slo-slowdown X] [--slo-objective F]`
//!
//! The daemon prints `sos-serve listening on ADDR` once ready (with
//! `--port 0` the OS picks the port; parse it from this line).

use sos_bench::cli::{self, Flags};
use sos_bench::serve::{
    CompletedJob, MetricsReply, Request, Response, SloStatus, Snapshot, StatsReply, StatusReply,
};
use sos_core::online::{JobRecord, OnlineConfig, OnlineEngine, SchedulerKind};
use sos_core::opensys::{calibrate_benchmarks, JobArrival, JOB_KINDS};
use sos_core::report::{self, JobSummary};
use sos_core::telemetry::{prometheus_name, Counter, Gauge, Histogram, Telemetry};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use workloads::spec::Benchmark;

/// The protocol verbs with per-verb request counters and latency series.
const VERBS: [&str; 6] = ["submit", "status", "stats", "metrics", "drain", "shutdown"];

/// Longest request line the daemon buffers; a longer one is refused and
/// skipped to its newline.
const MAX_LINE: usize = 64 * 1024;

struct Args {
    port: u16,
    policy: SchedulerKind,
    engine: OnlineConfig,
    queue_cap: usize,
    calibration_cycles: u64,
    snapshot_dir: PathBuf,
    snapshot_every: u64,
    metrics: Option<PathBuf>,
    trace: Option<PathBuf>,
    slo_response: u64,
    slo_slowdown: f64,
    slo_objective: f64,
}

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let policy = flags.opt_with("--policy", SchedulerKind::parse)?;
    let args = Args {
        port: flags.value("--port", 7077)?,
        policy: policy.unwrap_or(SchedulerKind::Sos),
        engine: cli::engine_flags(flags, 0x5E54E)?,
        queue_cap: flags.value("--queue-cap", 64)?,
        calibration_cycles: flags.value("--calibration-cycles", 60_000)?,
        snapshot_dir: flags.value("--snapshot-dir", PathBuf::from("results/serve"))?,
        snapshot_every: flags.value("--snapshot-every", 16)?,
        metrics: flags.opt("--metrics")?,
        trace: flags.opt("--trace")?,
        slo_response: flags.value("--slo-response", 2_000_000)?,
        slo_slowdown: flags.value("--slo-slowdown", 8.0)?,
        slo_objective: flags.value("--slo-objective", 0.95)?,
    };
    if args.queue_cap == 0 {
        return Err("--queue-cap must be positive".into());
    }
    // Each `_ok` is false for NaN too, which `<=`-style rejections let through.
    let objective_ok = args.slo_objective > 0.0 && args.slo_objective <= 1.0;
    if !objective_ok {
        return Err("--slo-objective must be in (0, 1]".into());
    }
    let slowdown_ok = args.slo_slowdown > 0.0;
    if !slowdown_ok || args.slo_response == 0 {
        return Err("--slo-response and --slo-slowdown must be positive".into());
    }
    Ok(args)
}

/// Counter/gauge handles and series names for the serve loop, resolved once
/// at startup so the per-request and per-departure cost is a relaxed atomic
/// write.
struct ServeMetrics {
    /// Per verb, in [`VERBS`] order: the `serve.requests.*` counter and the
    /// `serve.request_us.*` histogram name.
    verbs: [(Arc<Counter>, String); 6],
    submitted: Arc<Counter>,
    completed: Arc<Counter>,
    rejected: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    snapshot_age: Arc<Gauge>,
    snapshot_write_us: Arc<Gauge>,
    err_unparsable: Arc<Counter>,
    err_unknown_cmd: Arc<Counter>,
    err_bad_submit: Arc<Counter>,
    err_backpressure: Arc<Counter>,
    err_draining: Arc<Counter>,
}

impl ServeMetrics {
    fn register(tel: &Telemetry) -> Self {
        ServeMetrics {
            // Created at zero so the exposition lists every verb from the start.
            verbs: VERBS.map(|verb| {
                let request_us = format!("serve.request_us.{verb}");
                tel.register_histogram(&request_us);
                (tel.counter(&format!("serve.requests.{verb}")), request_us)
            }),
            submitted: tel.counter("serve.submitted"),
            completed: tel.counter("serve.completed"),
            rejected: tel.counter("serve.rejected"),
            queue_depth: tel.gauge("serve.queue_depth"),
            snapshot_age: tel.gauge("serve.snapshot_age_cycles"),
            snapshot_write_us: tel.gauge("serve.snapshot_write_us"),
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

/// The front desk: the daemon's only shared mutable state, behind
/// [`Shared::front`]. Connection threads own admission; the scheduler
/// thread publishes the machine's state after every timeslice. Nobody
/// holds the lock across a timeslice, a snapshot store, serde or a socket.
#[derive(Default)]
struct Front {
    // -- admission, written by connection threads --
    /// The engine key of the next admitted job (dense, in admission order).
    next_key: usize,
    /// Jobs in the system: admitted − departed. Raised at admission,
    /// lowered only when the scheduler thread publishes a departure.
    live: usize,
    rejected: u64,
    draining: bool,
    shutdown: bool,
    /// Acknowledged jobs the engine has not taken in yet, in key order.
    admitted: Vec<JobArrival>,
    /// `drain`/`shutdown` replies not on their sockets yet; the process
    /// does not exit under them.
    unflushed: usize,
    // -- the machine as of the last timeslice, written by the scheduler --
    now_cycles: u64,
    completed: Vec<CompletedJob>,
    resamples: u64,
    extrapolated_slices: Option<u64>,
    last_snapshot_cycles: u64,
}

impl Front {
    /// Hands the scheduler thread the acknowledged jobs and the key of the
    /// first of them.
    fn take_admitted(&mut self) -> (usize, Vec<JobArrival>) {
        let jobs = std::mem::take(&mut self.admitted);
        (self.next_key - jobs.len(), jobs)
    }

    /// Publishes what `status`/`stats` echo of the engine's progress.
    fn reflect(&mut self, engine: &OnlineEngine) {
        self.now_cycles = engine.now();
        self.resamples = engine.resamples();
        self.extrapolated_slices = engine.fastsim_counters().map(|c| c.extrapolated_slices);
    }
}

const POISONED: &str = "a thread panicked holding the front desk";

/// What every thread of the daemon sees: immutable facts, thread-safe
/// telemetry handles, and the front desk under the one lock.
struct Shared {
    solo: HashMap<Benchmark, f64>,
    policy: &'static str,
    smt: u64,
    /// The fast-sim policy the engine was built with, as `status` echoes it.
    fastsim: Option<String>,
    queue_cap: usize,
    /// Jobs accounted in the restored snapshot but not resubmitted to this
    /// process's engine (so `submitted_base + next_key` is the lifetime
    /// total across restarts).
    submitted_base: u64,
    restored: u64,
    /// The `serve.response_cycles` and `serve.slowdown_x100` SLO targets,
    /// both held to `slo_objective`.
    slo_targets: [(&'static str, u64); 2],
    slo_objective: f64,
    tel: Telemetry,
    sm: ServeMetrics,
    front: Mutex<Front>,
    /// Signalled on every change a thread may be waiting for: work for an
    /// idle scheduler, a departure, a flushed reply.
    changed: Condvar,
}

impl Shared {
    fn front(&self) -> MutexGuard<'_, Front> {
        self.front.lock().expect(POISONED)
    }

    /// Sleeps on [`changed`](Self::changed) while `busy` holds.
    fn wait_while<'a>(
        &self,
        front: MutexGuard<'a, Front>,
        busy: impl FnMut(&mut Front) -> bool,
    ) -> MutexGuard<'a, Front> {
        self.changed.wait_while(front, busy).expect(POISONED)
    }

    // -- connection threads --------------------------------------------------

    /// Answers one well-formed request on the calling connection thread.
    fn handle(&self, req: &Request) -> Response {
        let start = Instant::now();
        let verb = VERBS.iter().position(|v| *v == req.cmd);
        let verb = verb.map(|v| &self.sm.verbs[v]);
        match verb {
            Some((requests, _)) => requests.inc(),
            None => self.tel.counter_add("serve.requests.unknown", 1),
        }
        let reply = match req.cmd.as_str() {
            "submit" => self.handle_submit(req),
            "status" => self.handle_status(),
            "stats" => self.handle_stats(),
            "metrics" => self.handle_metrics(),
            "drain" => self.handle_drain(false),
            "shutdown" => self.handle_drain(true),
            other => {
                self.sm.err_unknown_cmd.inc();
                Response::err(format!(
                    "unknown cmd {other:?} (submit|status|stats|metrics|drain|shutdown)"
                ))
            }
        };
        if let Some((_, request_us)) = verb {
            let us = start.elapsed().as_micros() as u64;
            self.tel.histogram_record(request_us, us);
        }
        reply
    }

    /// Checks a submit's fields (no lock: nothing here depends on the
    /// queue, so a request that can never succeed is never told to retry).
    fn validate(&self, req: &Request) -> Result<JobArrival, String> {
        let name = req
            .bench
            .as_deref()
            .ok_or("submit requires a bench field")?;
        let benchmark = JOB_KINDS
            .iter()
            .copied()
            .find(|b| b.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| {
                let known: Vec<&str> = JOB_KINDS.iter().map(|b| b.name()).collect();
                format!("unknown bench {name:?} (one of {known:?})")
            })?;
        let instructions = match (req.instructions, req.cycles) {
            (Some(i), _) => i,
            (None, Some(c)) => {
                let ipc = self.solo.get(&benchmark).copied().unwrap_or(1.0);
                ((c as f64 * ipc) as u64).max(1_000)
            }
            (None, None) => return Err("submit requires cycles or instructions".into()),
        };
        if instructions == 0 {
            return Err("job length must be positive".into());
        }
        Ok(JobArrival {
            arrival: 0, // stamped with the engine clock when the job enters
            benchmark,
            instructions,
            phased: req.phased.unwrap_or(false),
        })
    }

    /// The one admission path: nothing behind a drain, never more than
    /// `queue_cap` jobs in the system, keys dense in acknowledgement order.
    fn handle_submit(&self, req: &Request) -> Response {
        let job = match self.validate(req) {
            Ok(job) => job,
            Err(e) => {
                self.sm.err_bad_submit.inc();
                return Response::err(e);
            }
        };
        let mut front = self.front();
        if front.draining {
            self.sm.err_draining.inc();
            return Response::err("draining");
        }
        if front.live >= self.queue_cap {
            front.rejected += 1;
            self.sm.rejected.inc();
            self.sm.err_backpressure.inc();
            return Response::err("backpressure");
        }
        let key = front.next_key;
        front.next_key += 1;
        front.live += 1;
        front.admitted.push(job);
        self.sm.queue_depth.set(front.live as f64);
        drop(front);
        self.changed.notify_all();
        self.sm.submitted.inc();
        let mut r = Response::ok();
        r.id = Some(self.submitted_base + key as u64);
        r
    }

    /// One consistent cut of the front desk: every field is read under the
    /// same lock acquisition.
    fn handle_status(&self) -> Response {
        let front = self.front();
        let status = StatusReply {
            policy: self.policy.to_string(),
            smt: self.smt,
            live: front.live as u64,
            queue_cap: self.queue_cap as u64,
            submitted: self.submitted_base + front.next_key as u64,
            completed: front.completed.len() as u64,
            rejected: front.rejected,
            now_cycles: front.now_cycles,
            draining: front.draining,
            restored: self.restored,
            fastsim: self.fastsim.clone(),
            extrapolated_slices: front.extrapolated_slices,
        };
        drop(front);
        let mut r = Response::ok();
        r.status = Some(status);
        r
    }

    fn handle_stats(&self) -> Response {
        let front = self.front();
        let (completed, resamples) = (front.completed.clone(), front.resamples);
        drop(front);
        let jobs = JobSummary::from_samples(
            completed.iter().map(|c| c.response as f64).collect(),
            completed.iter().map(|c| c.slowdown).collect(),
        );
        // The jobs `serve.response_cycles` counts: this process's completions.
        let mut approx = Histogram::default();
        for c in &completed[self.restored as usize..] {
            approx.record(c.response);
        }
        let mut r = Response::ok();
        r.stats = Some(StatsReply {
            completed: jobs.count() as u64,
            mean_response: jobs.mean_response(),
            response: jobs.response(),
            mean_slowdown: jobs.mean_slowdown(),
            slowdown: jobs.slowdown(),
            response_approx: approx.percentile_summary(),
            resamples,
            errors: Some(self.sm.error_classes()),
        });
        r
    }

    /// Answers the `metrics` verb: refresh the point-in-time gauges,
    /// snapshot the registry as versioned JSON, and hold this process's
    /// completions against the SLOs; the Prometheus exposition carries both.
    fn handle_metrics(&self) -> Response {
        let front = self.front();
        let slos = self.slos(&front.completed[self.restored as usize..]);
        drop(front);
        let snapshot = self.tel.snapshot(self.refresh_gauges());
        let mut prometheus = snapshot.prometheus_text();
        for (name, s) in &slos {
            let p = prometheus_name(name);
            // A 100% objective burns at +Inf on any miss; nothing else is
            // infinite or NaN.
            let burn_rate = if s.burn_rate.is_infinite() {
                "+Inf".to_string()
            } else {
                s.burn_rate.to_string()
            };
            for (series, value) in [
                ("attainment", s.attainment.to_string()),
                ("burn_rate", burn_rate),
                ("met", u8::from(s.met).to_string()),
            ] {
                prometheus.push_str(&format!(
                    "# TYPE {p}_slo_{series} gauge\n{p}_slo_{series} {value}\n"
                ));
            }
        }
        let mut r = Response::ok();
        r.metrics = Some(Box::new(MetricsReply {
            snapshot,
            prometheus,
            slos,
        }));
        r
    }

    /// The two SLO rows over `completed`, by series name.
    fn slos(&self, completed: &[CompletedJob]) -> BTreeMap<String, SloStatus> {
        let [(response, response_target), (slowdown, slowdown_target)] = self.slo_targets;
        let responses = completed.iter().map(|c| c.response);
        let slowdowns = completed.iter().map(|c| (c.slowdown * 100.0) as u64);
        BTreeMap::from([
            (
                response.to_string(),
                SloStatus::over(response_target, self.slo_objective, responses),
            ),
            (
                slowdown.to_string(),
                SloStatus::over(slowdown_target, self.slo_objective, slowdowns),
            ),
        ])
    }

    /// Updates the gauge that is sampled rather than event-driven (snapshot
    /// age; queue depth is set wherever `live` changes) and returns the
    /// published clock.
    fn refresh_gauges(&self) -> u64 {
        let front = self.front();
        let (now, snapshot_at) = (front.now_cycles, front.last_snapshot_cycles);
        drop(front);
        self.sm
            .snapshot_age
            .set(now.saturating_sub(snapshot_at) as f64);
        now
    }

    /// Answers `drain` and `shutdown`: closes admission and returns once the
    /// scheduler thread has published an empty system. The caller reports
    /// the reply written with [`reply_flushed`](Self::reply_flushed).
    fn handle_drain(&self, shutdown: bool) -> Response {
        let mut front = self.front();
        front.draining = true;
        front.shutdown |= shutdown;
        front.unflushed += 1;
        self.changed.notify_all();
        drop(self.wait_while(front, |f| f.live > 0));
        Response::ok()
    }

    /// A `drain`/`shutdown` reply has left for its socket.
    fn reply_flushed(&self) {
        self.front().unflushed -= 1;
        self.changed.notify_all();
    }

    // -- the scheduler thread ------------------------------------------------

    /// Blocks until there is something to simulate; `None` once `shutdown`
    /// is up and the system is empty.
    fn wait_for_work(&self) -> Option<MutexGuard<'_, Front>> {
        let front = self.wait_while(self.front(), |f| f.live == 0 && !f.shutdown);
        (front.live > 0).then_some(front)
    }

    /// Publishes the machine's state after a timeslice: the clock, the
    /// counters `status`/`stats` echo, and the departures — `live` falls in
    /// the same critical section their records appear in.
    fn publish(&self, engine: &OnlineEngine, departed: Vec<CompletedJob>) {
        let any_departed = !departed.is_empty();
        let mut front = self.front();
        front.reflect(engine);
        front.live -= departed.len();
        front.completed.extend(departed);
        self.sm.queue_depth.set(front.live as f64);
        drop(front);
        if any_departed {
            self.changed.notify_all();
        }
    }

    /// Everything acknowledged so far as a snapshot: the jobs the engine
    /// holds plus those it has not taken in yet, which would enter now.
    fn snapshot(&self, engine: &OnlineEngine) -> Snapshot {
        let (now_cycles, mut inflight) = (engine.now(), engine.live_arrivals());
        let learner = engine.learner().cloned();
        let front = self.front();
        inflight.extend(front.admitted.iter().map(|job| JobArrival {
            arrival: now_cycles,
            ..job.clone()
        }));
        Snapshot {
            version: sos_bench::serve::SNAPSHOT_VERSION,
            policy: self.policy.to_string(),
            smt: self.smt,
            seed: engine.config().seed,
            now_cycles,
            submitted: self.submitted_base + front.next_key as u64,
            rejected: front.rejected,
            completed: front.completed.clone(),
            inflight,
            learner,
        }
    }
}

/// The scheduler thread's private state: the engine and where its
/// accounting is persisted.
struct Daemon {
    engine: OnlineEngine,
    shared: Arc<Shared>,
    args: Args,
    since_snapshot: u64,
}

impl Daemon {
    /// The scheduler loop: take in what was admitted, run one timeslice,
    /// publish; sleep while the system is empty; return on shutdown.
    fn run(&mut self) {
        let shared = self.shared.clone();
        while let Some(mut front) = shared.wait_for_work() {
            let (first_key, jobs) = front.take_admitted();
            drop(front);
            for (i, job) in jobs.into_iter().enumerate() {
                let arrival = self.engine.now();
                let key = self.engine.submit(JobArrival { arrival, ..job });
                assert_eq!(key, first_key + i, "engine keys follow admission order");
            }
            let departed = self.engine.step();
            self.since_snapshot += departed.len() as u64;
            let departed = self.book_departures(departed);
            shared.publish(&self.engine, departed);
            if self.since_snapshot >= self.args.snapshot_every.max(1) {
                self.write_snapshot();
            }
        }
    }

    /// Books a timeslice's departures in the registry series and returns
    /// their records for publication.
    fn book_departures(&self, departed: Vec<JobRecord>) -> Vec<CompletedJob> {
        let (tel, sm) = (&self.shared.tel, &self.shared.sm);
        departed
            .into_iter()
            .map(|rec| {
                let response = rec.response();
                let slowdown = report::slowdown(&self.shared.solo, &rec);
                sm.completed.inc();
                tel.histogram_record("serve.response_cycles", response);
                tel.histogram_record("serve.slowdown_x100", (slowdown * 100.0) as u64);
                CompletedJob {
                    arrival: rec.arrival.arrival,
                    response,
                    slowdown,
                }
            })
            .collect()
    }

    fn write_snapshot(&mut self) {
        self.since_snapshot = 0;
        let started = Instant::now();
        let snap = self.shared.snapshot(&self.engine);
        if let Err(e) = snap.store(&self.args.snapshot_dir) {
            eprintln!(
                "sos-serve: snapshot to {} failed: {e} (continuing without persistence)",
                self.args.snapshot_dir.display()
            );
        } else {
            self.shared.front().last_snapshot_cycles = snap.now_cycles;
            self.shared.sm.snapshot_age.set(0.0);
            self.shared
                .sm
                .snapshot_write_us
                .set(started.elapsed().as_micros() as f64);
        }
    }

    /// Writes end-of-life telemetry from one drained snapshot: the Chrome
    /// trace of request spans to `--trace`, and the events plus every metric
    /// row as JSONL appended to `--metrics`.
    fn export_telemetry(&self) {
        if self.args.metrics.is_none() && self.args.trace.is_none() {
            return;
        }
        let tel = &self.shared.tel;
        self.shared.refresh_gauges();
        tel.set_clock(self.engine.now());
        let snap = tel.drain();
        if let Some(path) = &self.args.trace {
            if let Err(e) = std::fs::write(path, snap.chrome_trace_json()) {
                eprintln!("sos-serve: trace export to {} failed: {e}", path.display());
            }
        }
        if let Some(path) = &self.args.metrics {
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
    let args = cli::parse_or_exit("sos-serve", "", parse_args);
    let cfg = args.engine.clone();
    eprintln!(
        "# sos-serve: calibrating {} benchmarks at SMT {} ...",
        JOB_KINDS.len(),
        cfg.smt
    );
    let solo = calibrate_benchmarks(cfg.smt, args.calibration_cycles, cfg.seed);

    // The daemon always serves metrics; an export file additionally turns
    // on the event stream it is written from.
    let tel = if args.metrics.is_some() || args.trace.is_some() {
        Telemetry::tracing()
    } else {
        Telemetry::metrics()
    };
    tel.register_histogram("serve.response_cycles");
    tel.register_histogram("serve.slowdown_x100");
    let sm = ServeMetrics::register(&tel);

    if let Some(p) = &cfg.fastsim {
        eprintln!("# sos-serve: fastsim on ({})", p.describe());
    }
    let mut engine = OnlineEngine::new(args.policy, &cfg);
    engine.set_telemetry(tel.clone());
    if cfg.predictor.is_learned() {
        eprintln!(
            "# sos-serve: learned prediction on ({})",
            cfg.predictor.name()
        );
    }

    // Restore the latest snapshot, if one matches this configuration.
    let mut front = Front::default();
    let mut restored = 0u64;
    let mut submitted_base = 0u64;
    if let Some(snap) = Snapshot::load(&args.snapshot_dir) {
        if snap.policy == args.policy.name() && snap.smt == cfg.smt as u64 {
            engine.jump_to(snap.now_cycles);
            restored = snap.completed.len() as u64;
            front.rejected = snap.rejected;
            submitted_base = snap.submitted.saturating_sub(snap.inflight.len() as u64);
            front.completed = snap.completed;
            let inflight = snap.inflight.len();
            for job in snap.inflight {
                engine.submit(job);
            }
            // Restore the model only when this run is actually learning —
            // a fixed-predictor restart has no learner to restore into.
            let learned = match snap.learner {
                Some(learner) if cfg.predictor.is_learned() => {
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
                cfg.smt
            );
        }
    }
    // Re-queued jobs are in the system, under the engine keys they just took.
    front.next_key = engine.submitted();
    front.live = engine.live_count();
    front.reflect(&engine);
    sm.queue_depth.set(front.live as f64);

    let shared = Arc::new(Shared {
        solo,
        policy: args.policy.name(),
        smt: cfg.smt as u64,
        fastsim: cfg.fastsim.as_ref().map(|p| p.describe()),
        queue_cap: args.queue_cap,
        submitted_base,
        restored,
        slo_targets: [
            ("serve.response_cycles", args.slo_response),
            (
                "serve.slowdown_x100",
                (args.slo_slowdown * 100.0).round() as u64,
            ),
        ],
        slo_objective: args.slo_objective,
        tel,
        sm,
        front: Mutex::new(front),
        changed: Condvar::new(),
    });

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

    let for_connections = shared.clone();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            match conn {
                Ok(stream) => {
                    let shared = for_connections.clone();
                    std::thread::spawn(move || serve_connection(stream, &shared));
                }
                Err(e) => eprintln!("sos-serve: accept failed: {e}"),
            }
        }
    });

    let mut daemon = Daemon {
        engine,
        shared: shared.clone(),
        args,
        since_snapshot: 0,
    };
    daemon.run();

    daemon.write_snapshot();
    daemon.export_telemetry();
    let completed = shared.front().completed.len();
    eprintln!(
        "# sos-serve: shutdown after {completed} completed jobs at cycle {}",
        daemon.engine.now()
    );
    // Connection threads die with the process: wait (bounded) until the
    // `drain`/`shutdown` replies that announce the exit are on their sockets.
    let _ = shared
        .changed
        .wait_timeout_while(shared.front(), Duration::from_secs(1), |f| f.unflushed > 0);
    std::process::exit(0);
}

/// Reads one request line of at most [`MAX_LINE`] bytes into `buf`:
/// `Ok(None)` at the end of the stream, `Some(Err(diagnostic))` for an
/// oversized or non-UTF-8 line, which is skipped to its newline. A last line
/// the peer did not terminate is returned as it stands.
fn read_request<'a>(
    reader: &mut impl BufRead,
    buf: &'a mut Vec<u8>,
) -> std::io::Result<Option<Result<&'a str, &'static str>>> {
    let mut too_long = false;
    loop {
        buf.clear();
        let n = reader
            .by_ref()
            .take(MAX_LINE as u64 + 1)
            .read_until(b'\n', buf)?;
        // Cut short by the cap rather than by a newline or the stream's end.
        if n > MAX_LINE && buf.last() != Some(&b'\n') {
            too_long = true;
            continue;
        }
        return Ok(match (too_long, n) {
            (true, _) => Some(Err("request line too long")),
            (false, 0) => None,
            (false, _) => Some(std::str::from_utf8(buf).map_err(|_| "request is not UTF-8")),
        });
    }
}

/// Serves one connection: reads JSON-line requests, answers malformed ones
/// with a diagnostic error reply (counted under `serve.errors.unparsable`)
/// and every well-formed one through [`Shared::handle`], on this thread.
fn serve_connection(stream: TcpStream, shared: &Shared) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".into());
    let mut reader = BufReader::new(match stream.try_clone() {
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
    let mut line = Vec::new();
    // Ends when the client goes away.
    while let Ok(Some(request)) = read_request(&mut reader, &mut line) {
        if request.is_ok_and(|text| text.trim().is_empty()) {
            continue;
        }
        let parsed = request.map_err(str::to_string).and_then(|text| {
            serde_json::from_str::<Request>(text).map_err(|e| format!("unparsable request: {e}"))
        });
        let (response, closing) = match parsed {
            Ok(req) => (
                shared.handle(&req),
                matches!(req.cmd.as_str(), "drain" | "shutdown"),
            ),
            Err(diagnostic) => {
                shared.sm.err_unparsable.inc();
                (Response::err(diagnostic), false)
            }
        };
        let mut json = match serde_json::to_string(&response) {
            Ok(j) => j,
            Err(e) => format!("{{\"ok\":false,\"error\":\"reply serialization: {e}\"}}"),
        };
        json.push('\n');
        let written = writer
            .write_all(json.as_bytes())
            .and_then(|_| writer.flush());
        if closing {
            shared.reply_flushed();
        }
        if written.is_err() {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtsim::FastSimPolicy;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Flags::parse(args.iter().map(|a| a.to_string()), parse_args)
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
        assert_eq!(ok.engine.fastsim, Some(FastSimPolicy::with_threshold(0.1)));
        let default = parse(&["--fast"]).unwrap();
        assert_eq!(default.engine.fastsim, Some(FastSimPolicy::default()));
        assert!(parse(&[]).unwrap().engine.fastsim.is_none());
    }

    /// A front desk with nobody behind it yet: no restored state, an empty
    /// solo table (unit IPC).
    fn desk(queue_cap: usize, submitted_base: u64) -> Shared {
        let tel = Telemetry::metrics();
        Shared {
            solo: HashMap::new(),
            policy: "naive",
            smt: 2,
            fastsim: None,
            queue_cap,
            submitted_base,
            restored: 0,
            slo_targets: [("serve.response_cycles", 1), ("serve.slowdown_x100", 1)],
            slo_objective: 0.95,
            sm: ServeMetrics::register(&tel),
            tel,
            front: Mutex::default(),
            changed: Condvar::new(),
        }
    }

    fn engine() -> OnlineEngine {
        let cfg = parse(&["--smt", "2", "--seed", "1"]).expect("valid flags");
        OnlineEngine::new(SchedulerKind::Naive, &cfg.engine)
    }

    /// The front desk as a state machine under threads, no socket and no
    /// simulation: submitters race a stand-in scheduler that retires one job
    /// per turn, and a drain lands while every submitter is still going.
    #[test]
    fn front_desk_keeps_its_cap_its_key_order_and_its_drain_promise() {
        const SUBMITTERS: usize = 4;
        const WARM_UP: usize = 50;
        const CAP: usize = 3;
        let shared = desk(CAP, 0);
        let submit = Request::submit_cycles("gcc", 10_000, false);
        // Submitters and the drainer meet here once each submitter has had
        // WARM_UP jobs accepted; they then go on until refused `draining`.
        let warmed_up = std::sync::Barrier::new(SUBMITTERS + 1);

        let (ids, attempted, refused, keys_at_drain) = std::thread::scope(|s| {
            let scheduler = s.spawn(|| {
                let engine = engine(); // never stepped: only read by `publish`
                let (mut next_key, mut resident) = (0, Vec::new());
                while let Some(mut front) = shared.wait_for_work() {
                    assert!(front.live <= CAP, "live {} over cap", front.live);
                    let (first, jobs) = front.take_admitted();
                    drop(front);
                    assert_eq!(first, next_key, "keys reach the scheduler in order");
                    next_key += jobs.len();
                    resident.extend(jobs);
                    let departed = resident.pop().map(|job| CompletedJob {
                        arrival: 0,
                        response: job.instructions,
                        slowdown: 1.0,
                    });
                    shared.publish(&engine, departed.into_iter().collect());
                }
                assert!(resident.is_empty(), "left with jobs in the system");
            });
            let submitters: Vec<_> = (0..SUBMITTERS)
                .map(|_| {
                    s.spawn(|| {
                        let (mut ids, mut refused) = (Vec::new(), 0usize);
                        for attempt in 0usize.. {
                            let reply = shared.handle(&submit);
                            assert!(shared.front().live <= CAP);
                            match (reply.id, reply.error.as_deref()) {
                                (Some(id), None) => {
                                    ids.push(id);
                                    if ids.len() == WARM_UP {
                                        warmed_up.wait();
                                    }
                                }
                                (None, Some("backpressure")) => refused += 1,
                                (None, Some("draining")) => return (ids, attempt + 1, refused + 1),
                                other => panic!("unexpected submit reply {other:?}"),
                            }
                        }
                        unreachable!()
                    })
                })
                .collect();
            warmed_up.wait();
            assert!(shared.handle(&Request::verb("drain")).ok);
            // The drain reply implies the published view is empty.
            let front = shared.front();
            assert_eq!(front.live, 0, "drain returned with jobs in the system");
            assert_eq!(front.completed.len(), front.next_key);
            let keys_at_drain = front.next_key;
            drop(front);

            let (mut ids, mut attempted, mut refused) = (Vec::new(), 0, 0);
            for submitter in submitters {
                let (i, a, r) = submitter.join().expect("submitter panicked");
                ids.extend(i);
                attempted += a;
                refused += r;
            }
            assert!(shared.handle(&Request::verb("shutdown")).ok);
            scheduler.join().expect("stand-in scheduler panicked");
            (ids, attempted, refused, keys_at_drain)
        });

        assert_eq!(ids.len() + refused, attempted);
        let front = shared.front();
        assert_eq!(front.next_key, keys_at_drain, "admitted behind a drain");
        assert_eq!(front.completed.len(), ids.len());
        let mut sorted = ids;
        sorted.sort_unstable();
        let dense: Vec<u64> = (0..sorted.len() as u64).collect();
        assert_eq!(sorted, dense, "ids must be dense and unique");
        let errors = shared.sm.error_classes();
        assert_eq!(errors["backpressure"], front.rejected);
        assert_eq!(errors["draining"], SUBMITTERS as u64);
        assert_eq!(errors["backpressure"] + errors["draining"], refused as u64);
    }

    /// A snapshot carries everything acknowledged: jobs the engine has not
    /// taken in yet are in `inflight`, stamped with the boundary they would
    /// enter at, and count in `submitted`.
    #[test]
    fn snapshot_lists_acknowledged_jobs_the_engine_has_not_taken_in() {
        let shared = desk(8, 5);
        let mut engine = engine();
        engine.jump_to(777);
        let submit = Request {
            instructions: Some(4_000),
            ..Request::submit_cycles("mg", 0, false)
        };
        let ids: Vec<_> = (0..3).map(|_| shared.handle(&submit).id).collect();
        assert_eq!(ids, [Some(5), Some(6), Some(7)]);
        let (first_key, mut jobs) = shared.front().take_admitted();
        assert_eq!((first_key, jobs.len()), (0, 3));
        // The engine has the first job; the other two are still at the desk.
        let waiting = jobs.split_off(1);
        shared.front().admitted = waiting;
        engine.submit(JobArrival {
            arrival: 700,
            ..jobs.remove(0)
        });

        let snap = shared.snapshot(&engine);
        assert_eq!(snap.submitted, 8, "submitted_base + every acknowledged job");
        assert_eq!(snap.now_cycles, 777);
        let arrivals: Vec<u64> = snap.inflight.iter().map(|j| j.arrival).collect();
        assert_eq!(arrivals, [700, 777, 777]);
        assert!(snap.inflight.iter().all(|j| j.instructions == 4_000));
        assert!(snap.completed.is_empty());
    }

    #[test]
    fn request_lines_are_capped_and_skipped_to_their_newline() {
        let exact = "x".repeat(MAX_LINE); // the cap counts the line, not its newline
        let mut input = Vec::new();
        for line in [exact.as_str(), &"y".repeat(MAX_LINE + 1), "short"] {
            input.extend_from_slice(line.as_bytes());
            input.push(b'\n');
        }
        input.extend_from_slice(&vec![b'z'; 3 * MAX_LINE]); // oversized, then cut
        let mut reader = std::io::Cursor::new(input);
        let mut buf = Vec::new();
        let mut next = || {
            read_request(&mut reader, &mut buf)
                .expect("cursor reads cannot fail")
                .map(|line| line.map(|text| text.trim_end().len()))
        };
        assert_eq!(next(), Some(Ok(MAX_LINE)));
        assert_eq!(next(), Some(Err("request line too long")));
        assert_eq!(next(), Some(Ok("short".len())));
        assert_eq!(next(), Some(Err("request line too long")));
        assert_eq!(next(), None);

        let mut cut = std::io::Cursor::new(b"{\"cmd\":\"sta".to_vec());
        let tail = read_request(&mut cut, &mut buf).unwrap();
        assert_eq!(
            tail,
            Some(Ok("{\"cmd\":\"sta")),
            "an unterminated last line"
        );
        let mut bad = std::io::Cursor::new(b"\xff\xfe{}\n".to_vec());
        let line = read_request(&mut bad, &mut buf).unwrap();
        assert_eq!(line, Some(Err("request is not UTF-8")));
    }
}

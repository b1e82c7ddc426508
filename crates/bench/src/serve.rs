//! The `sos-serve` wire protocol, snapshot format, and client helper.
//!
//! `sos-serve` speaks JSON lines over a local TCP socket: each request is
//! one JSON object on one line, answered by exactly one JSON object on one
//! line. Verbs are carried in the `cmd` field:
//!
//! * `submit` — admit a job (`bench`, plus `cycles` of solo work *or*
//!   explicit `instructions`, and optional `phased`). Replies with the job
//!   id, or `ok:false` with `error:"backpressure"` when the system is at
//!   its admission cap, or `error:"draining"` once a drain has started.
//! * `status` — queue depth, counters, simulated clock.
//! * `stats` — per-job latency summary: mean/p50/p95/p99 response time and
//!   slowdown, exact (from completed-job records) and approximate (from the
//!   live log2-bucket histograms), plus per-class protocol error counts.
//! * `metrics` — the live observability surface: a versioned
//!   `sos_core::metrics::MetricsSnapshot` (counters, gauges, windowed
//!   histograms with p50/p95/p99/p999, SLO attainment and burn rate) plus a
//!   Prometheus-style text exposition. Polled by `sos-top`.
//! * `fastsim` — toggle phase-aware sampled fast simulation at runtime
//!   (`fast` plus optional `fast_threshold`); replies with the active
//!   policy echoed in `status`.
//! * `drain` — stop admitting; the reply is deferred until every in-flight
//!   job has completed.
//! * `shutdown` — drain, snapshot, reply, and exit 0.
//!
//! Any unparsable or unknown request gets `ok:false` with a diagnostic
//! `error`; the connection stays usable. All numbers are simulated cycles —
//! the daemon runs the machine as fast as the host allows.
//!
//! The snapshot (written atomically to `<dir>/snapshot.json`) carries the
//! daemon's accounting across restarts: completed-job records are restored
//! exactly; in-flight jobs are re-queued from their arrival records and
//! rerun from the start (streams are seeded and synthetic, so the work is
//! reproduced, not lost — only partial progress is).

use serde::{Deserialize, Serialize};
use sos_core::metrics::MetricsSnapshot;
use sos_core::opensys::JobArrival;
use sos_core::report::Percentiles;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;

/// Current snapshot schema version; bump on incompatible change (older
/// snapshots are then ignored on restore rather than misread).
pub const SNAPSHOT_VERSION: u32 = 1;

/// One request line.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Request {
    /// The verb: `submit`, `status`, `stats`, `metrics`, `drain`, or
    /// `shutdown`.
    pub cmd: String,
    /// Benchmark name for `submit` (see `workloads::spec::Benchmark::name`).
    pub bench: Option<String>,
    /// Job length in solo-execution cycles (converted to instructions at
    /// the daemon's calibrated solo IPC for `bench`).
    pub cycles: Option<u64>,
    /// Job length in instructions (overrides `cycles` when both are given).
    pub instructions: Option<u64>,
    /// Whether the job is strongly phased.
    pub phased: Option<bool>,
    /// For the `fastsim` verb: enable (`true`) or disable (`false`)
    /// phase-aware sampled fast simulation. Absent in older clients.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub fast: Option<bool>,
    /// For the `fastsim` verb: phase-stability threshold (relative counter
    /// deviation); defaults to the engine's built-in policy when absent.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub fast_threshold: Option<f64>,
}

impl Request {
    /// A bare verb with no payload.
    pub fn verb(cmd: &str) -> Self {
        Request {
            cmd: cmd.to_string(),
            bench: None,
            cycles: None,
            instructions: None,
            phased: None,
            fast: None,
            fast_threshold: None,
        }
    }

    /// A `fastsim` request enabling or disabling fast simulation, with an
    /// optional stability threshold.
    pub fn fastsim(fast: bool, threshold: Option<f64>) -> Self {
        Request {
            fast: Some(fast),
            fast_threshold: threshold,
            ..Request::verb("fastsim")
        }
    }

    /// A `submit` request for `cycles` of solo work on `bench`.
    pub fn submit_cycles(bench: &str, cycles: u64, phased: bool) -> Self {
        Request {
            cmd: "submit".to_string(),
            bench: Some(bench.to_string()),
            cycles: Some(cycles),
            instructions: None,
            phased: Some(phased),
            fast: None,
            fast_threshold: None,
        }
    }
}

/// Queue/counter section of a `status` reply.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StatusReply {
    /// Scheduling policy (`naive` / `sos`).
    pub policy: String,
    /// SMT level of the simulated machine.
    pub smt: u64,
    /// Jobs currently in the system.
    pub live: u64,
    /// Admission cap (jobs in system).
    pub queue_cap: u64,
    /// Jobs admitted over the daemon's lifetime (including restored runs).
    pub submitted: u64,
    /// Jobs completed (including completions restored from a snapshot).
    pub completed: u64,
    /// Jobs refused with backpressure.
    pub rejected: u64,
    /// Simulated clock in cycles.
    pub now_cycles: u64,
    /// Whether a drain is in progress (no new admissions).
    pub draining: bool,
    /// Completed jobs restored from a snapshot at startup.
    pub restored: u64,
    /// The active fast-sim policy (`smtsim::FastSimPolicy::describe`),
    /// `None` when every timeslice runs in full detail. Absent in replies
    /// from older daemons.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub fastsim: Option<String>,
    /// Timeslices synthesized by fast-sim extrapolation so far. Absent in
    /// replies from older daemons.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub extrapolated_slices: Option<u64>,
}

/// Latency section of a `stats` reply.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StatsReply {
    /// Completed jobs the summary covers.
    pub completed: u64,
    /// Mean response time in cycles.
    pub mean_response: f64,
    /// Exact response-time percentiles (nearest-rank over all records).
    pub response: Percentiles,
    /// Mean slowdown (response / solo service time).
    pub mean_slowdown: f64,
    /// Exact slowdown percentiles.
    pub slowdown: Percentiles,
    /// Approximate response-time percentiles from the telemetry registry's
    /// log2-bucket histogram (what a metrics exporter would see).
    pub response_approx: Percentiles,
    /// SOS sample phases entered.
    pub resamples: u64,
    /// Evaluation-cache hits (see `sos_core::cache`).
    pub cache_hits: u64,
    /// Evaluation-cache misses.
    pub cache_misses: u64,
    /// Protocol errors by class (`unparsable`, `unknown_cmd`, `bad_submit`,
    /// `backpressure`, `draining`). Absent in replies from older daemons.
    pub errors: Option<BTreeMap<String, u64>>,
}

/// Payload of a `metrics` reply.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MetricsReply {
    /// Live metrics as a versioned document (see
    /// `sos_core::metrics::METRICS_VERSION`).
    pub snapshot: MetricsSnapshot,
    /// The same snapshot rendered as Prometheus text exposition.
    pub prometheus: String,
}

/// One reply line.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Response {
    /// Whether the request succeeded.
    pub ok: bool,
    /// Diagnostic when `ok` is false (`backpressure`, `draining`, parse
    /// errors, …).
    pub error: Option<String>,
    /// Job id for a successful `submit`.
    pub id: Option<u64>,
    /// Payload of a `status` reply.
    pub status: Option<StatusReply>,
    /// Payload of a `stats` reply.
    pub stats: Option<StatsReply>,
    /// Payload of a `metrics` reply.
    pub metrics: Option<Box<MetricsReply>>,
}

impl Response {
    /// A bare success.
    pub fn ok() -> Self {
        Response {
            ok: true,
            error: None,
            id: None,
            status: None,
            stats: None,
            metrics: None,
        }
    }

    /// A failure with a diagnostic.
    pub fn err(msg: impl Into<String>) -> Self {
        Response {
            ok: false,
            error: Some(msg.into()),
            id: None,
            status: None,
            stats: None,
            metrics: None,
        }
    }
}

/// One completed job as persisted in a snapshot (the fields the stats verb
/// needs, without the full arrival record).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CompletedJob {
    /// Arrival time in cycles.
    pub arrival: u64,
    /// Response time in cycles.
    pub response: u64,
    /// Response / solo service time.
    pub slowdown: f64,
}

/// The daemon's persistent state, written atomically on a period and on
/// shutdown, restored on restart.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Snapshot {
    /// Schema version ([`SNAPSHOT_VERSION`]); mismatches are ignored.
    pub version: u32,
    /// Scheduling policy the snapshot was taken under.
    pub policy: String,
    /// SMT level.
    pub smt: u64,
    /// Engine seed (restored so candidate draws stay seeded).
    pub seed: u64,
    /// Simulated clock at snapshot time.
    pub now_cycles: u64,
    /// Jobs admitted up to snapshot time.
    pub submitted: u64,
    /// Jobs refused with backpressure up to snapshot time.
    pub rejected: u64,
    /// Completed-job records (exact accounting across restarts).
    pub completed: Vec<CompletedJob>,
    /// Jobs that were in flight; re-queued from scratch on restore.
    pub inflight: Vec<JobArrival>,
    /// The engine's online learner state (regressor + bandit), present when
    /// the daemon runs a learned predictor — restored on restart so the
    /// model keeps its training across daemon generations. Absent/`null`
    /// in snapshots from daemons without learning.
    #[serde(default)]
    pub learner: Option<sos_core::learn::Learner>,
}

impl Snapshot {
    /// The snapshot path inside a state directory.
    pub fn path_in(dir: &Path) -> std::path::PathBuf {
        dir.join("snapshot.json")
    }

    /// Writes the snapshot atomically and durably (temp file + fsync +
    /// rename + directory fsync) under `dir`, creating the directory if
    /// needed.
    ///
    /// Both syncs matter: without `sync_all` on the temp file, a crash
    /// after the rename can surface a zero-byte "snapshot.json" (the
    /// rename is journaled before the data hits disk); without the
    /// directory sync, the rename itself may not survive the crash.
    pub fn store(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join("snapshot.json.tmp");
        let json = serde_json::to_string(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(json.as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, Self::path_in(dir))?;
        #[cfg(unix)]
        std::fs::File::open(dir)?.sync_all()?;
        Ok(())
    }

    /// Loads the latest snapshot from `dir`. Returns `None` when there is no
    /// snapshot, it fails to parse, or its version does not match —
    /// restore is best-effort, a bad snapshot must never stop the daemon.
    pub fn load(dir: &Path) -> Option<Snapshot> {
        let text = std::fs::read_to_string(Self::path_in(dir)).ok()?;
        let snap: Snapshot = serde_json::from_str(&text).ok()?;
        if snap.version != SNAPSHOT_VERSION {
            return None;
        }
        Some(snap)
    }
}

/// Current [`BenchRecord`] schema version.
pub const BENCH_RECORD_VERSION: u32 = 1;

/// One perf-trajectory record, appended as a JSON line to
/// `BENCH_serve.json` by `sos-loadgen --bench-out` so serving-layer
/// throughput and tail latency are comparable across PRs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Schema version ([`BENCH_RECORD_VERSION`]).
    pub schema: u32,
    /// Wall-clock record time (seconds since the Unix epoch).
    pub unix_secs: u64,
    /// Load-generator trace seed.
    pub seed: u64,
    /// Jobs in the offered trace.
    pub offered: u64,
    /// Jobs the daemon admitted.
    pub accepted: u64,
    /// Jobs finally rejected.
    pub rejected: u64,
    /// Backpressure retries before admission.
    pub retries: u64,
    /// Total wall time spent sleeping between backpressure retries, ms.
    pub retry_wait_ms: u64,
    /// Jobs completed by drain time (includes restored completions).
    pub completed: u64,
    /// Wall time from first submission to drained, seconds.
    pub wall_secs: f64,
    /// Completions per wall-clock second.
    pub throughput_jobs_per_sec: f64,
    /// Simulated cycles per wall-clock second over the run.
    pub sim_cycles_per_sec: f64,
    /// Mean response time in simulated cycles.
    pub mean_response: f64,
    /// Exact response-time percentiles in simulated cycles.
    pub response: Percentiles,
    /// Mean slowdown.
    pub mean_slowdown: f64,
    /// Exact slowdown percentiles.
    pub slowdown: Percentiles,
    /// `serve.response_cycles` SLO attainment at drain (NaN when the daemon
    /// predates the `metrics` verb).
    pub slo_response_attainment: f64,
    /// `serve.slowdown_x100` SLO attainment at drain (NaN when unavailable).
    pub slo_slowdown_attainment: f64,
    /// The fast-sim policy the daemon ran under
    /// (`smtsim::FastSimPolicy::describe`), `None`/absent for full detail.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub fastsim: Option<String>,
    /// Timeslices the daemon synthesized by extrapolation during the run.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub extrapolated_slices: Option<u64>,
}

impl BenchRecord {
    /// Appends the record as one JSON line to `path`, creating the file if
    /// needed.
    pub fn append_to(&self, path: &Path) -> std::io::Result<()> {
        append_json_line(self, path)
    }
}

/// Current [`ClusterBenchRecord`] schema version.
pub const CLUSTER_BENCH_RECORD_VERSION: u32 = 1;

/// One cluster-scaling record, appended as a JSON line to
/// `BENCH_serve.json` by `sos-cluster --bench-out`. Distinguished from
/// loadgen [`BenchRecord`] lines by its `kind:"cluster"` field.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClusterBenchRecord {
    /// Schema version ([`CLUSTER_BENCH_RECORD_VERSION`]).
    pub schema: u32,
    /// Record discriminator, always `"cluster"`.
    pub kind: String,
    /// Wall-clock record time (seconds since the Unix epoch).
    pub unix_secs: u64,
    /// Shard count.
    pub shards: u64,
    /// Dispatcher policy (`round-robin` / `least-loaded` / `symbiosis`).
    pub dispatch: String,
    /// Per-shard scheduling policy (`naive` / `sos`).
    pub policy: String,
    /// Cluster seed.
    pub seed: u64,
    /// Jobs in the offered trace.
    pub jobs: u64,
    /// Jobs completed by drain time.
    pub completed: u64,
    /// Jobs migrated between shards by rebalancing.
    pub migrations: u64,
    /// Wall time for the full run, seconds.
    pub wall_secs: f64,
    /// Total simulated machine-cycles across all shard clocks
    /// (`shards × cluster clock` — N cores each advanced the cluster
    /// makespan).
    pub sim_cycles: u64,
    /// `sim_cycles / wall_secs` — the cluster's simulation throughput.
    pub sim_cycles_per_sec: f64,
    /// Completions per wall-clock second.
    pub throughput_jobs_per_sec: f64,
    /// Cluster-wide weighted speedup (solo-equivalent cycles completed per
    /// busy machine cycle).
    pub aggregate_ws: f64,
    /// Mean response time in simulated cycles.
    pub mean_response: f64,
    /// Exact response-time percentiles in simulated cycles.
    pub response: Percentiles,
    /// Exact slowdown percentiles.
    pub slowdown: Percentiles,
    /// The shard fast-sim policy (`smtsim::FastSimPolicy::describe`),
    /// `None`/absent for full detail.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub fastsim: Option<String>,
    /// Timeslices synthesized by extrapolation across all shards.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub extrapolated_slices: Option<u64>,
}

impl ClusterBenchRecord {
    /// Appends the record as one JSON line to `path`, creating the file if
    /// needed.
    pub fn append_to(&self, path: &Path) -> std::io::Result<()> {
        append_json_line(self, path)
    }
}

/// Current [`FastSimBenchRecord`] schema version.
pub const FASTSIM_BENCH_RECORD_VERSION: u32 = 1;

/// One fast-sim accuracy/speedup record, appended as a JSON line to
/// `BENCH_serve.json` by `fastsim-compare --bench-out`. Distinguished from
/// the other record kinds by its `kind:"fastsim"` field. Captures a
/// detailed-vs-extrapolated pair of runs of the same seeded open-system
/// scenario, so the speedup-versus-error trajectory is comparable across
/// PRs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FastSimBenchRecord {
    /// Schema version ([`FASTSIM_BENCH_RECORD_VERSION`]).
    pub schema: u32,
    /// Record discriminator, always `"fastsim"`.
    pub kind: String,
    /// Wall-clock record time (seconds since the Unix epoch).
    pub unix_secs: u64,
    /// Scenario seed.
    pub seed: u64,
    /// Jobs in the offered trace.
    pub jobs: u64,
    /// The fast-sim policy under test (`smtsim::FastSimPolicy::describe`).
    pub fastsim: String,
    /// Wall time of the full-detail run, seconds.
    pub detail_wall_secs: f64,
    /// Wall time of the fast run, seconds.
    pub fast_wall_secs: f64,
    /// `detail_wall_secs / fast_wall_secs` — same simulated cycles both
    /// ways, so this is also the sim-cycles/sec speedup.
    pub speedup: f64,
    /// Simulated cycles per wall second, full detail.
    pub detail_sim_cycles_per_sec: f64,
    /// Simulated cycles per wall second, fast mode.
    pub fast_sim_cycles_per_sec: f64,
    /// Fraction of busy timeslices the fast run extrapolated (0..1).
    pub extrapolated_fraction: f64,
    /// Aggregate weighted speedup, full detail.
    pub detail_ws: f64,
    /// Aggregate weighted speedup, fast mode.
    pub fast_ws: f64,
    /// `|fast_ws - detail_ws| / detail_ws`.
    pub ws_rel_error: f64,
    /// Relative error of the mean response time.
    pub response_rel_error: f64,
    /// Relative error of the p95 response time (the CI-gated percentile —
    /// p99 over a few hundred jobs is tail noise).
    pub response_p95_rel_error: f64,
    /// Relative error of the p99 response time (informational).
    pub response_p99_rel_error: f64,
    /// Relative error of the p95 slowdown (CI-gated).
    pub slowdown_p95_rel_error: f64,
    /// Relative error of the p99 slowdown (informational).
    pub slowdown_p99_rel_error: f64,
}

impl FastSimBenchRecord {
    /// Appends the record as one JSON line to `path`, creating the file if
    /// needed.
    pub fn append_to(&self, path: &Path) -> std::io::Result<()> {
        append_json_line(self, path)
    }
}

/// Current [`LearnBenchRecord`] schema version.
pub const LEARN_BENCH_RECORD_VERSION: u32 = 1;

/// One learned-predictor evaluation record, appended as a JSON line to
/// `BENCH_serve.json` by `predictor-matrix --bench-out`. Distinguished from
/// the other record kinds by its `kind:"learn"` field. Captures how the
/// online regressor and the contextual bandit fared against the ten fixed
/// predictors on the widened grid, so learning quality is comparable
/// across PRs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LearnBenchRecord {
    /// Schema version ([`LEARN_BENCH_RECORD_VERSION`]).
    pub schema: u32,
    /// Record discriminator, always `"learn"`.
    pub kind: String,
    /// Wall-clock record time (seconds since the Unix epoch).
    pub unix_secs: u64,
    /// Grid name (`small` / `wide`).
    pub grid: String,
    /// Seeds pooled into the evaluation.
    pub seeds: Vec<u64>,
    /// Experiments evaluated (scenarios × seeds).
    pub experiments: u64,
    /// Mean realized WS of the best fixed predictor, and its name.
    pub best_fixed: String,
    pub best_fixed_ws: f64,
    /// Mean realized WS of the worst fixed predictor, and its name.
    pub worst_fixed: String,
    pub worst_fixed_ws: f64,
    /// Mean realized WS of the online ridge regressor's picks.
    pub learned_ws: f64,
    /// Mean realized WS of the contextual bandit's picks.
    pub bandit_ws: f64,
    /// Mean realized WS of the per-experiment oracle (best schedule found
    /// during sampling) — the ceiling every predictor chases.
    pub oracle_ws: f64,
    /// Regressor training updates over the run.
    pub train_updates: u64,
    /// Prequential error EWMA of the regressor at the end of the run.
    pub err_ewma: f64,
    /// Bandit arm pulls over the run.
    pub bandit_pulls: u64,
    /// Cumulative bandit regret against the per-decision best arm.
    pub bandit_regret: f64,
    /// Distinct jobmix contexts the bandit saw.
    pub contexts: u64,
}

impl LearnBenchRecord {
    /// Appends the record as one JSON line to `path`, creating the file if
    /// needed.
    pub fn append_to(&self, path: &Path) -> std::io::Result<()> {
        append_json_line(self, path)
    }
}

/// Appends one serialized value as a JSON line to `path`.
fn append_json_line<T: Serialize>(value: &T, path: &Path) -> std::io::Result<()> {
    let json = serde_json::to_string(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(json.as_bytes())?;
    f.write_all(b"\n")
}

/// A blocking JSON-lines client for `sos-serve` (used by `sos-loadgen` and
/// the protocol tests).
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a daemon address like `127.0.0.1:7077`.
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // One small request per round trip: Nagle plus the peer's delayed ACK
        // would stall each of them.
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
        })
    }

    /// Sends one request and blocks for its reply.
    pub fn request(&mut self, req: &Request) -> std::io::Result<Response> {
        let json = serde_json::to_string(req)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        self.send_line(&json)
    }

    /// Sends one raw line (useful for malformed-input tests) and blocks for
    /// the reply.
    pub fn send_line(&mut self, line: &str) -> std::io::Result<Response> {
        // One segment per request: the line and its terminator in one write.
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        self.writer.flush()?;
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        serde_json::from_str(reply.trim_end()).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad reply {reply:?}: {e}"),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let req = Request::submit_cycles("gcc", 500_000, true);
        let json = serde_json::to_string(&req).unwrap();
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cmd, "submit");
        assert_eq!(back.bench.as_deref(), Some("gcc"));
        assert_eq!(back.cycles, Some(500_000));
        assert_eq!(back.phased, Some(true));
    }

    #[test]
    fn bare_verb_omits_payload_fields_gracefully() {
        // A hand-written client may send only {"cmd":"status"}; every other
        // field must default to None.
        let back: Request = serde_json::from_str(r#"{"cmd":"status"}"#).unwrap();
        assert_eq!(back.cmd, "status");
        assert!(back.bench.is_none() && back.cycles.is_none() && back.instructions.is_none());
    }

    #[test]
    fn response_round_trips_with_error() {
        let r = Response::err("backpressure");
        let json = serde_json::to_string(&r).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        assert!(!back.ok);
        assert_eq!(back.error.as_deref(), Some("backpressure"));
    }

    #[test]
    fn snapshot_store_and_load() {
        let dir = std::env::temp_dir().join(format!("sos-serve-test-{}", std::process::id()));
        let snap = Snapshot {
            version: SNAPSHOT_VERSION,
            policy: "sos".into(),
            smt: 2,
            seed: 7,
            now_cycles: 123_456,
            submitted: 10,
            rejected: 1,
            completed: vec![CompletedJob {
                arrival: 5,
                response: 100,
                slowdown: 1.5,
            }],
            inflight: Vec::new(),
            learner: None,
        };
        snap.store(&dir).expect("store");
        let back = Snapshot::load(&dir).expect("load");
        assert_eq!(back.now_cycles, 123_456);
        assert_eq!(back.completed.len(), 1);
        assert_eq!(back.completed[0].response, 100);
        assert!(back.learner.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_preserves_learner_state_byte_exactly() {
        use sos_core::learn::{LearnConfig, Learner};
        let dir = std::env::temp_dir().join(format!("sos-serve-learn-{}", std::process::id()));
        let learner = Learner::new(LearnConfig::default());
        let snap = Snapshot {
            version: SNAPSHOT_VERSION,
            policy: "sos".into(),
            smt: 2,
            seed: 7,
            now_cycles: 1,
            submitted: 0,
            rejected: 0,
            completed: Vec::new(),
            inflight: Vec::new(),
            learner: Some(learner.clone()),
        };
        snap.store(&dir).expect("store");
        let back = Snapshot::load(&dir).expect("load");
        assert_eq!(
            serde_json::to_string(back.learner.as_ref().unwrap()).unwrap(),
            serde_json::to_string(&learner).unwrap(),
            "learner state must survive the snapshot round trip byte-exactly"
        );
        // A pre-learning snapshot (no `learner` key at all) still loads.
        let raw = std::fs::read_to_string(Snapshot::path_in(&dir)).unwrap();
        let stripped = raw.replace(
            &format!(",\"learner\":{}", serde_json::to_string(&learner).unwrap()),
            "",
        );
        assert_ne!(raw, stripped, "test must actually strip the learner key");
        std::fs::write(Snapshot::path_in(&dir), stripped).unwrap();
        let old = Snapshot::load(&dir).expect("old-format snapshot loads");
        assert!(old.learner.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_version_mismatch_is_ignored() {
        let dir = std::env::temp_dir().join(format!("sos-serve-ver-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            Snapshot::path_in(&dir),
            r#"{"version":999,"policy":"sos","smt":2,"seed":0,"now_cycles":0,"submitted":0,"rejected":0,"completed":[],"inflight":[]}"#,
        )
        .unwrap();
        assert!(Snapshot::load(&dir).is_none());
        // Corrupt JSON is equally non-fatal.
        std::fs::write(Snapshot::path_in(&dir), "{not json").unwrap();
        assert!(Snapshot::load(&dir).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_byte_snapshot_is_treated_as_corrupt() {
        // A crash between File::create and the data hitting disk used to be
        // able to leave a zero-byte snapshot.json; restore must treat it
        // like any corrupt snapshot (None) so the daemon still starts.
        let dir = std::env::temp_dir().join(format!("sos-serve-zero-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(Snapshot::path_in(&dir), b"").unwrap();
        assert!(Snapshot::load(&dir).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_store_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("sos-serve-tmp-{}", std::process::id()));
        let snap = Snapshot {
            version: SNAPSHOT_VERSION,
            policy: "naive".into(),
            smt: 2,
            seed: 1,
            now_cycles: 1,
            submitted: 0,
            rejected: 0,
            completed: Vec::new(),
            inflight: Vec::new(),
            learner: None,
        };
        snap.store(&dir).expect("store");
        assert!(!dir.join("snapshot.json.tmp").exists());
        assert!(Snapshot::load(&dir).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

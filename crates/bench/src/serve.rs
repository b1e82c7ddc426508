//! The `sos-serve` wire protocol, snapshot format, and client helper.
//!
//! `sos-serve` speaks JSON lines over a local TCP socket: each request is
//! one JSON object on one line (at most 64 KiB), answered by exactly one
//! JSON object on one line. Every verb is answered by the connection's own
//! thread from the daemon's front desk — no reply waits for the timeslice
//! the simulator is running. The six verbs are carried in the `cmd` field:
//!
//! * `submit` — admit a job (`bench`, plus `cycles` of solo work *or*
//!   explicit `instructions`, and optional `phased`). The fields are checked
//!   first (a malformed submit gets its own diagnostic whatever the queue
//!   holds); then the reply is `ok:false` with `error:"draining"` once a
//!   drain has started, `error:"backpressure"` when the system is at its
//!   admission cap, or the job id. Ids are dense in acknowledgement order;
//!   an acknowledged job is in every later `status`, is carried by every
//!   later snapshot, and enters the machine (its `arrival` stamp) at the
//!   first timeslice boundary after the acknowledgement.
//! * `status` — queue depth, counters, simulated clock: one consistent cut
//!   (`live == submitted − completed`), with the clock and completions as
//!   of the last timeslice boundary. It also echoes the fast-sim policy the
//!   daemon was started with (`sos-serve --fast`; there is no run-time
//!   toggle) and the extrapolated-timeslice count.
//! * `stats` — per-job latency summary: mean/p50/p95/p99 response time and
//!   slowdown, exact (from completed-job records) and log2-bucket
//!   approximate (what the `serve.response_cycles` histogram shows), plus
//!   per-class protocol error counts.
//! * `metrics` — the live observability surface: a versioned
//!   `sos_core::telemetry::Snapshot` (counters, gauges, and log2-bucket
//!   histograms that count every value since start-up), the latency SLO
//!   rows ([`SloStatus`]: attainment and burn rate), and a Prometheus-style
//!   text exposition of both. Polled by `sos-top`.
//! * `drain` — stop admitting; the reply is deferred until every in-flight
//!   job has completed, so a `status`/`stats` sent after it sees `live == 0`
//!   and `submitted == completed`.
//! * `shutdown` — drain, reply, snapshot, and exit 0 (the process waits for
//!   the reply to reach its socket).
//!
//! Any unparsable or unknown request gets `ok:false` with a diagnostic
//! `error`; the connection stays usable. That includes a line over 64 KiB
//! (`request line too long`; it is skipped to its newline, never buffered
//! whole) and one that is not UTF-8 (`request is not UTF-8`). A key given
//! twice in one object keeps its *first* value — what the vendored
//! `serde_json` does; upstream would refuse the object. All numbers are
//! simulated cycles — the daemon runs the machine as fast as the host allows.
//!
//! The snapshot (written atomically to `<dir>/snapshot.json`) carries the
//! daemon's accounting across restarts: completed-job records are restored
//! exactly; in-flight jobs are re-queued from their arrival records and
//! rerun from the start (streams are seeded and synthetic, so the work is
//! reproduced, not lost — only partial progress is).

use serde::{Deserialize, Serialize};
use sos_core::opensys::JobArrival;
use sos_core::report::Percentiles;
use sos_core::telemetry;
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
    #[serde(default)]
    pub fastsim: Option<String>,
    /// Timeslices synthesized by fast-sim extrapolation so far. Absent in
    /// replies from older daemons.
    #[serde(default)]
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
    /// Log2-bucket response-time percentiles over the jobs this process
    /// completed: exactly what the `serve.response_cycles` histogram of the
    /// `metrics` verb shows.
    pub response_approx: Percentiles,
    /// SOS sample phases entered.
    pub resamples: u64,
    /// Protocol errors by class (`unparsable`, `unknown_cmd`, `bad_submit`,
    /// `backpressure`, `draining`). Absent in replies from older daemons.
    pub errors: Option<BTreeMap<String, u64>>,
}

/// One latency-style service-level objective: "`objective` of
/// observations at or under `target`", over the jobs one daemon process
/// completed.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SloStatus {
    /// Threshold an observation must not exceed to count as good.
    pub target: u64,
    /// Required good fraction.
    pub objective: f64,
    /// Good observations.
    pub good: u64,
    /// All observations.
    pub total: u64,
    /// Good fraction (1.0 before any observation: no violations).
    pub attainment: f64,
    /// Error-budget burn rate: observed bad fraction over allowed bad
    /// fraction. 1.0 burns the budget exactly as fast as the objective
    /// allows; above 1.0 the objective is missed if the rate holds. A 100%
    /// objective has no budget, so any miss burns at infinity.
    pub burn_rate: f64,
    /// Whether the objective is met.
    pub met: bool,
}

impl SloStatus {
    /// The status of "`objective` (clamped to `[0, 1]`) of `values` ≤
    /// `target`".
    pub fn over(target: u64, objective: f64, values: impl IntoIterator<Item = u64>) -> Self {
        let objective = objective.clamp(0.0, 1.0);
        let (mut good, mut total) = (0u64, 0u64);
        for value in values {
            total += 1;
            good += u64::from(value <= target);
        }
        let attainment = if total == 0 {
            1.0
        } else {
            good as f64 / total as f64
        };
        let allowed = 1.0 - objective;
        let burn_rate = if allowed > 0.0 {
            (1.0 - attainment) / allowed
        } else if total > good {
            f64::INFINITY
        } else {
            0.0
        };
        SloStatus {
            target,
            objective,
            good,
            total,
            attainment,
            burn_rate,
            met: attainment >= objective,
        }
    }
}

/// Payload of a `metrics` reply.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MetricsReply {
    /// Live metrics as a versioned document (see
    /// `sos_core::telemetry::METRICS_VERSION`).
    pub snapshot: telemetry::Snapshot,
    /// The snapshot and the SLO rows rendered as Prometheus text
    /// exposition.
    pub prometheus: String,
    /// The latency SLOs by series name (`serve.response_cycles`,
    /// `serve.slowdown_x100`).
    pub slos: BTreeMap<String, SloStatus>,
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
    fn slo_attainment_and_burn_rate() {
        let none = SloStatus::over(100, 0.9, []);
        assert_eq!(none.attainment, 1.0);
        assert!(none.met);
        assert_eq!(none.burn_rate, 0.0);
        let s = SloStatus::over(100, 0.9, [10, 50, 100, 101, 500, 20, 30, 40, 60, 70]);
        // 8 of 10 good → attainment 0.8, budget 0.1, burn 2.0.
        assert_eq!(s.good, 8);
        assert_eq!(s.total, 10);
        assert!((s.attainment - 0.8).abs() < 1e-12);
        assert!((s.burn_rate - 2.0).abs() < 1e-12);
        assert!(!s.met);
    }

    #[test]
    fn slo_with_total_objective_has_infinite_burn_on_any_miss() {
        assert_eq!(SloStatus::over(10, 1.0, [5]).burn_rate, 0.0);
        assert!(SloStatus::over(10, 1.0, [5, 11]).burn_rate.is_infinite());
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
        // So does one from before the exploration dials were deleted: the
        // derive reads fields by name, so the version stays 1.
        let parent = format!(
            r#"{{"version":1,"policy":"sos","smt":2,"seed":7,"now_cycles":90000,"submitted":3,"rejected":0,"completed":[{{"arrival":5,"response":100,"slowdown":1.5}},{{"arrival":9,"response":250,"slowdown":2.0}}],"inflight":[],"learner":{PARENT_LEARNER}}}"#
        );
        for gone in [
            "\"policy\":\"Ucb1\"",
            "\"epsilon\"",
            "\"seed\":7844",
            "\"rng\"",
        ] {
            assert!(parent.contains(gone), "fixture lost {gone}");
        }
        std::fs::write(Snapshot::path_in(&dir), parent).unwrap();
        let back = Snapshot::load(&dir).expect("a parent-format snapshot loads");
        assert_eq!(back.completed.len(), 2);
        assert_eq!(back.completed[1].response, 250);
        assert_eq!(
            serde_json::to_string(&back.learner.expect("the learner came along").summary())
                .unwrap(),
            PARENT_LEARNER_SUMMARY
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A learner as the build before `BanditPolicy`/`SplitMix64` were deleted
    /// serialized it (three settled pulls, six training updates): `cfg` and
    /// `bandit` still carry `policy`, `epsilon`, `seed` and `rng`.
    const PARENT_LEARNER: &str = r#"{"cfg":{"policy":"Ucb1","epsilon":0.1,"ucb_c":0.5,"lambda":1.0,"ewma_alpha":0.1,"min_train":8,"seed":7844},"regressor":{"lambda":1.0,"n":6,"xtx":[6.0,10.5,3.0,5.7,0.42,0.21,0.6299999999999999,1.2,1.5,10.5,18.75,5.25,9.974999999999998,0.78,0.39,1.17,2.1000000000000005,2.7,3.0,5.25,1.5,2.85,0.21,0.105,0.31499999999999995,0.6,0.75,5.7,9.974999999999998,2.85,5.415,0.39899999999999997,0.19949999999999998,0.5985,1.14,1.4249999999999998,0.42,0.78,0.21,0.39899999999999997,0.034800000000000005,0.017400000000000002,0.052199999999999996,0.08400000000000002,0.11400000000000002,0.21,0.39,0.105,0.19949999999999998,0.017400000000000002,0.008700000000000001,0.026099999999999998,0.04200000000000001,0.05700000000000001,0.6299999999999999,1.17,0.31499999999999995,0.5985,0.052199999999999996,0.026099999999999998,0.0783,0.126,0.17099999999999999,1.2,2.1000000000000005,0.6,1.14,0.08400000000000002,0.04200000000000001,0.126,0.24000000000000005,0.30000000000000004,1.5,2.7,0.75,1.4249999999999998,0.11400000000000002,0.05700000000000001,0.17099999999999999,0.30000000000000004,0.39],"xty":[6.0,10.875,3.0,5.699999999999999,0.4650000000000001,0.23250000000000004,0.6975,1.2000000000000002,1.5750000000000002],"err_ewma":0.07026032436570988,"ewma_alpha":0.1},"bandit":{"policy":"Ucb1","epsilon":0.1,"ucb_c":0.5,"rng":{"state":7844},"contexts":{"F1I1M0":[{"pulls":1,"reward_sum":0.5,"regret_sum":0.5},{"pulls":1,"reward_sum":0.75,"regret_sum":0.25},{"pulls":1,"reward_sum":1.0,"regret_sum":0.0},{"pulls":0,"reward_sum":0.0,"regret_sum":0.0},{"pulls":0,"reward_sum":0.0,"regret_sum":0.0},{"pulls":0,"reward_sum":0.0,"regret_sum":0.0},{"pulls":0,"reward_sum":0.0,"regret_sum":0.0},{"pulls":0,"reward_sum":0.0,"regret_sum":0.0},{"pulls":0,"reward_sum":0.0,"regret_sum":0.0},{"pulls":0,"reward_sum":0.0,"regret_sum":0.0},{"pulls":0,"reward_sum":0.0,"regret_sum":0.0}]},"global":[{"pulls":1,"reward_sum":0.5,"regret_sum":0.5},{"pulls":1,"reward_sum":0.75,"regret_sum":0.25},{"pulls":1,"reward_sum":1.0,"regret_sum":0.0},{"pulls":0,"reward_sum":0.0,"regret_sum":0.0},{"pulls":0,"reward_sum":0.0,"regret_sum":0.0},{"pulls":0,"reward_sum":0.0,"regret_sum":0.0},{"pulls":0,"reward_sum":0.0,"regret_sum":0.0},{"pulls":0,"reward_sum":0.0,"regret_sum":0.0},{"pulls":0,"reward_sum":0.0,"regret_sum":0.0},{"pulls":0,"reward_sum":0.0,"regret_sum":0.0},{"pulls":0,"reward_sum":0.0,"regret_sum":0.0}],"total_pulls":3,"total_regret":0.75,"full_info":false},"predictions":3}"#;
    const PARENT_LEARNER_SUMMARY: &str = r#"{"train_updates":6,"predictions":3,"err_ewma":0.07026032436570988,"bandit_pulls":3,"bandit_regret":0.75,"contexts":1,"arms":[["IPC",1,0.5],["AllConf",1,0.75],["Dcache",1,1.0],["FQ",0,0.0],["FP",0,0.0],["Sum2",0,0.0],["Diversity",0,0.0],["Balance",0,0.0],["Composite",0,0.0],["Score",0,0.0],["Learned",0,0.0]]}"#;

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

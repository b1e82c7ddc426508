//! `serve_loop`: the real `sos-serve` daemon, driven over loopback.
//!
//! The daemon is spawned as a child (default flags plus `--port 0`, a fresh
//! snapshot directory and `--calibration-cycles 30000`) and driven through
//! the repository's own `sos_bench::serve::Client` on two connections.
//! Connection A is a closed loop: it submits the jobs one after another,
//! each with its length as explicit `instructions` so the useful work is
//! known exactly, retrying on `backpressure`. Connection B is an open loop:
//! one `status` every 100 ms on a fixed schedule, timed from when it was due,
//! until every job has completed - so the number of samples does not depend
//! on how fast the replies come. It is the only workload that crosses the
//! protocol, serde, socket and thread-handoff layers, and the only one whose
//! user-facing number is a latency.
//!
//! One operation is one `submit` request. (`status` round trips are reported
//! per layer. The two cannot share a percentile: until the split writes on
//! both ends of the socket are fixed, a round trip costs one or two
//! delayed-ACK timeouts - 44 or 88 ms - and which one a connection gets
//! depends on kernel heuristics, so the median of a mixed population flips
//! between the two from run to run.)

use super::{balanced_trace, mix, peak_rss_mb, timed, Params, SETUP_REPS};
use crate::outcome::Run;
use crate::stats;
use crate::trace::Tracer;
use sos_bench::serve::{Client, Request};
use sos_core::opensys::{calibrate_benchmarks, JobArrival};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Jobs per second of requested run length.
const JOBS_PER_SECOND: u64 = 7;
const MEAN_JOB_CYCLES: u64 = 400_000;
const SMT: usize = 4;
const CALIBRATION_CYCLES: u64 = 30_000;
const STATUS_PERIOD: Duration = Duration::from_millis(100);
const BACKPRESSURE_RETRY: Duration = Duration::from_millis(20);
/// A run that has not finished by then is abandoned and counted as failed.
const LOAD_TIMEOUT: Duration = Duration::from_secs(120);
/// Requests per idle-daemon probe of a traced run.
const PROBE_REQUESTS: usize = 10;

/// Builds `sos-serve` (a no-op when it is fresh) and returns its path.
fn build_daemon() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "sos-bench",
            "--bin",
            "sos-serve",
        ])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err("building sos-serve failed".into());
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let bin = Path::new(&target).join("release/sos-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} is missing after the build", bin.display()))
    }
}

/// A running daemon. Dropping it kills the child, so a panic or an early
/// return never leaves one behind.
struct Daemon {
    child: Child,
    /// Kept open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
    snapshot_dir: PathBuf,
}

impl Daemon {
    /// Spawns the daemon and waits for its `listening on` banner.
    fn spawn(bin: &Path, snapshot_dir: PathBuf) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(&snapshot_dir);
        let mut child = Command::new(bin)
            .args([
                "--port",
                "0",
                "--calibration-cycles",
                &CALIBRATION_CYCLES.to_string(),
            ])
            .arg("--snapshot-dir")
            .arg(&snapshot_dir)
            .env("SOS_CACHE", "off")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let addr = match stdout.read_line(&mut banner) {
            Ok(n) if n > 0 => banner.trim().rsplit(' ').next().map(str::to_string),
            _ => None,
        };
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            addr: addr.clone().unwrap_or_default(),
            snapshot_dir,
        };
        if addr.is_none() || !banner.contains("listening on") {
            daemon.kill();
            return Err(format!("sos-serve did not come up (banner {banner:?})"));
        }
        Ok(daemon)
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Sends `shutdown` and waits for the process; true if it exited 0.
    fn shutdown(mut self) -> bool {
        let replied = Client::connect(&self.addr)
            .and_then(|mut c| c.request(&Request::verb("shutdown")))
            .is_ok_and(|r| r.ok);
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return replied && status.success();
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
        let _ = std::fs::remove_dir_all(&self.snapshot_dir);
    }
}

fn submit_request(job: &JobArrival) -> Request {
    Request {
        bench: Some(job.benchmark.name().to_string()),
        instructions: Some(job.instructions),
        phased: Some(job.phased),
        ..Request::verb("submit")
    }
}

/// One timed request: when it started (or was due), when its reply arrived.
type Timed = (Instant, Instant);

#[derive(Default)]
struct Submitted {
    requests: Vec<Timed>,
    accepted: u64,
    backpressure_retries: u64,
    failed: u64,
}

/// Connection A: submits every job in turn, retrying on backpressure.
fn submit_all(addr: &str, jobs: &[JobArrival], abort: &AtomicBool) -> Submitted {
    let mut out = Submitted::default();
    let Ok(mut client) = Client::connect(addr) else {
        out.failed = jobs.len() as u64;
        return out;
    };
    'jobs: for job in jobs {
        let req = submit_request(job);
        loop {
            if abort.load(Ordering::SeqCst) {
                out.failed += 1;
                continue 'jobs;
            }
            let start = Instant::now();
            let reply = client.request(&req);
            out.requests.push((start, Instant::now()));
            match reply {
                Ok(r) if r.ok => {
                    out.accepted += 1;
                    continue 'jobs;
                }
                Ok(r) if r.error.as_deref() == Some("backpressure") => {
                    out.backpressure_retries += 1;
                    std::thread::sleep(BACKPRESSURE_RETRY);
                }
                _ => {
                    out.failed += 1;
                    continue 'jobs;
                }
            }
        }
    }
    out
}

#[derive(Default)]
struct Polled {
    /// (due, reply arrived) of every status request.
    requests: Vec<Timed>,
    /// Milliseconds each request was sent after it was due.
    late_ms: Vec<f64>,
    completed: u64,
    failed: u64,
    finished_at: Option<Instant>,
}

/// Connection B: one `status` per period on a fixed schedule until `jobs`
/// have completed.
fn poll_status(addr: &str, jobs: u64, t0: Instant, abort: &AtomicBool) -> Polled {
    let mut out = Polled::default();
    let Ok(mut client) = Client::connect(addr) else {
        out.failed = 1;
        abort.store(true, Ordering::SeqCst);
        return out;
    };
    for k in 0u32.. {
        let due = t0 + STATUS_PERIOD * k;
        if due.duration_since(t0) > LOAD_TIMEOUT {
            out.failed += 1;
            abort.store(true, Ordering::SeqCst);
            break;
        }
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        out.late_ms
            .push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        let reply = client.request(&Request::verb("status"));
        out.requests.push((due, Instant::now()));
        match reply.ok().and_then(|r| r.status) {
            Some(st) => {
                out.completed = st.completed;
                if st.completed >= jobs {
                    out.finished_at = Some(Instant::now());
                    break;
                }
            }
            None => {
                out.failed += 1;
                abort.store(true, Ordering::SeqCst);
                break;
            }
        }
    }
    out
}

fn ms(t: &Timed) -> f64 {
    t.1.duration_since(t.0).as_secs_f64() * 1e3
}

/// Median round trip in ms of `PROBE_REQUESTS` calls of `request`.
fn probe(mut request: impl FnMut() -> bool, run: &mut Run, what: &str) -> f64 {
    let mut failed = 0;
    let rtts: Vec<f64> = (0..PROBE_REQUESTS)
        .map(|_| {
            let (ok, s) = timed(&mut request);
            failed += u64::from(!ok);
            s * 1e3
        })
        .collect();
    run.checks.ops(PROBE_REQUESTS as u64, failed, || {
        format!("{what} probe requests")
    });
    stats::median(&rtts)
}

/// A `status` round trip on the harness's own socket: `TCP_NODELAY`, the
/// request line sent in one write. Separates the client library's share of
/// the round trip from the daemon's.
fn raw_status(stream: &mut BufReader<TcpStream>) -> bool {
    let mut reply = String::new();
    stream
        .get_mut()
        .write_all(b"{\"cmd\":\"status\"}\n")
        .is_ok()
        && stream.read_line(&mut reply).is_ok_and(|n| n > 0)
        && reply.contains("\"ok\":true")
}

pub fn run(p: &Params, tracer: &mut Tracer) -> Result<Run, String> {
    let mut run = Run::default();
    let bin = build_daemon()?;
    let seed = mix(p.seed, 0x5e47e);
    let jobs = (JOBS_PER_SECOND * p.seconds) as usize;
    let out_dir = PathBuf::from(format!("benchmark/out/serve-{}", std::process::id()));

    // Set-up: the trace (lengths in instructions at the harness's own solo
    // calibration) and a daemon that is listening. Daemons of all but the
    // last repetition are shut down again, outside the timed part.
    let mut last = None;
    for rep in 0..SETUP_REPS {
        if let Some((_, daemon, _)) = last.take() {
            run.checks.op(Daemon::shutdown(daemon), || {
                "a set-up daemon did not shut down with exit code 0".into()
            });
        }
        let (setup, s) = timed(|| {
            let solo = calibrate_benchmarks(SMT, CALIBRATION_CYCLES, seed);
            // The loop is closed, so only the order of the trace matters.
            let trace = balanced_trace(seed, jobs, MEAN_JOB_CYCLES, 1, &solo);
            let (daemon, startup_s) = timed(|| Daemon::spawn(&bin, out_dir.join(rep.to_string())));
            daemon.map(|d| (trace, d, startup_s))
        });
        run.setup_reps_s.push(s);
        last = Some(setup?);
    }
    let (trace, daemon, startup_s) = last.expect("SETUP_REPS > 0");
    let pid = daemon.child.id();

    if tracer.is_on() {
        run.layer("serve.startup_s", startup_s);
        tracer.begin("serve.idle_probe");
        let mut client = Client::connect(&daemon.addr).map_err(|e| e.to_string())?;
        let idle = probe(
            || client.request(&Request::verb("status")).is_ok_and(|r| r.ok),
            &mut run,
            "idle status",
        );
        run.layer("serve.idle_rtt_ms_p50", idle);
        let raw = TcpStream::connect(&daemon.addr).map_err(|e| e.to_string())?;
        raw.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut raw = BufReader::new(raw);
        let raw_rtt = probe(|| raw_status(&mut raw), &mut run, "raw status");
        run.layer("serve.raw_rtt_ms_p50", raw_rtt);
        tracer.end();
    }

    // The timed section: both connections run until every job completed.
    let abort = AtomicBool::new(false);
    let t0 = Instant::now();
    tracer.begin("serve_loop.load");
    let (submitted, polled) = std::thread::scope(|s| {
        let a = s.spawn(|| submit_all(&daemon.addr, &trace, &abort));
        let b = s.spawn(|| poll_status(&daemon.addr, jobs as u64, t0, &abort));
        (
            a.join().expect("submitter panicked"),
            b.join().expect("poller panicked"),
        )
    });
    for (start, end) in &submitted.requests {
        tracer.add("serve.submit", *start, *end);
    }
    for (due, end) in &polled.requests {
        tracer.add("serve.status", *due, *end);
    }
    tracer.end();
    run.wall_s = polled
        .finished_at
        .unwrap_or_else(Instant::now)
        .duration_since(t0)
        .as_secs_f64();
    let submit_ms: Vec<f64> = submitted.requests.iter().map(ms).collect();
    let status_ms: Vec<f64> = polled.requests.iter().map(ms).collect();
    run.ops_ms = submit_ms.clone();
    run.instructions = trace.iter().map(|j| j.instructions).sum();

    let requests = (submitted.requests.len() + polled.requests.len()) as u64;
    run.checks
        .ops(requests, submitted.failed + polled.failed, || {
            "requests errored or finally refused".into()
        });
    let done = polled.completed.min(jobs as u64);
    run.checks.ops(jobs as u64, jobs as u64 - done, || {
        "jobs not completed".into()
    });

    if tracer.is_on() {
        let mut client = Client::connect(&daemon.addr).map_err(|e| e.to_string())?;
        for verb in ["stats", "metrics"] {
            tracer.begin(if verb == "stats" {
                "serve.stats"
            } else {
                "serve.metrics"
            });
            let rtt = probe(
                || client.request(&Request::verb(verb)).is_ok_and(|r| r.ok),
                &mut run,
                verb,
            );
            tracer.end();
            run.layer(format!("serve.{verb}_ms"), rtt);
        }
    }
    run.peak_rss_mb = peak_rss_mb(Some(pid));

    tracer.begin("serve.shutdown");
    let (clean, drain_s) = timed(|| daemon.shutdown());
    tracer.end();
    run.checks.op(clean, || {
        "the daemon did not shut down with exit code 0".into()
    });
    let _ = std::fs::remove_dir_all(&out_dir);

    run.sim.int("jobs", jobs as u64);
    run.sim.int("instructions", run.instructions);
    run.sim.int("accepted", submitted.accepted);
    run.sim.int("completed", polled.completed);

    if tracer.is_on() {
        let (submit, status) = (stats::sorted(&submit_ms), stats::sorted(&status_ms));
        run.layer(
            "serve.submit_ms_p50",
            stats::percentile_sorted(&submit, 50.0),
        );
        run.layer(
            "serve.submit_ms_p95",
            stats::percentile_sorted(&submit, 95.0),
        );
        run.layer(
            "serve.status_ms_p50",
            stats::percentile_sorted(&status, 50.0),
        );
        run.layer(
            "serve.status_ms_p95",
            stats::percentile_sorted(&status, 95.0),
        );
        run.layer(
            "serve.status_late_ms_p95",
            stats::percentile(&polled.late_ms, 95.0),
        );
        run.layer("serve.requests", requests as f64);
        run.layer(
            "serve.backpressure_retries",
            submitted.backpressure_retries as f64,
        );
        run.layer("serve.drain_s", drain_s);
        run.layer("serve.daemon_rss_mb", run.peak_rss_mb);
        run.layer("serve.jobs_per_s", polled.completed as f64 / run.wall_s);
    }
    Ok(run)
}

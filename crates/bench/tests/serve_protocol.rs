//! Protocol round-trip tests against a live `sos-serve` daemon: malformed
//! input gets a diagnostic error reply (not a dropped connection), hostile
//! lines (oversized, non-UTF-8, cut short, duplicate keys) are bounded and
//! diagnosed, a full queue answers with explicit backpressure — but only to
//! submits that could succeed — and a drain completes every in-flight job
//! before replying.

mod common;

use common::{spawn_daemon, wait_exit};
use sos_bench::serve::{Client, Request, Response};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

/// Cycle budgets are tiny: these run against a debug-profile simulator.
const CALIBRATION: &[&str] = &["--calibration-cycles", "4000"];

#[test]
fn malformed_and_unknown_requests_get_error_replies() {
    let (mut daemon, addr) = spawn_daemon(CALIBRATION);
    let mut client = Client::connect(&addr).expect("connect");

    // Unparsable JSON: diagnostic reply, connection stays usable.
    let resp = client.send_line("{this is not json").expect("reply");
    assert!(!resp.ok);
    assert!(
        resp.error.as_deref().unwrap_or("").contains("unparsable"),
        "unexpected error: {:?}",
        resp.error
    );

    // Unknown verb.
    let resp = client.request(&Request::verb("frobnicate")).expect("reply");
    assert!(!resp.ok);
    assert!(resp.error.as_deref().unwrap_or("").contains("unknown cmd"));

    // Submit without a payload.
    let resp = client.request(&Request::verb("submit")).expect("reply");
    assert!(!resp.ok);
    assert!(resp.error.as_deref().unwrap_or("").contains("bench"));

    // Submit for a benchmark that does not exist.
    let resp = client
        .request(&Request::submit_cycles("no-such-bench", 10_000, false))
        .expect("reply");
    assert!(!resp.ok);
    assert!(resp
        .error
        .as_deref()
        .unwrap_or("")
        .contains("unknown bench"));

    // The connection survived all of the above.
    let resp = client.request(&Request::verb("status")).expect("reply");
    assert!(resp.ok);
    let status = resp.status.expect("status payload");
    assert_eq!(status.submitted, 0);
    assert_eq!(status.live, 0);

    let resp = client.request(&Request::verb("shutdown")).expect("reply");
    assert!(resp.ok);
    let status = wait_exit(&mut daemon, Duration::from_secs(60));
    assert!(status.success(), "daemon exited {status:?}");
}

#[test]
fn full_queue_answers_backpressure() {
    let mut args = vec!["--queue-cap", "2"];
    args.extend_from_slice(CALIBRATION);
    let (mut daemon, addr) = spawn_daemon(&args);
    let mut client = Client::connect(&addr).expect("connect");

    // Two long jobs fill the system; they cannot complete between requests.
    for _ in 0..2 {
        let resp = client
            .request(&Request::submit_cycles("gcc", 50_000_000, false))
            .expect("reply");
        assert!(resp.ok, "admission failed: {:?}", resp.error);
    }
    let resp = client
        .request(&Request::submit_cycles("gcc", 50_000_000, false))
        .expect("reply");
    assert!(!resp.ok, "third submit must be refused at cap 2");
    assert_eq!(resp.error.as_deref(), Some("backpressure"));

    let status = client
        .request(&Request::verb("status"))
        .expect("reply")
        .status
        .expect("status payload");
    assert_eq!(status.live, 2);
    assert_eq!(status.rejected, 1);

    // A submit that can never succeed is told so even while the queue is
    // full: `backpressure` would have every retrying client retry it forever.
    let malformed = [
        (Request::verb("submit"), "bench field"),
        (
            Request::submit_cycles("no-such-bench", 10_000, false),
            "unknown bench",
        ),
        (
            Request {
                cycles: None,
                ..Request::submit_cycles("gcc", 0, false)
            },
            "cycles or instructions",
        ),
        (
            Request {
                instructions: Some(0),
                ..Request::submit_cycles("gcc", 10_000, false)
            },
            "must be positive",
        ),
    ];
    for (req, diagnostic) in &malformed {
        let resp = client.request(req).expect("reply");
        let error = resp.error.unwrap_or_default();
        assert!(error.contains(diagnostic), "{req:?} answered {error:?}");
    }
    let errors = client
        .request(&Request::verb("stats"))
        .expect("reply")
        .stats
        .and_then(|s| s.errors)
        .expect("error classes in stats");
    assert_eq!(errors["bad_submit"], 4);
    assert_eq!(errors["backpressure"], 1);
    let status = client
        .request(&Request::verb("status"))
        .expect("reply")
        .status
        .expect("status payload");
    assert_eq!(status.rejected, 1, "a malformed submit is not a rejection");

    // Draining those 50M-cycle jobs would take minutes in a debug build;
    // backpressure is what was under test, so just kill the daemon.
    daemon.kill().expect("kill daemon");
    let _ = daemon.wait();
}

#[test]
fn drain_completes_all_inflight_jobs_then_refuses_admission() {
    let (mut daemon, addr) = spawn_daemon(CALIBRATION);
    let mut client = Client::connect(&addr).expect("connect");

    for _ in 0..4 {
        let resp = client
            .request(&Request::submit_cycles("mg", 100_000, false))
            .expect("reply");
        assert!(resp.ok, "admission failed: {:?}", resp.error);
    }

    // Drain blocks until every in-flight job has departed.
    let resp = client.request(&Request::verb("drain")).expect("reply");
    assert!(resp.ok);
    let status = client
        .request(&Request::verb("status"))
        .expect("reply")
        .status
        .expect("status payload");
    assert_eq!(status.live, 0, "drain replied with jobs still in flight");
    assert_eq!(status.completed, 4);
    assert!(status.draining);

    // Admission is closed once draining.
    let resp = client
        .request(&Request::submit_cycles("gcc", 100_000, false))
        .expect("reply");
    assert!(!resp.ok);
    assert_eq!(resp.error.as_deref(), Some("draining"));

    // Stats over the drained run: 4 records, finite latency summary.
    let stats = client
        .request(&Request::verb("stats"))
        .expect("reply")
        .stats
        .expect("stats payload");
    assert_eq!(stats.completed, 4);
    assert!(stats.mean_response.is_finite() && stats.mean_response > 0.0);
    assert!(stats.response.p50 <= stats.response.p95);
    assert!(stats.response.p95 <= stats.response.p99);
    // Slowdown hovers near 1 for a lightly-loaded machine; the tiny
    // calibration window makes the solo-IPC denominator noisy, so only
    // sanity-bound it rather than asserting the ideal >= 1.
    assert!(
        stats.mean_slowdown.is_finite() && stats.mean_slowdown > 0.5,
        "implausible slowdown {}",
        stats.mean_slowdown
    );

    let resp = client.request(&Request::verb("shutdown")).expect("reply");
    assert!(resp.ok);
    let status = wait_exit(&mut daemon, Duration::from_secs(60));
    assert!(status.success(), "daemon exited {status:?}");
}

/// Writes raw bytes and reads one reply line off the same socket.
fn raw_round_trip(stream: &mut BufReader<TcpStream>, bytes: &[u8]) -> Response {
    stream.get_mut().write_all(bytes).expect("write request");
    let mut reply = String::new();
    stream.read_line(&mut reply).expect("read reply");
    serde_json::from_str(&reply).unwrap_or_else(|e| panic!("bad reply {reply:?}: {e}"))
}

#[test]
fn hostile_lines_are_bounded_diagnosed_and_leave_the_connection_usable() {
    const MAX_LINE: usize = 64 * 1024;
    let (mut daemon, addr) = spawn_daemon(CALIBRATION);
    let connect = || BufReader::new(TcpStream::connect(&addr).expect("connect"));
    let mut conn = connect();
    let good_status = |conn: &mut BufReader<TcpStream>| {
        let resp = raw_round_trip(conn, b"{\"cmd\":\"status\"}\n");
        assert!(resp.ok && resp.status.is_some(), "connection unusable");
    };

    // A line over the cap is refused without being buffered whole, and
    // skipped to its newline: one reply, then the next request parses.
    let mut oversized = vec![b'x'; 3 * MAX_LINE];
    oversized.push(b'\n');
    let resp = raw_round_trip(&mut conn, &oversized);
    assert_eq!(resp.error.as_deref(), Some("request line too long"));
    good_status(&mut conn);
    // Exactly at the cap is still a request.
    let mut at_cap = b"{\"cmd\":\"status\"".to_vec();
    at_cap.resize(MAX_LINE - 1, b' ');
    at_cap.extend_from_slice(b"}\n");
    assert!(raw_round_trip(&mut conn, &at_cap).ok);

    // Not UTF-8: diagnosed, not a silently dropped connection.
    let resp = raw_round_trip(&mut conn, b"{\"cmd\":\"st\xff\xfetus\"}\n");
    assert_eq!(resp.error.as_deref(), Some("request is not UTF-8"));
    good_status(&mut conn);

    // Duplicate keys: the vendored `serde_json` keeps the first occurrence
    // (upstream serde would refuse the object). Pinned, not endorsed.
    let resp = raw_round_trip(&mut conn, b"{\"cmd\":\"status\",\"cmd\":\"stats\"}\n");
    assert!(resp.ok && resp.status.is_some() && resp.stats.is_none());
    good_status(&mut conn);

    // A line cut short by a half-closed socket is answered as the broken
    // JSON it is; the daemon then sees the end of the stream.
    let mut cut = connect();
    cut.get_mut().write_all(b"{\"cmd\":\"sta").expect("write");
    cut.get_mut().shutdown(Shutdown::Write).expect("half-close");
    let mut reply = String::new();
    cut.read_line(&mut reply).expect("read reply");
    let resp: Response = serde_json::from_str(&reply).expect("reply parses");
    assert!(resp.error.unwrap_or_default().contains("unparsable"));
    reply.clear();
    assert_eq!(cut.read_line(&mut reply).expect("read eof"), 0);

    let mut client = Client::connect(&addr).expect("connect");
    let errors = client
        .request(&Request::verb("stats"))
        .expect("reply")
        .stats
        .and_then(|s| s.errors)
        .expect("error classes in stats");
    assert_eq!(errors["unparsable"], 3, "too long + not UTF-8 + cut short");

    let resp = client.request(&Request::verb("shutdown")).expect("reply");
    assert!(resp.ok);
    let status = wait_exit(&mut daemon, Duration::from_secs(60));
    assert!(status.success(), "daemon exited {status:?}");
}

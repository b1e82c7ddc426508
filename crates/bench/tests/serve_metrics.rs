//! End-to-end tests of the live observability surface: the `metrics` verb
//! (versioned snapshot + Prometheus exposition), per-verb request series,
//! per-class protocol error counters, and the `sos-top` snapshot mode.

mod common;

use common::{spawn_daemon, wait_exit};
use sos_bench::serve::{Client, Request};
use sos_core::telemetry::METRICS_VERSION;
use std::time::Duration;

/// Cycle budgets are tiny: these run against a debug-profile simulator.
const CALIBRATION: &[&str] = &["--calibration-cycles", "4000"];

#[test]
fn metrics_verb_reports_live_series_and_exposition() {
    let (mut daemon, addr) = spawn_daemon(CALIBRATION);
    let mut client = Client::connect(&addr).expect("connect");

    for _ in 0..4 {
        let resp = client
            .request(&Request::submit_cycles("mg", 100_000, false))
            .expect("reply");
        assert!(resp.ok, "admission failed: {:?}", resp.error);
    }
    let resp = client.request(&Request::verb("drain")).expect("reply");
    assert!(resp.ok);

    let reply = client.request(&Request::verb("metrics")).expect("reply");
    assert!(reply.ok);
    let m = reply.metrics.expect("metrics payload");
    let snap = &m.snapshot;
    assert_eq!(snap.version, METRICS_VERSION);
    assert!(snap.now_cycles > 0);

    // Request and lifecycle counters.
    assert_eq!(snap.counters["serve.requests.submit"], 4);
    assert_eq!(snap.counters["serve.submitted"], 4);
    assert_eq!(snap.counters["serve.completed"], 4);
    assert_eq!(snap.counters["serve.requests.drain"], 1);
    // One request series per verb, listed from the start (no verb has been
    // unknown yet, so that lazily created series is absent).
    let verbs: Vec<&str> = snap
        .counters
        .keys()
        .filter_map(|k| k.strip_prefix("serve.requests."))
        .collect();
    let six = ["drain", "metrics", "shutdown", "stats", "status", "submit"];
    assert_eq!(verbs, six);
    assert!(snap.counters["engine.timeslices"] > 0);
    assert_eq!(snap.gauges["serve.queue_depth"], 0.0);

    // Response-time histogram: all four departures.
    let h = &snap.histograms["serve.response_cycles"];
    assert_eq!(h.count, 4);
    assert_eq!(h.buckets.iter().sum::<u64>(), 4);
    assert!(h.approx_quantile(0.5) > 0);
    // The `stats` verb's approximate percentiles are this histogram's.
    let stats = client
        .request(&Request::verb("stats"))
        .expect("reply")
        .stats
        .expect("stats payload");
    assert_eq!(stats.response_approx, h.percentile_summary());

    // Both SLOs saw every departure.
    assert_eq!(m.slos["serve.response_cycles"].total, 4);
    assert_eq!(m.slos["serve.slowdown_x100"].total, 4);
    let slo = &m.slos["serve.response_cycles"];
    assert!((0.0..=1.0).contains(&slo.attainment));

    // The exposition carries the same data in Prometheus text format.
    assert!(m.prometheus.contains("# TYPE sos_serve_submitted counter"));
    assert!(m.prometheus.contains("sos_serve_submitted 4"));
    assert!(m
        .prometheus
        .contains("# TYPE sos_serve_response_cycles histogram"));
    assert!(m.prometheus.contains("sos_serve_response_cycles_count 4"));
    assert!(m
        .prometheus
        .contains("sos_serve_response_cycles_bucket{le=\"+Inf\"} 4"));
    assert!(m
        .prometheus
        .contains("sos_serve_response_cycles_slo_attainment"));

    let resp = client.request(&Request::verb("shutdown")).expect("reply");
    assert!(resp.ok);
    let status = wait_exit(&mut daemon, Duration::from_secs(60));
    assert!(status.success(), "daemon exited {status:?}");
}

#[test]
fn protocol_errors_are_counted_by_class() {
    let (mut daemon, addr) = spawn_daemon(CALIBRATION);
    let mut client = Client::connect(&addr).expect("connect");

    // One error of each class that needs no queue pressure.
    assert!(!client.send_line("{not json").expect("reply").ok);
    assert!(
        !client
            .request(&Request::verb("frobnicate"))
            .expect("reply")
            .ok
    );
    // The retired run-time `fastsim` toggle is an unknown cmd like any
    // other, whatever fields an old client sends along.
    let retired = client
        .send_line(r#"{"cmd":"fastsim","fast":true,"fast_threshold":0.1}"#)
        .expect("reply");
    let diagnostic = retired.error.unwrap_or_default();
    assert!(diagnostic.contains("unknown cmd"), "{diagnostic:?}");
    assert!(!client.request(&Request::verb("submit")).expect("reply").ok);
    assert!(
        !client
            .request(&Request::submit_cycles("no-such-bench", 10_000, false))
            .expect("reply")
            .ok
    );
    let resp = client.request(&Request::verb("drain")).expect("reply");
    assert!(resp.ok);
    let resp = client
        .request(&Request::submit_cycles("gcc", 10_000, false))
        .expect("reply");
    assert_eq!(resp.error.as_deref(), Some("draining"));

    // The stats verb exposes the per-class totals...
    let stats = client
        .request(&Request::verb("stats"))
        .expect("reply")
        .stats
        .expect("stats payload");
    let errors = stats.errors.expect("error classes in stats");
    assert_eq!(errors["unparsable"], 1);
    assert_eq!(errors["unknown_cmd"], 2, "frobnicate + fastsim");
    assert_eq!(errors["bad_submit"], 2, "missing bench + unknown bench");
    assert_eq!(errors["draining"], 1);
    assert_eq!(errors["backpressure"], 0);

    // ...and the metrics snapshot carries the same counters.
    let m = client
        .request(&Request::verb("metrics"))
        .expect("reply")
        .metrics
        .expect("metrics payload");
    assert_eq!(m.snapshot.counters["serve.errors.unparsable"], 1);
    assert_eq!(m.snapshot.counters["serve.errors.unknown_cmd"], 2);
    assert_eq!(m.snapshot.counters["serve.errors.bad_submit"], 2);
    assert_eq!(m.snapshot.counters["serve.errors.draining"], 1);
    assert_eq!(m.snapshot.counters["serve.requests.unknown"], 2);
    assert!(!m.snapshot.counters.contains_key("serve.requests.fastsim"));

    let resp = client.request(&Request::verb("shutdown")).expect("reply");
    assert!(resp.ok);
    let status = wait_exit(&mut daemon, Duration::from_secs(60));
    assert!(status.success(), "daemon exited {status:?}");
}

#[test]
fn sos_top_once_renders_a_dashboard() {
    let (mut daemon, addr) = spawn_daemon(CALIBRATION);
    let mut client = Client::connect(&addr).expect("connect");
    let resp = client
        .request(&Request::submit_cycles("mg", 100_000, false))
        .expect("reply");
    assert!(resp.ok);
    let resp = client.request(&Request::verb("drain")).expect("reply");
    assert!(resp.ok);

    let once = std::process::Command::new(env!("CARGO_BIN_EXE_sos-top"))
        .args(["--addr", &addr, "--once"])
        .output()
        .expect("run sos-top --once");
    assert!(once.status.success(), "sos-top --once exited {once:?}");
    let text = String::from_utf8_lossy(&once.stdout);
    assert!(text.contains("COUNTER"), "missing counters table: {text}");
    assert!(text.contains("serve.submitted"));
    assert!(text.contains("serve.response_cycles"));
    assert!(text.contains("SLO"));

    let prom = std::process::Command::new(env!("CARGO_BIN_EXE_sos-top"))
        .args(["--addr", &addr, "--prom"])
        .output()
        .expect("run sos-top --prom");
    assert!(prom.status.success(), "sos-top --prom exited {prom:?}");
    let text = String::from_utf8_lossy(&prom.stdout);
    assert!(text.contains("# TYPE sos_serve_submitted counter"));

    let resp = client.request(&Request::verb("shutdown")).expect("reply");
    assert!(resp.ok);
    let status = wait_exit(&mut daemon, Duration::from_secs(60));
    assert!(status.success(), "daemon exited {status:?}");
}

//! Golden test for request-scoped job tracing: a seeded 3-job run through
//! `OnlineEngine` with job spans enabled must produce a byte-identical
//! Chrome trace across reruns, with the full span tree per job
//! (admit → queue wait → schedule decision → timeslices → complete) on that
//! job's own track.
//!
//! This lives in its own integration-test binary because the telemetry
//! recorder is process-global: sharing a process with other telemetry tests
//! would interleave their events into the trace under test. The two tests
//! here share that recorder too, so each run holds `LOCK` from `reset()` to
//! `drain()`.

use sos_core::online::{OnlineConfig, OnlineEngine, SchedulerKind};
use sos_core::opensys::JobArrival;
use sos_core::telemetry;
use sos_core::PredictorKind;
use std::sync::Mutex;
use workloads::spec::Benchmark;

static LOCK: Mutex<()> = Mutex::new(());

/// Runs the seeded 3-job scenario with job spans on and returns the Chrome
/// trace JSON.
fn traced_run() -> String {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::reset();
    telemetry::enable();
    let cfg = OnlineConfig {
        smt: 2,
        timeslice: 2_000,
        sample_schedules: 2,
        predictor: PredictorKind::Ipc,
        drift_threshold: None,
        base_interval: 20_000,
        seed: 7,
        fastsim: None,
        learn: None,
    };
    let mut engine = OnlineEngine::new(SchedulerKind::Sos, &cfg);
    engine.set_job_spans(true);
    let jobs = [
        (Benchmark::Gcc, 40_000, false),
        (Benchmark::Mg, 30_000, true),
        (Benchmark::Swim, 20_000, false),
    ];
    for (benchmark, instructions, phased) in jobs {
        engine.submit(JobArrival {
            arrival: engine.now(),
            benchmark,
            instructions,
            phased,
        });
    }
    let mut safety = 0;
    while engine.live_count() > 0 {
        engine.step();
        safety += 1;
        assert!(safety < 100_000, "run did not terminate");
    }
    let snap = telemetry::global().drain();
    telemetry::disable();
    snap.chrome_trace_json()
}

#[test]
fn job_span_trace_is_byte_identical_across_reruns() {
    let first = traced_run();
    let second = traced_run();
    assert_eq!(first, second, "job-span trace must be deterministic");
}

#[test]
fn job_span_trace_contains_full_span_tree_per_job() {
    let trace = traced_run();

    // Each job gets its own named track (the exporter pretty-prints, so
    // needles use the `"key": "value"` form).
    for key in 0..3 {
        let track = format!("\"name\": \"job/{key}\"");
        assert!(
            trace.contains(&track),
            "missing thread_name metadata for job/{key}"
        );
    }

    // The lifecycle events appear once per job (B/E spans render the name in
    // both the begin and end record, so lifetime and queue_wait count 2×).
    for (needle, expected) in [
        ("\"name\": \"job.lifetime\"", 6),
        ("\"name\": \"job.queue_wait\"", 6),
        ("\"name\": \"job.admit\"", 3),
        ("\"name\": \"job.schedule_decision\"", 3),
        ("\"name\": \"job.complete\"", 3),
    ] {
        assert_eq!(
            trace.matches(needle).count(),
            expected,
            "unexpected count of {needle}"
        );
    }

    // Every job simulated at least one timeslice span (B and E balance, so
    // 3 jobs contribute at least 3 B/E pairs = 6 name occurrences).
    let slices = trace.matches("\"name\": \"job.timeslice\"").count();
    assert!(
        slices >= 6,
        "expected >=3 timeslice B/E pairs, saw {slices}"
    );

    // Schedule decisions carry the scheduling mode and the queue wait.
    assert!(trace.contains("\"mode\":"));
    assert!(trace.contains("\"wait_cycles\":"));
}

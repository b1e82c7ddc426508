//! Golden test for request-scoped job tracing: a seeded 3-job run through
//! `OnlineEngine` on a tracing telemetry handle must produce a
//! byte-identical Chrome trace across reruns — solo or next to another
//! traced engine on a second thread — with the full span tree per job
//! (admit → queue wait → schedule decision → timeslices → complete) on that
//! job's own track.
//!
//! Every run owns its handle (buffer and clock), so the tests here run in
//! parallel without any lock.

use smtsim::FastSimPolicy;
use sos_core::online::{OnlineConfig, OnlineEngine, SchedulerKind};
use sos_core::opensys::JobArrival;
use sos_core::telemetry::{EventPhase, Snapshot, Telemetry};
use sos_core::{ExperimentSpec, PredictorKind, SosConfig, SosScheduler};
use std::sync::Barrier;
use workloads::spec::Benchmark;

/// FNV-1a digest of [`traced_run`]'s output, recorded on the commit before
/// the process-wide recorder was replaced by the handle: the refactor must
/// not move a byte of the trace.
const GOLDEN_DIGEST: u64 = 0x36db_2d57_a67e_2285;
const GOLDEN_LEN: usize = 670_950;

/// [`sos_trace`]'s `(length, digest)`, recorded when a traced evaluation
/// became the one parallel fan-out, each task on a child handle of its own.
const SOS_GOLDEN: (usize, u64) = (2_661_912, 0x8d06_c65e_cc3d_8923);

/// The Chrome trace of [`fastsim_run`] as `(length, digest)`, recorded on
/// the same commit.
const FASTSIM_GOLDEN: (usize, u64) = (707_910, 0x352e_e186_5312_282f);

/// FNV-1a over the trace bytes.
fn digest(trace: &str) -> (usize, u64) {
    let hash = trace.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (trace.len(), hash)
}

/// Runs the seeded 3-job scenario on its own tracing handle and returns the
/// Chrome trace JSON. `before_step` runs ahead of every timeslice.
fn traced_run_with(before_step: impl FnMut()) -> String {
    let cfg = OnlineConfig {
        smt: 2,
        timeslice: 2_000,
        sample_schedules: 2,
        predictor: PredictorKind::Ipc,
        drift_threshold: None,
        base_interval: 20_000,
        seed: 7,
        fastsim: None,
    };
    let jobs = [
        (Benchmark::Gcc, 40_000, false),
        (Benchmark::Mg, 30_000, true),
        (Benchmark::Swim, 20_000, false),
    ];
    let (tel, _) = run_engine(&cfg, &jobs, before_step);
    tel.drain().chrome_trace_json()
}

/// Runs `(benchmark, instructions, phased)` jobs, all submitted at time 0,
/// to completion on `cfg` with a fresh tracing handle; returns the handle
/// and the finished engine. `before_step` runs ahead of every timeslice.
fn run_engine(
    cfg: &OnlineConfig,
    jobs: &[(Benchmark, u64, bool)],
    mut before_step: impl FnMut(),
) -> (Telemetry, OnlineEngine) {
    let tel = Telemetry::tracing();
    let mut engine = OnlineEngine::new(SchedulerKind::Sos, cfg);
    engine.set_telemetry(tel.clone());
    for &(benchmark, instructions, phased) in jobs {
        engine.submit(JobArrival {
            arrival: engine.now(),
            benchmark,
            instructions,
            phased,
        });
    }
    let mut safety = 0;
    while engine.live_count() > 0 {
        before_step();
        engine.step();
        safety += 1;
        assert!(safety < 100_000, "run did not terminate");
    }
    (tel, engine)
}

/// The closed-system protocol on a tracing handle: every slice the
/// `Runner` simulates (the calibration and each candidate's one run) is
/// traced, on the track of its task.
fn sos_trace() -> String {
    let tel = Telemetry::tracing();
    let spec: ExperimentSpec = "Jsb(4,2,2)".parse().unwrap();
    let cfg = SosConfig {
        cycle_scale: 20_000,
        calibration_cycles: 15_000,
        ..SosConfig::default()
    };
    let _ = SosScheduler::evaluate_experiment_traced(&spec, &cfg, 0, &tel);
    tel.drain().chrome_trace_json()
}

/// An FP-heavy pair under fast simulation, long enough for its phase to
/// lock; returns the drained handle and the finished engine.
fn fastsim_run() -> (Snapshot, OnlineEngine) {
    let cfg = OnlineConfig {
        smt: 2,
        timeslice: 2_000,
        sample_schedules: 2,
        predictor: PredictorKind::Ipc,
        drift_threshold: None,
        base_interval: 20_000,
        seed: 7,
        fastsim: Some(FastSimPolicy::default()),
    };
    let jobs = [
        (Benchmark::Fp, 200_000, false),
        (Benchmark::Swim, 200_000, false),
    ];
    let (tel, engine) = run_engine(&cfg, &jobs, || {});
    (tel.drain(), engine)
}

fn traced_run() -> String {
    traced_run_with(|| {})
}

#[test]
fn job_span_trace_is_byte_identical_across_reruns() {
    let first = traced_run();
    let second = traced_run();
    assert_eq!(first, second, "job-span trace must be deterministic");
}

#[test]
fn job_span_trace_matches_the_digest_recorded_before_the_refactor() {
    let trace = traced_run();
    let digest = trace.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!((trace.len(), digest), (GOLDEN_LEN, GOLDEN_DIGEST));
}

#[test]
fn runner_trace_matches_the_recorded_digest() {
    let trace = sos_trace();
    if std::env::var_os("JOB_TRACE_GOLDEN_PRINT").is_some() {
        eprintln!("sos {:?}", digest(&trace));
    }
    assert_eq!(digest(&trace), SOS_GOLDEN);
}

#[test]
fn extrapolated_slices_emit_no_simulator_events() {
    let (snap, engine) = fastsim_run();
    let trace = snap.chrome_trace_json();
    if std::env::var_os("JOB_TRACE_GOLDEN_PRINT").is_some() {
        eprintln!("fastsim {:?}", digest(&trace));
    }
    let extrapolated = engine.fastsim_counters().unwrap().extrapolated_slices;
    assert!(extrapolated > 0, "no phase locked");
    // Every slice run in detail is one `smtsim.timeslice` span; the
    // extrapolated ones are not simulated, so they are not traced either.
    let detailed = snap
        .events
        .iter()
        .filter(|e| e.name == "smtsim.timeslice" && e.phase == EventPhase::SpanStart)
        .count() as u64;
    assert_eq!(detailed + extrapolated, engine.timeslices());
    assert_eq!(digest(&trace), FASTSIM_GOLDEN);
}

#[test]
fn concurrent_traced_engines_each_match_a_solo_run() {
    // Both threads run the same scenario, so they take the same number of
    // steps; a barrier ahead of every step forces the two engines to record
    // interleaved. With one shared buffer and clock (the old process-wide
    // recorder) each trace would contain the other's events.
    let solo = traced_run();
    let barrier = Barrier::new(2);
    let (a, b) = std::thread::scope(|s| {
        let run = || {
            traced_run_with(|| {
                barrier.wait();
            })
        };
        let a = s.spawn(run);
        let b = s.spawn(run);
        (
            a.join().expect("first traced engine"),
            b.join().expect("second traced engine"),
        )
    });
    assert!(a == solo && b == solo, "a concurrent trace diverged");
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

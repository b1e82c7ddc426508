//! Deterministic-replay harness: the whole stack — engine, runner,
//! experiment protocol, telemetry — must be a pure function of its seeds.
//!
//! Each test runs the same configuration twice from scratch and demands
//! *byte-identical* serialized output, not merely approximately equal
//! numbers: a single nondeterministic counter (wall-clock timestamp, map
//! iteration order, uninitialized state carried across runs) shows up as a
//! diff here long before it would be visible in averaged results.

use smt_symbiosis::sos::runner::{RotationStats, Runner};
use smt_symbiosis::sos::schedule::Schedule;
use smt_symbiosis::sos::sos::{SosConfig, SosScheduler};
use smt_symbiosis::sos::telemetry::Telemetry;
use smt_symbiosis::sos::{ExperimentSpec, JobPool};
use smt_symbiosis::workloads::{Benchmark, JobSpec};
use smtsim::MachineConfig;

fn seeded_runner(seed: u64) -> Runner {
    let pool = JobPool::from_specs(
        &[
            JobSpec::single(Benchmark::Fp),
            JobSpec::single(Benchmark::Mg),
            JobSpec::single(Benchmark::Gcc),
            JobSpec::single(Benchmark::Go),
        ],
        seed,
    );
    Runner::new(MachineConfig::alpha21264_like(2), pool, 4_000)
}

fn rotations_json(seed: u64) -> String {
    let mut r = seeded_runner(seed);
    let s = Schedule::new(vec![0, 1, 2, 3], 2, 2);
    let rots: Vec<RotationStats> = r.run_schedule(&s, 3);
    serde_json::to_string(&rots).expect("rotation stats serialize")
}

#[test]
fn rotation_stats_replay_byte_identical() {
    let a = rotations_json(7);
    let b = rotations_json(7);
    assert_eq!(a, b, "same seed must replay to identical rotation counters");
    // And a different seed actually changes the workload (the comparison
    // above is not vacuous).
    assert_ne!(a, rotations_json(8));
}

#[test]
fn experiment_report_replay_byte_identical() {
    let spec: ExperimentSpec = "Jsb(4,2,2)".parse().expect("valid spec");
    let cfg = SosConfig {
        cycle_scale: 20_000,
        calibration_cycles: 15_000,
        ..SosConfig::default()
    };
    let run = || {
        let report = SosScheduler::evaluate_experiment(&spec, &cfg);
        serde_json::to_string(&report).expect("report serializes")
    };
    assert_eq!(
        run(),
        run(),
        "same seed and spec must replay to an identical report"
    );
}

#[test]
fn telemetry_event_stream_replays_byte_identical() {
    let run = || {
        let tel = Telemetry::tracing();
        let mut r = seeded_runner(11);
        r.attach_telemetry(&tel);
        let s = Schedule::new(vec![0, 1, 2, 3], 2, 2);
        let _ = r.run_schedule(&s, 2);
        tel.drain().events_jsonl()
    };
    let a = run();
    let b = run();
    assert!(
        !a.is_empty(),
        "an instrumented run must record telemetry events"
    );
    assert_eq!(
        a, b,
        "telemetry timestamps are simulated cycles, so the event stream must replay exactly"
    );
}

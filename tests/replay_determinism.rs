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

/// Detailed timeslices one evaluation of `spec` simulates: the calibration
/// (a warm-up and a measured slice per job group) plus, per candidate,
/// `rotations(R, N)` rotations of its schedule, where `R` is the sample's
/// rotation count and `N` the symbios phase's.
fn simulated_slices(
    spec: &ExperimentSpec,
    cfg: &SosConfig,
    rotations: impl Fn(u64, u64) -> u64,
) -> u64 {
    let groups = JobPool::from_specs(&spec.jobmix(), cfg.seed).groups().len() as u64;
    let timeslice = spec.timeslice(cfg.cycle_scale);
    let symbios_cycles = spec.symbios_cycles(cfg.cycle_scale);
    let candidates: u64 = SosScheduler::candidates(spec, cfg)
        .iter()
        .map(|s| {
            let slices = s.slices_per_rotation() as u64;
            let n = (symbios_cycles / (slices * timeslice)).max(1);
            rotations(cfg.rotations_per_sample as u64, n) * slices
        })
        .sum();
    2 * groups + candidates
}

#[test]
fn each_candidate_is_simulated_once() {
    let spec: ExperimentSpec = "Jsb(4,2,2)".parse().unwrap();
    let short_sample = SosConfig {
        cycle_scale: 20_000,
        calibration_cycles: 15_000,
        ..SosConfig::default()
    };
    // A sample longer than the symbios phase (100-cycle slices and a
    // 1000-cycle phase: N = 5 rotations of 2 slices): the phase's totals
    // then cover only the first N of the R sampled rotations.
    let long_sample = SosConfig {
        cycle_scale: 2_000_000,
        rotations_per_sample: 8,
        ..short_sample
    };
    assert_eq!(
        long_sample.rotations_per_sample as u64 * 2 * spec.timeslice(long_sample.cycle_scale),
        1_600
    );
    assert_eq!(spec.symbios_cycles(long_sample.cycle_scale), 1_000);
    let json = |r: &smt_symbiosis::sos::sos::ExperimentReport| serde_json::to_string(r).unwrap();
    for cfg in [short_sample, long_sample] {
        let metrics = Telemetry::metrics();
        let fused = SosScheduler::evaluate_experiment_traced(&spec, &cfg, 2, &metrics);
        assert_eq!(
            metrics.snapshot(0).counters["smtsim.timeslices"],
            simulated_slices(&spec, &cfg, |r, n| 1 + r.max(n)),
            "one warm-up rotation and max(R, N) rotations per candidate"
        );

        // A tracing handle runs the same fan-out, so it simulates the same
        // slices.
        let tracing = Telemetry::tracing();
        let traced = SosScheduler::evaluate_experiment_traced(&spec, &cfg, 2, &tracing);
        assert_eq!(
            tracing.snapshot(0).counters["smtsim.timeslices"],
            simulated_slices(&spec, &cfg, |r, n| 1 + r.max(n)),
        );

        let serial = SosScheduler::evaluate_experiment_with_workers(&spec, &cfg, 1);
        assert_eq!(json(&fused), json(&traced));
        assert_eq!(json(&fused), json(&serial));
    }
}

#[test]
fn traced_evaluation_is_byte_identical_for_every_worker_count() {
    let spec: ExperimentSpec = "Jsb(4,2,2)".parse().unwrap();
    let cfg = SosConfig {
        cycle_scale: 20_000,
        calibration_cycles: 15_000,
        ..SosConfig::default()
    };
    let run = |workers| {
        let tel = Telemetry::tracing();
        let report = SosScheduler::evaluate_experiment_traced(&spec, &cfg, workers, &tel);
        let snap = tel.drain();
        (
            serde_json::to_string(&report).unwrap(),
            snap.events_jsonl(),
            snap.metrics_jsonl(),
        )
    };
    let (report, events, metrics) = run(1);
    assert!(events.contains("smtsim.timeslice"));
    assert_eq!(run(2), (report.clone(), events, metrics));
    let off = SosScheduler::evaluate_experiment_with_workers(&spec, &cfg, 2);
    assert_eq!(report, serde_json::to_string(&off).unwrap());
}

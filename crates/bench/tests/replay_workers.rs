//! Replay across `parallel_map` worker counts.
//!
//! Each experiment is evaluated on its own single-threaded simulator seeded
//! only by `SosConfig::seed`, so the fan-out width must be invisible in the
//! results: running the same specs with one worker and with a pool must
//! produce byte-identical `ExperimentReport` JSON. A divergence here means
//! some experiment state leaked across threads (global state, iteration
//! order, or a wall-clock dependence).

use sos_core::par::parallel_map_with_workers;
use sos_core::sos::ExperimentReport;
use sos_core::{ExperimentSpec, SosConfig, SosScheduler};

fn quick_cfg() -> SosConfig {
    SosConfig {
        cycle_scale: 20_000,
        calibration_cycles: 15_000,
        ..SosConfig::default()
    }
}

fn report_json(specs: &[ExperimentSpec], workers: usize) -> Vec<String> {
    let cfg = quick_cfg();
    let reports: Vec<ExperimentReport> = parallel_map_with_workers(specs.to_vec(), workers, |s| {
        SosScheduler::evaluate_experiment(&s, &cfg)
    });
    reports
        .iter()
        .map(|r| serde_json::to_string(r).expect("report serializes"))
        .collect()
}

#[test]
fn reports_are_byte_identical_across_worker_counts() {
    let specs: Vec<ExperimentSpec> = ["Jsb(4,2,2)", "Jsb(5,2,2)", "Jsb(6,3,3)"]
        .iter()
        .map(|s| s.parse().expect("valid spec"))
        .collect();
    let serial = report_json(&specs, 1);
    let pooled = report_json(&specs, 3);
    assert_eq!(
        serial, pooled,
        "experiment reports must not depend on the worker-pool width"
    );
}

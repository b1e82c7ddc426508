//! The online engine and the batch open-system driver are the same state
//! machine: feeding a fixed arrival trace through `OnlineEngine`'s public
//! submit/step/jump_to API must reproduce `run_open_system_on_trace`'s
//! per-job response times *exactly* (bit-identical clocks), for both
//! scheduling policies. This is what keeps `sos-serve` answers consistent
//! with the fig5/fig6 batch numbers.

use sos_core::online::{JobRecord, OnlineEngine, SchedulerKind};
use sos_core::opensys::{
    arrival_trace, calibrate_benchmarks, run_open_system_on_trace, OpenSystemConfig,
};

fn small_config() -> OpenSystemConfig {
    // Tiny cycle budget: this runs a debug-profile simulator twice per
    // policy. The equivalence claim is scale-independent.
    let mut cfg = OpenSystemConfig::scaled(2);
    cfg.mean_job_cycles = 60_000;
    cfg.mean_interarrival = 30_000;
    cfg.num_jobs = 10;
    cfg.calibration_cycles = 4_000;
    cfg.phased_fraction = 0.3;
    cfg.seed = 0xE0_17;
    cfg
}

/// The open-system loop spelled out by hand. This is the one copy kept
/// outside `sos_core::online::replay` (which the batch driver runs): the
/// reference `replay` is checked against.
fn drive_engine(kind: SchedulerKind, cfg: &OpenSystemConfig) -> Vec<JobRecord> {
    let solo = calibrate_benchmarks(cfg.smt, cfg.calibration_cycles, cfg.seed);
    let trace = arrival_trace(cfg, &solo);
    let mut engine = OnlineEngine::new(kind, &cfg.online());
    let mut completed = Vec::new();
    let mut next = 0usize;
    while completed.len() < trace.len() {
        while next < trace.len() && trace[next].arrival <= engine.now() {
            engine.submit(trace[next].clone());
            next += 1;
        }
        if engine.live_count() == 0 {
            engine.jump_to(trace[next].arrival);
            continue;
        }
        completed.extend(engine.step());
    }
    completed
}

#[test]
fn engine_reproduces_batch_response_times_exactly() {
    let cfg = small_config();
    for kind in [SchedulerKind::Naive, SchedulerKind::Sos] {
        let batch = run_open_system_on_trace(
            kind,
            &cfg,
            &arrival_trace(
                &cfg,
                &calibrate_benchmarks(cfg.smt, cfg.calibration_cycles, cfg.seed),
            ),
        );
        let online = drive_engine(kind, &cfg);

        assert_eq!(batch.completed.len(), online.len(), "{kind:?} job counts");
        for (b, o) in batch.completed.iter().zip(&online) {
            assert_eq!(
                (b.arrival.arrival, b.departure),
                (o.arrival.arrival, o.departure),
                "{kind:?}: batch and engine-driven clocks diverged"
            );
            assert_eq!(b.response(), o.response());
        }
    }
}

#[test]
fn engine_runs_are_deterministic() {
    // Two independent engines over the same trace agree job for job — the
    // determinism `sos-serve` snapshots and `sos-loadgen` replays rely on.
    let cfg = small_config();
    let a = drive_engine(SchedulerKind::Sos, &cfg);
    let b = drive_engine(SchedulerKind::Sos, &cfg);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.departure, y.departure);
        assert_eq!(x.arrival.arrival, y.arrival.arrival);
    }
}

//! Accuracy and determinism guarantees of phase-aware fast simulation
//! (`smtsim::fastsim`): the extrapolator may only trade simulation *time*,
//! never reproducibility and never more than the advertised error band.
//!
//! Three families of guarantees, mirroring the CI accuracy harness
//! (`fastsim-compare`) at test scale:
//!
//! 1. **Determinism** — a fast run is a pure function of the seed: repeated
//!    runs and runs executed under different `parallel_map` worker counts
//!    produce byte-identical slice streams and identical phase boundaries
//!    (lock/fallback counters).
//! 2. **Forced drift** — an abrupt workload change under a locked phase must
//!    be caught by the judged re-sample slice and demoted to full detail
//!    (fallback), not extrapolated through.
//! 3. **Metamorphic accuracy** — enabling fast-sim on a fig5/fig6-style
//!    scenario changes weighted speedup and mean response time by at most
//!    ±2% relative to the full-detail run it extrapolates.

use smtsim::fastsim::{FastSim, FastSimPolicy};
use smtsim::{MachineConfig, Processor};
use sos_core::cluster::{ClusterConfig, ClusterEngine, DispatchPolicy};
use sos_core::job::JobPool;
use sos_core::online::SchedulerKind;
use sos_core::opensys::{
    arrival_trace, calibrate_benchmarks, run_open_system_on_trace, OpenSystemConfig,
};
use sos_core::par::parallel_map_with_workers;
use sos_core::report::JobSummary;
use sos_core::runner::Runner;
use sos_core::schedule::Schedule;
use sos_core::ws::weighted_speedup;
use workloads::jobmix::single_threaded_mix;
use workloads::{Benchmark, JobSpec};

const TIMESLICE: u64 = 5_000;

/// Relative error of `fast` against `detail`, as a fraction.
fn rel_err(fast: f64, detail: f64) -> f64 {
    if detail == 0.0 {
        return if fast == 0.0 { 0.0 } else { f64::INFINITY };
    }
    (fast - detail).abs() / detail.abs()
}

/// One closed-system fast run (fig4-style rotation of the Table 1 8-job
/// mix), fingerprinted for determinism comparison: every per-slice counter
/// that downstream metrics consume, plus the phase boundaries the detector
/// found.
fn closed_fast_run(seed: u64, rotations: usize) -> (Vec<(u64, u64, u64)>, String) {
    let specs = single_threaded_mix(8).expect("Table 1 has an 8-job mix");
    let pool = JobPool::from_specs(&specs, seed);
    let threads = pool.len();
    let mut runner = Runner::new(MachineConfig::alpha21264_like(4), pool, TIMESLICE);
    runner.set_fastsim(Some(FastSimPolicy::default()));
    let schedule = Schedule::new((0..threads).collect(), 4, 4);
    let mut fingerprint = Vec::new();
    for rot in runner.run_schedule(&schedule, rotations) {
        for s in &rot.slices {
            let committed: u64 = s.threads.iter().map(|t| t.committed).sum();
            fingerprint.push((s.cycles, committed, s.cache.l2_misses));
        }
    }
    let counters = format!("{:?}", runner.fastsim_counters().expect("fast-sim enabled"));
    (fingerprint, counters)
}

#[test]
fn fast_runs_are_deterministic_across_runs_and_worker_counts() {
    let seed = 0xFA57_0001;
    let rotations = 30;
    let baseline = closed_fast_run(seed, rotations);
    assert!(
        baseline.1.contains("phase_locks: ") && !baseline.1.contains("phase_locks: 0"),
        "the scenario must actually lock phases, got {}",
        baseline.1
    );
    assert!(
        !baseline.1.contains("extrapolated_slices: 0"),
        "the scenario must actually extrapolate, got {}",
        baseline.1
    );

    // Same seed, repeated sequentially: identical slices and boundaries.
    assert_eq!(baseline, closed_fast_run(seed, rotations), "repeat run");

    // Same seed, executed inside worker pools of different sizes: the
    // phase detector is engine-local state, so parallelism of the harness
    // around it must not leak into the result.
    for workers in [1, 4] {
        let runs = parallel_map_with_workers(vec![seed; 3], workers, move |s| {
            closed_fast_run(s, rotations)
        });
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(
                run, &baseline,
                "run {i} under {workers} worker(s) diverged from baseline"
            );
        }
    }
}

#[test]
fn abrupt_workload_change_forces_fallback() {
    // Drive the fast-sim slice protocol directly: lock a phase on an
    // FP-heavy pair, then swap in an integer/memory-bound pair *under the
    // same tuple key* (both pools number their streams 0 and 1) — the judged
    // re-sample slice must see the signature break (fp_share alone
    // collapses) and fall back to detail.
    let mut cpu = Processor::new(MachineConfig::alpha21264_like(2));
    let mut fs = FastSim::new(FastSimPolicy::default());
    let mut fp_pool = JobPool::from_specs(
        &[
            JobSpec::single(Benchmark::Fp),
            JobSpec::single(Benchmark::Swim),
        ],
        7,
    );
    let mut int_pool = JobPool::from_specs(
        &[
            JobSpec::single(Benchmark::Go),
            JobSpec::single(Benchmark::Is),
        ],
        7,
    );

    let slice = |pool: &mut JobPool, cpu: &mut Processor, fs: &mut FastSim| {
        fs.run_slice(cpu, &mut pool.select_dyn(&[0, 1]), TIMESLICE);
    };

    for _ in 0..40 {
        slice(&mut fp_pool, &mut cpu, &mut fs);
    }
    let before = *fs.counters();
    assert!(before.phase_locks >= 1, "FP phase must lock: {before:?}");
    assert!(
        before.extrapolated_slices >= 1,
        "FP phase must extrapolate: {before:?}"
    );
    assert_eq!(before.fallbacks, 0, "stationary phase must not fall back");

    // The workload changes abruptly under the locked phase.
    for _ in 0..150 {
        slice(&mut int_pool, &mut cpu, &mut fs);
        if fs.counters().fallbacks > 0 {
            break;
        }
    }
    let after = *fs.counters();
    assert!(
        after.fallbacks >= 1,
        "abrupt FP→int change must force a fallback: {after:?}"
    );
    // The new phase is allowed to re-lock — fallback demotes, it does not ban.
    assert!(
        after.detailed_slices > before.detailed_slices,
        "post-fallback slices must run detailed: {after:?}"
    );
}

#[test]
fn fast_mode_ws_is_within_two_percent_of_detail_closed_system() {
    // fig4-style closed rotation, where extrapolation coverage is high
    // (the same eight tuples recur every rotation): aggregate weighted
    // speedup of the fast run must stay within ±2% of full detail.
    let specs = single_threaded_mix(8).expect("Table 1 has an 8-job mix");
    let seed = 0xFA57_0002;
    let rotations = 40;
    let run = |fast: bool| {
        let pool = JobPool::from_specs(&specs, seed);
        let threads = pool.len();
        let mut runner = Runner::new(MachineConfig::alpha21264_like(4), pool, TIMESLICE);
        let solo = runner.calibrate_solo(TIMESLICE, TIMESLICE);
        if fast {
            runner.set_fastsim(Some(FastSimPolicy::default()));
        }
        let schedule = Schedule::new((0..threads).collect(), 4, 4);
        let mut committed = vec![0u64; threads];
        let mut cycles = 0u64;
        for rot in runner.run_schedule(&schedule, rotations) {
            for (t, c) in rot.committed_per_thread(threads).iter().enumerate() {
                committed[t] += c;
            }
            cycles += rot.cycles();
        }
        let extrap = runner
            .fastsim_counters()
            .map(|c| c.extrapolated_fraction())
            .unwrap_or(0.0);
        (weighted_speedup(&committed, cycles, &solo), extrap)
    };
    let (detail_ws, _) = run(false);
    let (fast_ws, extrap) = run(true);
    assert!(
        extrap > 0.5,
        "the accuracy claim is vacuous unless most cycles extrapolate, got {extrap:.3}"
    );
    let err = rel_err(fast_ws, detail_ws);
    assert!(
        err <= 0.02,
        "fast WS {fast_ws:.4} vs detail {detail_ws:.4}: {:.2}% > 2%",
        err * 100.0
    );
}

/// A fig5-style open-system scenario at debug-profile scale.
fn open_config() -> OpenSystemConfig {
    let mut cfg = OpenSystemConfig::scaled(2);
    cfg.mean_job_cycles = 150_000;
    cfg.mean_interarrival = 80_000;
    cfg.timeslice = 2_500;
    cfg.calibration_cycles = 6_000;
    cfg.num_jobs = 24;
    cfg.seed = 0xFA57_0003;
    cfg
}

#[test]
fn fast_mode_open_system_metrics_within_two_percent_of_detail() {
    // The open system (arrivals, departures, SOS sampling phases) bounds
    // extrapolation coverage structurally, but whatever *is* extrapolated
    // must not move the paper's metrics: weighted speedup (delivered
    // solo-work per cycle) and mean response within ±2% of full detail on
    // the identical arrival trace.
    let detail_cfg = open_config();
    let solo = calibrate_benchmarks(
        detail_cfg.smt,
        detail_cfg.calibration_cycles,
        detail_cfg.seed,
    );
    let trace = arrival_trace(&detail_cfg, &solo);
    let mut fast_cfg = detail_cfg.clone();
    fast_cfg.fastsim = Some(FastSimPolicy::with_threshold(0.05));

    // Delivered solo-work over the makespan.
    let ws_of = |res: &sos_core::opensys::OpenSystemResult| {
        JobSummary::of(&res.completed, &solo).weighted_speedup(res.cycles)
    };
    let mean_rt = |res: &sos_core::opensys::OpenSystemResult| {
        JobSummary::of(&res.completed, &solo).mean_response()
    };

    for kind in [SchedulerKind::Naive, SchedulerKind::Sos] {
        let detail = run_open_system_on_trace(kind, &detail_cfg, &trace);
        let fast = run_open_system_on_trace(kind, &fast_cfg, &trace);
        assert_eq!(detail.completed.len(), fast.completed.len(), "{kind:?}");
        let ws_err = rel_err(ws_of(&fast), ws_of(&detail));
        let rt_err = rel_err(mean_rt(&fast), mean_rt(&detail));
        assert!(
            ws_err <= 0.02,
            "{kind:?}: fast WS off by {:.2}% (> 2%)",
            ws_err * 100.0
        );
        assert!(
            rt_err <= 0.02,
            "{kind:?}: fast mean response off by {:.2}% (> 2%)",
            rt_err * 100.0
        );
    }
}

#[test]
fn fast_mode_cluster_metrics_within_two_percent_of_detail() {
    // The sharded cluster runs one fast-sim detector per shard engine; the
    // same ±2% bound must hold for the cluster-wide response metric on an
    // identical trace and shard layout.
    let detail_cfg = open_config();
    let solo = calibrate_benchmarks(
        detail_cfg.smt,
        detail_cfg.calibration_cycles,
        detail_cfg.seed,
    );
    let trace = arrival_trace(&detail_cfg, &solo);
    let mut fast_cfg = detail_cfg.clone();
    fast_cfg.fastsim = Some(FastSimPolicy::with_threshold(0.05));

    let run = |cfg: &OpenSystemConfig| {
        let ccfg = ClusterConfig::new(
            2,
            DispatchPolicy::Symbiosis,
            SchedulerKind::Sos,
            cfg.online(),
        );
        let mut engine = ClusterEngine::new(&ccfg);
        let done = engine.replay(&trace);
        let mean = done.iter().map(|j| j.response() as f64).sum::<f64>() / done.len().max(1) as f64;
        (done.len(), mean)
    };
    let (detail_n, detail_rt) = run(&detail_cfg);
    let (fast_n, fast_rt) = run(&fast_cfg);
    assert_eq!(detail_n, fast_n, "completion counts");
    let err = rel_err(fast_rt, detail_rt);
    assert!(
        err <= 0.02,
        "cluster fast mean response off by {:.2}% (> 2%)",
        err * 100.0
    );
}

#[test]
fn open_system_fast_engine_reports_policy_and_counters() {
    // The engine must echo the policy it runs and expose live counters —
    // what `sos-serve`'s status verb and the bench records publish.
    let mut cfg = open_config();
    cfg.num_jobs = 8;
    cfg.fastsim = Some(FastSimPolicy::default());
    let solo = calibrate_benchmarks(cfg.smt, cfg.calibration_cycles, cfg.seed);
    let trace = arrival_trace(&cfg, &solo);
    let one_core = ClusterConfig::new(
        1,
        DispatchPolicy::RoundRobin,
        SchedulerKind::Sos,
        cfg.online(),
    );
    let mut engine = ClusterEngine::new(&one_core);
    assert_eq!(engine.replay(&trace).len(), trace.len());
    let report = engine.report();
    assert_eq!(report.fastsim, Some(FastSimPolicy::default().describe()));
    assert_eq!(
        engine.extrapolated_slices(),
        Some(report.extrapolated_slices)
    );
    assert!(
        report.timeslices > report.extrapolated_slices,
        "an open-system run always has detailed slices ({} of {} extrapolated)",
        report.extrapolated_slices,
        report.timeslices
    );
}

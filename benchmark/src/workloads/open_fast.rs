//! `open_fast`: the open system, in full detail and under phase-aware sampled
//! fast simulation.
//!
//! An in-process `OnlineEngine` (SOS policy, `OpenSystemConfig::scaled(4)`
//! with jobs a quarter as long, a quarter of them strongly phased); the
//! harness drives `submit` / `step` / `jump_to` itself. The same trace runs
//! twice: in full detail, then with the default `FastSimPolicy`. It is the
//! only workload where `smtsim::fastsim` and `skip_instructions` carry a
//! large share of the simulated cycles, so a fastsim change shows here and
//! nowhere else, and its speed is reported with its error, as a pair.
//!
//! Throughput and operation latency are taken from the detailed run, and the
//! fast run is reported as a speed-up over it (`fast_speedup_x`).
//!
//! This is the one workload whose simulated inputs do not follow `--seed`.
//! Whether a coschedule's phase locks early, late or never is chaotic in the
//! inputs: over seeds, the extrapolated share of a trace this size ranges
//! from 0.35 to 0.64, the speed-up from 1.35x to 2.3x, and the weighted-
//! speedup error crosses the repository's 2 % gate on about one seed in four.
//! No bound of at most a quarter could tell such a spread from a regression,
//! and a run long enough to average it out would take minutes. So the trace
//! and the engine seed are fixed ([`FIXED_SEED`]): the simulated outputs are
//! then the same for every seed, which lets them be pinned for every seed,
//! and the seed's only role here is to be ignored.
//!
//! One operation is one `step` of the detailed run.

use super::{balanced_trace, mix, repeat_setup, timed, Params, FIXED_SEED};
use crate::outcome::Run;
use crate::stats;
use crate::trace::Tracer;
use smtsim::trace::InstructionSource;
use smtsim::{FastSimCounters, FastSimPolicy, StreamId};
use sos_core::online::{JobRecord, OnlineEngine, SchedulerKind};
use sos_core::opensys::{calibrate_benchmarks, JobArrival, OpenSystemConfig};
use std::collections::HashMap;
use std::time::Instant;
use workloads::Benchmark;

/// Jobs per second of requested run length.
const JOBS_PER_SECOND: u64 = 3;
/// Mean job length in solo cycles (a quarter of `scaled(4)`'s, so that a run
/// of a few seconds still sees dozens of arrivals and departures).
const MEAN_JOB_CYCLES: u64 = 500_000;
/// The repository's gate on fast-simulation error, in percent.
const WS_ERR_CEILING_PCT: f64 = 2.0;

fn config(p: &Params) -> OpenSystemConfig {
    let base = OpenSystemConfig::scaled(4);
    // Keep `scaled`'s offered load while shortening the jobs.
    let shrink = base.mean_job_cycles / MEAN_JOB_CYCLES;
    OpenSystemConfig {
        mean_job_cycles: MEAN_JOB_CYCLES,
        mean_interarrival: base.mean_interarrival / shrink,
        phased_fraction: 0.25,
        num_jobs: (JOBS_PER_SECOND * p.seconds) as usize,
        seed: mix(FIXED_SEED, 0x09e4),
        ..base
    }
}

/// What driving one trace through an engine yields.
struct Driven {
    completed: Vec<JobRecord>,
    now: u64,
    timeslices: u64,
    resamples: u64,
    fastsim: Option<FastSimCounters>,
    wall_s: f64,
    step_ms: Vec<f64>,
    /// Host microseconds of the steps that were extrapolated.
    extrap_step_us: Vec<f64>,
    submit_us: Vec<f64>,
}

/// Replays `trace` through a fresh engine with the open-system discipline
/// (submit what is due, step while busy, jump across idle gaps), timing every
/// call.
fn drive(cfg: &OpenSystemConfig, trace: &[JobArrival], tracer: &mut Tracer) -> Driven {
    let mut engine = OnlineEngine::new(SchedulerKind::Sos, &cfg.online());
    let mut d = Driven {
        completed: Vec::with_capacity(trace.len()),
        now: 0,
        timeslices: 0,
        resamples: 0,
        fastsim: None,
        wall_s: 0.0,
        step_ms: Vec::new(),
        extrap_step_us: Vec::new(),
        submit_us: Vec::new(),
    };
    let extrapolated = |e: &OnlineEngine| e.fastsim_counters().map_or(0, |c| c.extrapolated_slices);
    let mut next = 0;
    let start = Instant::now();
    while d.completed.len() < trace.len() {
        while next < trace.len() && trace[next].arrival <= engine.now() {
            tracer.begin("online.submit");
            let (_, s) = timed(|| engine.submit(trace[next].clone()));
            tracer.end();
            d.submit_us.push(s * 1e6);
            next += 1;
        }
        if engine.live_count() == 0 {
            tracer.begin("online.jump_to");
            engine.jump_to(trace[next].arrival);
            tracer.end();
            continue;
        }
        let before = extrapolated(&engine);
        tracer.begin("online.step");
        let (departed, s) = timed(|| engine.step());
        tracer.end();
        d.step_ms.push(s * 1e3);
        if extrapolated(&engine) > before {
            d.extrap_step_us.push(s * 1e6);
        }
        d.completed.extend(departed);
    }
    d.wall_s = start.elapsed().as_secs_f64();
    d.now = engine.now();
    d.timeslices = engine.timeslices();
    d.resamples = engine.resamples();
    d.fastsim = engine.fastsim_counters().cloned();
    d
}

/// Solo-equivalent cycles of completed work per busy machine cycle.
fn aggregate_ws(d: &Driven, solo: &HashMap<Benchmark, f64>, timeslice: u64) -> f64 {
    let solo_cycles: f64 = d
        .completed
        .iter()
        .map(|r| r.arrival.instructions as f64 / solo[&r.arrival.benchmark])
        .sum();
    solo_cycles / (d.timeslices * timeslice).max(1) as f64
}

pub fn mean_response_mcycles(completed: &[JobRecord]) -> f64 {
    completed.iter().map(|r| r.response() as f64).sum::<f64>() / completed.len().max(1) as f64 / 1e6
}

/// `skip_instructions` alone, in timeslice-sized strides, in million
/// instructions skipped per second.
fn skip_probe(seed: u64) -> f64 {
    const CALLS: u64 = 200_000;
    const STRIDE: u64 = 10_000;
    let mut s = Benchmark::Swim.stream(StreamId(0), seed);
    let (_, secs) = timed(|| {
        for _ in 0..CALLS {
            s.skip_instructions(std::hint::black_box(STRIDE));
        }
    });
    std::hint::black_box(s.emitted());
    (CALLS * STRIDE) as f64 / secs / 1e6
}

pub fn run(p: &Params, tracer: &mut Tracer) -> Run {
    let mut run = Run {
        any_seed: true,
        ..Run::default()
    };
    let detail_cfg = config(p);
    let fast_cfg = OpenSystemConfig {
        fastsim: Some(FastSimPolicy::default()),
        ..detail_cfg.clone()
    };

    let ((solo, trace), reps) = repeat_setup(|| {
        let solo = calibrate_benchmarks(
            detail_cfg.smt,
            detail_cfg.calibration_cycles,
            detail_cfg.seed,
        );
        let trace = balanced_trace(
            detail_cfg.seed,
            detail_cfg.num_jobs,
            detail_cfg.mean_job_cycles,
            detail_cfg.mean_interarrival,
            &solo,
        );
        (solo, trace)
    });
    run.setup_reps_s = reps;

    tracer.begin("open_fast.detailed");
    let detail = drive(&detail_cfg, &trace, tracer);
    tracer.end();
    tracer.begin("open_fast.fast");
    let fast = drive(&fast_cfg, &trace, tracer);
    tracer.end();
    run.wall_s = detail.wall_s;
    run.instructions = detail
        .completed
        .iter()
        .map(|r| r.arrival.instructions)
        .sum();
    run.fast_speedup_x = Some(detail.wall_s / fast.wall_s);

    let jobs = trace.len() as u64;
    for (what, d) in [("detailed", &detail), ("fast", &fast)] {
        run.checks.ops(jobs, jobs - d.completed.len() as u64, || {
            format!("jobs not completed by the {what} run")
        });
    }
    let ws_detail = aggregate_ws(&detail, &solo, detail_cfg.timeslice);
    let ws_fast = aggregate_ws(&fast, &solo, fast_cfg.timeslice);
    let ws_err_pct = 100.0 * (ws_fast - ws_detail).abs() / ws_detail;
    run.checks.op(ws_err_pct <= WS_ERR_CEILING_PCT, || {
        format!("fast-simulation WS error {ws_err_pct:.3} % is above {WS_ERR_CEILING_PCT} %")
    });
    let counters = fast.fastsim.unwrap_or_default();
    let response = mean_response_mcycles(&detail.completed);

    run.sim.int("completed", detail.completed.len() as u64);
    run.sim.int("now", detail.now);
    run.sim.int("timeslices", detail.timeslices);
    run.sim.int("resamples", detail.resamples);
    run.sim.float("weighted_speedup", ws_detail);
    run.sim.float("mean_response_mcycles", response);
    run.sim.int("fast.now", fast.now);
    run.sim.int("fast.timeslices", fast.timeslices);
    run.sim.float("fast.weighted_speedup", ws_fast);
    run.sim.float(
        "fast.mean_response_mcycles",
        mean_response_mcycles(&fast.completed),
    );
    run.sim.float("fast.ws_err_pct", ws_err_pct);
    run.sim
        .int("fast.extrapolated_slices", counters.extrapolated_slices);
    run.sim
        .int("fast.detailed_slices", counters.detailed_slices);
    run.sim.int("fast.phase_locks", counters.phase_locks);
    run.sim.int("fast.fallbacks", counters.fallbacks);
    run.sim.int("fast.resyncs", counters.resyncs);
    run.sim.int("fast.resamples_ok", counters.resamples_ok);

    if tracer.is_on() {
        run.layer(
            "fastsim.extrapolated_frac",
            counters.extrapolated_fraction(),
        );
        run.layer("fastsim.phase_locks", counters.phase_locks as f64);
        run.layer("fastsim.fallbacks", counters.fallbacks as f64);
        run.layer("fastsim.resyncs", counters.resyncs as f64);
        run.layer("fastsim.resamples_ok", counters.resamples_ok as f64);
        run.layer(
            "fastsim.extrap_step_us_p50",
            stats::median(&fast.extrap_step_us),
        );
        run.layer(
            "fastsim.mcps",
            (fast.timeslices * fast_cfg.timeslice) as f64 / fast.wall_s / 1e6,
        );
        run.layer("fastsim.mips", run.instructions as f64 / fast.wall_s / 1e6);
        run.layer("fastsim.ws_err_pct", ws_err_pct);
        let steps = stats::sorted(&detail.step_ms);
        run.layer("online.submit_us_p50", stats::median(&detail.submit_us));
        run.layer("online.step_ms_p50", stats::percentile_sorted(&steps, 50.0));
        run.layer("online.step_ms_p95", stats::percentile_sorted(&steps, 95.0));
        run.layer("online.step_ms_max", steps.last().copied().unwrap_or(0.0));
        run.layer("online.steps", steps.len() as f64);
        run.layer("online.resamples", detail.resamples as f64);
        run.layer(
            "online.jobs_per_s",
            detail.completed.len() as f64 / detail.wall_s,
        );
        run.layer("online.weighted_speedup", ws_detail);
        run.layer("online.mean_response_mcycles", response);
        tracer.begin("workloads.skip_instructions");
        run.layer(
            "workloads.skip_minstr_per_s",
            skip_probe(mix(FIXED_SEED, 0x5c1b)),
        );
        tracer.end();
    }
    run.ops_ms = detail.step_ms;
    run.peak_rss_mb = super::peak_rss_mb(None);
    run
}

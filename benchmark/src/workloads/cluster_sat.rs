//! `cluster_sat`: the two-level cluster scheduler under saturating load.
//!
//! An in-process `ClusterEngine`: 2 shards of SMT 4, symbiosis dispatch, SOS
//! on every shard, full detail. Jobs of mean 400k solo cycles are offered at
//! 1.2x the estimated capacity, so contexts stay filled. It is the only
//! workload with cross-thread lockstep (command channels, dispatch,
//! stealing), and saturating load is what makes jobs per second and cycles
//! per second agree: an under-filled cluster simulates idle contexts quickly.
//!
//! Like `open_fast`, this workload does not take its simulated inputs from
//! `--seed` but from [`FIXED_SEED`]. Which shard a job lands on and which
//! coschedules SOS then samples is chaotic in the trace: over seeds, the same
//! 120 jobs take between 5600 and 7600 timeslices at weighted speedups from
//! 1.26 to 1.72, and committed instructions per host second spread by a
//! tenth of their median - on top of the host noise of two lockstepped
//! threads on two cores. Fixed, the outputs can be pinned for every seed.
//!
//! One operation is one `ClusterEngine::step` round.

use super::open_fast::mean_response_mcycles;
use super::{balanced_trace, busy_threads, mix, repeat_setup, timed, Params, FIXED_SEED};
use crate::outcome::Run;
use crate::stats;
use crate::trace::Tracer;
use sos_core::cluster::{ClusterConfig, ClusterEngine, DispatchPolicy};
use sos_core::online::SchedulerKind;
use sos_core::opensys::{calibrate_benchmarks, OpenSystemConfig};
use std::time::Instant;

/// Jobs per second of requested run length.
const JOBS_PER_SECOND: u64 = 10;
const SMT: usize = 4;
const MEAN_JOB_CYCLES: u64 = 400_000;
/// Offered load as a multiple of the estimated capacity.
const LOAD: f64 = 1.2;

fn config(p: &Params, shards: usize) -> OpenSystemConfig {
    let capacity = OpenSystemConfig::estimated_ws(SMT) * shards as f64;
    OpenSystemConfig {
        mean_job_cycles: MEAN_JOB_CYCLES,
        mean_interarrival: (MEAN_JOB_CYCLES as f64 / (LOAD * capacity)) as u64,
        num_jobs: (JOBS_PER_SECOND * p.seconds) as usize,
        seed: mix(FIXED_SEED, 0xc105),
        ..OpenSystemConfig::scaled(SMT)
    }
}

pub fn run(p: &Params, tracer: &mut Tracer) -> Run {
    let mut run = Run {
        any_seed: true,
        ..Run::default()
    };
    let shards = busy_threads();
    let cfg = config(p, shards);

    let ((solo, trace), reps) = repeat_setup(|| {
        let solo = calibrate_benchmarks(cfg.smt, cfg.calibration_cycles, cfg.seed);
        let trace = balanced_trace(
            cfg.seed,
            cfg.num_jobs,
            cfg.mean_job_cycles,
            cfg.mean_interarrival,
            &solo,
        );
        (solo, trace)
    });
    run.setup_reps_s = reps;

    let cluster_cfg = ClusterConfig::new(
        shards,
        DispatchPolicy::Symbiosis,
        SchedulerKind::Sos,
        cfg.online(),
    );
    let mut departed = Vec::with_capacity(trace.len());
    let (mut idle_slots, mut slots) = (0usize, 0usize);
    let mut next = 0;
    let start = Instant::now();
    tracer.begin("cluster.new");
    let mut engine = ClusterEngine::new(&cluster_cfg);
    engine.set_solo_ipc(solo);
    tracer.end();
    while departed.len() < trace.len() {
        while next < trace.len() && trace[next].arrival <= engine.now() {
            tracer.begin("cluster.submit");
            engine.submit(trace[next].clone());
            tracer.end();
            next += 1;
        }
        if engine.live_count() == 0 {
            tracer.begin("cluster.jump_to");
            engine.jump_to(trace[next].arrival);
            tracer.end();
            continue;
        }
        for depth in engine.shard_depths() {
            idle_slots += SMT.saturating_sub(depth);
            slots += SMT;
        }
        tracer.begin("cluster.step");
        let (jobs, s) = timed(|| engine.step());
        tracer.end();
        run.ops_ms.push(s * 1e3);
        departed.extend(jobs);
    }
    tracer.begin("cluster.report");
    let report = engine.report();
    tracer.end();
    run.wall_s = start.elapsed().as_secs_f64();
    drop(engine);

    run.instructions = departed.iter().map(|r| r.arrival.instructions).sum();
    let jobs = trace.len() as u64;
    run.checks.ops(jobs, jobs - report.completed.min(jobs), || {
        "jobs not completed".into()
    });
    run.checks.op(report.submitted == trace.len(), || {
        "submitted count is off".into()
    });

    let rounds = run.ops_ms.len() as u64;
    let idle_context_frac = idle_slots as f64 / slots.max(1) as f64;
    let response = mean_response_mcycles(&departed);
    run.sim.int("completed", report.completed);
    run.sim.int("now", report.now_cycles);
    run.sim.int("rounds", rounds);
    run.sim.int("timeslices", report.timeslices);
    run.sim.int("migrations", report.migrations);
    run.sim.float("weighted_speedup", report.aggregate_ws);
    run.sim.float("mean_response_mcycles", response);
    run.sim.float("idle_context_frac", idle_context_frac);

    if tracer.is_on() {
        let sorted = stats::sorted(&run.ops_ms);
        run.layer(
            "cluster.round_ms_p50",
            stats::percentile_sorted(&sorted, 50.0),
        );
        run.layer(
            "cluster.round_ms_p95",
            stats::percentile_sorted(&sorted, 95.0),
        );
        run.layer("cluster.rounds", rounds as f64);
        run.layer("cluster.migrations", report.migrations as f64);
        let per_shard = report.per_shard.iter().map(|s| s.timeslices);
        let (most, least) = (per_shard.clone().max(), per_shard.min());
        run.layer(
            "cluster.shard_imbalance",
            most.unwrap_or(0) as f64 / least.unwrap_or(0).max(1) as f64,
        );
        run.layer("cluster.idle_context_frac", idle_context_frac);
        run.layer(
            "cluster.mcps",
            (report.timeslices * cfg.timeslice) as f64 / run.wall_s / 1e6,
        );
        run.layer("cluster.jobs_per_s", report.completed as f64 / run.wall_s);
        run.layer("cluster.weighted_speedup", report.aggregate_ws);
        run.layer("cluster.mean_response_mcycles", response);
    }
    run.peak_rss_mb = super::peak_rss_mb(None);
    run
}

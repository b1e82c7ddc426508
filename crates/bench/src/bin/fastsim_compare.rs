//! `fastsim-compare` — speedup-versus-error harness for phase-aware
//! sampled fast simulation (`smtsim::fastsim`).
//!
//! Two measurements, both against the identical seeded workload:
//!
//! 1. **Accuracy** — a full open-system scenario (the fig5/fig6 engine,
//!    SOS policy) runs once in full detail and once per `--thresholds`
//!    entry in fast mode. The table reports wall speedup, extrapolated
//!    fraction, and the relative error of aggregate weighted speedup,
//!    mean response time, and the p95/p99 response and slowdown
//!    percentiles. The open-system loop keeps all its scheduling machinery
//!    (sampling phases always run detailed), so this is the honest
//!    end-to-end number. Error assertions gate on the p95 percentiles:
//!    p99 over a few hundred jobs is the 1–2 most extreme jobs, which flips
//!    on any completion-order change and measures tail noise, not
//!    extrapolation bias (p99 stays in the table).
//! 2. **Raw throughput** — a steady fixed-schedule `Runner` workload
//!    (no resampling) measures the ceiling: detailed vs fast
//!    sim-cycles/sec on the hot `run_timeslice` path.
//!
//! CI gates (`--assert-ws-error`, `--assert-response-error`,
//! `--assert-slowdown-error`, `--assert-speedup`, `--assert-raw-speedup`)
//! exit 1 when a threshold's run lands outside the envelope; the
//! `fastsim-accuracy` workflow job runs this with ±2% error bounds.
//!
//! Usage: `fastsim-compare [--smt N] [--jobs N] [--mean-interarrival C]
//! [--mean-length C] [--phased-fraction F] [--timeslice C] [--seed S]
//! [--seeds N] [--thresholds F,F,...] [--raw-rotations N]
//! [--assert-ws-error PCT] [--assert-response-error PCT]
//! [--assert-slowdown-error PCT] [--assert-speedup X]
//! [--assert-raw-speedup X]`

use smtsim::{FastSimPolicy, MachineConfig};
use sos_bench::cli::{self, Flags};
use sos_core::cluster::{ClusterConfig, ClusterEngine, DispatchPolicy};
use sos_core::job::JobPool;
use sos_core::online::SchedulerKind;
use sos_core::opensys::{
    arrival_trace, calibrate_benchmarks, ArrivalTraceSpec, JobArrival, OpenSystemConfig,
};
use sos_core::report::JobSummary;
use sos_core::runner::Runner;
use sos_core::schedule::Schedule;
use std::collections::HashMap;
use std::time::Instant;
use workloads::spec::Benchmark;
use workloads::JobSpec;

struct Args {
    smt: usize,
    timeslice: u64,
    /// The first scenario's arrival process; scenario `i` reseeds it.
    trace: ArrivalTraceSpec,
    seeds: u64,
    /// One fast-mode policy per `--thresholds` entry.
    policies: Vec<FastSimPolicy>,
    raw_rotations: usize,
    assert_ws_error: Option<f64>,
    assert_response_error: Option<f64>,
    assert_slowdown_error: Option<f64>,
    assert_speedup: Option<f64>,
    assert_raw_speedup: Option<f64>,
}

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let thresholds = flags.value("--thresholds", "0.05,0.10,0.20".to_string())?;
    let args = Args {
        smt: flags.value("--smt", 4)?,
        timeslice: flags.value("--timeslice", 5_000)?,
        trace: cli::trace_flags(flags, 120)?,
        seeds: flags.value("--seeds", 1)?,
        policies: policies(&thresholds)?,
        raw_rotations: flags.value("--raw-rotations", 400)?,
        assert_ws_error: flags.opt("--assert-ws-error")?,
        assert_response_error: flags.opt("--assert-response-error")?,
        assert_slowdown_error: flags.opt("--assert-slowdown-error")?,
        assert_speedup: flags.opt("--assert-speedup")?,
        assert_raw_speedup: flags.opt("--assert-raw-speedup")?,
    };
    if args.smt == 0 || args.timeslice == 0 || args.seeds == 0 {
        return Err("--smt, --timeslice and --seeds must be positive".into());
    }
    Ok(args)
}

/// One fast-mode policy per entry of a comma-separated threshold list.
fn policies(thresholds: &str) -> Result<Vec<FastSimPolicy>, String> {
    thresholds
        .split(',')
        .map(|t| {
            let t = t.trim();
            let threshold = t
                .parse()
                .map_err(|_| format!("bad value {t:?} for --thresholds"))?;
            Ok(cli::fastsim_policy(true, Some(threshold))?.expect("fast mode is on"))
        })
        .collect()
}

/// One open-system run (or, after [`pool`], one mode's runs over every
/// seed): everything the comparison table needs. The job summary keeps the
/// per-job samples, so multi-seed runs pool them before taking percentiles
/// (percentiles of the pooled population are what fig5/fig6 report, and
/// pooling is what makes tail comparisons stable).
struct RunSummary {
    wall_secs: f64,
    /// Makespan in simulated cycles (identical across modes when the
    /// extrapolator is faithful — the schedule stream is deterministic).
    sim_cycles: u64,
    extrapolated_slices: u64,
    /// Busy timeslices (busy machine cycles over the timeslice).
    timeslices: u64,
    jobs: JobSummary,
}

/// Pools per-seed runs of one mode into the aggregate the table compares.
fn pool(runs: Vec<RunSummary>) -> RunSummary {
    let mut runs = runs.into_iter();
    let mut pooled = runs.next().expect("at least one seed");
    for run in runs {
        pooled.wall_secs += run.wall_secs;
        pooled.sim_cycles += run.sim_cycles;
        pooled.extrapolated_slices += run.extrapolated_slices;
        pooled.timeslices += run.timeslices;
        pooled.jobs.merge(&run.jobs);
    }
    pooled
}

/// Replays the trace through a 1-shard cluster and summarizes the run.
fn run_scenario(
    cfg: &OpenSystemConfig,
    trace: &[JobArrival],
    solo: &HashMap<Benchmark, f64>,
    fastsim: Option<FastSimPolicy>,
) -> RunSummary {
    let mut online = cfg.online();
    online.fastsim = fastsim;
    let one_core = ClusterConfig::new(1, DispatchPolicy::RoundRobin, SchedulerKind::Sos, online);
    let mut engine = ClusterEngine::new(&one_core);
    let started = Instant::now();
    let completed = engine.replay(trace);
    let wall_secs = started.elapsed().as_secs_f64();
    let report = engine.report();
    RunSummary {
        wall_secs,
        sim_cycles: report.now_cycles,
        extrapolated_slices: report.extrapolated_slices,
        timeslices: report.timeslices,
        jobs: JobSummary::of(&completed, solo),
    }
}

/// Relative error of `fast` against `detail`, as a fraction.
fn rel_err(fast: f64, detail: f64) -> f64 {
    if detail == 0.0 {
        if fast == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (fast - detail).abs() / detail.abs()
    }
}

/// Raw-throughput ceiling: a steady 8-job pool on a fixed round-robin
/// schedule (no resampling machinery), detailed vs fast. Returns
/// `(detail_cps, fast_cps, extrapolated_fraction)` in sim-cycles/sec.
fn raw_throughput(smt: usize, timeslice: u64, rotations: usize, seed: u64) -> (f64, f64, f64) {
    let specs: Vec<JobSpec> = [
        Benchmark::Fp,
        Benchmark::Gcc,
        Benchmark::Mg,
        Benchmark::Go,
        Benchmark::Swim,
        Benchmark::Is,
        Benchmark::Array,
        Benchmark::Fp,
    ]
    .iter()
    .map(|&b| JobSpec::single(b))
    .collect();
    let y = smt.clamp(1, specs.len());
    let schedule = Schedule::new((0..specs.len()).collect(), y, y);
    let run = |fast: bool| {
        let pool = JobPool::from_specs(&specs, seed);
        let mut runner = Runner::new(MachineConfig::alpha21264_like(smt), pool, timeslice);
        if fast {
            runner.set_fastsim(Some(FastSimPolicy::default()));
        }
        // One warmup rotation so cold caches don't bill the detailed run.
        let _ = runner.run_schedule(&schedule, 1);
        let started = Instant::now();
        let rots = runner.run_schedule(&schedule, rotations);
        let wall = started.elapsed().as_secs_f64();
        let cycles: u64 = rots.iter().map(|r| r.cycles()).sum();
        if let Some(c) = runner.fastsim_counters() {
            eprintln!(
                "# raw fast run: {} detailed / {} extrapolated slices, {} locks, {} fallbacks, {} resamples ok, {} resyncs",
                c.detailed_slices,
                c.extrapolated_slices,
                c.phase_locks,
                c.fallbacks,
                c.resamples_ok,
                c.resyncs
            );
        }
        let extrap = runner
            .fastsim_counters()
            .map(|c| c.extrapolated_fraction())
            .unwrap_or(0.0);
        (cycles as f64 / wall.max(1e-9), extrap)
    };
    let (detail_cps, _) = run(false);
    let (fast_cps, extrap) = run(true);
    (detail_cps, fast_cps, extrap)
}

fn main() {
    let args = cli::parse_or_exit("fastsim-compare", "", parse_args);

    // One scenario per seed: same shape, independent arrival traces. The
    // table compares the pooled populations.
    let mut scenarios = Vec::new();
    for i in 0..args.seeds {
        let mut spec = args.trace.clone();
        spec.seed += 9973 * i;
        let mut cfg = OpenSystemConfig::scaled(args.smt).with_trace(&spec);
        cfg.timeslice = args.timeslice;
        cfg.predictor = sos_core::PredictorKind::Ipc;
        let solo = calibrate_benchmarks(cfg.smt, cfg.calibration_cycles, cfg.seed);
        let trace = arrival_trace(&cfg, &solo);
        scenarios.push((cfg, trace, solo));
    }
    let total_jobs: usize = scenarios.iter().map(|(_, t, _)| t.len()).sum();

    eprintln!(
        "# fastsim-compare: SMT {}, {} jobs over {} seed(s) from {}: full detail first ...",
        args.smt, total_jobs, args.seeds, args.trace.seed
    );
    let run_all = |policy: Option<&FastSimPolicy>| {
        let runs = scenarios
            .iter()
            .map(|(cfg, trace, solo)| run_scenario(cfg, trace, solo, policy.cloned()));
        pool(runs.collect())
    };
    let detail = run_all(None);
    let (detail_ws, detail_rt, detail_sd) = (
        detail
            .jobs
            .weighted_speedup(detail.timeslices * args.timeslice),
        detail.jobs.response(),
        detail.jobs.slowdown(),
    );
    println!(
        "full detail: wall {:.2}s  {:.2}M sim-cycles/s  WS {:.4}  mean response {:.0}  p99 {:.0}  slowdown p99 {:.3}",
        detail.wall_secs,
        detail.sim_cycles as f64 / detail.wall_secs.max(1e-9) / 1e6,
        detail_ws,
        detail.jobs.mean_response(),
        detail_rt.p99,
        detail_sd.p99
    );
    println!();
    println!(
        "{:>9} {:>8} {:>8} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "threshold",
        "speedup",
        "extrap%",
        "WSerr%",
        "meanRTe%",
        "p95RTe%",
        "p99RTe%",
        "p95SDe%",
        "p99SDe%",
        "cyc-err"
    );

    let mut failures = Vec::new();
    for policy in &args.policies {
        let threshold = policy.stability_threshold;
        let fast = run_all(Some(policy));
        let (fast_rt, fast_sd) = (fast.jobs.response(), fast.jobs.slowdown());
        let speedup = detail.wall_secs / fast.wall_secs.max(1e-9);
        let extrap_pct = 100.0 * fast.extrapolated_slices as f64 / fast.timeslices.max(1) as f64;
        let fast_ws = fast.jobs.weighted_speedup(fast.timeslices * args.timeslice);
        let ws_err = rel_err(fast_ws, detail_ws);
        let mean_rt_err = rel_err(fast.jobs.mean_response(), detail.jobs.mean_response());
        let p95_rt_err = rel_err(fast_rt.p95, detail_rt.p95);
        let p99_rt_err = rel_err(fast_rt.p99, detail_rt.p99);
        let p95_sd_err = rel_err(fast_sd.p95, detail_sd.p95);
        let p99_sd_err = rel_err(fast_sd.p99, detail_sd.p99);
        let cycle_err = rel_err(fast.sim_cycles as f64, detail.sim_cycles as f64);
        println!(
            "{:>9.3} {:>7.2}x {:>7.1}% {:>8.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.4}",
            threshold,
            speedup,
            extrap_pct,
            100.0 * ws_err,
            100.0 * mean_rt_err,
            100.0 * p95_rt_err,
            100.0 * p99_rt_err,
            100.0 * p95_sd_err,
            100.0 * p99_sd_err,
            cycle_err
        );

        let mut check = |name: &str, bound_pct: Option<f64>, err: f64| {
            if let Some(b) = bound_pct {
                if 100.0 * err > b {
                    failures.push(format!(
                        "threshold {threshold}: {name} error {:.3}% exceeds ±{b}%",
                        100.0 * err
                    ));
                }
            }
        };
        check("WS", args.assert_ws_error, ws_err);
        check("mean response", args.assert_response_error, mean_rt_err);
        check("p95 response", args.assert_response_error, p95_rt_err);
        check("p95 slowdown", args.assert_slowdown_error, p95_sd_err);
        if let Some(min) = args.assert_speedup {
            if speedup < min {
                failures.push(format!(
                    "threshold {threshold}: end-to-end speedup {speedup:.2}x below {min}x"
                ));
            }
        }
    }

    println!();
    let (detail_cps, fast_cps, extrap) = raw_throughput(
        args.smt,
        args.timeslice,
        args.raw_rotations,
        args.trace.seed,
    );
    let raw_speedup = fast_cps / detail_cps.max(1e-9);
    println!(
        "raw runner throughput: detailed {:.2}M cycles/s  fast {:.2}M cycles/s  speedup {:.1}x  ({:.1}% slices extrapolated)",
        detail_cps / 1e6,
        fast_cps / 1e6,
        raw_speedup,
        100.0 * extrap
    );
    if let Some(min) = args.assert_raw_speedup {
        if raw_speedup < min {
            failures.push(format!(
                "raw runner speedup {raw_speedup:.1}x below required {min}x"
            ));
        }
    }

    if !failures.is_empty() {
        eprintln!("fastsim-compare: FAILED");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
    println!("fastsim-compare: all assertions passed");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Flags::parse(args.iter().map(|a| a.to_string()), parse_args)
    }

    #[test]
    fn thresholds_must_be_positive_numbers() {
        for bad in ["NaN", "inf", "0", "-0.1", "abc", "0.05,NaN", "0.05,0", ""] {
            assert!(parse(&["--thresholds", bad]).is_err(), "accepted {bad:?}");
        }
        let ok = parse(&["--thresholds", "0.05, 0.1"]).expect("valid thresholds");
        let thresholds: Vec<f64> = ok.policies.iter().map(|p| p.stability_threshold).collect();
        assert_eq!(thresholds, vec![0.05, 0.1]);
        assert!(parse(&["--thresholds"]).is_err(), "no value");
    }
}

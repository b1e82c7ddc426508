//! `sos-cluster` — the shard-scaling bench for the two-level cluster
//! scheduler (`sos_core::cluster`).
//!
//! Replays a seeded exponential arrival trace (the same generator the §9
//! experiments and `sos-loadgen` use) through a [`ClusterEngine`] of N
//! per-core shards, drains it, and reports cluster-wide weighted speedup,
//! response-time percentiles, migration counts, and simulation throughput.
//! Because every shard advances its own machine clock, a cluster of N
//! shards simulates N machine-cycles per cluster cycle — the printed
//! throughput is `sim_cycles = shards × makespan` against wall time
//! (`benchmark/run --workload cluster_sat` is the measured version).
//!
//! Usage: `sos-cluster [--shards N] [--dispatch POLICY] [--policy sos|naive]
//! [--predictor NAME] [--jobs N] [--mean-interarrival CYCLES]
//! [--mean-length CYCLES]
//! [--phased-fraction F] [--seed S] [--smt N] [--timeslice CYCLES]
//! [--slices-per-round N] [--rebalance-every N] [--steal-threshold N]
//! [--fast] [--fast-threshold F]
//! [--report-out FILE] [--prom-out FILE]`
//!
//! `--fast` turns on phase-aware sampled fast simulation in every shard
//! engine (`--fast-threshold` sets the phase-stability threshold and
//! implies `--fast`); the policy is echoed in the report.
//!
//! The run is byte-reproducible for a fixed seed and shard count:
//! `--report-out` writes a deterministic `ClusterReport` JSON (no
//! wall-clock fields), so two runs of the same configuration can be
//! compared with `cmp`. `--prom-out` dumps the final Prometheus exposition
//! of the cluster's telemetry handle (per-shard engine series and
//! queue/clock gauges, migration counters, response/slowdown histograms).

use smtsim::FastSimPolicy;
use sos_core::cluster::{ClusterConfig, ClusterEngine, DispatchPolicy};
use sos_core::online::{replay, OnlineConfig, SchedulerKind};
use sos_core::opensys::{calibrate_benchmarks, ArrivalTrace, ArrivalTraceSpec};
use sos_core::predictor::PredictorKind;
use sos_core::telemetry::Telemetry;
use std::path::PathBuf;
use std::time::Instant;

struct Args {
    shards: usize,
    dispatch: DispatchPolicy,
    policy: SchedulerKind,
    jobs: usize,
    mean_interarrival: u64,
    mean_length: u64,
    phased_fraction: f64,
    seed: u64,
    smt: usize,
    timeslice: u64,
    predictor: PredictorKind,
    sample_schedules: usize,
    base_interval: u64,
    calibration_cycles: u64,
    slices_per_round: u64,
    rebalance_every: u64,
    steal_threshold: usize,
    fastsim: Option<FastSimPolicy>,
    report_out: Option<PathBuf>,
    prom_out: Option<PathBuf>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            shards: 4,
            dispatch: DispatchPolicy::Symbiosis,
            policy: SchedulerKind::Sos,
            jobs: 60,
            mean_interarrival: 400_000,
            mean_length: 1_200_000,
            phased_fraction: 0.25,
            seed: 42,
            smt: 4,
            timeslice: 5_000,
            predictor: PredictorKind::Ipc,
            sample_schedules: 6,
            base_interval: 500_000,
            calibration_cycles: 60_000,
            slices_per_round: 8,
            rebalance_every: 8,
            steal_threshold: 4,
            fastsim: None,
            report_out: None,
            prom_out: None,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let (mut fast, mut fast_threshold) = (false, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--shards" => args.shards = num(&value("--shards")?, "--shards")?,
            "--dispatch" => {
                let v = value("--dispatch")?;
                args.dispatch = DispatchPolicy::parse(&v)
                    .ok_or_else(|| format!("bad dispatch policy {v:?}"))?;
            }
            "--policy" => {
                let v = value("--policy")?;
                args.policy =
                    SchedulerKind::parse(&v).ok_or_else(|| format!("bad policy {v:?}"))?;
            }
            "--jobs" => args.jobs = num(&value("--jobs")?, "--jobs")?,
            "--mean-interarrival" => {
                args.mean_interarrival = num(&value("--mean-interarrival")?, "--mean-interarrival")?
            }
            "--mean-length" => args.mean_length = num(&value("--mean-length")?, "--mean-length")?,
            "--phased-fraction" => {
                args.phased_fraction = num(&value("--phased-fraction")?, "--phased-fraction")?
            }
            "--seed" => args.seed = num(&value("--seed")?, "--seed")?,
            "--smt" => args.smt = num(&value("--smt")?, "--smt")?,
            "--timeslice" => args.timeslice = num(&value("--timeslice")?, "--timeslice")?,
            "--predictor" => {
                let v = value("--predictor")?;
                args.predictor = PredictorKind::parse(&v).ok_or_else(|| {
                    format!(
                        "unknown predictor {v:?} (one of {})",
                        PredictorKind::names()
                    )
                })?;
            }
            "--sample-schedules" => {
                args.sample_schedules = num(&value("--sample-schedules")?, "--sample-schedules")?
            }
            "--base-interval" => {
                args.base_interval = num(&value("--base-interval")?, "--base-interval")?
            }
            "--calibration-cycles" => {
                args.calibration_cycles =
                    num(&value("--calibration-cycles")?, "--calibration-cycles")?
            }
            "--slices-per-round" => {
                args.slices_per_round = num(&value("--slices-per-round")?, "--slices-per-round")?
            }
            "--rebalance-every" => {
                args.rebalance_every = num(&value("--rebalance-every")?, "--rebalance-every")?
            }
            "--steal-threshold" => {
                args.steal_threshold = num(&value("--steal-threshold")?, "--steal-threshold")?
            }
            "--fast" => fast = true,
            "--fast-threshold" => {
                fast_threshold = Some(num(&value("--fast-threshold")?, "--fast-threshold")?)
            }
            "--report-out" => args.report_out = Some(PathBuf::from(value("--report-out")?)),
            "--prom-out" => args.prom_out = Some(PathBuf::from(value("--prom-out")?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.shards == 0 || args.jobs == 0 {
        return Err("--shards and --jobs must be positive".into());
    }
    if args.mean_interarrival == 0 || args.mean_length == 0 {
        return Err("--mean-interarrival and --mean-length must be positive".into());
    }
    args.fastsim = sos_bench::fastsim_policy(fast, fast_threshold)?;
    Ok(args)
}

fn num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad value {s:?} for {flag}"))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sos-cluster: {e}");
            std::process::exit(2);
        }
    };

    // Calibrate solo IPC once (shared cache makes this cheap across runs)
    // and generate the arrival trace — a pure function of the seed, so
    // every shard count sees the identical offered workload.
    let solo = calibrate_benchmarks(args.smt, args.calibration_cycles, args.seed);
    let trace = ArrivalTrace::generate(
        &ArrivalTraceSpec {
            mean_interarrival: args.mean_interarrival,
            mean_job_cycles: args.mean_length,
            num_jobs: args.jobs,
            phased_fraction: args.phased_fraction,
            seed: args.seed,
        },
        &solo,
    );

    let shard = OnlineConfig {
        smt: args.smt,
        timeslice: args.timeslice,
        sample_schedules: args.sample_schedules,
        predictor: args.predictor,
        drift_threshold: Some(0.35),
        base_interval: args.base_interval,
        seed: args.seed,
        fastsim: args.fastsim,
        learn: None,
    };
    let mut cfg = ClusterConfig::new(args.shards, args.dispatch, args.policy, shard);
    cfg.slices_per_round = args.slices_per_round;
    cfg.rebalance_every = args.rebalance_every;
    cfg.steal_threshold = args.steal_threshold;

    let tel = Telemetry::metrics();
    let mut engine = ClusterEngine::with_telemetry(&cfg, &tel);
    engine.set_solo_ipc(solo);

    println!(
        "# sos-cluster: {} shard(s), dispatch {}, policy {}, {} jobs, seed {}",
        args.shards,
        args.dispatch.name(),
        args.policy.name(),
        args.jobs,
        args.seed
    );
    if let Some(p) = &cfg.shard.fastsim {
        println!("# fastsim: {}", p.describe());
    }
    let started = Instant::now();
    let departed = replay(&mut engine, &trace.jobs);
    let wall_secs = started.elapsed().as_secs_f64();
    let report = engine.report();

    if departed.len() != trace.jobs.len() {
        eprintln!(
            "sos-cluster: only {}/{} jobs completed",
            departed.len(),
            trace.jobs.len()
        );
        std::process::exit(1);
    }

    // shards × makespan: every shard clock advanced to `now`.
    let sim_cycles = args.shards as u64 * report.now_cycles;
    println!(
        "completed {}  migrations {}  makespan {} cycles",
        report.completed, report.migrations, report.now_cycles
    );
    println!(
        "aggregate WS {:.3}  response p50 {:.0} p95 {:.0} p99 {:.0}  slowdown p99 {:.2}",
        report.aggregate_ws,
        report.response.p50,
        report.response.p95,
        report.response.p99,
        report.slowdown.p99
    );
    println!(
        "wall {:.2}s  sim {:.1}M cycles ({} shards)  {:.2}M sim-cycles/s",
        wall_secs,
        sim_cycles as f64 / 1e6,
        args.shards,
        sim_cycles as f64 / wall_secs.max(1e-9) / 1e6
    );
    if report.fastsim.is_some() {
        println!(
            "fastsim: {}/{} busy timeslices extrapolated ({:.1}%)",
            report.extrapolated_slices,
            report.timeslices,
            100.0 * report.extrapolated_slices as f64 / report.timeslices.max(1) as f64
        );
    }
    println!("shard  submitted  migr-in  migr-out  completed  timeslices  depth");
    for s in &report.per_shard {
        println!(
            "{:>5}  {:>9}  {:>7}  {:>8}  {:>9}  {:>10}  {:>5}",
            s.shard,
            s.submitted,
            s.migrated_in,
            s.migrated_out,
            s.completed,
            s.timeslices,
            s.final_queue_depth
        );
    }
    if report.per_shard.iter().any(|s| s.learn.is_some()) {
        println!("shard  train-updates  err-ewma  bandit-pulls  regret  contexts");
        for s in &report.per_shard {
            if let Some(l) = &s.learn {
                println!(
                    "{:>5}  {:>13}  {:>8.4}  {:>12}  {:>6.3}  {:>8}",
                    s.shard,
                    l.train_updates,
                    l.err_ewma,
                    l.bandit_pulls,
                    l.bandit_regret,
                    l.contexts
                );
            }
        }
    }

    if let Some(path) = &args.report_out {
        // Strip nothing: the report is already wall-clock-free, so the
        // bytes are a determinism witness for (seed, shard count).
        let json = serde_json::to_string_pretty(&report).expect("serialize report");
        if let Err(e) = std::fs::write(path, json + "\n") {
            eprintln!("sos-cluster: report-out {} failed: {e}", path.display());
            std::process::exit(1);
        }
        println!("# report written to {}", path.display());
    }

    if let Some(path) = &args.prom_out {
        let prom = tel.snapshot(report.now_cycles).prometheus_text();
        if let Err(e) = std::fs::write(path, prom) {
            eprintln!("sos-cluster: prom-out {} failed: {e}", path.display());
            std::process::exit(1);
        }
        println!("# prometheus exposition written to {}", path.display());
    }
}

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
//! [--sample-schedules N] [--base-interval CYCLES] [--calibration-cycles CYCLES]
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

use sos_bench::cli::{self, Flags};
use sos_core::cluster::{ClusterConfig, ClusterEngine, DispatchPolicy};
use sos_core::online::SchedulerKind;
use sos_core::opensys::{calibrate_benchmarks, ArrivalTrace, ArrivalTraceSpec};
use sos_core::telemetry::Telemetry;
use std::path::PathBuf;
use std::time::Instant;

struct Args {
    trace: ArrivalTraceSpec,
    cluster: ClusterConfig,
    calibration_cycles: u64,
    report_out: Option<PathBuf>,
    prom_out: Option<PathBuf>,
}

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let dispatch = flags.opt_with("--dispatch", DispatchPolicy::parse)?;
    let policy = flags.opt_with("--policy", SchedulerKind::parse)?;
    let mut cluster = ClusterConfig::new(
        flags.value("--shards", 4)?,
        dispatch.unwrap_or(DispatchPolicy::Symbiosis),
        policy.unwrap_or(SchedulerKind::Sos),
        cli::engine_flags(flags, 42)?,
    );
    cluster.slices_per_round = flags.value("--slices-per-round", 8)?;
    cluster.rebalance_every = flags.value("--rebalance-every", 8)?;
    cluster.steal_threshold = flags.value("--steal-threshold", 4)?;
    let calibration_cycles = flags.value("--calibration-cycles", 60_000)?;
    if cluster.shards == 0 || cluster.slices_per_round == 0 || calibration_cycles == 0 {
        return Err(
            "--shards, --slices-per-round and --calibration-cycles must be positive".into(),
        );
    }
    Ok(Args {
        trace: cli::trace_flags(flags, 60)?,
        cluster,
        calibration_cycles,
        report_out: flags.opt("--report-out")?,
        prom_out: flags.opt("--prom-out")?,
    })
}

fn main() {
    let args = cli::parse_or_exit("sos-cluster", "", parse_args);
    let cfg = args.cluster;

    // Calibrate solo IPC once and generate the arrival trace — a pure
    // function of the seed, so every shard count sees the identical offered
    // workload.
    let solo = calibrate_benchmarks(cfg.shard.smt, args.calibration_cycles, cfg.shard.seed);
    let trace = ArrivalTrace::generate(&args.trace, &solo);

    let tel = Telemetry::metrics();
    let mut engine = ClusterEngine::with_telemetry(&cfg, &tel);
    engine.set_solo_ipc(solo);

    println!(
        "# sos-cluster: {} shard(s), dispatch {}, policy {}, {} jobs, seed {}",
        cfg.shards,
        cfg.dispatch.name(),
        cfg.scheduler.name(),
        args.trace.num_jobs,
        args.trace.seed
    );
    if let Some(p) = &cfg.shard.fastsim {
        println!("# fastsim: {}", p.describe());
    }
    let started = Instant::now();
    let departed = engine.replay(&trace.jobs);
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
    let sim_cycles = cfg.shards as u64 * report.now_cycles;
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
        cfg.shards,
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

//! Reproduces Figure 5: response-time improvements obtained by SOS over a
//! random (naive) jobscheduler for SMT levels 2, 3, 4, and 6, on an open
//! system with exponential arrivals and job lengths.
//!
//! Response times in a queueing system near capacity are extremely
//! high-variance, so each SMT level is measured as a *matched pair* (both
//! schedulers see the identical arrival trace) and averaged over several
//! seeds.
//!
//! Usage: `cargo run --release -p sos-bench --bin fig5 [cycle_scale] [num_jobs] [seeds]
//! [--fast] [--fast-threshold F]`
//!
//! `--fast` runs both schedulers under phase-aware sampled fast simulation
//! (`--fast-threshold` sets the phase-stability threshold and implies
//! `--fast`). Without it, every timeslice executes in full detail and the
//! output is byte-identical to earlier revisions.

use sos_core::opensys::{
    arrival_trace, calibrate_benchmarks, measure_capacity, run_open_system_on_trace,
    OpenSystemConfig, SchedulerKind,
};
use sos_core::report::percentiles;

fn main() {
    // The fast-sim flags may sit anywhere among the positionals, so
    // `fig5 6000 --fast` and `fig5 --fast 6000` both work.
    let (fastsim, positional) = sos_bench::take_fast_flags(std::env::args().skip(1))
        .unwrap_or_else(|e| {
            eprintln!("fig5: {e}");
            eprintln!("usage: fig5 [cycle_scale] [num_jobs] [seeds] [--fast] [--fast-threshold F]");
            std::process::exit(2)
        });
    // Open-system runs are long; default to a smaller scale than the
    // closed-system experiments.
    let scale: u64 = positional
        .first()
        .and_then(|a| a.parse().ok())
        .unwrap_or(6000);
    let num_jobs: usize = positional
        .get(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(120);
    let seeds: u64 = positional.get(2).and_then(|a| a.parse().ok()).unwrap_or(3);
    sos_bench::init_cache();
    eprintln!(
        "# open system at 1/{scale} paper scale, {num_jobs} jobs x {seeds} seeds per level ..."
    );
    if let Some(p) = &fastsim {
        eprintln!("# fastsim: {}", p.describe());
    }

    println!("Figure 5 — response-time improvement of SOS over a random scheduler");
    println!(
        "{:<10} {:>16} {:>16} {:>8} {:>13}",
        "SMT level", "naive (cycles)", "SOS (cycles)", "N(avg)", "improvement"
    );

    let levels = vec![2usize, 3, 4, 6];
    let rows = sos_bench::parallel_map(levels, |smt| {
        let mut naive_total = 0.0;
        let mut sos_total = 0.0;
        let mut pop = 0.0;
        let mut naive_rt = Vec::new();
        let mut sos_rt = Vec::new();
        for seed in 0..seeds {
            let mut cfg = OpenSystemConfig::scaled(smt);
            cfg.mean_job_cycles = 2_000_000_000 / scale.max(1);
            // The timeslice needs to amortize pipeline fill and give the sample
            // phase usable counter windows, so it scales less aggressively
            // than job lengths (T/timeslice ≈ 130 vs the paper's 400).
            cfg.timeslice = 2_500;
            cfg.num_jobs = num_jobs;
            // IPC is the strongest predictor on this substrate (see
            // EXPERIMENTS.md); the paper likewise ran SOS with its best.
            cfg.predictor = sos_core::PredictorKind::Ipc;
            cfg.seed = 0xF150 + 7919 * seed;
            cfg.fastsim = fastsim.clone();
            let solo = calibrate_benchmarks(cfg.smt, cfg.calibration_cycles, cfg.seed);
            // Self-calibrate against the capacity this seed's job population
            // actually sustains, then offer ~115% of it: over the finite
            // trace the resident population ramps into the paper's
            // N ≈ 2·SMT regime (steady-state critical queueing would need
            // unaffordable horizons), and the response-time gap directly
            // reflects scheduler throughput.
            let capacity = measure_capacity(&cfg, &solo, 24);
            cfg.mean_interarrival = (cfg.mean_job_cycles as f64 / (1.15 * capacity)) as u64;
            let trace = arrival_trace(&cfg, &solo);
            let naive = run_open_system_on_trace(SchedulerKind::Naive, &cfg, &trace);
            let sos = run_open_system_on_trace(SchedulerKind::Sos, &cfg, &trace);
            naive_total += naive.mean_response();
            sos_total += sos.mean_response();
            pop += naive.mean_population;
            naive_rt.extend(naive.response_times());
            sos_rt.extend(sos.response_times());
        }
        (
            smt,
            naive_total / seeds as f64,
            sos_total / seeds as f64,
            pop / seeds as f64,
            percentiles(&naive_rt),
            percentiles(&sos_rt),
        )
    });

    for (smt, naive, sos, pop, _, _) in &rows {
        let improvement = 100.0 * (naive - sos) / naive;
        println!(
            "{:<10} {:>16.0} {:>16.0} {:>8.1} {:>12.1}%",
            smt, naive, sos, pop, improvement
        );
    }
    println!();
    println!("(paper: improvements between 8% and nearly 18% across SMT levels)");
    println!();
    println!("response-time percentiles (cycles, jobs pooled across seeds)");
    println!(
        "{:<10} {:>12} {:>12} {:>12}   {:>12} {:>12} {:>12}",
        "SMT level", "naive p50", "naive p95", "naive p99", "SOS p50", "SOS p95", "SOS p99"
    );
    for (smt, _, _, _, np, sp) in &rows {
        println!(
            "{:<10} {:>12.0} {:>12.0} {:>12.0}   {:>12.0} {:>12.0} {:>12.0}",
            smt, np.p50, np.p95, np.p99, sp.p50, sp.p95, sp.p99
        );
    }
}

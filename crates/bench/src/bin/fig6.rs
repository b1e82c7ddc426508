//! Reproduces Figure 6: response-time improvements of SOS over a random
//! scheduler for various mean arrival rates λ, with the SMT level held
//! constant at 3.
//!
//! λ is swept as a fraction of the machine's estimated capacity; each point
//! is a matched-pair comparison (identical arrival traces) averaged over
//! several seeds.
//!
//! Usage: `cargo run --release -p sos-bench --bin fig6 [cycle_scale] [num_jobs] [seeds]
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
    // `fig6 6000 --fast` and `fig6 --fast 6000` both work.
    let (fastsim, positional) = sos_bench::take_fast_flags(std::env::args().skip(1))
        .unwrap_or_else(|e| {
            eprintln!("fig6: {e}");
            eprintln!("usage: fig6 [cycle_scale] [num_jobs] [seeds] [--fast] [--fast-threshold F]");
            std::process::exit(2)
        });
    let scale: u64 = positional
        .first()
        .and_then(|a| a.parse().ok())
        .unwrap_or(6000);
    let num_jobs: usize = positional
        .get(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(120);
    let seeds: u64 = positional.get(2).and_then(|a| a.parse().ok()).unwrap_or(3);
    let smt = 3usize;
    let mean_job_cycles = 2_000_000_000 / scale.max(1);
    // Offered load as a fraction of measured capacity; λ = T / (ρ · capacity).
    let rhos = vec![0.90, 1.00, 1.10, 1.20];

    sos_bench::init_cache();
    eprintln!("# open system at SMT 3, 1/{scale} paper scale, {num_jobs} jobs x {seeds} seeds ...");
    if let Some(p) = &fastsim {
        eprintln!("# fastsim: {}", p.describe());
    }
    println!("Figure 6 — response-time improvement vs arrival rate (SMT 3)");
    println!(
        "{:<8} {:<14} {:>16} {:>16} {:>13}",
        "load ρ", "λ (cycles)", "naive (cycles)", "SOS (cycles)", "improvement"
    );

    let rows = sos_bench::parallel_map(rhos, |rho| {
        let mut naive_total = 0.0;
        let mut sos_total = 0.0;
        let mut lambda_avg = 0u64;
        let mut naive_rt = Vec::new();
        let mut sos_rt = Vec::new();
        for seed in 0..seeds {
            let mut cfg = OpenSystemConfig::scaled(smt);
            cfg.mean_job_cycles = mean_job_cycles;
            // The timeslice needs to amortize pipeline fill and give the sample
            // phase usable counter windows, so it scales less aggressively
            // than job lengths (T/timeslice ≈ 130 vs the paper's 400).
            cfg.timeslice = 2_500;
            cfg.num_jobs = num_jobs;
            cfg.predictor = sos_core::PredictorKind::Ipc;
            cfg.seed = 0xF166 + 104_729 * seed;
            cfg.fastsim = fastsim.clone();
            let solo = calibrate_benchmarks(cfg.smt, cfg.calibration_cycles, cfg.seed);
            let capacity = measure_capacity(&cfg, &solo, 24);
            cfg.mean_interarrival = (mean_job_cycles as f64 / (rho * capacity)) as u64;
            lambda_avg += cfg.mean_interarrival / seeds;
            let trace = arrival_trace(&cfg, &solo);
            let naive = run_open_system_on_trace(SchedulerKind::Naive, &cfg, &trace);
            let sos = run_open_system_on_trace(SchedulerKind::Sos, &cfg, &trace);
            naive_total += naive.mean_response();
            sos_total += sos.mean_response();
            naive_rt.extend(naive.response_times());
            sos_rt.extend(sos.response_times());
        }
        (
            rho,
            lambda_avg,
            naive_total / seeds as f64,
            sos_total / seeds as f64,
            percentiles(&naive_rt),
            percentiles(&sos_rt),
        )
    });

    for (rho, lambda, naive, sos, _, _) in &rows {
        let improvement = 100.0 * (naive - sos) / naive;
        println!(
            "{:<8.2} {:<14} {:>16.0} {:>16.0} {:>12.1}%",
            rho, lambda, naive, sos, improvement
        );
    }
    println!();
    println!("(paper: positive improvements across λ values, varying with the load)");
    println!();
    println!("response-time percentiles (cycles, jobs pooled across seeds)");
    println!(
        "{:<8} {:>12} {:>12} {:>12}   {:>12} {:>12} {:>12}",
        "load ρ", "naive p50", "naive p95", "naive p99", "SOS p50", "SOS p95", "SOS p99"
    );
    for (rho, _, _, _, np, sp) in &rows {
        println!(
            "{:<8.2} {:>12.0} {:>12.0} {:>12.0}   {:>12.0} {:>12.0} {:>12.0}",
            rho, np.p50, np.p95, np.p99, sp.p50, sp.p95, sp.p99
        );
    }
}

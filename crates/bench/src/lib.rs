//! Shared helpers for the experiment-reproduction binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §4 for the index). Every one parses its command line
//! through [`cli`]: the closed-system figures take an optional first
//! argument, the cycle scale divisor (default 1000; 1 = full paper scale),
//! and the open-system front ends share [`cli`]'s two flag groups, the one
//! job summary (`sos_core::report::JobSummary`) and, for Figures 5 and 6,
//! the matched-pair seed loop below ([`OpenSweep`]).

use sos_core::opensys::{calibrate_benchmarks, matched_pair, measure_capacity, OpenSystemConfig};
use sos_core::report::{JobSummary, Percentiles};
use sos_core::sos::ExperimentReport;
use sos_core::{PredictorKind, SosConfig};

pub mod cli;
pub mod learn_eval;
pub mod serve;

/// The default harness configuration at the given scale.
pub fn config(scale: u64) -> SosConfig {
    SosConfig {
        cycle_scale: scale,
        ..SosConfig::default()
    }
}

pub use sos_core::report::pct_over;

/// Formats one experiment's best/worst/average WS as the rows of Figure 1.
pub fn print_experiment_summary(report: &ExperimentReport) {
    println!(
        "{:<14} best {:>6.3}  worst {:>6.3}  avg {:>6.3}  (best/worst {:+.1}%, best/avg {:+.1}%)",
        report.spec.label(),
        report.best_ws(),
        report.worst_ws(),
        report.average_ws(),
        pct_over(report.best_ws(), report.worst_ws()),
        pct_over(report.best_ws(), report.average_ws()),
    );
}

/// Prints the per-predictor weighted speedups for one experiment
/// (one group of Figure 2/3 bars), plus the sampling-oracle baseline.
pub fn print_predictor_bars(report: &ExperimentReport) {
    for p in PredictorKind::ALL {
        let ws = report.ws_with(p);
        println!(
            "    {:<10} WS {:>6.3}  ({:+5.1}% vs avg)",
            p.name(),
            ws,
            pct_over(ws, report.average_ws())
        );
    }
    println!(
        "    {:<10} WS {:>6.3}  ({:+5.1}% vs avg)",
        "SampledWS",
        report.oracle_ws(),
        pct_over(report.oracle_ws(), report.average_ws())
    );
}

/// The paper's mean job length, 2 billion cycles, before scaling.
const MEAN_JOB_CYCLES: u64 = 2_000_000_000;

/// The command line and seed loop Figures 5 and 6 share: `[cycle_scale]
/// [num_jobs] [seeds] [--fast] [--fast-threshold F]`, and one sweep point =
/// `seeds` matched pairs (naive and SOS on the identical trace).
pub struct OpenSweep {
    /// Cycle-scale divisor (open-system runs are long, so the default, 6000,
    /// is a smaller scale than the closed-system experiments').
    pub scale: u64,
    /// Jobs per arrival trace.
    pub num_jobs: u64,
    /// Matched pairs averaged per point.
    pub seeds: u64,
    /// `--fast [--fast-threshold F]`: run both schedulers under fast-sim.
    pub fastsim: Option<smtsim::FastSimPolicy>,
}

/// One sweep point: means of the per-seed means, percentiles of the jobs
/// pooled across seeds.
pub struct OpenSweepPoint {
    /// Mean naive response time (cycles).
    pub naive_mean: f64,
    /// Mean SOS response time (cycles).
    pub sos_mean: f64,
    /// Mean resident population under the naive scheduler.
    pub population: f64,
    /// Mean interarrival time used (cycles).
    pub lambda: u64,
    /// Naive response-time percentiles.
    pub naive: Percentiles,
    /// SOS response-time percentiles.
    pub sos: Percentiles,
}

impl OpenSweep {
    /// Parses the process's command line (exit 2 with usage on an error) and
    /// announces a fast-sim policy on stderr.
    pub fn from_args(bin: &str) -> Self {
        let usage = "[cycle_scale] [num_jobs] [seeds] [--fast] [--fast-threshold F]";
        let sweep = cli::parse_or_exit(bin, usage, |flags| {
            let sweep = OpenSweep {
                fastsim: flags.fastsim()?,
                scale: flags.count("cycle_scale", 6000)?,
                num_jobs: flags.count("num_jobs", 120)?,
                seeds: flags.count("seeds", 3)?,
            };
            if sweep.scale > MEAN_JOB_CYCLES {
                return Err(format!(
                    "cycle_scale {} exceeds {MEAN_JOB_CYCLES}: the mean job length would be 0 cycles",
                    sweep.scale
                ));
            }
            Ok(sweep)
        });
        if let Some(p) = &sweep.fastsim {
            eprintln!("# fastsim: {}", p.describe());
        }
        sweep
    }

    /// Runs one point: at SMT level `smt`, offering `rho` times the capacity
    /// each seed's job population actually sustains (λ = T / (ρ · capacity),
    /// self-calibrated by a saturated pilot run), with seed `i` of the sweep
    /// being `seed_base + seed_stride · i`.
    pub fn point(&self, smt: usize, rho: f64, seed_base: u64, seed_stride: u64) -> OpenSweepPoint {
        let (mut naive_total, mut sos_total, mut population, mut lambda) = (0.0, 0.0, 0.0, 0);
        let (mut naive_jobs, mut sos_jobs) = (JobSummary::default(), JobSummary::default());
        for seed in 0..self.seeds {
            let mut cfg = OpenSystemConfig::scaled(smt);
            cfg.mean_job_cycles = MEAN_JOB_CYCLES / self.scale;
            // The timeslice needs to amortize pipeline fill and give the sample
            // phase usable counter windows, so it scales less aggressively
            // than job lengths (T/timeslice ≈ 130 vs the paper's 400).
            cfg.timeslice = 2_500;
            cfg.num_jobs = self.num_jobs as usize;
            // IPC is the strongest predictor on this substrate (see
            // EXPERIMENTS.md); the paper likewise ran SOS with its best.
            cfg.predictor = PredictorKind::Ipc;
            cfg.seed = seed_base + seed_stride * seed;
            cfg.fastsim = self.fastsim.clone();
            let solo = calibrate_benchmarks(cfg.smt, cfg.calibration_cycles, cfg.seed);
            // Over the finite trace the resident population ramps into the
            // paper's N ≈ 2·SMT regime (steady-state critical queueing would
            // need unaffordable horizons), and the response-time gap
            // directly reflects scheduler throughput.
            let capacity = measure_capacity(&cfg, &solo);
            cfg.mean_interarrival = (cfg.mean_job_cycles as f64 / (rho * capacity)) as u64;
            lambda += cfg.mean_interarrival / self.seeds;
            let (naive, sos) = matched_pair(&cfg, &solo);
            population += naive.mean_population;
            let naive = JobSummary::of(&naive.completed, &solo);
            let sos = JobSummary::of(&sos.completed, &solo);
            naive_total += naive.mean_response();
            sos_total += sos.mean_response();
            naive_jobs.merge(&naive);
            sos_jobs.merge(&sos);
        }
        OpenSweepPoint {
            naive_mean: naive_total / self.seeds as f64,
            sos_mean: sos_total / self.seeds as f64,
            population: population / self.seeds as f64,
            lambda,
            naive: naive_jobs.response(),
            sos: sos_jobs.response(),
        }
    }
}

impl OpenSweepPoint {
    /// Percent by which SOS's mean response time undercuts the naive one.
    pub fn improvement(&self) -> f64 {
        100.0 * (self.naive_mean - self.sos_mean) / self.naive_mean
    }
}

/// Prints the percentile table that closes Figures 5 and 6: one row per
/// sweep point under its pre-formatted label.
pub fn print_response_percentiles(label_header: &str, rows: &[(String, OpenSweepPoint)]) {
    println!();
    println!("response-time percentiles (cycles, jobs pooled across seeds)");
    println!(
        "{label_header} {:>12} {:>12} {:>12}   {:>12} {:>12} {:>12}",
        "naive p50", "naive p95", "naive p99", "SOS p50", "SOS p95", "SOS p99"
    );
    for (label, p) in rows {
        println!(
            "{label} {:>12.0} {:>12.0} {:>12.0}   {:>12.0} {:>12.0} {:>12.0}",
            p.naive.p50, p.naive.p95, p.naive.p99, p.sos.p50, p.sos.p95, p.sos.p99
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_uses_requested_scale() {
        let cfg = config(500);
        assert_eq!(cfg.cycle_scale, 500);
        assert_eq!(cfg.predictor, PredictorKind::Score);
    }
}

//! Reproduces Figure 1: worst and best weighted speedup observed when the 13
//! combinations of jobmix, SMT level, and job replacement policy are run with
//! permuted coschedules.
//!
//! Usage: `cargo run --release -p sos-bench --bin fig1 [cycle_scale]`

use sos_core::par::parallel_map;
use sos_core::sos::SosScheduler;
use sos_core::ExperimentSpec;

fn main() {
    let scale = sos_bench::cli::scale_or_exit("fig1");
    let cfg = sos_bench::config(scale);
    sos_bench::init_cache();
    eprintln!("# running 13 experiments at 1/{scale} paper scale ...");

    let specs = ExperimentSpec::all_paper_experiments();
    let reports = parallel_map(specs, |spec| SosScheduler::evaluate_experiment(&spec, &cfg));

    println!("Figure 1 — worst and best weighted speedup per experiment");
    let mut spreads = Vec::new();
    for report in &reports {
        sos_bench::print_experiment_summary(report);
        spreads.push(sos_bench::pct_over(report.best_ws(), report.worst_ws()));
    }
    let avg = spreads.iter().sum::<f64>() / spreads.len() as f64;
    let max = spreads.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    println!();
    println!(
        "speedup varies by an average of {avg:.0}% and a maximum of {max:.0}% across the samples"
    );
    println!("(paper: average 8%, maximum 25%)");
}

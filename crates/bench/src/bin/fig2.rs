//! Reproduces Figure 2: weighted speedup achieved with each dynamic
//! predictor on Jsb(6,3,3), alongside the best, worst, and average schedule.
//!
//! Usage: `cargo run --release -p sos-bench --bin fig2 [cycle_scale]`

use sos_core::sos::SosScheduler;
use sos_core::ExperimentSpec;

fn main() {
    let scale = sos_bench::cli::scale_or_exit("fig2");
    let cfg = sos_bench::config(scale);
    let spec: ExperimentSpec = "Jsb(6,3,3)".parse().expect("valid label");
    eprintln!("# running {spec} at 1/{scale} paper scale ...");
    let report = SosScheduler::evaluate_experiment(&spec, &cfg);

    println!("Figure 2 — weighted speedup with several dynamic predictors on Jsb(6,3,3)");
    println!("    {:<10} WS {:>6.3}", "Best", report.best_ws());
    println!("    {:<10} WS {:>6.3}", "Worst", report.worst_ws());
    println!("    {:<10} WS {:>6.3}", "Average", report.average_ws());
    sos_bench::print_predictor_bars(&report);
    println!();
    println!(
        "best is {:+.1}% over worst and {:+.1}% over average (paper: 17% and 9%)",
        sos_bench::pct_over(report.best_ws(), report.worst_ws()),
        sos_bench::pct_over(report.best_ws(), report.average_ws()),
    );
}

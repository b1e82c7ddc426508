//! Reproduces Figure 3: weighted speedup achieved by SOS for all 13 jobmix /
//! SMT-level / replacement-policy combinations, per predictor.
//!
//! Also prints the Figure 3 headline statistics: the Score predictor's gain
//! over unlucky (worst) schedules and over the expected value of random
//! schedules, excluding the Jpb(10,2,2) outlier as the paper does.
//!
//! Usage: `cargo run --release -p sos-bench --bin fig3 [cycle_scale]`

use sos_core::par::parallel_map;
use sos_core::sos::SosScheduler;
use sos_core::{ExperimentSpec, PredictorKind};

fn main() {
    let scale = sos_bench::cli::scale_or_exit("fig3");
    let cfg = sos_bench::config(scale);
    sos_bench::init_cache();
    eprintln!("# running 13 experiments at 1/{scale} paper scale ...");

    let specs = ExperimentSpec::all_paper_experiments();
    let reports = parallel_map(specs, |spec| SosScheduler::evaluate_experiment(&spec, &cfg));

    println!("Figure 3 — weighted speedup achieved by SOS for several jobmixes");
    for report in &reports {
        sos_bench::print_experiment_summary(report);
        sos_bench::print_predictor_bars(report);
    }

    // Headline: Score vs worst and vs average, excluding Jpb(10,2,2).
    let mut over_worst = Vec::new();
    let mut over_avg = Vec::new();
    for report in &reports {
        if report.spec.parallel && !report.spec.loose_sync {
            continue; // the Jpb(10,2,2) artifact case (§6)
        }
        let score_ws = report.ws_with(PredictorKind::Score);
        over_worst.push(sos_bench::pct_over(score_ws, report.worst_ws()));
        over_avg.push(sos_bench::pct_over(score_ws, report.average_ws()));
    }
    println!();
    println!(
        "Score predictor vs worst: avg {:+.1}% (paper: +22%);  vs average: avg {:+.1}% (paper: +7%)",
        over_worst.iter().sum::<f64>() / over_worst.len() as f64,
        over_avg.iter().sum::<f64>() / over_avg.len() as f64,
    );
}

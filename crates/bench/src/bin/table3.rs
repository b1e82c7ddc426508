//! Reproduces Table 3: detailed sample-phase predictor data and symbios-phase
//! weighted speedup for every schedule of Jsb(6,3,3).
//!
//! Usage: `cargo run --release -p sos-bench --bin table3 [cycle_scale]`
//! (default scale 1000; use 1 for full paper scale).

use sos_core::sos::SosScheduler;
use sos_core::ExperimentSpec;

fn main() {
    let scale = sos_bench::cli::scale_or_exit("table3");
    let spec: ExperimentSpec = "Jsb(6,3,3)".parse().expect("valid label");
    let cfg = sos_bench::config(scale);

    eprintln!("# running {spec} at 1/{scale} paper scale ...");
    let report = SosScheduler::evaluate_experiment(&spec, &cfg);

    println!("Table 3 — jobmix Jsb(6,3,3): sample-phase predictors vs. symbios WS");
    println!(
        "{:<9} {:>6} {:>8} {:>7} {:>6} {:>6} {:>6} {:>9} {:>8} {:>9} {:>6}",
        "Schedule",
        "IPC",
        "AllConf",
        "Dcache",
        "FQ",
        "FP",
        "Sum2",
        "Diversity",
        "Balance",
        "Composite",
        "WS(t)"
    );
    let composite = sos_core::predictor::composite_scores(&report.samples);
    for (i, s) in report.samples.iter().enumerate() {
        println!(
            "{:<9} {:>6.3} {:>8.2} {:>7.2} {:>6.2} {:>6.2} {:>6.2} {:>9.2} {:>8.3} {:>9.2} {:>6.3}",
            s.notation,
            s.ipc,
            s.allconf,
            s.dcache,
            s.fq,
            s.fp,
            s.sum2,
            s.diversity,
            s.balance,
            composite[i],
            report.symbios_ws[i]
        );
    }
    println!();
    println!(
        "best WS = {:.3}  worst = {:.3}  avg = {:.3}",
        report.best_ws(),
        report.worst_ws(),
        report.average_ws()
    );
    println!(
        "best over worst: {:+.1}%   best over avg: {:+.1}%",
        100.0 * (report.best_ws() / report.worst_ws() - 1.0),
        100.0 * (report.best_ws() / report.average_ws() - 1.0)
    );
    println!();
    println!("predictor picks:");
    for (p, idx) in &report.picks {
        println!(
            "  {:<10} -> {:<9} WS {:.3} ({:+.1}% vs avg)",
            p.name(),
            report.candidates[*idx],
            report.symbios_ws[*idx],
            100.0 * (report.symbios_ws[*idx] / report.average_ws() - 1.0)
        );
    }
}

//! Reproduces §6 (parallel workload scheduling): Jpb(10,2,2) versus
//! J2pb(10,2,2).
//!
//! With the tightly-synchronizing ARRAY (Jpb), schedules that do not
//! coschedule the two ARRAY threads collapse, so the best schedule must pair
//! the siblings and the gain over the average random schedule is enormous
//! (the paper's "almost 400%" artifact). With the loose variant (J2pb), the
//! best schedule does *not* coschedule the siblings.
//!
//! Usage: `cargo run --release -p sos-bench --bin parallel [cycle_scale]`

use sos_core::sos::SosScheduler;
use sos_core::{ExperimentSpec, PredictorKind};

/// The ARRAY threads are pool indices 8 and 9 in the Table 1 parallel mix.
fn coschedules_array(notation: &str) -> bool {
    notation
        .split('_')
        .any(|tuple| tuple.contains('8') && tuple.contains('9'))
}

fn report_one(label: &str, cfg: &sos_core::SosConfig) {
    let spec: ExperimentSpec = label.parse().expect("valid label");
    let report = SosScheduler::evaluate_experiment(&spec, cfg);
    println!("{label}:");
    let mut best = (0usize, f64::NEG_INFINITY);
    for (i, (n, ws)) in report.candidates.iter().zip(&report.symbios_ws).enumerate() {
        let paired = coschedules_array(n);
        println!(
            "    {:<24} WS {:>6.3}   ARRAY siblings {}",
            n,
            ws,
            if paired { "coscheduled" } else { "split" }
        );
        if *ws > best.1 {
            best = (i, *ws);
        }
    }
    let ipc_pick = report.ws_with(PredictorKind::Ipc);
    let score_pick = report.ws_with(PredictorKind::Score);
    println!(
        "    best: {} (WS {:.3}, ARRAY {})   avg WS {:.3}   best/avg {:+.1}%",
        report.candidates[best.0],
        best.1,
        if coschedules_array(&report.candidates[best.0]) {
            "coscheduled"
        } else {
            "split"
        },
        report.average_ws(),
        sos_bench::pct_over(best.1, report.average_ws()),
    );
    println!(
        "    IPC-predicted WS {:.3}   Score-predicted WS {:.3}",
        ipc_pick, score_pick
    );
    println!();
}

fn main() {
    let scale = sos_bench::cli::scale_or_exit("parallel");
    let cfg = sos_bench::config(scale);
    eprintln!("# running Jpb(10,2,2) and J2pb(10,2,2) at 1/{scale} paper scale ...");
    println!("§6 — parallel workload scheduling");
    report_one("Jpb(10,2,2)", &cfg);
    report_one("J2pb(10,2,2)", &cfg);
    println!("expected shape: Jpb's best schedule pairs the ARRAY siblings and towers over");
    println!("the average; J2pb's best schedule splits them (paper: split beats paired by 13%).");
}

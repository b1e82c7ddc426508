//! Reproduces §8 (warmstart scheduling): the symbiosis gain from swapping
//! only one job per timeslice instead of the whole running set.
//!
//! Compares the average symbios WS of the swap-all experiments against their
//! swap-one counterparts, at the big timeslice (both cold-start-amortization
//! effects present) and at the little timeslice (isolating the reduced
//! memory-subsystem pressure).
//!
//! Usage: `cargo run --release -p sos-bench --bin warmstart [cycle_scale]`

use sos_core::par::parallel_map;
use sos_core::sos::SosScheduler;
use sos_core::ExperimentSpec;

fn main() {
    let scale = sos_bench::cli::scale_or_exit("warmstart");
    let cfg = sos_bench::config(scale);
    sos_bench::init_cache();
    eprintln!("# running warmstart comparisons at 1/{scale} paper scale ...");

    // (swap-all baseline, swap-one big timeslice, swap-one little timeslice)
    let groups: Vec<(&str, &str, Option<&str>)> = vec![
        ("Jsb(5,2,2)", "Jsb(5,2,1)", None),
        ("Jsb(6,3,3)", "Jsb(6,3,1)", Some("Jsl(6,3,1)")),
        ("Jsb(8,4,4)", "Jsb(8,4,1)", Some("Jsl(8,4,1)")),
    ];

    let mut labels: Vec<String> = Vec::new();
    for (a, b, c) in &groups {
        labels.push((*a).into());
        labels.push((*b).into());
        if let Some(c) = c {
            labels.push((*c).into());
        }
    }
    let reports = parallel_map(labels.clone(), |label| {
        let spec: ExperimentSpec = label.parse().expect("valid label");
        SosScheduler::evaluate_experiment(&spec, &cfg)
    });
    let avg_of = |label: &str| -> f64 {
        let idx = labels.iter().position(|l| l == label).expect("ran");
        reports[idx].average_ws()
    };

    println!("§8 — warmstart scheduling (average symbios WS across sampled schedules)");
    let mut big_gains = Vec::new();
    for (a, b, c) in &groups {
        let base = avg_of(a);
        let warm = avg_of(b);
        let gain = sos_bench::pct_over(warm, base);
        big_gains.push(gain);
        print!("{a} -> {b}: {base:.3} -> {warm:.3} ({gain:+.1}%)");
        if let Some(c) = c {
            let little = avg_of(c);
            print!(
                "   {c}: {little:.3} ({:+.1}% vs {a})",
                sos_bench::pct_over(little, base)
            );
        }
        println!();
    }
    println!();
    println!(
        "swap-one gain at the big timeslice: avg {:+.1}% (paper: ~7%); little-timeslice",
        big_gains.iter().sum::<f64>() / big_gains.len() as f64
    );
    println!("swap-one gains are expected to be smaller (paper: negligible).");
}

//! Reproduces Figure 4: improvements in weighted speedup achievable by SOS
//! using hierarchical symbiosis (choosing both the coschedules and the
//! number of contexts per multithreaded job) at SMT levels 2, 3, 4, and 6.
//!
//! Usage: `cargo run --release -p sos-bench --bin fig4 [cycle_scale]`

use sos_core::hier::evaluate_hierarchical;
use sos_core::par::parallel_map;

fn main() {
    let scale = sos_bench::cli::scale_or_exit("fig4");
    let cfg = sos_bench::config(scale);
    eprintln!("# running hierarchical symbiosis at SMT levels 2, 3, 4, 6 (1/{scale} scale) ...");

    let levels = vec![2usize, 3, 4, 6];
    let reports = parallel_map(levels, |level| evaluate_hierarchical(level, 4, &cfg));

    println!("Figure 4 — hierarchical symbiosis: % WS improvement of the predicted");
    println!("(allocation, schedule) pair over the average and worst alternatives");
    println!(
        "{:<10} {:>8} {:>9} {:>9} {:>12} {:>12}",
        "SMT level", "picked", "avg", "worst", "vs avg", "vs worst"
    );
    for r in &reports {
        println!(
            "{:<10} {:>8.3} {:>9.3} {:>9.3} {:>11.1}% {:>11.1}%",
            r.smt,
            r.picked_ws(),
            r.average_ws(),
            r.worst_ws(),
            r.improvement_over_average(),
            r.improvement_over_worst()
        );
        let pick = &r.outcomes[r.score_pick];
        println!(
            "           picked allocation {:?} schedule {}",
            pick.threads_per_job, pick.notation
        );
    }
    println!();
    println!("expected shape: the picked pair beats average and worst at every SMT level.");
}

//! Reproduces Figure 5: response-time improvements obtained by SOS over a
//! random (naive) jobscheduler for SMT levels 2, 3, 4, and 6, on an open
//! system with exponential arrivals and job lengths.
//!
//! Response times in a queueing system near capacity are extremely
//! high-variance, so each SMT level is measured as a *matched pair* (both
//! schedulers see the identical arrival trace) and averaged over several
//! seeds ([`sos_bench::OpenSweep`]), each seed offering ~115% of the capacity
//! its own job population sustains.
//!
//! Usage: `cargo run --release -p sos-bench --bin fig5 [cycle_scale] [num_jobs] [seeds]
//! [--fast] [--fast-threshold F]`
//!
//! `--fast` runs both schedulers under phase-aware sampled fast simulation
//! (`--fast-threshold` sets the phase-stability threshold and implies
//! `--fast`). Without it, every timeslice executes in full detail and the
//! output is byte-identical to earlier revisions.

use sos_bench::OpenSweep;
use sos_core::par::parallel_map;

fn main() {
    let sweep = OpenSweep::from_args("fig5");
    eprintln!(
        "# open system at 1/{} paper scale, {} jobs x {} seeds per level ...",
        sweep.scale, sweep.num_jobs, sweep.seeds
    );
    println!("Figure 5 — response-time improvement of SOS over a random scheduler");
    println!(
        "{:<10} {:>16} {:>16} {:>8} {:>13}",
        "SMT level", "naive (cycles)", "SOS (cycles)", "N(avg)", "improvement"
    );
    let rows = parallel_map(vec![2usize, 3, 4, 6], |smt| {
        (format!("{smt:<10}"), sweep.point(smt, 1.15, 0xF150, 7919))
    });
    for (smt, p) in &rows {
        println!(
            "{smt} {:>16.0} {:>16.0} {:>8.1} {:>12.1}%",
            p.naive_mean,
            p.sos_mean,
            p.population,
            p.improvement()
        );
    }
    println!();
    println!("(paper: improvements between 8% and nearly 18% across SMT levels)");
    sos_bench::print_response_percentiles(&format!("{:<10}", "SMT level"), &rows);
}

//! Reproduces Figure 6: response-time improvements of SOS over a random
//! scheduler for various mean arrival rates λ, with the SMT level held
//! constant at 3.
//!
//! λ is swept as a fraction ρ of the machine's measured capacity,
//! λ = T / (ρ · capacity); each point is a matched-pair comparison
//! (identical arrival traces) averaged over several seeds
//! ([`sos_bench::OpenSweep`]).
//!
//! Usage: `cargo run --release -p sos-bench --bin fig6 [cycle_scale] [num_jobs] [seeds]
//! [--fast] [--fast-threshold F]`
//!
//! `--fast` runs both schedulers under phase-aware sampled fast simulation
//! (`--fast-threshold` sets the phase-stability threshold and implies
//! `--fast`). Without it, every timeslice executes in full detail and the
//! output is byte-identical to earlier revisions.

use sos_bench::OpenSweep;
use sos_core::par::parallel_map;

fn main() {
    let sweep = OpenSweep::from_args("fig6");
    eprintln!(
        "# open system at SMT 3, 1/{} paper scale, {} jobs x {} seeds ...",
        sweep.scale, sweep.num_jobs, sweep.seeds
    );
    println!("Figure 6 — response-time improvement vs arrival rate (SMT 3)");
    println!(
        "{:<8} {:<14} {:>16} {:>16} {:>13}",
        "load ρ", "λ (cycles)", "naive (cycles)", "SOS (cycles)", "improvement"
    );
    let rows = parallel_map(vec![0.90, 1.00, 1.10, 1.20], |rho| {
        (format!("{rho:<8.2}"), sweep.point(3, rho, 0xF166, 104_729))
    });
    for (rho, p) in &rows {
        println!(
            "{rho} {:<14} {:>16.0} {:>16.0} {:>12.1}%",
            p.lambda,
            p.naive_mean,
            p.sos_mean,
            p.improvement()
        );
    }
    println!();
    println!("(paper: positive improvements across λ values, varying with the load)");
    sos_bench::print_response_percentiles(&format!("{:<8}", "load ρ"), &rows);
}

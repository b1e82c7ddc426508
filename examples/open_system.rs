//! Open system: jobs arrive with exponential interarrival times and leave
//! when done; compare SOS against the naive arrival-order scheduler on the
//! same arrival trace (§9 of the paper).
//!
//! Run with: `cargo run --release --example open_system`

use smt_symbiosis::sos::opensys::{
    arrival_trace, calibrate_benchmarks, matched_pair, OpenSystemConfig,
};
use smt_symbiosis::sos::report::JobSummary;

fn main() {
    let mut cfg = OpenSystemConfig::scaled(3); // SMT level 3
    cfg.num_jobs = 40;

    println!(
        "SMT {}, mean job length {} cycles, mean interarrival {} cycles, {} jobs",
        cfg.smt, cfg.mean_job_cycles, cfg.mean_interarrival, cfg.num_jobs
    );

    let solo = calibrate_benchmarks(cfg.smt, 30_000, cfg.seed);
    let trace = arrival_trace(&cfg, &solo);
    println!("first arrivals:");
    for a in trace.iter().take(5) {
        println!(
            "  t={:>9}  {:<7} {:>9} instructions",
            a.arrival,
            a.benchmark.name(),
            a.instructions
        );
    }

    // The same trace (it is a pure function of the configuration) through
    // both schedulers.
    let (naive, sos) = matched_pair(&cfg, &solo);
    let naive = JobSummary::of(&naive.completed, &solo).mean_response();
    let sos = JobSummary::of(&sos.completed, &solo).mean_response();

    println!("\nmean response time:");
    println!("  naive {naive:>12.0} cycles");
    println!("  SOS   {sos:>12.0} cycles");
    println!("  improvement: {:.1}%", 100.0 * (naive - sos) / naive);
}

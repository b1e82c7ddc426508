//! Reproduces Table 2: the number of distinct possible schedules for each
//! jobmix, and the time to profile at most 10 schedules in the sample phase.
//!
//! This table is analytic (schedule combinatorics and cycle accounting), so
//! the output matches the paper exactly regardless of scale.

use sos_core::ExperimentSpec;

fn main() {
    sos_bench::cli::parse_or_exit("table2", "", |_| Ok(()));
    println!("Table 2 — distinct schedules and sample-phase cycles");
    println!(
        "{:<14} {:>18} {:>22}",
        "Experiment", "Distinct Schedules", "Million Sample Cycles"
    );
    for spec in ExperimentSpec::all_paper_experiments() {
        println!(
            "{:<14} {:>18} {:>22.0}",
            spec.label(),
            spec.distinct_schedules(),
            spec.paper_sample_cycles() as f64 / 1e6
        );
    }
}

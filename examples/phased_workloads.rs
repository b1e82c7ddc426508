//! Phased workloads and drift-triggered resampling.
//!
//! §9 of the paper notes that SPEC/NPB profiles are so stable that periodic
//! resampling rarely pays off, but "other workloads will experience more
//! phased behavior". This example first shows a strongly phased job's IPC
//! swinging between personalities, then runs a small open system where half
//! the jobs are phased and compares SOS with and without the execution-drift
//! resampling trigger.
//!
//! Run with: `cargo run --release --example phased_workloads`

use smt_symbiosis::sos::opensys::{
    arrival_trace, calibrate_benchmarks, run_open_system_on_trace, OpenSystemConfig, SchedulerKind,
};
use smt_symbiosis::sos::report::JobSummary;
use smt_symbiosis::workloads::phased::fp_int_alternator;
use smtsim::{MachineConfig, Processor, StreamId};

fn main() {
    // Part 1: watch one phased job oscillate.
    let mut cpu = Processor::new(MachineConfig::alpha21264_like(1));
    let mut job = fp_int_alternator(40_000, StreamId(0), 7);
    println!("per-timeslice IPC and FP share of a phased job (phase length 40k instrs):");
    for slice in 0..8 {
        let stats = cpu.run_timeslice(&mut [&mut job], 20_000);
        let (fp_pct, _) = stats.fp_int_mix_pct();
        println!(
            "  slice {slice}: IPC {:.2}  fp {:>5.1}%  (phase {})",
            stats.total_ipc(),
            fp_pct,
            job.active_phase()
        );
    }

    // Part 2: does drift-triggered resampling help when jobs shift phases?
    let mut cfg = OpenSystemConfig::scaled(3);
    cfg.mean_job_cycles = 400_000;
    cfg.mean_interarrival = 140_000;
    cfg.timeslice = 2_500;
    cfg.num_jobs = 30;
    cfg.phased_fraction = 0.5;

    let solo = calibrate_benchmarks(cfg.smt, 20_000, cfg.seed);
    let trace = arrival_trace(&cfg, &solo);

    cfg.drift_threshold = None;
    let timer_only = run_open_system_on_trace(SchedulerKind::Sos, &cfg, &trace);
    cfg.drift_threshold = Some(0.30);
    let with_drift = run_open_system_on_trace(SchedulerKind::Sos, &cfg, &trace);

    println!("\nopen system, 50% phased jobs, SMT 3:");
    println!(
        "  timer-only resampling: mean response {:>10.0} cycles ({} resamples)",
        JobSummary::of(&timer_only.completed, &solo).mean_response(),
        timer_only.resamples
    );
    println!(
        "  with drift trigger:    mean response {:>10.0} cycles ({} resamples)",
        JobSummary::of(&with_drift.completed, &solo).mean_response(),
        with_drift.resamples
    );
}

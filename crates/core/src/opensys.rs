//! The open system of §9: random job arrivals and departures, resampling,
//! and response time.
//!
//! Jobs enter with exponentially distributed interarrival times and have
//! exponentially distributed lengths (mean `T`, expressed as `cycles ×
//! solo-IPC` instructions of one of the Table 1 benchmarks — "a job is about
//! 2 billion cycles worth of instructions"). The arrival rate is chosen so
//! the system stays *stable*: the machine delivers roughly `WS ≈ 1.4–2`
//! solo-job-cycles per cycle, so the default interarrival time is set a
//! little above `T / WS` and the resident population hovers around the
//! paper's `N ≈ 2 × SMT-level` under queueing fluctuations.
//!
//! Two schedulers are compared on *identical* arrival traces
//! ([`matched_pair`]):
//!
//! * the **naive** control, which "simply coschedules jobs together in
//!   tuples equal to the SMT level in the order in which they arrive", and
//! * **SOS**, which resamples on every arrival, departure, or expiry of the
//!   symbiosis timer (with exponential backoff when the prediction repeats),
//!   and runs the Score-predicted schedule in between.
//!
//! This module is the *batch* front end: configuration, calibration, and
//! one run that [replays](ClusterEngine::replay) a seeded
//! [`crate::arrivals::ArrivalTrace`] through a 1-shard [`ClusterEngine`],
//! whose [`crate::online::OnlineEngine`] shard holds the actual scheduler
//! state machine (the `sos-serve` daemon drives the same engine from live
//! TCP submissions). [`crate::report::JobSummary`] says what a run's
//! completed jobs amount to.

use crate::cluster::{ClusterConfig, ClusterEngine, DispatchPolicy};
use crate::online::OnlineConfig;
use crate::report::solo_cycles;
use serde::{Deserialize, Serialize};
use smtsim::trace::StreamId;
use smtsim::{MachineConfig, Processor};
use std::collections::HashMap;
use workloads::spec::Benchmark;

pub use crate::arrivals::{ArrivalTrace, ArrivalTraceSpec, JobArrival, JOB_KINDS};
pub use crate::online::{JobRecord, SchedulerKind};

/// Open-system configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OpenSystemConfig {
    /// Hardware contexts (the SMT level).
    pub smt: usize,
    /// Mean job length in solo-execution cycles (the paper's `T`, scaled).
    pub mean_job_cycles: u64,
    /// Mean interarrival time in cycles (the paper's λ).
    pub mean_interarrival: u64,
    /// Scheduler clock in cycles.
    pub timeslice: u64,
    /// Measurement window (per benchmark, doubled for warm-up) used when
    /// calibrating solo IPCs for the cycles-to-instructions job-length
    /// conversion; see [`calibrate_benchmarks`].
    pub calibration_cycles: u64,
    /// Jobs to generate before closing the arrival process (the run
    /// continues until all of them complete).
    pub num_jobs: usize,
    /// Schedules sampled per SOS sample phase.
    pub sample_schedules: usize,
    /// Predictor SOS uses.
    pub predictor: crate::predictor::PredictorKind,
    /// Optional execution-drift trigger (§9: "if the jobmix is observed to
    /// be changing rapidly ... sampling frequency goes up"): when the
    /// symbios-phase IPC deviates from the sampled prediction by more than
    /// this relative fraction for several consecutive timeslices, SOS
    /// resamples immediately instead of waiting for the timer.
    pub drift_threshold: Option<f64>,
    /// Fraction of arriving jobs that are *strongly phased*
    /// ([`workloads::phased`]): they alternate between an FP-bound and an
    /// integer-bound personality, the workload class §9 says benefits most
    /// from periodic resampling. 0 reproduces the paper's SPEC/NPB-only mix.
    pub phased_fraction: f64,
    /// RNG seed; the arrival trace is a pure function of the seed, so both
    /// schedulers see identical workloads.
    pub seed: u64,
    /// Phase-aware fast-forward simulation ([`smtsim::fastsim`]); `None`
    /// (the default, and what configurations from before the field
    /// deserialize to) is full detail, byte-identical to pre-fast-sim runs.
    #[serde(default)]
    pub fastsim: Option<smtsim::FastSimPolicy>,
}

impl OpenSystemConfig {
    /// Estimated machine throughput (weighted speedup) at an SMT level, used
    /// to place the default arrival rate in the stable region.
    pub fn estimated_ws(smt: usize) -> f64 {
        // Sustained open-system throughput in solo-job-cycles per cycle,
        // measured empirically with random Table 1 job mixes (lower than the
        // closed-system WS of the hand-diversified mixes: random draws are
        // less symbiotic and the rotation pays cold-start costs).
        match smt {
            0 | 1 => 1.0,
            2 => 1.35,
            3 => 1.55,
            4 => 1.65,
            _ => 1.75,
        }
    }

    /// A configuration at 1/1000 paper scale for the given SMT level, loaded
    /// to about 90% of estimated capacity so that the resident population
    /// hovers near the paper's `N ≈ 2 × SMT` and the scheduler has real
    /// choices to make.
    pub fn scaled(smt: usize) -> Self {
        let mean_job_cycles = 2_000_000; // 2B / 1000
        let capacity = Self::estimated_ws(smt);
        let mean_interarrival = (mean_job_cycles as f64 / (0.90 * capacity)) as u64;
        OpenSystemConfig {
            smt,
            mean_job_cycles,
            mean_interarrival,
            timeslice: 5_000,
            calibration_cycles: 60_000,
            num_jobs: 60,
            sample_schedules: 6,
            predictor: crate::predictor::PredictorKind::Score,
            drift_threshold: Some(0.35),
            phased_fraction: 0.0,
            seed: 0xA11CE,
            fastsim: None,
        }
    }

    /// The arrival-process subset of this configuration (what
    /// [`ArrivalTrace::generate`] consumes).
    pub fn trace_spec(&self) -> ArrivalTraceSpec {
        ArrivalTraceSpec {
            mean_interarrival: self.mean_interarrival,
            mean_job_cycles: self.mean_job_cycles,
            num_jobs: self.num_jobs,
            phased_fraction: self.phased_fraction,
            seed: self.seed,
        }
    }

    /// This configuration with its arrival process replaced by `spec` (the
    /// inverse of [`trace_spec`](Self::trace_spec)).
    pub fn with_trace(self, spec: &ArrivalTraceSpec) -> Self {
        OpenSystemConfig {
            mean_interarrival: spec.mean_interarrival,
            mean_job_cycles: spec.mean_job_cycles,
            num_jobs: spec.num_jobs,
            phased_fraction: spec.phased_fraction,
            seed: spec.seed,
            ..self
        }
    }

    /// The scheduler-facing subset of this configuration (what an
    /// [`crate::online::OnlineEngine`] shard consumes). The symbiosis base
    /// interval is the mean interarrival time, as §9 prescribes.
    pub fn online(&self) -> OnlineConfig {
        OnlineConfig {
            smt: self.smt,
            timeslice: self.timeslice,
            sample_schedules: self.sample_schedules,
            predictor: self.predictor,
            drift_threshold: self.drift_threshold,
            base_interval: self.mean_interarrival,
            seed: self.seed,
            fastsim: self.fastsim.clone(),
        }
    }
}

/// Result of one open-system run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OpenSystemResult {
    /// Which scheduler ran.
    pub scheduler: SchedulerKind,
    /// Completed jobs, in departure order.
    pub completed: Vec<JobRecord>,
    /// Total cycles simulated.
    pub cycles: u64,
    /// Time-averaged number of jobs resident (Little's-law `N`).
    pub mean_population: f64,
    /// Sample phases entered (SOS only; 0 for the naive scheduler).
    pub resamples: u64,
}

/// Generates the arrival trace for a configuration: a pure function of the
/// seed, so SOS and the naive scheduler can be fed the same workload.
///
/// Job lengths are `Exp(T)` cycles converted to instructions at the
/// benchmark's solo IPC, which `solo` provides per benchmark. (Thin wrapper
/// over [`ArrivalTrace::generate`], kept for the original call sites.)
pub fn arrival_trace(cfg: &OpenSystemConfig, solo: &HashMap<Benchmark, f64>) -> Vec<JobArrival> {
    ArrivalTrace::generate(&cfg.trace_spec(), solo).jobs
}

/// Measures each benchmark's solo IPC on the given machine (used for the
/// cycles-to-instructions job-length conversion).
pub fn calibrate_benchmarks(smt: usize, cycles: u64, seed: u64) -> HashMap<Benchmark, f64> {
    let mut cpu = Processor::new(MachineConfig::alpha21264_like(smt));
    JOB_KINDS
        .iter()
        .map(|&b| {
            cpu.flush_memory_state();
            let mut s = b.stream(StreamId(0), seed ^ 0xCA11);
            let _ = cpu.run_timeslice(&mut [&mut *s], cycles);
            let stats = cpu.run_timeslice(&mut [&mut *s], cycles);
            (b, stats.total_ipc().max(1e-3))
        })
        .collect()
}

/// Measures the machine's sustained open-system capacity for this
/// configuration: runs a saturated pilot batch (24 jobs, all present from
/// cycle 0) under the naive scheduler and returns delivered solo-work per cycle —
/// the weighted-speedup throughput the open system can actually sustain.
///
/// Use it to place arrival rates relative to true capacity:
/// `λ = T / (ρ · capacity)`.
pub fn measure_capacity(cfg: &OpenSystemConfig, solo: &HashMap<Benchmark, f64>) -> f64 {
    let mut pilot = cfg.clone();
    pilot.num_jobs = 24;
    let mut trace = arrival_trace(&pilot, solo);
    for a in &mut trace {
        a.arrival = 0;
    }
    // Summed over the offered trace, in trace order: every job completes,
    // and the order fixes the bits the arrival rates are derived from.
    let offered: f64 = trace.iter().map(|a| solo_cycles(solo, a)).sum();
    let res = run_open_system_on_trace(SchedulerKind::Naive, &pilot, &trace);
    (offered / res.cycles.max(1) as f64).max(0.1)
}

/// Runs the open system on an arrival trace: [replays](ClusterEngine::replay)
/// it through a fresh 1-shard [`ClusterEngine`] (and panics where
/// [`ClusterEngine::new`] does).
pub fn run_open_system_on_trace(
    kind: SchedulerKind,
    cfg: &OpenSystemConfig,
    trace: &[JobArrival],
) -> OpenSystemResult {
    // One shard: the dispatch policy never has a choice to make.
    let one_core = ClusterConfig::new(1, DispatchPolicy::RoundRobin, kind, cfg.online());
    let mut engine = ClusterEngine::new(&one_core);
    let completed = engine.replay(trace);
    OpenSystemResult {
        scheduler: kind,
        completed,
        cycles: engine.now(),
        mean_population: engine.mean_population(),
        resamples: engine.resamples(),
    }
}

/// The matched pair every §9 comparison is made of: `cfg`'s arrival trace
/// under the naive control and under SOS, returned as `(naive, sos)`.
pub fn matched_pair(
    cfg: &OpenSystemConfig,
    solo: &HashMap<Benchmark, f64>,
) -> (OpenSystemResult, OpenSystemResult) {
    let trace = arrival_trace(cfg, solo);
    let run = |kind| run_open_system_on_trace(kind, cfg, &trace);
    (run(SchedulerKind::Naive), run(SchedulerKind::Sos))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::JobSummary;

    /// Calibrates, generates `cfg`'s trace and runs it under `kind`.
    fn run(kind: SchedulerKind, cfg: &OpenSystemConfig) -> OpenSystemResult {
        let solo = calibrate_benchmarks(cfg.smt, cfg.calibration_cycles, cfg.seed);
        run_open_system_on_trace(kind, cfg, &arrival_trace(cfg, &solo))
    }

    fn tiny_cfg() -> OpenSystemConfig {
        OpenSystemConfig {
            smt: 2,
            mean_job_cycles: 60_000,
            mean_interarrival: 30_000,
            timeslice: 2_000,
            calibration_cycles: 10_000,
            num_jobs: 8,
            sample_schedules: 3,
            predictor: crate::predictor::PredictorKind::Score,
            drift_threshold: None,
            phased_fraction: 0.0,
            seed: 77,
            fastsim: None,
        }
    }

    #[test]
    fn arrival_trace_is_deterministic_and_sorted() {
        let solo: HashMap<Benchmark, f64> = JOB_KINDS.iter().map(|&b| (b, 1.0)).collect();
        let a = arrival_trace(&tiny_cfg(), &solo);
        let b = arrival_trace(&tiny_cfg(), &solo);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert_eq!(a.len(), 8);
    }

    #[test]
    fn matched_pair_completes_the_identical_workload_under_both_schedulers() {
        let cfg = tiny_cfg();
        let solo = calibrate_benchmarks(cfg.smt, 10_000, cfg.seed);
        let (naive, sos) = matched_pair(&cfg, &solo);
        assert_eq!(naive.scheduler, SchedulerKind::Naive);
        assert_eq!(sos.scheduler, SchedulerKind::Sos);
        let trace = arrival_trace(&cfg, &solo);
        for res in [&naive, &sos] {
            let mut jobs: Vec<_> = res.completed.iter().map(|j| j.arrival.clone()).collect();
            jobs.sort_by_key(|a| (a.arrival, a.instructions));
            assert_eq!(jobs, trace, "{:?} ran another workload", res.scheduler);
            assert!(res
                .completed
                .iter()
                .all(|j| j.departure >= j.arrival.arrival));
            assert!(res.mean_population > 0.0);
            assert!(JobSummary::of(&res.completed, &solo).mean_response() > 0.0);
        }
    }

    #[test]
    fn calibration_covers_all_benchmarks() {
        let solo = calibrate_benchmarks(2, 5_000, 1);
        assert_eq!(solo.len(), JOB_KINDS.len());
        assert!(solo.values().all(|&v| v > 0.0));
    }

    #[test]
    fn sos_counts_resamples_and_naive_does_not() {
        let cfg = tiny_cfg();
        let naive = run(SchedulerKind::Naive, &cfg);
        assert_eq!(naive.resamples, 0);
        let sos = run(SchedulerKind::Sos, &cfg);
        assert!(
            sos.resamples > 0,
            "SOS must enter at least one sample phase"
        );
    }

    #[test]
    fn drift_trigger_increases_sampling_frequency() {
        let mut base = tiny_cfg();
        base.num_jobs = 10;
        let without = run(SchedulerKind::Sos, &base);
        let mut twitchy = base.clone();
        twitchy.drift_threshold = Some(0.01); // hair trigger
        let with = run(SchedulerKind::Sos, &twitchy);
        assert!(
            with.resamples >= without.resamples,
            "a hair-trigger drift threshold cannot reduce resampling: {} vs {}",
            with.resamples,
            without.resamples
        );
    }

    #[test]
    fn phased_jobs_flow_through_the_system() {
        let mut cfg = tiny_cfg();
        cfg.phased_fraction = 1.0;
        let res = run(SchedulerKind::Sos, &cfg);
        assert_eq!(res.completed.len(), cfg.num_jobs);
        assert!(res.completed.iter().all(|j| j.arrival.phased));
    }

    #[test]
    fn default_config_is_stable_by_construction() {
        for smt in [2usize, 3, 4, 6] {
            let cfg = OpenSystemConfig::scaled(smt);
            // Arrival of solo-work per cycle must be below estimated capacity.
            let load = cfg.mean_job_cycles as f64 / cfg.mean_interarrival as f64;
            assert!(
                load < OpenSystemConfig::estimated_ws(smt),
                "SMT {smt}: offered load {load} exceeds capacity"
            );
        }
    }

    #[test]
    fn online_view_mirrors_config() {
        let cfg = tiny_cfg();
        let online = cfg.online();
        assert_eq!(online.smt, cfg.smt);
        assert_eq!(online.timeslice, cfg.timeslice);
        assert_eq!(online.base_interval, cfg.mean_interarrival);
        assert_eq!(online.seed, cfg.seed);
        let spec = cfg.trace_spec();
        assert_eq!(spec.num_jobs, cfg.num_jobs);
        assert_eq!(spec.mean_job_cycles, cfg.mean_job_cycles);
        assert_eq!(
            OpenSystemConfig::scaled(2).with_trace(&spec).trace_spec(),
            spec
        );
    }
}

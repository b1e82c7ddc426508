//! # sos-core — the SOS symbiotic jobscheduler
//!
//! This crate implements the contribution of *Symbiotic Jobscheduling for a
//! Simultaneous Multithreading Processor* (Snavely & Tullsen, ASPLOS 2000):
//! the **SOS** scheduler (Sample, Optimize, Symbios) and everything it needs —
//! schedule representation and enumeration, the weighted-speedup metric, the
//! ten dynamic predictors, hierarchical symbiosis for multithreaded jobs, and
//! the open-system model with random job arrivals used for the response-time
//! study.
//!
//! The layering is:
//!
//! * [`job`] — a pool of schedulable threads built from
//!   [`workloads::JobSpec`]s.
//! * [`schedule`] / [`enumerate`] — coschedules, covering schedules, and
//!   counting/enumeration of the distinct schedules of an experiment
//!   (reproduces the paper's Table 2 exactly).
//! * [`experiment`] — the paper's `Jmn(X,Y,Z)` experiment notation.
//! * [`ws`] — the weighted-speedup metric `WS(t)`.
//! * [`runner`] — drives a [`smtsim::Processor`] through a schedule.
//! * [`sample`] / [`predictor`] — the sample phase and the dynamic
//!   predictors of §5 (IPC, AllConf, Dcache, FQ, FP, Sum2, Diversity,
//!   Balance, Composite, Score).
//! * [`sos`] — the two-phase SOS scheduler itself.
//! * [`learn`] — online learned symbiosis prediction: an incremental ridge
//!   regressor over the sample-phase counter condensates
//!   (`PredictorKind::Learned`) and a contextual bandit over the ten paper
//!   predictors plus the learned model (`PredictorKind::Bandit`), both
//!   deterministic and snapshot-serializable.
//! * [`cache`] — opt-in, in-process memoization of deterministic evaluation
//!   results (calibrations, per-schedule sample/symbios measurements), with
//!   an optional on-disk JSONL store; no binary enables it.
//! * [`telemetry`] — the one observability handle: an instance-scoped
//!   registry of lock-cheap counters/gauges, sliding-window histograms and
//!   SLO trackers, an event buffer on a simulated clock, and one snapshot
//!   rendered as Prometheus text (what `sos-serve`'s `metrics` verb and
//!   `sos-top` speak) or as JSONL plus a Perfetto-loadable Chrome trace.
//! * [`par`] — order-preserving parallel map used to evaluate independent
//!   candidates and experiments concurrently.
//! * [`report`] — aggregate reporting (the predictor league table).
//! * [`hier`] — hierarchical symbiosis (§7): allocating hardware contexts to
//!   multithreaded jobs.
//! * [`arrivals`] — seeded arrival-trace generation (exponential
//!   interarrivals, job-kind draws), shared by the batch open system and the
//!   serving-layer load generator.
//! * [`online`] — the event-driven online scheduling engine: job
//!   submissions, timeslice ticks, SOS-or-naive policy, response-time
//!   accounting. Drives both the batch §9 reproduction and `sos-serve`.
//! * [`opensys`] — the open system of §9: its configuration, solo-IPC
//!   calibration, and the batch run ([`online::replay`] of a seeded arrival
//!   trace through the online engine).
//! * [`cluster`] — the two-level cluster scheduler: a dispatcher
//!   (round-robin, least-loaded, or symbiosis-aware routing, plus
//!   work-stealing rebalancing) over N per-core [`online`] engines it
//!   owns and steps in lockstep on scoped threads, byte-reproducible per
//!   seed and shard count.
//!
//! ## Quickstart
//!
//! ```
//! use sos_core::experiment::ExperimentSpec;
//!
//! let spec: ExperimentSpec = "Jsb(6,3,3)".parse()?;
//! assert_eq!(spec.distinct_schedules(), 10); // paper Table 2
//! # Ok::<(), sos_core::error::ParseExperimentError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arrivals;
pub mod cache;
pub mod cluster;
pub mod dist;
pub mod enumerate;
pub mod error;
pub mod experiment;
pub mod hier;
pub mod job;
pub mod learn;
pub mod online;
pub mod opensys;
pub mod par;
pub mod predictor;
pub mod report;
pub mod runner;
pub mod sample;
pub mod schedule;
pub mod sos;
pub mod telemetry;
pub mod ws;

pub use error::ParseExperimentError;
pub use experiment::ExperimentSpec;
pub use job::JobPool;
pub use predictor::PredictorKind;
pub use sample::ScheduleSample;
pub use schedule::{Coschedule, Schedule};
pub use sos::{SosConfig, SosScheduler};

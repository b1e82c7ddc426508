//! # workloads — synthetic benchmark models for the SMT simulator
//!
//! The paper evaluates the SOS scheduler on SPEC95 INT/FP programs, NAS
//! Parallel Benchmarks, and a hand-coded parallel-prefix program (ARRAY).
//! We do not have those binaries or traces, so this crate provides
//! *parameterized synthetic instruction streams* whose statistics match the
//! qualitative characterization of each benchmark: instruction-class mix,
//! intrinsic ILP (dependency-distance distribution), branch-site count and
//! predictability, cache working-set size and locality, and slow phase
//! modulation. Every stream is deterministic given its seed.
//!
//! * [`profile`] — the parameter set describing one benchmark.
//! * [`synth`] — the generator turning a profile into an
//!   [`smtsim::InstructionSource`].
//! * [`spec`] — named profiles for every benchmark in the paper's Table 1.
//! * [`parallel`] — multithreaded jobs with barrier synchronization (ARRAY
//!   and its loosely-synchronizing variant; `mt_EP`, `mt_ARRAY`).
//! * [`phased`] — strongly phased jobs (alternating behavioural profiles),
//!   the workload class §9 anticipates beyond SPEC/NPB.
//! * [`jobmix`] — the exact jobmixes of Table 1, keyed by experiment.
//!
//! ## Example
//!
//! ```
//! use workloads::spec::Benchmark;
//! use smtsim::{MachineConfig, Processor};
//!
//! let mut cpu = Processor::new(MachineConfig::alpha21264_like(2));
//! let mut fp = Benchmark::Fp.stream(smtsim::StreamId(0), 42);
//! let mut gcc = Benchmark::Gcc.stream(smtsim::StreamId(1), 43);
//! let stats = cpu.run_timeslice(&mut [&mut *fp, &mut *gcc], 20_000);
//! assert!(stats.total_committed() > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod jobmix;
pub mod parallel;
pub mod phased;
pub mod profile;
pub mod spec;
pub mod synth;

pub use jobmix::JobSpec;
pub use parallel::ParallelJob;
pub use phased::PhasedStream;
pub use profile::{BenchProfile, ClassMix};
pub use spec::Benchmark;
pub use synth::SyntheticStream;

//! # smtsim — a cycle-level simultaneous multithreading (SMT) processor simulator
//!
//! This crate is the hardware substrate for the reproduction of *Symbiotic
//! Jobscheduling for a Simultaneous Multithreading Processor* (Snavely &
//! Tullsen, ASPLOS 2000). It models an out-of-order superscalar processor in
//! the spirit of SMTSIM: an Alpha-21264-derived core with modest additions for
//! simultaneous multithreading.
//!
//! The model includes, per cycle:
//!
//! * **ICOUNT.2.8 fetch** — up to 8 instructions per cycle from up to 2
//!   threads, preferring the threads with the fewest in-flight instructions,
//!   with instruction-cache and I-TLB access ([`fetch`]).
//! * **Register renaming** from shared integer and floating-point renaming
//!   pools ([`rename`]).
//! * **Dispatch** into shared integer and floating-point instruction queues
//!   ([`queue`]).
//! * **Issue** to shared functional units — integer ALUs, floating-point
//!   units, and load/store ports ([`fu`]).
//! * A shared **cache hierarchy** (L1I, L1D, unified L2, memory) and **TLBs**
//!   ([`cache`], [`tlb`]).
//! * A shared **gshare branch predictor** with per-thread history, so threads
//!   interfere in the prediction tables as they do on real SMT hardware
//!   ([`branch`]).
//! * **Hardware performance counters** for every shared resource: the
//!   per-cycle conflict counters the SOS scheduler's predictors consume
//!   ([`counters`]).
//!
//! The [`Processor`] takes no callbacks: each timeslice hands back its
//! counters as a [`TimesliceStats`], and with
//! [`Processor::sample_occupancy`] on, pipeline [`StageOccupancy`] samples
//! as well.
//!
//! Threads are fed by [`trace::InstructionSource`] implementations (see the
//! `workloads` crate). The processor persists cache, TLB, and branch-predictor
//! state across timeslices, so cache warm-up and cold-start effects across
//! context switches are modeled — the effects §8 of the paper studies.
//!
//! ## Example
//!
//! ```
//! use smtsim::{MachineConfig, Processor};
//! use smtsim::trace::{Fetch, Instr, InstructionSource, StreamId};
//!
//! /// A trivial stream of independent integer ALU instructions.
//! struct AluStream { pc: u64 }
//! impl InstructionSource for AluStream {
//!     fn next_instr(&mut self) -> Fetch {
//!         self.pc += 4;
//!         Fetch::Instr(Instr::int_alu(self.pc, 0))
//!     }
//!     fn id(&self) -> StreamId { StreamId(7) }
//! }
//!
//! let mut cpu = Processor::new(MachineConfig::alpha21264_like(2));
//! let mut a = AluStream { pc: 0 };
//! let mut b = AluStream { pc: 1 << 40 };
//! let stats = cpu.run_timeslice(&mut [&mut a, &mut b], 10_000);
//! assert!(stats.total_committed() > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod branch;
pub mod cache;
pub mod config;
pub mod context;
pub mod counters;
pub mod fastsim;
pub mod fetch;
pub mod fu;
pub mod invariants;
pub mod pipeline;
pub mod queue;
pub mod rename;
pub mod stats;
pub mod tlb;
pub mod trace;

pub use config::{BranchConfig, CacheConfig, FetchPolicy, Latencies, MachineConfig};
pub use counters::ConflictCounters;
pub use fastsim::{FastSim, FastSimCounters, FastSimEvent, FastSimPolicy};
pub use invariants::InvariantViolation;
pub use pipeline::Processor;
pub use stats::{StageOccupancy, ThreadStats, TimesliceStats};
pub use trace::{Fetch, Instr, InstrClass, InstructionSource, StreamId};

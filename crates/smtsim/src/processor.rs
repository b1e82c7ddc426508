//! The public processor façade.

use crate::config::MachineConfig;
use crate::observe::Observer;
use crate::pipeline::Engine;
use crate::stats::TimesliceStats;
use crate::trace::InstructionSource;

/// An SMT processor: hardware contexts plus the shared microarchitecture.
///
/// The processor persists its caches, TLBs, and branch-predictor tables
/// across timeslices, so the memory system stays warm for jobs that remain
/// resident — the effect warmstart scheduling (§8 of the paper) exploits.
/// The pipeline itself (queues, renaming registers, in-flight windows) is
/// drained at every timeslice boundary, modeling the context-switch flush.
///
/// # Example
///
/// ```
/// use smtsim::{MachineConfig, Processor};
/// use smtsim::trace::{Fetch, Instr, InstructionSource, StreamId};
///
/// struct Ones { pc: u64 }
/// impl InstructionSource for Ones {
///     fn next_instr(&mut self) -> Fetch {
///         self.pc += 4;
///         Fetch::Instr(Instr::int_alu(self.pc, 1))
///     }
///     fn id(&self) -> StreamId { StreamId(0) }
/// }
///
/// let mut cpu = Processor::new(MachineConfig::alpha21264_like(2));
/// let mut job = Ones { pc: 0 };
/// let stats = cpu.run_timeslice(&mut [&mut job], 1_000);
/// assert!(stats.total_ipc() > 0.0);
/// ```
pub struct Processor {
    engine: Engine,
}

impl Processor {
    /// Builds a processor for the given machine configuration.
    ///
    /// # Panics
    /// Panics if the configuration is inconsistent
    /// (see [`MachineConfig::validate`]).
    pub fn new(cfg: MachineConfig) -> Self {
        Processor {
            engine: Engine::new(cfg),
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        self.engine.config()
    }

    /// Number of hardware contexts (the SMT level).
    pub fn contexts(&self) -> usize {
        self.engine.config().contexts
    }

    /// Runs one timeslice: `threads[i]` executes on hardware context `i` for
    /// `cycles` cycles, and the hardware counters for the slice are returned.
    ///
    /// # Panics
    /// Panics if `threads` is empty or longer than the number of contexts.
    pub fn run_timeslice(
        &mut self,
        threads: &mut [&mut dyn InstructionSource],
        cycles: u64,
    ) -> TimesliceStats {
        self.engine.run_timeslice(threads, cycles)
    }

    /// Invalidates caches and TLBs, forcing cold starts (for the cache
    /// cold-start experiments of §8).
    pub fn flush_memory_state(&mut self) {
        self.engine.flush_memory_state()
    }

    /// Registers a telemetry [`Observer`] receiving timeslice, conflict, and
    /// occupancy events (see [`crate::observe`]). Replaces any previous
    /// observer. With no observer registered the probes cost one branch per
    /// simulated cycle.
    pub fn set_observer(&mut self, observer: Box<dyn Observer>) {
        self.engine.set_observer(observer)
    }

    /// Removes and drops the current observer, if any.
    pub fn clear_observer(&mut self) {
        self.engine.clear_observer()
    }

    /// Whether an observer is currently registered.
    pub fn has_observer(&self) -> bool {
        self.engine.has_observer()
    }

    /// Sets the cycle interval between stage-occupancy samples delivered to
    /// the observer (default
    /// [`crate::pipeline::DEFAULT_OCCUPANCY_INTERVAL`]).
    ///
    /// # Panics
    /// Panics if `interval` is zero.
    pub fn set_occupancy_interval(&mut self, interval: u64) {
        self.engine.set_occupancy_interval(interval)
    }
}

impl std::fmt::Debug for Processor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Processor")
            .field("contexts", &self.engine.config().contexts)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Fetch, Instr, StreamId};

    struct Alu {
        pc: u64,
    }
    impl InstructionSource for Alu {
        fn next_instr(&mut self) -> Fetch {
            self.pc = (self.pc + 4) % 4096;
            Fetch::Instr(Instr::int_alu(self.pc, 0))
        }
        fn id(&self) -> StreamId {
            StreamId(0)
        }
    }

    #[test]
    fn debug_is_nonempty() {
        let p = Processor::new(MachineConfig::alpha21264_like(3));
        assert!(format!("{p:?}").contains("contexts"));
        assert_eq!(p.contexts(), 3);
    }

    #[test]
    fn observer_sees_consistent_event_stream() {
        use crate::counters::Resource;
        use crate::observe::{Observer, StageOccupancy};
        use std::sync::{Arc, Mutex};

        #[derive(Default)]
        struct Record {
            starts: usize,
            ends: usize,
            conflict_events: u64,
            occupancy_samples: u64,
            max_inflight: usize,
        }

        struct Probe(Arc<Mutex<Record>>);
        impl Observer for Probe {
            fn timeslice_start(&mut self, threads: usize, cycles: u64) {
                assert_eq!(threads, 1);
                assert_eq!(cycles, 2_000);
                self.0.lock().unwrap().starts += 1;
            }
            fn timeslice_end(&mut self, stats: &TimesliceStats) {
                assert_eq!(stats.cycles, 2_000);
                self.0.lock().unwrap().ends += 1;
            }
            fn conflict_cycle(&mut self, cycle: u64, _resource: Resource) {
                assert!(cycle < 2_000);
                self.0.lock().unwrap().conflict_events += 1;
            }
            fn stage_occupancy(&mut self, occ: &StageOccupancy) {
                let mut r = self.0.lock().unwrap();
                r.occupancy_samples += 1;
                r.max_inflight = r.max_inflight.max(occ.inflight);
            }
        }

        let record = Arc::new(Mutex::new(Record::default()));
        let mut p = Processor::new(MachineConfig::alpha21264_like(2));
        p.set_observer(Box::new(Probe(Arc::clone(&record))));
        p.set_occupancy_interval(100);
        assert!(p.has_observer());

        let mut job = Alu { pc: 0 };
        let stats = p.run_timeslice(&mut [&mut job], 2_000);

        let r = record.lock().unwrap();
        assert_eq!(r.starts, 1);
        assert_eq!(r.ends, 1);
        // One conflict event per (cycle, resource) flag: totals must agree
        // with the hardware conflict counters.
        let counter_sum: u64 = Resource::ALL.iter().map(|&x| stats.conflicts.get(x)).sum();
        assert_eq!(r.conflict_events, counter_sum);
        // Samples at cycles 0, 100, ..., 1900.
        assert_eq!(r.occupancy_samples, 20);
        assert!(r.max_inflight > 0, "pipeline never held an instruction");
        drop(r);

        p.clear_observer();
        assert!(!p.has_observer());
        // With the observer gone the run still works and stats still flow.
        let mut job = Alu { pc: 0 };
        let stats = p.run_timeslice(&mut [&mut job], 2_000);
        assert!(stats.total_committed() > 0);
        assert_eq!(
            record.lock().unwrap().starts,
            1,
            "cleared observer got events"
        );
    }

    #[test]
    fn flush_forces_icache_cold_start() {
        let mut p = Processor::new(MachineConfig::alpha21264_like(1));
        let mut job = Alu { pc: 0 };
        let _ = p.run_timeslice(&mut [&mut job], 1_000);
        // Re-run the same small PC region: warm.
        let mut job2 = Alu { pc: 0 };
        let warm = p.run_timeslice(&mut [&mut job2], 1_000);
        p.flush_memory_state();
        let mut job3 = Alu { pc: 0 };
        let cold = p.run_timeslice(&mut [&mut job3], 1_000);
        assert!(cold.cache.il1_misses >= warm.cache.il1_misses);
    }
}

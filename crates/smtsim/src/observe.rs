//! Observer probes for the pipeline engine.
//!
//! An [`Observer`] registered on a [`crate::Processor`] (or directly on the
//! [`crate::pipeline::Engine`]) receives structured callbacks as the
//! simulation runs:
//!
//! * **timeslice boundaries** — one `timeslice_start`/`timeslice_end` pair
//!   per [`crate::pipeline::Engine::run_timeslice`] call, with the finished
//!   slice's [`TimesliceStats`];
//! * **resource-conflict cycles** — one `conflict_cycle` per cycle in which a
//!   shared resource ([`Resource`]) turned work away;
//! * **stage occupancy** — a [`StageOccupancy`] snapshot of the
//!   fetch/dispatch/issue/commit structures, sampled every
//!   `occupancy_interval` cycles.
//!
//! Every method has a no-op default, so observers implement only what they
//! need. The engine holds the observer behind `Option<Box<dyn Observer>>`
//! and tests `is_some()` once per cycle; with no observer registered the
//! probes cost one predicted branch per cycle.
//!
//! Observers that aggregate state across timeslices (e.g. a telemetry sink)
//! conventionally hold a shared handle (`Arc<Mutex<…>>`, as `sos-core`'s
//! `TelemetryObserver` does) rather than relying on retrieving the box from
//! the engine.

use crate::counters::Resource;
use crate::stats::TimesliceStats;

/// A point-in-time snapshot of pipeline-stage occupancy.
///
/// All fields count instructions (or registers) resident in the structure at
/// the sampled cycle, summed over hardware contexts where per-thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageOccupancy {
    /// Cycle (within the current timeslice) at which the sample was taken.
    pub cycle: u64,
    /// Decoded instructions awaiting dispatch (fetch-stage output buffers).
    pub decode: usize,
    /// Entries in the shared integer issue queue (dispatch-stage output).
    pub int_queue: usize,
    /// Entries in the shared floating-point issue queue.
    pub fp_queue: usize,
    /// Integer renaming registers in use.
    pub int_regs_in_use: usize,
    /// Floating-point renaming registers in use.
    pub fp_regs_in_use: usize,
    /// Instructions in flight between dispatch and commit, all threads.
    pub inflight: usize,
}

impl StageOccupancy {
    /// Total pre-issue occupancy (decode buffers plus both issue queues):
    /// the aggregate ICOUNT pressure on the front end.
    pub fn preissue(&self) -> usize {
        self.decode + self.int_queue + self.fp_queue
    }
}

/// Receives pipeline events as the engine simulates.
///
/// All methods default to no-ops. Implementations should be cheap: probes
/// run inside the cycle loop (conflict events) or at sampled cycles
/// (occupancy), and a slow observer slows the simulation accordingly.
///
/// `Send` is a supertrait so that a [`crate::Processor`] — and every engine
/// that owns one — can be moved to, or stepped on, another thread with its
/// observer attached.
pub trait Observer: Send {
    /// A timeslice is starting: `threads` instruction streams will run for
    /// `cycles` cycles on a cold pipeline.
    fn timeslice_start(&mut self, threads: usize, cycles: u64) {
        let _ = (threads, cycles);
    }

    /// The timeslice finished with the given hardware counters.
    fn timeslice_end(&mut self, stats: &TimesliceStats) {
        let _ = stats;
    }

    /// Shared resource `resource` turned away at least one ready instruction
    /// during `cycle` (the paper's per-cycle conflict accounting: at most one
    /// event per resource per cycle).
    fn conflict_cycle(&mut self, cycle: u64, resource: Resource) {
        let _ = (cycle, resource);
    }

    /// A sampled occupancy snapshot (every `occupancy_interval` cycles).
    fn stage_occupancy(&mut self, occupancy: &StageOccupancy) {
        let _ = occupancy;
    }
}

/// An observer that ignores every event.
///
/// Registering `NopObserver` exercises the full probe call path (useful for
/// overhead measurement); registering no observer at all skips probes behind
/// a single branch.
#[derive(Clone, Copy, Debug, Default)]
pub struct NopObserver;

impl Observer for NopObserver {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_methods_are_callable_noops() {
        let mut obs = NopObserver;
        obs.timeslice_start(2, 100);
        obs.conflict_cycle(3, Resource::IntQueue);
        obs.stage_occupancy(&StageOccupancy::default());
        obs.timeslice_end(&TimesliceStats {
            cycles: 100,
            ..Default::default()
        });
    }

    #[test]
    fn preissue_sums_front_end_structures() {
        let occ = StageOccupancy {
            decode: 3,
            int_queue: 5,
            fp_queue: 2,
            ..Default::default()
        };
        assert_eq!(occ.preissue(), 10);
    }
}

//! Driving the processor through schedules.
//!
//! The [`Runner`] owns the [`Processor`] and the [`JobPool`] and executes
//! coschedules timeslice by timeslice, exactly as the paper's jobscheduler
//! does: "Every 5 million cycles ... the jobscheduler receives a clock pulse;
//! if runnable jobs are available that were not scheduled during the previous
//! timeslice, it swaps out one or more of the jobs that ran in the last
//! timeslice, replacing these with jobs that did not."

use crate::job::JobPool;
use crate::schedule::{Coschedule, Schedule};
use crate::telemetry::{trace_timeslice, Counter, Telemetry};
use crate::ws::{weighted_speedup, SoloRates};
use serde::{Deserialize, Serialize};
use smtsim::fastsim::{FastSim, FastSimCounters, FastSimPolicy};
use smtsim::{MachineConfig, Processor, TimesliceStats};
use std::sync::Arc;

/// Everything measured while running one full rotation of a schedule.
///
/// Serializable and comparable so the replay harness can prove two runs
/// byte-identical, and deserializable so the evaluation cache can reload
/// stored rotations.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RotationStats {
    /// Per-slice hardware-counter snapshots, in execution order.
    pub slices: Vec<TimesliceStats>,
    /// The coschedule each slice ran.
    pub tuples: Vec<Coschedule>,
}

/// A rotation's coschedules name a thread id outside the pool the caller
/// described: [`RotationStats::try_committed_per_thread`] was asked to fold
/// per-thread counts into `num_threads` slots but a tuple references a
/// thread at or beyond that bound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadOutOfRange {
    /// The offending thread id.
    pub thread: usize,
    /// The pool size the caller claimed.
    pub num_threads: usize,
    /// The coschedule that referenced it.
    pub tuple: Coschedule,
}

impl std::fmt::Display for ThreadOutOfRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "coschedule {} references thread {} but the rotation was asked to \
             account for only {} pool threads (0..{}); the schedule and the \
             job pool disagree",
            self.tuple, self.thread, self.num_threads, self.num_threads
        )
    }
}

impl std::error::Error for ThreadOutOfRange {}

impl RotationStats {
    /// Total cycles across the rotation.
    pub fn cycles(&self) -> u64 {
        self.slices.iter().map(|s| s.cycles).sum()
    }

    /// Committed instructions per pool thread over the rotation, or a
    /// diagnostic error if any slice's coschedule names a thread id at or
    /// beyond `num_threads` (a schedule built against a different pool).
    pub fn try_committed_per_thread(
        &self,
        num_threads: usize,
    ) -> Result<Vec<u64>, ThreadOutOfRange> {
        let mut out = vec![0u64; num_threads];
        for (slice, tuple) in self.slices.iter().zip(&self.tuples) {
            for &t in tuple.threads() {
                if t >= num_threads {
                    return Err(ThreadOutOfRange {
                        thread: t,
                        num_threads,
                        tuple: tuple.clone(),
                    });
                }
                if let Some(ts) = slice.thread(smtsim::StreamId(t as u64)) {
                    out[t] += ts.committed;
                }
            }
        }
        Ok(out)
    }

    /// Committed instructions per pool thread over the rotation.
    ///
    /// # Panics
    /// Panics with a [`ThreadOutOfRange`] diagnostic (naming the offending
    /// tuple and thread id, not a bare index-out-of-bounds) if a coschedule
    /// references a thread at or beyond `num_threads`; use
    /// [`Self::try_committed_per_thread`] to handle that case gracefully.
    pub fn committed_per_thread(&self, num_threads: usize) -> Vec<u64> {
        self.try_committed_per_thread(num_threads)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Committed instructions per pool thread, and total cycles, summed over
    /// several rotations (what a multi-rotation sample or symbios phase
    /// feeds [`weighted_speedup`]).
    ///
    /// # Panics
    /// As [`Self::committed_per_thread`].
    pub fn totals(rotations: &[RotationStats], num_threads: usize) -> (Vec<u64>, u64) {
        let mut committed = vec![0u64; num_threads];
        for rot in rotations {
            for (sum, c) in committed
                .iter_mut()
                .zip(rot.committed_per_thread(num_threads))
            {
                *sum += c;
            }
        }
        (committed, rotations.iter().map(Self::cycles).sum())
    }

    /// `WS(t)` of the rotation given solo rates.
    pub fn weighted_speedup(&self, solo: &SoloRates) -> f64 {
        let committed = self.committed_per_thread(solo.len());
        weighted_speedup(&committed, self.cycles(), solo)
    }
}

/// Drives a processor through coschedules of a job pool.
pub struct Runner {
    processor: Processor,
    pool: JobPool,
    timeslice: u64,
    /// Phase-aware fast-forward simulation ([`smtsim::fastsim`]); `None`
    /// (the default) runs every slice through the detailed model.
    fastsim: Option<FastSim>,
    /// Where detailed timeslices are traced (see [`Self::attach_telemetry`]).
    tel: Telemetry,
    /// `smtsim.timeslices` of a metrics-only handle, resolved once (a
    /// tracing handle counts slices in [`trace_timeslice`] instead).
    slices: Option<Arc<Counter>>,
}

impl Runner {
    /// Builds a runner. `timeslice` is the scheduler clock in cycles.
    ///
    /// # Panics
    /// Panics if `timeslice == 0` or the machine configuration is invalid.
    pub fn new(cfg: MachineConfig, pool: JobPool, timeslice: u64) -> Self {
        assert!(timeslice > 0, "timeslice must be positive");
        Runner {
            processor: Processor::new(cfg),
            pool,
            timeslice,
            fastsim: None,
            tel: Telemetry::off(),
            slices: None,
        }
    }

    /// Enables (or, with `None`, disables) phase-aware fast simulation:
    /// stable coschedule phases are extrapolated instead of executed. Solo
    /// calibration ([`Self::calibrate_solo`]) always measures in full
    /// detail regardless of this setting.
    pub fn set_fastsim(&mut self, policy: Option<FastSimPolicy>) {
        self.fastsim = policy.map(FastSim::new);
    }

    /// Lifetime extrapolated-vs-detailed counters, when fast-sim is on.
    pub fn fastsim_counters(&self) -> Option<&FastSimCounters> {
        self.fastsim.as_ref().map(|f| f.counters())
    }

    /// The job pool.
    pub fn pool(&self) -> &JobPool {
        &self.pool
    }

    /// The scheduler clock in cycles.
    pub fn timeslice(&self) -> u64 {
        self.timeslice
    }

    /// The number of hardware contexts.
    pub fn contexts(&self) -> usize {
        self.processor.config().contexts
    }

    /// Runs one coschedule for `cycles` cycles (through
    /// [`FastSim::run_slice`] when fast-sim is on, so a locked phase is
    /// extrapolated rather than executed).
    ///
    /// # Panics
    /// Panics if the tuple is larger than the number of hardware contexts.
    pub fn run_tuple(&mut self, tuple: &Coschedule, cycles: u64) -> TimesliceStats {
        let Some(fs) = &mut self.fastsim else {
            return self.run_tuple_detailed(tuple, cycles);
        };
        let mut refs = self.pool.select_dyn(tuple.threads());
        let slice = fs.run_slice(&mut self.processor, &mut refs, cycles);
        if !slice.extrapolated {
            self.book(&slice.stats);
        }
        slice.stats
    }

    /// One detailed timeslice of the pipeline model, whatever the fast-sim
    /// setting.
    fn run_tuple_detailed(&mut self, tuple: &Coschedule, cycles: u64) -> TimesliceStats {
        let mut refs = self.pool.select_dyn(tuple.threads());
        let stats = self.processor.run_timeslice(&mut refs, cycles);
        self.book(&stats);
        stats
    }

    /// Reports one detailed timeslice to the attached handle.
    fn book(&self, stats: &TimesliceStats) {
        trace_timeslice(&self.tel, stats, &self.processor);
        if let Some(slices) = &self.slices {
            slices.inc();
        }
    }

    /// Runs one full rotation of `schedule` (each slice one timeslice long).
    pub fn run_rotation(&mut self, schedule: &Schedule) -> RotationStats {
        let tuples = schedule.tuples();
        self.run_rotation_of(&tuples)
    }

    /// One rotation over a precomputed tuple list (so multi-rotation runs
    /// don't rebuild the list every rotation).
    pub(crate) fn run_rotation_of(&mut self, tuples: &[Coschedule]) -> RotationStats {
        let mut slices = Vec::with_capacity(tuples.len());
        for t in tuples {
            slices.push(self.run_tuple(t, self.timeslice));
        }
        RotationStats {
            slices,
            tuples: tuples.to_vec(),
        }
    }

    /// Runs `rotations` rotations of `schedule`, returning per-rotation stats.
    pub fn run_schedule(&mut self, schedule: &Schedule, rotations: usize) -> Vec<RotationStats> {
        let tuples = schedule.tuples();
        let mut out = Vec::with_capacity(rotations);
        for _ in 0..rotations {
            out.push(self.run_rotation_of(&tuples));
        }
        out
    }

    /// Measures each thread's single-threaded (solo) IPC: every job group
    /// runs alone — siblings of a parallel job together, as §7 requires —
    /// for a `warmup` then a `measure` window.
    ///
    /// # Panics
    /// Panics if `measure == 0`.
    pub fn calibrate_solo(&mut self, warmup: u64, measure: u64) -> SoloRates {
        assert!(measure > 0, "measurement window must be non-empty");
        let mut rates = vec![0.0; self.pool.len()];
        let groups: Vec<Vec<usize>> = self.pool.groups().to_vec();
        for group in groups {
            let tuple = Coschedule::new(group.iter().copied());
            self.processor.flush_memory_state();
            // Calibration is a measurement, never an extrapolation: it runs
            // the detailed model even when fast-sim is enabled.
            if warmup > 0 {
                let _ = self.run_tuple_detailed(&tuple, warmup);
            }
            let stats = self.run_tuple_detailed(&tuple, measure);
            for &t in tuple.threads() {
                let ipc = stats
                    .thread(smtsim::StreamId(t as u64))
                    .map(|ts| ts.ipc(measure))
                    .unwrap_or(0.0);
                rates[t] = ipc.max(1e-6);
            }
        }
        self.processor.flush_memory_state();
        SoloRates::new(rates)
    }

    /// Direct access to the processor (e.g. to flush caches for cold-start
    /// experiments).
    pub fn processor_mut(&mut self) -> &mut Processor {
        &mut self.processor
    }

    /// Reports to `tel`: when it records events, every timeslice this runner
    /// simulates in detail is traced through
    /// [`crate::telemetry::trace_timeslice`] (a span with conflict counters
    /// and occupancy samples); a metrics-only handle counts those slices in
    /// `smtsim.timeslices` and leaves occupancy sampling off.
    pub fn attach_telemetry(&mut self, tel: &Telemetry) {
        self.processor.sample_occupancy(tel.events_on());
        self.slices = (tel.is_on() && !tel.events_on()).then(|| tel.counter("smtsim.timeslices"));
        self.tel = tel.clone();
    }
}

impl std::fmt::Debug for Runner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runner")
            .field("threads", &self.pool.len())
            .field("contexts", &self.contexts())
            .field("timeslice", &self.timeslice)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{Benchmark, JobSpec};

    fn pool4() -> JobPool {
        JobPool::from_specs(
            &[
                JobSpec::single(Benchmark::Fp),
                JobSpec::single(Benchmark::Mg),
                JobSpec::single(Benchmark::Gcc),
                JobSpec::single(Benchmark::Is),
            ],
            7,
        )
    }

    fn runner() -> Runner {
        Runner::new(MachineConfig::alpha21264_like(2), pool4(), 5_000)
    }

    #[test]
    fn rotation_runs_every_tuple() {
        let mut r = runner();
        let s = Schedule::new(vec![0, 1, 2, 3], 2, 2);
        let rot = r.run_rotation(&s);
        assert_eq!(rot.slices.len(), 2);
        assert_eq!(rot.cycles(), 10_000);
        let committed = rot.committed_per_thread(4);
        assert!(committed.iter().all(|&c| c > 0), "{committed:?}");
    }

    #[test]
    fn calibration_is_positive_and_ordered() {
        let mut r = runner();
        let solo = r.calibrate_solo(20_000, 20_000);
        assert_eq!(solo.len(), 4);
        // FP should be much faster solo than IS.
        assert!(solo.rate(0) > solo.rate(3), "{solo:?}");
    }

    #[test]
    fn ws_of_coschedule_is_plausible() {
        let mut r = runner();
        let solo = r.calibrate_solo(50_000, 50_000);
        let s = Schedule::new(vec![0, 1, 2, 3], 2, 2);
        // Warm up one rotation, then measure a few.
        let _ = r.run_rotation(&s);
        let rots = r.run_schedule(&s, 3);
        for rot in &rots {
            let ws = rot.weighted_speedup(&solo);
            assert!(
                (0.4..2.5).contains(&ws),
                "WS should be near [0.8, 2.0] for 2 contexts / 4 jobs: {ws}"
            );
        }
    }

    #[test]
    fn out_of_range_thread_id_is_a_diagnostic_not_an_index_panic() {
        // Regression: a coschedule naming thread 5 against a 2-thread pool
        // used to panic with an unhelpful `index out of bounds`; it must now
        // surface a diagnostic naming the tuple and both bounds.
        let mut r = runner();
        let s = Schedule::new(vec![0, 1, 2, 3], 2, 2);
        let rot = r.run_rotation(&s);
        let err = rot.try_committed_per_thread(2).unwrap_err();
        assert!(err.thread >= 2, "{err:?}");
        assert_eq!(err.num_threads, 2);
        let msg = err.to_string();
        assert!(msg.contains("thread"), "{msg}");
        assert!(msg.contains("2 pool threads"), "{msg}");
        // The panicking wrapper carries the same diagnostic.
        let panic = std::panic::catch_unwind(|| rot.committed_per_thread(2))
            .expect_err("must panic on out-of-range thread id");
        let text = panic.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(text.contains("pool threads"), "panic message: {text}");
        // In-range accounting still works on the same rotation.
        assert_eq!(rot.try_committed_per_thread(4).unwrap().len(), 4);
    }

    #[test]
    fn fastsim_runner_extrapolates_and_stays_deterministic() {
        let run = |fast: bool| {
            let mut r = runner();
            if fast {
                r.set_fastsim(Some(FastSimPolicy::with_threshold(0.25)));
            }
            let s = Schedule::new(vec![0, 1, 2, 3], 2, 2);
            let rots = r.run_schedule(&s, 40);
            let cycles: u64 = rots.iter().map(|rot| rot.cycles()).sum();
            let extrapolated = r
                .fastsim_counters()
                .map(|c| c.extrapolated_slices)
                .unwrap_or(0);
            (rots, cycles, extrapolated)
        };
        let (rots_a, cycles_a, extrap_a) = run(true);
        let (rots_b, cycles_b, extrap_b) = run(true);
        let (_, cycles_detail, extrap_detail) = run(false);
        // Same simulated-cycle coverage either way, and the fast run is
        // byte-reproducible.
        assert_eq!(cycles_a, cycles_detail);
        assert_eq!(cycles_a, cycles_b);
        assert_eq!(rots_a, rots_b);
        assert_eq!(extrap_a, extrap_b);
        assert_eq!(extrap_detail, 0);
        assert!(
            extrap_a > 0,
            "a steady 40-rotation run must lock phases and extrapolate"
        );
    }

    #[test]
    fn fastsim_off_is_byte_identical_with_plain_runner() {
        // `set_fastsim(None)` after enabling must return to full detail.
        let mut a = runner();
        let mut b = runner();
        b.set_fastsim(Some(FastSimPolicy::default()));
        b.set_fastsim(None);
        let s = Schedule::new(vec![0, 1, 2, 3], 2, 2);
        assert_eq!(a.run_schedule(&s, 3), b.run_schedule(&s, 3));
        assert!(b.fastsim_counters().is_none());
    }

    #[test]
    fn schedule_makes_fair_progress() {
        let mut r = runner();
        let s = Schedule::new(vec![0, 1, 2, 3], 2, 2);
        let rots = r.run_schedule(&s, 4);
        let mut committed = [0u64; 4];
        for rot in &rots {
            for (t, c) in rot.committed_per_thread(4).iter().enumerate() {
                committed[t] += c;
            }
        }
        // Every job was scheduled the same number of cycles.
        assert!(committed.iter().all(|&c| c > 0));
    }
}

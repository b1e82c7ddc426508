//! The sample phase: profiling candidate schedules with hardware counters.
//!
//! For each candidate schedule the sampler runs one full rotation (the
//! minimum time required to evaluate a schedule, as in §5.2) and condenses
//! the hardware counters into the predictor inputs of the paper's Table 3:
//! IPC, AllConf, Dcache, FQ, FP, Sum2, Diversity, and Balance.

use crate::runner::RotationStats;
use crate::schedule::Schedule;
use serde::{Deserialize, Serialize};
use smtsim::TimesliceStats;

/// Counter-derived predictor inputs for one sampled schedule
/// (one row of the paper's Table 3).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScheduleSample {
    /// The schedule's paper notation (e.g. `012_345`).
    pub notation: String,
    /// Aggregate committed IPC over the sample.
    pub ipc: f64,
    /// Sum over all shared resources of the percentage of cycles with a
    /// conflict on that resource.
    pub allconf: f64,
    /// L1 data-cache hit rate, percent.
    pub dcache: f64,
    /// Percentage of cycles with a floating-point-queue conflict.
    pub fq: f64,
    /// Percentage of cycles with a floating-point-unit conflict.
    pub fp: f64,
    /// `fq + fp`.
    pub sum2: f64,
    /// Mean over timeslices of |%FP − %integer| of committed instructions
    /// (lower = more diverse).
    pub diversity: f64,
    /// Standard deviation of IPC across the schedule's timeslices
    /// (lower = smoother).
    pub balance: f64,
}

impl ScheduleSample {
    /// Condenses one (or more) rotations of counters into a sample.
    ///
    /// # Panics
    /// Panics if `rotations` is empty, or as [`Self::from_slices`].
    pub fn from_rotations(schedule: &Schedule, rotations: &[RotationStats]) -> Self {
        assert!(!rotations.is_empty(), "need at least one sampled rotation");
        let slices = rotations.iter().flat_map(|rot| &rot.slices);
        Self::from_slices(schedule.paper_notation(), slices)
    }

    /// Condenses a schedule's timeslice counters, in execution order, into
    /// a sample named `notation`.
    ///
    /// # Panics
    /// Panics if the slices cover zero cycles — a zero-cycle sample has no
    /// counters to condense, and quietly reporting IPC 0 for it would poison
    /// the predictor's ranking.
    pub fn from_slices<'a>(
        notation: String,
        slices: impl IntoIterator<Item = &'a TimesliceStats>,
    ) -> Self {
        let mut cycles = 0u64;
        let mut committed = 0u64;
        let mut conflicts = smtsim::ConflictCounters::default();
        let mut cache = smtsim::cache::CacheStats::default();
        let mut slice_ipcs = Vec::new();
        let mut slice_div = Vec::new();
        for s in slices {
            #[cfg(feature = "check-invariants")]
            smtsim::invariants::assert_timeslice(s);
            cycles += s.cycles;
            committed += s.total_committed();
            conflicts.merge(&s.conflicts);
            cache.merge(&s.cache);
            slice_ipcs.push(s.total_ipc());
            let (fp_pct, int_pct) = s.fp_int_mix_pct();
            slice_div.push((fp_pct - int_pct).abs());
        }
        assert!(cycles > 0, "schedule {notation} sampled over zero cycles");
        let fq = conflicts.pct(smtsim::counters::Resource::FpQueue, cycles);
        let fp = conflicts.pct(smtsim::counters::Resource::FpUnits, cycles);
        ScheduleSample {
            notation,
            ipc: committed as f64 / cycles as f64,
            allconf: conflicts.all_conflicts_pct(cycles),
            dcache: cache.dl1_hit_pct(),
            fq,
            fp,
            sum2: fq + fp,
            diversity: mean(&slice_div),
            balance: stddev(&slice_ipcs),
        }
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobPool;
    use crate::runner::Runner;
    use smtsim::MachineConfig;
    use workloads::{Benchmark, JobSpec};

    fn runner() -> Runner {
        let pool = JobPool::from_specs(
            &[
                JobSpec::single(Benchmark::Fp),
                JobSpec::single(Benchmark::Mg),
                JobSpec::single(Benchmark::Gcc),
                JobSpec::single(Benchmark::Go),
            ],
            3,
        );
        Runner::new(MachineConfig::alpha21264_like(2), pool, 4_000)
    }

    #[test]
    fn sample_fields_are_sane() {
        let mut r = runner();
        let s = Schedule::new(vec![0, 1, 2, 3], 2, 2);
        let rots = r.run_schedule(&s, 2);
        let sample = ScheduleSample::from_rotations(&s, &rots);
        assert_eq!(sample.notation, "01_23");
        assert!(sample.ipc > 0.0);
        assert!((0.0..=100.0).contains(&sample.dcache));
        assert!(sample.fq >= 0.0 && sample.fp >= 0.0);
        assert!((sample.sum2 - (sample.fq + sample.fp)).abs() < 1e-12);
        assert!(sample.allconf >= sample.sum2 - 1e-12);
        assert!(sample.balance >= 0.0);
        assert!(sample.diversity >= 0.0);
    }

    #[test]
    fn mixed_fp_int_pairing_beats_fp_pairing_on_fq() {
        // Schedule 01_23 pairs the two FP codes (FP+MG) and the two integer
        // codes (GCC+GO); 02_13 mixes. The mixed schedule must conflict less
        // on FP resources.
        let mut r = runner();
        let _ = r.calibrate_solo(30_000, 10_000); // warm caches a bit
        let mut sample = |order| {
            let s = Schedule::new(order, 2, 2);
            ScheduleSample::from_rotations(&s, &r.run_schedule(&s, 3))
        };
        let (paired, mixed) = (sample(vec![0, 1, 2, 3]), sample(vec![0, 2, 1, 3]));
        assert!(
            mixed.sum2 < paired.sum2,
            "mixing FP and integer jobs should lower FP conflicts: {paired:#?} {mixed:#?}"
        );
    }

    #[test]
    #[should_panic(expected = "sampled over zero cycles")]
    fn zero_cycle_rotation_is_rejected() {
        // A rotation whose slices cover zero cycles used to be masked by
        // `cycles.max(1)` and reported as a (garbage) IPC-0 sample.
        let s = Schedule::new(vec![0, 1, 2, 3], 2, 2);
        let rot = RotationStats {
            slices: vec![smtsim::TimesliceStats::default()],
            tuples: vec![],
        };
        let _ = ScheduleSample::from_rotations(&s, &[rot]);
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(stddev(&[1.0]), 0.0);
        assert!((stddev(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }
}

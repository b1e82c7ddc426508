//! Hierarchical symbiosis (§7): choosing how many hardware contexts each
//! multithreaded job receives.
//!
//! "SOS could implement symbiosis at 2 levels by deciding which jobs to
//! coschedule and then deciding how many contexts to give multithreaded
//! jobs." This module enumerates the context *allocations* for the
//! multithreaded jobs of a jobmix, samples schedules for each allocation, and
//! lets the Score predictor pick among all (allocation, schedule) pairs.
//!
//! The weighted-speedup denominator follows the paper's extension: for a
//! multithreaded job it is "the issue rate of the job running alone, with no
//! other jobs in the coschedule" — measured once at the job's full thread
//! count, so allocations are compared on equal terms.

use crate::enumerate::sample_distinct;
use crate::experiment::{PAPER_SYMBIOS, PAPER_TIMESLICE};
use crate::job::JobPool;
use crate::predictor::PredictorKind;
use crate::runner::{RotationStats, Runner};
use crate::sample::ScheduleSample;
use crate::schedule::Schedule;
use crate::sos::SosConfig;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use smtsim::MachineConfig;
use workloads::jobmix::hierarchical_mix;
use workloads::JobSpec;

/// One evaluated (allocation, schedule) pair.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AllocationOutcome {
    /// Threads given to each job (same order as the jobmix).
    pub threads_per_job: Vec<usize>,
    /// The schedule's paper notation.
    pub notation: String,
    /// Sample-phase counters.
    pub sample: ScheduleSample,
    /// Weighted speedup observed during the sample phase (comparable across
    /// allocations because the §7 denominators are fixed per job).
    pub sample_ws: f64,
    /// Symbios-phase weighted speedup (per-job terms, §7 extension).
    pub ws: f64,
}

/// Result of a hierarchical-symbiosis evaluation at one SMT level.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HierReport {
    /// The SMT level.
    pub smt: usize,
    /// Every evaluated (allocation, schedule) pair.
    pub outcomes: Vec<AllocationOutcome>,
    /// Index the Score predictor picked from the samples.
    pub score_pick: usize,
}

impl HierReport {
    /// Best symbios WS among the outcomes.
    pub fn best_ws(&self) -> f64 {
        self.outcomes
            .iter()
            .map(|o| o.ws)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Worst symbios WS among the outcomes.
    pub fn worst_ws(&self) -> f64 {
        self.outcomes
            .iter()
            .map(|o| o.ws)
            .fold(f64::INFINITY, f64::min)
    }

    /// Mean symbios WS (what a random/oblivious choice would get).
    pub fn average_ws(&self) -> f64 {
        self.outcomes.iter().map(|o| o.ws).sum::<f64>() / self.outcomes.len().max(1) as f64
    }

    /// WS of the Score-predicted pick.
    pub fn picked_ws(&self) -> f64 {
        self.outcomes[self.score_pick].ws
    }

    /// Percent improvement of the pick over the average (Figure 4's
    /// "vs. average" bar).
    pub fn improvement_over_average(&self) -> f64 {
        100.0 * (self.picked_ws() - self.average_ws()) / self.average_ws()
    }

    /// Percent improvement of the pick over the worst (Figure 4's
    /// "vs. worst" bar).
    pub fn improvement_over_worst(&self) -> f64 {
        100.0 * (self.picked_ws() - self.worst_ws()) / self.worst_ws()
    }
}

/// Enumerates the thread allocations for a jobmix: every multithreaded job
/// may receive 1..=its declared thread count; single-threaded jobs always
/// get 1.
pub fn allocations(specs: &[JobSpec]) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new()];
    for spec in specs {
        let choices: Vec<usize> = if spec.threads > 1 {
            (1..=spec.threads).collect()
        } else {
            vec![1]
        };
        let mut next = Vec::with_capacity(out.len() * choices.len());
        for prefix in &out {
            for &c in &choices {
                let mut p = prefix.clone();
                p.push(c);
                next.push(p);
            }
        }
        out = next;
    }
    out
}

/// Applies an allocation to a jobmix, producing the specs actually built.
pub fn apply_allocation(specs: &[JobSpec], alloc: &[usize]) -> Vec<JobSpec> {
    assert_eq!(specs.len(), alloc.len(), "one allocation entry per job");
    specs
        .iter()
        .zip(alloc)
        .map(|(s, &k)| {
            let mut s = s.clone();
            assert!(k >= 1 && k <= s.threads.max(1), "allocation out of range");
            s.threads = k;
            s
        })
        .collect()
}

/// The paper's timeslice at `cfg`'s scale, floored at 1 cycle.
fn timeslice(cfg: &SosConfig) -> u64 {
    (PAPER_TIMESLICE / cfg.cycle_scale.max(1)).max(1)
}

/// Reference solo rate per *job*: the aggregate IPC of the job running alone
/// at its full thread count.
fn job_solo_rates(specs: &[JobSpec], smt: usize, cfg: &SosConfig) -> Vec<f64> {
    let pool = JobPool::from_specs(specs, cfg.seed);
    let contexts = smt.max(specs.iter().map(|s| s.threads).max().unwrap_or(1));
    let mut runner = Runner::new(
        MachineConfig::alpha21264_like(contexts),
        pool,
        timeslice(cfg),
    );
    let per_thread = runner.calibrate_solo(cfg.calibration_cycles, cfg.calibration_cycles);
    runner
        .pool()
        .groups()
        .iter()
        .map(|g| g.iter().map(|&t| per_thread.rate(t)).sum::<f64>().max(1e-6))
        .collect()
}

/// Evaluates hierarchical symbiosis for the paper's jobmix at `smt_level`
/// (Table 1's "SMT level" rows), trying `schedules_per_allocation` schedules
/// for every context allocation.
///
/// # Panics
/// Panics if the paper defines no hierarchical jobmix for `smt_level`
/// (only 2, 3, 4, and 6 exist).
pub fn evaluate_hierarchical(
    smt_level: usize,
    schedules_per_allocation: usize,
    cfg: &SosConfig,
) -> HierReport {
    let specs = hierarchical_mix(smt_level)
        .unwrap_or_else(|| panic!("no hierarchical jobmix at SMT level {smt_level}"));
    evaluate_hierarchical_mix(&specs, smt_level, schedules_per_allocation, cfg)
}

/// Evaluates hierarchical symbiosis for an arbitrary jobmix.
pub fn evaluate_hierarchical_mix(
    specs: &[JobSpec],
    smt_level: usize,
    schedules_per_allocation: usize,
    cfg: &SosConfig,
) -> HierReport {
    let solo_jobs = job_solo_rates(specs, smt_level, cfg);
    let timeslice = timeslice(cfg);
    let symbios_cycles = PAPER_SYMBIOS / cfg.cycle_scale.max(1);
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x41e2);

    let mut outcomes = Vec::new();
    for alloc in allocations(specs) {
        let alloc_specs = apply_allocation(specs, &alloc);
        let pool = JobPool::from_specs(&alloc_specs, cfg.seed);
        let x = pool.len();
        if x < smt_level {
            continue; // not enough threads to fill the machine
        }
        let mut runner = Runner::new(MachineConfig::alpha21264_like(smt_level), pool, timeslice);
        let y = smt_level;
        let z = y.min(x); // swap-all discipline
        let candidates = if x == y {
            vec![Schedule::new((0..x).collect(), y, y)]
        } else {
            sample_distinct(x, y, z.min(y), schedules_per_allocation.max(1), &mut rng)
        };
        // Warm the memory system so the first candidate's sample is not
        // dominated by cold-start misses.
        if let Some(first) = candidates.first() {
            let _ = runner.run_schedule(first, 1);
        }
        for schedule in candidates {
            let rots = runner.run_schedule(&schedule, 5);
            let sample = ScheduleSample::from_rotations(&schedule, &rots);
            let sample_ws = job_ws(runner.pool(), &rots, &solo_jobs);
            // Symbios phase with per-job WS accounting.
            let rotation_cycles = schedule.slices_per_rotation() as u64 * timeslice;
            let rotations = (symbios_cycles / rotation_cycles).max(1) as usize;
            let rots = runner.run_schedule(&schedule, rotations);
            let ws = job_ws(runner.pool(), &rots, &solo_jobs);
            outcomes.push(AllocationOutcome {
                threads_per_job: alloc.clone(),
                notation: schedule.paper_notation(),
                sample,
                sample_ws,
                ws,
            });
        }
    }
    assert!(
        !outcomes.is_empty(),
        "no feasible allocation for SMT level {smt_level}"
    );
    let samples: Vec<ScheduleSample> = outcomes.iter().map(|o| o.sample.clone()).collect();
    let sample_ws: Vec<f64> = outcomes.iter().map(|o| o.sample_ws).collect();
    let score_pick = hier_choose(&samples, &sample_ws);
    HierReport {
        smt: smt_level,
        outcomes,
        score_pick,
    }
}

/// Weighted speedup of `rots` with the §7 per-job denominators: each job's
/// aggregate IPC (its threads' commits over the cycles) over its solo rate,
/// summed over the pool's jobs in order.
fn job_ws(pool: &JobPool, rots: &[RotationStats], solo_jobs: &[f64]) -> f64 {
    let (committed, cycles) = RotationStats::totals(rots, pool.len());
    pool.groups()
        .iter()
        .zip(solo_jobs)
        .map(|(g, &solo)| {
            let agg: u64 = g.iter().map(|&t| committed[t]).sum();
            (agg as f64 / cycles as f64) / solo
        })
        .sum()
}

/// The predictor used for hierarchical choices: a Score-style vote in which
/// the *sampled weighted speedup* holds an absolute majority. Raw IPC cannot
/// compare allocations (more threads always raise aggregate IPC even when
/// per-job progress falls), and conflict-based predictors systematically
/// favor allocations that starve parallel jobs (an idle thread conflicts on
/// nothing). Weighted speedup is the §7-normalized currency the hierarchical
/// scheduler already has the solo rates to compute.
pub fn hier_choose(samples: &[ScheduleSample], sample_ws: &[f64]) -> usize {
    assert_eq!(samples.len(), sample_ws.len(), "one sampled WS per outcome");
    let n = samples.len();
    let mut votes = vec![0.0f64; n];
    votes[crate::predictor::argmax(sample_ws)] += 7.0;
    for voter in [
        PredictorKind::Dcache,
        PredictorKind::Fq,
        PredictorKind::Fp,
        PredictorKind::Sum2,
        PredictorKind::Balance,
        PredictorKind::Composite,
    ] {
        votes[voter.choose(samples)] += 1.0;
    }
    // Tie-break on sampled WS.
    let max = votes.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut best = 0;
    let mut best_ws = f64::NEG_INFINITY;
    for i in 0..n {
        if votes[i] >= max - 1e-9 && sample_ws[i] > best_ws {
            best = i;
            best_ws = sample_ws[i];
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::jobmix::SyncStyle;
    use workloads::Benchmark;

    fn sample_with_ipc(ipc: f64, fq: f64) -> ScheduleSample {
        ScheduleSample {
            notation: format!("ipc{ipc}"),
            ipc,
            allconf: 100.0,
            dcache: 95.0,
            fq,
            fp: fq,
            sum2: 2.0 * fq,
            diversity: 1.0,
            balance: 0.2,
        }
    }

    #[test]
    fn hier_choose_weights_sampled_ws_over_quiet_conflicts() {
        // Outcome 0: starved parallel job — very low conflicts, low WS.
        // Outcome 1: busy machine — higher conflicts, much higher WS.
        let samples = vec![sample_with_ipc(0.8, 1.0), sample_with_ipc(2.4, 20.0)];
        assert_eq!(
            hier_choose(&samples, &[0.9, 1.6]),
            1,
            "sampled-WS weighting must beat conflict-quietness"
        );
    }

    #[test]
    fn hier_choose_penalizes_overallocation() {
        // Raw IPC is higher for outcome 0 (more threads), but per-job
        // progress (WS) is worse — the §7 trap the chooser must avoid.
        let samples = vec![sample_with_ipc(2.8, 10.0), sample_with_ipc(2.2, 10.0)];
        assert_eq!(hier_choose(&samples, &[1.1, 1.4]), 1);
    }

    #[test]
    fn hier_choose_ties_break_on_sampled_ws() {
        let samples = vec![sample_with_ipc(1.0, 5.0), sample_with_ipc(1.0, 5.0)];
        assert_eq!(hier_choose(&samples, &[1.2, 1.5]), 1);
    }

    #[test]
    fn allocations_enumerate_mt_choices() {
        let specs = vec![
            JobSpec::single(Benchmark::Cg),
            JobSpec::parallel(Benchmark::Array, 2, SyncStyle::Tight),
            JobSpec::single(Benchmark::Ep),
        ];
        let allocs = allocations(&specs);
        assert_eq!(allocs, vec![vec![1, 1, 1], vec![1, 2, 1]]);
    }

    #[test]
    fn allocations_multiply_across_mt_jobs() {
        let specs = vec![
            JobSpec::parallel(Benchmark::Array, 2, SyncStyle::Tight),
            JobSpec::parallel(Benchmark::Ep, 3, SyncStyle::None),
        ];
        assert_eq!(allocations(&specs).len(), 6);
    }

    #[test]
    fn apply_allocation_sets_thread_counts() {
        let specs = vec![JobSpec::parallel(Benchmark::Ep, 3, SyncStyle::None)];
        let out = apply_allocation(&specs, &[2]);
        assert_eq!(out[0].threads, 2);
    }

    #[test]
    #[should_panic(expected = "allocation out of range")]
    fn apply_allocation_checks_range() {
        let specs = vec![JobSpec::single(Benchmark::Cg)];
        let _ = apply_allocation(&specs, &[2]);
    }

    #[test]
    fn hierarchical_smt2_end_to_end() {
        let cfg = SosConfig {
            cycle_scale: 50_000, // very fast
            calibration_cycles: 10_000,
            ..SosConfig::default()
        };
        let report = evaluate_hierarchical(2, 2, &cfg);
        assert_eq!(report.smt, 2);
        assert!(!report.outcomes.is_empty());
        assert!(report.best_ws() >= report.picked_ws() - 1e-12);
        assert!(report.picked_ws() >= report.worst_ws() - 1e-12);
        // Both allocations of mt_ARRAY must appear.
        let allocs: std::collections::HashSet<Vec<usize>> = report
            .outcomes
            .iter()
            .map(|o| o.threads_per_job.clone())
            .collect();
        assert!(allocs.len() >= 2, "{allocs:?}");
    }

    #[test]
    fn scales_past_the_paper_timeslice_run_one_cycle_slices() {
        let cfg = SosConfig {
            cycle_scale: 10_000_000, // 5M-cycle slices round to 0
            calibration_cycles: 2_000,
            ..SosConfig::default()
        };
        assert_eq!(timeslice(&cfg), 1);
        assert!(!evaluate_hierarchical(2, 2, &cfg).outcomes.is_empty());
    }
}

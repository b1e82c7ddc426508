//! The SOS scheduler: Sample, Optimize, Symbios (§5).
//!
//! SOS "begins to run jobs in groups equal to the multithreading level, using
//! some fair policy ... it permutes the schedule periodically, changing the
//! jobs that are coscheduled" (the *sample* phase), then "picks one that it
//! thinks will be optimal and proceeds to run it in the *symbios* phase."
//!
//! [`SosScheduler::evaluate_experiment`] reproduces the paper's evaluation
//! protocol: sample up to 10 distinct schedules, predict the best with every
//! predictor, then run *all* candidates through a full symbios phase to see
//! how they actually perform (validating the predictions, as in Figures 2
//! and 3).

use crate::cache::{self, SymbiosEval};
use crate::enumerate::sample_distinct;
use crate::experiment::{ExperimentSpec, SAMPLE_SCHEDULES};
use crate::job::JobPool;
use crate::learn::{self, Learner};
use crate::predictor::PredictorKind;
use crate::runner::{RotationStats, Runner};
use crate::sample::ScheduleSample;
use crate::schedule::Schedule;
use crate::telemetry::{Attr, Telemetry};
use crate::ws::SoloRates;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use smtsim::MachineConfig;

/// Configuration for an SOS run.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SosConfig {
    /// Predictor used to pick the symbios schedule (the paper's best is
    /// `Score`).
    pub predictor: PredictorKind,
    /// Candidate schedules profiled in the sample phase.
    pub sample_schedules: usize,
    /// Rotations each candidate is profiled for (the paper uses the minimum:
    /// one full rotation).
    pub rotations_per_sample: usize,
    /// Divisor applied to the paper's cycle counts (1 = paper scale; the
    /// default experiment harness uses 1000 to keep runs laptop-sized —
    /// see DESIGN.md, substitution 3).
    pub cycle_scale: u64,
    /// Warm-up/measure windows for solo-IPC calibration, in scaled cycles.
    pub calibration_cycles: u64,
    /// RNG seed (schedule sampling and workload construction).
    pub seed: u64,
}

impl Default for SosConfig {
    fn default() -> Self {
        SosConfig {
            predictor: PredictorKind::Score,
            sample_schedules: SAMPLE_SCHEDULES,
            // The paper profiles each schedule for one rotation of 5M-cycle
            // timeslices; at reduced cycle scale a single rotation is far
            // noisier, so we profile three to compensate (still a small
            // fraction of the symbios phase).
            rotations_per_sample: 3,
            cycle_scale: 1000,
            calibration_cycles: 60_000,
            seed: 0x0505,
        }
    }
}

/// The result of evaluating one experiment with the paper's protocol.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// The experiment configuration.
    pub spec: ExperimentSpec,
    /// Paper notation of each candidate schedule.
    pub candidates: Vec<String>,
    /// Sample-phase counter condensates, one per candidate.
    pub samples: Vec<ScheduleSample>,
    /// True weighted speedup of each candidate over its symbios phase.
    pub symbios_ws: Vec<f64>,
    /// The candidate index each predictor picked from the samples.
    pub picks: Vec<(PredictorKind, usize)>,
    /// Weighted speedup *observed during the sample phase* for each
    /// candidate (an oracle upper bound on counter-based prediction: it
    /// measures the target quantity directly, which a real scheduler could
    /// also do given solo rates).
    pub sample_ws: Vec<f64>,
    /// Solo (single-threaded) IPC per schedulable thread.
    pub solo: Vec<f64>,
}

impl ExperimentReport {
    /// Best symbios weighted speedup among the candidates.
    pub fn best_ws(&self) -> f64 {
        self.symbios_ws
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Worst symbios weighted speedup among the candidates.
    pub fn worst_ws(&self) -> f64 {
        self.symbios_ws
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Mean symbios weighted speedup — "the expected throughput that an
    /// oblivious jobscheduler would obtain."
    pub fn average_ws(&self) -> f64 {
        self.symbios_ws.iter().sum::<f64>() / self.symbios_ws.len().max(1) as f64
    }

    /// Index of the candidate with the best *sample-phase observed* WS.
    pub fn oracle_pick(&self) -> usize {
        crate::predictor::argmax(&self.sample_ws)
    }

    /// The symbios WS achieved by running the candidate whose sampled WS was
    /// best (the sampling-oracle scheduler).
    pub fn oracle_ws(&self) -> f64 {
        self.symbios_ws[self.oracle_pick()]
    }

    /// The symbios WS achieved when scheduling with `predictor`.
    pub fn ws_with(&self, predictor: PredictorKind) -> f64 {
        let idx = self
            .picks
            .iter()
            .find(|(p, _)| *p == predictor)
            .map(|(_, i)| *i)
            .expect("predictor evaluated");
        self.symbios_ws[idx]
    }
}

/// The SOS scheduler entry points.
pub struct SosScheduler;

impl SosScheduler {
    /// Draws the candidate schedules for an experiment (distinct, exhaustive
    /// when the space is at most the sample budget).
    pub fn candidates(spec: &ExperimentSpec, cfg: &SosConfig) -> Vec<Schedule> {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        sample_distinct(
            spec.jobs,
            spec.smt,
            spec.swap,
            cfg.sample_schedules,
            &mut rng,
        )
    }

    /// A fresh runner for one pure evaluation stage: new pool, new
    /// processor, reporting to `tel`. Every stage of
    /// [`Self::evaluate_experiment`] starts from this state, which is what
    /// makes each stage a pure function of `(spec, cfg, schedule)` — the
    /// property the evaluation cache and the parallel candidate evaluation
    /// both rely on.
    fn fresh_runner(spec: &ExperimentSpec, cfg: &SosConfig, tel: &Telemetry) -> Runner {
        let pool = JobPool::from_specs(&spec.jobmix(), cfg.seed);
        let timeslice = spec.timeslice(cfg.cycle_scale);
        let mut runner = Runner::new(MachineConfig::alpha21264_like(spec.smt), pool, timeslice);
        runner.attach_telemetry(tel);
        runner
    }

    /// Stable machine-config hash for this experiment's processor (the
    /// machine component of every cache key).
    fn machine_hash(spec: &ExperimentSpec) -> u64 {
        MachineConfig::alpha21264_like(spec.smt).stable_hash()
    }

    /// Calibrates the solo (single-threaded) IPC of every pool thread, as a
    /// pure function of `(spec, cfg)`, memoized through
    /// [`cache::solo_rates`] when the cache is enabled.
    pub fn calibrate(spec: &ExperimentSpec, cfg: &SosConfig) -> SoloRates {
        Self::calibrate_on(spec, cfg, &Telemetry::off())
    }

    fn calibrate_on(spec: &ExperimentSpec, cfg: &SosConfig, tel: &Telemetry) -> SoloRates {
        let key = cache::solo_key(
            Self::machine_hash(spec),
            &spec.label(),
            cfg.seed,
            cfg.calibration_cycles,
            cfg.calibration_cycles,
        );
        cache::solo_rates(&key, || {
            Self::fresh_runner(spec, cfg, tel)
                .calibrate_solo(cfg.calibration_cycles, cfg.calibration_cycles)
        })
    }

    /// Profiles one candidate on a fresh runner: one unrecorded warm-up
    /// rotation (so the schedule does not pay the whole memory-system cold
    /// start; the paper starts its benchmarks partially executed for the
    /// same reason), then `rotations_per_sample` recorded rotations.
    /// Memoized through [`cache::sample_rotations`].
    pub fn sample_candidate(
        spec: &ExperimentSpec,
        cfg: &SosConfig,
        schedule: &Schedule,
    ) -> Vec<RotationStats> {
        Self::sample_candidate_on(spec, cfg, schedule, &Telemetry::off())
    }

    fn sample_candidate_on(
        spec: &ExperimentSpec,
        cfg: &SosConfig,
        schedule: &Schedule,
        tel: &Telemetry,
    ) -> Vec<RotationStats> {
        let rotations = cfg.rotations_per_sample.max(1);
        let key = cache::sample_key(
            Self::machine_hash(spec),
            &spec.label(),
            cfg.seed,
            &cache::schedule_key(schedule),
            spec.timeslice(cfg.cycle_scale),
            rotations,
        );
        cache::sample_rotations(&key, || {
            let mut runner = Self::fresh_runner(spec, cfg, tel);
            let _ = runner.run_schedule(schedule, 1);
            runner.run_schedule(schedule, rotations)
        })
    }

    /// Runs one candidate's symbios phase of at least `cycles` cycles on a
    /// fresh runner (after one unrecorded warm-up rotation), returning the
    /// phase totals. Memoized through [`cache::symbios`].
    pub fn symbios_candidate(
        spec: &ExperimentSpec,
        cfg: &SosConfig,
        schedule: &Schedule,
        cycles: u64,
    ) -> SymbiosEval {
        Self::symbios_candidate_on(spec, cfg, schedule, cycles, &Telemetry::off())
    }

    fn symbios_candidate_on(
        spec: &ExperimentSpec,
        cfg: &SosConfig,
        schedule: &Schedule,
        cycles: u64,
        tel: &Telemetry,
    ) -> SymbiosEval {
        let key = cache::symbios_key(
            Self::machine_hash(spec),
            &spec.label(),
            cfg.seed,
            &cache::schedule_key(schedule),
            spec.timeslice(cfg.cycle_scale),
            cycles,
        );
        cache::symbios(&key, || {
            let mut runner = Self::fresh_runner(spec, cfg, tel);
            let _ = runner.run_schedule(schedule, 1);
            let threads = runner.pool().len();
            let rotation_cycles = schedule.slices_per_rotation() as u64 * runner.timeslice();
            let rotations = (cycles / rotation_cycles).max(1) as usize;
            let rots = runner.run_schedule(schedule, rotations);
            let (committed, total_cycles) = RotationStats::totals(&rots, threads);
            SymbiosEval {
                committed,
                cycles: total_cycles,
            }
        })
    }

    /// The paper's full evaluation protocol for one experiment: calibrate
    /// solo IPCs, sample candidates, record every predictor's pick, then run
    /// each candidate through a symbios phase and measure its true WS.
    ///
    /// Candidates are evaluated concurrently ([`Self::
    /// evaluate_experiment_with_workers`] with an automatic worker count);
    /// every candidate stage runs on its own fresh runner and results are
    /// merged in input order, so the report is byte-identical across worker
    /// counts.
    pub fn evaluate_experiment(spec: &ExperimentSpec, cfg: &SosConfig) -> ExperimentReport {
        Self::evaluate_experiment_with_workers(spec, cfg, 0)
    }

    /// [`Self::evaluate_experiment`] with an explicit worker count for the
    /// candidate fan-out (`0` = [`std::thread::available_parallelism`]).
    pub fn evaluate_experiment_with_workers(
        spec: &ExperimentSpec,
        cfg: &SosConfig,
        workers: usize,
    ) -> ExperimentReport {
        Self::evaluate_experiment_traced(spec, cfg, workers, &Telemetry::off())
    }

    /// [`Self::evaluate_experiment_with_workers`] reporting to `tel`: phase
    /// spans, per-candidate results and predictor decisions as events, the
    /// `sos.*` counters, and every simulated timeslice through the smtsim
    /// bridge. When `tel` records events the worker count is forced to 1:
    /// the event stream is ordered by the handle's one simulated clock, and
    /// byte-stable traces require serial evaluation.
    pub fn evaluate_experiment_traced(
        spec: &ExperimentSpec,
        cfg: &SosConfig,
        workers: usize,
        tel: &Telemetry,
    ) -> ExperimentReport {
        let _experiment_span = tel.span("scheduler", "sos.experiment", || {
            vec![Attr::text("spec", spec.to_string())]
        });
        let solo = {
            let _span = tel.span("scheduler", "sos.calibrate", Vec::new);
            Self::calibrate_on(spec, cfg, tel)
        };
        let candidates = Self::candidates(spec, cfg);
        tel.counter_add("sos.experiments", 1);
        tel.counter_add("sos.candidates_sampled", candidates.len() as u64);
        let workers = if tel.events_on() {
            1
        } else if workers == 0 {
            crate::par::available_workers()
        } else {
            workers
        };

        let mut samples = Vec::with_capacity(candidates.len());
        let mut sample_ws = Vec::with_capacity(candidates.len());
        {
            let _span = tel.span("scheduler", "sos.sample_phase", || {
                vec![Attr::num("candidates", candidates.len() as f64)]
            });
            let rotations =
                crate::par::parallel_map_with_workers(candidates.clone(), workers, |schedule| {
                    let _candidate_span = tel.span("scheduler", "sos.sample_candidate", || {
                        vec![Attr::text("schedule", schedule.paper_notation())]
                    });
                    Self::sample_candidate_on(spec, cfg, &schedule, tel)
                });
            for (schedule, rots) in candidates.iter().zip(&rotations) {
                samples.push(crate::sample::ScheduleSample::from_rotations(
                    schedule, rots,
                ));
                let (committed, cycles) = RotationStats::totals(rots, solo.len());
                let ws = crate::ws::weighted_speedup(&committed, cycles, &solo);
                tel.instant("scheduler", "sos.sample_result", || {
                    vec![
                        Attr::text("schedule", schedule.paper_notation()),
                        Attr::num("ws", ws),
                    ]
                });
                sample_ws.push(ws);
            }
        }

        let picks: Vec<(PredictorKind, usize)> = PredictorKind::ALL
            .iter()
            .map(|&p| {
                let pick = p.choose(&samples);
                tel.instant("scheduler", "sos.predictor_decision", || {
                    let mut attrs = vec![
                        Attr::text("predictor", p.name()),
                        Attr::num("pick", pick as f64),
                        Attr::text("schedule", candidates[pick].paper_notation()),
                    ];
                    for (i, s) in p.scores(&samples).iter().enumerate() {
                        attrs.push(Attr::num(format!("score.{i}"), *s));
                    }
                    attrs
                });
                (p, pick)
            })
            .collect();

        let symbios_cycles = spec.symbios_cycles(cfg.cycle_scale);
        let symbios_evals =
            crate::par::parallel_map_with_workers(candidates.clone(), workers, |s| {
                let _span = tel.span("scheduler", "sos.symbios_phase", || {
                    vec![Attr::text("schedule", s.paper_notation())]
                });
                Self::symbios_candidate_on(spec, cfg, &s, symbios_cycles, tel)
            });
        let symbios_ws: Vec<f64> = candidates
            .iter()
            .zip(&symbios_evals)
            .map(|(s, ev)| {
                let ws = crate::ws::weighted_speedup(&ev.committed, ev.cycles, &solo);
                tel.instant("scheduler", "sos.symbios_result", || {
                    vec![
                        Attr::text("schedule", s.paper_notation()),
                        Attr::num("ws", ws),
                    ]
                });
                ws
            })
            .collect();
        tel.gauge_set("sos.best_ws", {
            symbios_ws.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        });

        ExperimentReport {
            spec: *spec,
            candidates: candidates.iter().map(Schedule::paper_notation).collect(),
            samples,
            symbios_ws,
            picks,
            sample_ws,
            solo: solo.as_slice().to_vec(),
        }
    }

    /// The coarse jobmix-class context string of an experiment (the bandit's
    /// context; see [`learn::context_of`]).
    pub fn experiment_context(spec: &ExperimentSpec) -> String {
        learn::context_of(spec.jobmix().iter().map(|j| j.benchmark))
    }

    /// [`Self::evaluate_experiment_with_workers`] plus the learned
    /// predictors: appends `Learned` and `Bandit` picks to the report and
    /// advances `learner` prequentially — both picks are made with the model
    /// state *before* this experiment's outcomes are folded in, so a sweep
    /// over many experiments measures honest online performance.
    ///
    /// Training targets are the candidates' *sample-phase realized WS*
    /// (`sample_ws`): the quantity the sampling oracle reads directly, which
    /// a production scheduler also observes given solo rates. The bandit
    /// gets *full-information* feedback — the symbios phase measures every
    /// candidate schedule, so each arm's counterfactual pick has a realized
    /// symbios WS; all eleven are booked, with the pull and regret accounted
    /// against the chosen arm. Rewards are the league metric itself,
    /// `(ws − avg) / avg` — the fractional gain over the oblivious-average
    /// expectation — so an arm's mean reward *is* its league standing.
    /// Phase difficulty varies far more across experiments than the arms
    /// differ within one, but full information books every arm on the same
    /// phases, so that variance is common-mode and cancels when arm means
    /// are compared.
    pub fn evaluate_experiment_learned(
        spec: &ExperimentSpec,
        cfg: &SosConfig,
        learner: &mut Learner,
        workers: usize,
    ) -> ExperimentReport {
        let mut report = Self::evaluate_experiment_with_workers(spec, cfg, workers);
        let context = Self::experiment_context(spec);
        let learned_pick = learner.choose_learned(&report.samples);
        let (arm, bandit_pick) = learner.choose_bandit(&report.samples, &context);
        report.picks.push((PredictorKind::Learned, learned_pick));
        report.picks.push((PredictorKind::Bandit, bandit_pick));
        learner.train(&report.samples, &report.sample_ws);
        let avg = report.average_ws();
        if avg > 0.0 {
            let rewards: Vec<f64> = learn::arms()
                .iter()
                .map(|&kind| {
                    let pick = match kind {
                        PredictorKind::Learned => learned_pick,
                        fixed => fixed.choose(&report.samples),
                    };
                    (report.symbios_ws[pick] - avg) / avg
                })
                .collect();
            learner.reward_all(&context, &rewards, arm);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> SosConfig {
        SosConfig {
            cycle_scale: 20_000, // tiny slices: fast tests
            calibration_cycles: 15_000,
            ..SosConfig::default()
        }
    }

    #[test]
    fn evaluate_small_experiment_end_to_end() {
        let spec: ExperimentSpec = "Jsb(4,2,2)".parse().unwrap();
        let report = SosScheduler::evaluate_experiment(&spec, &quick_cfg());
        assert_eq!(
            report.candidates.len(),
            3,
            "Jsb(4,2,2) has only 3 schedules"
        );
        assert_eq!(report.samples.len(), 3);
        assert_eq!(report.symbios_ws.len(), 3);
        assert_eq!(report.picks.len(), PredictorKind::ALL.len());
        assert_eq!(report.sample_ws.len(), 3);
        let oracle = report.oracle_ws();
        assert!(oracle >= report.worst_ws() - 1e-12 && oracle <= report.best_ws() + 1e-12);
        assert!(report.best_ws() >= report.average_ws());
        assert!(report.average_ws() >= report.worst_ws());
        assert!(report.worst_ws() > 0.0);
        for p in PredictorKind::ALL {
            let ws = report.ws_with(p);
            assert!(ws >= report.worst_ws() - 1e-12 && ws <= report.best_ws() + 1e-12);
        }
    }

    #[test]
    fn candidates_are_distinct_and_capped() {
        let spec: ExperimentSpec = "Jsb(8,4,1)".parse().unwrap();
        let cands = SosScheduler::candidates(&spec, &SosConfig::default());
        assert_eq!(cands.len(), 10);
        let keys: std::collections::HashSet<_> =
            cands.iter().map(Schedule::canonical_key).collect();
        assert_eq!(keys.len(), 10);
    }

    #[test]
    fn deterministic_given_seed() {
        let spec: ExperimentSpec = "Jsb(4,2,2)".parse().unwrap();
        let a = SosScheduler::evaluate_experiment(&spec, &quick_cfg());
        let b = SosScheduler::evaluate_experiment(&spec, &quick_cfg());
        assert_eq!(a.symbios_ws, b.symbios_ws);
        assert_eq!(a.picks, b.picks);
    }

    #[test]
    fn learned_evaluation_appends_picks_and_trains() {
        let spec: ExperimentSpec = "Jsb(4,2,2)".parse().unwrap();
        let cfg = quick_cfg();
        let mut learner = Learner::new(Default::default());
        let report = SosScheduler::evaluate_experiment_learned(&spec, &cfg, &mut learner, 0);
        assert_eq!(report.picks.len(), PredictorKind::ALL.len() + 2);
        let lw = report.ws_with(PredictorKind::Learned);
        let bw = report.ws_with(PredictorKind::Bandit);
        assert!(lw >= report.worst_ws() - 1e-12 && lw <= report.best_ws() + 1e-12);
        assert!(bw >= report.worst_ws() - 1e-12 && bw <= report.best_ws() + 1e-12);
        // One training update per candidate, one bandit pull.
        assert_eq!(learner.train_updates(), report.samples.len() as u64);
        assert_eq!(learner.bandit().total_pulls(), 1);
        // The base report (first ten picks, WS vectors) is unchanged by the
        // learned pass.
        let base = SosScheduler::evaluate_experiment(&spec, &cfg);
        assert_eq!(report.symbios_ws, base.symbios_ws);
        assert_eq!(&report.picks[..PredictorKind::ALL.len()], &base.picks[..]);
    }

    #[test]
    fn learned_evaluation_is_deterministic() {
        let spec: ExperimentSpec = "Jsb(4,2,2)".parse().unwrap();
        let cfg = quick_cfg();
        let run = |workers| {
            let mut learner = Learner::new(Default::default());
            let mut picks = Vec::new();
            for _ in 0..3 {
                let r =
                    SosScheduler::evaluate_experiment_learned(&spec, &cfg, &mut learner, workers);
                picks.push(r.picks);
            }
            (picks, serde_json::to_string(&learner).unwrap())
        };
        let (picks1, learner1) = run(0);
        let (picks2, learner2) = run(2);
        assert_eq!(picks1, picks2);
        assert_eq!(
            learner1, learner2,
            "learner state differs across worker counts"
        );
    }
}

//! `batch_sos`: the paper's closed-system protocol.
//!
//! `SosScheduler::evaluate_experiment_with_workers` on `Jsb(6,3,3)`,
//! `Jsb(8,4,4)` and `Jsb(12,4,4)` with the default `SosConfig` at a cycle
//! scale of `24000 / seconds`. It is what fig1-4 and table3 run: `sos`,
//! `runner`, `predictor`, `enumerate` and `par` sit on top of `smtsim` here,
//! and the `par` fan-out is the only parallelism of the batch path.
//!
//! One operation is the whole protocol: the three experiments back to back
//! (a batch user waits for all of them; which of three differently sized
//! experiments is "the median one" changes with the seed).
//!
//! The untraced run times the library's own entry point. So that it can
//! count the instructions that entry point committed (the report carries
//! rates, not counts), it runs with the in-memory evaluation cache on but
//! cold - cleared before every experiment, no disk store, so every lookup in
//! the timed call misses - and afterwards reads the stage results back
//! through the same public stage functions, which now hit. The traced run
//! calls those stage functions itself, one span per call; both must produce
//! the same report, byte for byte.

use super::{busy_threads, mix, repeat_setup, timed, Params};
use crate::outcome::{Fnv1a, Run};
use crate::trace::Tracer;
use sos_core::par::parallel_map_with_workers;
use sos_core::predictor::PredictorKind;
use sos_core::runner::{RotationStats, Runner};
use sos_core::sos::ExperimentReport;
use sos_core::ws::weighted_speedup;
use sos_core::{cache, ExperimentSpec, JobPool, Schedule, ScheduleSample, SosConfig, SosScheduler};
use std::time::Instant;

/// `cycle_scale x seconds`: 12 s gives scale 2000 (2.5k-cycle timeslices,
/// 1M-cycle symbios phases); 24 s gives the repository's default of 1000.
const SCALE_SECONDS: u64 = 24_000;
/// How much smaller (in cycles) the probe experiments of a traced run are.
const PROBE_SHRINK: u64 = 4;

fn specs() -> [ExperimentSpec; 3] {
    [
        ExperimentSpec::new(6, 3, 3),
        ExperimentSpec::new(8, 4, 4),
        ExperimentSpec::new(12, 4, 4),
    ]
}

fn config(p: &Params) -> SosConfig {
    SosConfig {
        cycle_scale: (SCALE_SECONDS / p.seconds).max(1),
        seed: mix(p.seed, 0xba7c),
        ..SosConfig::default()
    }
}

fn committed_in(rotations: &[RotationStats]) -> u64 {
    rotations
        .iter()
        .flat_map(|r| &r.slices)
        .map(|s| s.total_committed())
        .sum()
}

/// Useful work of one or more experiments: instructions committed in the
/// recorded sample rotations and the symbios phases (calibration and the
/// unrecorded warm-up rotation of every stage are overhead, not work).
#[derive(Clone, Copy, Default)]
struct Work {
    sample_instr: u64,
    sample_cycles: u64,
    symbios_instr: u64,
    symbios_cycles: u64,
}

impl Work {
    fn sample(&mut self, rotations: &[RotationStats]) {
        self.sample_instr += committed_in(rotations);
        self.sample_cycles += rotations.iter().map(RotationStats::cycles).sum::<u64>();
    }

    fn symbios(&mut self, eval: &cache::SymbiosEval) {
        self.symbios_instr += eval.committed.iter().sum::<u64>();
        self.symbios_cycles += eval.cycles;
    }

    fn add(&mut self, other: Work) {
        self.sample_instr += other.sample_instr;
        self.sample_cycles += other.sample_cycles;
        self.symbios_instr += other.symbios_instr;
        self.symbios_cycles += other.symbios_cycles;
    }
}

/// Reads the stage results of the experiment just evaluated back out of the
/// (now warm) cache. Returns `None` if any of them had to be recomputed.
fn work_from_cache(spec: &ExperimentSpec, cfg: &SosConfig) -> Option<Work> {
    let misses_before = cache::stats().misses;
    let mut w = Work::default();
    let symbios_cycles = spec.symbios_cycles(cfg.cycle_scale);
    for schedule in SosScheduler::candidates(spec, cfg) {
        w.sample(&SosScheduler::sample_candidate(spec, cfg, &schedule));
        w.symbios(&SosScheduler::symbios_candidate(
            spec,
            cfg,
            &schedule,
            symbios_cycles,
        ));
    }
    (cache::stats().misses == misses_before).then_some(w)
}

/// The library's protocol, stage by stage, with a span around every call.
fn evaluate_traced(
    spec: &ExperimentSpec,
    cfg: &SosConfig,
    workers: usize,
    tracer: &mut Tracer,
) -> (ExperimentReport, Work) {
    tracer.begin("sos.calibrate");
    let solo = SosScheduler::calibrate(spec, cfg);
    tracer.end();
    tracer.begin("sos.candidates");
    let candidates = SosScheduler::candidates(spec, cfg);
    tracer.end();

    tracer.begin("sos.sample_phase");
    tracer.begin("par.parallel_map");
    let sampled = parallel_map_with_workers(candidates.clone(), workers, |s| {
        let start = Instant::now();
        let rots = SosScheduler::sample_candidate(spec, cfg, &s);
        (rots, start, Instant::now())
    });
    for (_, start, end) in &sampled {
        tracer.add("sos.sample_candidate", *start, *end);
    }
    tracer.end();
    let mut work = Work::default();
    let mut samples = Vec::new();
    let mut sample_ws = Vec::new();
    for (schedule, (rots, ..)) in candidates.iter().zip(&sampled) {
        samples.push(ScheduleSample::from_rotations(schedule, rots));
        let cycles: u64 = rots.iter().map(RotationStats::cycles).sum();
        let mut committed = vec![0u64; solo.len()];
        for rot in rots {
            for (t, c) in rot.committed_per_thread(solo.len()).iter().enumerate() {
                committed[t] += c;
            }
        }
        sample_ws.push(weighted_speedup(&committed, cycles, &solo));
        work.sample(rots);
    }
    tracer.end();

    tracer.begin("sos.optimize");
    let picks: Vec<(PredictorKind, usize)> = PredictorKind::ALL
        .iter()
        .map(|&p| (p, p.choose(&samples)))
        .collect();
    tracer.end();

    tracer.begin("sos.symbios_phase");
    tracer.begin("par.parallel_map");
    let symbios_cycles = spec.symbios_cycles(cfg.cycle_scale);
    let evals = parallel_map_with_workers(candidates.clone(), workers, |s| {
        let start = Instant::now();
        let ev = SosScheduler::symbios_candidate(spec, cfg, &s, symbios_cycles);
        (ev, start, Instant::now())
    });
    for (_, start, end) in &evals {
        tracer.add("sos.symbios_candidate", *start, *end);
    }
    tracer.end();
    let symbios_ws = evals
        .iter()
        .map(|(ev, ..)| {
            work.symbios(ev);
            weighted_speedup(&ev.committed, ev.cycles, &solo)
        })
        .collect();
    tracer.end();

    let report = ExperimentReport {
        spec: *spec,
        candidates: candidates.iter().map(Schedule::paper_notation).collect(),
        samples,
        symbios_ws,
        picks,
        sample_ws,
        solo: solo.as_slice().to_vec(),
    };
    (report, work)
}

/// Per-layer probes of what is not on the workload's own path (disk cache,
/// learner, a bare runner); they use a smaller copy of the first experiment
/// so the traced run stays short.
fn probes(run: &mut Run, cfg: &SosConfig, workers: usize, tracer: &mut Tracer) {
    let spec = specs()[0];
    let small = SosConfig {
        cycle_scale: cfg.cycle_scale * PROBE_SHRINK,
        ..*cfg
    };

    let (plain, _) =
        timed(|| SosScheduler::evaluate_experiment_with_workers(&spec, &small, workers));

    // cache: cold through a fresh on-disk store, then re-attached and rerun.
    let dir = std::path::PathBuf::from(format!("benchmark/out/cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    cache::enable();
    cache::clear();
    tracer.begin("cache.cold_eval");
    let attached = cache::attach_disk(&dir).is_ok();
    let (cold, cold_s) =
        timed(|| SosScheduler::evaluate_experiment_with_workers(&spec, &small, workers));
    tracer.end();
    cache::clear();
    tracer.begin("cache.disk_load");
    let (loaded, load_s) = timed(|| cache::attach_disk(&dir).unwrap_or(0));
    tracer.end();
    tracer.begin("cache.warm_eval");
    let (warm, warm_s) =
        timed(|| SosScheduler::evaluate_experiment_with_workers(&spec, &small, workers));
    tracer.end();
    let st = cache::stats();
    cache::disable();
    cache::clear();
    let _ = std::fs::remove_dir_all(&dir);
    let json = |r: &ExperimentReport| serde_json::to_string(r).expect("report serialises");
    run.checks.op(attached && loaded > 0, || {
        format!(
            "evaluation cache store under {} did not load",
            dir.display()
        )
    });
    run.checks.op(
        json(&cold) == json(&warm) && json(&cold) == json(&plain),
        || "cold, warm and uncached reports differ".into(),
    );
    run.layer("cache.cold_eval_s", cold_s);
    run.layer("cache.warm_eval_ms", warm_s * 1e3);
    run.layer("cache.disk_load_ms", load_s * 1e3);
    run.layer(
        "cache.hit_ratio",
        st.hits as f64 / (st.hits + st.misses).max(1) as f64,
    );

    // learn: train and choose on the samples just captured.
    let mut learner = sos_core::learn::Learner::new(sos_core::learn::LearnConfig::default());
    tracer.begin("learn.train");
    let (_, train_s) = timed(|| learner.train(&plain.samples, &plain.sample_ws));
    tracer.end();
    tracer.begin("learn.choose_learned");
    let (pick, choose_s) = timed(|| learner.choose_learned(&plain.samples));
    tracer.end();
    run.checks.op(pick < plain.samples.len(), || {
        "learner picked out of range".into()
    });
    run.layer("learn.train_us", train_s * 1e6);
    run.layer("learn.choose_us", choose_s * 1e6);

    // runner: one rotation of a fixed Jsb(6,3,3) schedule, and solo calibration.
    let pool = JobPool::from_specs(&spec.jobmix(), cfg.seed);
    let mut runner = Runner::new(
        smtsim::MachineConfig::alpha21264_like(spec.smt),
        pool,
        spec.timeslice(cfg.cycle_scale),
    );
    let schedule = Schedule::new((0..spec.jobs).collect(), spec.smt, spec.swap);
    let _ = runner.run_rotation(&schedule);
    let rotation_ms: Vec<f64> = (0..20)
        .map(|_| {
            tracer.begin("runner.run_rotation");
            let (_, s) = timed(|| runner.run_rotation(&schedule));
            tracer.end();
            s * 1e3
        })
        .collect();
    run.layer("runner.rotation_ms", crate::stats::median(&rotation_ms));
    tracer.begin("runner.calibrate_solo");
    let (_, cal_s) =
        timed(|| runner.calibrate_solo(cfg.calibration_cycles, cfg.calibration_cycles));
    tracer.end();
    run.layer("runner.calibrate_solo_ms", cal_s * 1e3);
}

pub fn run(p: &Params, tracer: &mut Tracer) -> Run {
    let mut run = Run::default();
    let cfg = config(p);
    let workers = busy_threads();
    let specs = specs();

    // Set-up: solo calibration of the first jobmix, which the reports are
    // checked against.
    let (solo, reps) = repeat_setup(|| SosScheduler::calibrate(&specs[0], &cfg));
    run.setup_reps_s = reps;

    if tracer.is_on() {
        probes(&mut run, &cfg, workers, tracer);
    }

    let mut work_total = Work::default();
    let mut score_ws = Vec::new();
    for spec in &specs {
        let (report, work, secs) = if tracer.is_on() {
            tracer.begin("batch_sos.experiment");
            let ((report, work), secs) = timed(|| evaluate_traced(spec, &cfg, workers, tracer));
            tracer.end();
            (report, Some(work), secs)
        } else {
            cache::enable();
            cache::clear();
            let (report, secs) =
                timed(|| SosScheduler::evaluate_experiment_with_workers(spec, &cfg, workers));
            let work = work_from_cache(spec, &cfg);
            cache::disable();
            cache::clear();
            (report, work, secs)
        };
        // The bookkeeping above is not part of the timed section.
        run.wall_s += secs;

        let label = spec.label();
        run.checks.op(work.is_some(), || {
            format!("{label}: stage results were not in the evaluation cache")
        });
        let complete = report.candidates.len() == report.symbios_ws.len()
            && report.picks.len() == PredictorKind::ALL.len()
            && report
                .symbios_ws
                .iter()
                .all(|ws| ws.is_finite() && *ws > 0.0);
        run.checks
            .op(complete, || format!("{label}: incomplete report"));
        work_total.add(work.unwrap_or_default());
        let json = serde_json::to_string(&report).expect("report serialises");
        run.sim
            .int(format!("{label}.report_digest"), Fnv1a::of(json.as_bytes()));
        run.sim.float(
            format!("{label}.score_ws"),
            report.ws_with(PredictorKind::Score),
        );
        score_ws.push(report.ws_with(PredictorKind::Score));
        if spec == &specs[0] {
            run.checks.op(report.solo == solo.as_slice(), || {
                format!("{label}: report's solo rates differ from the set-up calibration")
            });
        }
    }
    run.ops_ms.push(run.wall_s * 1e3);
    run.instructions = work_total.sample_instr + work_total.symbios_instr;
    run.sim.int("sample_instructions", work_total.sample_instr);
    run.sim
        .int("symbios_instructions", work_total.symbios_instr);
    let mean_ws = score_ws.iter().sum::<f64>() / score_ws.len() as f64;
    run.sim.float("weighted_speedup", mean_ws);

    if tracer.is_on() {
        run.layer("sos.calibrate_s", tracer.total_s("sos.calibrate"));
        run.layer("sos.sample_phase_s", tracer.total_s("sos.sample_phase"));
        run.layer("sos.symbios_phase_s", tracer.total_s("sos.symbios_phase"));
        let n = specs.len() as f64;
        run.layer(
            "sos.candidates_us",
            tracer.total_s("sos.candidates") * 1e6 / n,
        );
        run.layer("sos.optimize_us", tracer.total_s("sos.optimize") * 1e6 / n);
        run.layer(
            "sos.sample_cycle_frac",
            work_total.sample_cycles as f64
                / (work_total.sample_cycles + work_total.symbios_cycles).max(1) as f64,
        );
        run.layer("sos.weighted_speedup", mean_ws);
        // What the fan-out bought: the stages' own time, had they run one
        // after another, over the time the experiments took.
        let staged =
            tracer.total_s("sos.sample_candidate") + tracer.total_s("sos.symbios_candidate");
        let serial_s = run.wall_s - tracer.total_s("par.parallel_map") + staged;
        run.layer("par.workers", workers as f64);
        run.layer("par.speedup_x", serial_s / run.wall_s);
    }
    run.peak_rss_mb = super::peak_rss_mb(None);
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_protocol_matches_the_library() {
        let spec = specs()[0];
        let cfg = SosConfig {
            cycle_scale: 50_000,
            calibration_cycles: 2_000,
            ..SosConfig::default()
        };
        let library = SosScheduler::evaluate_experiment_with_workers(&spec, &cfg, 2);
        let (composed, work) = evaluate_traced(&spec, &cfg, 2, &mut Tracer::new(true));
        let json = |r: &ExperimentReport| serde_json::to_string(r).expect("report serialises");
        assert_eq!(json(&library), json(&composed));
        assert!(work.symbios_instr > work.sample_instr && work.sample_instr > 0);
    }
}

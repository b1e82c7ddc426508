//! The learned-predictor evaluation sweep: a grid of paper experiments ×
//! seeds fed through one online learner, reported as a league table with
//! `Learned` and `Bandit` rows next to the ten fixed predictors, plus a
//! deterministic `learn_summary.json` under `--out-dir` (default
//! `results/learn`).
//!
//! Evaluates every experiment × seed of the grid once, in parallel, then
//! folds one shared [`Learner`] over the reports **in sweep order**, so the
//! online regressor and the contextual bandit are measured prequentially:
//! every pick is made with the model state *before* that experiment's
//! outcomes are folded in, exactly as a production scheduler would
//! experience them. The sweep order is seed-major (all grid scenarios at the
//! first seed, then the next seed), so later seeds see a trained model — the
//! honest continual-learning trajectory, not a per-scenario reset.
//!
//! The summary is wall-clock-free: two runs of the same grid, scale, and
//! seeds write byte-identical files (CI's determinism gate `cmp`s exactly
//! this artifact).
//!
//! Usage: `learn_eval [--grid small|wide] [--scale N] [--seeds S1,S2,...]
//! [--out-dir DIR]` (defaults: `wide`, 1000, six fixed seeds).

use serde::Serialize;
use sos_bench::cli::{self, Flags};
use sos_core::learn::{LearnSummary, Learner};
use sos_core::par::parallel_map;
use sos_core::report::{format_league_table, league_table};
use sos_core::sos::{ExperimentReport, SosConfig, SosScheduler};
use sos_core::{ExperimentSpec, PredictorKind};
use std::num::NonZeroU64;
use std::path::PathBuf;
use std::process::ExitCode;

/// Default seeds pooled into a sweep (the evaluation protocol requires at
/// least 3; six give the continual learner a long enough trajectory that
/// its pooled mean is not dominated by the cold-start phases).
const DEFAULT_SEEDS: [u64; 6] = [0x0505, 0x0506, 0x0507, 0x0508, 0x0509, 0x050a];

/// Resolves a grid name to its experiment list.
///
/// * `small` — one cheap scenario per SMT level (2 and 4 contexts), for CI.
/// * `wide` — all 13 paper experiments of Table 2: every jobmix class,
///   SMT 2/3/4/6, both parallel variants, big and little timeslices.
fn grid(name: &str) -> Option<Vec<ExperimentSpec>> {
    match name.to_ascii_lowercase().as_str() {
        "small" => Some(
            ["Jsb(4,2,2)", "Jsb(5,2,1)", "Jsb(8,4,4)"]
                .iter()
                .map(|l| l.parse().expect("grid label parses"))
                .collect(),
        ),
        "wide" => Some(ExperimentSpec::all_paper_experiments()),
        _ => None,
    }
}

/// The sweep configuration: the command line.
struct Options {
    /// Grid name (see [`grid`]) and its experiments.
    grid: String,
    specs: Vec<ExperimentSpec>,
    /// Seeds, swept in order (the learner persists across all of them).
    seeds: Vec<u64>,
    /// Cycle-scale divisor for every experiment.
    scale: u64,
    /// Where `learn_summary.json` goes.
    out_dir: PathBuf,
}

fn parse_seed(s: &str) -> Result<u64, String> {
    let t = s.trim();
    let parsed = match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => t.parse(),
    };
    parsed.map_err(|_| format!("bad seed {s:?}"))
}

fn parse_args(flags: &mut Flags) -> Result<Options, String> {
    let grid = flags.value("--grid", "wide".to_string())?;
    let specs = self::grid(&grid).ok_or_else(|| format!("unknown grid {grid:?} (small|wide)"))?;
    let seeds = match flags.opt::<String>("--seeds")? {
        Some(list) => list.split(',').map(parse_seed).collect::<Result<_, _>>()?,
        None => DEFAULT_SEEDS.to_vec(),
    };
    let scale = flags
        .opt::<NonZeroU64>("--scale")?
        .map_or(1000, NonZeroU64::get);
    let out_dir = flags.value("--out-dir", PathBuf::from("results/learn"))?;
    Ok(Options {
        grid,
        specs,
        seeds,
        scale,
        out_dir,
    })
}

fn main() -> ExitCode {
    let usage = "[--grid small|wide] [--scale N] [--seeds S1,S2,...] [--out-dir DIR]";
    let opts = cli::parse_or_exit("learn_eval", usage, parse_args);
    let (grid, seeds, scale) = (&opts.grid, opts.seeds.len(), opts.scale);
    eprintln!("# learned sweep: grid {grid} × {seeds} seed(s) at 1/{scale} paper scale ...");
    let (reports, summary) = run(&opts);

    let n = reports.len();
    println!("Learned-predictor league table over {n} experiments (% vs random expectation)");
    print!("{}", format_league_table(&league_table(&reports)));
    let s = &summary;
    println!(
        "best fixed  {:<10} mean WS {:.4}",
        s.best_fixed, s.best_fixed_ws
    );
    println!(
        "worst fixed {:<10} mean WS {:.4}",
        s.worst_fixed, s.worst_fixed_ws
    );
    let (learned, bandit, oracle) = (s.learned_ws, s.bandit_ws, s.oracle_mean_ws);
    println!("Learned mean WS {learned:.4}  Bandit mean WS {bandit:.4}  oracle {oracle:.4}");
    let l = &s.learner;
    println!(
        "learner: {} train updates, err EWMA {:.4}, {} bandit pulls over {} contexts, regret {:.3}",
        l.train_updates, l.err_ewma, l.bandit_pulls, l.contexts, l.bandit_regret
    );
    let pass = summary.meets_acceptance();
    let verdict = if pass { "PASS" } else { "MISS" };
    println!("acceptance (learned/bandit ≥ best fixed AND bandit ≥ worst fixed + 2%): {verdict}");

    let path = opts.out_dir.join("learn_summary.json");
    let json = serde_json::to_string_pretty(&summary).expect("summary serializes");
    let written =
        std::fs::create_dir_all(&opts.out_dir).and_then(|()| std::fs::write(&path, json + "\n"));
    if let Err(e) = written {
        eprintln!("learn_eval: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("# sweep summary written to {}", path.display());
    ExitCode::SUCCESS
}

/// One predictor's pooled result over the sweep.
#[derive(Clone, Serialize)]
struct PredictorRow {
    /// Predictor name (`PredictorKind::name`).
    name: String,
    /// Mean realized symbios WS of its picks over all experiments.
    mean_ws: f64,
    /// Percent over the pooled oblivious-average WS.
    pct_vs_avg: f64,
}

/// One experiment × seed row of the sweep.
#[derive(Debug, Serialize)]
struct ExperimentRow {
    /// Experiment label (paper notation).
    spec: String,
    /// Seed the experiment ran under.
    seed: u64,
    /// The bandit's jobmix-class context string.
    context: String,
    /// Oblivious-average WS (the random-scheduler expectation).
    avg_ws: f64,
    /// Best candidate WS.
    best_ws: f64,
    /// Sampling-oracle WS.
    oracle_ws: f64,
    /// WS realized by the online regressor's pick.
    learned_ws: f64,
    /// WS realized by the contextual bandit's pick.
    bandit_ws: f64,
}

/// The deterministic sweep artifact written to `results/learn/`.
#[derive(Serialize)]
struct LearnEvalSummary {
    /// Grid name.
    grid: String,
    /// Cycle-scale divisor.
    scale: u64,
    /// Seeds pooled, in sweep order.
    seeds: Vec<u64>,
    /// Experiments evaluated (grid × seeds).
    experiments: u64,
    /// Every predictor's pooled row (ten fixed + Learned + Bandit), in
    /// descending mean-WS order.
    predictors: Vec<PredictorRow>,
    /// Pooled sampling-oracle mean WS (the ceiling).
    oracle_mean_ws: f64,
    /// The best fixed predictor and its pooled mean WS.
    best_fixed: String,
    best_fixed_ws: f64,
    /// The worst fixed predictor and its pooled mean WS.
    worst_fixed: String,
    worst_fixed_ws: f64,
    /// Pooled mean WS of the online regressor.
    learned_ws: f64,
    /// Pooled mean WS of the contextual bandit.
    bandit_ws: f64,
    /// The learner's final state summary.
    learner: LearnSummary,
    /// Every experiment × seed row, in sweep order.
    per_experiment: Vec<ExperimentRow>,
}

impl LearnEvalSummary {
    /// The acceptance gate: the learned model or the bandit matches the
    /// best single fixed predictor, and the bandit clears the worst fixed
    /// predictor by at least 2%. The first clause holds on the default
    /// pool; the second is reported honestly even though it is structurally
    /// out of reach at this simulator scale — the fixed-predictor spread
    /// compresses to under 2%, which places `worst × 1.02` *above* the
    /// sampling oracle (see the Learned-predictors section of
    /// EXPERIMENTS.md for the measured margins).
    fn meets_acceptance(&self) -> bool {
        let best_learned = self.learned_ws.max(self.bandit_ws);
        best_learned >= self.best_fixed_ws && self.bandit_ws >= self.worst_fixed_ws * 1.02
    }
}

/// Runs the sweep. Returns the full reports (for the league table) and the
/// deterministic summary artifact.
fn run(opts: &Options) -> (Vec<ExperimentReport>, LearnEvalSummary) {
    assert!(!opts.seeds.is_empty(), "the sweep needs at least one seed");
    let sweep: Vec<(u64, ExperimentSpec)> = (opts.seeds.iter())
        .flat_map(|&seed| opts.specs.iter().map(move |&spec| (seed, spec)))
        .collect();
    let evaluated = parallel_map(sweep.clone(), |(seed, spec)| {
        let cfg = SosConfig {
            cycle_scale: opts.scale,
            seed,
            ..SosConfig::default()
        };
        SosScheduler::evaluate_experiment(&spec, &cfg)
    });
    let mut learner = Learner::new(Default::default());
    let (mut reports, mut per_experiment) = (Vec::new(), Vec::new());
    for ((seed, spec), report) in sweep.into_iter().zip(evaluated) {
        let report = SosScheduler::fold_learned(report, &mut learner);
        per_experiment.push(ExperimentRow {
            spec: spec.label(),
            seed,
            context: SosScheduler::experiment_context(&spec),
            avg_ws: report.average_ws(),
            best_ws: report.best_ws(),
            oracle_ws: report.oracle_ws(),
            learned_ws: report.ws_with(PredictorKind::Learned),
            bandit_ws: report.ws_with(PredictorKind::Bandit),
        });
        reports.push(report);
    }

    let n = reports.len() as f64;
    let mean =
        |f: &dyn Fn(&ExperimentReport) -> f64| -> f64 { reports.iter().map(f).sum::<f64>() / n };
    let avg_pool = mean(&|r| r.average_ws());
    let mut predictors: Vec<PredictorRow> = PredictorKind::EXTENDED
        .iter()
        .map(|&p| {
            let mean_ws = mean(&|r| r.ws_with(p));
            PredictorRow {
                name: p.name().to_string(),
                mean_ws,
                pct_vs_avg: sos_bench::pct_over(mean_ws, avg_pool),
            }
        })
        .collect();
    let fixed = || {
        predictors
            .iter()
            .filter(|r| !matches!(&*r.name, "Learned" | "Bandit"))
    };
    let by_ws = |a: &&PredictorRow, b: &&PredictorRow| a.mean_ws.total_cmp(&b.mean_ws);
    let best_fixed = fixed().max_by(by_ws).expect("fixed predictors").clone();
    let worst_fixed = fixed().min_by(by_ws).expect("fixed predictors").clone();
    predictors.sort_by(|a, b| b.mean_ws.total_cmp(&a.mean_ws));

    let summary = LearnEvalSummary {
        grid: opts.grid.clone(),
        scale: opts.scale,
        seeds: opts.seeds.clone(),
        experiments: reports.len() as u64,
        predictors,
        oracle_mean_ws: mean(&|r| r.oracle_ws()),
        best_fixed: best_fixed.name,
        best_fixed_ws: best_fixed.mean_ws,
        worst_fixed: worst_fixed.name,
        worst_fixed_ws: worst_fixed.mean_ws,
        learned_ws: mean(&|r| r.ws_with(PredictorKind::Learned)),
        bandit_ws: mean(&|r| r.ws_with(PredictorKind::Bandit)),
        learner: learner.summary(),
        per_experiment,
    };
    (reports, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_resolve() {
        assert_eq!(grid("small").unwrap().len(), 3);
        assert_eq!(grid("WIDE").unwrap().len(), 13);
        assert!(grid("medium").is_none());
    }

    #[test]
    fn sweep_is_deterministic_and_covers_learned_kinds() {
        let opts = Options {
            grid: "small".to_string(),
            specs: grid("small").unwrap(),
            seeds: vec![7, 8],
            scale: 50_000,
            out_dir: PathBuf::new(),
        };
        let (reports, summary) = run(&opts);
        assert_eq!(reports.len(), 6);
        assert_eq!(summary.experiments, 6);
        assert_eq!(summary.predictors.len(), PredictorKind::EXTENDED.len());
        assert!(summary.learner.train_updates > 0);
        assert!(summary.learner.bandit_pulls >= 6);
        // Every experiment row stays inside the candidate WS envelope.
        for row in &summary.per_experiment {
            assert!(row.learned_ws <= row.best_ws + 1e-12, "{row:?}");
            assert!(row.bandit_ws <= row.best_ws + 1e-12, "{row:?}");
        }
        // Byte-identical replay: same grid, scale, seeds → same artifact.
        let (_, again) = run(&opts);
        assert_eq!(
            serde_json::to_string(&summary).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
    }
}

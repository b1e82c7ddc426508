//! The learned-predictor evaluation sweep behind
//! `predictor_matrix --learned/--bandit`.
//!
//! Runs a grid of paper experiments × seeds **sequentially** through one
//! shared [`Learner`], so the online regressor and the contextual bandit
//! are measured prequentially: every pick is made with the model state
//! *before* that experiment's outcomes are folded in, exactly as a
//! production scheduler would experience them. The sweep order is
//! seed-major (all grid scenarios at the first seed, then the next seed),
//! so later seeds see a trained model — the honest continual-learning
//! trajectory, not a per-scenario reset.
//!
//! The resulting [`LearnEvalSummary`] is wall-clock-free: two runs of the
//! same grid, scale, and seeds serialize byte-identically (the CI
//! determinism gate `cmp`s exactly this artifact).

use serde::{Deserialize, Serialize};
use sos_core::learn::{LearnSummary, Learner};
use sos_core::sos::{ExperimentReport, SosConfig, SosScheduler};
use sos_core::{ExperimentSpec, PredictorKind};

/// Default seeds pooled into a sweep (the evaluation protocol requires at
/// least 3; six give the continual learner a long enough trajectory that
/// its pooled mean is not dominated by the cold-start phases).
pub const DEFAULT_SEEDS: [u64; 6] = [0x0505, 0x0506, 0x0507, 0x0508, 0x0509, 0x050a];

/// Resolves a grid name to its experiment list.
///
/// * `small` — one cheap scenario per SMT level (2 and 4 contexts), for CI.
/// * `wide` — all 13 paper experiments of Table 2: every jobmix class,
///   SMT 2/3/4/6, both parallel variants, big and little timeslices.
pub fn grid(name: &str) -> Option<Vec<ExperimentSpec>> {
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

/// The sweep configuration.
#[derive(Clone, Debug)]
pub struct LearnEvalOptions {
    /// Grid name (see [`grid`]).
    pub grid: String,
    /// Seeds, swept in order (the learner persists across all of them).
    pub seeds: Vec<u64>,
    /// Cycle-scale divisor for every experiment.
    pub scale: u64,
}

/// One predictor's pooled result over the sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PredictorRow {
    /// Predictor name (`PredictorKind::name`).
    pub name: String,
    /// Mean realized symbios WS of its picks over all experiments.
    pub mean_ws: f64,
    /// Percent over the pooled oblivious-average WS.
    pub pct_vs_avg: f64,
}

/// One experiment × seed row of the sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExperimentRow {
    /// Experiment label (paper notation).
    pub spec: String,
    /// Seed the experiment ran under.
    pub seed: u64,
    /// The bandit's jobmix-class context string.
    pub context: String,
    /// Oblivious-average WS (the random-scheduler expectation).
    pub avg_ws: f64,
    /// Best candidate WS.
    pub best_ws: f64,
    /// Sampling-oracle WS.
    pub oracle_ws: f64,
    /// WS realized by the online regressor's pick.
    pub learned_ws: f64,
    /// WS realized by the contextual bandit's pick.
    pub bandit_ws: f64,
}

/// The deterministic sweep artifact written to `results/learn/`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LearnEvalSummary {
    /// Grid name.
    pub grid: String,
    /// Cycle-scale divisor.
    pub scale: u64,
    /// Seeds pooled, in sweep order.
    pub seeds: Vec<u64>,
    /// Experiments evaluated (grid × seeds).
    pub experiments: u64,
    /// Every predictor's pooled row (ten fixed + Learned + Bandit), in
    /// descending mean-WS order.
    pub predictors: Vec<PredictorRow>,
    /// Pooled sampling-oracle mean WS (the ceiling).
    pub oracle_mean_ws: f64,
    /// The best fixed predictor and its pooled mean WS.
    pub best_fixed: String,
    pub best_fixed_ws: f64,
    /// The worst fixed predictor and its pooled mean WS.
    pub worst_fixed: String,
    pub worst_fixed_ws: f64,
    /// Pooled mean WS of the online regressor.
    pub learned_ws: f64,
    /// Pooled mean WS of the contextual bandit.
    pub bandit_ws: f64,
    /// The learner's final state summary.
    pub learner: LearnSummary,
    /// Every experiment × seed row, in sweep order.
    pub per_experiment: Vec<ExperimentRow>,
}

impl LearnEvalSummary {
    /// The PR acceptance gate: the learned model or the bandit matches the
    /// best single fixed predictor, and the bandit clears the worst fixed
    /// predictor by at least 2%. The first clause holds on the default
    /// pool; the second is reported honestly even though it is structurally
    /// out of reach at this simulator scale — the fixed-predictor spread
    /// compresses to under 2%, which places `worst × 1.02` *above* the
    /// sampling oracle (see the Learned-predictors section of
    /// EXPERIMENTS.md for the measured margins).
    pub fn meets_acceptance(&self) -> bool {
        let best_learned = self.learned_ws.max(self.bandit_ws);
        best_learned >= self.best_fixed_ws && self.bandit_ws >= self.worst_fixed_ws * 1.02
    }
}

/// Runs the sweep. Returns the full reports (for the league table) and the
/// deterministic summary artifact.
///
/// # Panics
/// Panics on an unknown grid name or an empty seed list.
pub fn run(opts: &LearnEvalOptions) -> (Vec<ExperimentReport>, LearnEvalSummary) {
    let specs =
        grid(&opts.grid).unwrap_or_else(|| panic!("unknown grid {:?} (small|wide)", opts.grid));
    assert!(!opts.seeds.is_empty(), "the sweep needs at least one seed");
    let mut learner = Learner::new(Default::default());
    let mut reports = Vec::with_capacity(specs.len() * opts.seeds.len());
    let mut per_experiment = Vec::with_capacity(reports.capacity());
    for &seed in &opts.seeds {
        for spec in &specs {
            let cfg = SosConfig {
                cycle_scale: opts.scale,
                seed,
                ..SosConfig::default()
            };
            let report = SosScheduler::evaluate_experiment_learned(spec, &cfg, &mut learner, 0);
            per_experiment.push(ExperimentRow {
                spec: spec.label(),
                seed,
                context: SosScheduler::experiment_context(spec),
                avg_ws: report.average_ws(),
                best_ws: report.best_ws(),
                oracle_ws: report.oracle_ws(),
                learned_ws: report.ws_with(PredictorKind::Learned),
                bandit_ws: report.ws_with(PredictorKind::Bandit),
            });
            reports.push(report);
        }
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
                pct_vs_avg: crate::pct_over(mean_ws, avg_pool),
            }
        })
        .collect();
    let fixed = |name: &str| !matches!(name, "Learned" | "Bandit");
    let best_fixed = predictors
        .iter()
        .filter(|r| fixed(&r.name))
        .max_by(|a, b| a.mean_ws.total_cmp(&b.mean_ws))
        .expect("fixed predictors present")
        .clone();
    let worst_fixed = predictors
        .iter()
        .filter(|r| fixed(&r.name))
        .min_by(|a, b| a.mean_ws.total_cmp(&b.mean_ws))
        .expect("fixed predictors present")
        .clone();
    let row_ws = |name: &str| {
        predictors
            .iter()
            .find(|r| r.name == name)
            .expect("extended row present")
            .mean_ws
    };
    let (learned_ws, bandit_ws) = (row_ws("Learned"), row_ws("Bandit"));
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
        learned_ws,
        bandit_ws,
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
        let opts = LearnEvalOptions {
            grid: "small".to_string(),
            seeds: vec![7, 8],
            scale: 50_000,
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

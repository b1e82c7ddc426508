//! Online learned symbiosis prediction (ROADMAP item 3).
//!
//! The paper's ten predictors are fixed heuristics chosen once from Table 3.
//! This module closes the loop from the telemetry counter stream back into
//! scheduling decisions with two learned predictors:
//!
//! * [`RidgeRegressor`] — an online ridge/linear regressor over the same
//!   sample-phase counter condensates the fixed predictors read
//!   ([`ScheduleSample`]: IPC, conflict rates, DL1 hit rate, FP-queue/unit
//!   conflicts, mix diversity, IPC balance). It accumulates the normal
//!   equations (`XᵀX`, `Xᵀy`) incrementally in f64 and solves them lazily,
//!   so one training update is O(D²) and one prediction is O(D) after an
//!   O(D³) solve per dirty model. Exposed as
//!   [`crate::predictor::PredictorKind::Learned`].
//! * [`BanditState`] — a contextual bandit over eleven arms: the ten paper
//!   predictors plus the learned model. It runs UCB1 while feedback is
//!   partial (the online engine: only the chosen schedule's reward is ever
//!   seen) and follows the leader once feedback is full-information (the
//!   batch protocol: every arm's pick is measured). Context is a coarse
//!   jobmix class histogram ([`context_of`]), so the bandit can learn that,
//!   say, `Fq` wins on FP-heavy mixes while `Dcache` wins on memory-bound
//!   ones. Per-arm pulls, mean reward, and regret are accounted per context
//!   and globally. Exposed as [`crate::predictor::PredictorKind::Bandit`].
//!
//! The engine's whole *optimize* stage for a learned predictor is
//! [`Learner::optimize`]: choose with the model as it stands, train on the
//! sample phase just measured, and — for the bandit — open a [`Pull`] that
//! rides with the symbios phase the choice started, collects that phase's
//! realized IPC, and is booked by [`Learner::settle`] when the phase ends.
//!
//! Determinism rules (the same contract as the rest of the engine):
//!
//! 1. All state is plain `f64`/`u64` updated in a fixed sequential order —
//!    no wall clock, no `HashMap` iteration, no platform-dependent math.
//! 2. The learner draws no random numbers: both selection rules are
//!    deterministic functions of the statistics.
//! 3. Serialization round-trips exactly: `serde_json` prints `f64` via
//!    shortest-round-trip formatting, so a restored [`Learner`] continues
//!    byte-identically with the original.

use crate::predictor::PredictorKind;
use crate::sample::ScheduleSample;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use workloads::Benchmark;

/// Feature-vector dimension (bias + 8 counter condensates).
pub const NUM_FEATURES: usize = 9;

/// Number of bandit arms: the ten paper predictors plus the learned model.
pub const NUM_ARMS: usize = PredictorKind::ALL.len() + 1;

/// The bandit's arms, in pull-accounting order: the paper's ten predictors
/// (Table 3 order) followed by [`PredictorKind::Learned`].
pub fn arms() -> [PredictorKind; NUM_ARMS] {
    let mut out = [PredictorKind::Learned; NUM_ARMS];
    out[..PredictorKind::ALL.len()].copy_from_slice(&PredictorKind::ALL);
    out
}

/// The feature vector of one sampled schedule. Percent-scaled counters are
/// divided by 100 so every feature is O(1) and the ridge penalty is
/// comparable across dimensions.
pub fn features(s: &ScheduleSample) -> [f64; NUM_FEATURES] {
    [
        1.0, // bias
        s.ipc,
        s.allconf / 100.0,
        s.dcache / 100.0,
        s.fq / 100.0,
        s.fp / 100.0,
        s.sum2 / 100.0,
        s.diversity,
        s.balance,
    ]
}

/// The learner's tuning. No run varies it, so there is nothing to set: the
/// one public constructor is [`Default`], and the struct exists so a
/// serialized [`Learner`] records the constants it was trained under.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LearnConfig {
    /// Exploration coefficient for UCB1.
    ucb_c: f64,
    /// Ridge penalty λ on the normal equations.
    lambda: f64,
    /// EWMA smoothing for the prediction-error gauge.
    ewma_alpha: f64,
    /// Training observations before the regressor's ranking is trusted;
    /// until then [`Learner::choose_learned`] falls back to the paper's
    /// best fixed predictor (`Score`).
    min_train: u64,
}

impl Default for LearnConfig {
    fn default() -> Self {
        LearnConfig {
            ucb_c: 0.5,
            lambda: 1.0,
            ewma_alpha: 0.1,
            min_train: 8,
        }
    }
}

/// Online ridge regression via incrementally updated normal equations.
///
/// [`observe`](Self::observe) folds one `(x, y)` pair into the `XᵀX` / `Xᵀy`
/// accumulators; [`weights`](Self::weights) solves `(XᵀX + λI)·w = Xᵀy` by
/// Gaussian elimination with partial pivoting on demand (a 9×9 solve, cheap
/// next to a sample phase). Only the accumulators carry state, so a restored
/// model re-solves to exactly the same weights.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RidgeRegressor {
    /// Ridge penalty λ.
    lambda: f64,
    /// Training observations folded in.
    n: u64,
    /// Row-major `XᵀX` accumulator (`NUM_FEATURES²`).
    xtx: Vec<f64>,
    /// `Xᵀy` accumulator.
    xty: Vec<f64>,
    /// EWMA of |prediction − target| over prequential updates.
    err_ewma: f64,
    /// EWMA smoothing factor.
    ewma_alpha: f64,
}

impl RidgeRegressor {
    /// An empty model with ridge penalty `lambda`.
    pub fn new(lambda: f64, ewma_alpha: f64) -> Self {
        RidgeRegressor {
            lambda: lambda.max(1e-12),
            n: 0,
            xtx: vec![0.0; NUM_FEATURES * NUM_FEATURES],
            xty: vec![0.0; NUM_FEATURES],
            err_ewma: 0.0,
            ewma_alpha: ewma_alpha.clamp(1e-6, 1.0),
        }
    }

    /// Training observations folded in so far.
    pub fn observations(&self) -> u64 {
        self.n
    }

    /// EWMA of the prequential absolute prediction error.
    pub fn err_ewma(&self) -> f64 {
        self.err_ewma
    }

    /// Folds one observation in (prequential: the error gauge is updated
    /// from the model *before* it sees the new pair).
    pub fn observe(&mut self, x: &[f64; NUM_FEATURES], y: f64) {
        if let Some(pred) = self.predict(x) {
            let err = (pred - y).abs();
            self.err_ewma = if self.n == 0 {
                err
            } else {
                self.err_ewma + self.ewma_alpha * (err - self.err_ewma)
            };
        }
        for i in 0..NUM_FEATURES {
            for j in 0..NUM_FEATURES {
                self.xtx[i * NUM_FEATURES + j] += x[i] * x[j];
            }
            self.xty[i] += x[i] * y;
        }
        self.n += 1;
    }

    /// The solved weights, or `None` before any observation (or on a
    /// singular system, which λ > 0 prevents in practice).
    pub fn weights(&self) -> Option<Vec<f64>> {
        if self.n == 0 {
            return None;
        }
        solve_ridge(&self.xtx, &self.xty, self.lambda)
    }

    /// Predicts `y` for `x`, or `None` while the model is empty.
    pub fn predict(&self, x: &[f64; NUM_FEATURES]) -> Option<f64> {
        let w = self.weights()?;
        Some(x.iter().zip(&w).map(|(a, b)| a * b).sum())
    }
}

/// Solves `(A + λI)·w = b` by Gaussian elimination with partial pivoting.
/// Returns `None` when the pivoted system is numerically singular.
fn solve_ridge(a: &[f64], b: &[f64], lambda: f64) -> Option<Vec<f64>> {
    const D: usize = NUM_FEATURES;
    let mut m = [[0.0f64; D + 1]; D];
    for i in 0..D {
        for j in 0..D {
            m[i][j] = a[i * D + j];
        }
        m[i][i] += lambda;
        m[i][D] = b[i];
    }
    for col in 0..D {
        let mut pivot = col;
        for row in col + 1..D {
            if m[row][col].abs() > m[pivot][col].abs() {
                pivot = row;
            }
        }
        if m[pivot][col].abs() < 1e-12 {
            return None;
        }
        m.swap(col, pivot);
        for row in col + 1..D {
            let (head, tail) = m.split_at_mut(row);
            let (pivot_row, target) = (&head[col], &mut tail[0]);
            let f = target[col] / pivot_row[col];
            for (t, p) in target[col..].iter_mut().zip(&pivot_row[col..]) {
                *t -= f * p;
            }
        }
    }
    let mut w = vec![0.0f64; D];
    for i in (0..D).rev() {
        let mut acc = m[i][D];
        for j in i + 1..D {
            acc -= m[i][j] * w[j];
        }
        w[i] = acc / m[i][i];
    }
    if w.iter().all(|v| v.is_finite()) {
        Some(w)
    } else {
        None
    }
}

/// Per-arm accounting: observations, reward mass, and regret mass.
#[derive(Copy, Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ArmStats {
    /// Observed outcomes folded into this arm: one per pull under partial
    /// feedback ([`BanditState::reward`]), one per phase under
    /// full-information feedback ([`BanditState::update_full`]).
    pub pulls: u64,
    /// Sum of rewards over those observations.
    pub reward_sum: f64,
    /// Sum of `(best − reward)` over those observations.
    pub regret_sum: f64,
}

impl ArmStats {
    /// Empirical mean reward (0.0 before the first pull).
    pub fn mean(&self) -> f64 {
        if self.pulls == 0 {
            0.0
        } else {
            self.reward_sum / self.pulls as f64
        }
    }
}

/// The contextual bandit over the eleven arms of [`arms`].
///
/// Each context keeps its own arm table, but selection shrinks a context's
/// per-arm statistics toward the cross-context `global` mean with
/// `CONTEXT_PRIOR_WEIGHT` pseudo-pulls: a sparse context scores arms
/// mostly by the global prior (warm start), while a data-rich context
/// specializes. Sample phases are scarce — a full sweep books only a few
/// dozen pulls — so fully independent contexts would spend the entire run
/// re-seeding arms. `BTreeMap` keeps serialization and iteration order
/// deterministic.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BanditState {
    ucb_c: f64,
    contexts: BTreeMap<String, Vec<ArmStats>>,
    global: Vec<ArmStats>,
    total_pulls: u64,
    total_regret: f64,
    /// Set once [`update_full`](Self::update_full) has been seen: under
    /// full-information feedback every arm's mean is estimated every phase
    /// regardless of the choice, so exploration buys nothing and selection
    /// switches to follow-the-leader (pure greedy on the shrunk means).
    #[serde(default)]
    full_info: bool,
}

/// Prior strength (pseudo-pulls) with which a context's per-arm statistics
/// are shrunk toward the global cross-context mean during selection.
const CONTEXT_PRIOR_WEIGHT: f64 = 1.0;

impl BanditState {
    /// A fresh bandit under `cfg`.
    pub fn new(cfg: &LearnConfig) -> Self {
        BanditState {
            ucb_c: cfg.ucb_c.max(0.0),
            contexts: BTreeMap::new(),
            global: vec![ArmStats::default(); NUM_ARMS],
            total_pulls: 0,
            total_regret: 0.0,
            full_info: false,
        }
    }

    /// Selects an arm index for `context` (does not book a pull — the pull
    /// and its reward are booked together by [`reward`](Self::reward), so
    /// an unfinished phase never skews the statistics).
    pub fn select(&mut self, context: &str) -> usize {
        // Untried arms first, against the *global* table: each arm needs
        // one pull somewhere before means are meaningful, but a context
        // never re-seeds arms another context has already tried.
        if let Some(i) = self.global.iter().position(|a| a.pulls == 0) {
            return i;
        }
        let global = &self.global;
        let stats = self
            .contexts
            .entry(context.to_string())
            .or_insert_with(|| vec![ArmStats::default(); NUM_ARMS]);
        // Context statistics shrunk toward the global mean with
        // CONTEXT_PRIOR_WEIGHT pseudo-pulls.
        let tau = CONTEXT_PRIOR_WEIGHT;
        let mean_eff = |i: usize| {
            (stats[i].reward_sum + tau * global[i].mean()) / (stats[i].pulls as f64 + tau)
        };
        // Under full-information feedback (see `update_full`) every arm's
        // mean is re-estimated every phase whatever we pick, so exploration
        // bonuses are pure regret: follow the leader.
        if self.full_info {
            let scores: Vec<f64> = (0..NUM_ARMS).map(mean_eff).collect();
            return crate::predictor::argmax(&scores);
        }
        // Partial feedback: UCB1, deterministic optimism —
        // mean + `c·√(2·ln N / n)` per context.
        let ln_n = (self.total_pulls.max(1) as f64).ln();
        let c = self.ucb_c;
        let scores: Vec<f64> = (0..NUM_ARMS)
            .map(|i| mean_eff(i) + c * (2.0 * ln_n / (stats[i].pulls as f64 + tau)).sqrt())
            .collect();
        crate::predictor::argmax(&scores)
    }

    /// Books one pull of `arm` in `context` with realized `reward`, against
    /// the best realized reward `best` (regret = `best − reward`).
    pub fn reward(&mut self, context: &str, arm: usize, reward: f64, best: f64) {
        assert!(arm < NUM_ARMS, "arm index out of range");
        if !reward.is_finite() || !best.is_finite() {
            return; // degenerate phase: never poison the statistics
        }
        let regret = (best - reward).max(0.0);
        let stats = self
            .contexts
            .entry(context.to_string())
            .or_insert_with(|| vec![ArmStats::default(); NUM_ARMS]);
        for s in [&mut stats[arm], &mut self.global[arm]] {
            s.pulls += 1;
            s.reward_sum += reward;
            s.regret_sum += regret;
        }
        self.total_pulls += 1;
        self.total_regret += regret;
    }

    /// Books one decision under *full-information* feedback: `rewards[i]`
    /// is the realized reward arm `i`'s pick would have earned this phase.
    /// The SOS batch protocol measures every candidate schedule in its
    /// sample and symbios phases, so every arm's counterfactual outcome is
    /// observed — folding them all in removes the exploration cost
    /// entirely (selection reduces to exploitation of well-estimated
    /// means, which an 11-arm bandit cannot afford to build one pull at a
    /// time over a few dozen sample phases). The decision itself — the
    /// chosen arm's pull and its realized regret against the best arm —
    /// is booked exactly as under [`reward`](Self::reward).
    pub fn update_full(&mut self, context: &str, rewards: &[f64], chosen: usize) {
        assert_eq!(rewards.len(), NUM_ARMS, "one reward per arm");
        assert!(chosen < NUM_ARMS, "arm index out of range");
        self.full_info = true;
        if !rewards[chosen].is_finite() {
            return; // degenerate phase: never poison the statistics
        }
        let best = rewards
            .iter()
            .copied()
            .filter(|r| r.is_finite())
            .fold(f64::NEG_INFINITY, f64::max);
        let stats = self
            .contexts
            .entry(context.to_string())
            .or_insert_with(|| vec![ArmStats::default(); NUM_ARMS]);
        for (i, &r) in rewards.iter().enumerate() {
            if !r.is_finite() {
                continue;
            }
            let regret = (best - r).max(0.0);
            for s in [&mut stats[i], &mut self.global[i]] {
                s.pulls += 1;
                s.reward_sum += r;
                s.regret_sum += regret;
            }
        }
        self.total_pulls += 1;
        self.total_regret += (best - rewards[chosen]).max(0.0);
    }

    /// Global per-arm accounting, in [`arms`] order.
    pub fn global_arms(&self) -> &[ArmStats] {
        &self.global
    }

    /// Pulls booked across all contexts.
    pub fn total_pulls(&self) -> u64 {
        self.total_pulls
    }

    /// Cumulative regret across all contexts.
    pub fn total_regret(&self) -> f64 {
        self.total_regret
    }

    /// Distinct contexts seen.
    pub fn context_count(&self) -> usize {
        self.contexts.len()
    }
}

/// Classifies a benchmark into a coarse jobmix class by its instruction-mix
/// profile: `F` (FP-heavy), `M` (memory-heavy), or `I` (integer/other).
pub fn class_of(b: Benchmark) -> char {
    let p = b.profile();
    let w = p.mix.weights();
    let total: f64 = w.iter().sum::<f64>().max(1e-9);
    // ClassMix weight order: [int_alu, int_mul, fp_add, fp_mul, fp_div,
    // load, store, branch].
    let fp = (w[2] + w[3] + w[4]) / total;
    let mem = (w[5] + w[6]) / total;
    // Thresholds calibrated against the Table-1 profiles: every FP code has
    // fp ≥ 0.30; among the integer codes only IS (0.53 loads+stores) is
    // memory-bound, with GCC/GO near 0.3.
    if fp >= 0.20 {
        'F'
    } else if mem >= 0.45 {
        'M'
    } else {
        'I'
    }
}

/// The coarse jobmix-class-histogram context string of a set of live
/// benchmarks, e.g. `"F2I3M1"`. Counts saturate at 9 to bound context
/// cardinality (and keep the string fixed-width).
pub fn context_of(benchmarks: impl IntoIterator<Item = Benchmark>) -> String {
    let (mut f, mut i, mut m) = (0usize, 0usize, 0usize);
    for b in benchmarks {
        match class_of(b) {
            'F' => f += 1,
            'M' => m += 1,
            _ => i += 1,
        }
    }
    format!("F{}I{}M{}", f.min(9), i.min(9), m.min(9))
}

/// An open bandit pull: the arm [`Learner::optimize`] pulled has chosen a
/// symbios schedule, and its realized reward is only known once that phase
/// ends. The pull rides with the phase — the engine feeds it each symbios
/// slice's IPC through [`observe`](Self::observe) — and
/// [`Learner::settle`] books it against the sample-phase baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct Pull {
    /// The pulled arm index (in [`arms`] order).
    arm: usize,
    /// Bandit context at pull time.
    context: String,
    /// Mean sampled IPC across the candidates (the oblivious baseline).
    baseline: f64,
    /// Best sampled IPC among the candidates (the best-arm proxy).
    best_proxy: f64,
    /// Sum of symbios-slice total IPCs since the pull.
    ipc_sum: f64,
    /// Symbios slices accumulated.
    slices: u64,
}

impl Pull {
    fn open(arm: usize, context: String, samples: &[ScheduleSample]) -> Pull {
        let ipcs = || samples.iter().map(|s| s.ipc);
        Pull {
            arm,
            context,
            baseline: ipcs().sum::<f64>() / samples.len() as f64,
            best_proxy: ipcs().fold(f64::NEG_INFINITY, f64::max),
            ipc_sum: 0.0,
            slices: 0,
        }
    }

    /// Folds in one symbios slice's total IPC.
    pub fn observe(&mut self, ipc: f64) {
        self.ipc_sum += ipc;
        self.slices += 1;
    }

    /// The predictor whose arm was pulled.
    pub fn arm(&self) -> PredictorKind {
        arms()[self.arm]
    }

    /// The bandit context the pull was made in.
    pub fn context(&self) -> &str {
        &self.context
    }
}

/// A serializable summary of a learner's state, carried by cluster shard
/// reports, the `learn.*` metrics family, and the `results/learn/` artifact.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LearnSummary {
    /// Regressor training observations.
    pub train_updates: u64,
    /// Predictions served (learned + bandit picks).
    pub predictions: u64,
    /// EWMA of the prequential absolute prediction error.
    pub err_ewma: f64,
    /// Bandit pulls booked.
    pub bandit_pulls: u64,
    /// Cumulative bandit regret.
    pub bandit_regret: f64,
    /// Distinct bandit contexts seen.
    pub contexts: usize,
    /// Per-arm `(name, pulls, mean reward)` in [`arms`] order.
    pub arms: Vec<(String, u64, f64)>,
}

/// The composite learner: one ridge regressor plus one contextual bandit,
/// the unit of state that plumbs through engines and snapshots.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Learner {
    /// The configuration the learner was built under.
    cfg: LearnConfig,
    regressor: RidgeRegressor,
    bandit: BanditState,
    predictions: u64,
}

impl Learner {
    /// A fresh learner under `cfg`.
    pub fn new(cfg: LearnConfig) -> Self {
        Learner {
            cfg,
            regressor: RidgeRegressor::new(cfg.lambda, cfg.ewma_alpha),
            bandit: BanditState::new(&cfg),
            predictions: 0,
        }
    }

    /// The regressor's per-candidate scores (predicted weighted speedup),
    /// or `None` while the model has fewer than `min_train` observations.
    /// Solves the normal equations once and reuses the weights across
    /// candidates.
    pub fn learned_scores(&self, samples: &[ScheduleSample]) -> Option<Vec<f64>> {
        if self.regressor.n < self.cfg.min_train {
            return None;
        }
        let w = self.regressor.weights()?;
        Some(
            samples
                .iter()
                .map(|s| features(s).iter().zip(&w).map(|(a, b)| a * b).sum())
                .collect(),
        )
    }

    /// The candidate the learned model picks. Cold-start fallback: before
    /// `min_train` observations the ranking is the paper's best fixed
    /// predictor (`Score`), so an untrained model never schedules worse
    /// than the paper's default.
    pub fn choose_learned(&mut self, samples: &[ScheduleSample]) -> usize {
        self.predictions += 1;
        match self.learned_scores(samples) {
            Some(scores) => crate::predictor::argmax(&scores),
            None => PredictorKind::Score.choose(samples),
        }
    }

    /// The bandit's decision for one sample phase: selects an arm for
    /// `context`, then the candidate that arm picks. Returns
    /// `(arm index, candidate index)`; the outcome is booked by
    /// [`settle`](Self::settle) online or [`reward_all`](Self::reward_all)
    /// in the batch protocol.
    pub fn choose_bandit(&mut self, samples: &[ScheduleSample], context: &str) -> (usize, usize) {
        self.predictions += 1;
        let arm = self.bandit.select(context);
        let pick = match arms()[arm] {
            PredictorKind::Learned => match self.learned_scores(samples) {
                Some(scores) => crate::predictor::argmax(&scores),
                None => PredictorKind::Score.choose(samples),
            },
            fixed => fixed.choose(samples),
        };
        (arm, pick)
    }

    /// Trains the regressor on one sample phase: candidate features against
    /// realized targets (weighted speedup in the batch protocol, an IPC
    /// proxy online). Lengths must match.
    pub fn train(&mut self, samples: &[ScheduleSample], targets: &[f64]) {
        assert_eq!(
            samples.len(),
            targets.len(),
            "one target per sampled schedule"
        );
        for (s, &y) in samples.iter().zip(targets) {
            if y.is_finite() {
                self.regressor.observe(&features(s), y);
            }
        }
    }

    /// The online engine's optimize stage (§5) for the learned predictor
    /// `kind`, over the live jobs' `benchmarks`. Prequential: the pick is
    /// made with the model as it stands, *then* the regressor trains on
    /// this sample phase. Targets are per-candidate sampled IPC — the
    /// engine has no solo rates, so realized WS is not observable online
    /// (DESIGN.md §12 documents the proxy). Returns the picked candidate
    /// and, for `Bandit`, the pull that pick opened.
    pub fn optimize(
        &mut self,
        kind: PredictorKind,
        samples: &[ScheduleSample],
        benchmarks: impl IntoIterator<Item = Benchmark>,
    ) -> (usize, Option<Pull>) {
        debug_assert!(kind.is_learned(), "{kind:?} needs no learner");
        let (pick, pull) = if kind == PredictorKind::Bandit {
            let context = context_of(benchmarks);
            let (arm, pick) = self.choose_bandit(samples, &context);
            (pick, Some(Pull::open(arm, context, samples)))
        } else {
            (self.choose_learned(samples), None)
        };
        let targets: Vec<f64> = samples.iter().map(|s| s.ipc).collect();
        self.train(samples, &targets);
        (pick, pull)
    }

    /// Books a pull whose symbios phase has ended — the partial-feedback
    /// path, where only the chosen schedule runs on. Reward = realized mean
    /// symbios IPC over the sample-phase mean (the oblivious baseline);
    /// best = the best sampled IPC over the same baseline (an observable
    /// proxy for the best arm). Returns `(reward, regret)`, or `None` —
    /// booking nothing — for a pull that saw no slice or has no baseline.
    pub fn settle(&mut self, pull: &Pull) -> Option<(f64, f64)> {
        if pull.slices == 0 || pull.baseline <= 0.0 {
            return None;
        }
        let reward = pull.ipc_sum / pull.slices as f64 / pull.baseline;
        let best = pull.best_proxy / pull.baseline;
        self.bandit.reward(&pull.context, pull.arm, reward, best);
        Some((reward, (best - reward).max(0.0)))
    }

    /// Books one decision with every arm's realized reward (see
    /// [`BanditState::update_full`]) — the full-information path used by
    /// the batch protocol, where the symbios phase measures all candidate
    /// schedules.
    pub fn reward_all(&mut self, context: &str, rewards: &[f64], chosen: usize) {
        self.bandit.update_full(context, rewards, chosen);
    }

    /// Regressor training observations.
    pub fn train_updates(&self) -> u64 {
        self.regressor.observations()
    }

    /// Predictions served.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// The bandit state (read-only).
    pub fn bandit(&self) -> &BanditState {
        &self.bandit
    }

    /// EWMA of the prequential absolute prediction error.
    pub fn err_ewma(&self) -> f64 {
        self.regressor.err_ewma()
    }

    /// The serializable summary (shard reports, metrics, artifacts).
    pub fn summary(&self) -> LearnSummary {
        LearnSummary {
            train_updates: self.regressor.observations(),
            predictions: self.predictions,
            err_ewma: self.regressor.err_ewma(),
            bandit_pulls: self.bandit.total_pulls(),
            bandit_regret: self.bandit.total_regret(),
            contexts: self.bandit.context_count(),
            arms: arms()
                .iter()
                .zip(self.bandit.global_arms())
                .map(|(p, a)| (p.name().to_string(), a.pulls, a.mean()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn sample(ipc: f64, fq: f64, balance: f64) -> ScheduleSample {
        ScheduleSample {
            notation: "t".into(),
            ipc,
            allconf: 50.0,
            dcache: 95.0,
            fq,
            fp: fq * 0.5,
            sum2: fq * 1.5,
            diversity: 0.2,
            balance,
        }
    }

    #[test]
    fn ridge_converges_on_synthetic_linear_workload() {
        // y = 2·ipc − 5·(fq/100) + 0.3, exactly linear in the features.
        let mut r = RidgeRegressor::new(1e-6, 0.1);
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..500 {
            let ipc = 1.0 + 2.0 * rng.gen::<f64>();
            let fq = 40.0 * rng.gen::<f64>();
            let s = sample(ipc, fq, rng.gen::<f64>());
            let y = 2.0 * ipc - 5.0 * (fq / 100.0) + 0.3;
            r.observe(&features(&s), y);
        }
        let s = sample(1.7, 12.0, 0.4);
        let want = 2.0 * 1.7 - 5.0 * 0.12 + 0.3;
        let got = r.predict(&features(&s)).unwrap();
        assert!((got - want).abs() < 1e-3, "got {got}, want {want}");
        assert!(r.err_ewma() < 1e-3, "err EWMA {}", r.err_ewma());
    }

    #[test]
    fn ridge_is_order_deterministic_and_serializable() {
        let mut a = RidgeRegressor::new(0.5, 0.2);
        let mut rng = SmallRng::seed_from_u64(3);
        let data: Vec<(ScheduleSample, f64)> = (0..50)
            .map(|_| {
                (
                    sample(
                        rng.gen::<f64>() * 3.0,
                        rng.gen::<f64>() * 30.0,
                        rng.gen::<f64>(),
                    ),
                    rng.gen::<f64>() * 2.0,
                )
            })
            .collect();
        for (s, y) in &data {
            a.observe(&features(s), *y);
        }
        // Serialize, restore, and compare the *solved weights*: only the
        // accumulators carry state, so this proves they restore exactly.
        let json = serde_json::to_string(&a).unwrap();
        let b: RidgeRegressor = serde_json::from_str(&json).unwrap();
        assert_eq!(a.weights().unwrap(), b.weights().unwrap());
        assert_eq!(serde_json::to_string(&a).unwrap(), json);
    }

    #[test]
    fn empty_regressor_predicts_none() {
        let r = RidgeRegressor::new(1.0, 0.1);
        assert!(r.predict(&features(&sample(1.0, 1.0, 0.1))).is_none());
        assert!(r.weights().is_none());
    }

    #[test]
    fn bandit_finds_best_arm_on_stationary_rewards() {
        // Arm 3 pays 1.0, everything else pays 0.2: after warm-up UCB1 must
        // pull arm 3 at least 80% of the time.
        let mut b = BanditState::new(&LearnConfig::default());
        let rounds = 600;
        let mut best_pulls = 0;
        for _ in 0..rounds {
            let arm = b.select("ctx");
            if arm == 3 {
                best_pulls += 1;
            }
            let r = if arm == 3 { 1.0 } else { 0.2 };
            b.reward("ctx", arm, r, 1.0);
        }
        let frac = best_pulls as f64 / rounds as f64;
        assert!(frac >= 0.8, "best arm pulled only {frac:.2}");
    }

    #[test]
    fn bandit_contexts_specialize_despite_shared_prior() {
        let mut b = BanditState::new(&LearnConfig::default());
        // Context A: arm 0 best. Context B: arm 1 best. Selection shares a
        // global prior, but with enough local data each context must still
        // converge on its own best arm.
        let (mut a_best, mut b_best) = (0, 0);
        let rounds = 300;
        for _ in 0..rounds {
            let a = b.select("A");
            a_best += (a == 0) as u32;
            b.reward("A", a, if a == 0 { 1.0 } else { 0.1 }, 1.0);
            let c = b.select("B");
            b_best += (c == 1) as u32;
            b.reward("B", c, if c == 1 { 1.0 } else { 0.1 }, 1.0);
        }
        assert_eq!(b.context_count(), 2);
        assert!(
            a_best as f64 / rounds as f64 >= 0.7,
            "A best {a_best}/{rounds}"
        );
        assert!(
            b_best as f64 / rounds as f64 >= 0.7,
            "B best {b_best}/{rounds}"
        );
        assert_eq!(b.select("A"), 0);
        assert_eq!(b.select("B"), 1);
    }

    #[test]
    fn bandit_new_context_warm_starts_from_global_prior() {
        let mut b = BanditState::new(&LearnConfig::default());
        // Train heavily in one context: arm 3 dominates.
        for _ in 0..100 {
            let a = b.select("seen");
            b.reward("seen", a, if a == 3 { 1.0 } else { 0.2 }, 1.0);
        }
        // A brand-new context must not re-seed all eleven arms: its first
        // pick already exploits the global prior.
        assert_eq!(b.select("fresh"), 3);
    }

    #[test]
    fn bandit_full_information_update_books_all_arms() {
        let mut b = BanditState::new(&LearnConfig::default());
        let mut rewards = vec![0.2; NUM_ARMS];
        rewards[4] = 1.0;
        let chosen = b.select("x");
        b.update_full("x", &rewards, chosen);
        // One decision, but every arm gained an observation — so the very
        // next selection already exploits the best arm.
        assert_eq!(b.total_pulls(), 1);
        assert!(b.global_arms().iter().all(|a| a.pulls == 1));
        assert_eq!(b.select("x"), 4);
        // A non-finite counterfactual is skipped without poisoning the
        // others; a non-finite chosen reward drops the whole phase.
        rewards[7] = f64::NAN;
        b.update_full("x", &rewards, 4);
        assert_eq!(b.global_arms()[7].pulls, 1);
        assert_eq!(b.global_arms()[4].pulls, 2);
        rewards[7] = 0.2;
        rewards[2] = f64::INFINITY;
        b.update_full("x", &rewards, 2);
        assert_eq!(b.total_pulls(), 2);
    }

    #[test]
    fn bandit_full_information_disables_exploration() {
        // Even with an enormous UCB bonus, a bandit that has seen
        // full-information feedback follows the leader: the bonus would
        // only pay for information the feedback already provides.
        let mut b = BanditState::new(&LearnConfig {
            ucb_c: 100.0,
            ..LearnConfig::default()
        });
        let mut rewards = vec![0.1; NUM_ARMS];
        rewards[6] = 1.0;
        for _ in 0..5 {
            let chosen = b.select("x");
            b.update_full("x", &rewards, chosen);
        }
        // After the first decision every later pick is the leader, which a
        // ucb_c this large would otherwise never allow.
        assert_eq!(b.select("x"), 6);
        assert_eq!(b.select("other"), 6);
    }

    #[test]
    fn bandit_regret_accounting() {
        let mut b = BanditState::new(&LearnConfig::default());
        let arm = b.select("x");
        b.reward("x", arm, 0.7, 1.0);
        assert_eq!(b.total_pulls(), 1);
        assert!((b.total_regret() - 0.3).abs() < 1e-12);
        // Non-finite rewards are dropped, not booked.
        b.reward("x", 0, f64::NAN, 1.0);
        assert_eq!(b.total_pulls(), 1);
    }

    #[test]
    fn learner_cold_start_falls_back_to_score() {
        let mut l = Learner::new(LearnConfig::default());
        let samples = vec![sample(3.0, 20.0, 0.8), sample(2.8, 5.0, 0.1)];
        assert!(l.learned_scores(&samples).is_none());
        assert_eq!(
            l.choose_learned(&samples),
            PredictorKind::Score.choose(&samples)
        );
    }

    #[test]
    fn learner_prefers_high_target_after_training() {
        let mut l = Learner::new(LearnConfig {
            min_train: 4,
            lambda: 1e-6,
            ..LearnConfig::default()
        });
        // Teach it: realized WS is proportional to IPC.
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..20 {
            let s0 = sample(1.0 + rng.gen::<f64>(), 10.0, 0.5);
            let s1 = sample(1.0 + rng.gen::<f64>(), 10.0, 0.5);
            let t = [s0.ipc * 0.5, s1.ipc * 0.5];
            l.train(&[s0, s1], &t);
        }
        let probe = vec![sample(1.2, 10.0, 0.5), sample(2.9, 10.0, 0.5)];
        assert_eq!(l.choose_learned(&probe), 1);
    }

    #[test]
    fn learner_snapshot_round_trip_is_byte_identical() {
        use workloads::Benchmark::{Fp, Gcc};
        let mut l = Learner::new(LearnConfig::default());
        let samples = vec![sample(2.0, 10.0, 0.3), sample(1.5, 4.0, 0.2)];
        for i in 0..12 {
            let (_, pull) = l.optimize(PredictorKind::Bandit, &samples, [Fp, Gcc]);
            let mut pull = pull.expect("the bandit opens a pull");
            assert_eq!(pull.context(), "F1I1M0");
            pull.observe(1.0 + 0.01 * i as f64);
            l.settle(&pull).expect("a pull with slices settles");
        }
        let json = serde_json::to_string(&l).unwrap();
        let mut back: Learner = serde_json::from_str(&json).unwrap();
        assert_eq!(back, l);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        // The restored learner continues identically.
        let (a1, p1) = l.choose_bandit(&samples, "F1I1M0");
        let (a2, p2) = back.choose_bandit(&samples, "F1I1M0");
        assert_eq!((a1, p1), (a2, p2));
        assert_eq!(
            serde_json::to_string(&l).unwrap(),
            serde_json::to_string(&back).unwrap()
        );
    }

    #[test]
    fn pull_settles_once_it_has_slices_and_never_poisons_an_arm() {
        use workloads::Benchmark::{Fp, Gcc, Is};
        let mut l = Learner::new(LearnConfig::default());
        let samples = vec![sample(2.0, 10.0, 0.3), sample(1.0, 4.0, 0.2)];
        // The learned kind opens no pull; the bandit does.
        assert!(l
            .optimize(PredictorKind::Learned, &samples, [Fp])
            .1
            .is_none());
        let (pick, pull) = l.optimize(PredictorKind::Bandit, &samples, [Fp, Gcc, Is]);
        let mut pull = pull.expect("the bandit opens a pull");
        assert!(pick < samples.len());
        assert_eq!((pull.arm(), pull.context()), (arms()[0], "F1I1M1"));
        // A phase that ended before its first slice books nothing.
        assert_eq!(l.settle(&pull), None);
        assert_eq!(l.bandit().total_pulls(), 0);
        // Reward and best are both over the sampled mean IPC (1.5): two
        // slices averaging 1.8 earn 1.2 against a best-sampled 2.0 / 1.5.
        pull.observe(1.7);
        pull.observe(1.9);
        let (reward, regret) = l.settle(&pull).expect("two slices settle");
        assert!((reward - 1.2).abs() < 1e-12, "reward {reward}");
        assert!(
            (regret - (2.0 / 1.5 - 1.2)).abs() < 1e-12,
            "regret {regret}"
        );
        assert_eq!(l.bandit().total_pulls(), 1);
        assert_eq!(l.bandit().global_arms()[0].pulls, 1);
        // A non-finite slice makes the reward non-finite: dropped, and the
        // arm's statistics stay as they were.
        let before = l.bandit().clone();
        pull.observe(f64::NAN);
        l.settle(&pull);
        assert_eq!(l.bandit(), &before);
    }

    #[test]
    fn context_strings_are_stable_and_bounded() {
        use workloads::Benchmark::*;
        let ctx = context_of([Fp, Mg, Gcc, Go]);
        assert_eq!(ctx.len(), 6);
        assert!(ctx.starts_with('F'));
        // Saturation at 9.
        assert_eq!(context_of(vec![Gcc; 30]), "F0I9M0");
        assert_eq!(context_of([]), "F0I0M0");
        // FP codes classify as F, integer codes as I, IS (load/store bound)
        // as M.
        assert_eq!(class_of(Fp), 'F');
        assert_eq!(class_of(Mg), 'F');
        assert_eq!(class_of(Gcc), 'I');
        assert_eq!(class_of(Go), 'I');
        assert_eq!(class_of(Is), 'M');
    }

    #[test]
    fn arms_are_ten_fixed_plus_learned() {
        let a = arms();
        assert_eq!(a.len(), NUM_ARMS);
        assert_eq!(&a[..10], &PredictorKind::ALL);
        assert_eq!(a[10], PredictorKind::Learned);
    }

    #[test]
    fn summary_reflects_state() {
        use workloads::Benchmark::{Gcc, Go};
        let mut l = Learner::new(LearnConfig::default());
        let samples = vec![sample(2.0, 10.0, 0.3), sample(1.5, 4.0, 0.2)];
        let (_, pull) = l.optimize(PredictorKind::Bandit, &samples, [Gcc, Go]);
        let mut pull = pull.unwrap();
        pull.observe(1.6);
        l.settle(&pull);
        let s = l.summary();
        assert_eq!(s.train_updates, 2);
        assert_eq!(s.predictions, 1);
        assert_eq!(s.bandit_pulls, 1);
        assert_eq!(s.contexts, 1);
        assert_eq!(s.arms.len(), NUM_ARMS);
        let json = serde_json::to_string(&s).unwrap();
        let back: LearnSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}

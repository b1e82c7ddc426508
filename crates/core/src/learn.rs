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
//! * [`BanditState`] — a contextual bandit (epsilon-greedy or UCB1) over
//!   eleven arms: the ten paper predictors plus the learned model. Context
//!   is a coarse jobmix class histogram ([`context_of`]), so the bandit can
//!   learn that, say, `Fq` wins on FP-heavy mixes while `Dcache` wins on
//!   memory-bound ones. Per-arm pulls, mean reward, and regret are
//!   accounted per context and globally. Exposed as
//!   [`crate::predictor::PredictorKind::Bandit`].
//!
//! Determinism rules (the same contract as the rest of the engine):
//!
//! 1. All state is plain `f64`/`u64` updated in a fixed sequential order —
//!    no wall clock, no `HashMap` iteration, no platform-dependent math.
//! 2. The only randomness is epsilon-greedy exploration, drawn from an
//!    embedded [`SplitMix64`] whose state is part of the serialized model.
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

/// Which exploration policy the bandit runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BanditPolicy {
    /// With probability epsilon pick a uniform arm, otherwise the best
    /// empirical mean in the current context.
    EpsilonGreedy,
    /// Deterministic optimism: mean + `c·√(2·ln N / n)` per context.
    Ucb1,
}

impl BanditPolicy {
    /// Parses a policy name (`"epsilon-greedy"` / `"ucb1"`,
    /// case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "epsilon-greedy" | "epsilon" | "egreedy" => Some(BanditPolicy::EpsilonGreedy),
            "ucb1" | "ucb" => Some(BanditPolicy::Ucb1),
            _ => None,
        }
    }

    /// The lowercase policy name.
    pub fn name(&self) -> &'static str {
        match self {
            BanditPolicy::EpsilonGreedy => "epsilon-greedy",
            BanditPolicy::Ucb1 => "ucb1",
        }
    }
}

/// Configuration of the learned-prediction subsystem.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LearnConfig {
    /// Bandit exploration policy.
    pub policy: BanditPolicy,
    /// Exploration probability for epsilon-greedy.
    pub epsilon: f64,
    /// Exploration coefficient for UCB1.
    pub ucb_c: f64,
    /// Ridge penalty λ on the normal equations.
    pub lambda: f64,
    /// EWMA smoothing for the prediction-error gauge.
    pub ewma_alpha: f64,
    /// Training observations before the regressor's ranking is trusted;
    /// until then [`Learner::choose_learned`] falls back to the paper's
    /// best fixed predictor (`Score`).
    pub min_train: u64,
    /// Seed of the embedded exploration RNG.
    pub seed: u64,
}

impl Default for LearnConfig {
    fn default() -> Self {
        LearnConfig {
            policy: BanditPolicy::Ucb1,
            epsilon: 0.1,
            ucb_c: 0.5,
            lambda: 1.0,
            ewma_alpha: 0.1,
            min_train: 8,
            seed: 0x1ea4,
        }
    }
}

/// A tiny deterministic, serializable PRNG (Sebastiano Vigna's SplitMix64).
/// `rand::SmallRng` is not serializable, and the exploration stream must
/// survive a snapshot/restore byte-identically.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// A draw in `[0, 1)` (53-bit mantissa).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
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
    policy: BanditPolicy,
    epsilon: f64,
    ucb_c: f64,
    rng: SplitMix64,
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
            policy: cfg.policy,
            epsilon: cfg.epsilon.clamp(0.0, 1.0),
            ucb_c: cfg.ucb_c.max(0.0),
            rng: SplitMix64::new(cfg.seed),
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
        match self.policy {
            BanditPolicy::EpsilonGreedy => {
                if self.rng.next_f64() < self.epsilon {
                    (self.rng.next_u64() % NUM_ARMS as u64) as usize
                } else {
                    let scores: Vec<f64> = (0..NUM_ARMS).map(mean_eff).collect();
                    crate::predictor::argmax(&scores)
                }
            }
            BanditPolicy::Ucb1 => {
                let ln_n = (self.total_pulls.max(1) as f64).ln();
                let c = self.ucb_c;
                let scores: Vec<f64> = (0..NUM_ARMS)
                    .map(|i| mean_eff(i) + c * (2.0 * ln_n / (stats[i].pulls as f64 + tau)).sqrt())
                    .collect();
                crate::predictor::argmax(&scores)
            }
        }
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
pub fn context_of(benchmarks: &[Benchmark]) -> String {
    let (mut f, mut i, mut m) = (0usize, 0usize, 0usize);
    for &b in benchmarks {
        match class_of(b) {
            'F' => f += 1,
            'M' => m += 1,
            _ => i += 1,
        }
    }
    format!("F{}I{}M{}", f.min(9), i.min(9), m.min(9))
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
    pub cfg: LearnConfig,
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
    /// `(arm index, candidate index)`; settle the pull later with
    /// [`reward_arm`](Self::reward_arm).
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

    /// Books the realized reward of a bandit pull (see
    /// [`BanditState::reward`]) — the partial-feedback path used by the
    /// online engine, where only the chosen schedule runs to completion.
    pub fn reward_arm(&mut self, arm: usize, context: &str, reward: f64, best: f64) {
        self.bandit.reward(context, arm, reward, best);
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
    fn splitmix_is_deterministic_and_uniformish() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = SplitMix64::new(7);
        let mean: f64 = (0..10_000).map(|_| r.next_f64()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn ridge_converges_on_synthetic_linear_workload() {
        // y = 2·ipc − 5·(fq/100) + 0.3, exactly linear in the features.
        let mut r = RidgeRegressor::new(1e-6, 0.1);
        let mut rng = SplitMix64::new(9);
        for _ in 0..500 {
            let ipc = 1.0 + 2.0 * rng.next_f64();
            let fq = 40.0 * rng.next_f64();
            let s = sample(ipc, fq, rng.next_f64());
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
        let mut rng = SplitMix64::new(3);
        let data: Vec<(ScheduleSample, f64)> = (0..50)
            .map(|_| {
                (
                    sample(rng.next_f64() * 3.0, rng.next_f64() * 30.0, rng.next_f64()),
                    rng.next_f64() * 2.0,
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
        // Arm 3 pays 1.0, everything else pays 0.2: after warm-up both
        // policies must pull arm 3 at least 80% of the time.
        for policy in [BanditPolicy::EpsilonGreedy, BanditPolicy::Ucb1] {
            let cfg = LearnConfig {
                policy,
                epsilon: 0.05,
                ..LearnConfig::default()
            };
            let mut b = BanditState::new(&cfg);
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
            assert!(
                frac >= 0.8,
                "{}: best arm pulled only {frac:.2}",
                policy.name()
            );
        }
    }

    #[test]
    fn bandit_contexts_specialize_despite_shared_prior() {
        let cfg = LearnConfig {
            policy: BanditPolicy::Ucb1,
            ..LearnConfig::default()
        };
        let mut b = BanditState::new(&cfg);
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
        let cfg = LearnConfig {
            policy: BanditPolicy::Ucb1,
            ..LearnConfig::default()
        };
        let mut b = BanditState::new(&cfg);
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
            policy: BanditPolicy::Ucb1,
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
        let mut rng = SplitMix64::new(1);
        for _ in 0..20 {
            let s0 = sample(1.0 + rng.next_f64(), 10.0, 0.5);
            let s1 = sample(1.0 + rng.next_f64(), 10.0, 0.5);
            let t = [s0.ipc * 0.5, s1.ipc * 0.5];
            l.train(&[s0, s1], &t);
        }
        let probe = vec![sample(1.2, 10.0, 0.5), sample(2.9, 10.0, 0.5)];
        assert_eq!(l.choose_learned(&probe), 1);
    }

    #[test]
    fn learner_snapshot_round_trip_is_byte_identical() {
        let mut l = Learner::new(LearnConfig::default());
        let samples = vec![sample(2.0, 10.0, 0.3), sample(1.5, 4.0, 0.2)];
        for i in 0..12 {
            let (arm, _) = l.choose_bandit(&samples, "F1I1M0");
            l.reward_arm(arm, "F1I1M0", 0.5 + 0.01 * i as f64, 1.0);
            l.train(&samples, &[1.1, 0.9]);
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
    fn context_strings_are_stable_and_bounded() {
        use workloads::Benchmark::*;
        let ctx = context_of(&[Fp, Mg, Gcc, Go]);
        assert_eq!(ctx.len(), 6);
        assert!(ctx.starts_with('F'));
        // Saturation at 9.
        let many = vec![Gcc; 30];
        assert_eq!(context_of(&many), "F0I9M0");
        assert_eq!(context_of(&[]), "F0I0M0");
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
        let mut l = Learner::new(LearnConfig::default());
        let samples = vec![sample(2.0, 10.0, 0.3), sample(1.5, 4.0, 0.2)];
        let (arm, _) = l.choose_bandit(&samples, "F0I2M0");
        l.reward_arm(arm, "F0I2M0", 0.9, 1.0);
        l.train(&samples, &[1.0, 0.8]);
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

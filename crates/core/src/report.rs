//! Aggregate reporting: the predictor league table across experiments, and
//! the one summary of completed open-system jobs.
//!
//! Given the [`ExperimentReport`]s of several experiments, ranks every
//! predictor (plus the sampled-WS oracle and the best-possible schedule) by
//! the mean percent gain of its pick over the random-scheduler expectation.
//!
//! [`JobSummary`] is what every open-system front end reports from — fig5,
//! fig6, `sos opensys`, `fastsim-compare`, the cluster report and the
//! `sos-serve` stats verb: response times in a queueing system are
//! heavy-tailed, so it gives p50/p95/p99 alongside the mean, plus slowdown
//! against each job's [`solo_cycles`] and the weighted speedup.

use crate::arrivals::JobArrival;
use crate::online::JobRecord;
use crate::predictor::PredictorKind;
use crate::sos::ExperimentReport;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use workloads::spec::Benchmark;

/// The p50/p95/p99 summary of a latency-like distribution.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// The `p`-th percentile (0–100) of `values` by the nearest-rank method,
/// ignoring non-finite entries. Returns `NaN` when no finite values remain
/// or `p` is outside `[0, 100]` — `NaN` serializes as JSON `null`, so
/// degenerate runs surface as missing data rather than a fabricated number.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if !(0.0..=100.0).contains(&p) {
        return f64::NAN;
    }
    let mut finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return f64::NAN;
    }
    finite.sort_by(f64::total_cmp);
    // Nearest-rank: the smallest value with at least p% of the mass at or
    // below it.
    let rank = ((p / 100.0) * finite.len() as f64).ceil() as usize;
    finite[rank.saturating_sub(1).min(finite.len() - 1)]
}

/// The p50/p95/p99 summary of `values` (each via [`percentile`], so the same
/// NaN/empty-input guards apply to every field).
pub fn percentiles(values: &[f64]) -> Percentiles {
    Percentiles {
        p50: percentile(values, 50.0),
        p95: percentile(values, 95.0),
        p99: percentile(values, 99.0),
    }
}

/// Solo-execution cycles of a job: its instructions at its benchmark's solo
/// IPC from `solo` (IPC 1.0 for a benchmark the table lacks), and never less
/// than one cycle — the guard that keeps the slowdown of a zero-instruction
/// job finite.
pub fn solo_cycles(solo: &HashMap<Benchmark, f64>, job: &JobArrival) -> f64 {
    let ipc = solo.get(&job.benchmark).copied().unwrap_or(1.0);
    (job.instructions as f64 / ipc).max(1.0)
}

/// A job's slowdown: its response time over its [`solo_cycles`].
pub fn slowdown(solo: &HashMap<Benchmark, f64>, record: &JobRecord) -> f64 {
    record.response() as f64 / solo_cycles(solo, &record.arrival)
}

/// The summary of a set of completed jobs: count, mean and percentile
/// response time and slowdown, and weighted speedup. It keeps the per-job
/// samples, so summaries of several runs [`merge`](Self::merge) into the
/// summary of the pooled population. Means of an empty set are `NaN`, like
/// its percentiles.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobSummary {
    responses: Vec<f64>,
    slowdowns: Vec<f64>,
    solo_cycles: f64,
}

impl JobSummary {
    /// Summarizes `records` against the solo-IPC table `solo`. Sums run in
    /// iteration order, so a caller that fixes the order fixes the bits.
    pub fn of<'a>(
        records: impl IntoIterator<Item = &'a JobRecord>,
        solo: &HashMap<Benchmark, f64>,
    ) -> Self {
        let mut summary = JobSummary::default();
        for record in records {
            let (response, solo_cycles) =
                (record.response() as f64, solo_cycles(solo, &record.arrival));
            summary.responses.push(response);
            summary.slowdowns.push(response / solo_cycles);
            summary.solo_cycles += solo_cycles;
        }
        summary
    }

    /// A summary of jobs known only by their response times and slowdowns
    /// (what `sos-serve` persists); it carries no solo work.
    pub fn from_samples(responses: Vec<f64>, slowdowns: Vec<f64>) -> Self {
        JobSummary {
            responses,
            slowdowns,
            solo_cycles: 0.0,
        }
    }

    /// Pools another run's jobs into this summary.
    pub fn merge(&mut self, other: &JobSummary) {
        self.responses.extend_from_slice(&other.responses);
        self.slowdowns.extend_from_slice(&other.slowdowns);
        self.solo_cycles += other.solo_cycles;
    }

    /// Jobs summarized.
    pub fn count(&self) -> usize {
        self.responses.len()
    }

    /// Mean response time in cycles.
    pub fn mean_response(&self) -> f64 {
        self.responses.iter().sum::<f64>() / self.count() as f64
    }

    /// Mean slowdown.
    pub fn mean_slowdown(&self) -> f64 {
        self.slowdowns.iter().sum::<f64>() / self.count() as f64
    }

    /// Response-time percentiles (cycles).
    pub fn response(&self) -> Percentiles {
        percentiles(&self.responses)
    }

    /// Slowdown percentiles.
    pub fn slowdown(&self) -> Percentiles {
        percentiles(&self.slowdowns)
    }

    /// Weighted speedup: solo-equivalent cycles of the completed work per
    /// busy machine cycle, `Σ solo_cycles / busy_cycles` (0 when nothing
    /// ran). Above 1.0 means SMT coscheduling is paying for itself.
    pub fn weighted_speedup(&self, busy_cycles: u64) -> f64 {
        if busy_cycles == 0 {
            0.0
        } else {
            self.solo_cycles / busy_cycles as f64
        }
    }
}

/// One row of the league table.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LeagueRow {
    /// Predictor name, or `"SampledWS"` / `"BestPossible"` for the baselines.
    pub name: String,
    /// Mean percent gain over the per-experiment average WS.
    pub mean_pct: f64,
    /// Worst-case percent gain.
    pub min_pct: f64,
    /// Best-case percent gain.
    pub max_pct: f64,
}

/// Percent gain of `a` over baseline `b`, or `NaN` when the comparison is
/// meaningless (zero or non-finite baseline, non-finite value). `NaN`
/// serializes as JSON `null`, so degenerate experiments surface as missing
/// data instead of `inf` percentages (and print as `NaN`).
pub fn pct_over(a: f64, b: f64) -> f64 {
    if !a.is_finite() || !b.is_finite() || b == 0.0 {
        f64::NAN
    } else {
        100.0 * (a / b - 1.0)
    }
}

fn row(name: &str, gains: &[f64]) -> LeagueRow {
    let finite: Vec<f64> = gains.iter().copied().filter(|g| g.is_finite()).collect();
    if finite.is_empty() {
        return LeagueRow {
            name: name.to_string(),
            mean_pct: f64::NAN,
            min_pct: f64::NAN,
            max_pct: f64::NAN,
        };
    }
    LeagueRow {
        name: name.to_string(),
        mean_pct: finite.iter().sum::<f64>() / finite.len() as f64,
        min_pct: finite.iter().copied().fold(f64::INFINITY, f64::min),
        max_pct: finite.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

/// Builds the league table, sorted by mean gain (best first).
///
/// Ranks every predictor kind present in the reports' picks — the paper's
/// ten always, plus `Learned`/`Bandit` when the reports came from a learned
/// evaluation — so the table's shape follows the data. Kinds are taken from
/// the first report; every report must have been evaluated with the same
/// set.
///
/// # Panics
/// Panics if `reports` is empty.
pub fn league_table(reports: &[ExperimentReport]) -> Vec<LeagueRow> {
    assert!(!reports.is_empty(), "need at least one experiment report");
    let kinds: Vec<PredictorKind> = reports[0].picks.iter().map(|&(p, _)| p).collect();
    let mut rows = Vec::new();
    for p in kinds {
        let gains: Vec<f64> = reports
            .iter()
            .map(|r| pct_over(r.ws_with(p), r.average_ws()))
            .collect();
        rows.push(row(p.name(), &gains));
    }
    let oracle: Vec<f64> = reports
        .iter()
        .map(|r| pct_over(r.oracle_ws(), r.average_ws()))
        .collect();
    rows.push(row("SampledWS", &oracle));
    let best: Vec<f64> = reports
        .iter()
        .map(|r| pct_over(r.best_ws(), r.average_ws()))
        .collect();
    rows.push(row("BestPossible", &best));
    // Descending by mean gain; rows without meaningful data (NaN) sink to
    // the bottom rather than sorting as the largest value.
    rows.sort_by(|a, b| match (a.mean_pct.is_nan(), b.mean_pct.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => b.mean_pct.total_cmp(&a.mean_pct),
    });
    rows
}

/// Formats the table for terminal output.
pub fn format_league_table(rows: &[LeagueRow]) -> String {
    let mut out = format!(
        "{:<12} {:>10} {:>10} {:>10}\n",
        "predictor", "mean", "min", "max"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>9.2}% {:>9.2}% {:>9.2}%\n",
            r.name, r.mean_pct, r.min_pct, r.max_pct
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentSpec;
    use crate::sample::ScheduleSample;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn percentile_is_order_independent() {
        let sorted = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let shuffled = vec![4.0, 1.0, 5.0, 2.0, 3.0];
        for p in [10.0, 50.0, 90.0, 99.0] {
            assert_eq!(percentile(&sorted, p), percentile(&shuffled, p));
        }
    }

    #[test]
    fn percentile_single_value() {
        assert_eq!(percentile(&[42.0], 50.0), 42.0);
        assert_eq!(percentile(&[42.0], 99.0), 42.0);
    }

    #[test]
    fn percentile_guards_empty_and_nonfinite() {
        assert!(percentile(&[], 50.0).is_nan());
        assert!(percentile(&[f64::NAN, f64::INFINITY], 50.0).is_nan());
        // Non-finite entries are ignored, not propagated.
        assert_eq!(percentile(&[f64::NAN, 7.0], 50.0), 7.0);
        // Out-of-range p is NaN, not a panic or a clamp.
        assert!(percentile(&[1.0], -1.0).is_nan());
        assert!(percentile(&[1.0], 101.0).is_nan());
    }

    #[test]
    fn percentiles_summary_and_serialization() {
        let v: Vec<f64> = (1..=200).map(|i| i as f64).collect();
        let p = percentiles(&v);
        assert_eq!(p.p50, 100.0);
        assert_eq!(p.p95, 190.0);
        assert_eq!(p.p99, 198.0);
        let empty = percentiles(&[]);
        assert!(empty.p50.is_nan() && empty.p95.is_nan() && empty.p99.is_nan());
        // NaN fields serialize as JSON null, like the league table's.
        let json = serde_json::to_string(&empty).unwrap();
        assert!(json.contains("\"p50\":null"), "{json}");
    }

    #[test]
    fn job_summary_of_a_hand_computed_record_set() {
        let empty = JobSummary::of(&[], &HashMap::new());
        assert_eq!(empty.count(), 0);
        assert!(empty.mean_response().is_nan() && empty.mean_slowdown().is_nan());
        assert!(empty.response().p50.is_nan() && empty.slowdown().p99.is_nan());
        assert_eq!(empty.weighted_speedup(1_000), 0.0);

        let record = |arrival, benchmark, instructions, departure| JobRecord {
            arrival: JobArrival {
                arrival,
                benchmark,
                instructions,
                phased: false,
            },
            departure,
        };
        let solo = HashMap::from([(Benchmark::Gcc, 2.0)]);
        let records = [
            // 4000 instructions at IPC 2 = 2000 solo cycles; response 4000.
            record(1_000, Benchmark::Gcc, 4_000, 5_000),
            // Missing from the solo table: IPC 1.0, 1000 solo cycles; response 3000.
            record(0, Benchmark::Mg, 1_000, 3_000),
            // Zero instructions: one solo cycle, not a division by zero; response 10.
            record(90, Benchmark::Gcc, 0, 100),
        ];
        assert_eq!(solo_cycles(&solo, &records[0].arrival), 2_000.0);
        assert_eq!(solo_cycles(&solo, &records[1].arrival), 1_000.0);
        assert_eq!(solo_cycles(&solo, &records[2].arrival), 1.0);
        assert_eq!(slowdown(&solo, &records[0]), 2.0);

        let summary = JobSummary::of(&records, &solo);
        assert_eq!(summary.count(), 3);
        assert_eq!(summary.mean_response(), (4_000.0 + 3_000.0 + 10.0) / 3.0);
        assert_eq!(summary.mean_slowdown(), (2.0 + 3.0 + 10.0) / 3.0);
        assert_eq!(summary.response().p50, 3_000.0);
        assert_eq!(summary.response().p99, 4_000.0);
        assert_eq!(summary.slowdown().p50, 3.0);
        assert_eq!(summary.slowdown().p99, 10.0);
        assert_eq!(summary.weighted_speedup(6_002), 3_001.0 / 6_002.0);
        assert_eq!(summary.weighted_speedup(0), 0.0);

        // Pooling two runs is summarizing their jobs together; samples
        // without records carry no solo work.
        let mut pooled = JobSummary::of(&records[..1], &solo);
        pooled.merge(&JobSummary::of(&records[1..], &solo));
        assert_eq!(pooled, summary);
        let samples = JobSummary::from_samples(vec![4_000.0, 3_000.0, 10.0], vec![2.0, 3.0, 10.0]);
        assert_eq!(samples.response(), summary.response());
        assert_eq!(samples.mean_slowdown(), summary.mean_slowdown());
        assert_eq!(samples.weighted_speedup(6_002), 0.0);
    }

    /// A fabricated report where candidate 0 is best and every predictor
    /// picked a known index.
    fn fake_report(ws: Vec<f64>, picks_idx: usize, oracle_idx: usize) -> ExperimentReport {
        let sample = ScheduleSample {
            notation: "s".into(),
            ipc: 1.0,
            allconf: 1.0,
            dcache: 1.0,
            fq: 1.0,
            fp: 1.0,
            sum2: 2.0,
            diversity: 1.0,
            balance: 1.0,
        };
        let mut sample_ws = vec![0.0; ws.len()];
        sample_ws[oracle_idx] = 1.0;
        ExperimentReport {
            spec: ExperimentSpec::new(4, 2, 2),
            candidates: (0..ws.len()).map(|i| format!("c{i}")).collect(),
            samples: vec![sample; ws.len()],
            symbios_ws: ws,
            picks: PredictorKind::ALL.iter().map(|&p| (p, picks_idx)).collect(),
            sample_ws,
            solo: vec![1.0],
        }
    }

    #[test]
    fn league_table_ranks_best_possible_first() {
        // Oracle picks the middling candidate 2, predictors pick the worst.
        let reports = vec![fake_report(vec![2.0, 1.0, 1.5], 1, 2)];
        let rows = league_table(&reports);
        assert_eq!(rows[0].name, "BestPossible");
        // avg = 1.5; best = 2.0 -> +33.3%.
        assert!((rows[0].mean_pct - 33.333).abs() < 0.01);
        // All predictors picked candidate 1 (WS 1.0 -> -33.3%).
        let ipc = rows.iter().find(|r| r.name == "IPC").unwrap();
        assert!((ipc.mean_pct + 33.333).abs() < 0.01);
        // Oracle picked candidate 2 (WS 1.5 -> 0%).
        let oracle = rows.iter().find(|r| r.name == "SampledWS").unwrap();
        assert!(oracle.mean_pct.abs() < 0.01);
    }

    #[test]
    fn league_table_has_twelve_rows() {
        let reports = vec![fake_report(vec![1.0, 1.0], 0, 0)];
        let rows = league_table(&reports);
        assert_eq!(rows.len(), PredictorKind::ALL.len() + 2);
    }

    #[test]
    fn league_table_includes_learned_rows_when_present() {
        let mut r = fake_report(vec![2.0, 1.0], 0, 0);
        r.picks.push((PredictorKind::Learned, 0));
        r.picks.push((PredictorKind::Bandit, 1));
        let rows = league_table(&[r]);
        assert_eq!(rows.len(), PredictorKind::EXTENDED.len() + 2);
        let learned = rows.iter().find(|x| x.name == "Learned").unwrap();
        assert!((learned.mean_pct - 33.333).abs() < 0.01);
        let bandit = rows.iter().find(|x| x.name == "Bandit").unwrap();
        assert!((bandit.mean_pct + 33.333).abs() < 0.01);
    }

    #[test]
    fn format_contains_every_row() {
        let reports = vec![fake_report(vec![1.2, 1.0], 0, 1)];
        let rows = league_table(&reports);
        let text = format_league_table(&rows);
        for r in &rows {
            assert!(text.contains(&r.name), "{text}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one experiment")]
    fn empty_reports_rejected() {
        let _ = league_table(&[]);
    }

    #[test]
    fn zero_baseline_yields_nan_not_inf() {
        assert!((pct_over(1.1, 1.0) - 10.0).abs() < 1e-9);
        assert!((pct_over(0.9, 1.0) + 10.0).abs() < 1e-9);
        assert!(pct_over(1.0, 0.0).is_nan() && pct_over(f64::NAN, 1.0).is_nan());
        assert!(pct_over(1.0, f64::NEG_INFINITY).is_nan());
        // All-zero symbios WS: average_ws() == 0, so every gain is 0/0.
        let reports = vec![fake_report(vec![0.0, 0.0], 0, 0)];
        let rows = league_table(&reports);
        for r in &rows {
            assert!(r.mean_pct.is_nan(), "{}: {}", r.name, r.mean_pct);
            assert!(r.min_pct.is_nan());
            assert!(r.max_pct.is_nan());
        }
        // NaN percentages serialize as JSON null, not as "inf"/"NaN" tokens.
        let json = serde_json::to_string(&rows[0]).unwrap();
        assert!(json.contains("\"mean_pct\":null"), "{json}");
    }

    #[test]
    fn nan_rows_sort_last() {
        let good = fake_report(vec![2.0, 1.0], 0, 0);
        let rows = {
            let mut rows = league_table(&[good]);
            rows.push(LeagueRow {
                name: "Degenerate".into(),
                mean_pct: f64::NAN,
                min_pct: f64::NAN,
                max_pct: f64::NAN,
            });
            // Re-sort through the public path: build a table whose last row
            // is NaN and check ordering logic directly.
            rows.sort_by(|a, b| match (a.mean_pct.is_nan(), b.mean_pct.is_nan()) {
                (true, true) => std::cmp::Ordering::Equal,
                (true, false) => std::cmp::Ordering::Greater,
                (false, true) => std::cmp::Ordering::Less,
                (false, false) => b.mean_pct.total_cmp(&a.mean_pct),
            });
            rows
        };
        assert_eq!(rows.last().unwrap().name, "Degenerate");
        assert!(!rows[0].mean_pct.is_nan());
    }
}

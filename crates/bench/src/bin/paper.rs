//! Reproduces the paper's closed-system results in one pass. Figures 1–3,
//! Table 3, §6 (parallel jobs), §8 (warmstart) and the predictor league table
//! all come from one protocol (sample, then symbios) over Table 1's 13
//! experiments, so each experiment is evaluated once and every result file
//! is a *view* of those reports.
//!
//! Writes `results/{fig1,fig2,fig3,table3,parallel,warmstart,
//! predictor_matrix}.txt` under the working directory, naming each file on
//! stderr; a failed write exits 1.
//!
//! Usage: `cargo run --release -p sos-bench --bin paper [cycle_scale]`
//! (default scale 1000; use 1 for full paper scale).

use sos_bench::{experiment_summary, pct_over, predictor_bars};
use sos_core::par::parallel_map;
use sos_core::report::{format_league_table, league_table};
use sos_core::sos::{ExperimentReport, SosScheduler};
use sos_core::{ExperimentSpec, PredictorKind};
use std::fmt::{self, Write};
use std::path::Path;
use std::process::ExitCode;

/// Renders one result file from the 13 reports.
type View = fn(&[ExperimentReport]) -> String;

/// Every result file, by name, in the order they are written.
const VIEWS: [(&str, View); 7] = [
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("table3", table3),
    ("parallel", parallel),
    ("warmstart", warmstart),
    ("predictor_matrix", predictor_matrix),
];

fn main() -> ExitCode {
    let scale = sos_bench::cli::scale_or_exit("paper");
    let cfg = sos_bench::config(scale);
    eprintln!("# running 13 experiments at 1/{scale} paper scale ...");
    let specs = ExperimentSpec::all_paper_experiments();
    let reports = parallel_map(specs, |spec| SosScheduler::evaluate_experiment(&spec, &cfg));

    let dir = Path::new("results");
    for (name, view) in VIEWS {
        let path = dir.join(format!("{name}.txt"));
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, view(&reports)));
        if let Err(e) = written {
            eprintln!("paper: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("# wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

/// The text `body` writes after the line `title`.
fn render(title: &str, body: impl FnOnce(&mut String) -> fmt::Result) -> String {
    let mut out = format!("{title}\n");
    body(&mut out).expect("writing to a String cannot fail");
    out
}

/// The report of the experiment labelled `label` (paper notation).
fn find<'a>(reports: &'a [ExperimentReport], label: &str) -> &'a ExperimentReport {
    let report = reports.iter().find(|r| r.spec.label() == label);
    report.unwrap_or_else(|| panic!("{label} is not a paper experiment"))
}

/// Figure 1: worst and best weighted speedup of each experiment's permuted
/// coschedules, and the average and largest spread.
fn fig1(reports: &[ExperimentReport]) -> String {
    let title = "Figure 1 — worst and best weighted speedup per experiment";
    render(title, |out| {
        out.extend(reports.iter().map(experiment_summary));
        let spreads: Vec<f64> = reports
            .iter()
            .map(|r| pct_over(r.best_ws(), r.worst_ws()))
            .collect();
        let avg = spreads.iter().sum::<f64>() / spreads.len() as f64;
        let max = spreads.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        writeln!(out, "\nspeedup varies by an average of {avg:.0}% and a maximum of {max:.0}% across the samples")?;
        writeln!(out, "(paper: average 8%, maximum 25%)")
    })
}

/// Figure 2: the weighted speedup of each predictor's pick on Jsb(6,3,3),
/// beside the best, worst and average schedule.
fn fig2(reports: &[ExperimentReport]) -> String {
    let title = "Figure 2 — weighted speedup with several dynamic predictors on Jsb(6,3,3)";
    let report = find(reports, "Jsb(6,3,3)");
    let (best, worst, avg) = (report.best_ws(), report.worst_ws(), report.average_ws());
    render(title, |out| {
        for (name, ws) in [("Best", best), ("Worst", worst), ("Average", avg)] {
            writeln!(out, "    {name:<10} WS {ws:>6.3}")?;
        }
        out.push_str(&predictor_bars(report));
        let (over_worst, over_avg) = (pct_over(best, worst), pct_over(best, avg));
        writeln!(out, "\nbest is {over_worst:+.1}% over worst and {over_avg:+.1}% over average (paper: 17% and 9%)")
    })
}

/// Figure 3: the weighted speedup of every predictor's pick on all 13
/// experiments, and the Score predictor's mean gain over the worst and the
/// average schedule, without the Jpb(10,2,2) outlier as in the paper.
fn fig3(reports: &[ExperimentReport]) -> String {
    let title = "Figure 3 — weighted speedup achieved by SOS for several jobmixes";
    render(title, |out| {
        for report in reports {
            out.push_str(&experiment_summary(report));
            out.push_str(&predictor_bars(report));
        }
        // Jpb(10,2,2) is the synchronization artifact of §6.
        let sane = reports
            .iter()
            .filter(|r| !r.spec.parallel || r.spec.loose_sync);
        let (mut over_worst, mut over_avg) = (Vec::new(), Vec::new());
        for report in sane {
            let score_ws = report.ws_with(PredictorKind::Score);
            over_worst.push(pct_over(score_ws, report.worst_ws()));
            over_avg.push(pct_over(score_ws, report.average_ws()));
        }
        let over_worst = over_worst.iter().sum::<f64>() / over_worst.len() as f64;
        let over_avg = over_avg.iter().sum::<f64>() / over_avg.len() as f64;
        writeln!(out, "\nScore predictor vs worst: avg {over_worst:+.1}% (paper: +22%);  vs average: avg {over_avg:+.1}% (paper: +7%)")
    })
}

/// Table 3: every schedule of Jsb(6,3,3) with its sample-phase predictor
/// data and its symbios-phase weighted speedup, and each predictor's pick.
fn table3(reports: &[ExperimentReport]) -> String {
    let title = "Table 3 — jobmix Jsb(6,3,3): sample-phase predictors vs. symbios WS";
    let report = find(reports, "Jsb(6,3,3)");
    let (best, worst, avg) = (report.best_ws(), report.worst_ws(), report.average_ws());
    let composite = sos_core::predictor::composite_scores(&report.samples);
    render(title, |out| {
        out.push_str("Schedule     IPC  AllConf  Dcache     FQ     FP   Sum2 Diversity  Balance Composite  WS(t)\n");
        for ((s, comp), ws) in report.samples.iter().zip(composite).zip(&report.symbios_ws) {
            let (n, ipc, allconf, dcache, fq, fp) =
                (&s.notation, s.ipc, s.allconf, s.dcache, s.fq, s.fp);
            let (sum2, diversity, balance) = (s.sum2, s.diversity, s.balance);
            writeln!(out, "{n:<9} {ipc:>6.3} {allconf:>8.2} {dcache:>7.2} {fq:>6.2} {fp:>6.2} {sum2:>6.2} {diversity:>9.2} {balance:>8.3} {comp:>9.2} {ws:>6.3}")?;
        }
        writeln!(
            out,
            "\nbest WS = {best:.3}  worst = {worst:.3}  avg = {avg:.3}"
        )?;
        let (over_worst, over_avg) = (100.0 * (best / worst - 1.0), 100.0 * (best / avg - 1.0));
        writeln!(
            out,
            "best over worst: {over_worst:+.1}%   best over avg: {over_avg:+.1}%"
        )?;
        writeln!(out, "\npredictor picks:")?;
        for (p, idx) in &report.picks {
            let (n, ws) = (&report.candidates[*idx], report.symbios_ws[*idx]);
            let gain = 100.0 * (ws / avg - 1.0);
            writeln!(
                out,
                "  {:<10} -> {n:<9} WS {ws:.3} ({gain:+.1}% vs avg)",
                p.name()
            )?;
        }
        Ok(())
    })
}

/// §6: Jpb(10,2,2) against J2pb(10,2,2). With the tightly synchronizing
/// ARRAY (Jpb), schedules that split its two threads collapse, so the best
/// schedule pairs them and towers over the average (the paper's "almost
/// 400%" artifact); with the loose variant (J2pb), the best one splits them.
fn parallel(reports: &[ExperimentReport]) -> String {
    // The ARRAY threads are pool indices 8 and 9 in the Table 1 parallel mix.
    let array = |notation: &str| {
        let paired = notation
            .split('_')
            .any(|t| t.contains('8') && t.contains('9'));
        if paired {
            "coscheduled"
        } else {
            "split"
        }
    };
    render("§6 — parallel workload scheduling", |out| {
        for label in ["Jpb(10,2,2)", "J2pb(10,2,2)"] {
            let report = find(reports, label);
            writeln!(out, "{label}:")?;
            let mut best = (0usize, f64::NEG_INFINITY);
            for (i, (n, ws)) in report.candidates.iter().zip(&report.symbios_ws).enumerate() {
                let siblings = array(n);
                writeln!(out, "    {n:<24} WS {ws:>6.3}   ARRAY siblings {siblings}")?;
                if *ws > best.1 {
                    best = (i, *ws);
                }
            }
            let (n, ws, avg) = (&report.candidates[best.0], best.1, report.average_ws());
            let gain = pct_over(ws, avg);
            writeln!(
                out,
                "    best: {n} (WS {ws:.3}, ARRAY {})   avg WS {avg:.3}   best/avg {gain:+.1}%",
                array(n)
            )?;
            let ipc = report.ws_with(PredictorKind::Ipc);
            let score = report.ws_with(PredictorKind::Score);
            writeln!(
                out,
                "    IPC-predicted WS {ipc:.3}   Score-predicted WS {score:.3}\n"
            )?;
        }
        out.push_str(
            "expected shape: Jpb's best schedule pairs the ARRAY siblings and towers over\n\
             the average; J2pb's best schedule splits them (paper: split beats paired by 13%).\n",
        );
        Ok(())
    })
}

/// §8: the gain from swapping one job per timeslice instead of the whole
/// running set, as the average symbios WS of each swap-all experiment
/// against its swap-one counterparts at the big timeslice (both
/// cold-start-amortization effects) and at the little one (only the reduced
/// memory-subsystem pressure).
fn warmstart(reports: &[ExperimentReport]) -> String {
    // (swap-all baseline, swap-one big timeslice, swap-one little timeslice)
    let groups = [
        ("Jsb(5,2,2)", "Jsb(5,2,1)", None),
        ("Jsb(6,3,3)", "Jsb(6,3,1)", Some("Jsl(6,3,1)")),
        ("Jsb(8,4,4)", "Jsb(8,4,1)", Some("Jsl(8,4,1)")),
    ];
    let avg_of = |label: &str| find(reports, label).average_ws();
    let title = "§8 — warmstart scheduling (average symbios WS across sampled schedules)";
    render(title, |out| {
        let mut big_gains = Vec::new();
        for (a, b, c) in groups {
            let (base, warm) = (avg_of(a), avg_of(b));
            let gain = pct_over(warm, base);
            big_gains.push(gain);
            write!(out, "{a} -> {b}: {base:.3} -> {warm:.3} ({gain:+.1}%)")?;
            if let Some(c) = c {
                let little = avg_of(c);
                let vs_base = pct_over(little, base);
                write!(out, "   {c}: {little:.3} ({vs_base:+.1}% vs {a})")?;
            }
            writeln!(out)?;
        }
        let gain = big_gains.iter().sum::<f64>() / big_gains.len() as f64;
        writeln!(
            out,
            "\nswap-one gain at the big timeslice: avg {gain:+.1}% (paper: ~7%); little-timeslice"
        )?;
        writeln!(
            out,
            "swap-one gains are expected to be smaller (paper: negligible)."
        )
    })
}

/// The predictor league table: the mean and worst-case percent gain of every
/// predictor (and of the sampled-WS oracle and the best possible schedule)
/// over the random-scheduler expectation across the 13 experiments.
fn predictor_matrix(reports: &[ExperimentReport]) -> String {
    let n = reports.len();
    let title = format!("Predictor league table over {n} experiments (% vs random expectation)");
    render(&title, |out| {
        out.push_str(&format_league_table(&league_table(reports)));
        Ok(())
    })
}

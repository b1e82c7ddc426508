//! Reproduces the paper's closed-system results in one pass. Figures 1–3,
//! Table 3, §6 (parallel jobs), §8 (warmstart) and the predictor league table
//! all come from one protocol (sample, then symbios) over Table 1's 13
//! experiments. One fan-out simulates everything the pass needs: the 13
//! experiments, Figure 4's four SMT levels and the two model profiles
//! (`calibrate`, `ablations`, short windows of their own scaled like the
//! experiments). Every result file is a *view*, a pure function of what
//! that fan-out returned; Table 2 is analytic.
//!
//! Writes `results/{fig1,fig2,fig3,fig4,table2,table3,parallel,warmstart,
//! predictor_matrix,calibrate,ablations}.txt` under the working directory,
//! naming each file on stderr; a failed write exits 1.
//!
//! Usage: `cargo run --release -p sos-bench --bin paper [cycle_scale]`
//! (default scale 1000; use 1 for full paper scale).

use smtsim::{FetchPolicy, MachineConfig, Processor, StreamId};
use sos_bench::{experiment_summary, pct_over, predictor_bars};
use sos_core::hier::{evaluate_hierarchical, HierReport};
use sos_core::par::parallel_map;
use sos_core::report::{format_league_table, league_table};
use sos_core::sos::{ExperimentReport, SosScheduler};
use sos_core::{ExperimentSpec, PredictorKind};
use std::fmt::{self, Write};
use std::path::Path;
use std::process::ExitCode;
use workloads::spec::Benchmark;

/// Figure 4's SMT levels.
const FIG4_LEVELS: [usize; 4] = [2, 3, 4, 6];

/// What the pass computes once and every view reads. Each task of the
/// fan-out computes one entry; the parts merge in task order.
#[derive(Default)]
struct Pass {
    /// Table 1's 13 experiments, in paper order.
    reports: Vec<ExperimentReport>,
    /// Figure 4, one report per entry of [`FIG4_LEVELS`].
    levels: Vec<HierReport>,
    /// The rendered `calibrate` and `ablations` views.
    profiles: Vec<String>,
}

/// One task of the fan-out.
enum Task {
    Experiment(ExperimentSpec),
    Level(usize),
    Profile(fn(u64) -> String),
}

/// Renders one result file.
type View = fn(&Pass) -> String;

/// Every result file, by name, in the order they are written.
const VIEWS: [(&str, View); 11] = [
    ("fig1", |p| fig1(&p.reports)),
    ("fig2", |p| fig2(&p.reports)),
    ("fig3", |p| fig3(&p.reports)),
    ("fig4", |p| fig4(&p.levels)),
    ("table2", |_| table2()),
    ("table3", |p| table3(&p.reports)),
    ("parallel", |p| parallel(&p.reports)),
    ("warmstart", |p| warmstart(&p.reports)),
    ("predictor_matrix", |p| predictor_matrix(&p.reports)),
    ("calibrate", |p| p.profiles[0].clone()),
    ("ablations", |p| p.profiles[1].clone()),
];

fn main() -> ExitCode {
    let scale = sos_bench::cli::scale_or_exit("paper");
    let cfg = sos_bench::config(scale);
    eprintln!("# running 13 experiments, Figure 4's SMT levels 2, 3, 4, 6 and the model profiles at 1/{scale} paper scale ...");
    // One fan-out, longest tasks first.
    let experiments = ExperimentSpec::all_paper_experiments().into_iter();
    let tasks = experiments.map(Task::Experiment);
    let tasks = tasks.chain(FIG4_LEVELS.map(Task::Level));
    let tasks = tasks.chain([Task::Profile(calibrate), Task::Profile(ablations)]);
    let mut pass = Pass::default();
    for part in parallel_map(tasks.collect(), |task| {
        let mut part = Pass::default();
        match task {
            Task::Experiment(spec) => {
                part.reports = vec![SosScheduler::evaluate_experiment(&spec, &cfg)]
            }
            Task::Level(smt) => part.levels = vec![evaluate_hierarchical(smt, 4, &cfg)],
            Task::Profile(view) => part.profiles = vec![view(scale)],
        }
        part
    }) {
        pass.reports.extend(part.reports);
        pass.levels.extend(part.levels);
        pass.profiles.extend(part.profiles);
    }

    let dir = Path::new("results");
    for (name, view) in VIEWS {
        let path = dir.join(format!("{name}.txt"));
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, view(&pass)));
        if let Err(e) = written {
            eprintln!("paper: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("# wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

/// A window of `cycles` at the default scale (1/1000), at 1/`scale`; never 0.
fn scaled(cycles: u64, scale: u64) -> u64 {
    (cycles * 1000 / scale).max(1)
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

/// Figure 4: hierarchical symbiosis (choosing both the coschedules and the
/// number of contexts per multithreaded job): the predicted (allocation,
/// schedule) pair against the average and worst ones at each SMT level.
fn fig4(levels: &[HierReport]) -> String {
    let title = "Figure 4 — hierarchical symbiosis: % WS improvement of the predicted\n\
                 (allocation, schedule) pair over the average and worst alternatives\n\
                 SMT level    picked       avg     worst       vs avg     vs worst";
    render(title, |out| {
        for r in levels {
            let (smt, ws, avg, worst) = (r.smt, r.picked_ws(), r.average_ws(), r.worst_ws());
            let (vs_avg, vs_worst) = (r.improvement_over_average(), r.improvement_over_worst());
            writeln!(
                out,
                "{smt:<10} {ws:>8.3} {avg:>9.3} {worst:>9.3} {vs_avg:>11.1}% {vs_worst:>11.1}%"
            )?;
            let pick = &r.outcomes[r.score_pick];
            let (alloc, n) = (&pick.threads_per_job, &pick.notation);
            writeln!(out, "           picked allocation {alloc:?} schedule {n}")?;
        }
        writeln!(
            out,
            "\nexpected shape: the picked pair beats average and worst at every SMT level."
        )
    })
}

/// Table 2: the number of distinct possible schedules for each jobmix, and
/// the cycles to profile at most 10 of them in the sample phase. The table
/// is analytic (schedule combinatorics and cycle accounting), so it matches
/// the paper exactly at every scale.
fn table2() -> String {
    let title = "Table 2 — distinct schedules and sample-phase cycles\n\
                 Experiment     Distinct Schedules  Million Sample Cycles";
    render(title, |out| {
        for spec in ExperimentSpec::all_paper_experiments() {
            let (label, n) = (spec.label(), spec.distinct_schedules());
            let mcycles = spec.paper_sample_cycles() as f64 / 1e6;
            writeln!(out, "{label:<14} {n:>18} {mcycles:>22.0}")?;
        }
        Ok(())
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

/// The solo IPC and microarchitectural profile of every benchmark model,
/// each measured alone after a warm-up window.
fn calibrate(scale: u64) -> String {
    let (warmup, window) = (scaled(200_000, scale), scaled(500_000, scale));
    render("bench       IPC    dl1% br-mis%   l2miss     fp%", |out| {
        for b in Benchmark::ALL {
            let mut cpu = Processor::new(MachineConfig::alpha21264_like(1));
            let mut s = b.stream(StreamId(0), 42);
            let _ = cpu.run_timeslice(&mut [&mut *s], warmup);
            let st = cpu.run_timeslice(&mut [&mut *s], window);
            let t = &st.threads[0];
            let fp_pct = 100.0 * t.fp_ops() as f64 / t.committed.max(1) as f64;
            let (name, ipc, l2) = (b.name(), st.total_ipc(), st.cache.l2_misses);
            let (dl1, mis) = (st.cache.dl1_hit_pct(), st.branches.mispredict_pct());
            writeln!(
                out,
                "{name:<8} {ipc:>6.3} {dl1:>7.2} {mis:>7.2} {l2:>8} {fp_pct:>7.1}"
            )?;
        }
        Ok(())
    })
}

/// Runs `benches` coscheduled on `cfg` for a warm-up window and a measured
/// one of `cycles` each, and returns (total IPC, fp-queue conflict cycles,
/// mispredict %).
fn run(cfg: MachineConfig, benches: &[Benchmark], cycles: u64) -> (f64, u64, f64) {
    let mut cpu = Processor::new(cfg);
    let mut streams: Vec<_> = benches
        .iter()
        .enumerate()
        .map(|(i, b)| b.stream(StreamId(i as u64), 1000 + i as u64))
        .collect();
    let mut refs: Vec<&mut dyn smtsim::trace::InstructionSource> =
        streams.iter_mut().map(|s| &mut **s as _).collect();
    let _ = cpu.run_timeslice(&mut refs, cycles);
    let st = cpu.run_timeslice(&mut refs, cycles);
    (
        st.total_ipc(),
        st.conflicts.fp_queue,
        st.branches.mispredict_pct(),
    )
}

/// Ablations of the simulator's design choices (see EXPERIMENTS.md): each
/// knob is flipped and the effect on coscheduled throughput or on the paper's key
/// contention signals is reported.
fn ablations(scale: u64) -> String {
    use Benchmark::*;
    let cycles = scaled(150_000, scale);
    let title = "Design-choice ablations (mixed 3-thread coschedule FP+MG+GO unless noted)";
    let mix = [Fp, Mg, Go];
    render(title, |out| {
        // 1. Fetch policies (Tullsen et al., ISCA '96 family).
        let base = MachineConfig::alpha21264_like(3);
        for (name, policy) in [
            ("ICOUNT", FetchPolicy::Icount),
            ("round-robin", FetchPolicy::RoundRobin),
            ("BRCOUNT", FetchPolicy::Brcount),
            ("MISSCOUNT", FetchPolicy::Misscount),
        ] {
            let mut cfg = base.clone();
            cfg.fetch_policy = policy;
            let (ipc, ..) = run(cfg, &mix, cycles);
            writeln!(out, "fetch policy      {name:<12} {ipc:.3} IPC")?;
        }

        // 2. FP divide pipelining (the 21264's divider is unpipelined).
        let fp_mix = [Fp, Ep, Mg];
        let (unpiped, fq_unpiped, _) = run(base.clone(), &fp_mix, cycles);
        let mut piped = base.clone();
        piped.lat.fp_div_occupancy = 1;
        let (piped_ipc, fq_piped, _) = run(piped, &fp_mix, cycles);
        writeln!(
            out,
            "fp divide         unpipelined {unpiped:.3} IPC / {fq_unpiped} FQ-conflict cycles   \
             pipelined {piped_ipc:.3} IPC / {fq_piped}"
        )?;

        // 3. FP queue size: the paper's 15 entries vs double.
        let (fq15, fq15_conf, _) = run(base.clone(), &fp_mix, cycles);
        let mut big_fq = base.clone();
        big_fq.fp_queue = 30;
        let (fq30, fq30_conf, _) = run(big_fq, &fp_mix, cycles);
        writeln!(
            out,
            "fp queue size     15 entries {fq15:.3} IPC / {fq15_conf} conflicts   \
             30 entries {fq30:.3} IPC / {fq30_conf} conflicts"
        )?;

        // 4. Misprediction penalty sweep on a branchy mix.
        let branchy = [Go, Gcc, Gcc];
        for penalty in [0u64, 7, 14] {
            let mut cfg = base.clone();
            cfg.branch.mispredict_penalty = penalty;
            let (ipc, _, mis) = run(cfg, &branchy, cycles);
            writeln!(out, "mispredict penalty {penalty:>2} cycles    GO+GCC+GCC {ipc:.3} IPC ({mis:.1}% mispredicted)")?;
        }

        // 5. Branch-table size: shared-table interference shrinks with capacity.
        for bits in [10u32, 12, 16] {
            let mut cfg = base.clone();
            cfg.branch.table_bits = bits;
            let (ipc, _, mis) = run(cfg, &branchy, cycles);
            writeln!(out, "branch table 2^{bits:<2} entries        GO+GCC+GCC {ipc:.3} IPC ({mis:.1}% mispredicted)")?;
        }

        // 6. SMT level scaling on the 12-job mix's first threads.
        let many = [Fp, Mg, Wave, Swim, Su2cor, Turb3d];
        for smt in [1usize, 2, 3, 4, 6] {
            let cfg = MachineConfig::alpha21264_like(smt);
            let (ipc, ..) = run(cfg, &many[..smt], cycles);
            writeln!(
                out,
                "SMT level {smt}                     {ipc:.3} total IPC"
            )?;
        }
        Ok(())
    })
}

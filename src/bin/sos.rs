//! `sos` — command-line driver for the symbiotic jobscheduling reproduction.
//!
//! ```text
//! sos schedules <X> <Y> <Z>          count (and list, if small) the distinct schedules
//! sos run <label> [scale] [pred]     evaluate an experiment, e.g. `sos run "Jsb(6,3,3)"`
//! sos opensys <smt> [jobs] [scale]   compare SOS vs naive on an open system
//! ```

use smt_symbiosis::sos::enumerate::{count_distinct, enumerate_all};
use smt_symbiosis::sos::opensys::{calibrate_benchmarks, matched_pair, OpenSystemConfig};
use smt_symbiosis::sos::report::JobSummary;
use smt_symbiosis::sos::sos::{SosConfig, SosScheduler};
use smt_symbiosis::sos::{ExperimentSpec, PredictorKind};
use sos_bench::cli::{self, Flags};
use std::num::NonZeroUsize;

const USAGE: &str = "schedules <X> <Y> <Z>
       sos run <label> [cycle_scale] [predictor]
       sos opensys <smt> [num_jobs] [cycle_scale]";

/// The paper's 5M-cycle timeslice, which `sos opensys` divides by its scale.
const TIMESLICE: u64 = 5_000_000;

enum Command {
    Help,
    Schedules(usize, usize, usize),
    Run(ExperimentSpec, u64, PredictorKind),
    Opensys(usize, u64, u64),
}

fn main() {
    match cli::parse_or_exit("sos", USAGE, parse_command) {
        Command::Help => eprintln!("usage: sos {USAGE}"),
        Command::Schedules(x, y, z) => cmd_schedules(x, y, z),
        Command::Run(spec, scale, predictor) => cmd_run(&spec, scale, predictor),
        Command::Opensys(smt, num_jobs, scale) => cmd_opensys(smt, num_jobs, scale),
    }
}

/// A positional argument the command cannot do without.
fn required<T: std::str::FromStr>(flags: &mut Flags, what: &str) -> Result<T, String> {
    flags
        .positional(what)?
        .ok_or_else(|| format!("missing {what}"))
}

fn parse_command(flags: &mut Flags) -> Result<Command, String> {
    let command = flags.positional::<String>("command")?;
    Ok(match command.as_deref() {
        None | Some("help") => Command::Help,
        Some("schedules") => {
            let (x, y, z) = (
                required(flags, "X")?,
                required(flags, "Y")?,
                required(flags, "Z")?,
            );
            if !(z >= 1 && z <= y && y <= x && (z == y || z == 1)) {
                return Err(
                    "need 1 <= Z <= Y <= X with Z == Y (swap-all) or Z == 1 (swap-one)".into(),
                );
            }
            Command::Schedules(x, y, z)
        }
        Some("run") => {
            let label: String = flags
                .positional("experiment label")?
                .ok_or("missing experiment label, e.g. \"Jsb(6,3,3)\"")?;
            let spec = label.parse().map_err(|e| format!("{e}"))?;
            let scale = flags.count("cycle_scale", 1000)?;
            // The batch report evaluates the paper's ten predictors; the
            // learned kinds need a learner this command does not run.
            let predictor = match flags.positional::<String>("predictor")? {
                None => PredictorKind::Score,
                Some(p) => PredictorKind::parse(&p)
                    .filter(|k| !k.is_learned())
                    .ok_or_else(|| {
                        let fixed: Vec<&str> =
                            PredictorKind::ALL.iter().map(|k| k.name()).collect();
                        format!("bad predictor \"{p}\" (one of {})", fixed.join(", "))
                    })?,
            };
            Command::Run(spec, scale, predictor)
        }
        Some("opensys") => {
            let smt = required::<NonZeroUsize>(flags, "smt level")?.get();
            let num_jobs = flags.count("num_jobs", 40)?;
            let scale = flags.count("cycle_scale", 4000)?;
            if scale > TIMESLICE {
                return Err(format!(
                    "cycle_scale {scale} exceeds {TIMESLICE}: the timeslice would be 0 cycles"
                ));
            }
            Command::Opensys(smt, num_jobs, scale)
        }
        Some(other) => return Err(format!("unknown command {other:?}")),
    })
}

fn cmd_schedules(x: usize, y: usize, z: usize) {
    let n = count_distinct(x, y, z);
    println!("{n} distinct schedules for {x} jobs, {y} contexts, swap {z}");
    if n <= 36 {
        for s in enumerate_all(x, y, z) {
            println!("  {}", s.paper_notation());
        }
    }
}

fn cmd_run(spec: &ExperimentSpec, scale: u64, predictor: PredictorKind) {
    let cfg = SosConfig {
        cycle_scale: scale,
        predictor,
        ..SosConfig::default()
    };

    eprintln!("running {spec} at 1/{scale} paper scale ...");
    let report = SosScheduler::evaluate_experiment(spec, &cfg);
    println!(
        "{spec}: {} candidate schedules sampled",
        report.candidates.len()
    );
    for (n, ws) in report.candidates.iter().zip(&report.symbios_ws) {
        println!("  {n:<28} WS {ws:.3}");
    }
    println!(
        "best {:.3}  avg {:.3}  worst {:.3}",
        report.best_ws(),
        report.average_ws(),
        report.worst_ws()
    );
    let ws = report.ws_with(predictor);
    println!(
        "{} picks WS {ws:.3} ({:+.1}% vs avg)",
        predictor.name(),
        100.0 * (ws / report.average_ws() - 1.0)
    );
}

fn cmd_opensys(smt: usize, num_jobs: u64, scale: u64) {
    let mut cfg = OpenSystemConfig::scaled(smt);
    cfg.mean_job_cycles = 2_000_000_000 / scale;
    cfg.mean_interarrival =
        (cfg.mean_job_cycles as f64 / (0.90 * OpenSystemConfig::estimated_ws(smt))) as u64;
    cfg.timeslice = TIMESLICE / scale;
    cfg.num_jobs = num_jobs as usize;

    eprintln!("open system: SMT {smt}, {num_jobs} jobs, 1/{scale} scale ...");
    let solo = calibrate_benchmarks(smt, 10 * cfg.timeslice, cfg.seed);
    let (naive, sos) = matched_pair(&cfg, &solo);
    let naive_mean = JobSummary::of(&naive.completed, &solo).mean_response();
    let sos_mean = JobSummary::of(&sos.completed, &solo).mean_response();
    println!(
        "naive: mean response {:>12.0} cycles (N≈{:.1})",
        naive_mean, naive.mean_population
    );
    println!(
        "SOS:   mean response {:>12.0} cycles (N≈{:.1}, {} resamples)",
        sos_mean, sos.mean_population, sos.resamples
    );
    println!(
        "improvement: {:.1}%",
        100.0 * (naive_mean - sos_mean) / naive_mean
    );
}

//! `sos` — command-line driver for the symbiotic jobscheduling reproduction.
//!
//! ```text
//! sos schedules <X> <Y> <Z>          count (and list, if small) the distinct schedules
//! sos run <label> [scale] [pred]     evaluate an experiment, e.g. `sos run "Jsb(6,3,3)"`
//! sos solo [smt]                     print every benchmark model's solo profile
//! sos opensys <smt> [jobs] [scale]   compare SOS vs naive on an open system
//! ```

use smt_symbiosis::sos::enumerate::{count_distinct, enumerate_all};
use smt_symbiosis::sos::opensys::{calibrate_benchmarks, matched_pair, OpenSystemConfig};
use smt_symbiosis::sos::report::JobSummary;
use smt_symbiosis::sos::sos::{SosConfig, SosScheduler};
use smt_symbiosis::sos::{ExperimentSpec, PredictorKind};
use smt_symbiosis::workloads::Benchmark;
use smtsim::{MachineConfig, Processor, StreamId};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("schedules") => cmd_schedules(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("solo") => cmd_solo(&args[1..]),
        Some("opensys") => cmd_opensys(&args[1..]),
        Some("help") | None => {
            usage();
            0
        }
        Some(other) => {
            eprintln!("unknown command '{other}'");
            usage();
            2
        }
    };
    std::process::exit(code);
}

fn usage() {
    eprintln!("usage:");
    eprintln!("  sos schedules <X> <Y> <Z>");
    eprintln!("  sos run <label> [cycle_scale] [predictor]");
    eprintln!("  sos solo [smt]");
    eprintln!("  sos opensys <smt> [num_jobs] [cycle_scale]");
}

fn parse<T: std::str::FromStr>(args: &[String], i: usize, what: &str) -> Result<T, String> {
    args.get(i)
        .ok_or_else(|| format!("missing {what}"))?
        .parse()
        .map_err(|_| format!("bad {what}: {}", args[i]))
}

/// An optional positive count at position `i`: `default` when absent, an
/// error — never the default — when unparsable or zero.
fn count(args: &[String], i: usize, what: &str, default: u64) -> Result<u64, String> {
    if i >= args.len() {
        return Ok(default);
    }
    let n = parse::<std::num::NonZeroU64>(args, i, what)?;
    Ok(n.get())
}

/// Prints a bad-argument error with the usage and returns exit code 2.
fn refuse(e: String) -> i32 {
    eprintln!("{e}");
    usage();
    2
}

fn cmd_schedules(args: &[String]) -> i32 {
    let (x, y, z) = match (
        parse::<usize>(args, 0, "X"),
        parse::<usize>(args, 1, "Y"),
        parse::<usize>(args, 2, "Z"),
    ) {
        (Ok(x), Ok(y), Ok(z)) => (x, y, z),
        (a, b, c) => {
            for e in [a.err(), b.err(), c.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return 2;
        }
    };
    if !(z >= 1 && z <= y && y <= x && (z == y || z == 1)) {
        eprintln!("need 1 <= Z <= Y <= X with Z == Y (swap-all) or Z == 1 (swap-one)");
        return 2;
    }
    let n = count_distinct(x, y, z);
    println!("{n} distinct schedules for {x} jobs, {y} contexts, swap {z}");
    if n <= 36 {
        for s in enumerate_all(x, y, z) {
            println!("  {}", s.paper_notation());
        }
    }
    0
}

fn cmd_run(args: &[String]) -> i32 {
    let Some(label) = args.first() else {
        eprintln!("missing experiment label, e.g. \"Jsb(6,3,3)\"");
        return 2;
    };
    let spec: ExperimentSpec = match label.parse() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let scale = match count(args, 1, "cycle_scale", 1000) {
        Ok(scale) => scale,
        Err(e) => return refuse(e),
    };
    // The batch report evaluates the paper's ten predictors; the learned
    // kinds need a learner this command does not run.
    let predictor = match args.get(2) {
        None => PredictorKind::Score,
        Some(p) => match PredictorKind::parse(p).filter(|k| !k.is_learned()) {
            Some(kind) => kind,
            None => {
                let fixed: Vec<&str> = PredictorKind::ALL.iter().map(|k| k.name()).collect();
                return refuse(format!(
                    "bad predictor \"{p}\" (one of {})",
                    fixed.join(", ")
                ));
            }
        },
    };
    let cfg = SosConfig {
        cycle_scale: scale,
        predictor,
        ..SosConfig::default()
    };

    eprintln!("running {spec} at 1/{scale} paper scale ...");
    let report = SosScheduler::evaluate_experiment(&spec, &cfg);
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
    0
}

fn cmd_solo(args: &[String]) -> i32 {
    let smt = match count(args, 0, "smt level", 1) {
        Ok(smt) => smt as usize,
        Err(e) => return refuse(e),
    };
    println!("{:<8} {:>6} {:>8} {:>9}", "bench", "IPC", "dl1%", "br-mis%");
    for b in Benchmark::ALL {
        let mut cpu = Processor::new(MachineConfig::alpha21264_like(smt));
        let mut s = b.stream(StreamId(0), 42);
        let _ = cpu.run_timeslice(&mut [&mut *s], 100_000);
        let st = cpu.run_timeslice(&mut [&mut *s], 200_000);
        println!(
            "{:<8} {:>6.3} {:>8.2} {:>9.2}",
            b.name(),
            st.total_ipc(),
            st.cache.dl1_hit_pct(),
            st.branches.mispredict_pct()
        );
    }
    0
}

fn cmd_opensys(args: &[String]) -> i32 {
    let parsed = parse::<std::num::NonZeroUsize>(args, 0, "smt level").and_then(|smt| {
        let num_jobs = count(args, 1, "num_jobs", 40)?;
        Ok((smt.get(), num_jobs, count(args, 2, "cycle_scale", 4000)?))
    });
    let (smt, num_jobs, scale) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => return refuse(e),
    };
    let mut cfg = OpenSystemConfig::scaled(smt);
    cfg.mean_job_cycles = 2_000_000_000 / scale;
    cfg.mean_interarrival =
        (cfg.mean_job_cycles as f64 / (0.90 * OpenSystemConfig::estimated_ws(smt))) as u64;
    cfg.timeslice = 5_000_000 / scale;
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
    0
}

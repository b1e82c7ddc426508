//! The predictor league table: runs all 13 paper experiments and reports,
//! for every predictor (plus the sampled-WS oracle and the best possible
//! schedule), the mean and worst-case percent gain over the random-scheduler
//! expectation.
//!
//! This regenerates the per-predictor summary in EXPERIMENTS.md. Pass a
//! second argument to also dump the full reports as JSON.
//!
//! With `--learned` or `--bandit` the binary instead runs the learned
//! evaluation sweep (`sos_bench::learn_eval`): a grid of experiments ×
//! seeds fed sequentially through one online learner, producing a league
//! table with `Learned` and `Bandit` rows and a deterministic
//! `learn_summary.json` artifact under `--out-dir` (two runs of the same
//! grid `cmp` equal).
//!
//! Usage:
//! `predictor_matrix [cycle_scale] [json_path]` (the classic table), or
//! `predictor_matrix [--learned] [--bandit] [--grid small|wide]
//!  [--scale N] [--seeds S1,S2,...] [--out-dir DIR]`

use sos_bench::cli::{self, Flags};
use sos_bench::learn_eval::{self, LearnEvalOptions};
use sos_core::report::{format_league_table, league_table};
use sos_core::sos::SosScheduler;
use sos_core::ExperimentSpec;
use std::path::PathBuf;

struct Args {
    /// Classic positional args (kept for existing drivers and CI).
    scale: u64,
    json_path: Option<String>,
    /// Learned-sweep mode.
    learned: bool,
    grid: String,
    seeds: Vec<u64>,
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

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let learned = flags.switch("--learned") | flags.switch("--bandit");
    let grid = flags.value("--grid", "wide".to_string())?;
    if learn_eval::grid(&grid).is_none() {
        return Err(format!("unknown grid {grid:?} (small|wide)"));
    }
    let seeds = match flags.opt::<String>("--seeds")? {
        Some(list) => list.split(',').map(parse_seed).collect::<Result<_, _>>()?,
        None => learn_eval::DEFAULT_SEEDS.to_vec(),
    };
    let out_dir = flags.value("--out-dir", PathBuf::from("results/learn"))?;
    // `--scale N` and the classic positional `[cycle_scale]` set the same
    // thing; the positional wins.
    let scale = flags.value("--scale", 1000)?;
    Ok(Args {
        scale: flags.count("cycle_scale", scale)?,
        json_path: flags.positional("json_path")?,
        learned,
        grid,
        seeds,
        out_dir,
    })
}

fn main() {
    let usage = "[cycle_scale] [json_path] | [--learned] [--bandit] [--grid small|wide] \
                 [--scale N] [--seeds S1,S2,...] [--out-dir DIR]";
    let args = cli::parse_or_exit("predictor_matrix", usage, parse_args);
    sos_bench::init_cache();

    if args.learned {
        run_learned(&args);
        return;
    }

    let cfg = sos_bench::config(args.scale);
    eprintln!(
        "# running 13 experiments at 1/{} paper scale ...",
        args.scale
    );
    let specs = ExperimentSpec::all_paper_experiments();
    let reports =
        sos_core::par::parallel_map(specs, |spec| SosScheduler::evaluate_experiment(&spec, &cfg));
    sos_bench::print_cache_stats();

    println!(
        "Predictor league table over {} experiments (% vs random expectation)",
        reports.len()
    );
    print!("{}", format_league_table(&league_table(&reports)));

    if let Some(path) = args.json_path {
        let json = serde_json::to_string_pretty(&reports).expect("reports serialize");
        std::fs::write(&path, json).expect("write JSON");
        eprintln!("# full reports written to {path}");
    }
}

fn run_learned(args: &Args) {
    let opts = LearnEvalOptions {
        grid: args.grid.clone(),
        seeds: args.seeds.clone(),
        scale: args.scale,
    };
    eprintln!(
        "# learned sweep: grid {} × {} seed(s) at 1/{} paper scale ...",
        opts.grid,
        opts.seeds.len(),
        opts.scale
    );
    let (reports, summary) = learn_eval::run(&opts);
    sos_bench::print_cache_stats();

    println!(
        "Learned-predictor league table over {} experiments (% vs random expectation)",
        reports.len()
    );
    print!("{}", format_league_table(&league_table(&reports)));
    println!(
        "best fixed  {:<10} mean WS {:.4}",
        summary.best_fixed, summary.best_fixed_ws
    );
    println!(
        "worst fixed {:<10} mean WS {:.4}",
        summary.worst_fixed, summary.worst_fixed_ws
    );
    println!(
        "Learned mean WS {:.4}  Bandit mean WS {:.4}  oracle {:.4}",
        summary.learned_ws, summary.bandit_ws, summary.oracle_mean_ws
    );
    println!(
        "learner: {} train updates, err EWMA {:.4}, {} bandit pulls over {} contexts, regret {:.3}",
        summary.learner.train_updates,
        summary.learner.err_ewma,
        summary.learner.bandit_pulls,
        summary.learner.contexts,
        summary.learner.bandit_regret
    );
    println!(
        "acceptance (learned/bandit ≥ best fixed AND bandit ≥ worst fixed + 2%): {}",
        if summary.meets_acceptance() {
            "PASS"
        } else {
            "MISS"
        }
    );

    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!(
            "predictor_matrix: cannot create {}: {e}",
            args.out_dir.display()
        );
        std::process::exit(1);
    }
    let summary_path = args.out_dir.join("learn_summary.json");
    let json = serde_json::to_string_pretty(&summary).expect("summary serializes");
    if let Err(e) = std::fs::write(&summary_path, json + "\n") {
        eprintln!(
            "predictor_matrix: write {} failed: {e}",
            summary_path.display()
        );
        std::process::exit(1);
    }
    println!("# sweep summary written to {}", summary_path.display());
}

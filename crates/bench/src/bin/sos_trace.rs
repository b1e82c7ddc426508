//! Runs one `Jmn(X,Y,Z)` experiment on a tracing telemetry handle and exports the
//! recording: metrics as JSONL, the event stream as JSONL, and a Chrome
//! `trace_event` JSON file loadable in Perfetto (<https://ui.perfetto.dev>).
//!
//! Usage:
//!
//! ```text
//! sos-trace [--scale N] [--calibration CYCLES] [--trace out.json] \
//!           [--metrics out.jsonl] [--events out.jsonl] [EXPERIMENT]
//! ```
//!
//! `EXPERIMENT` is paper notation (default `Jsb(6,3,3)`); `--scale` is the
//! cycle-scale divisor (default 1000, 1 = full paper scale);
//! `--calibration` overrides the solo-IPC calibration window in scaled
//! cycles (smaller = faster, noisier). With no output flags the run still
//! executes and prints a summary, which is handy for smoke-testing.
//!
//! The run is the library's one parallel evaluation; each task records on a
//! child handle of its own (`sos.calibrate/…`, `sos.candidate<i>/…` tracks),
//! so the three files are byte-identical for any worker count.

use sos_bench::cli::{self, Flags};
use sos_core::sos::SosScheduler;
use sos_core::telemetry::Telemetry;
use sos_core::ExperimentSpec;
use std::num::NonZeroU64;
use std::process::ExitCode;

struct Args {
    spec: ExperimentSpec,
    scale: u64,
    calibration: Option<NonZeroU64>,
    trace_path: Option<String>,
    metrics_path: Option<String>,
    events_path: Option<String>,
}

const USAGE: &str = "[--scale N] [--calibration CYCLES] [--trace out.json] \
                     [--metrics out.jsonl] [--events out.jsonl] [EXPERIMENT]\n\
                     EXPERIMENT is paper notation like 'Jsb(6,3,3)' (default)";

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    if flags.switch("--help") | flags.switch("-h") {
        println!("usage: sos-trace {USAGE}");
        std::process::exit(0);
    }
    Ok(Args {
        scale: flags.value("--scale", 1000)?,
        calibration: flags.opt("--calibration")?,
        trace_path: flags.opt("--trace")?,
        metrics_path: flags.opt("--metrics")?,
        events_path: flags.opt("--events")?,
        spec: match flags.positional("EXPERIMENT")? {
            Some(spec) => spec,
            None => "Jsb(6,3,3)".parse().expect("default spec parses"),
        },
    })
}

fn write_file(path: &str, contents: &str) -> Result<(), ExitCode> {
    std::fs::write(path, contents).map_err(|e| {
        eprintln!("sos-trace: cannot write {path}: {e}");
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = cli::parse_or_exit("sos-trace", USAGE, parse_args);

    let mut cfg = sos_bench::config(args.scale);
    if let Some(calibration) = args.calibration {
        cfg.calibration_cycles = calibration.get();
    }
    eprintln!(
        "# tracing {} at 1/{} paper scale ...",
        args.spec.label(),
        args.scale
    );

    let tel = Telemetry::tracing();
    let report = SosScheduler::evaluate_experiment_traced(&args.spec, &cfg, 0, &tel);
    let snapshot = tel.drain();

    if let Some(path) = &args.trace_path {
        if let Err(code) = write_file(path, &snapshot.chrome_trace_json()) {
            return code;
        }
        eprintln!("# wrote Chrome trace: {path} (open in https://ui.perfetto.dev)");
    }
    if let Some(path) = &args.metrics_path {
        if let Err(code) = write_file(path, &snapshot.metrics_jsonl()) {
            return code;
        }
        eprintln!("# wrote metrics JSONL: {path}");
    }
    if let Some(path) = &args.events_path {
        if let Err(code) = write_file(path, &snapshot.events_jsonl()) {
            return code;
        }
        eprintln!("# wrote event JSONL: {path}");
    }

    println!(
        "{}: {} candidates, {} events, {} metrics",
        args.spec.label(),
        report.candidates.len(),
        snapshot.events.len(),
        snapshot.metric_rows().len()
    );
    print!("{}", sos_bench::experiment_summary(&report));
    ExitCode::SUCCESS
}

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

use sos_core::sos::SosScheduler;
use sos_core::telemetry::Telemetry;
use sos_core::ExperimentSpec;
use std::process::ExitCode;

struct Args {
    spec: ExperimentSpec,
    scale: u64,
    calibration: Option<u64>,
    trace_path: Option<String>,
    metrics_path: Option<String>,
    events_path: Option<String>,
}

const USAGE: &str = "usage: sos-trace [--scale N] [--calibration CYCLES] [--trace out.json] \
                     [--metrics out.jsonl] [--events out.jsonl] [EXPERIMENT]\n\
                     EXPERIMENT is paper notation like 'Jsb(6,3,3)' (default)";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut args = Args {
        spec: "Jsb(6,3,3)".parse().expect("default spec parses"),
        scale: 1000,
        calibration: None,
        trace_path: None,
        metrics_path: None,
        events_path: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut flag_value = |name: &str| {
            it.next().ok_or_else(|| {
                eprintln!("sos-trace: {name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--scale" => {
                let v = flag_value("--scale")?;
                args.scale = v.parse().map_err(|_| {
                    eprintln!("sos-trace: bad --scale '{v}'");
                    usage()
                })?;
            }
            "--calibration" => {
                let v = flag_value("--calibration")?;
                args.calibration = Some(v.parse().map_err(|_| {
                    eprintln!("sos-trace: bad --calibration '{v}'");
                    usage()
                })?);
            }
            "--trace" => args.trace_path = Some(flag_value("--trace")?),
            "--metrics" => args.metrics_path = Some(flag_value("--metrics")?),
            "--events" => args.events_path = Some(flag_value("--events")?),
            "--help" | "-h" => {
                println!("{USAGE}");
                return Err(ExitCode::SUCCESS);
            }
            spec if !spec.starts_with('-') => {
                args.spec = spec.parse().map_err(|e| {
                    eprintln!("sos-trace: bad experiment '{spec}': {e}");
                    usage()
                })?;
            }
            other => {
                eprintln!("sos-trace: unknown flag '{other}'");
                return Err(usage());
            }
        }
    }
    Ok(args)
}

fn write_file(path: &str, contents: &str) -> Result<(), ExitCode> {
    std::fs::write(path, contents).map_err(|e| {
        eprintln!("sos-trace: cannot write {path}: {e}");
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };

    let mut cfg = sos_bench::config(args.scale);
    if let Some(calibration) = args.calibration {
        cfg.calibration_cycles = calibration;
    }
    eprintln!(
        "# tracing {} at 1/{} paper scale ...",
        args.spec.label(),
        args.scale
    );

    // In-memory cache only (no disk store): the point here is surfacing the
    // sos.cache.hits / sos.cache.misses counters in the exported metrics
    // without a warm disk cache eliding the simulator spans being traced.
    sos_core::cache::enable();

    let tel = Telemetry::tracing();
    let report = SosScheduler::evaluate_experiment_traced(&args.spec, &cfg, 0, &tel);
    let snapshot = tel.drain();
    sos_bench::print_cache_stats();

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
    sos_bench::print_experiment_summary(&report);
    ExitCode::SUCCESS
}

//! One benchmark for the whole stack (see `README.md` beside this crate).
//!
//! `--workload W --seed N --seconds S --trace 0|1` runs one workload and
//! prints its metrics, one per line, then one JSON object on the last line.
//! Without `--workload` every workload runs in turn, each in a process of its
//! own (so peak memory is per workload). `--check-repeat` runs two such sets
//! and fails unless they agree within the bounds of `BENCHMARK.json`.

mod expected;
mod outcome;
mod spec;
mod stats;
mod trace;
mod workloads;

use expected::Expected;
use outcome::Run;
use spec::{BenchSpec, MetricDecl};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use trace::Tracer;

const USAGE: &str = "usage: benchmark/run [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--pin] [--check-repeat]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    pin: bool,
    check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        pin: false,
        check_repeat: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        let num = |v: String| v.parse::<u64>().map_err(|_| format!("bad number {v:?}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = num(value()?)?,
            "--seconds" => args.seconds = Some(num(value()?)?.max(1)),
            "--trace" => args.trace = num(value()?)? != 0,
            "--pin" => args.pin = true,
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let spec = BenchSpec::load()?;
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    if args.check_repeat {
        return check_repeat(&spec, args.seed, seconds);
    }
    match &args.workload {
        Some(name) => run_one(&spec, name, &args, seconds),
        None => {
            let mut all_ok = true;
            for w in &spec.workloads {
                all_ok &= run_child(&w.name, args.seed, seconds, args.trace, args.pin)?.ok;
            }
            Ok(all_ok)
        }
    }
}

/// Runs one workload in this process and prints its result.
fn run_one(spec: &BenchSpec, name: &str, args: &Args, seconds: u64) -> Result<bool, String> {
    let decl = spec
        .workloads
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    println!(
        "# {name} seed={} seconds={seconds} trace={} nproc={}",
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!("# why: {}", decl.why);

    let mut tracer = Tracer::new(args.trace);
    let params = workloads::Params {
        seed: args.seed,
        seconds,
    };
    let mut run = workloads::run(name, &params, &mut tracer)?;

    let mut pins = Expected::load()?;
    if args.pin {
        let seed = (!run.any_seed).then_some(args.seed);
        pins.pin(name, seed, seconds, &run.sim)?;
        println!(
            "# pinned {} outputs in {}",
            run.sim.0.len(),
            expected::EXPECTED_JSON
        );
    }
    match pins.pinned(name, args.seed, seconds) {
        Some(pinned) => expected::compare(&run.sim, pinned, &mut run.checks),
        None => println!(
            "# seed {} is not pinned at {seconds} s: internal checks only",
            args.seed
        ),
    }

    let end_to_end = run.end_to_end();
    if args.trace {
        let span_cost_ns = Tracer::span_cost_ns();
        let overhead = tracer.len() as f64 * span_cost_ns / 1e9 / run.wall_s;
        run.layer("trace.overhead_pct", 100.0 * overhead);
        let path = format!("benchmark/out/trace-{name}.json");
        tracer
            .write_chrome(std::path::Path::new(&path), name)
            .map_err(|e| format!("{path}: {e}"))?;
        println!(
            "# {} spans ({span_cost_ns:.0} ns each) written to {path}",
            tracer.len()
        );
        print_self_times(&tracer);
        // The end-to-end numbers of a traced run are context, not results.
        for (k, v) in &end_to_end {
            println!("# traced {k} {v}");
        }
    }
    let values = if args.trace { &run.layers } else { &end_to_end };
    let metrics = collect(spec.metrics(args.trace), values, args.trace)?;
    for (name, value, unit) in &metrics {
        println!("{name} {value} {unit}");
    }
    print_ops(&run);
    for (k, v) in &run.sim.0 {
        println!("sim {k} {v}");
    }
    println!("sim_digest {:016x}", run.sim.digest());
    println!(
        "wall_s {} attempted {} failed {} failed_frac {}",
        run.wall_s,
        run.checks.attempted,
        run.checks.failed,
        run.checks.failed_frac()
    );
    let correct = run.checks.failed == 0;
    println!("{}", result_json(correct, &run, &metrics));
    Ok(correct)
}

/// Pairs every declared metric with its measured value and declared unit.
/// An end-to-end metric must have been measured; a per-layer metric that the
/// workload does not exercise reads 0.
fn collect<'a>(
    decls: &'a [MetricDecl],
    values: &BTreeMap<String, f64>,
    missing_is_zero: bool,
) -> Result<Vec<(&'a str, f64, &'a str)>, String> {
    if let Some(stray) = values.keys().find(|k| !decls.iter().any(|d| &d.name == *k)) {
        return Err(format!(
            "metric {stray:?} is not declared in {}",
            spec::BENCHMARK_JSON
        ));
    }
    decls
        .iter()
        .map(|d| {
            let v = match values.get(&d.name) {
                Some(&v) if v.is_finite() => v,
                Some(v) => return Err(format!("metric {} is {v}", d.name)),
                None if missing_is_zero => 0.0,
                None => return Err(format!("metric {} was not measured", d.name)),
            };
            Ok((d.name.as_str(), v, d.unit.as_str()))
        })
        .collect()
}

/// The tail of the operation times. It is printed, not bounded: on a shared
/// host the p95 of identical work moves by a fifth from run to run.
fn print_ops(run: &Run) {
    let n = run.ops_ms.len();
    let tail = match stats::tail_percentile(n) {
        Some(p) => format!(
            "highest percentile with >= {} samples beyond it: p{p} = {} ms",
            stats::MIN_BEYOND,
            stats::percentile(&run.ops_ms, p)
        ),
        None => "too few samples for a tail percentile".to_string(),
    };
    println!(
        "# ops: {n} samples, p95 = {} ms with {} beyond it; {tail}",
        stats::percentile(&run.ops_ms, 95.0),
        stats::samples_beyond(n, 95.0)
    );
}

fn print_self_times(tracer: &Tracer) {
    let by_span = tracer.self_time_s();
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, s) in &by_span {
        *by_layer.entry(trace::layer_of(name)).or_insert(0.0) += s;
    }
    let total: f64 = by_layer.values().sum();
    for (layer, s) in &by_layer {
        println!(
            "# self time {layer}: {s:.3} s ({:.1} %)",
            100.0 * s / total.max(1e-12)
        );
    }
}

/// The contract's result line.
fn result_json(correct: bool, run: &Run, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.checks.attempted.max(1),
        run.checks.failed,
        body.join(", ")
    )
}

/// What the parent keeps of a child run.
struct ChildResult {
    ok: bool,
    metrics: BTreeMap<String, f64>,
    sim_digest: String,
}

/// Runs one workload in a child process (its output is passed through).
fn run_child(
    name: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    pin: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if pin {
        cmd.arg("--pin");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run {name}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    let last = text.lines().last().unwrap_or_default();
    let json: serde::Value =
        serde_json::from_str(last).map_err(|e| format!("{name}: no result line: {e}"))?;
    let metrics = json
        .get("metrics")
        .and_then(|m| m.as_object())
        .ok_or_else(|| format!("{name}: result has no metrics"))?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    let sim_digest = text
        .lines()
        .find_map(|l| l.strip_prefix("sim_digest "))
        .unwrap_or_default()
        .to_string();
    let correct = json.get("correct").and_then(|c| c.as_bool()) == Some(true);
    Ok(ChildResult {
        ok: out.status.success() && correct,
        metrics,
        sim_digest,
    })
}

/// Runs two full sets back to back and checks that set B agrees with set A:
/// every end-to-end metric within its bound, every simulated output equal.
fn check_repeat(spec: &BenchSpec, seed: u64, seconds: u64) -> Result<bool, String> {
    let mut sets = Vec::new();
    for set in ["A", "B"] {
        println!("## set {set}");
        let runs: Result<Vec<ChildResult>, String> = spec
            .workloads
            .iter()
            .map(|w| run_child(&w.name, seed, seconds, false, false))
            .collect();
        sets.push(runs?);
    }
    let mut ok = true;
    println!("## repeat check (seed {seed})");
    for (w, (a, b)) in spec.workloads.iter().zip(sets[0].iter().zip(&sets[1])) {
        ok &= a.ok && b.ok;
        let same_sim = a.sim_digest == b.sim_digest && !a.sim_digest.is_empty();
        ok &= same_sim;
        println!(
            "{:<12} correct {} / {}   simulated outputs {}",
            w.name,
            a.ok,
            b.ok,
            if same_sim { "equal" } else { "DIFFER" }
        );
        for m in &spec.end_to_end {
            let (va, vb) = (a.metrics[&m.name], b.metrics[&m.name]);
            let bound = m.bound.unwrap_or(0.0);
            let (within, diff) = within_bound(va, vb, bound);
            ok &= within;
            println!(
                "  {:<12} A {va:>12.4}  B {vb:>12.4} {:<5} {:+6.2} % (bound {:.0} %) {}",
                m.name,
                m.unit,
                100.0 * diff,
                100.0 * bound,
                if within { "ok" } else { "OUT OF BOUND" }
            );
        }
    }
    println!("## repeat check {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

/// Whether `b` is within `bound` (a share of `a`) of `a`, and the share by
/// which it differs.
fn within_bound(a: f64, b: f64, bound: f64) -> (bool, f64) {
    let diff = if a == 0.0 { b - a } else { (b - a) / a };
    (diff.abs() <= bound, diff)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(name: &str) -> MetricDecl {
        MetricDecl {
            name: name.into(),
            unit: "ms".into(),
            better: "lower".into(),
            bound: Some(0.1),
        }
    }

    #[test]
    fn repeat_bound_is_two_sided_and_relative() {
        assert!(within_bound(100.0, 107.0, 0.07).0);
        assert!(within_bound(100.0, 93.0, 0.07).0);
        assert!(!within_bound(100.0, 108.0, 0.07).0);
        assert!(!within_bound(100.0, 92.0, 0.07).0);
        assert!(within_bound(5.0, 5.0, 0.0).0);
        assert!(!within_bound(5.0, 5.000001, 0.0).0);
    }

    #[test]
    fn collect_fills_unexercised_layers_and_rejects_gaps() {
        let decls = [decl("a.x"), decl("b.y")];
        let values = BTreeMap::from([("a.x".to_string(), 1.5)]);
        let got = collect(&decls, &values, true).expect("traced runs default to 0");
        assert_eq!(got, vec![("a.x", 1.5, "ms"), ("b.y", 0.0, "ms")]);
        assert!(collect(&decls, &values, false).is_err());
        let stray = BTreeMap::from([("c.z".to_string(), 1.0)]);
        assert!(collect(&decls, &stray, true).is_err());
        let nan = BTreeMap::from([("a.x".to_string(), f64::NAN)]);
        assert!(collect(&decls, &nan, true).is_err());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let run = Run::default();
        let line = result_json(true, &run, &[("op_p50_ms", 1.25, "ms")]);
        let v: serde::Value = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(v.get("attempted").and_then(|c| c.as_u64()), Some(1));
        assert_eq!(v.get("failed").and_then(|c| c.as_u64()), Some(0));
        let m = v
            .get("metrics")
            .and_then(|m| m.get("op_p50_ms"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(|x| x.as_f64()), Some(1.25));
        assert_eq!(m.get("unit").and_then(|x| x.as_str()), Some("ms"));
    }
}

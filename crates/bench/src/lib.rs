//! Shared helpers for the experiment-reproduction binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §4 for the index). They all accept an optional first
//! argument: the cycle scale divisor (default 1000; 1 = full paper scale).

use smtsim::FastSimPolicy;
use sos_core::sos::ExperimentReport;
use sos_core::{PredictorKind, SosConfig};

pub mod learn_eval;
pub mod serve;

/// Parses the common `[cycle_scale]` argument.
pub fn scale_from_args() -> u64 {
    std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1000)
}

/// The default harness configuration at the given scale.
pub fn config(scale: u64) -> SosConfig {
    SosConfig {
        cycle_scale: scale,
        ..SosConfig::default()
    }
}

/// The one rule behind `--fast [--fast-threshold F]` on every binary that
/// takes the pair, `fastsim-compare --thresholds`, and the serve protocol's
/// `fastsim` verb: a threshold implies fast mode and must be a finite number
/// above zero; fast mode without one runs [`FastSimPolicy::default`]; neither
/// is full detail (`None`).
pub fn fastsim_policy(fast: bool, threshold: Option<f64>) -> Result<Option<FastSimPolicy>, String> {
    match threshold {
        Some(t) if t.is_finite() && t > 0.0 => Ok(Some(FastSimPolicy::with_threshold(t))),
        Some(t) => Err(format!(
            "the fast-sim threshold must be a finite number above 0, got {t}"
        )),
        None => Ok(fast.then(FastSimPolicy::default)),
    }
}

/// Splits `--fast` / `--fast-threshold F` out of a command line whose other
/// arguments are positional (fig5, fig6), so the flags may sit anywhere
/// among them. Returns the policy ([`fastsim_policy`]) and the positionals.
pub fn take_fast_flags(
    mut args: impl Iterator<Item = String>,
) -> Result<(Option<FastSimPolicy>, Vec<String>), String> {
    let (mut fast, mut threshold, mut positional) = (false, None, Vec::new());
    while let Some(a) = args.next() {
        match a.as_str() {
            "--fast" => fast = true,
            "--fast-threshold" => {
                let v = args.next().ok_or("missing value for --fast-threshold")?;
                let t: f64 = v
                    .parse()
                    .map_err(|_| format!("bad value {v:?} for --fast-threshold"))?;
                threshold = Some(t);
            }
            _ => positional.push(a),
        }
    }
    Ok((fastsim_policy(fast, threshold)?, positional))
}

/// Percent by which `a` exceeds `b`; NaN when either input is non-finite or
/// the baseline is zero (the same guard as `sos_core::report::pct_over`, so
/// a degenerate run prints `NaN` instead of `±inf`).
pub fn pct_over(a: f64, b: f64) -> f64 {
    if !a.is_finite() || !b.is_finite() || b == 0.0 {
        f64::NAN
    } else {
        100.0 * (a / b - 1.0)
    }
}

/// Formats one experiment's best/worst/average WS as the rows of Figure 1.
pub fn print_experiment_summary(report: &ExperimentReport) {
    println!(
        "{:<14} best {:>6.3}  worst {:>6.3}  avg {:>6.3}  (best/worst {:+.1}%, best/avg {:+.1}%)",
        report.spec.label(),
        report.best_ws(),
        report.worst_ws(),
        report.average_ws(),
        pct_over(report.best_ws(), report.worst_ws()),
        pct_over(report.best_ws(), report.average_ws()),
    );
}

/// Prints the per-predictor weighted speedups for one experiment
/// (one group of Figure 2/3 bars), plus the sampling-oracle baseline.
pub fn print_predictor_bars(report: &ExperimentReport) {
    for p in PredictorKind::ALL {
        let ws = report.ws_with(p);
        println!(
            "    {:<10} WS {:>6.3}  ({:+5.1}% vs avg)",
            p.name(),
            ws,
            pct_over(ws, report.average_ws())
        );
    }
    println!(
        "    {:<10} WS {:>6.3}  ({:+5.1}% vs avg)",
        "SampledWS",
        report.oracle_ws(),
        pct_over(report.oracle_ws(), report.average_ws())
    );
}

// The parallel-map helpers moved into `sos_core` (the scheduler itself now
// evaluates candidates concurrently); re-exported here so the binaries keep
// their old import paths.
pub use sos_core::par::{parallel_map, parallel_map_with_workers};

/// Enables the process-wide evaluation cache for an experiment binary and
/// attaches the on-disk store.
///
/// * `SOS_CACHE=off` leaves the cache disabled entirely (forces a cold run).
/// * `SOS_CACHE_DIR=<dir>` overrides the store directory (default
///   `results/cache/`).
///
/// A disk failure degrades to the in-memory layer with a note on stderr;
/// the run itself is unaffected (caching is best-effort).
pub fn init_cache() {
    if std::env::var("SOS_CACHE")
        .map(|v| v == "off")
        .unwrap_or(false)
    {
        return;
    }
    sos_core::cache::enable();
    let dir = std::env::var("SOS_CACHE_DIR").unwrap_or_else(|_| "results/cache".to_string());
    match sos_core::cache::attach_disk(std::path::Path::new(&dir)) {
        Ok(loaded) => eprintln!("# cache: {loaded} entries loaded from {dir}"),
        Err(e) => eprintln!("# cache: disk store unavailable ({e}); in-memory only"),
    }
}

/// Prints the process-wide cache's hit/miss totals to stderr (a no-op while
/// the cache is disabled, so `SOS_CACHE=off` runs stay quiet).
pub fn print_cache_stats() {
    if sos_core::cache::is_enabled() {
        let stats = sos_core::cache::stats();
        eprintln!("# cache: {} hits, {} misses", stats.hits, stats.misses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_over_math() {
        assert!((pct_over(1.1, 1.0) - 10.0).abs() < 1e-9);
        assert!((pct_over(0.9, 1.0) + 10.0).abs() < 1e-9);
    }

    #[test]
    fn pct_over_guards_degenerate_baselines() {
        // A worst-case WS of 0 used to print as +inf; it must be NaN, like
        // the report module's pct_over.
        assert!(pct_over(1.0, 0.0).is_nan());
        assert!(pct_over(f64::NAN, 1.0).is_nan());
        assert!(pct_over(1.0, f64::NEG_INFINITY).is_nan());
    }

    #[test]
    fn fast_flags_follow_the_one_rule() {
        let take = |args: &[&str]| take_fast_flags(args.iter().map(|a| a.to_string()));
        for bad in ["NaN", "inf", "0", "-1", "abc"] {
            let refused = take(&["6000", "--fast-threshold", bad]);
            assert!(refused.is_err(), "accepted {bad}");
        }
        assert!(take(&["--fast", "--fast-threshold"])
            .unwrap_err()
            .contains("missing value"));
        // A threshold implies --fast; --fast alone is the default policy;
        // the flags may sit anywhere among the positionals.
        let (policy, rest) = take(&["6000", "--fast-threshold", "0.1", "40"]).unwrap();
        assert_eq!(policy, Some(FastSimPolicy::with_threshold(0.1)));
        assert_eq!(rest, ["6000", "40"]);
        let (policy, rest) = take(&["--fast", "6000"]).unwrap();
        assert_eq!(policy, Some(FastSimPolicy::default()));
        assert_eq!(rest, ["6000"]);
        assert_eq!(take(&["6000"]).unwrap(), (None, vec!["6000".to_string()]));
        // The protocol form: an explicit `fast: false` with no threshold is off.
        assert_eq!(fastsim_policy(false, None), Ok(None));
        assert!(fastsim_policy(true, Some(f64::INFINITY)).is_err());
    }

    #[test]
    fn default_config_uses_requested_scale() {
        let cfg = config(500);
        assert_eq!(cfg.cycle_scale, 500);
        assert_eq!(cfg.predictor, PredictorKind::Score);
    }

    #[test]
    fn parallel_map_reexport_preserves_order() {
        // The implementation (and its full test suite) lives in
        // `sos_core::par`; this pins the re-exported path binaries use.
        let out = parallel_map(vec![3u64, 1, 4, 1, 5], |x| x * 2);
        assert_eq!(out, vec![6, 2, 8, 2, 10]);
        let serial = parallel_map_with_workers(vec![1u64, 2, 3], 1, |x| x + 7);
        assert_eq!(serial, vec![8, 9, 10]);
    }
}

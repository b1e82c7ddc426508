//! The one command-line layer of the bench binaries.
//!
//! [`Flags`] is pull-style: a binary asks for each flag it knows, then for
//! its positionals, and [`Flags::finish`] refuses whatever nobody asked for.
//! A mistyped number is an error, never the default. Flags may sit anywhere
//! among the positionals (`fig5 6000 --fast` and `fig5 --fast 6000` both
//! work), which is why positionals are asked for last: by then every flag's
//! value is claimed. A flag given twice keeps its last value.
//!
//! Two flag groups parse straight into the struct they configure:
//! [`trace_flags`] and [`engine_flags`]. Both read `--seed`, so a binary with
//! both seeds its trace and its engine alike.

use smtsim::FastSimPolicy;
use sos_core::online::OnlineConfig;
use sos_core::opensys::ArrivalTraceSpec;
use sos_core::PredictorKind;
use std::num::NonZeroU64;
use std::str::FromStr;

/// A command line being taken apart: each argument, and whether some
/// request has claimed it.
pub struct Flags {
    args: Vec<(String, bool)>,
}

impl Flags {
    /// Parses the command line `args` (without the program name) with
    /// `parse`, then [`finish`](Self::finish)es.
    pub fn parse<T>(
        args: impl IntoIterator<Item = String>,
        parse: impl FnOnce(&mut Flags) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut flags = Flags {
            args: args.into_iter().map(|a| (a, false)).collect(),
        };
        let parsed = parse(&mut flags)?;
        flags.finish()?;
        Ok(parsed)
    }

    /// Whether the valueless flag `name` was given.
    pub fn switch(&mut self, name: &str) -> bool {
        let mut given = false;
        for (arg, claimed) in &mut self.args {
            if arg == name {
                (*claimed, given) = (true, true);
            }
        }
        given
    }

    /// The value of `name VALUE` through `parse`, if the flag was given.
    pub fn opt_with<T>(
        &mut self,
        name: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let mut found = None;
        for i in 0..self.args.len() {
            if self.args[i].0 == name {
                self.args[i].1 = true;
                let value = self.args.get_mut(i + 1);
                let (value, claimed) = value.ok_or_else(|| format!("missing value for {name}"))?;
                *claimed = true;
                let parsed = parse(value);
                found = Some(parsed.ok_or_else(|| format!("bad value {value:?} for {name}"))?);
            }
        }
        Ok(found)
    }

    /// The value of `name VALUE`, if the flag was given.
    pub fn opt<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.opt_with(name, |v| v.parse().ok())
    }

    /// The value of `name VALUE`, or `default`.
    pub fn value<T: FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        Ok(self.opt(name)?.unwrap_or(default))
    }

    /// The next unclaimed argument that is not a flag, parsed as `what`.
    pub fn positional<T: FromStr>(&mut self, what: &str) -> Result<Option<T>, String> {
        let mut unclaimed = self.args.iter_mut().filter(|(_, claimed)| !claimed);
        let Some((arg, claimed)) = unclaimed.find(|(arg, _)| !arg.starts_with('-')) else {
            return Ok(None);
        };
        *claimed = true;
        let parsed = arg.parse().map(Some);
        parsed.map_err(|_| format!("bad value {arg:?} for {what}"))
    }

    /// A positional count (`cycle_scale`, `num_jobs`, `seeds`): a positive
    /// integer, or `default` when absent.
    pub fn count(&mut self, what: &str, default: u64) -> Result<u64, String> {
        let given = self.positional::<NonZeroU64>(what)?;
        Ok(given.map_or(default, NonZeroU64::get))
    }

    /// `--fast [--fast-threshold F]` as a policy ([`fastsim_policy`]).
    pub fn fastsim(&mut self) -> Result<Option<FastSimPolicy>, String> {
        let threshold = self.opt("--fast-threshold")?;
        fastsim_policy(self.switch("--fast"), threshold)
    }

    /// Refuses the first argument nothing claimed.
    pub fn finish(self) -> Result<(), String> {
        match self.args.iter().find(|(_, claimed)| !claimed) {
            Some((arg, _)) if arg.starts_with('-') => Err(format!("unknown flag {arg:?}")),
            Some((arg, _)) => Err(format!("unexpected argument {arg:?}")),
            None => Ok(()),
        }
    }
}

/// Parses the process's command line with `parse` ([`Flags::parse`]); on an
/// error prints it to stderr — followed by `usage`, unless that is empty:
/// the many-flag binaries name the offending flag and leave the list to
/// their module docs — and exits 2.
pub fn parse_or_exit<T>(
    bin: &str,
    usage: &str,
    parse: impl FnOnce(&mut Flags) -> Result<T, String>,
) -> T {
    Flags::parse(std::env::args().skip(1), parse).unwrap_or_else(|e| {
        eprintln!("{bin}: {e}");
        if !usage.is_empty() {
            eprintln!("usage: {bin} {usage}");
        }
        std::process::exit(2)
    })
}

/// The command line of the closed-system binaries: an optional
/// `[cycle_scale]` (default 1000; 1 = full paper scale).
pub fn scale_or_exit(bin: &str) -> u64 {
    parse_or_exit(bin, "[cycle_scale]", |flags| {
        flags.count("cycle_scale", 1000)
    })
}

/// The one rule behind `--fast [--fast-threshold F]` on every binary that
/// takes the pair and `fastsim-compare --thresholds`: a threshold implies
/// fast mode and must be a finite number above zero; fast mode without one
/// runs [`FastSimPolicy::default`]; neither is full detail (`None`).
pub fn fastsim_policy(fast: bool, threshold: Option<f64>) -> Result<Option<FastSimPolicy>, String> {
    match threshold {
        Some(t) if t.is_finite() && t > 0.0 => Ok(Some(FastSimPolicy::with_threshold(t))),
        Some(t) => Err(format!(
            "the fast-sim threshold must be a finite number above 0, got {t}"
        )),
        None => Ok(fast.then(FastSimPolicy::default)),
    }
}

/// The trace flag group — `--jobs --mean-interarrival --mean-length
/// --phased-fraction --seed` — parsed into the spec it configures
/// (`sos-cluster`, `sos-loadgen`, `fastsim-compare`). The binaries differ
/// only in how many jobs they offer by default.
pub fn trace_flags(flags: &mut Flags, default_jobs: usize) -> Result<ArrivalTraceSpec, String> {
    let spec = ArrivalTraceSpec {
        mean_interarrival: flags.value("--mean-interarrival", 400_000)?,
        mean_job_cycles: flags.value("--mean-length", 1_200_000)?,
        num_jobs: flags.value("--jobs", default_jobs)?,
        phased_fraction: flags.value("--phased-fraction", 0.25)?,
        seed: flags.value("--seed", 42)?,
    };
    if spec.num_jobs == 0 || spec.mean_interarrival == 0 || spec.mean_job_cycles == 0 {
        return Err("--jobs, --mean-interarrival and --mean-length must be positive".into());
    }
    Ok(spec)
}

/// The engine flag group — `--smt --timeslice --predictor
/// --sample-schedules --base-interval --seed --fast --fast-threshold` —
/// parsed into the engine configuration (`sos-serve`, `sos-cluster`). The
/// binaries differ only in their default seed.
pub fn engine_flags(flags: &mut Flags, default_seed: u64) -> Result<OnlineConfig, String> {
    let predictor = flags
        .opt_with("--predictor", PredictorKind::parse)
        .map_err(|e| format!("{e} (one of {})", PredictorKind::names()))?;
    let cfg = OnlineConfig {
        smt: flags.value("--smt", 4)?,
        timeslice: flags.value("--timeslice", 5_000)?,
        sample_schedules: flags.value("--sample-schedules", 6)?,
        predictor: predictor.unwrap_or(PredictorKind::Ipc),
        drift_threshold: Some(0.35),
        base_interval: flags.value("--base-interval", 500_000)?,
        seed: flags.value("--seed", default_seed)?,
        fastsim: flags.fastsim()?,
    };
    if cfg.smt == 0 || cfg.timeslice == 0 || cfg.sample_schedules == 0 || cfg.base_interval == 0 {
        return Err(
            "--smt, --timeslice, --sample-schedules and --base-interval must be positive".into(),
        );
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    type Parsed = (bool, u64, Option<String>, Option<FastSimPolicy>, u64, u64);

    fn split(line: &str) -> impl Iterator<Item = String> + '_ {
        line.split_whitespace().map(str::to_string)
    }

    /// What a small binary with every kind of request makes of a command line.
    fn parse(line: &str) -> Result<Parsed, String> {
        Flags::parse(split(line), |f| {
            let once = f.switch("--once");
            let jobs = f.value("--jobs", 7)?;
            let out = f.opt("--out")?;
            let fast = f.fastsim()?;
            let (scale, seeds) = (f.count("scale", 1000)?, f.count("seeds", 3)?);
            Ok((once, jobs, out, fast, scale, seeds))
        })
    }

    #[test]
    fn flags_pull_in_any_order_and_refuse_what_nobody_asked_for() {
        let out = Some("f.json".to_string());
        let with = |t| Some(FastSimPolicy::with_threshold(t));
        let default = Some(FastSimPolicy::default());
        let accepted = [
            ("", (false, 7, None, None, 1000, 3)),
            ("6000", (false, 7, None, None, 6000, 3)),
            ("--once 6000 2", (true, 7, None, None, 6000, 2)),
            ("6000 --jobs 9 2 --once", (true, 9, None, None, 6000, 2)),
            ("--out f.json 5 --jobs 1", (false, 1, out, None, 5, 3)),
            // A flag given twice keeps its last value.
            ("--jobs 1 --jobs 2", (false, 2, None, None, 1000, 3)),
            // A threshold implies --fast; --fast alone is the default policy;
            // the flags may sit anywhere among the positionals.
            (
                "6000 --fast-threshold 0.1 40",
                (false, 7, None, with(0.1), 6000, 40),
            ),
            (
                "--fast --fast-threshold 0.2",
                (false, 7, None, with(0.2), 1000, 3),
            ),
            ("--fast 6000", (false, 7, None, default, 6000, 3)),
        ];
        for (line, expected) in accepted {
            assert_eq!(parse(line), Ok(expected), "{line:?}");
        }
        let refused = [
            ("--jobs", "missing value for --jobs"),
            (
                "--fast --fast-threshold",
                "missing value for --fast-threshold",
            ),
            ("--jobs 4o", "bad value \"4o\" for --jobs"),
            (
                "--fast-threshold abc",
                "bad value \"abc\" for --fast-threshold",
            ),
            ("6O00", "bad value \"6O00\" for scale"),
            ("0", "bad value \"0\" for scale"),
            ("6000 0", "bad value \"0\" for seeds"),
            ("--no-such-flag 6000", "unknown flag \"--no-such-flag\""),
            ("-5", "unknown flag \"-5\""),
            ("6000 3 9", "unexpected argument \"9\""),
        ];
        for (line, message) in refused {
            assert_eq!(parse(line), Err(message.to_string()), "{line:?}");
        }
        for bad in ["NaN", "inf", "0", "-1"] {
            let refused = parse(&format!("6000 --fast-threshold {bad}")).unwrap_err();
            assert!(refused.contains("finite number above 0"), "{refused}");
        }
    }

    #[test]
    fn flag_groups_parse_into_the_structs_they_configure() {
        let both = |line: &str| {
            Flags::parse(split(line), |f| {
                Ok((trace_flags(f, 60)?, engine_flags(f, 42)?))
            })
        };
        let (trace, engine) = both("").expect("defaults");
        assert_eq!((trace.num_jobs, trace.seed, engine.seed), (60, 42, 42));
        assert_eq!((engine.smt, engine.predictor), (4, PredictorKind::Ipc));
        // One --seed seeds the trace and the engine alike.
        let (trace, engine) = both("--seed 9 --smt 2 --fast").unwrap();
        assert_eq!((trace.seed, engine.seed, engine.smt), (9, 9, 2));
        assert_eq!(engine.fastsim, Some(FastSimPolicy::default()));
        // What the engines `assert!` on is refused here.
        let zeroes = "--smt --timeslice --sample-schedules --base-interval --jobs --mean-length";
        for flag in zeroes.split(' ') {
            let refused = both(&format!("{flag} 0")).unwrap_err();
            assert!(refused.contains("must be positive"), "{flag} 0: {refused}");
        }
        let refused = both("--predictor psychic").unwrap_err();
        assert!(refused.contains("one of"), "{refused}");
    }
}

//! `BENCHMARK.json`: the single list of workload and metric names, units,
//! directions and regression bounds. The harness reads it at start-up so the
//! names it prints can never drift from the names the contract declares.

use serde::Deserialize;
use std::path::Path;

/// Where the contract file lives, relative to the repository root.
pub const BENCHMARK_JSON: &str = "BENCHMARK.json";

/// One declared workload.
#[derive(Clone, Debug, Deserialize)]
pub struct WorkloadDecl {
    /// Workload name, as passed to `--workload`.
    pub name: String,
    /// One line on why the workload exists.
    pub why: String,
}

/// One declared metric.
#[derive(Clone, Debug, Deserialize)]
pub struct MetricDecl {
    /// Metric name.
    pub name: String,
    /// Unit the value is printed in.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the reference by which the metric may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Clone, Debug, Deserialize)]
pub struct BenchSpec {
    /// How long one run measures, in seconds.
    pub run_seconds: u64,
    /// The workloads.
    pub workloads: Vec<WorkloadDecl>,
    /// Metrics printed by an untraced run.
    pub end_to_end: Vec<MetricDecl>,
    /// Metrics printed by a traced run.
    pub per_layer: Vec<MetricDecl>,
}

impl BenchSpec {
    /// Reads and validates `BENCHMARK.json` from the current directory (the
    /// repository root).
    pub fn load() -> Result<Self, String> {
        let text = std::fs::read_to_string(Path::new(BENCHMARK_JSON)).map_err(|e| {
            format!("cannot read {BENCHMARK_JSON} (run from the repository root): {e}")
        })?;
        let spec: BenchSpec =
            serde_json::from_str(&text).map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?;
        spec.validate()?;
        Ok(spec)
    }

    fn validate(&self) -> Result<(), String> {
        let names = self
            .workloads
            .iter()
            .map(|w| &w.name)
            .chain(self.end_to_end.iter().map(|m| &m.name))
            .chain(self.per_layer.iter().map(|m| &m.name));
        let mut seen = std::collections::BTreeSet::new();
        for name in names {
            if !valid_name(name) {
                return Err(format!("{BENCHMARK_JSON}: bad name {name:?}"));
            }
            if !seen.insert(name) {
                return Err(format!("{BENCHMARK_JSON}: name {name:?} is used twice"));
            }
        }
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            if m.better != "lower" && m.better != "higher" {
                return Err(format!("{BENCHMARK_JSON}: {}: bad direction", m.name));
            }
        }
        Ok(())
    }

    /// The metrics a run with the given tracing mode must print.
    pub fn metrics(&self, traced: bool) -> &[MetricDecl] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// The contract's name rule: starts with a letter or digit, then at most 63
/// more of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_charset() {
        for ok in [
            "sim_mips",
            "smtsim.mips.c8.memory",
            "serve.submit_ms_p95",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let too_long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "pct%",
            "a/b",
            "é",
            &too_long,
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn committed_contract_parses_and_names_are_unique() {
        // Tests run from benchmark/; the contract sits one level up.
        let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
        let spec: BenchSpec = serde_json::from_str(&text).expect("parses");
        spec.validate().expect("valid");
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
    }
}

//! `benchmark/expected.json`: simulated outputs pinned for a few seeds.
//!
//! The simulator is deterministic, so for a given (workload, seed, seconds)
//! every simulated count and rate is exact. The file pins them for the seeds
//! it lists; a run with such a seed fails one operation per value that moved.
//! Any other seed runs with the workloads' internal checks only.

use crate::outcome::{Checks, Sim};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// Where the pins live, relative to the repository root.
pub const EXPECTED_JSON: &str = "benchmark/expected.json";

/// The seed key of pins that hold for every seed.
pub const ANY_SEED: &str = "any";

/// The parsed pin file.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Expected {
    /// The `--seconds` the pins were taken at (work scales with it, so pins
    /// hold for this value only).
    pub seconds: u64,
    /// workload -> seed -> key -> printed value. A workload whose simulated
    /// inputs do not depend on the seed is pinned once, under [`ANY_SEED`].
    pub pins: BTreeMap<String, BTreeMap<String, BTreeMap<String, String>>>,
}

impl Expected {
    /// Reads the pin file; a missing file pins nothing.
    pub fn load() -> Result<Self, String> {
        match std::fs::read_to_string(Path::new(EXPECTED_JSON)) {
            Ok(text) => serde_json::from_str(&text).map_err(|e| format!("{EXPECTED_JSON}: {e}")),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Expected::default()),
            Err(e) => Err(format!("{EXPECTED_JSON}: {e}")),
        }
    }

    /// The pinned outputs for a run, if its seed is pinned at its run length.
    pub fn pinned(
        &self,
        workload: &str,
        seed: u64,
        seconds: u64,
    ) -> Option<&BTreeMap<String, String>> {
        if seconds != self.seconds {
            return None;
        }
        let by_seed = self.pins.get(workload)?;
        by_seed
            .get(&seed.to_string())
            .or_else(|| by_seed.get(ANY_SEED))
    }

    /// Replaces the pins of one (workload, seed) - of every seed when the
    /// workload ignores it - and rewrites the file.
    pub fn pin(
        &mut self,
        workload: &str,
        seed: Option<u64>,
        seconds: u64,
        sim: &Sim,
    ) -> Result<(), String> {
        if self.seconds != seconds {
            // Pins taken at another run length no longer apply.
            self.pins.clear();
            self.seconds = seconds;
        }
        self.pins.entry(workload.to_string()).or_default().insert(
            seed.map_or(ANY_SEED.to_string(), |s| s.to_string()),
            sim.0.clone(),
        );
        let text = serde_json::to_string_pretty(self).map_err(|e| e.to_string())?;
        std::fs::write(EXPECTED_JSON, text + "\n").map_err(|e| format!("{EXPECTED_JSON}: {e}"))
    }
}

/// Compares a run's simulated outputs with its pins: one operation per key
/// on either side, failed when the value differs or the key is missing.
pub fn compare(sim: &Sim, pinned: &BTreeMap<String, String>, checks: &mut Checks) {
    let keys: std::collections::BTreeSet<&String> = sim.0.keys().chain(pinned.keys()).collect();
    for key in keys {
        let (got, want) = (sim.0.get(key), pinned.get(key));
        checks.op(got == want, || {
            format!("pinned output {key}: expected {want:?}, got {got:?}")
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(pairs: &[(&str, &str)]) -> Sim {
        Sim(pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect())
    }

    #[test]
    fn equal_outputs_pass_one_operation_per_key() {
        let s = sim(&[("a", "1"), ("b", "2.5")]);
        let mut c = Checks::default();
        compare(&s, &s.0, &mut c);
        assert_eq!((c.attempted, c.failed), (2, 0));
    }

    #[test]
    fn moved_missing_and_unpinned_values_each_fail() {
        let got = sim(&[("same", "1"), ("moved", "2"), ("new", "3")]);
        let want = sim(&[("same", "1"), ("moved", "9"), ("gone", "4")]);
        let mut c = Checks::default();
        compare(&got, &want.0, &mut c);
        assert_eq!((c.attempted, c.failed), (4, 3));
    }

    #[test]
    fn pins_apply_to_their_seed_and_run_length_only() {
        let mut e = Expected {
            seconds: 12,
            ..Expected::default()
        };
        e.pins
            .entry("pipe_matrix".into())
            .or_default()
            .insert("42".into(), sim(&[("k", "v")]).0);
        assert!(e.pinned("pipe_matrix", 42, 12).is_some());
        assert!(e.pinned("pipe_matrix", 42, 6).is_none());
        assert!(e.pinned("pipe_matrix", 43, 12).is_none());
        assert!(e.pinned("batch_sos", 42, 12).is_none());
        e.pins
            .entry("open_fast".into())
            .or_default()
            .insert(ANY_SEED.into(), sim(&[("k", "v")]).0);
        assert!(e.pinned("open_fast", 7, 12).is_some());
        assert!(e.pinned("open_fast", 7, 6).is_none());
    }

    #[test]
    fn committed_pins_parse() {
        // Tests run from benchmark/.
        let text = std::fs::read_to_string("expected.json").expect("expected.json");
        let e: Expected = serde_json::from_str(&text).expect("parses");
        for workload in [
            "pipe_matrix",
            "batch_sos",
            "open_fast",
            "cluster_sat",
            "serve_loop",
        ] {
            for seed in [42, 1285] {
                assert!(
                    e.pinned(workload, seed, e.seconds).is_some(),
                    "{workload} seed {seed} is not pinned"
                );
            }
        }
    }
}

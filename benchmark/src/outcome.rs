//! What one run of one workload produces: timings, exact simulated outputs,
//! and the count of operations attempted and failed.

use crate::stats;
use std::collections::BTreeMap;

/// Operations attempted and failed. Every simulated timeslice, job, request
/// and pinned-value comparison a workload makes is one operation.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Checks {
    /// Books one operation; a failure is described on stderr.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ops(1, u64::from(!ok), what);
    }

    /// Books `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("FAILED ({failed} of {attempted}): {}", what());
        }
    }

    /// Failed operations as a share of those attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Exact simulated outputs of a run, as `key -> printed value`. They are a
/// function of (workload, seed, seconds) alone, so two runs of the same code
/// must agree on every one of them, and pinned seeds on the committed values.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Sim(pub BTreeMap<String, String>);

impl Sim {
    /// Records an integer output.
    pub fn int(&mut self, key: impl Into<String>, v: u64) {
        self.0.insert(key.into(), v.to_string());
    }

    /// Records a floating-point output with every digit (`{:?}` round-trips).
    pub fn float(&mut self, key: impl Into<String>, v: f64) {
        self.0.insert(key.into(), format!("{v:?}"));
    }

    /// FNV-1a over the `key=value` lines: one number to compare two runs by.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::default();
        for (k, v) in &self.0 {
            h.write(k.as_bytes());
            h.write(b"=");
            h.write(v.as_bytes());
            h.write(b"\n");
        }
        h.0
    }
}

/// 64-bit FNV-1a, for digests of serialised reports.
pub struct Fnv1a(pub u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Hash of one byte string.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::default();
        h.write(bytes);
        h.0
    }
}

/// Everything a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Run {
    /// Seconds each repetition of the repeatable set-up took.
    pub setup_reps_s: Vec<f64>,
    /// Seconds the timed section took.
    pub wall_s: f64,
    /// Simulated instructions committed by useful work in the timed section.
    pub instructions: u64,
    /// Milliseconds every operation of the timed section took (what an
    /// operation is differs per workload; see the README).
    pub ops_ms: Vec<f64>,
    /// Host time of the detailed run over that of the fast-simulated run of
    /// the same inputs; `None` (reported as 1) where fast simulation is off.
    pub fast_speedup_x: Option<f64>,
    /// Peak resident set of the process that does the simulating, in MiB.
    pub peak_rss_mb: f64,
    /// Exact simulated outputs.
    pub sim: Sim,
    /// Whether the simulated inputs ignored `--seed`, so that `sim` holds for
    /// (and is pinned for) every seed.
    pub any_seed: bool,
    /// Operations attempted and failed.
    pub checks: Checks,
    /// Per-layer metrics (filled by traced runs only).
    pub layers: BTreeMap<String, f64>,
}

impl Run {
    /// Set-up time: the median repetition.
    pub fn setup_s(&self) -> f64 {
        stats::median(&self.setup_reps_s)
    }

    /// Committed simulated instructions per host second, in millions.
    pub fn sim_mips(&self) -> f64 {
        self.instructions as f64 / self.wall_s / 1e6
    }

    /// The end-to-end metrics by name.
    pub fn end_to_end(&self) -> BTreeMap<String, f64> {
        BTreeMap::from([
            ("setup_s".to_string(), self.setup_s()),
            ("sim_mips".to_string(), self.sim_mips()),
            (
                "op_p50_ms".to_string(),
                stats::blocked_percentile(&self.ops_ms, 50.0),
            ),
            (
                "fast_speedup_x".to_string(),
                self.fast_speedup_x.unwrap_or(1.0),
            ),
            ("peak_rss_mb".to_string(), self.peak_rss_mb),
        ])
    }

    /// Sets one per-layer metric.
    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.insert(name.into(), value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_frac_counts_every_kind_of_operation() {
        let mut c = Checks::default();
        assert_eq!(c.failed_frac(), 0.0);
        c.ops(150, 0, || "jobs".into());
        c.op(true, || "pinned value".into());
        c.op(false, || "expected failure printed by this test".into());
        c.ops(48, 1, || "expected failure printed by this test".into());
        assert_eq!((c.attempted, c.failed), (200, 2));
        assert!((c.failed_frac() - 0.01).abs() < 1e-15);
    }

    #[test]
    fn sim_digest_depends_on_keys_and_values_only() {
        let mut a = Sim::default();
        a.int("b", 2);
        a.float("a", 0.1 + 0.2);
        let mut b = Sim::default();
        b.float("a", 0.1 + 0.2);
        b.int("b", 2);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.0["a"], "0.30000000000000004");
        b.int("b", 3);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn end_to_end_metrics_follow_their_definitions() {
        let run = Run {
            setup_reps_s: vec![0.5, 0.3, 0.4],
            wall_s: 2.0,
            instructions: 8_000_000,
            ops_ms: (1..=20).map(f64::from).collect(),
            peak_rss_mb: 12.5,
            ..Run::default()
        };
        let m = run.end_to_end();
        assert_eq!(m["setup_s"], 0.4);
        assert_eq!(m["sim_mips"], 4.0);
        assert_eq!(m["op_p50_ms"], 10.0);
        assert_eq!(m["peak_rss_mb"], 12.5);
        assert_eq!(m["fast_speedup_x"], 1.0);
    }
}

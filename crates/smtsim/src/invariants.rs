//! Conservation-law checks over the hardware counters (the `sim-check`
//! correctness layer).
//!
//! Every figure the reproduction derives — `WS(t)`, `AllConf`, the Table-3
//! predictor inputs — is a ratio of counters from one timeslice, so a single
//! accounting bug in the engine silently skews every result. This module
//! states the laws those counters must obey and checks them.
//!
//! [`check_timeslice`] validates the externally visible counters of a
//! [`TimesliceStats`] and is always available (tests and downstream crates
//! call it directly). With the `check-invariants` cargo feature enabled, the
//! pipeline engine additionally self-checks after every timeslice (plus
//! engine-internal occupancy checks every cycle) and panics with a
//! structured [`InvariantViolation`] naming the cycle, thread, and counter
//! that broke — a tripwire for future perf work on the hot path.
//!
//! The laws:
//!
//! * per thread: `committed <= fetched`, class counts sum to `committed`,
//!   `dl1_misses <= dl1_refs`, `il1_misses <= il1_refs`;
//! * per-thread cache counters sum to the global [`CacheStats`](crate::cache::CacheStats) totals
//!   (`dl1_refs`, `dl1_misses`, `il1_refs`, `il1_misses`);
//! * per resource: conflict cycle-counts never exceed the slice's cycles;
//! * hierarchy: misses never exceed references at every level, and L2
//!   references equal L1 data + instruction misses (no other L2 clients);
//! * TLBs and branch predictor: misses/mispredictions never exceed
//!   references/predictions.
//!
//! Engine-internal (feature-gated, per cycle): issue-queue and renaming-pool
//! occupancy never exceed configured capacity, per-thread in-flight counts
//! never exceed the window cap, and `committed <= issued <= fetched`.

use crate::counters::Resource;
use crate::stats::TimesliceStats;

/// A broken conservation law, with enough structure to name the culprit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Cycle (within the timeslice) at which the violation was detected.
    /// Timeslice-granularity checks report the slice length (detection
    /// happens at the end of the slice).
    pub cycle: u64,
    /// The hardware context (thread slot) involved, if the law is per-thread.
    pub thread: Option<usize>,
    /// Name of the counter (or structure) that broke the law.
    pub counter: &'static str,
    /// Human-readable statement of the violated law with the observed values.
    pub detail: String,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invariant violated at cycle {}", self.cycle)?;
        if let Some(t) = self.thread {
            write!(f, ", thread {t}")?;
        }
        write!(f, ", counter `{}`: {}", self.counter, self.detail)
    }
}

impl std::error::Error for InvariantViolation {}

impl InvariantViolation {
    fn new(cycle: u64, thread: Option<usize>, counter: &'static str, detail: String) -> Self {
        InvariantViolation {
            cycle,
            thread,
            counter,
            detail,
        }
    }
}

macro_rules! ensure {
    ($cond:expr, $cycle:expr, $thread:expr, $counter:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(Box::new(InvariantViolation::new(
                $cycle,
                $thread,
                $counter,
                format!($($fmt)+),
            )));
        }
    };
}

/// Checks every conservation law the externally visible counters of one
/// timeslice must obey. Returns the first violation found.
///
/// This is cheap (a few dozen integer comparisons per slice) and pure; the
/// `check-invariants` feature only controls whether the engine calls it
/// automatically, not whether it exists.
pub fn check_timeslice(stats: &TimesliceStats) -> Result<(), Box<InvariantViolation>> {
    let cyc = stats.cycles;
    for (i, t) in stats.threads.iter().enumerate() {
        let th = Some(i);
        ensure!(
            t.committed <= t.fetched,
            cyc,
            th,
            "committed",
            "committed ({}) exceeds fetched ({})",
            t.committed,
            t.fetched
        );
        let class_sum: u64 = t.class_counts.iter().sum();
        ensure!(
            class_sum == t.committed,
            cyc,
            th,
            "class_counts",
            "class counts sum to {} but committed is {}",
            class_sum,
            t.committed
        );
        ensure!(
            t.dl1_misses <= t.dl1_refs,
            cyc,
            th,
            "dl1_misses",
            "dl1_misses ({}) exceeds dl1_refs ({})",
            t.dl1_misses,
            t.dl1_refs
        );
        ensure!(
            t.il1_misses <= t.il1_refs,
            cyc,
            th,
            "il1_misses",
            "il1_misses ({}) exceeds il1_refs ({})",
            t.il1_misses,
            t.il1_refs
        );
    }

    // Per-thread cache counters must sum to the global hierarchy counters:
    // the same physical events, booked twice.
    let sums: [(&'static str, u64, u64); 4] = [
        (
            "dl1_refs",
            stats.threads.iter().map(|t| t.dl1_refs).sum(),
            stats.cache.dl1_refs,
        ),
        (
            "dl1_misses",
            stats.threads.iter().map(|t| t.dl1_misses).sum(),
            stats.cache.dl1_misses,
        ),
        (
            "il1_refs",
            stats.threads.iter().map(|t| t.il1_refs).sum(),
            stats.cache.il1_refs,
        ),
        (
            "il1_misses",
            stats.threads.iter().map(|t| t.il1_misses).sum(),
            stats.cache.il1_misses,
        ),
    ];
    for (name, per_thread, global) in sums {
        ensure!(
            per_thread == global,
            cyc,
            None,
            name,
            "per-thread sum ({per_thread}) disagrees with the hierarchy counter ({global})"
        );
    }

    for r in Resource::ALL {
        ensure!(
            stats.conflicts.get(r) <= cyc,
            cyc,
            None,
            "conflicts",
            "{r} conflict count ({}) exceeds the slice's {cyc} cycles",
            stats.conflicts.get(r)
        );
    }

    let c = &stats.cache;
    ensure!(
        c.dl1_misses <= c.dl1_refs,
        cyc,
        None,
        "cache.dl1_misses",
        "dl1_misses ({}) exceeds dl1_refs ({})",
        c.dl1_misses,
        c.dl1_refs
    );
    ensure!(
        c.il1_misses <= c.il1_refs,
        cyc,
        None,
        "cache.il1_misses",
        "il1_misses ({}) exceeds il1_refs ({})",
        c.il1_misses,
        c.il1_refs
    );
    ensure!(
        c.l2_misses <= c.l2_refs,
        cyc,
        None,
        "cache.l2_misses",
        "l2_misses ({}) exceeds l2_refs ({})",
        c.l2_misses,
        c.l2_refs
    );
    ensure!(
        c.l2_refs == c.dl1_misses + c.il1_misses,
        cyc,
        None,
        "cache.l2_refs",
        "l2_refs ({}) must equal dl1_misses + il1_misses ({} + {})",
        c.l2_refs,
        c.dl1_misses,
        c.il1_misses
    );

    for (name, tlb) in [("dtlb", &stats.dtlb), ("itlb", &stats.itlb)] {
        ensure!(
            tlb.misses <= tlb.refs,
            cyc,
            None,
            name,
            "misses ({}) exceed refs ({})",
            tlb.misses,
            tlb.refs
        );
    }
    ensure!(
        stats.branches.mispredicted <= stats.branches.predicted,
        cyc,
        None,
        "branches.mispredicted",
        "mispredicted ({}) exceeds predicted ({})",
        stats.branches.mispredicted,
        stats.branches.predicted
    );
    Ok(())
}

/// Checks [`check_timeslice`] and panics with the structured diagnostic on
/// failure. The engine calls this (feature-gated) after every timeslice.
pub fn assert_timeslice(stats: &TimesliceStats) {
    if let Err(v) = check_timeslice(stats) {
        panic!("{v}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ThreadStats;

    fn good_slice() -> TimesliceStats {
        let mut t = ThreadStats {
            fetched: 100,
            committed: 80,
            dl1_refs: 20,
            dl1_misses: 5,
            il1_refs: 10,
            il1_misses: 1,
            ..Default::default()
        };
        t.class_counts[0] = 80;
        TimesliceStats {
            cycles: 1_000,
            threads: vec![t],
            cache: crate::cache::CacheStats {
                dl1_refs: 20,
                dl1_misses: 5,
                il1_refs: 10,
                il1_misses: 1,
                l2_refs: 6,
                l2_misses: 2,
            },
            ..Default::default()
        }
    }

    #[test]
    fn consistent_slice_passes() {
        check_timeslice(&good_slice()).unwrap();
    }

    #[test]
    fn committed_over_fetched_is_caught() {
        let mut s = good_slice();
        s.threads[0].committed = 200;
        s.threads[0].class_counts[0] = 200;
        let v = check_timeslice(&s).unwrap_err();
        assert_eq!(v.counter, "committed");
        assert_eq!(v.thread, Some(0));
        assert_eq!(v.cycle, 1_000);
        assert!(v.to_string().contains("thread 0"), "{v}");
    }

    #[test]
    fn class_count_drift_is_caught() {
        let mut s = good_slice();
        s.threads[0].class_counts[3] += 1;
        let v = check_timeslice(&s).unwrap_err();
        assert_eq!(v.counter, "class_counts");
    }

    #[test]
    fn per_thread_cache_sum_mismatch_is_caught() {
        let mut s = good_slice();
        // Break the per-thread/global agreement while keeping the
        // per-thread law itself (misses <= refs) satisfied.
        s.threads[0].dl1_misses += 1;
        let v = check_timeslice(&s).unwrap_err();
        assert_eq!(v.counter, "dl1_misses");
        assert_eq!(v.thread, None);
    }

    #[test]
    fn conflict_count_over_cycles_is_caught() {
        let mut s = good_slice();
        s.conflicts.fp_queue = 2_000;
        let v = check_timeslice(&s).unwrap_err();
        assert_eq!(v.counter, "conflicts");
        assert!(v.detail.contains("fp_queue"), "{}", v.detail);
    }

    #[test]
    fn l2_ref_conservation_is_caught() {
        let mut s = good_slice();
        s.cache.l2_refs = 99;
        let v = check_timeslice(&s).unwrap_err();
        assert_eq!(v.counter, "cache.l2_refs");
    }

    #[test]
    #[should_panic(expected = "invariant violated at cycle 1000")]
    fn assert_timeslice_panics_with_diagnostic() {
        let mut s = good_slice();
        s.threads[0].committed = 200;
        s.threads[0].class_counts[0] = 200;
        assert_timeslice(&s);
    }
}

//! Execution statistics reported per timeslice.

use crate::branch::BranchStats;
use crate::cache::CacheStats;
use crate::counters::ConflictCounters;
use crate::tlb::TlbStats;
use crate::trace::{InstrClass, StreamId};
use serde::{Deserialize, Serialize};

/// Hit rate in percent from reference and miss counts; 100.0 when there were
/// no references (a stream that never touched the cache never missed).
///
/// The one source of truth for hit-rate arithmetic — [`ThreadStats`] and
/// [`CacheStats`] both delegate here.
pub fn hit_pct(refs: u64, misses: u64) -> f64 {
    debug_assert!(misses <= refs, "misses ({misses}) exceed refs ({refs})");
    if refs == 0 {
        100.0
    } else {
        100.0 * (refs - misses) as f64 / refs as f64
    }
}

/// Per-thread execution counts for one timeslice.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadStats {
    /// The stream (job thread) that ran on this context.
    pub stream: StreamId,
    /// Instructions fetched.
    pub fetched: u64,
    /// Instructions completed (committed).
    pub committed: u64,
    /// Committed instructions per class, indexed by [`InstrClass::ALL`] order.
    pub class_counts: [u64; 8],
    /// Cycles this thread spent reported blocked by its source (e.g. at a
    /// barrier whose siblings are not scheduled).
    pub blocked_cycles: u64,
    /// L1 data-cache references issued by this thread.
    pub dl1_refs: u64,
    /// L1 data-cache misses suffered by this thread.
    pub dl1_misses: u64,
    /// Instruction-cache line fetches for this thread.
    pub il1_refs: u64,
    /// Instruction-cache misses for this thread.
    pub il1_misses: u64,
}

impl ThreadStats {
    /// Committed IPC over an interval of `cycles`.
    pub fn ipc(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.committed as f64 / cycles as f64
        }
    }

    /// Committed instructions of one class.
    pub fn class_count(&self, class: InstrClass) -> u64 {
        let idx = InstrClass::ALL
            .iter()
            .position(|&c| c == class)
            .expect("class in ALL");
        self.class_counts[idx]
    }

    /// Committed floating-point arithmetic instructions.
    pub fn fp_ops(&self) -> u64 {
        self.class_count(InstrClass::FpAdd)
            + self.class_count(InstrClass::FpMul)
            + self.class_count(InstrClass::FpDiv)
    }

    /// Committed integer arithmetic instructions.
    pub fn int_ops(&self) -> u64 {
        self.class_count(InstrClass::IntAlu) + self.class_count(InstrClass::IntMul)
    }

    /// This thread's own L1 data-cache hit rate in percent (100 when the
    /// thread made no references).
    pub fn dl1_hit_pct(&self) -> f64 {
        hit_pct(self.dl1_refs, self.dl1_misses)
    }
}

/// Everything the hardware counters report about one timeslice.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TimesliceStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Per-context thread statistics, in the order threads were attached.
    pub threads: Vec<ThreadStats>,
    /// Cycles-with-conflict per shared resource.
    pub conflicts: ConflictCounters,
    /// Cache reference/miss counts.
    pub cache: CacheStats,
    /// Data TLB counts.
    pub dtlb: TlbStats,
    /// Instruction TLB counts.
    pub itlb: TlbStats,
    /// Branch predictor counts.
    pub branches: BranchStats,
}

impl TimesliceStats {
    /// Total committed instructions across all threads.
    pub fn total_committed(&self) -> u64 {
        self.threads.iter().map(|t| t.committed).sum()
    }

    /// Aggregate committed IPC.
    pub fn total_ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_committed() as f64 / self.cycles as f64
        }
    }

    /// Statistics for the thread running stream `id`, if it ran here.
    pub fn thread(&self, id: StreamId) -> Option<&ThreadStats> {
        self.threads.iter().find(|t| t.stream == id)
    }

    /// Committed FP and integer *arithmetic* instructions in percent of all
    /// committed instructions (the Diversity predictor's inputs). Returns
    /// `(fp_pct, int_pct)`.
    ///
    /// The denominator is every committed instruction, but loads, stores, and
    /// branches belong to neither numerator — so `fp_pct + int_pct` is the
    /// arithmetic fraction of the mix and is strictly below 100 whenever any
    /// memory or control instruction committed. Callers must not assume the
    /// two percentages are complementary. Both are 0 when nothing committed.
    pub fn fp_int_mix_pct(&self) -> (f64, f64) {
        let total = self.total_committed();
        if total == 0 {
            return (0.0, 0.0);
        }
        let fp: u64 = self.threads.iter().map(ThreadStats::fp_ops).sum();
        let int: u64 = self.threads.iter().map(ThreadStats::int_ops).sum();
        (
            100.0 * fp as f64 / total as f64,
            100.0 * int as f64 / total as f64,
        )
    }
}

/// A point-in-time snapshot of pipeline-stage occupancy, sampled by
/// [`crate::Processor::sample_occupancy`].
///
/// All fields count instructions (or registers) resident in the structure at
/// the sampled cycle, summed over hardware contexts where per-thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageOccupancy {
    /// Cycle (within the timeslice) at which the sample was taken.
    pub cycle: u64,
    /// Decoded instructions awaiting dispatch (fetch-stage output buffers).
    pub decode: usize,
    /// Entries in the shared integer issue queue (dispatch-stage output).
    pub int_queue: usize,
    /// Entries in the shared floating-point issue queue.
    pub fp_queue: usize,
    /// Integer renaming registers in use.
    pub int_regs_in_use: usize,
    /// Floating-point renaming registers in use.
    pub fp_regs_in_use: usize,
    /// Instructions in flight between dispatch and commit, all threads.
    pub inflight: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thread(committed: u64, fp: u64, int: u64) -> ThreadStats {
        let mut t = ThreadStats {
            stream: StreamId(0),
            committed,
            ..Default::default()
        };
        t.class_counts[2] = fp; // FpAdd
        t.class_counts[0] = int; // IntAlu
        t
    }

    #[test]
    fn ipc_math() {
        let t = thread(500, 0, 0);
        assert!((t.ipc(1000) - 0.5).abs() < 1e-12);
        assert_eq!(t.ipc(0), 0.0);
    }

    #[test]
    fn mix_pct() {
        let s = TimesliceStats {
            cycles: 100,
            threads: vec![thread(100, 30, 50), thread(100, 10, 20)],
            ..Default::default()
        };
        let (fp, int) = s.fp_int_mix_pct();
        assert!((fp - 20.0).abs() < 1e-9);
        assert!((int - 35.0).abs() < 1e-9);
    }

    #[test]
    fn mix_pct_excludes_memory_and_control_ops() {
        // 100 committed: 30 FpAdd, 50 IntAlu, and 20 loads/branches. The
        // misc ops dilute both percentages; they do not sum to 100.
        let mut t = thread(100, 30, 50);
        t.class_counts[5] = 12; // Load
        t.class_counts[7] = 8; // Branch
        let s = TimesliceStats {
            cycles: 100,
            threads: vec![t],
            ..Default::default()
        };
        let (fp, int) = s.fp_int_mix_pct();
        assert!((fp - 30.0).abs() < 1e-9);
        assert!((int - 50.0).abs() < 1e-9);
        assert!(fp + int < 100.0);
    }

    #[test]
    fn mix_pct_zero_when_nothing_committed() {
        let s = TimesliceStats {
            cycles: 100,
            threads: vec![thread(0, 0, 0)],
            ..Default::default()
        };
        assert_eq!(s.fp_int_mix_pct(), (0.0, 0.0));
    }

    #[test]
    fn hit_pct_shared_helper() {
        assert_eq!(hit_pct(0, 0), 100.0);
        assert!((hit_pct(200, 50) - 75.0).abs() < 1e-9);
        // The two public call sites must agree with the helper (they used to
        // be independent copies that could drift apart).
        let t = ThreadStats {
            dl1_refs: 8,
            dl1_misses: 2,
            ..Default::default()
        };
        let c = crate::cache::CacheStats {
            dl1_refs: 8,
            dl1_misses: 2,
            ..Default::default()
        };
        assert_eq!(t.dl1_hit_pct(), hit_pct(8, 2));
        assert_eq!(c.dl1_hit_pct(), hit_pct(8, 2));
    }

    #[test]
    fn total_ipc() {
        let s = TimesliceStats {
            cycles: 100,
            threads: vec![thread(120, 0, 0), thread(80, 0, 0)],
            ..Default::default()
        };
        assert!((s.total_ipc() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn thread_lookup() {
        let mut a = thread(1, 0, 0);
        a.stream = StreamId(9);
        let s = TimesliceStats {
            cycles: 1,
            threads: vec![a],
            ..Default::default()
        };
        assert!(s.thread(StreamId(9)).is_some());
        assert!(s.thread(StreamId(1)).is_none());
    }

    #[test]
    fn per_thread_dl1_hit_pct() {
        let t = ThreadStats {
            dl1_refs: 200,
            dl1_misses: 50,
            ..Default::default()
        };
        assert!((t.dl1_hit_pct() - 75.0).abs() < 1e-9);
        assert_eq!(ThreadStats::default().dl1_hit_pct(), 100.0);
    }

    #[test]
    fn fp_and_int_op_classification() {
        let mut t = ThreadStats::default();
        for (i, _) in InstrClass::ALL.iter().enumerate() {
            t.class_counts[i] = 1;
        }
        assert_eq!(t.fp_ops(), 3);
        assert_eq!(t.int_ops(), 2);
    }
}

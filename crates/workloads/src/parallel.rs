//! Multithreaded (parallel) jobs with barrier synchronization.
//!
//! The paper's parallel program ARRAY "does tight synchronization between its
//! threads. If these threads are not coscheduled, very poor performance
//! results." A [`ParallelJob`] models this: its threads share barrier state,
//! and a thread that reaches a barrier before all its siblings reports
//! [`Fetch::Blocked`] until they catch up. A sibling that is not scheduled
//! cannot catch up, so the scheduled thread spins uselessly for the rest of
//! the timeslice — exactly the pathology §6 of the paper studies.
//!
//! The loosely-synchronizing variant (`J2pb`'s ARRAY) simply uses a barrier
//! period much longer than a timeslice.

use crate::spec::Benchmark;
use crate::synth::SyntheticStream;
use smtsim::trace::{Fetch, InstructionSource, StreamId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared barrier bookkeeping for the threads of one parallel job.
#[derive(Debug)]
struct BarrierCore {
    /// Instructions completed per thread.
    counts: Vec<AtomicU64>,
    /// Instructions between barriers (0 = no synchronization).
    period: u64,
}

impl BarrierCore {
    /// The slowest sibling's instruction count.
    fn min_count(&self) -> u64 {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .min()
            .unwrap_or(0)
    }
}

/// One thread of a parallel job.
///
/// Produced by [`ParallelJob::into_threads`]; implements
/// [`InstructionSource`] and can be scheduled like any single-threaded job.
pub struct ParallelThread {
    inner: SyntheticStream,
    core: Arc<BarrierCore>,
    index: usize,
}

impl ParallelThread {
    /// Instructions this thread has emitted.
    pub fn emitted(&self) -> u64 {
        self.inner.emitted()
    }

    /// Index of this thread within its job.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Whether this thread is currently held at a barrier (its next
    /// instruction is past a barrier some sibling has not reached).
    pub fn at_barrier(&self) -> bool {
        let c = self.inner.emitted();
        self.core.period > 0
            && c > 0
            && c.is_multiple_of(self.core.period)
            && self.core.min_count() < c
    }
}

impl InstructionSource for ParallelThread {
    fn next_instr(&mut self) -> Fetch {
        if self.at_barrier() {
            return Fetch::Blocked;
        }
        let f = self.inner.next_instr();
        if matches!(f, Fetch::Instr(_)) {
            self.core.counts[self.index].store(self.inner.emitted(), Ordering::Relaxed);
        }
        f
    }

    fn id(&self) -> StreamId {
        self.inner.id()
    }
}

impl std::fmt::Debug for ParallelThread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelThread")
            .field("index", &self.index)
            .field("emitted", &self.inner.emitted())
            .field("period", &self.core.period)
            .finish_non_exhaustive()
    }
}

/// A parallel job: `n` synthetic threads of the same benchmark sharing
/// barrier state.
///
/// # Example
///
/// ```
/// use workloads::parallel::ParallelJob;
/// use workloads::spec::Benchmark;
/// use smtsim::StreamId;
///
/// // The paper's tightly-synchronizing ARRAY with 2 threads.
/// let job = ParallelJob::new(Benchmark::Array, 2, ParallelJob::TIGHT_SYNC_PERIOD,
///                            StreamId(4), 99);
/// let threads = job.into_threads();
/// assert_eq!(threads.len(), 2);
/// ```
pub struct ParallelJob {
    threads: Vec<ParallelThread>,
}

impl ParallelJob {
    /// Barrier period of the tightly-synchronizing ARRAY (instructions).
    /// Far shorter than any timeslice — even the 1/1000-scale 5k-cycle
    /// timeslice — so a thread whose sibling is unscheduled stalls almost
    /// immediately and wastes its whole timeslice.
    pub const TIGHT_SYNC_PERIOD: u64 = 100;

    /// Barrier period of the loosely-synchronizing ARRAY variant used by the
    /// paper's J2pb experiment: much longer than a timeslice, so coscheduling
    /// the siblings is unnecessary.
    pub const LOOSE_SYNC_PERIOD: u64 = 400_000;

    /// Builds a parallel job with `n` threads of `benchmark`, synchronizing
    /// every `period` instructions (`0` disables barriers). Thread `i` gets
    /// stream id `base_id + i`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(benchmark: Benchmark, n: usize, period: u64, base_id: StreamId, seed: u64) -> Self {
        assert!(n > 0, "a parallel job needs at least one thread");
        let core = Arc::new(BarrierCore {
            counts: (0..n).map(|_| AtomicU64::new(0)).collect(),
            period,
        });
        let threads = (0..n)
            .map(|i| ParallelThread {
                inner: SyntheticStream::new(
                    benchmark.profile(),
                    StreamId(base_id.0 + i as u64),
                    seed.wrapping_add(i as u64).wrapping_mul(0x9e3779b97f4a7c15),
                ),
                core: Arc::clone(&core),
                index: i,
            })
            .collect();
        ParallelJob { threads }
    }

    /// Number of threads.
    pub fn len(&self) -> usize {
        self.threads.len()
    }

    /// Whether the job has no threads (never true; see [`ParallelJob::new`]).
    pub fn is_empty(&self) -> bool {
        self.threads.is_empty()
    }

    /// Consumes the job, yielding its schedulable threads.
    pub fn into_threads(self) -> Vec<ParallelThread> {
        self.threads
    }
}

impl std::fmt::Debug for ParallelJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelJob")
            .field("threads", &self.threads.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(t: &mut ParallelThread, n: usize) -> (u64, u64) {
        // Returns (instructions produced, blocked polls).
        let mut produced = 0;
        let mut blocked = 0;
        for _ in 0..n {
            match t.next_instr() {
                Fetch::Instr(_) => produced += 1,
                Fetch::Blocked => blocked += 1,
                Fetch::Finished => break,
            }
        }
        (produced, blocked)
    }

    #[test]
    fn lone_thread_blocks_at_first_barrier() {
        let mut threads = ParallelJob::new(Benchmark::Array, 2, 100, StreamId(0), 1).into_threads();
        let (produced, blocked) = drive(&mut threads[0], 500);
        assert_eq!(produced, 100, "must stop exactly at the barrier");
        assert_eq!(blocked, 400);
        assert!(threads[0].at_barrier());
    }

    #[test]
    fn coscheduled_threads_progress_through_barriers() {
        let mut threads = ParallelJob::new(Benchmark::Array, 2, 100, StreamId(0), 1).into_threads();
        let mut produced = [0u64; 2];
        // Interleave fetches as a coschedule would.
        for _ in 0..1000 {
            for (i, t) in threads.iter_mut().enumerate() {
                if let Fetch::Instr(_) = t.next_instr() {
                    produced[i] += 1;
                }
            }
        }
        assert!(
            produced[0] >= 900,
            "coscheduled threads must flow: {produced:?}"
        );
        assert!(
            produced[1] >= 900,
            "coscheduled threads must flow: {produced:?}"
        );
        // Threads never drift more than one barrier apart.
        let gap = produced[0].abs_diff(produced[1]);
        assert!(gap <= 100, "barrier must bound drift, gap {gap}");
    }

    #[test]
    fn sibling_release_unblocks() {
        let mut threads = ParallelJob::new(Benchmark::Array, 2, 100, StreamId(0), 1).into_threads();
        let (p0, _) = drive(&mut threads[0], 200);
        assert_eq!(p0, 100);
        // Catch the sibling up.
        let (p1, _) = drive(&mut threads[1], 100);
        assert_eq!(p1, 100);
        // Thread 0 can now run to the next barrier.
        let (p0b, _) = drive(&mut threads[0], 200);
        assert_eq!(p0b, 100);
    }

    #[test]
    fn zero_period_never_blocks() {
        let mut threads = ParallelJob::new(Benchmark::Ep, 3, 0, StreamId(0), 2).into_threads();
        for t in &mut threads {
            let (produced, blocked) = drive(t, 1000);
            assert_eq!(produced, 1000);
            assert_eq!(blocked, 0);
        }
    }

    #[test]
    fn distinct_stream_ids_and_seeds() {
        let threads = ParallelJob::new(Benchmark::Array, 3, 100, StreamId(7), 1).into_threads();
        let ids: Vec<u64> = threads.iter().map(|t| t.id().0).collect();
        assert_eq!(ids, vec![7, 8, 9]);
    }

    #[test]
    fn threads_are_send() {
        fn assert_send<T: Send>(_: &T) {}
        let threads = ParallelJob::new(Benchmark::Array, 2, 100, StreamId(0), 1).into_threads();
        assert_send(&threads[0]);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = ParallelJob::new(Benchmark::Array, 0, 100, StreamId(0), 1);
    }
}

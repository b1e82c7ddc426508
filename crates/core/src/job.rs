//! The pool of schedulable threads for one experiment.
//!
//! A [`JobPool`] expands a jobmix ([`workloads::JobSpec`]s) into schedulable
//! instruction streams. Single-threaded jobs contribute one stream; parallel
//! jobs contribute one stream per thread, and the pool remembers which
//! threads are siblings (needed for solo-IPC calibration and for hierarchical
//! symbiosis).

use smtsim::trace::{InstructionSource, StreamId};
use workloads::JobSpec;

/// A schedulable instruction stream.
pub type ThreadStream = Box<dyn InstructionSource + Send>;

/// The pool of schedulable threads built from a jobmix.
pub struct JobPool {
    threads: Vec<ThreadStream>,
    labels: Vec<String>,
    /// `groups[g]` lists the thread indices of job `g` (singleton for
    /// single-threaded jobs).
    groups: Vec<Vec<usize>>,
    specs: Vec<JobSpec>,
}

impl JobPool {
    /// Expands `specs` into streams. Thread `i` is tagged [`StreamId`]` (i)`;
    /// job seeds derive deterministically from `seed`.
    ///
    /// # Panics
    /// Panics if `specs` is empty.
    pub fn from_specs(specs: &[JobSpec], seed: u64) -> Self {
        assert!(!specs.is_empty(), "a job pool needs at least one job");
        let mut threads = Vec::new();
        let mut labels = Vec::new();
        let mut groups = Vec::new();
        for (j, spec) in specs.iter().enumerate() {
            let base = StreamId(threads.len() as u64);
            let job_seed = seed
                .wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add((j as u64 + 1).wrapping_mul(0xd1b54a32d192ed03));
            let streams = spec.build(base, job_seed);
            let mut group = Vec::with_capacity(streams.len());
            for (k, s) in streams.into_iter().enumerate() {
                group.push(threads.len());
                labels.push(if spec.threads == 1 {
                    spec.label()
                } else {
                    format!("{}#{k}", spec.label())
                });
                threads.push(s);
            }
            groups.push(group);
        }
        JobPool {
            threads,
            labels,
            groups,
            specs: specs.to_vec(),
        }
    }

    /// Number of schedulable threads (the experiment's `X`).
    pub fn len(&self) -> usize {
        self.threads.len()
    }

    /// Whether the pool is empty (never true; see [`JobPool::from_specs`]).
    pub fn is_empty(&self) -> bool {
        self.threads.is_empty()
    }

    /// Number of jobs (parallel jobs count once).
    pub fn num_jobs(&self) -> usize {
        self.groups.len()
    }

    /// Display label of thread `i`.
    pub fn label(&self, i: usize) -> &str {
        &self.labels[i]
    }

    /// All job groups.
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// The jobmix this pool was built from.
    pub fn specs(&self) -> &[JobSpec] {
        &self.specs
    }

    /// Mutable access to a set of distinct threads, in the order given, as
    /// the trait objects [`smtsim::Processor::run_timeslice`] consumes.
    ///
    /// This is the [`crate::runner::Runner`] hot path (one call per
    /// timeslice): it builds exactly one intermediate `Vec` and restores the
    /// caller's order with an in-place sort.
    ///
    /// # Panics
    /// Panics if `indices` contains duplicates or out-of-range values.
    pub fn select_dyn(&mut self, indices: &[usize]) -> Vec<&mut dyn InstructionSource> {
        for (pos, &i) in indices.iter().enumerate() {
            assert!(i < self.threads.len(), "thread index out of range");
            assert!(!indices[..pos].contains(&i), "duplicate thread indices");
        }
        let mut picked: Vec<(usize, &mut dyn InstructionSource)> = self
            .threads
            .iter_mut()
            .enumerate()
            .filter(|(i, _)| indices.contains(i))
            .map(|(i, b)| (i, b.as_mut() as &mut dyn InstructionSource))
            .collect();
        // Tuples are at most the SMT level, so the O(n²) position scan is
        // cheaper than building a lookup table.
        picked.sort_by_key(|p| indices.iter().position(|&x| x == p.0).expect("present"));
        picked.into_iter().map(|(_, r)| r).collect()
    }
}

impl std::fmt::Debug for JobPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobPool")
            .field("threads", &self.labels)
            .field("groups", &self.groups)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtsim::trace::Fetch;
    use workloads::jobmix::SyncStyle;
    use workloads::Benchmark;

    fn pool() -> JobPool {
        JobPool::from_specs(
            &[
                JobSpec::single(Benchmark::Fp),
                JobSpec::parallel(Benchmark::Array, 2, SyncStyle::Tight),
                JobSpec::single(Benchmark::Gcc),
            ],
            42,
        )
    }

    #[test]
    fn expansion_counts() {
        let p = pool();
        assert_eq!(p.len(), 4);
        assert_eq!(p.num_jobs(), 3);
        assert_eq!(p.groups()[1], [1, 2]);
        assert_eq!(p.label(0), "FP");
        assert_eq!(p.label(1), "mt_ARRAY(2)#0");
    }

    #[test]
    fn streams_are_tagged_by_index() {
        let mut p = pool();
        for i in 0..4 {
            let refs = p.select_dyn(&[i]);
            assert_eq!(refs[0].id(), StreamId(i as u64));
        }
    }

    #[test]
    fn select_dyn_preserves_order() {
        let mut p = pool();
        let refs = p.select_dyn(&[3, 0]);
        assert_eq!(refs[0].id(), StreamId(3));
        assert_eq!(refs[1].id(), StreamId(0));
    }

    #[test]
    fn select_dyn_streams_work() {
        let mut p = pool();
        let mut refs = p.select_dyn(&[0, 3]);
        for r in refs.iter_mut() {
            assert!(matches!(r.next_instr(), Fetch::Instr(_)));
        }
    }

    #[test]
    #[should_panic(expected = "duplicate thread indices")]
    fn select_dyn_rejects_duplicates() {
        let mut p = pool();
        let _ = p.select_dyn(&[1, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn select_dyn_rejects_out_of_range() {
        let mut p = pool();
        let _ = p.select_dyn(&[9]);
    }

    #[test]
    fn deterministic_across_builds() {
        let mut a = pool();
        let mut b = pool();
        let ia = a.select_dyn(&[0])[0].next_instr();
        let ib = b.select_dyn(&[0])[0].next_instr();
        assert_eq!(ia.instr(), ib.instr());
    }
}

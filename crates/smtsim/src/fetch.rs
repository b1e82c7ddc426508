//! ICOUNT fetch-thread selection.
//!
//! The fetch policy is ICOUNT.2.8 (Tullsen et al., ISCA '96): each cycle,
//! fetch up to 8 instructions from up to 2 threads, giving priority to the
//! threads with the fewest instructions in the pre-issue stages of the
//! pipeline (decode, rename, and the instruction queues). ICOUNT
//! self-balances: threads that clog the queues lose fetch priority, and
//! threads that move instructions through quickly get more of the front end.

use crate::config::FetchPolicy;

/// A fetch candidate: a context eligible to fetch this cycle.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FetchCandidate {
    /// Hardware context index.
    pub ctx: usize,
    /// Instructions this context has in the pre-issue stages.
    pub icount: usize,
    /// Unresolved (in-flight) branches (for BRCOUNT).
    pub brcount: usize,
    /// Outstanding data-cache misses (for MISSCOUNT).
    pub misscount: usize,
}

/// Sorts the eligible contexts into fetch-priority order under `policy`, in
/// place. The fetch stage walks the result, taking instructions from at most
/// `fetch_threads` contexts that actually deliver instructions.
///
/// `candidates` must be in ascending context order. Every sort key ends in
/// the context index, so keys are unique and the unstable sort is
/// deterministic.
///
/// * ICOUNT — fewest pre-issue instructions first.
/// * BRCOUNT / MISSCOUNT — fewest unresolved branches / outstanding D-cache
///   misses first, ties broken by ICOUNT.
/// * Round-robin — priority rotates with `cycle`, ignoring occupancy.
///
/// ```
/// use smtsim::fetch::{prioritize, FetchCandidate};
/// use smtsim::FetchPolicy;
/// let cands = [
///     FetchCandidate { ctx: 0, icount: 9, ..Default::default() },
///     FetchCandidate { ctx: 1, icount: 2, ..Default::default() },
///     FetchCandidate { ctx: 2, icount: 2, ..Default::default() },
/// ];
/// let order = |policy, cycle| {
///     let mut cands = cands;
///     prioritize(policy, &mut cands, cycle);
///     cands.map(|c| c.ctx)
/// };
/// assert_eq!(order(FetchPolicy::Icount, 0), [1, 2, 0]);
/// assert_eq!(order(FetchPolicy::RoundRobin, 1), [1, 2, 0]);
/// assert_eq!(order(FetchPolicy::RoundRobin, 2), [2, 0, 1]);
/// ```
pub fn prioritize(policy: FetchPolicy, candidates: &mut [FetchCandidate], cycle: u64) {
    match policy {
        FetchPolicy::Icount => candidates.sort_unstable_by_key(|c| (c.icount, c.ctx)),
        FetchPolicy::Brcount => candidates.sort_unstable_by_key(|c| (c.brcount, c.icount, c.ctx)),
        FetchPolicy::Misscount => {
            candidates.sort_unstable_by_key(|c| (c.misscount, c.icount, c.ctx))
        }
        FetchPolicy::RoundRobin => candidates.rotate_left(cycle as usize % candidates.len().max(1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(ctx: usize, icount: usize, brcount: usize, misscount: usize) -> FetchCandidate {
        FetchCandidate {
            ctx,
            icount,
            brcount,
            misscount,
        }
    }

    fn order(policy: FetchPolicy, mut cands: Vec<FetchCandidate>, cycle: u64) -> Vec<usize> {
        prioritize(policy, &mut cands, cycle);
        cands.iter().map(|c| c.ctx).collect()
    }

    #[test]
    fn lowest_icount_first() {
        let cands = vec![cand(0, 5, 0, 0), cand(1, 0, 0, 0), cand(2, 3, 0, 0)];
        assert_eq!(order(FetchPolicy::Icount, cands, 0), vec![1, 2, 0]);
    }

    #[test]
    fn ties_break_by_context_index() {
        let cands = vec![cand(1, 1, 0, 0), cand(3, 1, 0, 0)];
        assert_eq!(order(FetchPolicy::Icount, cands, 0), vec![1, 3]);
    }

    #[test]
    fn empty_is_empty() {
        for policy in [FetchPolicy::Icount, FetchPolicy::RoundRobin] {
            assert!(order(policy, Vec::new(), 3).is_empty());
        }
    }

    #[test]
    fn brcount_prefers_fewest_unresolved_branches() {
        let cands = vec![cand(0, 0, 3, 0), cand(1, 9, 0, 0)];
        assert_eq!(order(FetchPolicy::Brcount, cands, 0), vec![1, 0]);
    }

    #[test]
    fn misscount_prefers_fewest_outstanding_misses() {
        let cands = vec![cand(0, 0, 0, 2), cand(1, 5, 0, 0), cand(2, 1, 0, 0)];
        assert_eq!(order(FetchPolicy::Misscount, cands, 0), vec![2, 1, 0]);
    }

    #[test]
    fn round_robin_rotates_with_cycle() {
        let cands = vec![cand(0, 0, 0, 0), cand(1, 0, 0, 0), cand(2, 0, 0, 0)];
        assert_eq!(
            order(FetchPolicy::RoundRobin, cands.clone(), 0),
            vec![0, 1, 2]
        );
        assert_eq!(
            order(FetchPolicy::RoundRobin, cands.clone(), 1),
            vec![1, 2, 0]
        );
        assert_eq!(order(FetchPolicy::RoundRobin, cands, 5), vec![2, 0, 1]);
    }
}

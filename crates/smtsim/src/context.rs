//! Per-context dependence tracking.
//!
//! Each hardware context records, for its most recent dynamic instructions,
//! when (if ever) each will complete. Dependents look their producer up by
//! sequence number: an instruction whose producer has not issued yet is not
//! ready; one whose producer's slot has been recycled is older than the
//! in-flight window and therefore long complete.

/// Dependence-ring capacity. Must be a power of two and at least as large as
/// the per-thread in-flight cap, so an in-flight producer can never be
/// evicted by a newer dispatch.
pub const RING: usize = 128;

/// Sentinel completion time: instruction dispatched but not yet issued.
pub const NOT_DONE: u64 = u64::MAX;

/// A ring of completion times indexed by dynamic sequence number.
#[derive(Clone, Debug)]
pub struct DepRing {
    /// `(seq, completion cycle)` of the latest occupant of each slot.
    slots: Box<[(u64, u64); RING]>,
}

impl Default for DepRing {
    fn default() -> Self {
        Self::new()
    }
}

impl DepRing {
    /// An empty ring: every lookup reports "long complete".
    pub fn new() -> Self {
        DepRing {
            slots: Box::new([(u64::MAX, NOT_DONE); RING]),
        }
    }

    /// Records that `seq` will complete at `cycle`.
    #[inline]
    pub fn set_done(&mut self, seq: u64, cycle: u64) {
        self.slots[(seq as usize) & (RING - 1)] = (seq, cycle);
    }

    /// Marks `seq` dispatched-but-not-issued (completion unknown).
    #[inline]
    pub fn set_pending(&mut self, seq: u64) {
        self.set_done(seq, NOT_DONE);
    }

    /// The cycle at which producer `seq` completes: [`NOT_DONE`] if it has
    /// not issued yet, or 0 if the sequence number is older than the ring
    /// window (and therefore must have completed long ago).
    #[inline]
    pub fn done_at(&self, seq: u64) -> u64 {
        let (tag, done) = self.slots[(seq as usize) & (RING - 1)];
        if tag == seq {
            done
        } else {
            0
        }
    }

    /// Whether the instruction `seq` produced its result by cycle `now`
    /// ([`NOT_DONE`] is later than any cycle).
    #[inline]
    pub fn ready_by(&self, seq: u64, now: u64) -> bool {
        self.done_at(seq) <= now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_ring_reports_everything_complete() {
        let r = DepRing::new();
        assert_eq!(r.done_at(0), 0);
        assert_eq!(r.done_at(12345), 0);
        assert!(r.ready_by(7, 0));
    }

    #[test]
    fn pending_then_done() {
        let mut r = DepRing::new();
        r.set_pending(5);
        assert_eq!(r.done_at(5), NOT_DONE);
        assert!(!r.ready_by(5, 1_000_000));
        r.set_done(5, 42);
        assert_eq!(r.done_at(5), 42);
        assert!(!r.ready_by(5, 41));
        assert!(r.ready_by(5, 42));
        assert!(r.ready_by(5, 43));
    }

    #[test]
    fn recycled_slot_means_long_complete() {
        let mut r = DepRing::new();
        r.set_done(3, 100);
        // RING newer instructions reuse slot 3.
        r.set_pending(3 + RING as u64);
        // The old producer's info is gone; it must be treated as complete.
        assert_eq!(r.done_at(3), 0);
        assert!(r.ready_by(3, 0));
        // The new occupant is pending.
        assert_eq!(r.done_at(3 + RING as u64), NOT_DONE);
    }

    #[test]
    fn distinct_slots_do_not_interfere() {
        let mut r = DepRing::new();
        for seq in 0..RING as u64 {
            r.set_pending(seq);
        }
        for seq in 0..RING as u64 {
            assert_eq!(r.done_at(seq), NOT_DONE, "seq {seq}");
        }
        for seq in 0..RING as u64 {
            r.set_done(seq, seq + 10);
        }
        for seq in 0..RING as u64 {
            assert_eq!(r.done_at(seq), seq + 10, "seq {seq}");
        }
    }

    #[test]
    fn ring_is_a_power_of_two() {
        assert!(RING.is_power_of_two());
    }
}

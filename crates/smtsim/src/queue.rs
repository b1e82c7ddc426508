//! Shared out-of-order instruction queues (integer and floating-point).
//!
//! Modeled after the Alpha 21264's separate integer and floating-point
//! queues. Entries wait for their operands (`ready_at`) and are issued
//! oldest-first when a functional unit is available. A full queue rejects
//! dispatch — the `IntQueue`/`FpQueue` conflict events of the paper ("a queue
//! conflict arises when instructions cannot be placed in the queue because it
//! is full").

use crate::trace::InstrClass;

/// Sentinel for [`QEntry::dep_seq`]: the instruction has no register
/// dependency.
pub const NO_DEP: u64 = u64::MAX;

/// One waiting instruction in an issue queue.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct QEntry {
    /// Hardware context the instruction belongs to.
    pub ctx: u8,
    /// Instruction class (selects functional unit and latency).
    pub class: InstrClass,
    /// Sequence number of the producing instruction (same context), or
    /// [`NO_DEP`]. The entry is ready once the producer has completed.
    pub dep_seq: u64,
    /// Effective address (memory instructions only).
    pub addr: u64,
    /// Per-context dynamic sequence number (for dependence bookkeeping).
    pub seq: u64,
    /// For branches: whether the predictor got this branch wrong.
    pub mispredicted: bool,
}

/// A fixed-capacity issue queue holding instructions in age order.
#[derive(Clone, Debug)]
pub struct IssueQueue {
    entries: Vec<QEntry>,
    capacity: usize,
}

impl IssueQueue {
    /// Builds an empty queue with the given capacity.
    pub fn new(capacity: usize) -> Self {
        IssueQueue {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Whether the queue has no free entry.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Current occupancy.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts an entry.
    ///
    /// # Panics
    /// Panics if the queue is full — callers must check [`is_full`] first
    /// (that check is where the conflict counter ticks).
    ///
    /// [`is_full`]: IssueQueue::is_full
    #[inline]
    pub fn push(&mut self, e: QEntry) {
        assert!(!self.is_full(), "push into a full issue queue");
        self.entries.push(e);
    }

    /// Age-ordered view of the waiting instructions (oldest first).
    #[inline]
    pub fn entries(&self) -> &[QEntry] {
        &self.entries
    }

    /// Removes the entries at age-order positions `base + i` for every set
    /// bit `i` of `issued`, in one stable compaction pass.
    pub fn remove_issued(&mut self, base: usize, issued: u64) {
        if issued == 0 {
            return;
        }
        let mut kept = base + issued.trailing_zeros() as usize;
        for pos in kept + 1..self.entries.len() {
            let bit = pos - base;
            if bit < 64 && issued >> bit & 1 == 1 {
                continue;
            }
            self.entries[kept] = self.entries[pos];
            kept += 1;
        }
        self.entries.truncate(kept);
    }

    /// Empties the queue (timeslice-boundary pipeline flush).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, RngCore, SeedableRng};

    fn entry(seq: u64, dep_seq: u64) -> QEntry {
        QEntry {
            ctx: 0,
            class: InstrClass::IntAlu,
            dep_seq,
            addr: 0,
            seq,
            mispredicted: false,
        }
    }

    #[test]
    fn fills_to_capacity() {
        let mut q = IssueQueue::new(2);
        assert!(!q.is_full());
        q.push(entry(0, 0));
        q.push(entry(1, 0));
        assert!(q.is_full());
        assert_eq!(q.len(), 2);
    }

    #[test]
    #[should_panic(expected = "full issue queue")]
    fn push_full_panics() {
        let mut q = IssueQueue::new(1);
        q.push(entry(0, 0));
        q.push(entry(1, 0));
    }

    #[test]
    fn age_order_preserved() {
        let mut q = IssueQueue::new(4);
        q.push(entry(10, 5));
        q.push(entry(11, 1));
        q.push(entry(12, 3));
        let seqs: Vec<u64> = q.entries().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![10, 11, 12]);
    }

    #[test]
    fn remove_issued_removes_right_entries() {
        let mut q = IssueQueue::new(4);
        for s in 0..4 {
            q.push(entry(s, 0));
        }
        q.remove_issued(0, 0b101);
        let seqs: Vec<u64> = q.entries().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 3]);
    }

    #[test]
    fn clear_empties_and_keeps_capacity() {
        let mut q = IssueQueue::new(4);
        q.push(entry(0, 0));
        q.push(entry(1, 0));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.capacity(), 4);
    }

    /// The compaction pass must equal `Vec::remove` applied to the set bits
    /// in reverse order, for any mask and any 64-entry window of the queue.
    #[test]
    fn remove_issued_matches_vec_remove_in_reverse() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut next = move || rng.next_u64();
        for case in 0..2_000 {
            let len = (next() % 100) as usize;
            let base = if case % 4 == 0 {
                (next() % 40) as usize
            } else {
                0
            };
            // Bits beyond the end of the queue never occur; mask them off.
            let window = len.saturating_sub(base).min(64);
            let issued = match window {
                0 => 0,
                64 => next() & next(),
                w => next() & next() & ((1 << w) - 1),
            };
            let mut q = IssueQueue::new(len.max(1));
            for s in 0..len as u64 {
                q.push(entry(s, NO_DEP));
            }
            let mut reference: Vec<QEntry> = q.entries().to_vec();
            for bit in (0..64).rev() {
                if issued >> bit & 1 == 1 {
                    reference.remove(base + bit);
                }
            }
            q.remove_issued(base, issued);
            assert_eq!(
                q.entries(),
                &reference[..],
                "len {len} base {base} mask {issued:#x}"
            );
        }
    }
}

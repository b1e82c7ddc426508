//! Fully-associative translation lookaside buffers with LRU replacement.
//!
//! The paper lists TLB capacity among the modeled 21264 resources; TLBs are
//! shared structures in the SMT model, so jobs with large page working sets
//! sweep each other's translations.

use crate::cache::{lru_access, INVALID};
use serde::{Deserialize, Serialize};

/// A fully-associative, LRU-replaced TLB.
#[derive(Clone, Debug)]
pub struct Tlb {
    /// `capacity` page numbers: one LRU set (see [`lru_access`]).
    entries: Vec<u64>,
    page_shift: u32,
    miss_penalty: u64,
    stats: TlbStats,
}

/// Reference/miss counts for one timeslice.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbStats {
    /// Translations requested.
    pub refs: u64,
    /// Translations that missed and paid the refill penalty.
    pub misses: u64,
}

impl Tlb {
    /// Builds an empty TLB.
    ///
    /// # Panics
    /// Panics if `capacity == 0` or `page_bytes` is not a power of two >= 2.
    pub fn new(capacity: usize, page_bytes: u64, miss_penalty: u64) -> Self {
        assert!(capacity > 0, "TLB capacity must be positive");
        assert!(
            page_bytes >= 2 && page_bytes.is_power_of_two(),
            "page size must be a power of two, at least 2"
        );
        Tlb {
            entries: vec![INVALID; capacity],
            page_shift: page_bytes.trailing_zeros(),
            miss_penalty,
            stats: TlbStats::default(),
        }
    }

    /// Translates `addr`: returns the extra latency (0 on hit, the refill
    /// penalty on miss) and updates the LRU state.
    #[inline]
    pub fn access(&mut self, addr: u64) -> u64 {
        let page = addr >> self.page_shift;
        self.stats.refs += 1;
        if lru_access(&mut self.entries, page) {
            0
        } else {
            self.stats.misses += 1;
            self.miss_penalty
        }
    }

    /// Takes and resets the per-timeslice counters.
    pub fn take_stats(&mut self) -> TlbStats {
        std::mem::take(&mut self.stats)
    }

    /// Invalidates all translations.
    pub fn flush(&mut self) {
        self.entries.fill(INVALID);
    }

    /// Number of valid translations resident.
    pub fn resident(&self) -> usize {
        self.entries.iter().filter(|&&p| p != INVALID).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Same hit/miss sequence and occupancy as the pre-flat-array
        /// implementation (a `Vec` in recency order, `remove`/`insert(0)` on
        /// hit, `pop` on a full miss), so the same translations get evicted.
        #[test]
        fn flat_tlb_matches_vec_lru_reference(
            capacity in 1usize..6,
            pages in proptest::collection::vec(0u64..9, 1..300),
            flush_at in 0usize..300,
        ) {
            let mut tlb = Tlb::new(capacity, 8192, 50);
            let mut reference: Vec<u64> = Vec::new();
            for (i, &page) in pages.iter().enumerate() {
                if i == flush_at {
                    tlb.flush();
                    reference.clear();
                }
                let expected = match reference.iter().position(|&p| p == page) {
                    Some(pos) => {
                        reference.remove(pos);
                        0
                    }
                    None => {
                        reference.truncate(capacity - 1);
                        50
                    }
                };
                reference.insert(0, page);
                prop_assert_eq!(tlb.access(page * 8192 + 16), expected, "access {}", i);
                prop_assert_eq!(tlb.resident(), reference.len());
            }
        }
    }

    #[test]
    fn hit_after_fill() {
        let mut t = Tlb::new(4, 8192, 50);
        assert_eq!(t.access(0x0000), 50);
        assert_eq!(t.access(0x1FFF), 0); // same 8K page
        assert_eq!(t.access(0x2000), 50); // next page
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(2, 8192, 50);
        t.access(0x0000); // page 0
        t.access(0x2000); // page 1
        t.access(0x0000); // page 0 MRU
        t.access(0x4000); // page 2 evicts page 1
        assert_eq!(t.access(0x0000), 0);
        assert_eq!(t.access(0x2000), 50);
    }

    #[test]
    fn capacity_respected() {
        let mut t = Tlb::new(3, 8192, 50);
        for p in 0..100u64 {
            t.access(p * 8192);
        }
        assert_eq!(t.resident(), 3);
    }

    #[test]
    fn stats_and_flush() {
        let mut t = Tlb::new(4, 8192, 50);
        t.access(0);
        t.access(0);
        let s = t.take_stats();
        assert_eq!(s.refs, 2);
        assert_eq!(s.misses, 1);
        t.flush();
        assert_eq!(t.resident(), 0);
        assert_eq!(t.take_stats(), TlbStats::default());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Tlb::new(0, 8192, 50);
    }
}

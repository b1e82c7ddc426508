//! Set-associative caches with true-LRU replacement, and the shared
//! L1I/L1D/L2 hierarchy.
//!
//! All levels are physically shared among hardware contexts: distinct jobs
//! occupy (and evict) the same sets, which is one of the channels through
//! which coscheduled jobs interfere.

use crate::config::CacheConfig;
use serde::{Deserialize, Serialize};

/// Key of an invalid way in an LRU set. Cache tags are `addr >> (line + set
/// bits)` and TLB keys are page numbers; the constructors reject the
/// geometries (a single one-byte line, one-byte pages) that could reach it.
pub(crate) const INVALID: u64 = u64::MAX;

/// Looks `key` up in one LRU set — keys ordered most- to least-recently used,
/// [`INVALID`] ways last — and makes it the most recent. On a miss the last
/// way (the LRU key, or an invalid way) is dropped. Returns whether it hit.
#[inline]
pub(crate) fn lru_access(set: &mut [u64], key: u64) -> bool {
    if set[0] == key {
        return true;
    }
    match set.iter().position(|&k| k == key) {
        Some(pos) => {
            set[..=pos].rotate_right(1);
            true
        }
        None => {
            set.rotate_right(1);
            set[0] = key;
            false
        }
    }
}

/// One set-associative cache level with true-LRU replacement.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// `sets x assoc` tags in one allocation. The ways of set `s` are
    /// `tags[s * assoc..][..assoc]`, ordered most- to least-recently used,
    /// with the [`INVALID`] ways last.
    tags: Vec<u64>,
    line_shift: u32,
    set_bits: u32,
}

impl Cache {
    /// Builds an empty (all-invalid) cache with the given geometry.
    ///
    /// # Panics
    /// Panics if the geometry is inconsistent (see [`CacheConfig::num_sets`]).
    pub fn new(cfg: CacheConfig) -> Self {
        let num_sets = cfg.num_sets();
        let (line_shift, set_bits) = (cfg.line_bytes.trailing_zeros(), num_sets.trailing_zeros());
        assert!(
            line_shift + set_bits > 0,
            "cache must index at least one address bit"
        );
        Cache {
            cfg,
            tags: vec![INVALID; num_sets * cfg.assoc],
            line_shift,
            set_bits,
        }
    }

    /// Hit latency of this level.
    #[inline]
    pub fn hit_latency(&self) -> u64 {
        self.cfg.hit_latency
    }

    /// The range of `tags` holding the set `addr` maps to, and its tag.
    #[inline]
    fn index(&self, addr: u64) -> (std::ops::Range<usize>, u64) {
        let line = addr >> self.line_shift;
        let set = (line & ((1 << self.set_bits) - 1)) as usize;
        let base = set * self.cfg.assoc;
        (base..base + self.cfg.assoc, line >> self.set_bits)
    }

    /// Accesses `addr`; returns `true` on hit. On miss the line is filled
    /// (allocate-on-miss for both reads and writes), evicting the LRU line.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let (ways, tag) = self.index(addr);
        lru_access(&mut self.tags[ways], tag)
    }

    /// Looks up `addr` without updating replacement state or filling.
    pub fn probe(&self, addr: u64) -> bool {
        let (ways, tag) = self.index(addr);
        self.tags[ways].contains(&tag)
    }

    /// Invalidates all lines (used for cold-start experiments).
    pub fn flush(&mut self) {
        self.tags.fill(INVALID);
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID).count()
    }

    /// Total line capacity.
    pub fn capacity_lines(&self) -> usize {
        self.tags.len()
    }
}

/// Per-level reference/miss counts for one timeslice.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// L1 data cache references.
    pub dl1_refs: u64,
    /// L1 data cache misses.
    pub dl1_misses: u64,
    /// L1 instruction cache references (one per fetched line, not per instr).
    pub il1_refs: u64,
    /// L1 instruction cache misses.
    pub il1_misses: u64,
    /// L2 references (L1 misses of either kind).
    pub l2_refs: u64,
    /// L2 misses (references that went to memory).
    pub l2_misses: u64,
}

impl CacheStats {
    /// L1 data-cache hit rate in percent; 100.0 when there were no references.
    pub fn dl1_hit_pct(&self) -> f64 {
        crate::stats::hit_pct(self.dl1_refs, self.dl1_misses)
    }

    /// Accumulates another timeslice's counts into `self`.
    pub fn merge(&mut self, other: &CacheStats) {
        self.dl1_refs += other.dl1_refs;
        self.dl1_misses += other.dl1_misses;
        self.il1_refs += other.il1_refs;
        self.il1_misses += other.il1_misses;
        self.l2_refs += other.l2_refs;
        self.l2_misses += other.l2_misses;
    }
}

/// The shared L1I + L1D + unified L2 hierarchy.
#[derive(Clone, Debug)]
pub struct CacheHierarchy {
    il1: Cache,
    dl1: Cache,
    l2: Cache,
    mem_latency: u64,
    /// Counters for the current timeslice; drained by the pipeline.
    pub stats: CacheStats,
}

impl CacheHierarchy {
    /// Builds the hierarchy from the three level configurations.
    pub fn new(
        icache: CacheConfig,
        dcache: CacheConfig,
        l2: CacheConfig,
        mem_latency: u64,
    ) -> Self {
        CacheHierarchy {
            il1: Cache::new(icache),
            dl1: Cache::new(dcache),
            l2: Cache::new(l2),
            mem_latency,
            stats: CacheStats::default(),
        }
    }

    /// Data access (load or store): returns the access latency in cycles and
    /// updates hit/miss counters. Misses propagate to L2 and memory.
    pub fn access_data(&mut self, addr: u64) -> u64 {
        self.stats.dl1_refs += 1;
        if self.dl1.access(addr) {
            return self.dl1.hit_latency();
        }
        self.stats.dl1_misses += 1;
        self.stats.l2_refs += 1;
        if self.l2.access(addr) {
            return self.dl1.hit_latency() + self.l2.hit_latency();
        }
        self.stats.l2_misses += 1;
        self.dl1.hit_latency() + self.l2.hit_latency() + self.mem_latency
    }

    /// Instruction-line access: returns the extra fetch latency (0 on hit).
    pub fn access_instr(&mut self, addr: u64) -> u64 {
        self.stats.il1_refs += 1;
        if self.il1.access(addr) {
            return self.il1.hit_latency();
        }
        self.stats.il1_misses += 1;
        self.stats.l2_refs += 1;
        if self.l2.access(addr) {
            return self.il1.hit_latency() + self.l2.hit_latency();
        }
        self.stats.l2_misses += 1;
        self.il1.hit_latency() + self.l2.hit_latency() + self.mem_latency
    }

    /// Takes and resets the per-timeslice counters.
    pub fn take_stats(&mut self) -> CacheStats {
        std::mem::take(&mut self.stats)
    }

    /// Invalidates every level (cold start).
    pub fn flush(&mut self) {
        self.il1.flush();
        self.dl1.flush();
        self.l2.flush();
    }

    /// The L1 data cache (for inspection in tests/experiments).
    pub fn dl1(&self) -> &Cache {
        &self.dl1
    }

    /// The unified L2 (for inspection in tests/experiments).
    pub fn l2(&self) -> &Cache {
        &self.l2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The pre-flat-array implementation, kept as the reference model: one
    /// `Vec` per set, most-recently used first, `remove`/`insert(0)` on hit.
    struct VecLruCache {
        sets: Vec<Vec<u64>>,
        assoc: usize,
        line_shift: u32,
    }

    impl VecLruCache {
        fn new(cfg: CacheConfig) -> Self {
            VecLruCache {
                sets: vec![Vec::new(); cfg.num_sets()],
                assoc: cfg.assoc,
                line_shift: cfg.line_bytes.trailing_zeros(),
            }
        }

        fn locate(&self, addr: u64) -> (usize, u64) {
            let line = addr >> self.line_shift;
            let sets = self.sets.len() as u64;
            ((line % sets) as usize, line / sets)
        }

        fn access(&mut self, addr: u64) -> bool {
            let (set, tag) = self.locate(addr);
            let set = &mut self.sets[set];
            if let Some(pos) = set.iter().position(|&t| t == tag) {
                let t = set.remove(pos);
                set.insert(0, t);
                true
            } else {
                if set.len() == self.assoc {
                    set.pop();
                }
                set.insert(0, tag);
                false
            }
        }

        fn probe(&self, addr: u64) -> bool {
            let (set, tag) = self.locate(addr);
            self.sets[set].contains(&tag)
        }
    }

    proptest! {
        /// Same hits, same evictions (every generated address is probed after
        /// every access, so a wrong victim shows at once) and same occupancy
        /// as the reference, for direct-mapped, 2-way and 4-way geometries.
        #[test]
        fn flat_cache_matches_vec_lru_reference(
            assoc in proptest::sample::select(vec![1usize, 2, 4]),
            lines in proptest::collection::vec((0u64..48, 0u64..3), 1..400),
            flush_at in 0usize..400,
        ) {
            let cfg = CacheConfig { size_bytes: 1024, line_bytes: 64, assoc, hit_latency: 1 };
            let (mut flat, mut reference) = (Cache::new(cfg), VecLruCache::new(cfg));
            // A few lines per set, spread over three address-space tags.
            let addrs: Vec<u64> = lines
                .iter()
                .map(|&(line, stream)| crate::trace::StreamId(stream).tag_addr(line * 64 + 8))
                .collect();
            for (i, &addr) in addrs.iter().enumerate() {
                if i == flush_at {
                    flat.flush();
                    reference.sets.iter_mut().for_each(Vec::clear);
                }
                prop_assert_eq!(flat.access(addr), reference.access(addr), "access {}", i);
                for &a in &addrs {
                    prop_assert_eq!(flat.probe(a), reference.probe(a), "after access {}", i);
                }
                let resident: usize = reference.sets.iter().map(Vec::len).sum();
                prop_assert_eq!(flat.resident_lines(), resident);
            }
        }
    }

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            line_bytes: 64,
            assoc: 2,
            hit_latency: 3,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1030)); // same line (64B)
        assert!(!c.access(0x1040)); // next line
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three lines mapping to the same set (stride = 4 sets * 64B = 256B).
        let (a, b, d) = (0x0, 0x100, 0x200);
        c.access(a);
        c.access(b);
        c.access(a); // a is MRU, b is LRU
        c.access(d); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn flush_empties() {
        let mut c = tiny();
        c.access(0);
        c.access(0x40);
        assert_eq!(c.resident_lines(), 2);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = tiny();
        for i in 0..1000 {
            c.access(i * 64);
        }
        assert!(c.resident_lines() <= c.capacity_lines());
        assert_eq!(c.capacity_lines(), 8);
    }

    #[test]
    fn hierarchy_latencies_escalate() {
        let mut h = CacheHierarchy::new(
            CacheConfig {
                size_bytes: 512,
                line_bytes: 64,
                assoc: 2,
                hit_latency: 0,
            },
            CacheConfig {
                size_bytes: 512,
                line_bytes: 64,
                assoc: 2,
                hit_latency: 3,
            },
            CacheConfig {
                size_bytes: 4096,
                line_bytes: 64,
                assoc: 1,
                hit_latency: 14,
            },
            90,
        );
        let cold = h.access_data(0x5000);
        assert_eq!(cold, 3 + 14 + 90);
        let l1_hit = h.access_data(0x5000);
        assert_eq!(l1_hit, 3);
        assert_eq!(h.stats.dl1_refs, 2);
        assert_eq!(h.stats.dl1_misses, 1);
        assert_eq!(h.stats.l2_misses, 1);
    }

    #[test]
    fn l2_catches_l1_evictions() {
        let mut h = CacheHierarchy::new(
            CacheConfig {
                size_bytes: 128,
                line_bytes: 64,
                assoc: 1,
                hit_latency: 0,
            },
            CacheConfig {
                size_bytes: 128,
                line_bytes: 64,
                assoc: 1,
                hit_latency: 3,
            },
            CacheConfig {
                size_bytes: 4096,
                line_bytes: 64,
                assoc: 1,
                hit_latency: 14,
            },
            90,
        );
        h.access_data(0x0); // cold miss, fills L1 set 0 and L2
        h.access_data(0x80); // conflicts in tiny L1 (2 sets), evicts 0x0 from L1
        let lat = h.access_data(0x0); // L1 miss, L2 hit
        assert_eq!(lat, 3 + 14);
    }

    #[test]
    fn stats_hit_pct() {
        let s = CacheStats {
            dl1_refs: 100,
            dl1_misses: 3,
            ..Default::default()
        };
        assert!((s.dl1_hit_pct() - 97.0).abs() < 1e-9);
        assert_eq!(CacheStats::default().dl1_hit_pct(), 100.0);
    }

    #[test]
    fn stats_merge() {
        let mut a = CacheStats {
            dl1_refs: 10,
            dl1_misses: 1,
            ..Default::default()
        };
        let b = CacheStats {
            dl1_refs: 5,
            dl1_misses: 2,
            l2_refs: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.dl1_refs, 15);
        assert_eq!(a.dl1_misses, 3);
        assert_eq!(a.l2_refs, 3);
    }
}

//! The synthetic instruction-stream generator.
//!
//! A [`SyntheticStream`] turns a [`BenchProfile`] into a deterministic
//! instruction stream with the profile's statistics:
//!
//! * **Code layout** — the program is a ring of basic blocks spread over the
//!   profile's code footprint. Each block ends in a conditional branch at a
//!   fixed PC (a *branch site*) with a per-site outcome bias, so the shared
//!   gshare predictor sees realistic, learnable-or-not branch behaviour and
//!   the I-cache sees the real footprint.
//! * **Instruction mix** — non-branch classes are sampled from the profile's
//!   weights; branch frequency is set by the mean basic-block length derived
//!   from the mix's branch weight.
//! * **ILP** — each instruction's register-dependency distance is geometric
//!   with the profile's mean; short distances serialize, long distances leave
//!   instructions effectively independent.
//! * **Memory behaviour** — references hit a hot subset of the data
//!   footprint with probability `locality`, and otherwise either stride
//!   sequentially (streaming scientific codes) or scatter uniformly
//!   (pointer-chasing integer codes) across the whole footprint.
//! * **Phases** — the FP-versus-integer balance of the mix oscillates slowly
//!   with the profile's phase period and amplitude, so sampled IPC is noisy
//!   between timeslices the way the paper observes.

use crate::profile::BenchProfile;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use smtsim::trace::{Fetch, Instr, InstrClass, InstructionSource, StreamId};

/// How often (in instructions) the phase-modulated class weights are
/// recomputed. Phases are tens of thousands of instructions long, so this is
/// plenty fine-grained.
const PHASE_REFRESH: u64 = 256;

/// Cap on generated dependency distances (the simulator tracks 8-bit
/// distances; anything this far back is effectively independent anyway).
const MAX_DEP: u8 = 48;

/// A deterministic synthetic instruction stream (see the module docs).
pub struct SyntheticStream {
    id: StreamId,
    profile: BenchProfile,
    rng: SmallRng,
    /// Instructions emitted so far.
    count: u64,
    /// Optional total length; `Finished` is reported after this many.
    limit: Option<u64>,
    // Code layout.
    n_blocks: u64,
    mean_block_len: u64,
    block: u64,
    block_pos: u64,
    block_len: u64,
    // Memory behaviour.
    stride_pos: u64,
    hot_bytes: u64,
    /// Current page for clustered scatter references and refs left in it.
    scatter_page: u64,
    scatter_left: u32,
    /// Random page-aligned placement of the data region within the stream's
    /// address space. Distinct per stream, so jobs do not alias into the same
    /// sets of the physically-indexed shared caches.
    data_base: u64,
    /// Placement of the code region.
    code_base: u64,
    // Class sampling (cumulative weights over non-branch classes).
    cum: [f64; 7],
    /// `ln(1 - 1/dep_mean)`, the per-stream constant of [`Self::sample_dep`].
    dep_ln_q: f64,
    phase_offset: f64,
    next_refresh: u64,
}

/// The seven non-branch classes, in cumulative-weight order.
const NON_BRANCH: [InstrClass; 7] = [
    InstrClass::IntAlu,
    InstrClass::IntMul,
    InstrClass::FpAdd,
    InstrClass::FpMul,
    InstrClass::FpDiv,
    InstrClass::Load,
    InstrClass::Store,
];

/// Cheap deterministic 64-bit mix (splitmix64 finalizer).
#[inline]
fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// `x.ceil()` clamped to `[1, MAX_DEP]` (1 if `x` is not finite), without the
/// libm `ceil` call: truncate — saturating, so negatives give 0 — and bump if
/// that rounded down.
#[inline]
fn dep_distance(x: f64) -> u8 {
    if !x.is_finite() {
        return 1;
    }
    let t = x.min(f64::from(MAX_DEP)) as u64;
    (t + u64::from((t as f64) < x)).clamp(1, u64::from(MAX_DEP)) as u8
}

impl SyntheticStream {
    /// Builds a stream for `profile`, tagged with `id`, seeded with `seed`.
    ///
    /// Streams with the same profile but different seeds model a program at
    /// different points of its execution (the paper starts each benchmark
    /// partially executed).
    ///
    /// # Panics
    /// Panics if the profile fails [`BenchProfile::validate`].
    pub fn new(profile: BenchProfile, id: StreamId, seed: u64) -> Self {
        if let Err(e) = profile.validate() {
            panic!("invalid benchmark profile: {e}");
        }
        let mut rng = SmallRng::seed_from_u64(seed ^ hash64(id.0 << 32));
        // Branch frequency -> mean basic-block length.
        let total = profile.mix.total();
        let branch_frac = (profile.mix.branch / total).clamp(0.001, 0.5);
        let mean_block_len = (1.0 / branch_frac).round().max(2.0) as u64;
        let n_blocks = (profile.code_bytes / (mean_block_len * 4))
            .max(4)
            .min(profile.branch_sites.max(4) as u64);
        let hot_bytes = ((profile.data_bytes as f64 * profile.hot_fraction) as u64).max(256);
        // Scatter each stream's regions across the 40-bit space (page
        // aligned) so streams do not collide set-for-set in shared caches.
        let data_base =
            (hash64(seed ^ (id.0 << 8) ^ 0xda7a) << 13) & ((1 << (StreamId::ADDR_BITS - 1)) - 1);
        let code_base =
            (hash64(seed ^ (id.0 << 8) ^ 0xc0de) << 13) & ((1 << (StreamId::ADDR_BITS - 1)) - 1);
        let block = rng.gen_range(0..n_blocks);
        let phase_offset = rng.gen_range(0.0..std::f64::consts::TAU);
        let dep_ln_q = (1.0 - 1.0 / profile.dep_mean).max(1e-9).ln();
        let mut s = SyntheticStream {
            id,
            profile,
            rng,
            count: 0,
            limit: None,
            n_blocks,
            mean_block_len,
            block,
            block_pos: 0,
            block_len: 0,
            stride_pos: 0,
            hot_bytes,
            scatter_page: 0,
            scatter_left: 0,
            data_base,
            code_base,
            cum: [0.0; 7],
            dep_ln_q,
            phase_offset,
            next_refresh: 0,
        };
        s.block_len = s.len_of_block(s.block);
        s.refresh_weights();
        s
    }

    /// Restricts the stream to `n` total instructions, after which it reports
    /// [`Fetch::Finished`].
    pub fn with_limit(mut self, n: u64) -> Self {
        self.limit = Some(n);
        self
    }

    /// Instructions emitted so far.
    pub fn emitted(&self) -> u64 {
        self.count
    }

    /// Whether a limited stream has produced all of its instructions.
    /// Always `false` for unlimited streams.
    pub fn is_finished(&self) -> bool {
        self.limit.is_some_and(|l| self.count >= l)
    }

    /// The configured total length, if any.
    pub fn limit(&self) -> Option<u64> {
        self.limit
    }

    /// The profile driving this stream.
    pub fn profile(&self) -> &BenchProfile {
        &self.profile
    }

    /// Deterministic length of basic block `b` (average `mean_block_len`).
    fn len_of_block(&self, b: u64) -> u64 {
        let m = self.mean_block_len;
        if m <= 2 {
            return m.max(1);
        }
        // Uniform in [2, 2m-2], mean m.
        2 + hash64(b ^ 0xb10c) % (2 * m - 3)
    }

    /// Deterministic branch-target block for site `b`.
    fn target_of_block(&self, b: u64) -> u64 {
        // Mostly short backward/forward jumps (loops), occasionally far.
        let h = hash64(b ^ 0x7a26e7);
        if h % 8 < 6 {
            // Loop-like: jump back a few blocks.
            let back = 1 + h % 8;
            (b + self.n_blocks - back.min(b % self.n_blocks + 1)) % self.n_blocks
        } else {
            h % self.n_blocks
        }
    }

    /// Per-site probability that the branch is taken.
    fn taken_prob(&self, b: u64) -> f64 {
        let h = hash64(b ^ 0xb1a5);
        let predictable = (h % 1000) as f64 / 1000.0 < self.profile.branch_predictability;
        if predictable {
            // Strongly biased site; which way depends on the site.
            if h & 1 == 0 {
                0.97
            } else {
                0.03
            }
        } else {
            // Effectively random outcome.
            0.5
        }
    }

    /// PC of the `pos`-th instruction of block `b` (local address; tagging
    /// with the stream id happens at emission).
    fn pc_of(&self, b: u64, pos: u64) -> u64 {
        self.code_base + (b * self.mean_block_len * 4 + pos * 4) % self.profile.code_bytes.max(4)
    }

    /// Recomputes the phase-modulated cumulative class weights.
    fn refresh_weights(&mut self) {
        let p = &self.profile;
        let swing = if p.phase_period == 0 {
            0.0
        } else {
            let theta = std::f64::consts::TAU * (self.count as f64 / p.phase_period as f64)
                + self.phase_offset;
            p.phase_amplitude * theta.sin()
        };
        // Phase shifts work between FP arithmetic and integer arithmetic,
        // modeling loop nests alternating with bookkeeping code.
        let fp_scale = (1.0 + swing).max(0.05);
        let int_scale = (1.0 - swing).max(0.05);
        let w = [
            p.mix.int_alu * int_scale,
            p.mix.int_mul * int_scale,
            p.mix.fp_add * fp_scale,
            p.mix.fp_mul * fp_scale,
            p.mix.fp_div * fp_scale,
            p.mix.load,
            p.mix.store,
        ];
        let mut acc = 0.0;
        for (i, wi) in w.iter().enumerate() {
            acc += wi;
            self.cum[i] = acc;
        }
        self.next_refresh = self.count + PHASE_REFRESH;
    }

    /// Samples a non-branch instruction class.
    fn sample_class(&mut self) -> InstrClass {
        let total = self.cum[6];
        let x = self.rng.gen_range(0.0..total);
        let idx = self.cum.iter().position(|&c| x < c).unwrap_or(6);
        NON_BRANCH[idx]
    }

    /// Samples a geometric dependency distance with the profile's mean.
    fn sample_dep(&mut self) -> u8 {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        dep_distance(u.ln() / self.dep_ln_q)
    }

    /// Samples a data address (local, 8-byte aligned).
    fn sample_addr(&mut self) -> u64 {
        let p = &self.profile;
        let in_hot = self.rng.gen_bool(p.locality);
        let raw = if in_hot {
            self.rng.gen_range(0..self.hot_bytes / 8) * 8
        } else if p.streaming {
            self.stride_pos = self.stride_pos.wrapping_add(8);
            let a = self.hot_bytes + self.stride_pos % (p.data_bytes - self.hot_bytes).max(8);
            a & !7
        } else {
            // Pointer-chasing codes scatter, but with run lengths: several
            // consecutive references land in the same page before jumping.
            if self.scatter_left == 0 {
                let pages = (p.data_bytes >> 13).max(1);
                self.scatter_page = self.rng.gen_range(0..pages) << 13;
                self.scatter_left = 24;
            }
            self.scatter_left -= 1;
            self.scatter_page + self.rng.gen_range(0..(8192 / 8)) * 8
        };
        self.data_base + raw
    }
}

impl InstructionSource for SyntheticStream {
    fn next_instr(&mut self) -> Fetch {
        if let Some(limit) = self.limit {
            if self.count >= limit {
                return Fetch::Finished;
            }
        }
        if self.count >= self.next_refresh {
            self.refresh_weights();
        }
        let at_branch = self.block_pos + 1 >= self.block_len;
        let pc = self.id.tag_addr(self.pc_of(self.block, self.block_pos));
        let instr = if at_branch {
            let taken = self.rng.gen_bool(self.taken_prob(self.block));
            let next = if taken {
                self.target_of_block(self.block)
            } else {
                (self.block + 1) % self.n_blocks
            };
            self.block = next;
            self.block_pos = 0;
            self.block_len = self.len_of_block(next);
            // Branches depend on the compare that feeds them.
            let mut b = Instr::branch(pc, taken);
            b.dep_dist = self.sample_dep();
            b
        } else {
            self.block_pos += 1;
            let class = self.sample_class();
            let dep = self.sample_dep();
            match class {
                InstrClass::Load => Instr::load(pc, self.id.tag_addr(self.sample_addr()), dep),
                InstrClass::Store => Instr::store(pc, self.id.tag_addr(self.sample_addr()), dep),
                InstrClass::IntAlu => Instr::int_alu(pc, dep),
                InstrClass::IntMul => Instr::int_mul(pc, dep),
                c => Instr::fp(c, pc, dep),
            }
        };
        self.count += 1;
        Fetch::Instr(instr)
    }

    fn id(&self) -> StreamId {
        self.id
    }

    /// O(1) fast-forward: every piece of generator state is re-derived as a
    /// pure function of the new instruction count, instead of drawing `n`
    /// instructions. The fast-sim extrapolator skips millions of
    /// instructions per synthesized timeslice, so this must not be O(n).
    ///
    /// The resumed stream is *statistically* identical (same profile, same
    /// deterministic block ring and placements) but not instruction-identical
    /// with a stream that emitted its way to the same count — acceptable
    /// because the caller only ever skips work whose counters were already
    /// synthesized, and required for determinism: the same (seed, count)
    /// always resumes in the same state.
    fn skip_instructions(&mut self, n: u64) {
        if n == 0 || self.is_finished() {
            return;
        }
        let n = match self.limit {
            Some(l) => n.min(l - self.count),
            None => n,
        };
        self.count += n;
        // Re-place control flow at a deterministic block for this position.
        self.block = hash64(self.count ^ self.code_base ^ 0x5eed) % self.n_blocks;
        self.block_pos = 0;
        self.block_len = self.len_of_block(self.block);
        // Re-seed sampling deterministically from (placement, position);
        // scatter runs restart on the next reference.
        self.rng = SmallRng::seed_from_u64(hash64(self.count ^ self.data_base));
        self.scatter_left = 0;
        // Phase weights are a pure function of `count`; recompute them here
        // rather than waiting for the stale `next_refresh`.
        self.refresh_weights();
    }
}

impl std::fmt::Debug for SyntheticStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyntheticStream")
            .field("profile", &self.profile.name)
            .field("id", &self.id)
            .field("emitted", &self.count)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ClassMix;

    fn profile() -> BenchProfile {
        BenchProfile {
            name: "synthtest".into(),
            mix: ClassMix {
                int_alu: 0.35,
                int_mul: 0.02,
                fp_add: 0.15,
                fp_mul: 0.10,
                fp_div: 0.01,
                load: 0.20,
                store: 0.07,
                branch: 0.10,
            },
            dep_mean: 5.0,
            branch_sites: 64,
            branch_predictability: 0.9,
            code_bytes: 16 << 10,
            data_bytes: 128 << 10,
            locality: 0.8,
            hot_fraction: 0.1,
            streaming: false,
            phase_period: 50_000,
            phase_amplitude: 0.3,
        }
    }

    fn collect(n: usize, seed: u64) -> Vec<Instr> {
        let mut s = SyntheticStream::new(profile(), StreamId(1), seed);
        (0..n)
            .map(|_| s.next_instr().instr().expect("infinite stream"))
            .collect()
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(collect(5_000, 7), collect(5_000, 7));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(collect(5_000, 7), collect(5_000, 8));
    }

    #[test]
    fn class_mix_roughly_matches_profile() {
        let instrs = collect(200_000, 3);
        let n = instrs.len() as f64;
        let frac = |c: InstrClass| instrs.iter().filter(|i| i.class == c).count() as f64 / n;
        // Branch fraction should be near the profile's 10%.
        let b = frac(InstrClass::Branch);
        assert!((0.05..0.2).contains(&b), "branch fraction {b}");
        // Loads near 20% of non-branch ~ 18% overall.
        let l = frac(InstrClass::Load);
        assert!((0.1..0.3).contains(&l), "load fraction {l}");
        // FP arithmetic present.
        let f = frac(InstrClass::FpAdd) + frac(InstrClass::FpMul) + frac(InstrClass::FpDiv);
        assert!((0.1..0.4).contains(&f), "fp fraction {f}");
    }

    #[test]
    fn pcs_span_at_most_the_code_footprint() {
        let p = profile();
        let pcs: Vec<u64> = collect(20_000, 5).iter().map(|i| i.pc).collect();
        let lo = *pcs.iter().min().unwrap();
        let hi = *pcs.iter().max().unwrap();
        assert!(
            hi - lo < p.code_bytes,
            "code span {:#x} exceeds {:#x}",
            hi - lo,
            p.code_bytes
        );
        // All PCs carry the stream tag.
        assert!(pcs.iter().all(|pc| pc >> StreamId::ADDR_BITS == 1));
    }

    #[test]
    fn addresses_span_at_most_the_data_footprint() {
        let p = profile();
        let addrs: Vec<u64> = collect(50_000, 5)
            .iter()
            .filter(|i| i.class.is_mem())
            .map(|i| i.addr)
            .collect();
        let lo = *addrs.iter().min().unwrap();
        let hi = *addrs.iter().max().unwrap();
        assert!(
            hi - lo < p.data_bytes,
            "data span {:#x} exceeds {:#x}",
            hi - lo,
            p.data_bytes
        );
        assert!(addrs.iter().all(|a| a >> StreamId::ADDR_BITS == 1));
    }

    #[test]
    fn distinct_streams_use_distinct_placements() {
        let a = SyntheticStream::new(profile(), StreamId(1), 7);
        let b = SyntheticStream::new(profile(), StreamId(2), 7);
        assert_ne!(a.data_base, b.data_base);
        assert_ne!(a.code_base, b.code_base);
    }

    #[test]
    fn dependency_distances_have_roughly_the_right_mean() {
        let instrs = collect(100_000, 11);
        let deps: Vec<f64> = instrs
            .iter()
            .filter(|i| i.dep_dist > 0)
            .map(|i| f64::from(i.dep_dist))
            .collect();
        let mean = deps.iter().sum::<f64>() / deps.len() as f64;
        assert!((3.0..8.0).contains(&mean), "dep mean {mean} vs profile 5.0");
    }

    /// `dep_distance` must equal the `ceil`-then-clamp it replaced, on exact
    /// integers, just either side of them, and the non-finite and negative
    /// inputs a degenerate `dep_mean` can produce.
    #[test]
    fn dep_distance_matches_ceil_then_clamp() {
        fn reference(x: f64) -> u8 {
            let d = x.ceil();
            if d.is_finite() {
                (d as u64).clamp(1, u64::from(MAX_DEP)) as u8
            } else {
                1
            }
        }
        let mut xs = vec![
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -3.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1e300,
            u64::MAX as f64,
        ];
        for k in 0..=60 {
            let k = f64::from(k);
            xs.extend([
                k,
                k + 0.5,
                k * (1.0 + f64::EPSILON),
                k * (1.0 - f64::EPSILON / 2.0),
            ]);
        }
        let mut rng = SmallRng::seed_from_u64(5);
        xs.extend((0..20_000).map(|_| rng.gen_range(0.0..60.0)));
        for x in xs {
            assert_eq!(dep_distance(x), reference(x), "x = {x:?}");
        }
    }

    #[test]
    fn limit_finishes_stream() {
        let mut s = SyntheticStream::new(profile(), StreamId(1), 1).with_limit(100);
        let mut produced = 0;
        loop {
            match s.next_instr() {
                Fetch::Instr(_) => produced += 1,
                Fetch::Finished => break,
                Fetch::Blocked => panic!("synthetic streams never block"),
            }
            assert!(produced <= 100);
        }
        assert_eq!(produced, 100);
        assert_eq!(s.emitted(), 100);
        // Stays finished.
        assert_eq!(s.next_instr(), Fetch::Finished);
    }

    #[test]
    fn skip_advances_count_and_respects_limit() {
        let mut s = SyntheticStream::new(profile(), StreamId(1), 3).with_limit(1_000);
        s.skip_instructions(400);
        assert_eq!(s.emitted(), 400);
        assert!(!s.is_finished());
        // Skipping past the limit clamps and finishes.
        s.skip_instructions(10_000);
        assert_eq!(s.emitted(), 1_000);
        assert!(s.is_finished());
        assert_eq!(s.next_instr(), Fetch::Finished);
        // Skipping a finished stream is a no-op.
        s.skip_instructions(5);
        assert_eq!(s.emitted(), 1_000);
    }

    #[test]
    fn skip_is_deterministic() {
        // Two streams skipped to the same position must continue identically.
        let mut a = SyntheticStream::new(profile(), StreamId(1), 3);
        let mut b = SyntheticStream::new(profile(), StreamId(1), 3);
        a.skip_instructions(123_456);
        b.skip_instructions(123_456);
        let next_a: Vec<Instr> = (0..2_000)
            .map(|_| a.next_instr().instr().unwrap())
            .collect();
        let next_b: Vec<Instr> = (0..2_000)
            .map(|_| b.next_instr().instr().unwrap())
            .collect();
        assert_eq!(next_a, next_b);
        // And a different skip distance lands in a different state.
        let mut c = SyntheticStream::new(profile(), StreamId(1), 3);
        c.skip_instructions(123_457);
        let next_c: Vec<Instr> = (0..2_000)
            .map(|_| c.next_instr().instr().unwrap())
            .collect();
        assert_ne!(next_a, next_c);
    }

    #[test]
    fn skip_preserves_stream_statistics() {
        // After a long skip the stream still honours its profile: addresses
        // stay inside the footprint, classes keep roughly the mix.
        let p = profile();
        let mut s = SyntheticStream::new(p.clone(), StreamId(1), 5);
        s.skip_instructions(1_000_000);
        let instrs: Vec<Instr> = (0..50_000)
            .map(|_| s.next_instr().instr().unwrap())
            .collect();
        let addrs: Vec<u64> = instrs
            .iter()
            .filter(|i| i.class.is_mem())
            .map(|i| i.addr)
            .collect();
        let span = addrs.iter().max().unwrap() - addrs.iter().min().unwrap();
        assert!(span < p.data_bytes, "data span {span:#x}");
        let branches = instrs
            .iter()
            .filter(|i| i.class == InstrClass::Branch)
            .count() as f64
            / instrs.len() as f64;
        assert!(
            (0.05..0.2).contains(&branches),
            "branch fraction {branches}"
        );
    }

    #[test]
    fn branch_outcomes_are_mostly_biased() {
        // With predictability 0.9 most sites are heavily biased, so the
        // overall taken-rate should sit away from 0.5 noise... measured
        // per-site: check that at least some sites are strongly biased.
        let mut s = SyntheticStream::new(profile(), StreamId(1), 13);
        let mut per_site: std::collections::HashMap<u64, (u64, u64)> = Default::default();
        for _ in 0..200_000 {
            if let Fetch::Instr(i) = s.next_instr() {
                if i.class == InstrClass::Branch {
                    let e = per_site.entry(i.pc).or_default();
                    e.0 += u64::from(i.taken);
                    e.1 += 1;
                }
            }
        }
        let hot_sites: Vec<_> = per_site.values().filter(|(_, n)| *n >= 50).collect();
        assert!(!hot_sites.is_empty());
        let biased = hot_sites
            .iter()
            .filter(|(t, n)| {
                let r = *t as f64 / *n as f64;
                !(0.2..=0.8).contains(&r)
            })
            .count();
        assert!(
            biased * 2 > hot_sites.len(),
            "most hot sites should be biased: {biased}/{}",
            hot_sites.len()
        );
    }

    #[test]
    fn streaming_profile_sweeps_addresses() {
        let mut p = profile();
        p.streaming = true;
        p.locality = 0.0;
        let mut s = SyntheticStream::new(p, StreamId(1), 17);
        let mut addrs = Vec::new();
        for _ in 0..10_000 {
            if let Fetch::Instr(i) = s.next_instr() {
                if i.class.is_mem() {
                    addrs.push(i.addr);
                }
            }
        }
        // Sequential sweep: consecutive addresses mostly ascending by 8.
        let ascending = addrs.windows(2).filter(|w| w[1] == w[0] + 8).count();
        assert!(
            ascending * 2 > addrs.len(),
            "streaming refs should stride: {ascending}/{}",
            addrs.len()
        );
    }
}

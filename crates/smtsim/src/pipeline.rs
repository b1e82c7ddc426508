//! The per-cycle out-of-order SMT pipeline engine.
//!
//! Stage order within a cycle (oldest work first, so producers wake
//! dependents with no artificial bubbles):
//!
//! 1. **Complete** — instructions whose latency expires this cycle commit,
//!    free their renaming registers, and (for branches) redirect the fetcher.
//! 2. **Issue** — ready instructions in the shared integer/FP queues are sent
//!    to functional units, oldest first, up to the issue width. A ready
//!    instruction that finds its unit pool exhausted records a conflict.
//! 3. **Dispatch** — decoded instructions claim a renaming register and a
//!    queue slot. A full queue or empty register pool records a conflict and
//!    stalls that thread (head-of-line).
//! 4. **Fetch** — ICOUNT.2.8 selects threads; instructions are pulled from
//!    their [`InstructionSource`]s through the I-cache/I-TLB and the shared
//!    branch predictor.
//!
//! The engine does not fetch wrong paths. A mispredicted branch instead halts
//! its thread's fetch from prediction until resolution plus the misprediction
//! penalty — the same front-end bubble, without needing to rewind a source.

use crate::branch::BranchPredictor;
use crate::cache::CacheHierarchy;
use crate::config::MachineConfig;
use crate::context::{DepRing, RING};
use crate::counters::{ConflictCounters, Resource};
use crate::fetch::{prioritize, FetchCandidate};
use crate::fu::{FuKind, FuPools};
use crate::queue::{IssueQueue, QEntry, NO_DEP};
use crate::rename::RegPool;
use crate::stats::{StageOccupancy, ThreadStats, TimesliceStats};
use crate::tlb::Tlb;
use crate::trace::{Fetch, Instr, InstrClass, InstructionSource};
use std::collections::VecDeque;

/// Per-context decode-buffer capacity.
const DECODE_CAP: usize = 16;

/// Cycles between stage-occupancy samples when sampling is on.
pub const OCCUPANCY_INTERVAL: u64 = 64;

#[derive(Clone)]
struct ContextState {
    /// Fetched, decoded instructions awaiting dispatch: `(eligible_at, instr)`.
    decode: VecDeque<(u64, Instr)>,
    /// An instruction pulled from the source but not yet accepted (its cache
    /// line missed); retried first when fetch resumes.
    pending: Option<Instr>,
    /// Fetch is stalled until this cycle (I-cache miss / mispredict redirect).
    fetch_stall_until: u64,
    /// A mispredicted branch is in flight; fetch halted until it resolves.
    branch_stall: bool,
    /// Source reported `Finished`.
    finished: bool,
    /// Instructions in pre-issue stages (decode + queues): the ICOUNT value.
    preissue: usize,
    /// Instructions fetched but not completed (window occupancy).
    inflight: usize,
    /// Instructions issued to functional units this timeslice (for the
    /// fetched >= issued >= committed conservation check).
    issued: u64,
    /// Branches fetched but not yet resolved (for BRCOUNT).
    unresolved_branches: usize,
    /// Loads in flight that missed the L1 D-cache (for MISSCOUNT).
    outstanding_misses: usize,
    /// Next dynamic sequence number (assigned at dispatch).
    seq: u64,
    /// Dependence bookkeeping for recent sequence numbers.
    ring: DepRing,
    /// Last I-cache line fetched (sequential fetch within a line is free).
    last_line: u64,
    stats: ThreadStats,
}

impl ContextState {
    fn new() -> Self {
        ContextState {
            decode: VecDeque::with_capacity(DECODE_CAP),
            pending: None,
            fetch_stall_until: 0,
            branch_stall: false,
            finished: false,
            preissue: 0,
            inflight: 0,
            issued: 0,
            unresolved_branches: 0,
            outstanding_misses: 0,
            seq: 0,
            ring: DepRing::new(),
            last_line: u64::MAX,
            stats: ThreadStats::default(),
        }
    }
}

#[derive(Copy, Clone, Debug)]
struct CompleteEvent {
    ctx: u8,
    class: InstrClass,
    mispredicted: bool,
    /// The instruction was a load that missed the L1 D-cache.
    dcache_miss: bool,
}

/// End-of-list marker in [`Wheel`].
const NIL: u32 = u32::MAX;

/// Pending completion events, bucketed by completion cycle: slot
/// `cycle & (slots - 1)` heads a linked list threaded through one pool. The
/// slot count is a power of two longer than any latency, so events of
/// different cycles never share a list; the pool has room for one node per
/// instruction the machine can have in flight, so pushing never allocates.
struct Wheel {
    heads: Vec<u32>,
    /// `(event, next node)`; nodes not on a slot's list are on the free list.
    pool: Vec<(CompleteEvent, u32)>,
    free: u32,
}

impl Wheel {
    fn new(cfg: &MachineConfig) -> Self {
        let slots = (cfg.max_latency() + cfg.lat.fp_div_occupancy + 2) as usize;
        Wheel {
            heads: vec![NIL; slots.next_power_of_two()],
            pool: Vec::with_capacity(cfg.contexts * cfg.max_inflight_per_thread),
            free: NIL,
        }
    }

    /// Drops every pending event (timeslice-boundary pipeline flush).
    fn clear(&mut self) {
        self.heads.fill(NIL);
        self.pool.clear();
        self.free = NIL;
    }

    /// Schedules `ev` for `cycle`, in a recycled node or the next unused one.
    #[inline]
    fn push(&mut self, cycle: u64, ev: CompleteEvent) {
        let slot = cycle as usize & (self.heads.len() - 1);
        let node = (ev, self.heads[slot]);
        if self.free == NIL {
            self.heads[slot] = self.pool.len() as u32;
            self.pool.push(node);
        } else {
            self.heads[slot] = self.free;
            self.free = std::mem::replace(&mut self.pool[self.free as usize], node).1;
        }
    }

    /// Takes one event due at `cycle`, if any is left.
    #[inline]
    fn pop(&mut self, cycle: u64) -> Option<CompleteEvent> {
        let slot = cycle as usize & (self.heads.len() - 1);
        let node = self.heads[slot];
        if node == NIL {
            return None;
        }
        let (ev, next) = self.pool[node as usize];
        self.heads[slot] = next;
        self.pool[node as usize].1 = self.free;
        self.free = node;
        Some(ev)
    }
}

/// Indices into [`Processor::queues`].
const INT_Q: usize = 0;
const FP_Q: usize = 1;

/// An SMT processor: hardware contexts plus the shared microarchitecture.
///
/// The processor persists its caches, TLBs, and branch-predictor tables
/// across timeslices, so the memory system stays warm for jobs that remain
/// resident — the effect warmstart scheduling (§8 of the paper) exploits.
/// The pipeline itself (queues, renaming registers, in-flight windows) is
/// drained at every timeslice boundary, modeling the context-switch flush.
pub struct Processor {
    cfg: MachineConfig,
    caches: CacheHierarchy,
    itlb: Tlb,
    dtlb: Tlb,
    bp: BranchPredictor,
    /// The shared integer and floating-point queues, `[INT_Q, FP_Q]`.
    queues: [IssueQueue; 2],
    int_regs: RegPool,
    fp_regs: RegPool,
    fu: FuPools,
    wheel: Wheel,
    contexts: Vec<ContextState>,
    /// Fetch-candidate scratch, refilled every cycle.
    cands: Vec<FetchCandidate>,
    /// Issue-scan scratch: one readiness bitmask per 64 queue positions.
    ready: Vec<u64>,
    /// Dispatch priority; always below `contexts.len()` inside the cycle loop.
    rr_cursor: usize,
    now: u64,
    /// Cycles-with-conflict this timeslice, indexed by `Resource as usize`.
    conflict_cycles: [u64; 7],
    /// Per-cycle conflict flags, indexed by `Resource as usize`.
    cycle_flags: [bool; 7],
    il1_line_shift: u32,
    /// Whether the cycle loop samples [`Self::occupancy`]; off costs one
    /// branch per cycle.
    sample_occupancy: bool,
    /// Occupancy samples of the latest timeslice (buffer reused).
    occupancy: Vec<StageOccupancy>,
}

impl std::fmt::Debug for Processor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Processor")
            .field("contexts", &self.cfg.contexts)
            .finish_non_exhaustive()
    }
}

impl Processor {
    /// Builds a processor for the given machine.
    ///
    /// # Panics
    /// Panics if the configuration fails [`MachineConfig::validate`] or if the
    /// per-thread in-flight cap exceeds the dependence-ring size.
    pub fn new(cfg: MachineConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid machine configuration: {e}");
        }
        assert!(
            cfg.max_inflight_per_thread <= RING,
            "per-thread window larger than dependence ring"
        );
        Processor {
            caches: CacheHierarchy::new(cfg.icache, cfg.dcache, cfg.l2, cfg.mem_latency),
            itlb: Tlb::new(cfg.itlb_entries, cfg.page_bytes, cfg.tlb_miss_penalty),
            dtlb: Tlb::new(cfg.dtlb_entries, cfg.page_bytes, cfg.tlb_miss_penalty),
            bp: BranchPredictor::new(cfg.branch, cfg.contexts),
            queues: [
                IssueQueue::new(cfg.int_queue),
                IssueQueue::new(cfg.fp_queue),
            ],
            int_regs: RegPool::new(cfg.int_regs),
            fp_regs: RegPool::new(cfg.fp_regs),
            fu: FuPools::new(cfg.int_units, cfg.fp_units, cfg.ls_ports),
            wheel: Wheel::new(&cfg),
            contexts: Vec::new(),
            cands: Vec::with_capacity(cfg.contexts),
            ready: Vec::with_capacity(cfg.int_queue.max(cfg.fp_queue).div_ceil(64)),
            rr_cursor: 0,
            now: 0,
            conflict_cycles: [0; 7],
            cycle_flags: [false; 7],
            il1_line_shift: cfg.icache.line_bytes.trailing_zeros(),
            sample_occupancy: false,
            occupancy: Vec::new(),
            cfg,
        }
    }

    /// Turns stage-occupancy sampling on or off: when on, every detailed
    /// timeslice records a [`StageOccupancy`] every [`OCCUPANCY_INTERVAL`]
    /// cycles, read back through [`Self::occupancy`].
    pub fn sample_occupancy(&mut self, on: bool) {
        self.sample_occupancy = on;
    }

    /// The occupancy samples of the most recent timeslice (empty when
    /// sampling was off).
    pub fn occupancy(&self) -> &[StageOccupancy] {
        &self.occupancy
    }

    /// The configuration this processor models.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Invalidates caches and TLBs (cold-start experiments).
    pub fn flush_memory_state(&mut self) {
        self.caches.flush();
        self.itlb.flush();
        self.dtlb.flush();
    }

    /// Runs one timeslice: `sources[i]` executes on hardware context `i` for
    /// `cycles` cycles, and the hardware counters for the slice are returned.
    /// Pipeline state is cold at entry (a context switch just happened);
    /// caches, TLBs, and branch-predictor tables stay warm from previous
    /// timeslices.
    ///
    /// # Panics
    /// Panics if more sources are supplied than the machine has contexts, or
    /// if no sources are supplied.
    pub fn run_timeslice(
        &mut self,
        sources: &mut [&mut dyn InstructionSource],
        cycles: u64,
    ) -> TimesliceStats {
        assert!(
            !sources.is_empty(),
            "run_timeslice requires at least one thread"
        );
        assert!(
            sources.len() <= self.cfg.contexts,
            "{} threads but only {} hardware contexts",
            sources.len(),
            self.cfg.contexts
        );

        // Cold pipeline at timeslice entry.
        self.contexts.clear();
        for (i, s) in sources.iter().enumerate() {
            let mut ctx = ContextState::new();
            ctx.stats.stream = s.id();
            self.contexts.push(ctx);
            self.bp.reset_history(i);
        }
        self.queues[INT_Q].clear();
        self.queues[FP_Q].clear();
        self.int_regs.reset();
        self.fp_regs.reset();
        self.fu.reset();
        self.wheel.clear();
        self.now = 0;
        self.conflict_cycles = [0; 7];
        self.occupancy.clear();
        // The cursor persists across timeslices of different widths.
        let n = self.contexts.len();
        self.rr_cursor %= n;

        for _ in 0..cycles {
            self.cycle_flags = [false; 7];
            self.complete_stage();
            self.issue_stage();
            self.dispatch_stage();
            self.fetch_stage(sources);
            for (count, &flag) in self.conflict_cycles.iter_mut().zip(&self.cycle_flags) {
                *count += u64::from(flag);
            }
            if self.sample_occupancy {
                self.sample_cycle();
            }
            #[cfg(feature = "check-invariants")]
            self.check_cycle_invariants();
            self.now += 1;
            self.rr_cursor += 1;
            if self.rr_cursor == n {
                self.rr_cursor = 0;
            }
        }

        let mut conflicts = ConflictCounters::default();
        for r in Resource::ALL {
            *conflicts.get_mut(r) = self.conflict_cycles[r as usize];
        }
        let stats = TimesliceStats {
            cycles,
            threads: self.contexts.iter().map(|c| c.stats.clone()).collect(),
            conflicts,
            cache: self.caches.take_stats(),
            dtlb: self.dtlb.take_stats(),
            itlb: self.itlb.take_stats(),
            branches: self.bp.take_stats(),
        };
        #[cfg(feature = "check-invariants")]
        self.assert_timeslice_invariants(&stats);
        stats
    }

    /// Per-cycle structural checks (`check-invariants` builds only): shared
    /// queues and register pools within capacity, per-thread windows within
    /// the configured cap.
    #[cfg(feature = "check-invariants")]
    fn check_cycle_invariants(&self) {
        use crate::invariants::InvariantViolation;
        let fail = |thread: Option<usize>, counter: &'static str, detail: String| -> ! {
            panic!(
                "{}",
                InvariantViolation {
                    cycle: self.now,
                    thread,
                    counter,
                    detail,
                }
            )
        };
        for (name, occ, cap) in [
            ("int_queue", self.queues[INT_Q].len(), self.cfg.int_queue),
            ("fp_queue", self.queues[FP_Q].len(), self.cfg.fp_queue),
            ("int_regs", self.int_regs.in_use(), self.cfg.int_regs),
            ("fp_regs", self.fp_regs.in_use(), self.cfg.fp_regs),
        ] {
            if occ > cap {
                fail(
                    None,
                    name,
                    format!("occupancy ({occ}) exceeds configured capacity ({cap})"),
                );
            }
        }
        for (i, c) in self.contexts.iter().enumerate() {
            if c.inflight > self.cfg.max_inflight_per_thread {
                fail(
                    Some(i),
                    "inflight",
                    format!(
                        "in-flight instructions ({}) exceed the per-thread window ({})",
                        c.inflight, self.cfg.max_inflight_per_thread
                    ),
                );
            }
            if c.decode.len() > DECODE_CAP {
                fail(
                    Some(i),
                    "decode",
                    format!(
                        "decode buffer ({}) exceeds its capacity ({DECODE_CAP})",
                        c.decode.len()
                    ),
                );
            }
        }
    }

    /// Per-timeslice conservation checks (`check-invariants` builds only):
    /// the engine-internal fetched >= issued >= committed chain per thread,
    /// then every law of [`crate::invariants::check_timeslice`].
    #[cfg(feature = "check-invariants")]
    fn assert_timeslice_invariants(&self, stats: &TimesliceStats) {
        use crate::invariants::InvariantViolation;
        for (i, c) in self.contexts.iter().enumerate() {
            let (fetched, issued, committed) = (c.stats.fetched, c.issued, c.stats.committed);
            if committed > issued || issued > fetched {
                panic!(
                    "{}",
                    InvariantViolation {
                        cycle: stats.cycles,
                        thread: Some(i),
                        counter: "issued",
                        detail: format!(
                            "conservation fetched >= issued >= committed broken: \
                             fetched {fetched}, issued {issued}, committed {committed}"
                        ),
                    }
                );
            }
        }
        crate::invariants::assert_timeslice(stats);
    }

    /// Records a [`StageOccupancy`] on sampled cycles. Kept out of line so
    /// the cycle loop with sampling off stays a single branch.
    #[cold]
    fn sample_cycle(&mut self) {
        if self.now.is_multiple_of(OCCUPANCY_INTERVAL) {
            self.occupancy.push(StageOccupancy {
                cycle: self.now,
                decode: self.contexts.iter().map(|c| c.decode.len()).sum(),
                int_queue: self.queues[INT_Q].len(),
                fp_queue: self.queues[FP_Q].len(),
                int_regs_in_use: self.int_regs.in_use(),
                fp_regs_in_use: self.fp_regs.in_use(),
                inflight: self.contexts.iter().map(|c| c.inflight).sum(),
            });
        }
    }

    #[inline]
    fn flag(&mut self, r: Resource) {
        self.cycle_flags[r as usize] = true;
    }

    fn complete_stage(&mut self) {
        let penalty_restart = self.now + 1 + self.bp.mispredict_penalty();
        // Events of one cycle commute (counters, and a `max` with the one
        // `penalty_restart`), so the list's order does not matter.
        while let Some(ev) = self.wheel.pop(self.now) {
            let ctx = &mut self.contexts[ev.ctx as usize];
            ctx.inflight -= 1;
            ctx.stats.committed += 1;
            ctx.stats.class_counts[ev.class as usize] += 1;
            if ev.class == InstrClass::Branch {
                ctx.unresolved_branches = ctx.unresolved_branches.saturating_sub(1);
                if ev.mispredicted {
                    ctx.branch_stall = false;
                    ctx.fetch_stall_until = ctx.fetch_stall_until.max(penalty_restart);
                }
            }
            if ev.dcache_miss {
                ctx.outstanding_misses = ctx.outstanding_misses.saturating_sub(1);
            }
            // Free the renaming register this instruction held.
            match ev.class {
                c if c.is_fp() => self.fp_regs.release(),
                InstrClass::Store | InstrClass::Branch => {}
                _ => self.int_regs.release(),
            }
        }
    }

    /// Issues from one queue age-first, up to `budget` instructions. A branch-
    /// free pass first collects the entries whose producer has completed into
    /// bitmasks, one per 64 queue positions; only those entries are then
    /// visited, claiming a functional unit and starting execution. Readiness
    /// is sampled for the whole queue before anything issues, as an
    /// entry-by-entry scan ahead of execution would: starting an instruction
    /// rewrites its dependence-ring slot, which an instruction `RING` younger
    /// may own by then (see [`DepRing`]). Sets `unit_conflicts[kind]` for pools
    /// that turned a ready instruction away.
    fn issue_from(&mut self, q: usize, budget: &mut usize, unit_conflicts: &mut [bool; 3]) {
        let now = self.now;
        self.ready.clear();
        for window in self.queues[q].entries().chunks(64) {
            let mut mask = 0u64;
            for (i, e) in window.iter().enumerate() {
                let done = self.contexts[e.ctx as usize].ring.ready_by(e.dep_seq, now);
                mask |= u64::from((e.dep_seq == NO_DEP) | done) << i;
            }
            self.ready.push(mask);
        }
        // Position of the window's first entry, less those already removed.
        let mut base = 0;
        for w in 0..self.ready.len() {
            let (mut mask, mut issued) = (self.ready[w], 0u64);
            while mask != 0 && *budget > 0 {
                let i = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let e = self.queues[q].entries()[base + i];
                let kind = FuKind::for_class(e.class);
                let occupancy = if e.class == InstrClass::FpDiv {
                    self.cfg.lat.fp_div_occupancy
                } else {
                    1
                };
                // A pool only gets busier within a cycle: once it has turned
                // an instruction away it turns away the rest.
                if unit_conflicts[kind as usize] || !self.fu.try_issue(kind, now, occupancy) {
                    unit_conflicts[kind as usize] = true;
                    continue;
                }
                *budget -= 1;
                issued |= 1 << i;
                self.start_execution(e);
            }
            self.queues[q].remove_issued(base, issued);
            base += 64 - issued.count_ones() as usize;
        }
    }

    fn issue_stage(&mut self) {
        let mut budget = self.cfg.issue_width;
        let mut unit_conflicts = [false; 3];
        self.issue_from(INT_Q, &mut budget, &mut unit_conflicts);
        self.issue_from(FP_Q, &mut budget, &mut unit_conflicts);
        for (kind, resource) in [
            (FuKind::Int, Resource::IntUnits),
            (FuKind::Fp, Resource::FpUnits),
            (FuKind::Ls, Resource::LsPorts),
        ] {
            self.cycle_flags[resource as usize] |= unit_conflicts[kind as usize];
        }
    }

    /// Computes the latency of an issued instruction (performing cache/TLB
    /// accesses for memory operations) and schedules its completion.
    fn start_execution(&mut self, e: QEntry) {
        let lat = self.cfg.lat;
        let mut dcache_miss = false;
        let latency = match e.class {
            InstrClass::IntAlu => lat.int_alu,
            InstrClass::IntMul => lat.int_mul,
            InstrClass::FpAdd => lat.fp_add,
            InstrClass::FpMul => lat.fp_mul,
            InstrClass::FpDiv => lat.fp_div,
            InstrClass::Branch => lat.branch,
            InstrClass::Load => {
                // The miss test must look at the cache latency alone: a DTLB
                // refill on an L1-hit load is not a data-cache miss.
                let tlb_lat = self.dtlb.access(e.addr);
                let mem_lat = self.caches.access_data(e.addr);
                dcache_miss = mem_lat > self.cfg.dcache.hit_latency;
                let t = &mut self.contexts[e.ctx as usize].stats;
                t.dl1_refs += 1;
                t.dl1_misses += u64::from(dcache_miss);
                tlb_lat + mem_lat
            }
            InstrClass::Store => {
                // Stores retire through the write buffer: the thread does not
                // wait on the cache, but the line is still brought in.
                let _ = self.dtlb.access(e.addr);
                let hit = self.caches.access_data(e.addr) <= self.cfg.dcache.hit_latency;
                let t = &mut self.contexts[e.ctx as usize].stats;
                t.dl1_refs += 1;
                t.dl1_misses += u64::from(!hit);
                lat.store
            }
        };
        let done = self.now + latency.max(1);
        let ctx = &mut self.contexts[e.ctx as usize];
        ctx.preissue -= 1;
        ctx.issued += 1;
        if dcache_miss {
            ctx.outstanding_misses += 1;
        }
        ctx.ring.set_done(e.seq, done);
        self.wheel.push(
            done,
            CompleteEvent {
                ctx: e.ctx,
                class: e.class,
                mispredicted: e.mispredicted,
                dcache_miss,
            },
        );
    }

    fn dispatch_stage(&mut self) {
        let n = self.contexts.len();
        let mut budget = self.cfg.dispatch_width;
        let mut ci = self.rr_cursor;
        'ctx_loop: for _ in 0..n {
            // Head-of-line dispatch per context.
            loop {
                if budget == 0 {
                    break 'ctx_loop;
                }
                let Some(&(eligible_at, instr)) = self.contexts[ci].decode.front() else {
                    break;
                };
                if eligible_at > self.now {
                    break;
                }
                let is_fp = instr.class.is_fp();
                if self.queues[usize::from(is_fp)].is_full() {
                    self.flag(if is_fp {
                        Resource::FpQueue
                    } else {
                        Resource::IntQueue
                    });
                    break;
                }
                // Stores and branches have no destination register.
                let needs_reg = !matches!(instr.class, InstrClass::Store | InstrClass::Branch);
                if needs_reg {
                    let ok = if is_fp {
                        self.fp_regs.try_alloc()
                    } else {
                        self.int_regs.try_alloc()
                    };
                    if !ok {
                        self.flag(if is_fp {
                            Resource::FpRegs
                        } else {
                            Resource::IntRegs
                        });
                        break;
                    }
                }
                let ctx = &mut self.contexts[ci];
                ctx.decode.pop_front();
                let seq = ctx.seq;
                ctx.seq += 1;
                let dep_seq = if instr.dep_dist == 0 || u64::from(instr.dep_dist) > seq {
                    NO_DEP
                } else {
                    seq - u64::from(instr.dep_dist)
                };
                ctx.ring.set_pending(seq);
                let entry = QEntry {
                    ctx: ci as u8,
                    class: instr.class,
                    dep_seq,
                    addr: instr.addr,
                    seq,
                    // For branches, `taken` was repurposed at fetch to carry
                    // the misprediction flag.
                    mispredicted: instr.class == InstrClass::Branch && instr.taken,
                };
                self.queues[usize::from(is_fp)].push(entry);
                budget -= 1;
            }
            ci += 1;
            if ci == n {
                ci = 0;
            }
        }
    }

    fn fetch_stage(&mut self, sources: &mut [&mut dyn InstructionSource]) {
        self.cands.clear();
        for (i, c) in self.contexts.iter().enumerate() {
            let eligible = !c.finished
                && !c.branch_stall
                && c.fetch_stall_until <= self.now
                && c.inflight < self.cfg.max_inflight_per_thread
                && c.decode.len() < DECODE_CAP;
            if eligible {
                self.cands.push(FetchCandidate {
                    ctx: i,
                    icount: c.preissue,
                    brcount: c.unresolved_branches,
                    misscount: c.outstanding_misses,
                });
            }
        }
        prioritize(self.cfg.fetch_policy, &mut self.cands, self.now);
        let mut budget = self.cfg.fetch_width;
        let mut threads_used = 0;
        for k in 0..self.cands.len() {
            if budget == 0 || threads_used >= self.cfg.fetch_threads {
                break;
            }
            let ci = self.cands[k].ctx;
            if self.fetch_from(ci, &mut *sources[ci], &mut budget) > 0 {
                threads_used += 1;
            }
        }
    }

    /// Fetches up to `budget` instructions from context `ci`; returns how many
    /// were fetched.
    fn fetch_from(
        &mut self,
        ci: usize,
        source: &mut dyn InstructionSource,
        budget: &mut usize,
    ) -> usize {
        let mut fetched = 0;
        while *budget > 0 {
            {
                let ctx = &self.contexts[ci];
                if ctx.inflight >= self.cfg.max_inflight_per_thread
                    || ctx.decode.len() >= DECODE_CAP
                {
                    break;
                }
            }
            let mut instr = match self.contexts[ci].pending.take() {
                Some(i) => i,
                None => match source.next_instr() {
                    Fetch::Instr(i) => i,
                    Fetch::Blocked => {
                        self.contexts[ci].stats.blocked_cycles += 1;
                        break;
                    }
                    Fetch::Finished => {
                        self.contexts[ci].finished = true;
                        break;
                    }
                },
            };
            // I-cache / I-TLB access on line crossing.
            let line = instr.pc >> self.il1_line_shift;
            if line != self.contexts[ci].last_line {
                // Book the per-thread miss off the hierarchy counter delta:
                // the access latency is not a miss indicator (a nonzero L1I
                // hit latency would misclassify every hit as a miss).
                let il1_misses_before = self.caches.stats.il1_misses;
                let ic_lat = self.caches.access_instr(instr.pc);
                let icache_missed = self.caches.stats.il1_misses > il1_misses_before;
                let lat = self.itlb.access(instr.pc) + ic_lat;
                let ctx = &mut self.contexts[ci];
                ctx.stats.il1_refs += 1;
                ctx.stats.il1_misses += u64::from(icache_missed);
                ctx.last_line = line;
                if lat > 0 {
                    ctx.pending = Some(instr);
                    ctx.fetch_stall_until = self.now + lat;
                    break;
                }
            }
            // Branch prediction happens at fetch.
            let mut stop_after = false;
            if instr.class == InstrClass::Branch {
                let arch_taken = instr.taken;
                let mispredicted = self.bp.predict_and_update(ci, instr.pc, arch_taken);
                // Repurpose `taken` to carry the misprediction flag onward.
                instr.taken = mispredicted;
                self.contexts[ci].unresolved_branches += 1;
                if mispredicted {
                    self.contexts[ci].branch_stall = true;
                    stop_after = true;
                } else if arch_taken {
                    // Correctly-predicted taken branch: the fetch
                    // discontinuity ends this thread's fetching this cycle.
                    stop_after = true;
                }
            }
            let ctx = &mut self.contexts[ci];
            ctx.decode
                .push_back((self.now + self.cfg.frontend_delay, instr));
            ctx.stats.fetched += 1;
            ctx.preissue += 1;
            ctx.inflight += 1;
            fetched += 1;
            *budget -= 1;
            if stop_after {
                break;
            }
        }
        fetched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FetchPolicy;
    use crate::trace::StreamId;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// Independent int ALU ops, sequential PCs.
    struct AluStream {
        pc: u64,
        id: StreamId,
    }
    impl InstructionSource for AluStream {
        fn next_instr(&mut self) -> Fetch {
            self.pc = (self.pc + 4) % 4096;
            Fetch::Instr(Instr::int_alu(self.id.tag_addr(self.pc), 0))
        }
        fn id(&self) -> StreamId {
            self.id
        }
    }

    /// Fully serial chain: every instruction depends on the previous one.
    struct SerialStream {
        pc: u64,
        id: StreamId,
    }
    impl InstructionSource for SerialStream {
        fn next_instr(&mut self) -> Fetch {
            self.pc = (self.pc + 4) % 4096;
            Fetch::Instr(Instr::int_alu(self.id.tag_addr(self.pc), 1))
        }
        fn id(&self) -> StreamId {
            self.id
        }
    }

    /// Independent FP divides — long-latency, unit-hogging FP work.
    struct FpDivStream {
        pc: u64,
        id: StreamId,
    }
    impl InstructionSource for FpDivStream {
        fn next_instr(&mut self) -> Fetch {
            self.pc = (self.pc + 4) % 4096;
            Fetch::Instr(Instr::fp(InstrClass::FpDiv, self.id.tag_addr(self.pc), 0))
        }
        fn id(&self) -> StreamId {
            self.id
        }
    }

    fn engine(contexts: usize) -> Processor {
        Processor::new(MachineConfig::alpha21264_like(contexts))
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(format!("{:?}", engine(3)).contains("contexts: 3"));
    }

    /// The entry-by-entry issue scan `issue_from` replaced, as a reference
    /// model: returns the positions issued, in age order.
    fn sequential_issue(
        e: &Processor,
        q: usize,
        fu: &mut FuPools,
        budget: &mut usize,
        unit_conflicts: &mut [bool; 3],
    ) -> Vec<usize> {
        let mut issued = Vec::new();
        for (pos, entry) in e.queues[q].entries().iter().enumerate() {
            if *budget == 0 {
                break;
            }
            let ready = entry.dep_seq == NO_DEP || {
                let done = e.contexts[entry.ctx as usize].ring.done_at(entry.dep_seq);
                done != crate::context::NOT_DONE && done <= e.now
            };
            if !ready {
                continue;
            }
            let kind = FuKind::for_class(entry.class);
            let occupancy = if entry.class == InstrClass::FpDiv {
                e.cfg.lat.fp_div_occupancy
            } else {
                1
            };
            if !fu.try_issue(kind, e.now, occupancy) {
                unit_conflicts[kind as usize] = true;
                continue;
            }
            *budget -= 1;
            issued.push(pos);
        }
        issued
    }

    /// Runs `issue_from` on queue `q` for one cycle and asserts that it issued
    /// what [`sequential_issue`] picks from the same state. Returns the
    /// positions issued and the pools that conflicted.
    fn issue_and_compare(e: &mut Processor, q: usize, what: &str) -> (Vec<usize>, [bool; 3]) {
        let before: Vec<QEntry> = e.queues[q].entries().to_vec();
        let issued_before: u64 = e.contexts.iter().map(|c| c.issued).sum();
        let (mut ref_budget, mut ref_conflicts) = (e.cfg.issue_width, [false; 3]);
        let mut ref_fu = e.fu.clone();
        let picked = sequential_issue(e, q, &mut ref_fu, &mut ref_budget, &mut ref_conflicts);
        let expected: Vec<QEntry> = before
            .iter()
            .enumerate()
            .filter(|(pos, _)| !picked.contains(pos))
            .map(|(_, entry)| *entry)
            .collect();

        let (mut budget, mut conflicts) = (e.cfg.issue_width, [false; 3]);
        e.issue_from(q, &mut budget, &mut conflicts);
        assert_eq!(e.queues[q].entries(), &expected[..], "{what}");
        assert_eq!((budget, conflicts), (ref_budget, ref_conflicts), "{what}");
        let issued: u64 = e.contexts.iter().map(|c| c.issued).sum();
        assert_eq!((issued - issued_before) as usize, picked.len(), "{what}");
        (picked, conflicts)
    }

    /// The bitmask issue scan must pick exactly what the sequential scan
    /// picked, on random queues of random readiness — including queues longer
    /// than one 64-entry window, and entries whose producer sits in the same
    /// queue and issues this very cycle.
    #[test]
    fn bitmask_issue_matches_sequential_scan() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut next = move |bound: u64| rng.gen_range(0..bound);
        let (mut deepest, mut any_conflict) = (0, false);
        for case in 0..1_440 {
            let len = [1, 20, 63, 64, 65, 130, 200][case % 7];
            let q = case / 7 % 2;
            // Sparse readiness and wide pools push the picks deep into the
            // queue; dense readiness and narrow pools exercise the conflicts.
            let ready_pct = [5, 40, 95][case / 14 % 3];
            let mut cfg = MachineConfig::alpha21264_like(2);
            cfg.int_queue = len;
            cfg.fp_queue = len;
            cfg.issue_width = 1 + next(12) as usize;
            cfg.int_units = [1, 4, 32][next(3) as usize];
            cfg.fp_units = cfg.int_units;
            let mut e = Processor::new(cfg);
            e.now = 1_000 + next(50);
            e.contexts = vec![ContextState::new(), ContextState::new()];
            let classes: &[InstrClass] = if q == FP_Q {
                &[InstrClass::FpAdd, InstrClass::FpMul, InstrClass::FpDiv]
            } else {
                &[InstrClass::IntAlu, InstrClass::IntMul, InstrClass::Branch]
            };
            // Every context has 200 older instructions, none issued yet.
            let mut seqs = [200u64, 200];
            for ctx in &mut e.contexts {
                (0..200).for_each(|seq| ctx.ring.set_pending(seq));
            }
            for _ in 0..len {
                // One context now and then, so that sequence numbers a whole
                // ring apart meet in one queue: issuing the older one rewrites
                // the slot the younger one owns.
                let ctx = if case % 5 == 0 { 0 } else { next(2) as usize };
                let seq = seqs[ctx];
                seqs[ctx] += 1;
                // A producer still in this queue (`>= 200`) is pending, as in
                // the engine. An older one completed, completes later, has
                // not issued, or — `set_pending` below reuses slots — was
                // recycled out of the dependence ring.
                let dep_seq = match next(300) {
                    r if r < ready_pct => NO_DEP,
                    r if r < 2 * ready_pct => seq - 129 - next(20),
                    _ => seq - 1 - next(60),
                };
                if dep_seq < 200 {
                    match (next(100) < ready_pct, next(3)) {
                        (true, _) => e.contexts[ctx].ring.set_done(dep_seq, e.now - next(20)),
                        (false, 0) => e.contexts[ctx].ring.set_done(dep_seq, e.now + 1 + next(20)),
                        (false, _) => {}
                    }
                }
                e.contexts[ctx].ring.set_pending(seq);
                e.contexts[ctx].preissue += 1;
                e.queues[q].push(QEntry {
                    ctx: ctx as u8,
                    class: classes[next(3) as usize],
                    dep_seq,
                    addr: 0,
                    seq,
                    mispredicted: false,
                });
            }

            let (picked, conflicts) = issue_and_compare(&mut e, q, &format!("case {case}"));
            deepest = deepest.max(picked.last().copied().unwrap_or(0));
            any_conflict |= conflicts.contains(&true);
        }
        // At most 12 issue per case, so this pick came from a later window.
        assert!(deepest >= 64 + 12, "deepest pick at position {deepest}");
        assert!(any_conflict, "some case turns a ready instruction away");
    }

    /// Issuing an instruction rewrites its dependence-ring slot, which an
    /// instruction `RING` younger may own by then; dependents of the younger
    /// one then read it as "long complete". They must see that next cycle, as
    /// with the entry-by-entry scan — also when they sit in a later 64-entry
    /// window than the instruction that issued.
    #[test]
    fn readiness_is_sampled_before_anything_issues() {
        let mut cfg = MachineConfig::alpha21264_like(1);
        cfg.int_queue = 200;
        let mut e = Processor::new(cfg);
        e.now = 1_000;
        e.contexts = vec![ContextState::new()];
        // 200..=330 wait in the queue. 200 is ready; the rest depend on their
        // predecessor, except the last, which depends on 328 — the instruction
        // that shares a ring slot with 200.
        let young = 200 + RING as u64;
        for seq in 200..=young + 2 {
            let dep_seq = match seq {
                200 => NO_DEP,
                s if s == young + 2 => young,
                s => s - 1,
            };
            e.contexts[0].ring.set_pending(seq);
            e.contexts[0].preissue += 1;
            e.queues[INT_Q].push(QEntry {
                ctx: 0,
                class: InstrClass::IntAlu,
                dep_seq,
                addr: 0,
                seq,
                mispredicted: false,
            });
        }
        let waits = |e: &Processor| e.queues[INT_Q].entries().iter().any(|q| q.seq == young + 2);
        let (picked, _) = issue_and_compare(&mut e, INT_Q, "first cycle");
        assert!(picked.contains(&0), "200 issues");
        assert!(
            waits(&e),
            "its slot still said `328 pending` when 330 was tested"
        );
        e.now += 1;
        issue_and_compare(&mut e, INT_Q, "second cycle");
        assert!(!waits(&e), "330 wakes a cycle after 200 overwrote the slot");
    }

    /// Two live completion events of different cycles can never share a wheel
    /// slot — the wheel is a power of two longer than the longest possible
    /// latency — and the pool has a node for every in-flight instruction.
    #[test]
    fn wheel_outlasts_any_latency_and_holds_every_inflight_instruction() {
        let mut slow = MachineConfig::alpha21264_like(8);
        slow.mem_latency = 1_000;
        slow.tlb_miss_penalty = 777;
        slow.lat.fp_div = 63;
        slow.lat.fp_div_occupancy = 64;
        for cfg in [
            MachineConfig::default(),
            MachineConfig::alpha21264_like(8),
            slow,
        ] {
            let mut wheel = Wheel::new(&cfg);
            let slots = wheel.heads.len();
            assert!(slots.is_power_of_two());
            assert!(slots as u64 > cfg.max_latency() + cfg.lat.fp_div_occupancy);
            // Fill the pool with events due at the two extreme latencies from
            // cycle 5; each cycle then yields exactly its own events.
            let ev = |ctx| CompleteEvent {
                ctx,
                class: InstrClass::Load,
                mispredicted: false,
                dcache_miss: false,
            };
            let inflight = cfg.contexts * cfg.max_inflight_per_thread;
            let far = 5 + cfg.max_latency() + cfg.lat.fp_div_occupancy;
            for i in 0..inflight {
                wheel.push(if i % 2 == 0 { 6 } else { far }, ev((i % 2) as u8));
            }
            for (cycle, ctx) in [(6, 0), (far, 1)] {
                let due: Vec<u8> = std::iter::from_fn(|| wheel.pop(cycle))
                    .map(|e| e.ctx)
                    .collect();
                assert_eq!(due, vec![ctx; inflight / 2], "cycle {cycle}");
            }
            assert!((0..slots as u64).all(|c| wheel.pop(c).is_none()));
        }
    }

    /// Pins a property of the model (DESIGN.md, "DepRing recycle"): the
    /// dependence ring remembers the last `RING` sequence numbers per context,
    /// and a producer whose slot is recycled reads as long complete. Younger
    /// instructions complete out of order and free the in-flight window, so
    /// `RING` of them can dispatch while a load miss is outstanding — and its
    /// dependent then issues before the load returns.
    #[test]
    fn recycled_ring_slot_wakes_dependents_of_an_outstanding_load() {
        /// A cold load, an integer multiply that depends on it, then
        /// independent ALU operations; all within one I-cache line.
        struct LoadThenAlus {
            n: u64,
        }
        impl InstructionSource for LoadThenAlus {
            fn next_instr(&mut self) -> Fetch {
                self.n += 1;
                let pc = (self.n % 16) * 4;
                Fetch::Instr(match self.n {
                    1 => Instr::load(pc, 0x10_0000, 0),
                    2 => Instr::int_mul(pc, 1),
                    _ => Instr::int_alu(pc, 0),
                })
            }
            fn id(&self) -> StreamId {
                StreamId(0)
            }
        }
        let cfg = MachineConfig::alpha21264_like(1);
        let miss_latency = cfg.max_latency();
        let counts = |cycles: u64| {
            let mut e = Processor::new(cfg.clone());
            let stats = e.run_timeslice(&mut [&mut LoadThenAlus { n: 0 }], cycles);
            let t = &stats.threads[0];
            (
                t.class_count(InstrClass::Load),
                t.class_count(InstrClass::IntMul),
                t.class_count(InstrClass::IntAlu),
            )
        };
        // Find the cycle the load returns in; one cycle earlier it is still
        // outstanding, yet its dependent has already committed.
        let returns = (1..4 * miss_latency)
            .find(|&c| counts(c).0 == 1)
            .expect("the load completes");
        let (loads, muls, alus) = counts(returns - 1);
        assert_eq!(loads, 0);
        assert!(alus >= RING as u64, "{alus} younger instructions committed");
        assert_eq!(
            muls, 1,
            "the dependent woke when its producer's slot was recycled"
        );
    }

    #[test]
    fn independent_alus_reach_high_ipc() {
        let mut e = engine(1);
        let mut s = AluStream {
            pc: 0,
            id: StreamId(1),
        };
        let _warmup = e.run_timeslice(&mut [&mut s], 10_000);
        let stats = e.run_timeslice(&mut [&mut s], 5_000);
        let ipc = stats.total_ipc();
        assert!(
            ipc > 3.0,
            "independent ALU stream should exceed IPC 3, got {ipc}"
        );
    }

    #[test]
    fn serial_chain_is_ipc_limited() {
        let mut e = engine(1);
        let mut s = SerialStream {
            pc: 0,
            id: StreamId(1),
        };
        let _warmup = e.run_timeslice(&mut [&mut s], 10_000);
        let stats = e.run_timeslice(&mut [&mut s], 5_000);
        let ipc = stats.total_ipc();
        assert!(
            ipc < 1.3,
            "serial dependence chain must bound IPC near 1, got {ipc}"
        );
        assert!(
            ipc > 0.5,
            "serial chain should still make progress, got {ipc}"
        );
    }

    #[test]
    fn two_threads_beat_one_serial_thread() {
        let mut e = engine(2);
        let mut a = SerialStream {
            pc: 0,
            id: StreamId(1),
        };
        let _ = e.run_timeslice(&mut [&mut a], 10_000);
        let solo = e.run_timeslice(&mut [&mut a], 5_000).total_ipc();

        let mut e = engine(2);
        let mut a = SerialStream {
            pc: 0,
            id: StreamId(1),
        };
        let mut b = SerialStream {
            pc: 0,
            id: StreamId(2),
        };
        let _ = e.run_timeslice(&mut [&mut a, &mut b], 10_000);
        let duo = e.run_timeslice(&mut [&mut a, &mut b], 5_000).total_ipc();
        assert!(
            duo > 1.5 * solo,
            "SMT should nearly double serial-thread throughput: {solo} -> {duo}"
        );
    }

    #[test]
    fn dependent_never_completes_before_producer() {
        // A serial chain through a long-latency op: the dependent of an FpDiv
        // cannot commit until the div's latency has elapsed.
        struct DivChain {
            pc: u64,
            n: u32,
        }
        impl InstructionSource for DivChain {
            fn next_instr(&mut self) -> Fetch {
                if self.n == 0 {
                    return Fetch::Finished;
                }
                self.n -= 1;
                self.pc = (self.pc + 4) % 4096;
                Fetch::Instr(Instr {
                    class: InstrClass::FpDiv,
                    pc: self.pc,
                    dep_dist: 1,
                    addr: 0,
                    taken: false,
                })
            }
            fn id(&self) -> StreamId {
                StreamId(1)
            }
        }
        let mut e = engine(1);
        let mut s = DivChain { pc: 0, n: 50 };
        let stats = e.run_timeslice(&mut [&mut s], 5_000);
        let t = stats.thread(StreamId(1)).unwrap();
        assert_eq!(t.committed, 50);
        // 50 chained 12-cycle divides need at least 600 cycles; the committed
        // IPC must reflect that serialization.
        assert!(
            stats.total_ipc() < 0.1,
            "chained divides must be slow: {}",
            stats.total_ipc()
        );
    }

    #[test]
    fn fp_div_threads_conflict_on_fp_units() {
        let mut e = engine(4);
        let mut t1 = FpDivStream {
            pc: 0,
            id: StreamId(1),
        };
        let mut t2 = FpDivStream {
            pc: 0,
            id: StreamId(2),
        };
        let mut t3 = FpDivStream {
            pc: 0,
            id: StreamId(3),
        };
        let mut t4 = FpDivStream {
            pc: 0,
            id: StreamId(4),
        };
        let stats = e.run_timeslice(&mut [&mut t1, &mut t2, &mut t3, &mut t4], 5_000);
        assert!(
            stats.conflicts.fp_units + stats.conflicts.fp_queue > 100,
            "four FP-div threads must conflict on FP resources: {:?}",
            stats.conflicts
        );
    }

    #[test]
    fn mixed_int_fp_conflicts_less_than_pure_fp() {
        let mut e = engine(2);
        let mut t1 = FpDivStream {
            pc: 0,
            id: StreamId(1),
        };
        let mut t2 = FpDivStream {
            pc: 0,
            id: StreamId(2),
        };
        let _ = e.run_timeslice(&mut [&mut t1, &mut t2], 15_000);
        let fp_pair = e.run_timeslice(&mut [&mut t1, &mut t2], 5_000);

        let mut e = engine(2);
        let mut t1 = FpDivStream {
            pc: 0,
            id: StreamId(1),
        };
        let mut t3 = AluStream {
            pc: 0,
            id: StreamId(3),
        };
        let _ = e.run_timeslice(&mut [&mut t1, &mut t3], 15_000);
        let mixed = e.run_timeslice(&mut [&mut t1, &mut t3], 5_000);

        assert!(
            mixed.conflicts.fp_queue < fp_pair.conflicts.fp_queue,
            "a diverse coschedule must conflict less on the FP queue: {:?} vs {:?}",
            mixed.conflicts,
            fp_pair.conflicts
        );
        assert!(
            mixed.total_ipc() > fp_pair.total_ipc(),
            "diversity should raise throughput: {} vs {}",
            mixed.total_ipc(),
            fp_pair.total_ipc()
        );
    }

    #[test]
    fn committed_never_exceeds_fetched() {
        let mut e = engine(2);
        let mut a = AluStream {
            pc: 0,
            id: StreamId(1),
        };
        let mut b = SerialStream {
            pc: 0,
            id: StreamId(2),
        };
        let stats = e.run_timeslice(&mut [&mut a, &mut b], 3_000);
        for t in &stats.threads {
            assert!(t.committed <= t.fetched, "{t:?}");
        }
    }

    #[test]
    fn blocked_source_makes_no_progress() {
        struct Blocked;
        impl InstructionSource for Blocked {
            fn next_instr(&mut self) -> Fetch {
                Fetch::Blocked
            }
            fn id(&self) -> StreamId {
                StreamId(9)
            }
        }
        let mut e = engine(2);
        let mut a = AluStream {
            pc: 0,
            id: StreamId(1),
        };
        let mut b = Blocked;
        let stats = e.run_timeslice(&mut [&mut a, &mut b], 2_000);
        assert_eq!(stats.thread(StreamId(9)).unwrap().committed, 0);
        assert!(stats.thread(StreamId(9)).unwrap().blocked_cycles > 0);
        assert!(stats.thread(StreamId(1)).unwrap().committed > 0);
    }

    #[test]
    fn finished_source_idles() {
        struct Finite {
            left: u32,
            pc: u64,
        }
        impl InstructionSource for Finite {
            fn next_instr(&mut self) -> Fetch {
                if self.left == 0 {
                    return Fetch::Finished;
                }
                self.left -= 1;
                self.pc = (self.pc + 4) % 4096;
                Fetch::Instr(Instr::int_alu(self.pc, 0))
            }
            fn id(&self) -> StreamId {
                StreamId(3)
            }
        }
        let mut e = engine(1);
        let mut s = Finite { left: 100, pc: 0 };
        let stats = e.run_timeslice(&mut [&mut s], 10_000);
        assert_eq!(stats.thread(StreamId(3)).unwrap().committed, 100);
    }

    #[test]
    #[should_panic(expected = "hardware contexts")]
    fn too_many_threads_panics() {
        let mut e = engine(1);
        let mut a = AluStream {
            pc: 0,
            id: StreamId(1),
        };
        let mut b = AluStream {
            pc: 0,
            id: StreamId(2),
        };
        e.run_timeslice(&mut [&mut a, &mut b], 10);
    }

    #[test]
    fn per_thread_cache_stats_sum_to_global() {
        let mut e = engine(2);
        let mut a = AluStream {
            pc: 0,
            id: StreamId(1),
        };
        let mut b = SerialStream {
            pc: 0,
            id: StreamId(2),
        };
        let stats = e.run_timeslice(&mut [&mut a, &mut b], 4_000);
        let per_thread_il1: u64 = stats.threads.iter().map(|t| t.il1_refs).sum();
        assert_eq!(per_thread_il1, stats.cache.il1_refs);
        let per_thread_dl1: u64 = stats.threads.iter().map(|t| t.dl1_refs).sum();
        assert_eq!(per_thread_dl1, stats.cache.dl1_refs);
        let per_thread_dl1m: u64 = stats.threads.iter().map(|t| t.dl1_misses).sum();
        assert_eq!(per_thread_dl1m, stats.cache.dl1_misses);
    }

    #[test]
    fn caches_stay_warm_across_timeslices() {
        // A small load working set: the first timeslice takes the misses, the
        // second reuses the lines.
        struct LoadLoop {
            i: u64,
            id: StreamId,
        }
        impl InstructionSource for LoadLoop {
            fn next_instr(&mut self) -> Fetch {
                self.i += 1;
                let addr = self.id.tag_addr((self.i * 64) % 4096);
                Fetch::Instr(Instr::load(self.id.tag_addr(64), addr, 0))
            }
            fn id(&self) -> StreamId {
                self.id
            }
        }
        let mut e = engine(1);
        let mut s = LoadLoop {
            i: 0,
            id: StreamId(5),
        };
        let first = e.run_timeslice(&mut [&mut s], 3_000);
        let second = e.run_timeslice(&mut [&mut s], 3_000);
        assert!(
            second.cache.dl1_misses < first.cache.dl1_misses,
            "second slice should reuse warm lines: {} -> {}",
            first.cache.dl1_misses,
            second.cache.dl1_misses
        );
    }

    #[test]
    fn flush_forces_icache_cold_start() {
        let mut e = engine(1);
        let alu = || AluStream {
            pc: 0,
            id: StreamId(0),
        };
        let _ = e.run_timeslice(&mut [&mut alu()], 1_000);
        // Re-run the same small PC region: warm.
        let warm = e.run_timeslice(&mut [&mut alu()], 1_000);
        e.flush_memory_state();
        let cold = e.run_timeslice(&mut [&mut alu()], 1_000);
        assert!(cold.cache.il1_misses >= warm.cache.il1_misses);
    }

    #[test]
    fn occupancy_samples_every_interval_without_touching_the_counters() {
        let run = |sample: bool, cycles: u64| {
            let mut e = engine(2);
            e.sample_occupancy(sample);
            let mut a = AluStream {
                pc: 0,
                id: StreamId(0),
            };
            let mut b = SerialStream {
                pc: 0,
                id: StreamId(1),
            };
            let stats = e.run_timeslice(&mut [&mut a, &mut b], cycles);
            (stats, e.occupancy().to_vec())
        };
        for cycles in [2_000, 2_001, 64, 1] {
            let (on, samples) = run(true, cycles);
            let (off, none) = run(false, cycles);
            assert_eq!(on, off, "sampling changed what was simulated");
            assert!(none.is_empty());
            let at: Vec<u64> = samples.iter().map(|s| s.cycle).collect();
            let expected: Vec<u64> = (0..cycles.div_ceil(OCCUPANCY_INTERVAL))
                .map(|i| i * OCCUPANCY_INTERVAL)
                .collect();
            assert_eq!(at, expected);
        }
        let (_, samples) = run(true, 2_000);
        assert!(
            samples.iter().any(|s| s.inflight > 0),
            "pipeline never held an instruction"
        );
    }

    #[test]
    fn icount_beats_round_robin_on_mixed_threads() {
        // A fast thread plus a slow serial thread: ICOUNT keeps the fast
        // thread fed, round-robin wastes fetch slots on the clogged thread.
        fn total_ipc(policy: FetchPolicy) -> f64 {
            let mut cfg = MachineConfig::alpha21264_like(2);
            cfg.fetch_policy = policy;
            let mut e = Processor::new(cfg);
            let mut fast = AluStream {
                pc: 0,
                id: StreamId(1),
            };
            let mut slow = SerialStream {
                pc: 0,
                id: StreamId(2),
            };
            let _ = e.run_timeslice(&mut [&mut fast, &mut slow], 10_000);
            e.run_timeslice(&mut [&mut fast, &mut slow], 10_000)
                .total_ipc()
        }
        let icount = total_ipc(FetchPolicy::Icount);
        let rr = total_ipc(FetchPolicy::RoundRobin);
        assert!(
            icount >= rr,
            "ICOUNT should not lose to round-robin: {icount} vs {rr}"
        );
    }

    #[test]
    fn rename_register_exhaustion_counts_conflicts() {
        // Shrink the FP renaming pool so two FP-heavy threads exhaust it.
        let mut cfg = MachineConfig::alpha21264_like(2);
        cfg.fp_regs = 4;
        let mut e = Processor::new(cfg);
        let mut a = FpDivStream {
            pc: 0,
            id: StreamId(1),
        };
        let mut b = FpDivStream {
            pc: 0,
            id: StreamId(2),
        };
        let stats = e.run_timeslice(&mut [&mut a, &mut b], 5_000);
        assert!(
            stats.conflicts.fp_regs > 0,
            "a 4-entry FP rename pool must conflict: {:?}",
            stats.conflicts
        );
    }

    #[test]
    fn int_queue_exhaustion_counts_conflicts() {
        // A tiny integer queue forces dispatch rejections even for one thread.
        let mut cfg = MachineConfig::alpha21264_like(1);
        cfg.int_queue = 2;
        let mut e = Processor::new(cfg);
        let mut a = SerialStream {
            pc: 0,
            id: StreamId(1),
        };
        let _ = e.run_timeslice(&mut [&mut a], 10_000);
        let stats = e.run_timeslice(&mut [&mut a], 5_000);
        assert!(
            stats.conflicts.int_queue > 0,
            "a 2-entry int queue must reject dispatches: {:?}",
            stats.conflicts
        );
    }

    #[test]
    fn conflict_counts_never_exceed_cycles() {
        let mut e = engine(4);
        let mut t1 = FpDivStream {
            pc: 0,
            id: StreamId(1),
        };
        let mut t2 = FpDivStream {
            pc: 0,
            id: StreamId(2),
        };
        let mut t3 = SerialStream {
            pc: 0,
            id: StreamId(3),
        };
        let mut t4 = AluStream {
            pc: 0,
            id: StreamId(4),
        };
        let stats = e.run_timeslice(&mut [&mut t1, &mut t2, &mut t3, &mut t4], 3_000);
        for r in crate::counters::Resource::ALL {
            assert!(
                stats.conflicts.get(r) <= 3_000,
                "{r}: {:?}",
                stats.conflicts
            );
        }
    }

    #[test]
    fn mispredicted_branches_slow_a_thread_down() {
        // Branch outcomes from a pseudo-random generator (unpredictable)
        // versus always-taken (learnable).
        struct BranchyStream {
            pc: u64,
            state: u64,
            random: bool,
        }
        impl InstructionSource for BranchyStream {
            fn next_instr(&mut self) -> Fetch {
                self.pc += 4;
                if self.pc.is_multiple_of(16) {
                    let taken = if self.random {
                        self.state = self.state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        (self.state >> 33) & 1 == 1
                    } else {
                        true
                    };
                    Fetch::Instr(Instr::branch(self.pc % 4096, taken))
                } else {
                    Fetch::Instr(Instr::int_alu(self.pc % 4096, 0))
                }
            }
            fn id(&self) -> StreamId {
                StreamId(1)
            }
        }
        let mut e = engine(1);
        let mut predictable = BranchyStream {
            pc: 0,
            state: 1,
            random: false,
        };
        let _ = e.run_timeslice(&mut [&mut predictable], 10_000);
        let p = e.run_timeslice(&mut [&mut predictable], 10_000);

        let mut e = engine(1);
        let mut random = BranchyStream {
            pc: 0,
            state: 1,
            random: true,
        };
        let _ = e.run_timeslice(&mut [&mut random], 10_000);
        let r = e.run_timeslice(&mut [&mut random], 10_000);

        assert!(
            r.branches.mispredict_pct() > p.branches.mispredict_pct() + 5.0,
            "random branches must mispredict more: {} vs {}",
            r.branches.mispredict_pct(),
            p.branches.mispredict_pct()
        );
        assert!(
            r.total_ipc() < p.total_ipc(),
            "mispredictions must cost throughput: {} vs {}",
            r.total_ipc(),
            p.total_ipc()
        );
    }

    /// Regression: a DTLB refill on an L1-hit load used to be booked as a
    /// data-cache miss (the miss test looked at the combined TLB + cache
    /// latency). The stream below touches 256 pages — double the 128-entry
    /// DTLB, so every access misses the TLB in steady state — but only one
    /// line per page, laid out so all 256 lines stay resident in the 2-way L1D.
    #[test]
    fn dtlb_refill_on_l1_hit_is_not_a_dcache_miss() {
        struct PageWalker {
            p: u64,
            id: StreamId,
        }
        impl InstructionSource for PageWalker {
            fn next_instr(&mut self) -> Fetch {
                self.p = (self.p + 1) % 256;
                // One line per page; the in-page offset spreads the lines
                // across L1D sets so that exactly two pages share each set.
                let addr = self.p * 8192 + (self.p % 128) * 64;
                Fetch::Instr(Instr::load(self.id.tag_addr(self.p * 4 % 4096), addr, 0))
            }
            fn id(&self) -> StreamId {
                self.id
            }
        }
        let mut e = engine(1);
        let mut s = PageWalker {
            p: 0,
            id: StreamId(1),
        };
        let _warmup = e.run_timeslice(&mut [&mut s], 200_000);
        let stats = e.run_timeslice(&mut [&mut s], 100_000);
        assert!(stats.dtlb.misses > 0, "stream must thrash the DTLB");
        assert_eq!(
            stats.threads[0].dl1_misses, stats.cache.dl1_misses,
            "per-thread and hierarchy dl1 miss counts must agree"
        );
        assert!(
            2 * stats.threads[0].dl1_misses < stats.threads[0].dl1_refs,
            "L1-resident loads must not be booked as misses: {} of {} refs",
            stats.threads[0].dl1_misses,
            stats.threads[0].dl1_refs
        );
    }

    /// Regression: per-thread I-cache misses used to be inferred from a
    /// nonzero access latency, so any configuration with a nonzero L1I hit
    /// latency booked every line crossing as a miss.
    #[test]
    fn nonzero_icache_hit_latency_is_not_a_miss() {
        let mut cfg = MachineConfig::alpha21264_like(1);
        cfg.icache.hit_latency = 2;
        let mut e = Processor::new(cfg);
        let mut s = AluStream {
            pc: 0,
            id: StreamId(1),
        };
        let _warmup = e.run_timeslice(&mut [&mut s], 20_000);
        let stats = e.run_timeslice(&mut [&mut s], 10_000);
        assert!(
            stats.threads[0].il1_refs > 0,
            "the 4 KiB pc loop must cross cache lines"
        );
        assert_eq!(
            stats.threads[0].il1_misses, stats.cache.il1_misses,
            "per-thread and hierarchy il1 miss counts must agree"
        );
        assert_eq!(
            stats.threads[0].il1_misses, 0,
            "a 64-line resident loop must not miss after warmup"
        );
    }
}

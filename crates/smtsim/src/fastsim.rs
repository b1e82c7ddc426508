//! Phase-aware sampled fast simulation.
//!
//! The detailed pipeline model is the throughput ceiling of everything built
//! on top of it. This module recovers 1–2 orders of magnitude the way live
//! sampled simulators (Pac-Sim and friends) do: watch the per-timeslice
//! hardware-counter stream for *stable phases*, and once a coschedule's
//! behaviour has settled, stop simulating it in detail — synthesize its
//! counters by scaling the last detailed window and fast-forward the
//! instruction streams past the work the synthesized slice credits them with.
//!
//! The unit of phase tracking is the **tuple** (the set of streams
//! coscheduled on the machine), because symbiosis is a property of the
//! combination: the same job behaves differently against different partners.
//! For every tuple the detector keeps a sliding window of its last
//! [`STABLE_WINDOW`] detailed slices. When the window's
//! [`PhaseSignature`]s (IPC, cache-miss mix, conflict rate, FP/integer
//! balance) agree within [`FastSimPolicy::stability_threshold`], the tuple's
//! phase is *locked* and subsequent slices are extrapolated.
//!
//! Extrapolation is bounded by a per-phase **confidence tracker**: a freshly
//! locked phase is only trusted for a few slices before a detailed re-sample
//! window is forced. A re-sample window is
//! [`RESAMPLE_WARMUP`] cache **warm-up** slices followed by
//! one judged slice: during an extrapolation run the detailed machine state
//! (caches, TLBs, branch tables) goes stale while the streams skip forward,
//! so the first detailed slice after a run always shows a cold-start
//! signature — it is executed and reported like any detailed slice, but
//! excluded from the drift judgment. Both warm-up and judged slices refresh
//! the reference window, so the reference *slides* along with the slow
//! phase modulation of real workloads instead of comparing the present
//! against an ever-staler past; over a modulation period the lag error of a
//! sliding reference integrates out of the aggregate counters, which is
//! what keeps long fast runs unbiased. Every judged slice that agrees with the
//! reference window raises confidence (lengthening the extrapolation run),
//! and one that deviates beyond [`FastSimPolicy::drift_tolerance`] forces a
//! fallback to full detail — the window is discarded and the phase must
//! re-lock from scratch. Invariant checking lives inside the detailed
//! pipeline, so every detailed window (including re-samples) is still fully
//! checked.
//!
//! Everything here is deterministic: synthesized counters use integer
//! scaling of the reference window, so a fast run is byte-reproducible for a
//! fixed seed, and a run with fast-sim disabled is untouched (the engine
//! never calls into this module).

use crate::counters::ConflictCounters;
use crate::pipeline::Processor;
use crate::stats::{ThreadStats, TimesliceStats};
use crate::trace::InstructionSource;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration of the fast-forward simulation mode: the one threshold a
/// run ever varies. Everything else about the detector is a named constant
/// below ([`STABLE_WINDOW`] … [`HARD_DRIFT_FACTOR`]).
///
/// `Default` gives the tuning the accuracy harness validates (±2% on the
/// fig5/fig6 scenarios); [`FastSimPolicy::with_threshold`] is the knob the
/// driver flags expose.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FastSimPolicy {
    /// Maximum relative spread of the phase signature across the stability
    /// window for a phase to lock (and, through
    /// [`drift_tolerance`](Self::drift_tolerance), the re-sample agreement
    /// band).
    pub stability_threshold: f64,
}

/// Detailed slices a tuple must hold a stable signature for before its
/// phase locks; also the length of the reference window counters are
/// synthesized from.
pub const STABLE_WINDOW: usize = 4;

/// Extrapolated slices allowed between detailed re-sample slices at full
/// confidence. A freshly locked phase is allowed
/// `INITIAL_CONFIDENCE × MAX_EXTRAPOLATED`.
pub const MAX_EXTRAPOLATED: usize = 96;

/// Confidence assigned when a phase locks (fraction of
/// [`MAX_EXTRAPOLATED`] granted).
pub const INITIAL_CONFIDENCE: f64 = 0.25;

/// Confidence gained per agreeing re-sample (capped at 1.0).
pub const CONFIDENCE_STEP: f64 = 0.25;

/// Detailed cache warm-up slices run (but not judged) at the start of each
/// re-sample window, so the judged slice measures the phase rather than the
/// cold shared state left behind by the skip-forward. (Judging the first
/// post-run slice directly makes it a guaranteed fallback: the caches are
/// stale.)
pub const RESAMPLE_WARMUP: usize = 1;

/// Judged deviations beyond the drift tolerance but within
/// `HARD_DRIFT_FACTOR ×` it are slow drift (resync, stay locked); beyond it
/// they are an abrupt phase change (fallback, unlock). Slow modulation is
/// the common case in real workloads, and unlocking on it wastes a full
/// relock window every run for no accuracy gain — the reference window
/// already tracks the drift.
pub const HARD_DRIFT_FACTOR: f64 = 2.0;

impl Default for FastSimPolicy {
    fn default() -> Self {
        FastSimPolicy::with_threshold(0.10)
    }
}

impl FastSimPolicy {
    /// The policy with a specific stability threshold (the
    /// `--fast-threshold` flag).
    pub fn with_threshold(threshold: f64) -> Self {
        FastSimPolicy {
            stability_threshold: threshold,
        }
    }

    /// Relative deviation between a re-sample slice and the reference window
    /// beyond which the phase is declared drifted: 1.5 × the stability
    /// threshold, so a tighter lock also re-samples more aggressively.
    /// Rounded to nine decimals, so the default is 0.15 — in reports and in
    /// the comparison — rather than the product's 0.15000000000000002.
    pub fn drift_tolerance(&self) -> f64 {
        (self.stability_threshold * 1.5 * 1e9).round() / 1e9
    }

    /// A short human-readable form for reports and bench records.
    pub fn describe(&self) -> String {
        format!(
            "threshold={} window={} max_extrap={} drift_tol={}",
            self.stability_threshold,
            STABLE_WINDOW,
            MAX_EXTRAPOLATED,
            self.drift_tolerance()
        )
    }

    fn validate(&self) {
        assert!(
            self.stability_threshold > 0.0,
            "bad fast-sim policy: {self:?}"
        );
    }
}

/// The behavioural fingerprint of one detailed timeslice — the components
/// §9's phase argument cares about: throughput, memory behaviour, resource
/// pressure, and instruction mix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseSignature {
    /// Aggregate committed IPC.
    pub ipc: f64,
    /// L1 data-cache miss rate (misses per reference, 0..1).
    pub dl1_miss_rate: f64,
    /// L2 misses per cycle. Misses-per-reference would be the obvious
    /// choice, but L2 reference counts per timeslice are small enough that
    /// a per-ref rate is statistically unstable slice-to-slice; per-cycle
    /// measures the same memory pressure robustly.
    pub l2_mpc: f64,
    /// Fraction of cycles with at least one shared-resource conflict (the
    /// sum over resources, so it can exceed 1; only deltas matter).
    pub conflict_rate: f64,
    /// FP share of committed arithmetic (0..1).
    pub fp_share: f64,
}

impl PhaseSignature {
    /// Extracts the signature of one detailed slice.
    pub fn of(stats: &TimesliceStats) -> Self {
        let rate = |miss: u64, refs: u64| {
            if refs == 0 {
                0.0
            } else {
                miss as f64 / refs as f64
            }
        };
        let conflict_cycles: u64 = crate::counters::Resource::ALL
            .iter()
            .map(|&r| stats.conflicts.get(r))
            .sum();
        let (fp_pct, int_pct) = stats.fp_int_mix_pct();
        let arith = fp_pct + int_pct;
        PhaseSignature {
            ipc: stats.total_ipc(),
            dl1_miss_rate: rate(stats.cache.dl1_misses, stats.cache.dl1_refs),
            l2_mpc: rate(stats.cache.l2_misses, stats.cycles),
            conflict_rate: rate(conflict_cycles, stats.cycles),
            fp_share: if arith <= 0.0 { 0.0 } else { fp_pct / arith },
        }
    }

    /// The largest normalized component deviation between two signatures.
    /// IPC deviates relatively; the rate components (already 0..1-ish)
    /// deviate absolutely, so an all-hits phase and a cold phase compare
    /// sanely even when one rate is zero.
    pub fn deviation(&self, other: &PhaseSignature) -> f64 {
        let rel = if self.ipc.max(other.ipc) <= 1e-12 {
            0.0
        } else {
            (self.ipc - other.ipc).abs() / self.ipc.max(other.ipc)
        };
        rel.max((self.dl1_miss_rate - other.dl1_miss_rate).abs())
            .max((self.l2_mpc - other.l2_mpc).abs())
            .max((self.conflict_rate - other.conflict_rate).abs())
            .max((self.fp_share - other.fp_share).abs())
    }
}

/// What the phase detector concluded from one detailed slice (telemetry
/// hooks; see [`FastSlice::event`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FastSimEvent {
    /// The tuple's signature held stable across the window: phase locked,
    /// extrapolation begins.
    PhaseLocked {
        /// Confidence granted to the fresh lock.
        confidence: f64,
    },
    /// A scheduled re-sample agreed with the reference window; confidence
    /// rose.
    ResampleOk {
        /// Deviation the re-sample showed.
        deviation: f64,
        /// Confidence after the raise.
        confidence: f64,
    },
    /// A re-sample drifted moderately (between tolerance and
    /// [`HARD_DRIFT_FACTOR`]×tolerance): slow modulation, not a phase
    /// change. The phase stays locked on the slid reference window but
    /// confidence resets, shortening the next extrapolation run.
    Resync {
        /// Deviation the re-sample showed.
        deviation: f64,
        /// Confidence after the reset.
        confidence: f64,
    },
    /// A re-sample deviated far beyond tolerance: the phase is dropped and
    /// the tuple runs fully detailed until it re-locks.
    Fallback {
        /// Deviation that broke the phase.
        deviation: f64,
    },
}

/// Lifetime counters of a [`FastSim`] (exported through the metrics hub).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FastSimCounters {
    /// Timeslices executed in the detailed pipeline model.
    pub detailed_slices: u64,
    /// Timeslices synthesized by extrapolation.
    pub extrapolated_slices: u64,
    /// Machine cycles covered by detailed execution.
    pub detailed_cycles: u64,
    /// Machine cycles covered by extrapolation.
    pub extrapolated_cycles: u64,
    /// Phase locks (detail → extrapolation transitions).
    pub phase_locks: u64,
    /// Drift-forced fallbacks (extrapolation → detail transitions).
    pub fallbacks: u64,
    /// Detailed re-sample slices that confirmed a locked phase.
    pub resamples_ok: u64,
    /// Moderate-drift re-samples that re-synced the reference window
    /// without unlocking the phase.
    #[serde(default)]
    pub resyncs: u64,
}

impl FastSimCounters {
    /// Fraction of covered cycles that were extrapolated (0..1).
    pub fn extrapolated_fraction(&self) -> f64 {
        let total = self.detailed_cycles + self.extrapolated_cycles;
        if total == 0 {
            0.0
        } else {
            self.extrapolated_cycles as f64 / total as f64
        }
    }
}

/// Per-tuple phase state.
#[derive(Default)]
struct TupleState {
    /// Reference window: the most recent detailed slices of this tuple.
    window: Vec<TimesliceStats>,
    locked: bool,
    confidence: f64,
    /// Extrapolated slices since the last detailed slice of this tuple.
    run: usize,
    /// An extrapolation run just ended: a re-sample window (warm-up slices
    /// then one judged slice) is in progress, so extrapolation is paused.
    resampling: bool,
    /// Warm-up slices still owed before the judged slice of the current
    /// re-sample window.
    warmup_left: usize,
}

impl TupleState {
    /// Mean signature over the reference window (uses summed counters, not
    /// the mean of signatures, so a long slice weighs more).
    fn reference_signature(&self) -> PhaseSignature {
        let mut sum = TimesliceStats::default();
        for s in &self.window {
            accumulate(&mut sum, s);
        }
        PhaseSignature::of(&sum)
    }
}

/// Bound on distinct tuples tracked. Rotations over a live set of `x` jobs
/// produce at most `x` distinct windows between mix changes, so production
/// engines sit far below this; the cap only guards against a pathological
/// driver never calling [`FastSim::revalidate`].
const MAX_TRACKED_TUPLES: usize = 4096;

/// One timeslice as [`FastSim::run_slice`] ran it.
#[derive(Clone, Debug, PartialEq)]
pub struct FastSlice {
    /// The slice's hardware counters — synthesized when `extrapolated`,
    /// measured otherwise.
    pub stats: TimesliceStats,
    /// Whether the slice was synthesized instead of run on the processor.
    pub extrapolated: bool,
    /// The phase-state transition a detailed slice caused, if any (always
    /// `None` for an extrapolated slice).
    pub event: Option<FastSimEvent>,
}

/// The phase detector + extrapolator (one per engine / runner).
///
/// Every timeslice that may be extrapolated goes through
/// [`run_slice`](Self::run_slice). Call [`revalidate`](Self::revalidate) on
/// every mix change (arrival, departure, migration): phase behaviour is a
/// property of the *machine state*, and a new mix shifts the shared caches
/// under every tuple.
pub struct FastSim {
    policy: FastSimPolicy,
    tuples: HashMap<Vec<u64>, TupleState>,
    counters: FastSimCounters,
}

impl FastSim {
    /// Builds a detector with the given policy.
    ///
    /// # Panics
    /// Panics if the policy's threshold is not above zero.
    pub fn new(policy: FastSimPolicy) -> Self {
        policy.validate();
        FastSim {
            policy,
            tuples: HashMap::new(),
            counters: FastSimCounters::default(),
        }
    }

    /// The policy this detector runs.
    pub fn policy(&self) -> &FastSimPolicy {
        &self.policy
    }

    /// Lifetime counters.
    pub fn counters(&self) -> &FastSimCounters {
        &self.counters
    }

    /// Runs one `cycles`-long timeslice of `sources` — the fast-sim slice
    /// protocol, spelled out once for every driver. The tuple key is the
    /// sorted stream ids of `sources`. If that tuple's phase is locked and
    /// its confidence allows another extrapolated slice, the counters are
    /// synthesized and each stream skips past the commits it was credited
    /// with; otherwise the slice runs on `cpu` in full detail and feeds the
    /// phase detector.
    ///
    /// # Panics
    /// As [`Processor::run_timeslice`] when the slice runs detailed
    /// (`sources` empty or longer than the number of contexts).
    pub fn run_slice(
        &mut self,
        cpu: &mut Processor,
        sources: &mut [&mut dyn InstructionSource],
        cycles: u64,
    ) -> FastSlice {
        let key = tuple_key(sources.iter().map(|s| s.id().0));
        if let Some(stats) = self.try_extrapolate(&key, cycles) {
            for s in sources.iter_mut() {
                if let Some(ts) = stats.thread(s.id()) {
                    s.skip_instructions(ts.committed);
                }
            }
            return FastSlice {
                stats,
                extrapolated: true,
                event: None,
            };
        }
        let stats = cpu.run_timeslice(sources, cycles);
        let event = self.observe_detailed(&key, &stats);
        FastSlice {
            stats,
            extrapolated: false,
            event,
        }
    }

    /// Synthesizes a `cycles`-long slice for tuple `key` if its phase is
    /// locked and its confidence allows another extrapolated slice.
    /// Returns `None` when the slice must run detailed (unknown tuple,
    /// unlocked phase, or a due re-sample).
    ///
    /// The synthesized counters are the reference window's counters scaled
    /// to `cycles` with pure integer arithmetic (floor division), so
    /// conservation inequalities (`committed ≤ fetched`,
    /// `misses ≤ refs`, `conflict ≤ cycles`) survive scaling and the
    /// result is byte-deterministic.
    fn try_extrapolate(&mut self, key: &[u64], cycles: u64) -> Option<TimesliceStats> {
        let st = self.tuples.get_mut(key)?;
        if !st.locked || st.resampling || st.window.is_empty() || cycles == 0 {
            return None;
        }
        let allowed = ((st.confidence * MAX_EXTRAPOLATED as f64) as usize).max(1);
        if st.run >= allowed {
            // Run exhausted: force a detailed re-sample window (warm-up
            // slices to refill the shared state, then one judged slice).
            st.resampling = true;
            st.warmup_left = RESAMPLE_WARMUP;
            return None;
        }
        let stats = synthesize(&st.window, cycles);
        st.run += 1;
        self.counters.extrapolated_slices += 1;
        self.counters.extrapolated_cycles += cycles;
        Some(stats)
    }

    /// Feeds one detailed slice of tuple `key` into the detector and
    /// advances the phase state machine. Returns the transition event, if
    /// any (for telemetry).
    fn observe_detailed(&mut self, key: &[u64], stats: &TimesliceStats) -> Option<FastSimEvent> {
        self.counters.detailed_slices += 1;
        self.counters.detailed_cycles += stats.cycles;
        if stats.cycles == 0 {
            return None;
        }
        if self.tuples.len() >= MAX_TRACKED_TUPLES && !self.tuples.contains_key(key) {
            self.tuples.clear();
        }
        let window_len = STABLE_WINDOW;
        let st = self.tuples.entry(key.to_vec()).or_default();
        if st.locked {
            if st.resampling && st.warmup_left > 0 {
                // Cache warm-up slice: the detailed model just re-entered
                // state gone stale over the extrapolation run, so this
                // slice's signature carries a re-entry artifact. Report it
                // and let it refresh the reference window — the workload's
                // behaviour drifts slowly (phases are modulated, not
                // piecewise-constant) and the window must *track* it so the
                // judged slice is compared against the present, not the
                // pre-run past — but judge the next slice, not this one.
                st.warmup_left -= 1;
                if st.window.len() >= window_len {
                    st.window.remove(0);
                }
                st.window.push(stats.clone());
                return None;
            }
            st.resampling = false;
            // Scheduled re-sample: does the phase still hold?
            let deviation = st
                .reference_signature()
                .deviation(&PhaseSignature::of(stats));
            if std::env::var_os("FASTSIM_DEBUG").is_some() {
                eprintln!(
                    "judge: ref={:?}\n       got={:?} dev={deviation:.4}",
                    st.reference_signature(),
                    PhaseSignature::of(stats)
                );
            }
            st.run = 0;
            if deviation > self.policy.drift_tolerance() * HARD_DRIFT_FACTOR {
                // Abrupt phase change: drop the phase, keep this slice as
                // the seed of the next lock attempt.
                st.locked = false;
                st.confidence = 0.0;
                st.window.clear();
                st.window.push(stats.clone());
                self.counters.fallbacks += 1;
                return Some(FastSimEvent::Fallback { deviation });
            }
            if st.window.len() >= window_len {
                st.window.remove(0);
            }
            st.window.push(stats.clone());
            if deviation > self.policy.drift_tolerance() {
                // Slow drift: the slid window already tracks the present;
                // stay locked but trust the next run less (multiplicative
                // decrease against the additive increase of agreeing
                // re-samples, so sustained drift shortens runs quickly and
                // a one-off blip costs little).
                st.confidence = (st.confidence * 0.5).max(INITIAL_CONFIDENCE);
                self.counters.resyncs += 1;
                return Some(FastSimEvent::Resync {
                    deviation,
                    confidence: st.confidence,
                });
            }
            st.confidence = (st.confidence + CONFIDENCE_STEP).min(1.0);
            self.counters.resamples_ok += 1;
            return Some(FastSimEvent::ResampleOk {
                deviation,
                confidence: st.confidence,
            });
        }
        if st.window.len() >= window_len {
            st.window.remove(0);
        }
        st.window.push(stats.clone());
        if st.window.len() == window_len
            && window_is_stable(&st.window, self.policy.stability_threshold)
        {
            st.locked = true;
            st.confidence = INITIAL_CONFIDENCE;
            st.run = 0;
            self.counters.phase_locks += 1;
            return Some(FastSimEvent::PhaseLocked {
                confidence: st.confidence,
            });
        }
        None
    }

    /// The measured response to a mix change (arrival, departure,
    /// migration): the shared machine state shifts under every tracked
    /// phase, but a locked phase usually survives it — same tuple, slightly
    /// different cache pressure. Every locked tuple must re-prove itself
    /// through a fresh re-sample window (warm-up + judged slice) before it
    /// may extrapolate again, so the judge resyncs or falls back on
    /// evidence instead of a full relock presuming the worst; unlocked
    /// partial windows are dropped (they would mix pre- and post-change
    /// slices into one reference).
    pub fn revalidate(&mut self) {
        self.tuples.retain(|_, st| st.locked);
        for st in self.tuples.values_mut() {
            st.resampling = true;
            st.warmup_left = RESAMPLE_WARMUP;
            st.run = 0;
        }
    }
}

/// Whether every pair of slices in the window agrees within `threshold`.
fn window_is_stable(window: &[TimesliceStats], threshold: f64) -> bool {
    let sigs: Vec<PhaseSignature> = window.iter().map(PhaseSignature::of).collect();
    sigs.windows(2).all(|w| w[0].deviation(&w[1]) <= threshold)
        && sigs
            .first()
            .zip(sigs.last())
            .is_some_and(|(a, b)| a.deviation(b) <= threshold)
}

/// `v × cycles / ref_cycles` in u128 to avoid overflow.
#[inline]
fn scale(v: u64, cycles: u64, ref_cycles: u64) -> u64 {
    ((v as u128 * cycles as u128) / ref_cycles as u128) as u64
}

/// Sums `s` into `acc` (counters only; the thread list is merged by id).
fn accumulate(acc: &mut TimesliceStats, s: &TimesliceStats) {
    acc.cycles += s.cycles;
    for t in &s.threads {
        match acc.threads.iter_mut().find(|a| a.stream == t.stream) {
            Some(a) => {
                a.fetched += t.fetched;
                a.committed += t.committed;
                for (ac, tc) in a.class_counts.iter_mut().zip(t.class_counts.iter()) {
                    *ac += tc;
                }
                a.blocked_cycles += t.blocked_cycles;
                a.dl1_refs += t.dl1_refs;
                a.dl1_misses += t.dl1_misses;
                a.il1_refs += t.il1_refs;
                a.il1_misses += t.il1_misses;
            }
            None => acc.threads.push(t.clone()),
        }
    }
    acc.conflicts.merge(&s.conflicts);
    acc.cache.merge(&s.cache);
    acc.dtlb.refs += s.dtlb.refs;
    acc.dtlb.misses += s.dtlb.misses;
    acc.itlb.refs += s.itlb.refs;
    acc.itlb.misses += s.itlb.misses;
    acc.branches.predicted += s.branches.predicted;
    acc.branches.mispredicted += s.branches.mispredicted;
}

/// Synthesizes a `cycles`-long slice by scaling the summed reference window.
fn synthesize(window: &[TimesliceStats], cycles: u64) -> TimesliceStats {
    let mut sum = TimesliceStats::default();
    for s in window {
        accumulate(&mut sum, s);
    }
    let rc = sum.cycles.max(1);
    let sc = |v: u64| scale(v, cycles, rc);
    TimesliceStats {
        cycles,
        threads: sum
            .threads
            .iter()
            .map(|t| ThreadStats {
                stream: t.stream,
                fetched: sc(t.fetched),
                committed: sc(t.committed),
                class_counts: {
                    let mut c = [0u64; 8];
                    for (o, &v) in c.iter_mut().zip(t.class_counts.iter()) {
                        *o = sc(v);
                    }
                    c
                },
                blocked_cycles: sc(t.blocked_cycles),
                dl1_refs: sc(t.dl1_refs),
                dl1_misses: sc(t.dl1_misses),
                il1_refs: sc(t.il1_refs),
                il1_misses: sc(t.il1_misses),
            })
            .collect(),
        conflicts: {
            let mut c = ConflictCounters::default();
            for &r in crate::counters::Resource::ALL.iter() {
                *c.get_mut(r) = sc(sum.conflicts.get(r));
            }
            c
        },
        cache: crate::cache::CacheStats {
            dl1_refs: sc(sum.cache.dl1_refs),
            dl1_misses: sc(sum.cache.dl1_misses),
            il1_refs: sc(sum.cache.il1_refs),
            il1_misses: sc(sum.cache.il1_misses),
            l2_refs: sc(sum.cache.l2_refs),
            l2_misses: sc(sum.cache.l2_misses),
        },
        dtlb: crate::tlb::TlbStats {
            refs: sc(sum.dtlb.refs),
            misses: sc(sum.dtlb.misses),
        },
        itlb: crate::tlb::TlbStats {
            refs: sc(sum.itlb.refs),
            misses: sc(sum.itlb.misses),
        },
        branches: crate::branch::BranchStats {
            predicted: sc(sum.branches.predicted),
            mispredicted: sc(sum.branches.mispredicted),
        },
    }
}

/// The canonical tuple key: sorted stream ids of a coschedule.
fn tuple_key<I: IntoIterator<Item = u64>>(ids: I) -> Vec<u64> {
    let mut k: Vec<u64> = ids.into_iter().collect();
    k.sort_unstable();
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::StreamId;

    /// A detailed slice with the given IPC-ish committed count.
    fn slice(committed: u64, dl1_misses: u64) -> TimesliceStats {
        TimesliceStats {
            cycles: 1_000,
            threads: vec![ThreadStats {
                stream: StreamId(7),
                fetched: committed + 50,
                committed,
                class_counts: [
                    committed / 2,
                    0,
                    committed / 4,
                    0,
                    0,
                    committed / 8,
                    0,
                    committed / 8,
                ],
                blocked_cycles: 0,
                dl1_refs: 200,
                dl1_misses,
                il1_refs: 100,
                il1_misses: 5,
            }],
            ..Default::default()
        }
    }

    fn stable_policy() -> FastSimPolicy {
        FastSimPolicy::with_threshold(0.10)
    }

    #[test]
    fn locks_after_stable_window_and_extrapolates() {
        let mut fs = FastSim::new(stable_policy());
        let key = tuple_key([7u64]);
        for i in 0..4 {
            let ev = fs.observe_detailed(&key, &slice(1_500, 20));
            if i < 3 {
                assert_eq!(ev, None, "slice {i} must not lock yet");
            } else {
                assert!(matches!(ev, Some(FastSimEvent::PhaseLocked { .. })));
            }
        }
        let synth = fs.try_extrapolate(&key, 1_000).expect("locked phase");
        assert_eq!(synth.cycles, 1_000);
        // Scaled from a 4-slice window of identical slices: same per-slice counts.
        assert_eq!(synth.threads[0].committed, 1_500);
        assert_eq!(synth.threads[0].stream, StreamId(7));
        assert_eq!(fs.counters().phase_locks, 1);
        assert_eq!(fs.counters().extrapolated_slices, 1);
    }

    #[test]
    fn unstable_window_never_locks() {
        let mut fs = FastSim::new(stable_policy());
        let key = tuple_key([7u64]);
        for i in 0..12 {
            // IPC alternates 1.5 / 0.5: far outside a 10% band.
            let c = if i % 2 == 0 { 1_500 } else { 500 };
            assert_eq!(fs.observe_detailed(&key, &slice(c, 20)), None);
        }
        assert!(fs.try_extrapolate(&key, 1_000).is_none());
        assert_eq!(fs.counters().phase_locks, 0);
    }

    #[test]
    fn confidence_bounds_the_extrapolation_run() {
        let mut fs = FastSim::new(stable_policy());
        let key = tuple_key([7u64]);
        for _ in 0..4 {
            fs.observe_detailed(&key, &slice(1_500, 20));
        }
        // INITIAL_CONFIDENCE 0.25 × MAX_EXTRAPOLATED 96 = 24 slices.
        let mut granted = 0;
        while fs.try_extrapolate(&key, 1_000).is_some() {
            granted += 1;
            assert!(granted <= 96, "extrapolation must pause for a re-sample");
        }
        assert_eq!(granted, 24);
        // The re-sample window opens with a cache warm-up slice (not
        // judged), then an agreeing judged slice raises confidence and
        // restarts the run.
        assert_eq!(fs.observe_detailed(&key, &slice(1_500, 20)), None);
        let ev = fs.observe_detailed(&key, &slice(1_500, 20));
        assert!(matches!(ev, Some(FastSimEvent::ResampleOk { .. })));
        let mut granted2 = 0;
        while fs.try_extrapolate(&key, 1_000).is_some() {
            granted2 += 1;
            assert!(granted2 <= 96);
        }
        assert!(granted2 > granted, "confidence must lengthen the run");
    }

    #[test]
    fn resample_warmup_slice_is_not_judged() {
        // The first detailed slice after an extrapolation run sees the
        // cold/stale shared state left behind by the skip-forward; even a
        // wildly deviating warm-up slice must not break the phase, and
        // extrapolation must stay paused until the judged slice agrees.
        let mut fs = FastSim::new(stable_policy());
        let key = tuple_key([7u64]);
        for _ in 0..4 {
            fs.observe_detailed(&key, &slice(1_500, 20));
        }
        while fs.try_extrapolate(&key, 1_000).is_some() {}
        // Warm-up slice with a cold-start signature (half IPC, miss storm).
        assert_eq!(fs.observe_detailed(&key, &slice(700, 180)), None);
        assert_eq!(fs.counters().fallbacks, 0, "warm-up must not be judged");
        assert!(
            fs.try_extrapolate(&key, 1_000).is_none(),
            "extrapolation stays paused until the judged slice"
        );
        // The judged slice agrees with the reference window: run resumes.
        let ev = fs.observe_detailed(&key, &slice(1_500, 20));
        assert!(
            matches!(ev, Some(FastSimEvent::ResampleOk { .. })),
            "{ev:?}"
        );
        assert!(fs.try_extrapolate(&key, 1_000).is_some());
    }

    #[test]
    fn drift_forces_fallback_and_relock() {
        let mut fs = FastSim::new(stable_policy());
        let key = tuple_key([7u64]);
        for _ in 0..4 {
            fs.observe_detailed(&key, &slice(1_500, 20));
        }
        assert!(fs.try_extrapolate(&key, 1_000).is_some());
        // The job changed phase: IPC halves.
        let ev = fs.observe_detailed(&key, &slice(600, 150));
        assert!(matches!(ev, Some(FastSimEvent::Fallback { .. })), "{ev:?}");
        assert_eq!(fs.counters().fallbacks, 1);
        assert!(
            fs.try_extrapolate(&key, 1_000).is_none(),
            "fallback must force full detail"
        );
        // The new phase can lock again after a fresh stable window.
        for _ in 0..3 {
            fs.observe_detailed(&key, &slice(600, 150));
        }
        assert!(fs.try_extrapolate(&key, 1_000).is_some());
        assert_eq!(fs.counters().phase_locks, 2);
    }

    #[test]
    fn revalidate_pauses_locked_phases_and_drops_partial_windows() {
        let mut fs = FastSim::new(stable_policy());
        let (locked, partial) = (tuple_key([7u64]), tuple_key([8u64]));
        for _ in 0..4 {
            fs.observe_detailed(&locked, &slice(1_500, 20));
        }
        for _ in 0..3 {
            fs.observe_detailed(&partial, &slice(1_500, 20));
        }
        assert!(fs.try_extrapolate(&locked, 1_000).is_some());
        fs.revalidate();
        // The locked phase owes a fresh warm-up + judged slice ...
        assert!(fs.try_extrapolate(&locked, 1_000).is_none());
        assert_eq!(fs.observe_detailed(&locked, &slice(1_500, 20)), None);
        let ev = fs.observe_detailed(&locked, &slice(1_500, 20));
        assert!(
            matches!(ev, Some(FastSimEvent::ResampleOk { .. })),
            "{ev:?}"
        );
        assert!(fs.try_extrapolate(&locked, 1_000).is_some());
        // ... and the 3-slice window restarts instead of locking on its 4th.
        assert_eq!(fs.observe_detailed(&partial, &slice(1_500, 20)), None);
        assert_eq!(fs.counters().phase_locks, 1);
    }

    #[test]
    fn distinct_tuples_track_distinct_phases() {
        let mut fs = FastSim::new(stable_policy());
        let a = tuple_key([1u64, 2]);
        let b = tuple_key([3u64, 4]);
        for _ in 0..4 {
            fs.observe_detailed(&a, &slice(1_500, 20));
        }
        assert!(fs.try_extrapolate(&a, 1_000).is_some());
        assert!(fs.try_extrapolate(&b, 1_000).is_none(), "b never observed");
    }

    #[test]
    fn tuple_key_is_order_insensitive() {
        assert_eq!(tuple_key([3u64, 1, 2]), tuple_key([2u64, 3, 1]));
    }

    #[test]
    fn synthesized_counters_preserve_conservation() {
        // A window of unequal slices scaled to an odd cycle count must keep
        // committed ≤ fetched and misses ≤ refs (floor scaling is monotone).
        let window = vec![slice(1_500, 20), slice(1_400, 30), slice(1_450, 25)];
        let s = synthesize(&window, 777);
        let t = &s.threads[0];
        assert!(t.committed <= t.fetched);
        assert!(t.dl1_misses <= t.dl1_refs);
        assert!(s.cache.dl1_misses <= s.cache.dl1_refs);
        assert_eq!(s.cycles, 777);
        // Deterministic: same inputs, same bytes.
        assert_eq!(s, synthesize(&window, 777));
    }

    #[test]
    fn extrapolated_fraction_math() {
        let c = FastSimCounters {
            detailed_cycles: 25,
            extrapolated_cycles: 75,
            ..Default::default()
        };
        assert!((c.extrapolated_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(FastSimCounters::default().extrapolated_fraction(), 0.0);
    }

    #[test]
    fn policy_serde_round_trip() {
        let p = FastSimPolicy::with_threshold(0.07);
        let j = serde_json::to_string(&p).unwrap();
        assert_eq!(serde_json::from_str::<FastSimPolicy>(&j).unwrap(), p);
        assert!(p.describe().contains("threshold=0.07"));
        // A snapshot written when the policy had seven fields still loads.
        let old = r#"{"stability_threshold":0.07,"stable_window":4,"max_extrapolated":96,"drift_tolerance":0.105,"initial_confidence":0.25,"confidence_step":0.25,"resample_warmup":1}"#;
        assert_eq!(serde_json::from_str::<FastSimPolicy>(old).unwrap(), p);
        assert_eq!(
            FastSimPolicy::default().describe(),
            "threshold=0.1 window=4 max_extrap=96 drift_tol=0.15"
        );
    }

    #[test]
    #[should_panic(expected = "bad fast-sim policy")]
    fn zero_threshold_rejected() {
        let _ = FastSim::new(FastSimPolicy::with_threshold(0.0));
    }
}

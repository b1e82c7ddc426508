//! Two-level cluster scheduling: a dispatcher in front of N per-core
//! [`OnlineEngine`] shards.
//!
//! The paper schedules one SMT core. A production fleet runs many; the
//! natural scale-out (see "Scalable HPC Job Scheduling and Resource
//! Management in SST" and the two-level-scheduling literature) is a
//! **batch-level dispatcher** that partitions the arriving job stream across
//! cores, with each core running the paper's application-level policy
//! (naive rotation or SOS) locally. [`ClusterEngine`] implements exactly
//! that split:
//!
//! * each shard is a full [`OnlineEngine`] — its own simulated
//!   Alpha-21264-like machine — that the cluster *owns* and calls directly;
//! * the dispatcher routes every [`submit`](ClusterEngine::submit) to one
//!   shard under a [`DispatchPolicy`] — round-robin, least-loaded, or
//!   symbiosis-aware (route to the shard whose predicted coschedule
//!   degrades least, scored from static benchmark profiles);
//! * a rebalancing step migrates queued-but-not-started jobs off overloaded
//!   shards ([`OnlineEngine::reclaim_unstarted`] guarantees no execution
//!   progress is lost), with every migration recorded in telemetry and the
//!   cluster metrics;
//! * each shard reports through its own child [`Telemetry`] handle
//!   (`cluster.shard<i>`: own clock, own event buffer, and the shard
//!   engine's own series — `cluster.shard<i>.queue_depth` included), so a
//!   traced cluster run is as reproducible as an untraced one; the
//!   dispatcher's own series (`cluster.submitted`, `.completed`,
//!   `.migrations`, `.rounds`, `.aggregate_ws`, the shard clocks) are
//!   written by one `publish` from the counts it keeps anyway.
//!
//! # Lockstep clocks and determinism
//!
//! Shards are values, not actors: everything the dispatcher wants to know
//! about one (depth, clock, residents, learner state) it reads from the
//! engine. Only [`step`](ClusterEngine::step) uses threads, and only for
//! its duration — every shard advances by the same `slices_per_round ×
//! timeslice` cycles (idle shards jump) through [`crate::par`]'s
//! order-preserving map, the calling thread working alongside at most
//! `min(shards, cores) − 1` scoped ones, and a 1-shard cluster runs inline
//! with no thread at all. Three rules make a run **byte-reproducible** for
//! a fixed shard count, whatever the worker count: each shard's RNG is
//! seeded `cluster seed ⊕ shard id`; all shards stop at the same round
//! boundary, so every dispatch and rebalancing decision sees them at one
//! agreed "now"; and a round's departures are merged in shard-index order.
//! A 1-shard cluster is bit-exact with a plain [`OnlineEngine`] (same seed,
//! same event sequence).

use crate::arrivals::JobArrival;
use crate::learn::{LearnSummary, Learner};
use crate::online::{JobRecord, OnlineConfig, OnlineEngine, Scheduler, SchedulerKind};
use crate::report::{self, JobSummary, Percentiles};
use crate::telemetry::{Attr, Counter, Gauge, Telemetry};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;
use workloads::spec::Benchmark;

/// How the dispatcher picks a shard for an arriving job.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DispatchPolicy {
    /// Cycle through shards in submission order (the baseline).
    RoundRobin,
    /// Route to the shard with the fewest resident jobs (ties to the lowest
    /// shard index).
    LeastLoaded,
    /// Route to the shard whose predicted coschedule the job degrades
    /// least: score each shard by the mean profile interference between the
    /// job and the shard's residents plus a queue-depth penalty, and take
    /// the minimum (ties to the lowest shard index). A static-profile
    /// stand-in for the per-shard sampled predictors, usable at dispatch
    /// time when the job has never run.
    Symbiosis,
}

impl DispatchPolicy {
    /// Parses a policy name (`"round-robin"`/`"rr"`, `"least-loaded"`,
    /// `"symbiosis"`; case-insensitive).
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "round-robin" | "roundrobin" | "rr" => Some(DispatchPolicy::RoundRobin),
            "least-loaded" | "leastloaded" | "ll" => Some(DispatchPolicy::LeastLoaded),
            "symbiosis" | "sym" => Some(DispatchPolicy::Symbiosis),
            _ => None,
        }
    }

    /// The canonical lowercase policy name.
    pub fn name(&self) -> &'static str {
        match self {
            DispatchPolicy::RoundRobin => "round-robin",
            DispatchPolicy::LeastLoaded => "least-loaded",
            DispatchPolicy::Symbiosis => "symbiosis",
        }
    }
}

/// Cluster configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of per-core shards.
    pub shards: usize,
    /// Dispatcher policy.
    pub dispatch: DispatchPolicy,
    /// Per-shard scheduling policy (naive or SOS).
    pub scheduler: SchedulerKind,
    /// Per-shard engine template. `shard.seed` is the *cluster* seed; shard
    /// `i` runs with `seed ⊕ i`.
    pub shard: OnlineConfig,
    /// Timeslices every shard advances per cluster [`ClusterEngine::step`].
    /// 1 gives the finest dispatch/rebalance granularity (and makes a
    /// 1-shard cluster step-for-step identical to a plain engine); larger
    /// values amortize the per-round thread fan-out.
    pub slices_per_round: u64,
    /// Check rebalancing every this many rounds (0 disables stealing).
    pub rebalance_every: u64,
    /// Steal only when the deepest and shallowest queues differ by at least
    /// this many jobs (minimum effective value 2 — stealing across a
    /// 1-job gap just moves the imbalance).
    pub steal_threshold: usize,
}

impl ClusterConfig {
    /// A cluster of `shards` copies of `shard` under the given policies,
    /// with stepping/rebalancing defaults (one slice per round, rebalance
    /// every 8 rounds, steal threshold 4).
    pub fn new(
        shards: usize,
        dispatch: DispatchPolicy,
        scheduler: SchedulerKind,
        shard: OnlineConfig,
    ) -> Self {
        ClusterConfig {
            shards,
            dispatch,
            scheduler,
            shard,
            slices_per_round: 1,
            rebalance_every: 8,
            steal_threshold: 4,
        }
    }

    fn validate(&self) {
        assert!(self.shards > 0, "a cluster needs at least one shard");
        assert!(self.slices_per_round > 0, "slices_per_round must be > 0");
    }
}

/// One shard's lifetime summary in the [`ClusterReport`]. Excludes
/// anything wall-clock so two runs of the same seeded cluster serialize
/// byte-identically.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// The shard engine's seed (`cluster seed ⊕ shard`).
    pub seed: u64,
    /// Jobs dispatched to this shard (initial dispatch + migrated in).
    pub submitted: usize,
    /// Jobs migrated *into* this shard by rebalancing.
    pub migrated_in: usize,
    /// Jobs migrated *out of* this shard by rebalancing.
    pub migrated_out: usize,
    /// Jobs this shard ran to completion.
    pub completed: u64,
    /// Timeslices this shard actually simulated (busy slices, not idle
    /// jumps).
    pub timeslices: u64,
    /// Of those, timeslices synthesized by fast-sim extrapolation rather
    /// than detailed execution (0 when fast-sim is off).
    #[serde(default)]
    pub extrapolated_slices: u64,
    /// The shard clock at the end of the run.
    pub now_cycles: u64,
    /// Jobs still resident at report time.
    pub final_queue_depth: usize,
    /// Every job this shard completed, in departure order — the shard's
    /// trace for byte-reproducibility checks.
    pub records: Vec<JobRecord>,
    /// The shard's learner summary at report time (`None` when the shard
    /// runs without online learning).
    #[serde(default)]
    pub learn: Option<LearnSummary>,
}

/// The cluster-wide summary (deterministic: serializing it twice for the
/// same seeded run yields identical bytes).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Shard count.
    pub shards: usize,
    /// Dispatcher policy name.
    pub dispatch: String,
    /// Per-shard scheduler policy name.
    pub scheduler: String,
    /// Cluster seed.
    pub seed: u64,
    /// Cluster clock at report time.
    pub now_cycles: u64,
    /// Jobs submitted to the cluster.
    pub submitted: usize,
    /// Jobs completed across all shards.
    pub completed: u64,
    /// Jobs migrated between shards by rebalancing.
    pub migrations: u64,
    /// Total busy timeslices across shards.
    pub timeslices: u64,
    /// Of those, timeslices synthesized by fast-sim extrapolation across
    /// shards (0 when fast-sim is off).
    #[serde(default)]
    pub extrapolated_slices: u64,
    /// The shard fast-sim policy in effect, if any (see
    /// [`smtsim::FastSimPolicy::describe`]).
    #[serde(default)]
    pub fastsim: Option<String>,
    /// Cluster-wide weighted speedup: solo-equivalent cycles of completed
    /// work per busy machine cycle, `Σ_j solo_cycles(j) / Σ_s busy_cycles(s)`.
    /// Above 1.0 means SMT coscheduling is paying for itself.
    pub aggregate_ws: f64,
    /// Response-time percentiles over completed jobs (cycles).
    pub response: Percentiles,
    /// Slowdown percentiles over completed jobs (response / solo time).
    pub slowdown: Percentiles,
    /// Per-shard summaries, in shard order.
    pub per_shard: Vec<ShardReport>,
}

// ---------------------------------------------------------------------------
// Shards
// ---------------------------------------------------------------------------

/// One shard: the engine, plus the two things about it the engine does not
/// itself keep. Depth, clock, timeslices, residents, jobs taken in and
/// reclaimed, and learner state are all read from the engine.
struct Shard {
    engine: OnlineEngine,
    /// Jobs migrated *into* this shard by rebalancing.
    migrated_in: usize,
    /// Every job this shard completed, in departure order.
    records: Vec<JobRecord>,
}

impl Shard {
    /// Runs up to `slices` timeslices, then lands exactly on the round
    /// boundary `target` whether the shard ran them all, idled early, or was
    /// empty all along. Returns the jobs that departed.
    fn advance(&mut self, slices: u64, target: u64) -> Vec<JobRecord> {
        let mut departed = Vec::new();
        for _ in 0..slices {
            if self.engine.live_count() == 0 {
                break;
            }
            departed.extend(self.engine.step());
        }
        self.engine.jump_to(target);
        self.records.extend_from_slice(&departed);
        departed
    }
}

/// Pairwise profile interference between two benchmarks: how much they
/// compete for the same functional units and cache capacity. The dot
/// product of their normalized instruction-class mixes captures
/// functional-unit and issue-queue overlap (two FP-heavy jobs clash; an
/// FP job and an integer job interleave); the memory term adds pressure
/// when both are load/store-heavy *and* their combined footprints exceed
/// a shared-cache-sized budget.
fn profile_interference(a: Benchmark, b: Benchmark) -> f64 {
    const SHARED_CACHE_BYTES: f64 = (1 << 20) as f64; // L2-ish budget
    let pa = a.profile();
    let pb = b.profile();
    let wa = pa.mix.weights();
    let wb = pb.mix.weights();
    let norm = |w: &[f64; 8]| {
        let s: f64 = w.iter().sum();
        if s > 0.0 {
            s
        } else {
            1.0
        }
    };
    let (na, nb) = (norm(&wa), norm(&wb));
    let unit_overlap: f64 = wa
        .iter()
        .zip(wb.iter())
        .map(|(x, y)| (x / na) * (y / nb))
        .sum();
    // weights() order: [int_alu, int_mul, fp_add, fp_mul, fp_div, load,
    // store, branch] — indices 5 and 6 are the memory classes.
    let mem_a = (wa[5] + wa[6]) / na;
    let mem_b = (wb[5] + wb[6]) / nb;
    let footprint = (pa.data_bytes + pb.data_bytes) as f64;
    let cache_pressure = mem_a * mem_b * (footprint / SHARED_CACHE_BYTES).min(1.0);
    unit_overlap + cache_pressure
}

/// The symbiosis dispatch score of placing `job` on a shard holding
/// `resident`: mean interference against the residents plus a load
/// penalty so deep queues repel even well-matched jobs. Lower is better;
/// an empty shard scores 0.
fn symbiosis_score(job: &JobArrival, resident: &[JobArrival]) -> f64 {
    const LOAD_PENALTY: f64 = 0.05;
    if resident.is_empty() {
        return 0.0;
    }
    let sum: f64 = resident
        .iter()
        .map(|r| profile_interference(job.benchmark, r.benchmark))
        .sum();
    sum / resident.len() as f64 + LOAD_PENALTY * resident.len() as f64
}

// ---------------------------------------------------------------------------
// Cluster metrics
// ---------------------------------------------------------------------------

/// Cluster-level metric handles (cluster counters + per-shard clocks),
/// resolved once from the cluster's [`Telemetry`] handle and written by
/// [`ClusterEngine::publish`]. A shard's other series — its
/// `cluster.shard<i>.queue_depth` included — are its own engine's, published
/// through the child handle.
struct ClusterMetrics {
    shard_now: Vec<Arc<Gauge>>,
    submitted: Arc<Counter>,
    completed: Arc<Counter>,
    migrations: Arc<Counter>,
    rounds: Arc<Counter>,
    aggregate_ws: Arc<Gauge>,
}

impl ClusterMetrics {
    const RESPONSE: &'static str = "cluster.response_cycles";
    const SLOWDOWN: &'static str = "cluster.slowdown_x100";

    fn register(tel: &Telemetry, shards: usize) -> Self {
        tel.register_histogram(Self::RESPONSE);
        tel.register_histogram(Self::SLOWDOWN);
        ClusterMetrics {
            shard_now: (0..shards)
                .map(|s| tel.gauge(&format!("cluster.shard{s}.now_cycles")))
                .collect(),
            submitted: tel.counter("cluster.submitted"),
            completed: tel.counter("cluster.completed"),
            migrations: tel.counter("cluster.migrations"),
            rounds: tel.counter("cluster.rounds"),
            aggregate_ws: tel.gauge("cluster.aggregate_ws"),
        }
    }
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// The two-level cluster scheduler: a dispatcher over N per-core
/// [`OnlineEngine`] shards. Mirrors the engine's facade —
/// [`submit`](Self::submit) / [`step`](Self::step) /
/// [`jump_to`](Self::jump_to) / [`drain`](Self::drain) — and implements
/// [`Scheduler`], so [`crate::online::replay`] drives either.
pub struct ClusterEngine {
    cfg: ClusterConfig,
    shards: Vec<Shard>,
    /// Threads a round may use, the caller included
    /// ([`crate::par::available_workers`]; the shard count caps it).
    workers: usize,
    now: u64,
    rounds: u64,
    submitted: usize,
    migrations: u64,
    rr_next: usize,
    /// Solo IPC per benchmark (for slowdown and weighted-speedup
    /// accounting; unknown benchmarks fall back to IPC 1.0).
    solo_ipc: HashMap<Benchmark, f64>,
    /// The dispatcher's handle (shards hold children of it) and the metric
    /// handles resolved from it (`None` while it is off).
    tel: Telemetry,
    metrics: Option<ClusterMetrics>,
}

impl ClusterEngine {
    /// Builds the shard engines and the dispatcher.
    ///
    /// # Panics
    /// Panics on an invalid configuration: zero shards, zero
    /// `slices_per_round`, or a shard template [`OnlineEngine::new`] rejects.
    pub fn new(cfg: &ClusterConfig) -> Self {
        Self::with_telemetry(cfg, &Telemetry::off())
    }

    /// Like [`new`](Self::new), reporting to `tel`: cluster-wide series and
    /// lifetime response/slowdown histograms plus `cluster.migration`
    /// instants on the dispatcher's own handle, and one child handle per
    /// shard — prefix `cluster.shard<i>`, carrying that shard's engine
    /// series, clock and event buffer. Draining `tel` yields the
    /// dispatcher's events followed by each shard's in shard order.
    pub fn with_telemetry(cfg: &ClusterConfig, tel: &Telemetry) -> Self {
        cfg.validate();
        let metrics = tel
            .is_on()
            .then(|| ClusterMetrics::register(tel, cfg.shards));
        let shards = (0..cfg.shards)
            .map(|s| {
                let mut shard_cfg = cfg.shard.clone();
                shard_cfg.seed ^= s as u64;
                let mut engine = OnlineEngine::new(cfg.scheduler, &shard_cfg);
                engine.set_telemetry(tel.child(&format!("cluster.shard{s}")));
                Shard {
                    engine,
                    migrated_in: 0,
                    records: Vec::new(),
                }
            })
            .collect();
        ClusterEngine {
            cfg: cfg.clone(),
            shards,
            workers: crate::par::available_workers(),
            now: 0,
            rounds: 0,
            submitted: 0,
            migrations: 0,
            rr_next: 0,
            solo_ipc: HashMap::new(),
            tel: tel.clone(),
            metrics,
        }
    }

    /// Provides solo IPC per benchmark for slowdown and weighted-speedup
    /// accounting (from [`crate::opensys::calibrate_benchmarks`]). Without
    /// it, solo time falls back to `instructions` cycles (IPC 1.0).
    pub fn set_solo_ipc(&mut self, solo: HashMap<Benchmark, f64>) {
        self.solo_ipc = solo;
    }

    /// The cluster clock (every shard's clock at the last round boundary).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Jobs currently resident across all shards.
    pub fn live_count(&self) -> usize {
        self.shards.iter().map(|sh| sh.engine.live_count()).sum()
    }

    /// Jobs completed across all shards.
    pub fn completed(&self) -> u64 {
        self.shards.iter().map(|sh| sh.records.len() as u64).sum()
    }

    /// Jobs migrated between shards by rebalancing.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Queue depth of each shard.
    pub fn shard_depths(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|sh| sh.engine.live_count())
            .collect()
    }

    /// Admits a job, routing it to a shard under the dispatch policy, and
    /// returns the chosen shard index.
    pub fn submit(&mut self, arrival: JobArrival) -> usize {
        let shard = self.pick_shard(&arrival);
        self.submitted += 1;
        self.shards[shard].engine.submit(arrival);
        self.publish();
        shard
    }

    /// Copies the dispatcher's books to the registry: the one place the
    /// cluster writes a counter or a gauge, run at the end of every call
    /// that moves them (`submit`, `step`, `jump_to`) while a handle is
    /// attached. Absolute writes, as in [`OnlineEngine`]'s own `publish`.
    fn publish(&self) {
        let Some(cm) = &self.metrics else {
            return;
        };
        let completed = self.completed();
        cm.submitted.raise_to(self.submitted as u64);
        cm.completed.raise_to(completed);
        cm.migrations.raise_to(self.migrations);
        cm.rounds.raise_to(self.rounds);
        for (gauge, sh) in cm.shard_now.iter().zip(&self.shards) {
            gauge.set(sh.engine.now() as f64);
        }
        if completed > 0 {
            cm.aggregate_ws.set(self.aggregate_ws());
        }
    }

    /// The dispatch decision for one arrival.
    fn pick_shard(&mut self, arrival: &JobArrival) -> usize {
        match self.cfg.dispatch {
            DispatchPolicy::RoundRobin => {
                let s = self.rr_next % self.cfg.shards;
                self.rr_next = (self.rr_next + 1) % self.cfg.shards;
                s
            }
            DispatchPolicy::LeastLoaded => self
                .shards
                .iter()
                .enumerate()
                .min_by_key(|(_, sh)| sh.engine.live_count())
                .map(|(s, _)| s)
                .unwrap_or(0),
            DispatchPolicy::Symbiosis => self.most_symbiotic(arrival, None, 0),
        }
    }

    /// The shard, `skip` excepted, whose residents `arrival` interferes with
    /// least (ties to the lowest index; `fallback` when no shard is left to
    /// score).
    fn most_symbiotic(&self, arrival: &JobArrival, skip: Option<usize>, fallback: usize) -> usize {
        let mut best = fallback;
        let mut best_score = f64::INFINITY;
        for (s, sh) in self.shards.iter().enumerate() {
            if Some(s) == skip {
                continue;
            }
            let score = symbiosis_score(arrival, &sh.engine.live_arrivals());
            if score < best_score {
                best_score = score;
                best = s;
            }
        }
        best
    }

    /// Runs one cluster round: every shard advances `slices_per_round`
    /// timeslices (idle shards jump to the round boundary) — concurrently
    /// when there are shards and cores to spare, see the module docs —
    /// departures are collected in shard order, and rebalancing runs on
    /// schedule. Returns the departed jobs. A round with no live jobs
    /// anywhere is a no-op (use [`jump_to`](Self::jump_to) for idle gaps),
    /// mirroring [`OnlineEngine::step`].
    pub fn step(&mut self) -> Vec<JobRecord> {
        if self.live_count() == 0 {
            return Vec::new();
        }
        let slices = self.cfg.slices_per_round;
        let target = self.now + slices * self.cfg.shard.timeslice;
        let departed: Vec<JobRecord> = self
            .each_shard(|sh| sh.advance(slices, target))
            .into_iter()
            .flatten()
            .collect();
        self.now = target;
        self.rounds += 1;
        if self.tel.is_on() {
            for rec in &departed {
                let slowdown = report::slowdown(&self.solo_ipc, rec);
                self.tel
                    .histogram_record(ClusterMetrics::RESPONSE, rec.response());
                self.tel
                    .histogram_record(ClusterMetrics::SLOWDOWN, (slowdown * 100.0).round() as u64);
            }
        }
        if self.cfg.rebalance_every > 0 && self.rounds.is_multiple_of(self.cfg.rebalance_every) {
            self.rebalance();
        }
        self.publish();
        departed
    }

    /// Runs `f` on every shard and returns the results in shard order:
    /// inline for one shard or one worker, otherwise on scoped threads next
    /// to the calling one.
    fn each_shard<R: Send>(&mut self, f: impl Fn(&mut Shard) -> R + Sync) -> Vec<R> {
        crate::par::parallel_map_with_workers(self.shards.iter_mut().collect(), self.workers, f)
    }

    /// Migrates queued-but-not-started jobs from the deepest to the
    /// shallowest shard when the gap reaches the steal threshold. Symbiosis
    /// dispatch re-scores each migrant (it may beat the shallowest shard's
    /// score elsewhere); the baseline policies send migrants straight to
    /// the shallowest shard.
    fn rebalance(&mut self) {
        let depths = self.shard_depths();
        let by_depth = || depths.iter().enumerate();
        let Some((deep, _)) = by_depth().max_by_key(|(_, d)| **d) else {
            return;
        };
        let shallow = by_depth().min_by_key(|(_, d)| **d).map_or(0, |(s, _)| s);
        let gap = depths[deep] - depths[shallow];
        if deep == shallow || gap < self.cfg.steal_threshold.max(2) {
            return;
        }
        let taken = self.shards[deep].engine.reclaim_unstarted(gap / 2);
        if taken.is_empty() {
            return;
        }
        self.tel.set_clock(self.now);
        for arrival in taken {
            let dest = match self.cfg.dispatch {
                DispatchPolicy::Symbiosis => self.most_symbiotic(&arrival, Some(deep), shallow),
                _ => shallow,
            };
            self.shards[dest].migrated_in += 1;
            self.tel.instant("cluster", "cluster.migration", || {
                vec![
                    Attr::num("from", deep as f64),
                    Attr::num("to", dest as f64),
                    Attr::text("benchmark", format!("{:?}", arrival.benchmark)),
                ]
            });
            self.shards[dest].engine.submit(arrival);
            self.migrations += 1;
        }
    }

    /// Fast-forwards the cluster clock across an idle gap. Only legal when
    /// no shard holds a live job (a busy shard must simulate, not skip).
    ///
    /// # Panics
    /// Panics if any shard still holds live jobs.
    pub fn jump_to(&mut self, t: u64) {
        assert_eq!(
            self.live_count(),
            0,
            "ClusterEngine::jump_to requires an idle cluster"
        );
        if t <= self.now {
            return;
        }
        self.now = t;
        for sh in &mut self.shards {
            sh.engine.jump_to(t);
        }
        self.publish();
    }

    /// Steps until every submitted job has completed (or `max_rounds` is
    /// exhausted). Returns the jobs that departed during the drain.
    pub fn drain(&mut self, max_rounds: u64) -> Vec<JobRecord> {
        let mut departed = Vec::new();
        for _ in 0..max_rounds {
            if self.live_count() == 0 {
                break;
            }
            departed.extend(self.step());
        }
        departed
    }

    /// The summary of every completed job, shard by shard and in departure
    /// order within a shard (the order fixes the sums' bits).
    fn summary(&self) -> JobSummary {
        JobSummary::of(
            self.shards.iter().flat_map(|sh| &sh.records),
            &self.solo_ipc,
        )
    }

    /// Machine cycles the shards spent simulating (idle jumps excluded).
    fn busy_cycles(&self) -> u64 {
        let slices: u64 = self.shards.iter().map(|sh| sh.engine.timeslices()).sum();
        slices * self.cfg.shard.timeslice
    }

    /// Cluster-wide weighted speedup so far: solo-equivalent cycles of
    /// completed work per busy machine cycle across all shards.
    pub fn aggregate_ws(&self) -> f64 {
        self.summary().weighted_speedup(self.busy_cycles())
    }

    /// Builds the deterministic cluster report (the engine remains usable
    /// after).
    pub fn report(&self) -> ClusterReport {
        let per_shard: Vec<ShardReport> = self
            .shards
            .iter()
            .enumerate()
            .map(|(s, sh)| ShardReport {
                shard: s,
                seed: sh.engine.config().seed,
                // Reclaimed jobs are re-counted at their destination.
                submitted: sh.engine.submitted() - sh.engine.reclaimed(),
                migrated_in: sh.migrated_in,
                migrated_out: sh.engine.reclaimed(),
                completed: sh.records.len() as u64,
                timeslices: sh.engine.timeslices(),
                extrapolated_slices: sh
                    .engine
                    .fastsim_counters()
                    .map_or(0, |c| c.extrapolated_slices),
                now_cycles: sh.engine.now(),
                final_queue_depth: sh.engine.live_count(),
                records: sh.records.clone(),
                learn: sh.engine.learner().map(Learner::summary),
            })
            .collect();
        let summary = self.summary();
        ClusterReport {
            shards: self.cfg.shards,
            dispatch: self.cfg.dispatch.name().to_string(),
            scheduler: self.cfg.scheduler.name().to_string(),
            seed: self.cfg.shard.seed,
            now_cycles: self.now,
            submitted: self.submitted,
            completed: self.completed(),
            migrations: self.migrations,
            timeslices: per_shard.iter().map(|p| p.timeslices).sum(),
            extrapolated_slices: per_shard.iter().map(|p| p.extrapolated_slices).sum(),
            fastsim: self.cfg.shard.fastsim.as_ref().map(|p| p.describe()),
            aggregate_ws: summary.weighted_speedup(self.busy_cycles()),
            response: summary.response(),
            slowdown: summary.slowdown(),
            per_shard,
        }
    }
}

impl Scheduler for ClusterEngine {
    fn now(&self) -> u64 {
        self.now
    }
    fn live_count(&self) -> usize {
        ClusterEngine::live_count(self)
    }
    fn submit(&mut self, arrival: JobArrival) {
        ClusterEngine::submit(self, arrival);
    }
    fn step(&mut self) -> Vec<JobRecord> {
        ClusterEngine::step(self)
    }
    fn jump_to(&mut self, t: u64) {
        ClusterEngine::jump_to(self, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::PredictorKind;

    fn shard_cfg(seed: u64) -> OnlineConfig {
        OnlineConfig {
            smt: 2,
            timeslice: 2_000,
            sample_schedules: 3,
            predictor: PredictorKind::Score,
            drift_threshold: None,
            base_interval: 30_000,
            seed,
            fastsim: None,
        }
    }

    fn job(arrival: u64, benchmark: Benchmark, instructions: u64) -> JobArrival {
        JobArrival {
            arrival,
            benchmark,
            instructions,
            phased: false,
        }
    }

    #[test]
    fn dispatch_policy_parses() {
        assert_eq!(
            DispatchPolicy::parse("rr"),
            Some(DispatchPolicy::RoundRobin)
        );
        assert_eq!(
            DispatchPolicy::parse("Least-Loaded"),
            Some(DispatchPolicy::LeastLoaded)
        );
        assert_eq!(
            DispatchPolicy::parse("symbiosis"),
            Some(DispatchPolicy::Symbiosis)
        );
        assert_eq!(DispatchPolicy::parse("hash"), None);
        assert_eq!(DispatchPolicy::Symbiosis.name(), "symbiosis");
    }

    #[test]
    fn round_robin_cycles_shards() {
        let cfg = ClusterConfig::new(
            3,
            DispatchPolicy::RoundRobin,
            SchedulerKind::Naive,
            shard_cfg(1),
        );
        let mut c = ClusterEngine::new(&cfg);
        let picks: Vec<usize> = (0..6)
            .map(|_| c.submit(job(0, Benchmark::Gcc, 10_000)))
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(c.live_count(), 6);
    }

    #[test]
    fn least_loaded_fills_empty_shards_first() {
        let cfg = ClusterConfig::new(
            2,
            DispatchPolicy::LeastLoaded,
            SchedulerKind::Naive,
            shard_cfg(1),
        );
        let mut c = ClusterEngine::new(&cfg);
        assert_eq!(c.submit(job(0, Benchmark::Gcc, 10_000)), 0);
        assert_eq!(c.submit(job(0, Benchmark::Gcc, 10_000)), 1);
        assert_eq!(c.submit(job(0, Benchmark::Gcc, 10_000)), 0);
    }

    #[test]
    fn symbiosis_score_prefers_complementary_mixes() {
        // An FP-heavy resident should repel another FP-heavy job more than
        // an integer job (functional-unit overlap dominates the score).
        let resident = vec![job(0, Benchmark::Fp, 10_000)];
        let fp_score = symbiosis_score(&job(0, Benchmark::Swim, 10_000), &resident);
        let int_score = symbiosis_score(&job(0, Benchmark::Gcc, 10_000), &resident);
        assert!(
            int_score < fp_score,
            "int job should interfere less with an FP resident \
             (int={int_score:.4} fp={fp_score:.4})"
        );
        // Empty shards attract.
        assert_eq!(symbiosis_score(&job(0, Benchmark::Fp, 10_000), &[]), 0.0);
    }

    #[test]
    fn cluster_completes_all_jobs_and_reports() {
        let cfg = ClusterConfig::new(
            2,
            DispatchPolicy::LeastLoaded,
            SchedulerKind::Naive,
            shard_cfg(7),
        );
        let mut c = ClusterEngine::new(&cfg);
        for i in 0..6 {
            c.submit(job(0, Benchmark::Gcc, 20_000 + i * 1_000));
        }
        let done = c.drain(100_000);
        assert_eq!(done.len(), 6);
        assert_eq!(c.completed(), 6);
        assert_eq!(c.live_count(), 0);
        let report = c.report();
        assert_eq!(report.completed, 6);
        assert_eq!(report.submitted, 6);
        assert_eq!(report.per_shard.len(), 2);
        let per_shard_total: u64 = report.per_shard.iter().map(|p| p.completed).sum();
        assert_eq!(per_shard_total, 6);
        assert!(report.aggregate_ws > 0.0);
        assert!(report.response.p99 >= report.response.p50);
    }

    #[test]
    fn idle_cluster_step_is_noop_and_jump_advances_all_shards() {
        let cfg = ClusterConfig::new(
            2,
            DispatchPolicy::RoundRobin,
            SchedulerKind::Naive,
            shard_cfg(3),
        );
        let mut c = ClusterEngine::new(&cfg);
        assert!(c.step().is_empty());
        assert_eq!(c.now(), 0);
        c.jump_to(50_000);
        assert_eq!(c.now(), 50_000);
        // A job submitted after the jump lands at the jumped clock.
        c.submit(job(50_000, Benchmark::Gcc, 5_000));
        let done = c.drain(1_000);
        assert_eq!(done.len(), 1);
        assert!(done[0].departure > 50_000);
    }

    #[test]
    fn learned_shards_report_learner_summaries_deterministically() {
        let run = || {
            let mut shard = shard_cfg(21);
            shard.predictor = PredictorKind::Bandit;
            let cfg = ClusterConfig::new(2, DispatchPolicy::RoundRobin, SchedulerKind::Sos, shard);
            let mut c = ClusterEngine::new(&cfg);
            let benches = [
                Benchmark::Gcc,
                Benchmark::Fp,
                Benchmark::Swim,
                Benchmark::Mg,
                Benchmark::Go,
                Benchmark::Is,
            ];
            for (i, b) in benches.iter().cycle().take(12).enumerate() {
                c.submit(job(0, *b, 60_000 + i as u64 * 1_000));
            }
            let done = c.drain(1_000_000);
            assert_eq!(done.len(), 12);
            c.report()
        };
        let report = run();
        for p in &report.per_shard {
            let learn = p
                .learn
                .as_ref()
                .expect("learned shard must report a learner summary");
            assert!(learn.bandit_pulls > 0, "shard {} never pulled", p.shard);
            assert!(learn.train_updates > 0, "shard {} never trained", p.shard);
        }
        // Distinct shard seeds derive distinct learner exploration streams,
        // yet the cluster run is still byte-reproducible.
        let again = run();
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
    }

    #[test]
    fn unlearned_shards_report_no_learner() {
        let cfg = ClusterConfig::new(
            1,
            DispatchPolicy::RoundRobin,
            SchedulerKind::Sos,
            shard_cfg(5),
        );
        let mut c = ClusterEngine::new(&cfg);
        c.submit(job(0, Benchmark::Gcc, 30_000));
        c.drain(100_000);
        let report = c.report();
        assert!(report.per_shard[0].learn.is_none());
    }

    #[test]
    fn engines_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<smtsim::Processor>();
        assert_send::<crate::runner::Runner>();
        assert_send::<OnlineEngine>();
        assert_send::<ClusterEngine>();
    }

    #[test]
    fn one_shard_cluster_runs_on_the_calling_thread() {
        let cfg = ClusterConfig::new(
            1,
            DispatchPolicy::RoundRobin,
            SchedulerKind::Naive,
            shard_cfg(3),
        );
        let mut c = ClusterEngine::new(&cfg);
        c.workers = 8;
        let me = std::thread::current().id();
        assert_eq!(c.each_shard(|_| std::thread::current().id()), [me]);
    }

    #[test]
    fn worker_count_changes_neither_report_nor_trace() {
        let run = |workers: usize| {
            let mut cfg = ClusterConfig::new(
                3,
                DispatchPolicy::Symbiosis,
                SchedulerKind::Sos,
                shard_cfg(13),
            );
            cfg.rebalance_every = 1;
            cfg.steal_threshold = 2;
            let tel = Telemetry::tracing();
            let mut c = ClusterEngine::with_telemetry(&cfg, &tel);
            c.workers = workers;
            let benches = [
                Benchmark::Gcc,
                Benchmark::Fp,
                Benchmark::Swim,
                Benchmark::Is,
            ];
            for (i, b) in benches.iter().cycle().take(14).enumerate() {
                c.submit(job(0, *b, 30_000 + i as u64 * 1_500));
            }
            assert_eq!(c.drain(u64::MAX).len(), 14);
            let report = serde_json::to_string(&c.report()).unwrap();
            (report, tel.drain().events_jsonl())
        };
        let inline = run(1);
        assert!(inline.1.contains("cluster.shard2/"), "shard 2 never traced");
        assert_eq!(inline, run(3), "1 worker (inline) vs 3 workers");
    }

    #[test]
    #[should_panic(expected = "bad fast-sim policy")]
    fn unbuildable_shard_config_panics_in_the_caller_with_fastsims_message() {
        let mut shard = shard_cfg(1);
        shard.fastsim = Some(smtsim::FastSimPolicy::with_threshold(0.0));
        let _ = ClusterEngine::new(&ClusterConfig::new(
            2,
            DispatchPolicy::RoundRobin,
            SchedulerKind::Naive,
            shard,
        ));
    }

    #[test]
    fn rebalancing_steals_from_deep_to_shallow() {
        let shard = shard_cfg(11);
        let mut cfg =
            ClusterConfig::new(2, DispatchPolicy::RoundRobin, SchedulerKind::Naive, shard);
        cfg.rebalance_every = 1;
        cfg.steal_threshold = 2;
        let tel = Telemetry::metrics();
        let mut c = ClusterEngine::with_telemetry(&cfg, &tel);
        // A shard's `queue_depth` series is its own engine's, whoever moved
        // the jobs: dispatch, a steal, or a round's departures.
        let depth_series_match = |c: &ClusterEngine| {
            for (s, depth) in c.shard_depths().into_iter().enumerate() {
                let series = format!("cluster.shard{s}.queue_depth");
                assert_eq!(tel.gauge(&series).get(), depth as f64, "{series}");
            }
        };
        c.submit(job(0, Benchmark::Gcc, 50_000));
        c.submit(job(0, Benchmark::Gcc, 51_000));
        // Pile the rest onto shard 0 by hand to force an imbalance.
        for i in 2..8 {
            c.submitted += 1;
            c.shards[0]
                .engine
                .submit(job(0, Benchmark::Gcc, 50_000 + i * 1_000));
        }
        depth_series_match(&c);
        c.step();
        assert!(c.migrations() > 0, "imbalance must trigger stealing");
        depth_series_match(&c);
        assert_eq!(tel.counter("cluster.migrations").get(), c.migrations());
        assert_eq!(tel.counter("cluster.rounds").get(), 1);
        let done = c.drain(1_000_000);
        assert_eq!(done.len(), 8, "every job completes despite migration");
        depth_series_match(&c);
        assert_eq!(tel.counter("cluster.completed").get(), 8);
        let report = c.report();
        let migrated_out: usize = report.per_shard.iter().map(|p| p.migrated_out).sum();
        let migrated_in: usize = report.per_shard.iter().map(|p| p.migrated_in).sum();
        assert_eq!(migrated_out, migrated_in, "migration conserves jobs");
        assert_eq!(report.migrations as usize, migrated_in);
    }
}

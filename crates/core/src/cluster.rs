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
//! * each shard is a full [`OnlineEngine`] on its own OS thread, owning its
//!   own simulated Alpha-21264-like machine;
//! * the dispatcher routes every [`submit`](ClusterEngine::submit) to one
//!   shard under a [`DispatchPolicy`] — round-robin, least-loaded, or
//!   symbiosis-aware (route to the shard whose predicted coschedule
//!   degrades least, scored from static benchmark profiles);
//! * a rebalancing step migrates queued-but-not-started jobs off overloaded
//!   shards ([`OnlineEngine::reclaim_unstarted`] guarantees no execution
//!   progress is lost), with every migration recorded in telemetry and the
//!   cluster metrics;
//! * each shard reports through its own child [`Telemetry`] handle
//!   (`cluster.shard<i>`: own clock, own event buffer), so a traced cluster
//!   run is as reproducible as an untraced one.
//!
//! # Lockstep clocks and determinism
//!
//! Shard engines are not `Send` (the processor observer slot is
//! thread-local by design), so each worker thread *constructs* its engine
//! locally and is driven purely by messages — the [`sos_core::par`]
//! discipline of deterministic work distribution, applied to long-lived
//! workers. All shard clocks advance in lockstep: one
//! [`step`](ClusterEngine::step) of the cluster advances every shard by the
//! same `slices_per_round × timeslice` cycles (idle shards jump), so at
//! every round boundary all shards agree on "now" and dispatch decisions
//! depend only on deterministic mirror state. Each shard's RNG is seeded
//! `cluster seed ⊕ shard id`. Replies are collected in shard-index order.
//! Consequently a cluster run is **byte-reproducible** for a fixed shard
//! count, and a 1-shard cluster is bit-exact with a plain [`OnlineEngine`]
//! (same seed, same event sequence).
//!
//! [`sos_core::par`]: crate::par

use crate::arrivals::JobArrival;
use crate::learn::LearnSummary;
use crate::online::{JobRecord, OnlineConfig, OnlineEngine, SchedulerKind};
use crate::report::{percentiles, Percentiles};
use crate::telemetry::{Attr, Counter, Gauge, Telemetry};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
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
    /// values amortize messaging.
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

// ---------------------------------------------------------------------------
// Worker protocol
// ---------------------------------------------------------------------------

/// Commands the dispatcher sends a shard worker. The engine lives inside
/// the worker thread (it is not `Send`); everything it does is a response
/// to one of these.
enum Cmd {
    /// Admit a job (fire-and-forget; ordered before any later `Step`).
    Submit(JobArrival),
    /// Run up to `slices` timeslices, then jump the shard clock to
    /// `target` (a shard that idles mid-round still lands on the round
    /// boundary). Replies `Reply::Stepped`.
    Step { slices: u64, target: u64 },
    /// Fast-forward an idle shard's clock (fire-and-forget).
    JumpTo(u64),
    /// Hand back up to `max` queued-but-not-started jobs for migration.
    /// Replies `Reply::Reclaimed`.
    Reclaim { max: usize },
    /// Exit the worker loop (the dispatcher joins the thread after).
    Finish,
}

/// Worker → dispatcher replies.
enum Reply {
    Stepped {
        departed: Vec<JobRecord>,
        live: usize,
        now: u64,
        timeslices: u64,
        /// Cumulative timeslices the shard synthesized via fast-sim
        /// extrapolation (0 when fast-sim is off).
        extrapolated: u64,
        /// The shard's learner state summary (`None` when learning is
        /// disabled on the shard).
        learn: Option<LearnSummary>,
    },
    Reclaimed(Vec<JobArrival>),
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
    #[serde(default, skip_serializing_if = "Option::is_none")]
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
// Dispatcher-side mirror state
// ---------------------------------------------------------------------------

/// What the dispatcher knows about one shard without asking it: a mirror
/// maintained from its own dispatch decisions and the worker's replies.
struct ShardMirror {
    /// Jobs believed resident (dispatched or migrated in, minus departures
    /// and reclaims). Order is submission order; used for symbiosis scoring.
    resident: Vec<JobArrival>,
    /// Authoritative live count from the last `Stepped` reply (equals
    /// `resident.len()` at round boundaries).
    depth: usize,
    submitted: usize,
    migrated_in: usize,
    migrated_out: usize,
    completed: u64,
    timeslices: u64,
    extrapolated: u64,
    now: u64,
    /// Departure records, accumulated for the report.
    records: Vec<JobRecord>,
    /// Last learner summary reported by the shard (`None` when learning
    /// is off).
    learn: Option<LearnSummary>,
}

impl ShardMirror {
    fn new() -> Self {
        ShardMirror {
            resident: Vec::new(),
            depth: 0,
            submitted: 0,
            migrated_in: 0,
            migrated_out: 0,
            completed: 0,
            timeslices: 0,
            extrapolated: 0,
            now: 0,
            records: Vec::new(),
            learn: None,
        }
    }

    /// Drops one resident entry matching a departed/reclaimed job.
    fn remove_resident(&mut self, arrival: &JobArrival) {
        if let Some(pos) = self.resident.iter().position(|a| a == arrival) {
            self.resident.remove(pos);
        }
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

/// Cluster-level metric handles (per-shard gauges + cluster counters),
/// resolved once from the cluster's [`Telemetry`] handle.
struct ClusterMetrics {
    shard_depth: Vec<Arc<Gauge>>,
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

    fn register(tel: &Telemetry, shards: usize, window_cycles: u64) -> Self {
        tel.register_histogram(Self::RESPONSE, window_cycles, 8);
        tel.register_histogram(Self::SLOWDOWN, window_cycles, 8);
        let per_shard = |series: &str| -> Vec<Arc<Gauge>> {
            (0..shards)
                .map(|s| tel.gauge(&format!("cluster.shard{s}.{series}")))
                .collect()
        };
        ClusterMetrics {
            shard_depth: per_shard("queue_depth"),
            shard_now: per_shard("now_cycles"),
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

/// One shard worker: its command channel, reply channel, and thread handle.
struct ShardHandle {
    cmd: mpsc::Sender<Cmd>,
    reply: mpsc::Receiver<Reply>,
    thread: Option<JoinHandle<()>>,
}

/// The two-level cluster scheduler: a dispatcher over N per-core
/// [`OnlineEngine`] shards. Mirrors the engine's facade —
/// [`submit`](Self::submit) / [`step`](Self::step) /
/// [`jump_to`](Self::jump_to) / [`drain`](Self::drain) — so existing
/// drivers scale out by swapping the type.
pub struct ClusterEngine {
    cfg: ClusterConfig,
    shards: Vec<ShardHandle>,
    mirror: Vec<ShardMirror>,
    now: u64,
    rounds: u64,
    submitted: usize,
    completed: u64,
    migrations: u64,
    rr_next: usize,
    /// Completed-job samples for the report: (response, slowdown).
    samples: Vec<(u64, f64)>,
    /// Solo IPC per benchmark (for slowdown and weighted-speedup
    /// accounting; unknown benchmarks fall back to IPC 1.0).
    solo_ipc: HashMap<Benchmark, f64>,
    /// The dispatcher's handle (shards hold children of it) and the metric
    /// handles resolved from it (`None` while it is off).
    tel: Telemetry,
    metrics: Option<ClusterMetrics>,
}

impl ClusterEngine {
    /// Spawns the shard workers and builds the dispatcher.
    ///
    /// # Panics
    /// Panics on an invalid configuration (zero shards or zero
    /// `slices_per_round`), or if a worker thread cannot be spawned.
    pub fn new(cfg: &ClusterConfig) -> Self {
        Self::with_telemetry(cfg, &Telemetry::off())
    }

    /// Like [`new`](Self::new), reporting to `tel`: cluster-wide series and
    /// response/slowdown histograms (windowed by the shard `base_interval`)
    /// plus `cluster.migration` instants on the dispatcher's own handle, and
    /// one child handle per shard — prefix `cluster.shard<i>`, carrying that
    /// shard's engine series, clock and event buffer. Draining `tel` yields
    /// the dispatcher's events followed by each shard's in shard order.
    pub fn with_telemetry(cfg: &ClusterConfig, tel: &Telemetry) -> Self {
        cfg.validate();
        let metrics = tel
            .is_on()
            .then(|| ClusterMetrics::register(tel, cfg.shards, cfg.shard.base_interval.max(1) * 4));
        let mut shards = Vec::with_capacity(cfg.shards);
        for s in 0..cfg.shards {
            let mut shard_cfg = cfg.shard.clone();
            shard_cfg.seed ^= s as u64;
            let scheduler = cfg.scheduler;
            let shard_tel = tel.child(&format!("cluster.shard{s}"));
            let (cmd_tx, cmd_rx) = mpsc::channel::<Cmd>();
            let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
            let thread = std::thread::Builder::new()
                .name(format!("sos-shard-{s}"))
                .spawn(move || shard_worker(scheduler, shard_cfg, shard_tel, cmd_rx, reply_tx))
                .expect("spawn shard worker");
            shards.push(ShardHandle {
                cmd: cmd_tx,
                reply: reply_rx,
                thread: Some(thread),
            });
        }
        ClusterEngine {
            cfg: cfg.clone(),
            mirror: (0..cfg.shards).map(|_| ShardMirror::new()).collect(),
            shards,
            now: 0,
            rounds: 0,
            submitted: 0,
            completed: 0,
            migrations: 0,
            rr_next: 0,
            samples: Vec::new(),
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

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The cluster clock (every shard's clock at the last round boundary).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Jobs currently resident across all shards.
    pub fn live_count(&self) -> usize {
        self.mirror.iter().map(|m| m.depth).sum()
    }

    /// Jobs submitted to the cluster over its lifetime.
    pub fn submitted(&self) -> usize {
        self.submitted
    }

    /// Jobs completed across all shards.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Jobs migrated between shards by rebalancing.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Queue depth of each shard (dispatcher mirror, exact at round
    /// boundaries).
    pub fn shard_depths(&self) -> Vec<usize> {
        self.mirror.iter().map(|m| m.depth).collect()
    }

    /// Admits a job, routing it to a shard under the dispatch policy, and
    /// returns the chosen shard index.
    pub fn submit(&mut self, arrival: JobArrival) -> usize {
        let shard = self.pick_shard(&arrival);
        self.submitted += 1;
        self.dispatch_to(shard, arrival);
        if let Some(m) = &self.metrics {
            m.submitted.inc();
        }
        shard
    }

    /// Routes `arrival` to `shard`, updating the mirror.
    fn dispatch_to(&mut self, shard: usize, arrival: JobArrival) {
        let m = &mut self.mirror[shard];
        m.submitted += 1;
        m.depth += 1;
        m.resident.push(arrival.clone());
        if let Some(cm) = &self.metrics {
            cm.shard_depth[shard].set(m.depth as f64);
        }
        self.shards[shard]
            .cmd
            .send(Cmd::Submit(arrival))
            .expect("shard worker alive");
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
                .mirror
                .iter()
                .enumerate()
                .min_by_key(|(_, m)| m.resident.len())
                .map(|(s, _)| s)
                .unwrap_or(0),
            DispatchPolicy::Symbiosis => {
                let mut best = 0usize;
                let mut best_score = f64::INFINITY;
                for (s, m) in self.mirror.iter().enumerate() {
                    let score = symbiosis_score(arrival, &m.resident);
                    if score < best_score {
                        best_score = score;
                        best = s;
                    }
                }
                best
            }
        }
    }

    /// Runs one cluster round: every shard advances `slices_per_round`
    /// timeslices (idle shards jump to the round boundary), departures are
    /// collected in shard order, and rebalancing runs on schedule. Returns
    /// the departed jobs. A round with no live jobs anywhere is a no-op
    /// (use [`jump_to`](Self::jump_to) for idle gaps), mirroring
    /// [`OnlineEngine::step`].
    pub fn step(&mut self) -> Vec<JobRecord> {
        if self.live_count() == 0 {
            return Vec::new();
        }
        let target = self.now + self.cfg.slices_per_round * self.cfg.shard.timeslice;
        for h in &self.shards {
            h.cmd
                .send(Cmd::Step {
                    slices: self.cfg.slices_per_round,
                    target,
                })
                .expect("shard worker alive");
        }
        let mut departed = Vec::new();
        for s in 0..self.shards.len() {
            match self.shards[s].reply.recv().expect("shard worker alive") {
                Reply::Stepped {
                    departed: d,
                    live,
                    now,
                    timeslices,
                    extrapolated,
                    learn,
                } => {
                    let m = &mut self.mirror[s];
                    m.depth = live;
                    m.now = now;
                    m.timeslices = timeslices;
                    m.extrapolated = extrapolated;
                    m.learn = learn;
                    m.completed += d.len() as u64;
                    for rec in &d {
                        m.remove_resident(&rec.arrival);
                        m.records.push(rec.clone());
                    }
                    if let Some(cm) = &self.metrics {
                        cm.shard_depth[s].set(live as f64);
                        cm.shard_now[s].set(now as f64);
                    }
                    departed.extend(d);
                }
                _ => panic!("shard {s}: unexpected reply to Step"),
            }
        }
        self.now = target;
        self.rounds += 1;
        self.completed += departed.len() as u64;
        for rec in &departed {
            let solo = self.solo_cycles(&rec.arrival);
            let slowdown = rec.response() as f64 / solo.max(1.0);
            self.samples.push((rec.response(), slowdown));
            if let Some(cm) = &self.metrics {
                cm.completed.inc();
                self.tel
                    .histogram_record(ClusterMetrics::RESPONSE, self.now, rec.response());
                self.tel.histogram_record(
                    ClusterMetrics::SLOWDOWN,
                    self.now,
                    (slowdown * 100.0).round() as u64,
                );
            }
        }
        if let Some(cm) = &self.metrics {
            cm.rounds.inc();
            if !self.samples.is_empty() {
                cm.aggregate_ws.set(self.aggregate_ws());
            }
        }
        if self.cfg.rebalance_every > 0 && self.rounds.is_multiple_of(self.cfg.rebalance_every) {
            self.rebalance();
        }
        departed
    }

    /// Solo-execution cycles of a job at its benchmark's solo IPC.
    fn solo_cycles(&self, arrival: &JobArrival) -> f64 {
        let ipc = self
            .solo_ipc
            .get(&arrival.benchmark)
            .copied()
            .unwrap_or(1.0);
        arrival.instructions as f64 / ipc.max(1e-9)
    }

    /// Migrates queued-but-not-started jobs from the deepest to the
    /// shallowest shard when the gap reaches the steal threshold. Symbiosis
    /// dispatch re-scores each migrant (it may beat the shallowest shard's
    /// score elsewhere); the baseline policies send migrants straight to
    /// the shallowest shard.
    fn rebalance(&mut self) {
        let Some((deep, _)) = self
            .mirror
            .iter()
            .enumerate()
            .max_by_key(|(_, m)| m.depth)
            .map(|(s, m)| (s, m.depth))
        else {
            return;
        };
        let shallow = self
            .mirror
            .iter()
            .enumerate()
            .min_by_key(|(_, m)| m.depth)
            .map(|(s, _)| s)
            .unwrap_or(0);
        let gap = self.mirror[deep].depth - self.mirror[shallow].depth;
        if deep == shallow || gap < self.cfg.steal_threshold.max(2) {
            return;
        }
        let want = gap / 2;
        self.shards[deep]
            .cmd
            .send(Cmd::Reclaim { max: want })
            .expect("shard worker alive");
        let taken = match self.shards[deep].reply.recv().expect("shard worker alive") {
            Reply::Reclaimed(t) => t,
            _ => panic!("shard {deep}: unexpected reply to Reclaim"),
        };
        if taken.is_empty() {
            return;
        }
        let n = taken.len();
        self.tel.set_clock(self.now);
        self.mirror[deep].depth -= n;
        self.mirror[deep].migrated_out += n;
        self.mirror[deep].submitted -= n; // re-counted at the destination
        for arrival in taken {
            self.mirror[deep].remove_resident(&arrival);
            let dest = match self.cfg.dispatch {
                DispatchPolicy::Symbiosis => {
                    // Re-score everywhere except the source.
                    let mut best = shallow;
                    let mut best_score = f64::INFINITY;
                    for (s, m) in self.mirror.iter().enumerate() {
                        if s == deep {
                            continue;
                        }
                        let score = symbiosis_score(&arrival, &m.resident);
                        if score < best_score {
                            best_score = score;
                            best = s;
                        }
                    }
                    best
                }
                _ => shallow,
            };
            self.mirror[dest].migrated_in += 1;
            self.tel.instant("cluster", "cluster.migration", || {
                vec![
                    Attr::num("from", deep as f64),
                    Attr::num("to", dest as f64),
                    Attr::text("benchmark", format!("{:?}", arrival.benchmark)),
                ]
            });
            self.dispatch_to(dest, arrival);
            self.migrations += 1;
            if let Some(cm) = &self.metrics {
                cm.migrations.inc();
            }
        }
        if let Some(cm) = &self.metrics {
            cm.shard_depth[deep].set(self.mirror[deep].depth as f64);
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
        for (s, h) in self.shards.iter().enumerate() {
            h.cmd.send(Cmd::JumpTo(t)).expect("shard worker alive");
            self.mirror[s].now = t;
            if let Some(cm) = &self.metrics {
                cm.shard_now[s].set(t as f64);
            }
        }
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

    /// Cluster-wide weighted speedup so far: solo-equivalent cycles of
    /// completed work per busy machine cycle across all shards.
    pub fn aggregate_ws(&self) -> f64 {
        let solo_total: f64 = self
            .mirror
            .iter()
            .flat_map(|m| m.records.iter())
            .map(|r| self.solo_cycles(&r.arrival))
            .sum();
        let busy: u64 = self
            .mirror
            .iter()
            .map(|m| m.timeslices * self.cfg.shard.timeslice)
            .sum();
        if busy == 0 {
            0.0
        } else {
            solo_total / busy as f64
        }
    }

    /// Builds the deterministic cluster report (syncs final per-shard
    /// totals from the workers first; the engine remains usable after).
    pub fn report(&mut self) -> ClusterReport {
        // Refresh authoritative per-shard totals with a zero-slice step
        // round (a no-op for the simulation: zero slices, target = now).
        for h in &self.shards {
            h.cmd
                .send(Cmd::Step {
                    slices: 0,
                    target: self.now,
                })
                .expect("shard worker alive");
        }
        for s in 0..self.shards.len() {
            if let Reply::Stepped {
                live,
                now,
                timeslices,
                extrapolated,
                learn,
                ..
            } = self.shards[s].reply.recv().expect("shard worker alive")
            {
                let m = &mut self.mirror[s];
                m.depth = live;
                m.now = now;
                m.timeslices = timeslices;
                m.extrapolated = extrapolated;
                m.learn = learn;
            }
        }
        let per_shard: Vec<ShardReport> = self
            .mirror
            .iter()
            .enumerate()
            .map(|(s, m)| ShardReport {
                shard: s,
                seed: self.cfg.shard.seed ^ s as u64,
                submitted: m.submitted,
                migrated_in: m.migrated_in,
                migrated_out: m.migrated_out,
                completed: m.completed,
                timeslices: m.timeslices,
                extrapolated_slices: m.extrapolated,
                now_cycles: m.now,
                final_queue_depth: m.depth,
                records: m.records.clone(),
                learn: m.learn.clone(),
            })
            .collect();
        let responses: Vec<f64> = self.samples.iter().map(|(r, _)| *r as f64).collect();
        let slowdowns: Vec<f64> = self.samples.iter().map(|(_, s)| *s).collect();
        ClusterReport {
            shards: self.cfg.shards,
            dispatch: self.cfg.dispatch.name().to_string(),
            scheduler: self.cfg.scheduler.name().to_string(),
            seed: self.cfg.shard.seed,
            now_cycles: self.now,
            submitted: self.submitted,
            completed: self.completed,
            migrations: self.migrations,
            timeslices: per_shard.iter().map(|p| p.timeslices).sum(),
            extrapolated_slices: per_shard.iter().map(|p| p.extrapolated_slices).sum(),
            fastsim: self.cfg.shard.fastsim.as_ref().map(|p| p.describe()),
            aggregate_ws: self.aggregate_ws(),
            response: percentiles(&responses),
            slowdown: percentiles(&slowdowns),
            per_shard,
        }
    }
}

impl Drop for ClusterEngine {
    fn drop(&mut self) {
        for h in &mut self.shards {
            // The worker may already be gone (panic elsewhere); ignore
            // send/join failures during teardown.
            let _ = h.cmd.send(Cmd::Finish);
        }
        for h in &mut self.shards {
            if let Some(t) = h.thread.take() {
                let _ = t.join();
            }
        }
    }
}

/// The shard worker loop: builds the engine locally (it is not `Send`) and
/// serves dispatcher commands until `Finish`.
fn shard_worker(
    kind: SchedulerKind,
    cfg: OnlineConfig,
    tel: Telemetry,
    cmd: mpsc::Receiver<Cmd>,
    reply: mpsc::Sender<Reply>,
) {
    let mut engine = OnlineEngine::new(kind, &cfg);
    engine.set_telemetry(tel);
    while let Ok(c) = cmd.recv() {
        match c {
            Cmd::Submit(arrival) => {
                engine.submit(arrival);
            }
            Cmd::Step { slices, target } => {
                let mut departed = Vec::new();
                for _ in 0..slices {
                    if engine.live_count() == 0 {
                        break;
                    }
                    departed.extend(engine.step());
                }
                // Land exactly on the round boundary whether we ran all
                // slices, idled early, or were empty all along.
                engine.jump_to(target);
                let r = Reply::Stepped {
                    departed,
                    live: engine.live_count(),
                    now: engine.now(),
                    timeslices: engine.timeslices(),
                    extrapolated: engine
                        .fastsim_counters()
                        .map(|c| c.extrapolated_slices)
                        .unwrap_or(0),
                    learn: engine.learn_summary(),
                };
                if reply.send(r).is_err() {
                    break;
                }
            }
            Cmd::JumpTo(t) => engine.jump_to(t),
            Cmd::Reclaim { max } => {
                let taken = engine.reclaim_unstarted(max);
                if reply.send(Reply::Reclaimed(taken)).is_err() {
                    break;
                }
            }
            Cmd::Finish => break,
        }
    }
}

/// Replays an arrival trace through a cluster with the canonical
/// open-system discipline (submit arrivals that are due, step when busy,
/// jump across idle gaps), then drains. Returns all departures in
/// round/shard order. The cluster-side twin of
/// [`crate::opensys::run_open_system_on_trace`].
pub fn run_cluster_on_trace(
    engine: &mut ClusterEngine,
    jobs: &[JobArrival],
    max_rounds: u64,
) -> Vec<JobRecord> {
    let mut next = 0usize;
    let mut departed = Vec::new();
    let mut rounds = 0u64;
    while (next < jobs.len() || engine.live_count() > 0) && rounds < max_rounds {
        while next < jobs.len() && jobs[next].arrival <= engine.now() {
            engine.submit(jobs[next].clone());
            next += 1;
        }
        if engine.live_count() == 0 {
            if next < jobs.len() {
                engine.jump_to(jobs[next].arrival);
            }
            continue;
        }
        departed.extend(engine.step());
        rounds += 1;
    }
    departed.extend(engine.drain(max_rounds));
    departed
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
            learn: None,
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
    fn rebalancing_steals_from_deep_to_shallow() {
        let shard = shard_cfg(11);
        let mut cfg =
            ClusterConfig::new(2, DispatchPolicy::RoundRobin, SchedulerKind::Naive, shard);
        cfg.rebalance_every = 1;
        cfg.steal_threshold = 2;
        let mut c = ClusterEngine::new(&cfg);
        // Pile every job onto shard 0 by hand to force an imbalance.
        for i in 0..8 {
            c.submitted += 1;
            c.dispatch_to(0, job(0, Benchmark::Gcc, 50_000 + i * 1_000));
        }
        let done = c.drain(1_000_000);
        assert_eq!(done.len(), 8, "every job completes despite migration");
        assert!(c.migrations() > 0, "imbalance must trigger stealing");
        let report = c.report();
        let migrated_out: usize = report.per_shard.iter().map(|p| p.migrated_out).sum();
        let migrated_in: usize = report.per_shard.iter().map(|p| p.migrated_in).sum();
        assert_eq!(migrated_out, migrated_in, "migration conserves jobs");
        assert_eq!(report.migrations as usize, migrated_in);
    }
}

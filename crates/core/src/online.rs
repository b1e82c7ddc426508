//! The event-driven online scheduling engine behind both the batch open
//! system ([`crate::opensys`]) and the `sos-serve` daemon.
//!
//! The §9 open-system loop used to live inline in `opensys.rs`, welded to a
//! pre-generated arrival trace. This module factors it into an
//! [`OnlineEngine`] driven by *events*: job submissions ([`OnlineEngine::submit`]),
//! timeslice ticks ([`OnlineEngine::step`]), and idle fast-forwards
//! ([`OnlineEngine::jump_to`]). The batch simulation replays an
//! [`crate::arrivals::ArrivalTrace`] through the engine; a long-running
//! service feeds it submissions as they arrive over the wire. Both paths run
//! the exact same scheduler state machine — naive arrival-order rotation, or
//! SOS with resampling on every arrival/departure/timer expiry, exponential
//! backoff, and optional drift-triggered resampling.
//!
//! Determinism: given the same configuration and the same sequence of
//! `submit`/`step`/`jump_to` calls, the engine's behaviour (including its
//! RNG draws for candidate schedules) is byte-identical across runs.

use crate::arrivals::JobArrival;
use crate::learn::{self, LearnConfig, LearnSummary, Learner};
use crate::predictor::PredictorKind;
use crate::sample::ScheduleSample;
use crate::schedule::Schedule;
use crate::telemetry::{Attr, Counter, Gauge, Telemetry, TelemetryObserver};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use smtsim::fastsim::{FastSim, FastSimCounters, FastSimEvent, FastSimPolicy};
use smtsim::trace::{InstructionSource, StreamId};
use smtsim::{MachineConfig, Processor, TimesliceStats};
use std::sync::Arc;
use workloads::phased::{fp_int_alternator, PhasedStream};
use workloads::synth::SyntheticStream;

/// Which scheduler drives the system.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Coschedule in arrival order ("random, or naive").
    Naive,
    /// Sample-Optimize-Symbios.
    Sos,
}

impl SchedulerKind {
    /// Parses a policy name (`"naive"` / `"sos"`, case-insensitive).
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "naive" => Some(SchedulerKind::Naive),
            "sos" => Some(SchedulerKind::Sos),
            _ => None,
        }
    }

    /// The lowercase policy name.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::Naive => "naive",
            SchedulerKind::Sos => "sos",
        }
    }
}

/// One completed job.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// The arrival it came from.
    pub arrival: JobArrival,
    /// Completion time in cycles.
    pub departure: u64,
}

impl JobRecord {
    /// Response time (arrival to departure).
    pub fn response(&self) -> u64 {
        self.departure - self.arrival.arrival
    }
}

/// Engine configuration: the scheduler-facing subset of
/// [`crate::opensys::OpenSystemConfig`], decoupled from trace generation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OnlineConfig {
    /// Hardware contexts (the SMT level).
    pub smt: usize,
    /// Scheduler clock in cycles.
    pub timeslice: u64,
    /// Schedules sampled per SOS sample phase.
    pub sample_schedules: usize,
    /// Predictor SOS uses.
    pub predictor: PredictorKind,
    /// Optional execution-drift trigger (see
    /// [`crate::opensys::OpenSystemConfig::drift_threshold`]).
    pub drift_threshold: Option<f64>,
    /// Base symbiosis interval (the paper reverts the symbios-phase duration
    /// to λ on every mix change; a service without a known λ picks a
    /// configured interval).
    pub base_interval: u64,
    /// RNG seed for candidate-schedule draws and per-job stream seeds.
    pub seed: u64,
    /// Phase-aware fast-forward simulation ([`smtsim::fastsim`]): when set,
    /// stable coschedule phases are extrapolated instead of simulated in
    /// detail. `None` (the default, and what old snapshots deserialize to)
    /// is full detail — byte-identical with builds that predate the field.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub fastsim: Option<FastSimPolicy>,
    /// Learned-prediction configuration ([`crate::learn`]). `None` (the
    /// default, and what old configs deserialize to) disables learning
    /// unless `predictor` itself is `Learned`/`Bandit`, in which case a
    /// learner is created with defaults and a seed derived from `seed`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub learn: Option<LearnConfig>,
}

impl OnlineConfig {
    fn validate(&self) {
        assert!(
            self.smt > 0 && self.timeslice > 0 && self.base_interval > 0,
            "bad online configuration"
        );
    }

    /// The effective learner configuration: `learn` when set, or — when the
    /// predictor itself is a learned kind — defaults with a seed derived
    /// from the engine seed (so distinct shards learn on distinct
    /// exploration streams).
    pub fn effective_learn(&self) -> Option<LearnConfig> {
        match self.learn {
            Some(lc) => Some(lc),
            None if self.predictor.is_learned() => Some(LearnConfig {
                seed: self.seed ^ 0x1ea51,
                ..LearnConfig::default()
            }),
            None => None,
        }
    }
}

/// The instruction stream of a live job.
#[allow(clippy::large_enum_variant)] // a handful of live jobs at a time
enum JobStream {
    Steady(SyntheticStream),
    Phased(PhasedStream),
}

impl JobStream {
    fn is_finished(&self) -> bool {
        match self {
            JobStream::Steady(s) => s.is_finished(),
            JobStream::Phased(s) => s.is_finished(),
        }
    }
}

impl InstructionSource for JobStream {
    fn next_instr(&mut self) -> smtsim::trace::Fetch {
        match self {
            JobStream::Steady(s) => s.next_instr(),
            JobStream::Phased(s) => s.next_instr(),
        }
    }
    fn id(&self) -> StreamId {
        match self {
            JobStream::Steady(s) => s.id(),
            JobStream::Phased(s) => s.id(),
        }
    }
    fn skip_instructions(&mut self, n: u64) {
        match self {
            JobStream::Steady(s) => s.skip_instructions(n),
            JobStream::Phased(s) => s.skip_instructions(n),
        }
    }
}

/// A live job in the system.
struct LiveJob {
    key: usize, // submission index, stable for the engine's lifetime
    arrival: JobArrival,
    stream: JobStream,
    /// Whether the job has been coscheduled at least once (closes its
    /// queue-wait trace span on the first slice it runs).
    scheduled_once: bool,
}

impl LiveJob {
    fn finished(&self) -> bool {
        self.stream.is_finished()
    }
}

/// The scheduler's mode.
#[allow(clippy::large_enum_variant)] // one Mode per engine; size is irrelevant
enum Mode {
    /// Rotate over arrival order (the naive control, and SOS when all jobs
    /// fit on the machine).
    Rotate,
    /// SOS sample phase: profiling candidate orders one rotation each.
    Sampling {
        candidates: Vec<Vec<usize>>, // circular orders of live-job keys
        current: usize,
        slice_in_rotation: usize,
        collected: Vec<Vec<TimesliceStats>>,
    },
    /// SOS symbios phase: running the chosen order until the timer expires
    /// (or execution drifts from the sampled prediction).
    Symbios {
        order: Vec<usize>,
        until: u64,
        /// Aggregate IPC the chosen schedule showed in the sample phase.
        predicted_ipc: f64,
        /// Consecutive slices whose IPC deviated beyond the drift threshold.
        drift_streak: u32,
    },
}

/// Full scheduler state.
struct SchedulerState {
    kind: SchedulerKind,
    mode: Mode,
    slice: usize,
    /// Current symbiosis interval (doubles under backoff).
    interval: u64,
    /// The previous symbios pick, for backoff comparison.
    last_pick: Option<Vec<usize>>,
    /// Whether the current sample phase was triggered by a timer (a repeat
    /// prediction then doubles the interval) rather than a mix change.
    timer_triggered: bool,
}

impl SchedulerState {
    fn new(kind: SchedulerKind, interval: u64) -> Self {
        SchedulerState {
            kind,
            mode: Mode::Rotate,
            slice: 0,
            interval,
            last_pick: None,
            timer_triggered: false,
        }
    }
}

/// An unsettled bandit pull: the symbios phase the pulled arm chose is
/// still running, and its realized reward is only known once the phase
/// ends. IPC accumulates per symbios slice; the next replan settles the
/// pull against the sample-phase baseline.
struct PendingLearn {
    /// The pulled arm index (in [`learn::arms`] order).
    arm: usize,
    /// Bandit context at pull time.
    context: String,
    /// Mean sampled IPC across the candidates (the oblivious baseline).
    baseline: f64,
    /// Best sampled IPC among the candidates (the best-arm proxy).
    best_proxy: f64,
    /// Sum of symbios-slice total IPCs since the pull.
    ipc_sum: f64,
    /// Symbios slices accumulated.
    slices: u64,
}

/// The learner plumbing threaded through [`advance_after_slice`]: the
/// engine's optional learner, the unsettled bandit pull, and the bandit
/// context of the current jobmix.
struct LearnHooks<'a> {
    learner: Option<&'a mut Learner>,
    pending: &'a mut Option<PendingLearn>,
    context: &'a str,
}

/// Metric handles resolved once in [`OnlineEngine::set_telemetry`], so the
/// per-timeslice cost of a live handle is a few relaxed atomic writes — no
/// name formatting, map lookup or lock.
///
/// Series families: under a root handle the engine books `engine.*`,
/// `opensys.*` and (with a learner) `learn.*`. Under a child handle the
/// child's prefix stands in for `engine` (`cluster.shard0.timeslices`) and
/// scopes the other two (`cluster.shard0.opensys.*`,
/// `cluster.shard0.learn.*`).
struct Probes {
    /// Timeslices simulated, and the scheduler mode each ran in.
    timeslices: Arc<Counter>,
    sampling_slices: Arc<Counter>,
    symbios_slices: Arc<Counter>,
    rotate_slices: Arc<Counter>,
    /// Predictor decisions at sample-phase ends, and those that repeated
    /// the previous pick.
    predictor_picks: Arc<Counter>,
    repeat_picks: Arc<Counter>,
    /// Sample phases entered.
    resamples: Arc<Counter>,
    /// Fast-sim: slices synthesized by extrapolation, detail → extrapolation
    /// locks, drift fallbacks, and moderate-drift resyncs (all 0 with
    /// fast-sim off).
    extrapolated_slices: Arc<Counter>,
    fastsim_phase_locks: Arc<Counter>,
    fastsim_fallbacks: Arc<Counter>,
    fastsim_resyncs: Arc<Counter>,
    /// Jobs in the system, and jobs coscheduled in the latest timeslice.
    queue_depth: Arc<Gauge>,
    running: Arc<Gauge>,
    /// `opensys.{arrivals,departures,backoffs}`.
    arrivals: Arc<Counter>,
    departures: Arc<Counter>,
    backoffs: Arc<Counter>,
    /// Name of the `opensys.response_cycles` histogram. Histograms sit
    /// behind the registry lock, so it is recorded only alongside events.
    response_cycles: String,
    learn: Option<LearnProbes>,
}

/// The `learn.*` family: regressor training/prediction counters, error EWMA,
/// bandit regret, and one pull counter per arm in [`learn::arms`] order.
struct LearnProbes {
    train_updates: Arc<Counter>,
    predictions: Arc<Counter>,
    pred_err_ewma: Arc<Gauge>,
    bandit_regret: Arc<Gauge>,
    bandit_pulls: Arc<Counter>,
    arm_pulls: Vec<Arc<Counter>>,
}

impl Probes {
    fn resolve(tel: &Telemetry, learner: bool) -> Self {
        let family = |name: &str| match tel.prefix() {
            Some(p) if name == "engine" => p.to_string(),
            Some(p) => format!("{p}.{name}"),
            None => name.to_string(),
        };
        let (engine, opensys, learn) = (family("engine"), family("opensys"), family("learn"));
        let counter = |family: &str, series: &str| tel.counter(&format!("{family}.{series}"));
        let gauge = |family: &str, series: &str| tel.gauge(&format!("{family}.{series}"));
        Probes {
            timeslices: counter(&engine, "timeslices"),
            sampling_slices: counter(&engine, "sampling_slices"),
            symbios_slices: counter(&engine, "symbios_slices"),
            rotate_slices: counter(&engine, "rotate_slices"),
            predictor_picks: counter(&engine, "predictor_picks"),
            repeat_picks: counter(&engine, "repeat_picks"),
            resamples: counter(&engine, "resamples"),
            extrapolated_slices: counter(&engine, "extrapolated_slices"),
            fastsim_phase_locks: counter(&engine, "fastsim_phase_locks"),
            fastsim_fallbacks: counter(&engine, "fastsim_fallbacks"),
            fastsim_resyncs: counter(&engine, "fastsim_resyncs"),
            queue_depth: gauge(&engine, "queue_depth"),
            running: gauge(&engine, "running"),
            arrivals: counter(&opensys, "arrivals"),
            departures: counter(&opensys, "departures"),
            backoffs: counter(&opensys, "backoffs"),
            response_cycles: format!("{opensys}.response_cycles"),
            learn: learner.then(|| LearnProbes {
                train_updates: counter(&learn, "train_updates"),
                predictions: counter(&learn, "predictions"),
                pred_err_ewma: gauge(&learn, "pred_err_ewma"),
                bandit_regret: gauge(&learn, "bandit_regret"),
                bandit_pulls: counter(&learn, "bandit_pulls"),
                arm_pulls: learn::arms()
                    .iter()
                    .map(|p| {
                        counter(
                            &learn,
                            &format!("arm.{}.pulls", p.name().to_ascii_lowercase()),
                        )
                    })
                    .collect(),
            }),
        }
    }
}

impl LearnProbes {
    /// Syncs the series from a learner summary (counters are raised to the
    /// summary's absolute values, so syncing is idempotent per summary).
    fn sync(&self, summary: &LearnSummary) {
        self.train_updates.raise_to(summary.train_updates);
        self.predictions.raise_to(summary.predictions);
        self.bandit_pulls.raise_to(summary.bandit_pulls);
        self.pred_err_ewma.set(summary.err_ewma);
        self.bandit_regret.set(summary.bandit_regret);
        for (handle, (_, pulls, _)) in self.arm_pulls.iter().zip(&summary.arms) {
            handle.raise_to(*pulls);
        }
    }
}

/// The event-driven online scheduling engine.
///
/// Lifecycle: [`submit`](Self::submit) jobs (at the engine's current time or
/// later per their `arrival` stamp), [`step`](Self::step) to run one
/// timeslice and collect departures, [`jump_to`](Self::jump_to) to
/// fast-forward across idle gaps. See the module docs for how the batch
/// open system and the `sos-serve` daemon drive it.
pub struct OnlineEngine {
    cfg: OnlineConfig,
    cpu: Processor,
    rng: SmallRng,
    now: u64,
    live: Vec<LiveJob>,
    state: SchedulerState,
    next_key: usize,
    completed: u64,
    population_cycles: u128,
    resamples: u64,
    timeslices: u64,
    /// Queued-but-not-started jobs handed back via
    /// [`reclaim_unstarted`](Self::reclaim_unstarted) (cluster migration).
    reclaimed: usize,
    pending_mix_change: bool,
    /// Phase detector + extrapolator (`cfg.fastsim`); `None` runs every
    /// slice through the detailed model, leaving output byte-identical with
    /// pre-fast-sim builds.
    fastsim: Option<FastSim>,
    /// The handle this engine reports to ([`Telemetry::off`] until
    /// [`set_telemetry`](Self::set_telemetry)), and the metric handles
    /// resolved from it (`None` while it is off: one branch per probe).
    tel: Telemetry,
    probes: Option<Probes>,
    /// Online learner ([`crate::learn`]): present when `cfg.learn` is set
    /// or the predictor is `Learned`/`Bandit`. `None` (the default) keeps
    /// every existing run byte-identical.
    learner: Option<Learner>,
    /// The bandit pull awaiting settlement, if any.
    pending_learn: Option<PendingLearn>,
}

impl OnlineEngine {
    /// Builds an engine on a fresh Alpha-21264-like machine at the
    /// configured SMT level.
    ///
    /// # Panics
    /// Panics if `cfg.smt == 0`, `cfg.timeslice == 0`, or
    /// `cfg.base_interval == 0`.
    pub fn new(kind: SchedulerKind, cfg: &OnlineConfig) -> Self {
        cfg.validate();
        let cpu = Processor::new(MachineConfig::alpha21264_like(cfg.smt));
        let rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5c4ed);
        OnlineEngine {
            cfg: cfg.clone(),
            cpu,
            rng,
            now: 0,
            live: Vec::new(),
            state: SchedulerState::new(kind, cfg.base_interval),
            next_key: 0,
            completed: 0,
            population_cycles: 0,
            resamples: 0,
            timeslices: 0,
            reclaimed: 0,
            pending_mix_change: false,
            fastsim: cfg.fastsim.clone().map(FastSim::new),
            tel: Telemetry::off(),
            probes: None,
            learner: cfg.effective_learn().map(Learner::new),
            pending_learn: None,
        }
    }

    /// Lifetime extrapolated-vs-detailed counters, when fast-sim is on (the
    /// policy itself is `config().fastsim`, fixed at construction).
    pub fn fastsim_counters(&self) -> Option<&FastSimCounters> {
        self.fastsim.as_ref().map(|f| f.counters())
    }

    /// Points the engine at the handle it reports to; the handle's state is
    /// the only observability switch. Off: nothing. Metrics: the `engine.*`,
    /// `opensys.*` and `learn.*` series, written through handles resolved
    /// here. Metrics+events: additionally every simulated timeslice through
    /// the smtsim bridge, scheduler instants on the `opensys` and `fastsim`
    /// tracks, and per-job hierarchical spans — each job gets its own
    /// `job/<id>` track: a `job.lifetime` span wrapping `job.queue_wait`, a
    /// `job.schedule_decision` instant, one `job.timeslice` span per slice
    /// it runs, and a `job.complete` instant.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        if tel.events_on() {
            self.cpu
                .set_observer(Box::new(TelemetryObserver::new(tel.clone())));
        } else {
            self.cpu.clear_observer();
        }
        self.probes = tel
            .is_on()
            .then(|| Probes::resolve(&tel, self.learner.is_some()));
        self.tel = tel;
        if let Some(p) = &self.probes {
            p.queue_depth.set(self.live.len() as f64);
        }
        self.sync_learn_probes();
    }

    fn sync_learn_probes(&self) {
        let learn = self.probes.as_ref().and_then(|p| p.learn.as_ref());
        if let (Some(m), Some(l)) = (learn, &self.learner) {
            m.sync(&l.summary());
        }
    }

    /// The engine's learner, if learning is enabled (serialize it into a
    /// snapshot so a restart keeps the model).
    pub fn learner(&self) -> Option<&Learner> {
        self.learner.as_ref()
    }

    /// Restores learner state from a snapshot, replacing any current model.
    /// Enables learning even when the configuration alone would not (the
    /// snapshot's presence is the signal that this engine was learning).
    pub fn restore_learner(&mut self, learner: Learner) {
        self.learner = Some(learner);
        self.pending_learn = None;
        // Re-resolve: an engine that had no learner has no `learn.*` probes.
        self.set_telemetry(self.tel.clone());
    }

    /// The learner's summary, if learning is enabled.
    pub fn learn_summary(&self) -> Option<LearnSummary> {
        self.learner.as_ref().map(Learner::summary)
    }

    /// Timeslices simulated over the engine's lifetime.
    pub fn timeslices(&self) -> u64 {
        self.timeslices
    }

    /// Which scheduler drives this engine.
    pub fn kind(&self) -> SchedulerKind {
        self.state.kind
    }

    /// The engine's configuration.
    pub fn config(&self) -> &OnlineConfig {
        &self.cfg
    }

    /// Current simulated time in cycles.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Jobs currently in the system.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Jobs submitted over the engine's lifetime.
    pub fn submitted(&self) -> usize {
        self.next_key
    }

    /// Jobs completed over the engine's lifetime.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Jobs reclaimed (migrated away) over the engine's lifetime.
    pub fn reclaimed(&self) -> usize {
        self.reclaimed
    }

    /// Sample phases entered (always 0 for the naive scheduler).
    pub fn resamples(&self) -> u64 {
        self.resamples
    }

    /// Time-averaged number of jobs resident (Little's-law `N`).
    pub fn mean_population(&self) -> f64 {
        self.population_cycles as f64 / self.now.max(1) as f64
    }

    /// The arrival records of the jobs currently in the system (used for
    /// snapshots: an in-flight job is re-queued from this record).
    pub fn live_arrivals(&self) -> Vec<JobArrival> {
        self.live.iter().map(|j| j.arrival.clone()).collect()
    }

    /// Fast-forwards simulated time across an idle gap (no accounting: the
    /// system is empty, so no population or response time accrues). Also
    /// used on restore to resume the clock from a snapshot.
    pub fn jump_to(&mut self, t: u64) {
        self.now = self.now.max(t);
    }

    /// Admits a job into the system and returns its key (the submission
    /// index). The job's `arrival` stamp is used for response-time
    /// accounting; a service submits with `arrival = engine.now()`.
    ///
    /// Scheduling reacts at the next [`step`](Self::step): the mix change is
    /// recorded and triggers a replan (for SOS, a resample) there.
    pub fn submit(&mut self, arrival: JobArrival) -> usize {
        let key = self.next_key;
        self.next_key += 1;
        let phased = if arrival.phased { "true" } else { "false" };
        self.tel.set_clock(self.now);
        self.tel.instant("opensys", "opensys.arrival", || {
            vec![
                Attr::num("job", key as f64),
                Attr::text("benchmark", format!("{:?}", arrival.benchmark)),
                Attr::text("phased", phased),
            ]
        });
        // Full 64-bit key: a long-lived daemon past 2^32 submissions must not
        // reuse a stream identity (truncation made jobs replay other jobs'
        // instruction streams).
        let id = StreamId(key as u64);
        let job_seed = self.cfg.seed ^ (key as u64).wrapping_mul(0x9e37);
        let stream = if arrival.phased {
            // Phase length ~ a handful of timeslices' worth of work, so
            // personalities shift at the granularity resampling can see.
            JobStream::Phased(
                fp_int_alternator(self.cfg.timeslice * 8, id, job_seed)
                    .with_limit(arrival.instructions),
            )
        } else {
            JobStream::Steady(
                SyntheticStream::new(arrival.benchmark.profile(), id, job_seed)
                    .with_limit(arrival.instructions),
            )
        };
        if self.tel.events_on() {
            let track = job_track(key);
            self.tel.span_start(&track, "job.lifetime", || {
                vec![
                    Attr::text("benchmark", format!("{:?}", arrival.benchmark)),
                    Attr::num("instructions", arrival.instructions as f64),
                    Attr::text("phased", phased),
                ]
            });
            self.tel
                .instant(&track, "job.admit", || vec![Attr::num("key", key as f64)]);
            self.tel.span_start(&track, "job.queue_wait", Vec::new);
        }
        self.live.push(LiveJob {
            key,
            arrival,
            stream,
            scheduled_once: false,
        });
        if let Some(p) = &self.probes {
            p.arrivals.inc();
            p.queue_depth.set(self.live.len() as f64);
        }
        self.pending_mix_change = true;
        key
    }

    /// Removes up to `max` queued-but-not-started jobs (newest first) and
    /// returns their arrival records in arrival order, for resubmission
    /// elsewhere. This is the migration primitive of the cluster scheduler:
    /// only jobs that have never run a timeslice are eligible, so no
    /// execution progress is lost and the job can be rebuilt bit-identically
    /// from its [`JobArrival`] on the destination shard.
    ///
    /// Reclaiming counts as a mix change (the next [`step`](Self::step)
    /// replans). Keys are never reused, so [`submitted`](Self::submitted)
    /// still counts the reclaimed jobs; [`reclaimed`](Self::reclaimed)
    /// reports how many left this way.
    pub fn reclaim_unstarted(&mut self, max: usize) -> Vec<JobArrival> {
        if max == 0 || self.live.is_empty() {
            return Vec::new();
        }
        let tracing = self.tel.events_on();
        let mut taken = Vec::new();
        let mut i = self.live.len();
        while i > 0 && taken.len() < max {
            i -= 1;
            if !self.live[i].scheduled_once {
                let job = self.live.remove(i);
                if tracing {
                    self.tel.set_clock(self.now);
                    let track = job_track(job.key);
                    self.tel.span_end(&track, "job.queue_wait");
                    self.tel.instant(&track, "job.reclaimed", Vec::new);
                    self.tel.span_end(&track, "job.lifetime");
                }
                taken.push(job.arrival);
            }
        }
        if !taken.is_empty() {
            taken.reverse();
            self.reclaimed += taken.len();
            self.pending_mix_change = true;
            if let Some(p) = &self.probes {
                p.queue_depth.set(self.live.len() as f64);
            }
        }
        taken
    }

    /// Runs one timeslice: replans if the mix changed since the last step,
    /// honours the symbiosis timer, executes the scheduled tuple, advances
    /// the state machine, and returns the jobs that departed.
    ///
    /// A step with no live jobs is a no-op returning an empty vec (time does
    /// not advance; use [`jump_to`](Self::jump_to) for idle gaps).
    pub fn step(&mut self) -> Vec<JobRecord> {
        if self.live.is_empty() {
            return Vec::new();
        }
        self.tel.set_clock(self.now);
        if self.pending_mix_change {
            self.pending_mix_change = false;
            self.replan(false);
            self.note_sample_phase("arrival", true);
        }
        // Symbios timer (or pending drift trigger)?
        if let Mode::Symbios { until, .. } = &self.state.mode {
            if self.now >= *until && self.live.len() > self.cfg.smt {
                self.replan(true);
                self.note_sample_phase("timer", true);
            }
        }

        // Run one timeslice.
        let tuple_keys = current_tuple(&self.state, &self.cfg, &self.live);
        let tuple_positions: Vec<usize> = tuple_keys
            .iter()
            .filter_map(|k| self.live.iter().position(|j| j.key == *k))
            .collect();
        let mode = mode_name(&self.state.mode);
        let tracing = self.tel.events_on();
        for &pos in &tuple_positions {
            let job = &mut self.live[pos];
            // Mark unconditionally: `scheduled_once` gates migration
            // eligibility (reclaim_unstarted), not just trace spans, so it
            // must be tracked whatever the telemetry state.
            let first_slice = !job.scheduled_once;
            job.scheduled_once = true;
            if tracing {
                let track = job_track(job.key);
                if first_slice {
                    let wait = self.now.saturating_sub(job.arrival.arrival);
                    self.tel.span_end(&track, "job.queue_wait");
                    self.tel.instant(&track, "job.schedule_decision", || {
                        vec![
                            Attr::text("mode", mode),
                            Attr::num("wait_cycles", wait as f64),
                        ]
                    });
                }
                self.tel
                    .span_start(&track, "job.timeslice", || vec![Attr::text("mode", mode)]);
            }
        }
        // Fast-sim: outside the sample phase (whose measurements must be
        // real hardware counters) the slice goes through the fast-sim slice
        // protocol, which may synthesize it; the engine books what happened.
        // With `fastsim: None` this is the one branch the feature costs and
        // output is byte-identical to full detail.
        let sampling = matches!(self.state.mode, Mode::Sampling { .. });
        let mut extrapolated = false;
        let mut refs = tuple_sources(&mut self.live, &tuple_positions);
        let stats = match self.fastsim.as_mut() {
            _ if refs.is_empty() => TimesliceStats {
                cycles: self.cfg.timeslice,
                ..Default::default()
            },
            Some(fs) if !sampling => {
                let slice = fs.run_slice(&mut self.cpu, &mut refs, self.cfg.timeslice);
                extrapolated = slice.extrapolated;
                let (tel, probes) = (&self.tel, self.probes.as_ref());
                match slice.event {
                    Some(FastSimEvent::PhaseLocked { confidence }) => {
                        if let Some(p) = probes {
                            p.fastsim_phase_locks.inc();
                        }
                        tel.instant("fastsim", "fastsim.phase_lock", || {
                            vec![
                                Attr::num("confidence", confidence),
                                Attr::num("tuple_size", tuple_positions.len() as f64),
                            ]
                        });
                    }
                    Some(FastSimEvent::Fallback { deviation }) => {
                        if let Some(p) = probes {
                            p.fastsim_fallbacks.inc();
                        }
                        tel.instant("fastsim", "fastsim.fallback", || {
                            vec![Attr::num("deviation", deviation)]
                        });
                    }
                    Some(FastSimEvent::Resync {
                        deviation,
                        confidence,
                    }) => {
                        if let Some(p) = probes {
                            p.fastsim_resyncs.inc();
                        }
                        tel.instant("fastsim", "fastsim.resync", || {
                            vec![
                                Attr::num("deviation", deviation),
                                Attr::num("confidence", confidence),
                            ]
                        });
                    }
                    Some(FastSimEvent::ResampleOk { .. }) | None => {}
                }
                slice.stats
            }
            _ => self.cpu.run_timeslice(&mut refs, self.cfg.timeslice),
        };
        self.population_cycles += (self.live.len() as u128) * (self.cfg.timeslice as u128);
        self.now += self.cfg.timeslice;
        self.timeslices += 1;
        if tracing {
            self.tel.set_clock(self.now);
            for &pos in &tuple_positions {
                self.tel
                    .span_end(&job_track(self.live[pos].key), "job.timeslice");
            }
        }
        if let Some(p) = &self.probes {
            if extrapolated {
                p.extrapolated_slices.inc();
            }
            p.timeslices.inc();
            p.running.set(tuple_positions.len() as f64);
            match self.state.mode {
                Mode::Rotate => p.rotate_slices.inc(),
                Mode::Sampling { .. } => p.sampling_slices.inc(),
                Mode::Symbios { .. } => p.symbios_slices.inc(),
            }
        }
        let learn_context = if self.learner.is_some() {
            let benches: Vec<workloads::Benchmark> =
                self.live.iter().map(|j| j.arrival.benchmark).collect();
            learn::context_of(&benches)
        } else {
            String::new()
        };
        advance_after_slice(
            &mut self.state,
            &self.cfg,
            &stats,
            self.now,
            &self.tel,
            self.probes.as_ref(),
            LearnHooks {
                learner: self.learner.as_mut(),
                pending: &mut self.pending_learn,
                context: &learn_context,
            },
        );

        // Departures.
        let now = self.now;
        let (tel, probes) = (&self.tel, self.probes.as_ref());
        let mut departed = Vec::new();
        self.live.retain(|j| {
            if !j.finished() {
                return true;
            }
            let response = now.saturating_sub(j.arrival.arrival);
            tel.instant("opensys", "opensys.departure", || {
                vec![
                    Attr::num("job", j.key as f64),
                    Attr::num("response_cycles", response as f64),
                ]
            });
            if let Some(p) = probes {
                p.departures.inc();
            }
            if tracing {
                if let Some(p) = probes {
                    tel.histogram_record(&p.response_cycles, now, response);
                }
                let track = job_track(j.key);
                tel.instant(&track, "job.complete", || {
                    vec![Attr::num("response_cycles", response as f64)]
                });
                tel.span_end(&track, "job.lifetime");
            }
            departed.push(JobRecord {
                arrival: j.arrival.clone(),
                departure: now,
            });
            false
        });
        if !departed.is_empty() {
            self.completed += departed.len() as u64;
            if let Some(p) = &self.probes {
                p.queue_depth.set(self.live.len() as f64);
            }
            if !self.live.is_empty() {
                self.replan(false);
                // Traced but not counted: `resamples` has only ever counted
                // arrival- and timer-triggered phases, and reports pin it.
                self.note_sample_phase("departure", false);
            }
        }
        departed
    }

    /// After a replan: if it opened a sample phase, emits the
    /// `opensys.resample` instant and, when `counted`, books the resample.
    fn note_sample_phase(&mut self, trigger: &'static str, counted: bool) {
        if !matches!(self.state.mode, Mode::Sampling { .. }) {
            return;
        }
        if counted {
            self.resamples += 1;
            if let Some(p) = &self.probes {
                p.resamples.inc();
            }
        }
        self.tel.instant("opensys", "opensys.resample", || {
            vec![
                Attr::text("trigger", trigger),
                Attr::num("live", self.live.len() as f64),
            ]
        });
    }

    /// Settles the outstanding bandit pull, if any: reward = realized mean
    /// symbios IPC over the sample-phase mean (the oblivious baseline);
    /// best = the best sampled IPC over the same baseline (an observable
    /// proxy for the best arm — the engine has no solo rates, so true WS is
    /// not measurable online; see DESIGN.md §13).
    fn settle_learn(&mut self) {
        let Some(p) = self.pending_learn.take() else {
            return;
        };
        let Some(l) = self.learner.as_mut() else {
            return;
        };
        if p.slices == 0 || p.baseline <= 0.0 {
            return;
        }
        let realized = p.ipc_sum / p.slices as f64;
        let reward = realized / p.baseline;
        let best = p.best_proxy / p.baseline;
        l.reward_arm(p.arm, &p.context, reward, best);
        self.sync_learn_probes();
        self.tel.instant("opensys", "learn.settle", || {
            vec![
                Attr::text("context", p.context),
                Attr::text("arm", learn::arms()[p.arm].name()),
                Attr::num("reward", reward),
                Attr::num("regret", (best - reward).max(0.0)),
            ]
        });
    }

    /// Re-plans after an arrival, a departure, or a symbiosis-timer expiry.
    fn replan(&mut self, timer: bool) {
        // A replan ends any running symbios phase, so the outstanding
        // bandit pull (if any) has seen all the slices it will get.
        self.settle_learn();
        if let Some(fs) = &mut self.fastsim {
            // Every replan marks a mix change (or a fresh sampling pass):
            // the shared cache/predictor state shifts under every tracked
            // phase, so locked phases must re-prove themselves through a
            // re-sample window before extrapolating again. (A full
            // invalidate here costs a relock window per tuple per mix
            // change, which in a busy open system suppresses extrapolation
            // almost entirely.)
            fs.revalidate();
        }
        let state = &mut self.state;
        let cfg = &self.cfg;
        state.slice = 0;
        state.timer_triggered = timer;
        if !timer {
            // "When a job arrives or departs ... the duration of the
            // symbiosis phase reverts to λ."
            state.interval = cfg.base_interval;
            state.last_pick = None;
        }
        match state.kind {
            SchedulerKind::Naive => {
                state.mode = Mode::Rotate;
            }
            SchedulerKind::Sos => {
                let keys: Vec<usize> = self.live.iter().map(|j| j.key).collect();
                if keys.len() <= cfg.smt {
                    state.mode = Mode::Rotate;
                    return;
                }
                // Draw distinct candidate circular orders.
                let mut candidates: Vec<Vec<usize>> = Vec::new();
                let mut seen = std::collections::HashSet::new();
                let budget = cfg.sample_schedules.max(1);
                let mut attempts = 0;
                while candidates.len() < budget && attempts < budget * 30 {
                    attempts += 1;
                    let mut order = keys.clone();
                    order.shuffle(&mut self.rng);
                    if seen.insert(schedule_of(&order, cfg.smt).canonical_key()) {
                        candidates.push(order);
                    }
                }
                let n = candidates.len();
                state.mode = Mode::Sampling {
                    candidates,
                    current: 0,
                    slice_in_rotation: 0,
                    collected: vec![Vec::new(); n],
                };
            }
        }
    }
}

/// What an open-system driver needs from a scheduler: a clock, a population
/// count, and the three events. [`OnlineEngine`] and
/// [`crate::cluster::ClusterEngine`] both implement it, so one [`replay`]
/// loop — and one differential test — drives either.
pub trait Scheduler {
    /// Current simulated time in cycles.
    fn now(&self) -> u64;
    /// Jobs currently in the system.
    fn live_count(&self) -> usize;
    /// Admits a job.
    fn submit(&mut self, arrival: JobArrival);
    /// Advances the busy system by one scheduling quantum and returns the
    /// jobs that departed in it.
    fn step(&mut self) -> Vec<JobRecord>;
    /// Fast-forwards the idle system to time `t`.
    fn jump_to(&mut self, t: u64);
}

impl Scheduler for OnlineEngine {
    fn now(&self) -> u64 {
        self.now
    }
    fn live_count(&self) -> usize {
        self.live.len()
    }
    fn submit(&mut self, arrival: JobArrival) {
        OnlineEngine::submit(self, arrival);
    }
    fn step(&mut self) -> Vec<JobRecord> {
        OnlineEngine::step(self)
    }
    fn jump_to(&mut self, t: u64) {
        OnlineEngine::jump_to(self, t)
    }
}

/// *The* open-system loop: replays `trace` (sorted by arrival) through
/// `engine` — submit every arrival that is due, step while any job is live,
/// jump across idle gaps — until every job has been submitted and has
/// departed. Returns the departures in the order the engine reported them.
pub fn replay(engine: &mut impl Scheduler, trace: &[JobArrival]) -> Vec<JobRecord> {
    let mut next = 0usize;
    let mut departed = Vec::with_capacity(trace.len());
    while next < trace.len() || engine.live_count() > 0 {
        while next < trace.len() && trace[next].arrival <= engine.now() {
            engine.submit(trace[next].clone());
            next += 1;
        }
        if engine.live_count() == 0 {
            // Nothing was due and nothing is live, so arrivals remain.
            engine.jump_to(trace[next].arrival);
            continue;
        }
        departed.extend(engine.step());
    }
    departed
}

/// The schedule implied by a circular order of keys at SMT level `y`
/// (swap-all discipline).
fn schedule_of(order: &[usize], y: usize) -> Schedule {
    let mut dense: Vec<usize> = order.to_vec();
    let mut sorted = dense.clone();
    sorted.sort_unstable();
    for v in dense.iter_mut() {
        *v = sorted.binary_search(v).expect("present");
    }
    let y = y.min(dense.len()).max(1);
    Schedule::new(dense, y, y)
}

/// Window of `y` keys starting at `slice·y` in the circular `order`,
/// restricted to keys still live.
fn window(order: &[usize], live: &[LiveJob], y: usize, slice: usize) -> Vec<usize> {
    // One O(live) set build instead of an O(order × live) scan per call —
    // this runs every timeslice, and production queue depths made it
    // quadratic. Filtering preserves `order`, so output is unchanged.
    let live_keys: std::collections::HashSet<usize> = live.iter().map(|j| j.key).collect();
    let alive: Vec<usize> = order
        .iter()
        .copied()
        .filter(|k| live_keys.contains(k))
        .collect();
    let n = alive.len();
    if n == 0 {
        return Vec::new();
    }
    let y = y.min(n);
    let start = (slice * y) % n;
    (0..y).map(|k| alive[(start + k) % n]).collect()
}

/// The tuple to run this timeslice (does not advance state).
fn current_tuple(state: &SchedulerState, cfg: &OnlineConfig, live: &[LiveJob]) -> Vec<usize> {
    let arrival_order: Vec<usize> = live.iter().map(|j| j.key).collect();
    match &state.mode {
        Mode::Rotate => window(&arrival_order, live, cfg.smt, state.slice),
        Mode::Sampling {
            candidates,
            current,
            slice_in_rotation,
            ..
        } => window(&candidates[*current], live, cfg.smt, *slice_in_rotation),
        Mode::Symbios { order, .. } => window(order, live, cfg.smt, state.slice),
    }
}

/// The display name of a scheduler mode (used as a trace attribute).
fn mode_name(mode: &Mode) -> &'static str {
    match mode {
        Mode::Rotate => "rotate",
        Mode::Sampling { .. } => "sampling",
        Mode::Symbios { .. } => "symbios",
    }
}

/// The telemetry track carrying one job's hierarchical spans.
fn job_track(key: usize) -> String {
    format!("job/{key}")
}

/// Books the finished slice and advances the scheduler state machine.
fn advance_after_slice(
    state: &mut SchedulerState,
    cfg: &OnlineConfig,
    stats: &TimesliceStats,
    now: u64,
    tel: &Telemetry,
    probes: Option<&Probes>,
    mut hooks: LearnHooks<'_>,
) {
    state.slice += 1;
    // Accumulate the running symbios phase's realized IPC toward the
    // outstanding bandit pull (settled at the next replan).
    if matches!(state.mode, Mode::Symbios { .. }) {
        if let Some(p) = hooks.pending.as_mut() {
            p.ipc_sum += stats.total_ipc();
            p.slices += 1;
        }
    }
    // Drift detection (§9 extension): if the running schedule stops behaving
    // like its sample, force an early resample by expiring the timer.
    if let (
        Mode::Symbios {
            until,
            predicted_ipc,
            drift_streak,
            ..
        },
        Some(threshold),
    ) = (&mut state.mode, cfg.drift_threshold)
    {
        if *predicted_ipc > 0.0 {
            let observed = stats.total_ipc();
            let deviation = (observed - *predicted_ipc).abs() / *predicted_ipc;
            if deviation > threshold {
                *drift_streak += 1;
                if *drift_streak >= 3 {
                    *until = now; // resample at the next scheduling point
                    state.last_pick = None; // do not back off after a drift
                }
            } else {
                *drift_streak = 0;
            }
        }
    }
    let timer_triggered = state.timer_triggered;
    let prev_pick = state.last_pick.clone();
    let interval = state.interval;
    if let Mode::Sampling {
        candidates,
        current,
        slice_in_rotation,
        collected,
    } = &mut state.mode
    {
        collected[*current].push(stats.clone());
        *slice_in_rotation += 1;
        // One *full* rotation: the schedule's complete tuple set ("the
        // minimum time required to evaluate the schedule", §5.2). Sampling
        // fewer windows would leave most of the symbios-phase tuples unseen.
        let x = candidates[*current].len();
        let y = cfg.smt.min(x).max(1);
        let slices_per_rotation = slices_for(x, y);
        if *slice_in_rotation >= slices_per_rotation {
            *slice_in_rotation = 0;
            *current += 1;
            if *current >= candidates.len() {
                // Predict and enter symbios.
                let samples: Vec<ScheduleSample> = candidates
                    .iter()
                    .zip(collected.iter())
                    .filter(|(_, sl)| !sl.is_empty())
                    .map(|(ord, slices)| condense(ord, cfg.smt, slices))
                    .collect();
                let pick = if samples.is_empty() {
                    0
                } else if let Some(l) = hooks.learner.as_deref_mut() {
                    // Prequential: pick with the model as-is, then train on
                    // this sample phase. Targets are per-candidate sampled
                    // IPC — the engine has no solo rates, so realized WS is
                    // not observable online (DESIGN.md §13 documents the
                    // proxy).
                    let chosen = match cfg.predictor {
                        PredictorKind::Learned => l.choose_learned(&samples),
                        PredictorKind::Bandit => {
                            let (arm, p) = l.choose_bandit(&samples, hooks.context);
                            let n = samples.len() as f64;
                            let baseline = samples.iter().map(|s| s.ipc).sum::<f64>() / n;
                            let best_proxy = samples
                                .iter()
                                .map(|s| s.ipc)
                                .fold(f64::NEG_INFINITY, f64::max);
                            *hooks.pending = Some(PendingLearn {
                                arm,
                                context: hooks.context.to_string(),
                                baseline,
                                best_proxy,
                                ipc_sum: 0.0,
                                slices: 0,
                            });
                            p
                        }
                        // Fixed predictor with a learner attached: shadow
                        // training only.
                        _ => cfg.predictor.choose(&samples),
                    };
                    let targets: Vec<f64> = samples.iter().map(|s| s.ipc).collect();
                    l.train(&samples, &targets);
                    if let Some(m) = probes.and_then(|p| p.learn.as_ref()) {
                        m.sync(&l.summary());
                    }
                    chosen
                } else {
                    cfg.predictor.choose(&samples)
                };
                let order = candidates.get(pick).cloned().unwrap_or_default();
                if let Some(p) = probes {
                    p.predictor_picks.inc();
                    if prev_pick.as_deref() == Some(&order[..]) {
                        p.repeat_picks.inc();
                    }
                }
                // Exponential backoff: if a timer-triggered resample repeats
                // the previous prediction, double the symbiosis interval.
                let new_interval = if timer_triggered && prev_pick.as_deref() == Some(&order[..]) {
                    let doubled = interval.saturating_mul(2);
                    tel.instant("opensys", "opensys.backoff", || {
                        vec![Attr::num("interval", doubled as f64)]
                    });
                    if let Some(p) = probes {
                        p.backoffs.inc();
                    }
                    doubled
                } else {
                    cfg.base_interval
                };
                let predicted_ipc = samples.get(pick).map(|s| s.ipc).unwrap_or(0.0);
                state.interval = new_interval;
                state.last_pick = Some(order.clone());
                state.slice = 0;
                state.mode = Mode::Symbios {
                    order,
                    until: now + new_interval,
                    predicted_ipc,
                    drift_streak: 0,
                };
            }
        }
    }
}

/// Timeslices in one full rotation of `x` jobs through windows of `y`
/// advancing by `y` (the swap-all discipline): `x / gcd(x, y)`.
fn slices_for(x: usize, y: usize) -> usize {
    if x <= y || y == 0 {
        1
    } else {
        x / gcd(x, y)
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Condenses raw sample slices into a `ScheduleSample` for prediction.
fn condense(order: &[usize], y: usize, slices: &[TimesliceStats]) -> ScheduleSample {
    let schedule = schedule_of(order, y);
    let rotation = crate::runner::RotationStats {
        tuples: slices
            .iter()
            .map(|_| crate::schedule::Coschedule::new([0]))
            .collect(),
        slices: slices.to_vec(),
    };
    let mut s = ScheduleSample::from_rotations(&schedule, &[rotation]);
    s.notation = format!("order{order:?}");
    s
}

/// The instruction streams of one tuple of live jobs (by position), in
/// live order.
fn tuple_sources<'a>(
    live: &'a mut [LiveJob],
    positions: &[usize],
) -> Vec<&'a mut dyn InstructionSource> {
    live.iter_mut()
        .enumerate()
        .filter(|(i, _)| positions.contains(i))
        .map(|(_, j)| &mut j.stream as &mut dyn InstructionSource)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::spec::Benchmark;

    fn cfg() -> OnlineConfig {
        OnlineConfig {
            smt: 2,
            timeslice: 2_000,
            sample_schedules: 3,
            predictor: PredictorKind::Score,
            drift_threshold: None,
            base_interval: 30_000,
            seed: 77,
            fastsim: None,
            learn: None,
        }
    }

    fn job(arrival: u64, instructions: u64) -> JobArrival {
        JobArrival {
            arrival,
            benchmark: Benchmark::Gcc,
            instructions,
            phased: false,
        }
    }

    #[test]
    fn empty_step_is_a_noop() {
        let mut e = OnlineEngine::new(SchedulerKind::Naive, &cfg());
        assert!(e.step().is_empty());
        assert_eq!(e.now(), 0);
    }

    #[test]
    fn single_job_runs_to_completion() {
        let mut e = OnlineEngine::new(SchedulerKind::Naive, &cfg());
        e.submit(job(0, 5_000));
        let mut done = Vec::new();
        for _ in 0..1_000 {
            done.extend(e.step());
            if e.live_count() == 0 {
                break;
            }
        }
        assert_eq!(done.len(), 1);
        assert_eq!(e.completed(), 1);
        assert!(done[0].response() >= e.config().timeslice);
        assert!(e.mean_population() > 0.0);
    }

    #[test]
    fn sos_engine_resamples_when_oversubscribed() {
        let mut e = OnlineEngine::new(SchedulerKind::Sos, &cfg());
        for i in 0..4 {
            e.submit(job(0, 40_000 + i * 1_000));
        }
        for _ in 0..2_000 {
            e.step();
            if e.live_count() == 0 {
                break;
            }
        }
        assert_eq!(e.completed(), 4);
        assert!(e.resamples() > 0, "4 jobs on SMT 2 must trigger sampling");
    }

    #[test]
    fn naive_engine_never_resamples() {
        let mut e = OnlineEngine::new(SchedulerKind::Naive, &cfg());
        for i in 0..4 {
            e.submit(job(0, 20_000 + i * 1_000));
        }
        for _ in 0..2_000 {
            e.step();
            if e.live_count() == 0 {
                break;
            }
        }
        assert_eq!(e.resamples(), 0);
    }

    #[test]
    fn jump_to_never_rewinds() {
        let mut e = OnlineEngine::new(SchedulerKind::Naive, &cfg());
        e.jump_to(10_000);
        assert_eq!(e.now(), 10_000);
        e.jump_to(5_000);
        assert_eq!(e.now(), 10_000);
    }

    #[test]
    fn live_arrivals_reflect_inflight_jobs() {
        let mut e = OnlineEngine::new(SchedulerKind::Naive, &cfg());
        e.submit(job(0, 1_000_000));
        e.submit(job(0, 1_000_000));
        e.step();
        let inflight = e.live_arrivals();
        assert_eq!(inflight.len(), 2);
        assert!(inflight.iter().all(|a| a.instructions == 1_000_000));
    }

    #[test]
    fn submission_keys_above_u32_keep_distinct_stream_ids() {
        // Regression: `StreamId(key as u32)` truncated the submission index,
        // so the 2^32-th job replayed job 0's instruction stream.
        let mut e = OnlineEngine::new(SchedulerKind::Naive, &cfg());
        let big = (1usize << 32) + 5;
        e.next_key = big;
        let key = e.submit(job(0, 1_000));
        assert_eq!(key, big);
        assert_eq!(e.live[0].stream.id(), StreamId(big as u64));
        assert_ne!(e.live[0].stream.id(), StreamId(5));
    }

    #[test]
    fn reclaim_takes_only_unstarted_jobs_newest_first() {
        let mut e = OnlineEngine::new(SchedulerKind::Naive, &cfg());
        e.submit(job(0, 1_000_000));
        e.submit(job(0, 1_000_000));
        e.step(); // job 0 (and with SMT 2, job 1) may have started
        e.submit(job(e.now(), 500_000));
        e.submit(job(e.now(), 500_000));
        let before = e.live_count();
        let taken = e.reclaim_unstarted(10);
        // Jobs 2 and 3 never ran a slice; jobs 0/1 are in the current tuple.
        assert_eq!(taken.len(), 2);
        assert!(taken.iter().all(|a| a.instructions == 500_000));
        assert_eq!(e.live_count(), before - 2);
        assert_eq!(e.reclaimed(), 2);
        // Arrival order preserved for deterministic resubmission.
        assert!(taken[0].arrival <= taken[1].arrival);
        // Bounded reclaim takes at most `max`.
        e.submit(job(e.now(), 500_000));
        e.submit(job(e.now(), 500_000));
        assert_eq!(e.reclaim_unstarted(1).len(), 1);
    }

    #[test]
    fn engine_without_learn_config_has_no_learner() {
        let e = OnlineEngine::new(SchedulerKind::Sos, &cfg());
        assert!(e.learner().is_none());
        assert!(e.learn_summary().is_none());
    }

    fn run_learned(predictor: PredictorKind) -> (u64, String) {
        let mut c = cfg();
        c.predictor = predictor;
        let mut e = OnlineEngine::new(SchedulerKind::Sos, &c);
        for i in 0..5 {
            e.submit(job(0, 60_000 + i * 2_000));
        }
        for _ in 0..3_000 {
            e.step();
            if e.live_count() == 0 {
                break;
            }
        }
        let l = e.learner().expect("learned predictor implies a learner");
        (e.completed(), serde_json::to_string(l).unwrap())
    }

    #[test]
    fn learned_predictor_trains_online_and_is_deterministic() {
        let (done_a, learner_a) = run_learned(PredictorKind::Learned);
        let (done_b, learner_b) = run_learned(PredictorKind::Learned);
        assert_eq!(done_a, 5);
        assert_eq!(done_a, done_b);
        assert_eq!(learner_a, learner_b, "learner state must replay exactly");
        let l: Learner = serde_json::from_str(&learner_a).unwrap();
        assert!(l.train_updates() > 0, "sample phases must train the model");
    }

    #[test]
    fn bandit_predictor_pulls_arms_and_settles_rewards() {
        let (done_a, learner_a) = run_learned(PredictorKind::Bandit);
        let (_, learner_b) = run_learned(PredictorKind::Bandit);
        assert_eq!(done_a, 5);
        assert_eq!(learner_a, learner_b);
        let l: Learner = serde_json::from_str(&learner_a).unwrap();
        assert!(l.bandit().total_pulls() > 0, "bandit pulls must settle");
        assert!(l.train_updates() > 0);
    }

    #[test]
    fn restored_learner_continues_from_snapshot_state() {
        let mut c = cfg();
        c.predictor = PredictorKind::Bandit;
        let mut e = OnlineEngine::new(SchedulerKind::Sos, &c);
        for i in 0..5 {
            e.submit(job(0, 60_000 + i * 2_000));
        }
        for _ in 0..3_000 {
            e.step();
            if e.live_count() == 0 {
                break;
            }
        }
        let saved = serde_json::to_string(e.learner().unwrap()).unwrap();
        let mut fresh = OnlineEngine::new(SchedulerKind::Sos, &c);
        fresh.restore_learner(serde_json::from_str(&saved).unwrap());
        assert_eq!(
            serde_json::to_string(fresh.learner().unwrap()).unwrap(),
            saved
        );
    }

    #[test]
    fn metrics_handle_books_each_engine_event_once() {
        let mut c = cfg();
        c.predictor = PredictorKind::Bandit;
        let tel = Telemetry::metrics();
        let mut e = OnlineEngine::new(SchedulerKind::Sos, &c);
        e.set_telemetry(tel.clone());
        for i in 0..5 {
            e.submit(job(0, 60_000 + i * 2_000));
        }
        assert_eq!(tel.gauge("engine.queue_depth").get(), 5.0);
        while e.live_count() > 0 {
            e.step();
        }
        let snap = tel.drain();
        assert_eq!(snap.counters["engine.timeslices"], e.timeslices());
        assert_eq!(snap.counters["engine.resamples"], e.resamples());
        assert_eq!(
            snap.counters["engine.timeslices"],
            snap.counters["engine.rotate_slices"]
                + snap.counters["engine.sampling_slices"]
                + snap.counters["engine.symbios_slices"]
        );
        assert!(snap.counters["engine.predictor_picks"] > 0);
        assert_eq!(snap.counters["opensys.arrivals"], 5);
        assert_eq!(snap.counters["opensys.departures"], 5);
        assert_eq!(snap.gauges["engine.queue_depth"], 0.0);
        // The learn family mirrors the learner's own summary.
        let l = e.learn_summary().expect("bandit implies a learner");
        assert_eq!(snap.counters["learn.train_updates"], l.train_updates);
        assert_eq!(snap.counters["learn.bandit_pulls"], l.bandit_pulls);
        let score = l.arms.iter().find(|a| a.0 == "Score").expect("score arm");
        assert_eq!(snap.counters["learn.arm.score.pulls"], score.1);
        assert_eq!(snap.gauges["learn.pred_err_ewma"], l.err_ewma);
        // One series per event: the second names the process-wide recorder
        // used to book are gone, and a metrics handle records no events (nor
        // the lock-guarded response histogram that rides with them).
        for gone in ["opensys.resamples", "opensys.jobs_in_system"] {
            assert!(!snap.counters.contains_key(gone) && !snap.gauges.contains_key(gone));
        }
        assert!(snap.events.is_empty() && snap.histograms.is_empty());
    }

    #[test]
    fn scheduler_kind_parses_both_policies() {
        assert_eq!(SchedulerKind::parse("sos"), Some(SchedulerKind::Sos));
        assert_eq!(SchedulerKind::parse("NAIVE"), Some(SchedulerKind::Naive));
        assert_eq!(SchedulerKind::parse("fifo"), None);
        assert_eq!(SchedulerKind::Sos.name(), "sos");
    }
}

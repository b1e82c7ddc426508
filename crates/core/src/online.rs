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
//! The engine has one decision point, the paper's *optimize* (§5): the slice
//! that completes a sample phase picks the symbios schedule, with the fixed
//! predictor directly or through [`Learner::optimize`], whose bandit
//! [`Pull`] then rides in the symbios phase it started and is settled by the
//! replan that ends it. And it keeps one set of books: plain counters it
//! increments whether or not anyone watches, which the accessors read and
//! which `publish` copies to the telemetry registry — the only place a
//! counter or gauge is written — at the end of each call that moves them.
//!
//! Determinism: given the same configuration and the same sequence of
//! `submit`/`step`/`jump_to` calls, the engine's behaviour (including its
//! RNG draws for candidate schedules) is byte-identical across runs.

use crate::arrivals::JobArrival;
use crate::learn::{self, Learner, Pull};
use crate::predictor::PredictorKind;
use crate::sample::ScheduleSample;
use crate::schedule::Schedule;
use crate::telemetry::{trace_timeslice, Attr, Counter, Gauge, Telemetry};
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
    /// Predictor SOS uses. A learned kind (`Learned`/`Bandit`) gives the
    /// engine a [`Learner`]; a fixed one runs without.
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
    #[serde(default)]
    pub fastsim: Option<FastSimPolicy>,
}

impl OnlineConfig {
    fn validate(&self) {
        assert!(
            self.smt > 0 && self.timeslice > 0 && self.base_interval > 0,
            "bad online configuration"
        );
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
        /// Circular orders of live-job keys, each with its timeslices per
        /// rotation.
        candidates: Vec<(Vec<usize>, usize)>,
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
        /// The bandit pull this phase's schedule was chosen by, collecting
        /// the phase's realized IPC until the replan that ends it.
        pull: Option<Pull>,
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

/// The engine's books: lifetime counts of everything it did, kept as plain
/// integers whether or not anyone is watching. The accessors read them, and
/// [`OnlineEngine::publish`] copies them to the registry.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Books {
    /// Jobs admitted; also the next submission key.
    submitted: usize,
    completed: u64,
    /// Queued-but-not-started jobs handed back via
    /// [`OnlineEngine::reclaim_unstarted`] (cluster migration).
    reclaimed: usize,
    /// Timeslices simulated, and how many ran in each scheduler mode.
    timeslices: u64,
    rotate_slices: u64,
    sampling_slices: u64,
    symbios_slices: u64,
    /// Jobs coscheduled in the latest timeslice.
    running: usize,
    /// Σ live jobs × timeslice over every slice (Little's-law numerator).
    population_cycles: u128,
    /// Sample phases entered on an arrival or a timer expiry.
    resamples: u64,
    /// Optimize decisions, those that repeated the previous pick, and
    /// those whose repeat doubled the symbiosis interval.
    picks: u64,
    repeat_picks: u64,
    backoffs: u64,
}

/// Metric handles resolved once in [`OnlineEngine::set_telemetry`], so
/// [`OnlineEngine::publish`] is a run of relaxed atomic writes — no name
/// formatting, map lookup or lock. Which series there are, and the state
/// each mirrors, is [`OnlineEngine::counter_series`] and
/// [`OnlineEngine::gauge_series`]; the handles are kept in that order.
///
/// Series families: under a root handle the engine publishes `engine.*`,
/// `opensys.*` and (with a learner) `learn.*`. Under a child handle the
/// child's prefix stands in for `engine` (`cluster.shard0.timeslices`) and
/// scopes the other two (`cluster.shard0.opensys.*`,
/// `cluster.shard0.learn.*`).
struct Probes {
    counters: Vec<Arc<Counter>>,
    gauges: Vec<Arc<Gauge>>,
    /// `learn.arm.<name>.pulls`, one per arm in [`learn::arms`] order
    /// (empty without a learner).
    arm_pulls: Vec<Arc<Counter>>,
    /// Name of the `opensys.response_cycles` histogram. Histograms sit
    /// behind the registry lock, so it is recorded only alongside events.
    response_cycles: String,
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
    books: Books,
    pending_mix_change: bool,
    /// Phase detector + extrapolator (`cfg.fastsim`); `None` runs every
    /// slice through the detailed model, leaving output byte-identical with
    /// pre-fast-sim builds.
    fastsim: Option<FastSim>,
    /// The handle this engine reports to ([`Telemetry::off`] until
    /// [`set_telemetry`](Self::set_telemetry)), and the metric handles
    /// resolved from it (`None` while it is off: `publish` returns at once).
    tel: Telemetry,
    probes: Option<Probes>,
    /// Online learner ([`crate::learn`]): present exactly when
    /// `cfg.predictor` is `Learned`/`Bandit`.
    learner: Option<Learner>,
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
            books: Books::default(),
            pending_mix_change: false,
            fastsim: cfg.fastsim.clone().map(FastSim::new),
            tel: Telemetry::off(),
            probes: None,
            learner: cfg
                .predictor
                .is_learned()
                .then(|| Learner::new(Default::default())),
        }
    }

    /// Lifetime extrapolated-vs-detailed counters, when fast-sim is on (the
    /// policy itself is `config().fastsim`, fixed at construction).
    pub fn fastsim_counters(&self) -> Option<&FastSimCounters> {
        self.fastsim.as_ref().map(|f| f.counters())
    }

    /// Points the engine at the handle it reports to; the handle's state is
    /// the only observability switch. Off: nothing. Metrics: the `engine.*`,
    /// `opensys.*` and `learn.*` series, published through handles resolved
    /// here — at once, so a handle attached mid-run starts from the engine's
    /// totals. Metrics+events: additionally every simulated timeslice
    /// through the smtsim bridge, scheduler instants on the `opensys` and
    /// `fastsim` tracks, and per-job hierarchical spans — each job gets its
    /// own `job/<id>` track: a `job.lifetime` span wrapping
    /// `job.queue_wait`, a `job.schedule_decision` instant, one
    /// `job.timeslice` span per slice it runs, and a `job.complete` instant.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.cpu.sample_occupancy(tel.events_on());
        self.probes = tel.is_on().then(|| {
            let name = |family: &str, series: &str| match tel.prefix() {
                Some(p) if family == "engine" => format!("{p}.{series}"),
                Some(p) => format!("{p}.{family}.{series}"),
                None => format!("{family}.{series}"),
            };
            let arm = |p: PredictorKind| format!("arm.{}.pulls", p.name().to_ascii_lowercase());
            Probes {
                counters: self
                    .counter_series()
                    .map(|(family, series, _)| tel.counter(&name(family, series)))
                    .collect(),
                gauges: self
                    .gauge_series()
                    .map(|(family, series, _)| tel.gauge(&name(family, series)))
                    .collect(),
                arm_pulls: self
                    .learner
                    .iter()
                    .flat_map(|_| learn::arms())
                    .map(|p| tel.counter(&name("learn", &arm(p))))
                    .collect(),
                response_cycles: name("opensys", "response_cycles"),
            }
        });
        self.tel = tel;
        self.publish();
    }

    /// Every counter series the engine publishes, as `(family, series,
    /// the state it mirrors)`.
    fn counter_series(&self) -> impl Iterator<Item = (&'static str, &'static str, u64)> {
        let b = self.books;
        // All 0 with fast-sim off.
        let fs = self.fastsim_counters().copied().unwrap_or_default();
        let learn = self.learner.as_ref().map(|l| {
            [
                ("learn", "train_updates", l.train_updates()),
                ("learn", "predictions", l.predictions()),
                ("learn", "bandit_pulls", l.bandit().total_pulls()),
            ]
        });
        [
            ("engine", "timeslices", b.timeslices),
            ("engine", "rotate_slices", b.rotate_slices),
            ("engine", "sampling_slices", b.sampling_slices),
            ("engine", "symbios_slices", b.symbios_slices),
            ("engine", "predictor_picks", b.picks),
            ("engine", "repeat_picks", b.repeat_picks),
            ("engine", "resamples", b.resamples),
            ("engine", "extrapolated_slices", fs.extrapolated_slices),
            ("engine", "fastsim_phase_locks", fs.phase_locks),
            ("engine", "fastsim_fallbacks", fs.fallbacks),
            ("engine", "fastsim_resyncs", fs.resyncs),
            ("opensys", "arrivals", b.submitted as u64),
            ("opensys", "departures", b.completed),
            ("opensys", "backoffs", b.backoffs),
        ]
        .into_iter()
        .chain(learn.into_iter().flatten())
    }

    /// Every gauge series, likewise.
    fn gauge_series(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> {
        let learn = self.learner.as_ref().map(|l| {
            [
                ("learn", "pred_err_ewma", l.err_ewma()),
                ("learn", "bandit_regret", l.bandit().total_regret()),
            ]
        });
        [
            ("engine", "queue_depth", self.live.len() as f64),
            ("engine", "running", self.books.running as f64),
        ]
        .into_iter()
        .chain(learn.into_iter().flatten())
    }

    /// Copies the engine's books to the registry: the one place the engine
    /// writes a counter or a gauge. It runs at the end of every call that
    /// moves them (`submit`, `reclaim_unstarted`, `step`, `set_telemetry`)
    /// and only while a handle is attached. Every write is absolute
    /// (`raise_to` / `set`) — one engine per handle or child prefix, so
    /// nothing else adds to these series and absolute writes cannot
    /// under-count.
    fn publish(&self) {
        let Some(p) = &self.probes else {
            return;
        };
        for (handle, (.., value)) in p.counters.iter().zip(self.counter_series()) {
            handle.raise_to(value);
        }
        for (handle, (.., value)) in p.gauges.iter().zip(self.gauge_series()) {
            handle.set(value);
        }
        let arms = self.learner.iter().flat_map(|l| l.bandit().global_arms());
        for (handle, arm) in p.arm_pulls.iter().zip(arms) {
            handle.raise_to(arm.pulls);
        }
    }

    /// The engine's learner, if its predictor is a learned kind (serialize
    /// it into a snapshot so a restart keeps the model).
    pub fn learner(&self) -> Option<&Learner> {
        self.learner.as_ref()
    }

    /// Restores learner state from a snapshot, replacing the current model.
    /// An engine whose predictor is fixed has no learner and ignores it.
    pub fn restore_learner(&mut self, learner: Learner) {
        if let Some(own) = &mut self.learner {
            *own = learner;
            // A pull the replaced model opened is not the new model's to book.
            if let Mode::Symbios { pull, .. } = &mut self.state.mode {
                *pull = None;
            }
            self.publish();
        }
    }

    /// Timeslices simulated over the engine's lifetime.
    pub fn timeslices(&self) -> u64 {
        self.books.timeslices
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
        self.books.submitted
    }

    /// Jobs completed over the engine's lifetime.
    pub fn completed(&self) -> u64 {
        self.books.completed
    }

    /// Jobs reclaimed (migrated away) over the engine's lifetime.
    pub fn reclaimed(&self) -> usize {
        self.books.reclaimed
    }

    /// Sample phases entered (always 0 for the naive scheduler).
    pub fn resamples(&self) -> u64 {
        self.books.resamples
    }

    /// Time-averaged number of jobs resident (Little's-law `N`).
    pub fn mean_population(&self) -> f64 {
        self.books.population_cycles as f64 / self.now.max(1) as f64
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
        let key = self.books.submitted;
        self.books.submitted += 1;
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
        self.pending_mix_change = true;
        self.publish();
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
            self.books.reclaimed += taken.len();
            self.pending_mix_change = true;
            self.publish();
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
        let mut refs = tuple_sources(&mut self.live, &tuple_positions);
        let (stats, event) = match self.fastsim.as_mut() {
            _ if refs.is_empty() => (
                TimesliceStats {
                    cycles: self.cfg.timeslice,
                    ..Default::default()
                },
                None,
            ),
            Some(fs) if !sampling => {
                let slice = fs.run_slice(&mut self.cpu, &mut refs, self.cfg.timeslice);
                if !slice.extrapolated {
                    trace_timeslice(&self.tel, &slice.stats, &self.cpu);
                }
                (slice.stats, slice.event)
            }
            _ => {
                let stats = self.cpu.run_timeslice(&mut refs, self.cfg.timeslice);
                trace_timeslice(&self.tel, &stats, &self.cpu);
                (stats, None)
            }
        };
        match event {
            Some(FastSimEvent::PhaseLocked { confidence }) => {
                self.tel.instant("fastsim", "fastsim.phase_lock", || {
                    vec![
                        Attr::num("confidence", confidence),
                        Attr::num("tuple_size", tuple_positions.len() as f64),
                    ]
                });
            }
            Some(FastSimEvent::Fallback { deviation }) => {
                self.tel.instant("fastsim", "fastsim.fallback", || {
                    vec![Attr::num("deviation", deviation)]
                });
            }
            Some(FastSimEvent::Resync {
                deviation,
                confidence,
            }) => {
                self.tel.instant("fastsim", "fastsim.resync", || {
                    vec![
                        Attr::num("deviation", deviation),
                        Attr::num("confidence", confidence),
                    ]
                });
            }
            Some(FastSimEvent::ResampleOk { .. }) | None => {}
        }
        self.books.population_cycles += (self.live.len() as u128) * (self.cfg.timeslice as u128);
        self.now += self.cfg.timeslice;
        self.books.timeslices += 1;
        self.books.running = tuple_positions.len();
        match self.state.mode {
            Mode::Rotate => self.books.rotate_slices += 1,
            Mode::Sampling { .. } => self.books.sampling_slices += 1,
            Mode::Symbios { .. } => self.books.symbios_slices += 1,
        }
        if tracing {
            self.tel.set_clock(self.now);
            for &pos in &tuple_positions {
                self.tel
                    .span_end(&job_track(self.live[pos].key), "job.timeslice");
            }
        }
        self.advance_after_slice(&stats);

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
            if tracing {
                if let Some(p) = probes {
                    tel.histogram_record(&p.response_cycles, response);
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
            self.books.completed += departed.len() as u64;
            if !self.live.is_empty() {
                self.replan(false);
                // Traced but not counted: `resamples` has only ever counted
                // arrival- and timer-triggered phases, and reports pin it.
                self.note_sample_phase("departure", false);
            }
        }
        self.publish();
        departed
    }

    /// After a replan: if it opened a sample phase, emits the
    /// `opensys.resample` instant and, when `counted`, books the resample.
    fn note_sample_phase(&mut self, trigger: &'static str, counted: bool) {
        if !matches!(self.state.mode, Mode::Sampling { .. }) {
            return;
        }
        if counted {
            self.books.resamples += 1;
        }
        self.tel.instant("opensys", "opensys.resample", || {
            vec![
                Attr::text("trigger", trigger),
                Attr::num("live", self.live.len() as f64),
            ]
        });
    }

    /// Re-plans after an arrival, a departure, or a symbiosis-timer expiry.
    fn replan(&mut self, timer: bool) {
        // A replan ends the running phase (back to rotation until it decides
        // otherwise below). If that was a symbios phase a bandit pull chose,
        // the pull has now seen every slice it will get: settle it.
        let ended = std::mem::replace(&mut self.state.mode, Mode::Rotate);
        if let (Mode::Symbios { pull: Some(p), .. }, Some(l)) = (ended, &mut self.learner) {
            if let Some((reward, regret)) = l.settle(&p) {
                self.tel.instant("opensys", "learn.settle", || {
                    vec![
                        Attr::text("context", p.context()),
                        Attr::text("arm", p.arm().name()),
                        Attr::num("reward", reward),
                        Attr::num("regret", regret),
                    ]
                });
            }
        }
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
        let keys: Vec<usize> = self.live.iter().map(|j| j.key).collect();
        if state.kind == SchedulerKind::Naive || keys.len() <= cfg.smt {
            return; // rotation: the naive control, or SOS when every job fits
        }
        // Draw distinct candidate circular orders.
        let mut candidates = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let budget = cfg.sample_schedules.max(1);
        let mut attempts = 0;
        while candidates.len() < budget && attempts < budget * 30 {
            attempts += 1;
            let mut order = keys.clone();
            order.shuffle(&mut self.rng);
            let schedule = schedule_of(&order, cfg.smt);
            if seen.insert(schedule.canonical_key()) {
                candidates.push((order, schedule.slices_per_rotation()));
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

    /// Books the finished slice and advances the scheduler state machine.
    /// The slice that completes a sample phase runs the *optimize* stage:
    /// predict the best sampled candidate and enter its symbios phase.
    fn advance_after_slice(&mut self, stats: &TimesliceStats) {
        let (state, cfg) = (&mut self.state, &self.cfg);
        state.slice += 1;
        match &mut state.mode {
            Mode::Rotate => {}
            Mode::Symbios {
                until,
                predicted_ipc,
                drift_streak,
                pull,
                ..
            } => {
                let observed = stats.total_ipc();
                if let Some(p) = pull {
                    p.observe(observed);
                }
                // Drift detection (§9 extension): if the running schedule
                // stops behaving like its sample, force an early resample by
                // expiring the timer.
                let Some(threshold) = cfg.drift_threshold else {
                    return;
                };
                if *predicted_ipc > 0.0 {
                    let deviation = (observed - *predicted_ipc).abs() / *predicted_ipc;
                    if deviation > threshold {
                        *drift_streak += 1;
                        if *drift_streak >= 3 {
                            *until = self.now; // resample at the next scheduling point
                            state.last_pick = None; // do not back off after a drift
                        }
                    } else {
                        *drift_streak = 0;
                    }
                }
            }
            Mode::Sampling {
                candidates,
                current,
                slice_in_rotation,
                collected,
            } => {
                collected[*current].push(stats.clone());
                *slice_in_rotation += 1;
                // One *full* rotation: the schedule's complete tuple set
                // ("the minimum time required to evaluate the schedule",
                // §5.2). Sampling fewer windows would leave most of the
                // symbios-phase tuples unseen.
                if *slice_in_rotation < candidates[*current].1 {
                    return;
                }
                *slice_in_rotation = 0;
                *current += 1;
                if *current < candidates.len() {
                    return;
                }
                // Optimize: predict and enter symbios.
                let samples: Vec<ScheduleSample> = candidates
                    .iter()
                    .zip(collected.iter())
                    .filter(|(_, sl)| !sl.is_empty())
                    .map(|((order, _), slices)| {
                        ScheduleSample::from_slices(format!("order{order:?}"), slices)
                    })
                    .collect();
                let (pick, pull) = match &mut self.learner {
                    _ if samples.is_empty() => (0, None),
                    Some(l) => {
                        let live = self.live.iter().map(|j| j.arrival.benchmark);
                        l.optimize(cfg.predictor, &samples, live)
                    }
                    None => (cfg.predictor.choose(&samples), None),
                };
                let order = candidates.get(pick).map_or_else(Vec::new, |c| c.0.clone());
                let repeat = state.last_pick.as_deref() == Some(&order[..]);
                self.books.picks += 1;
                self.books.repeat_picks += repeat as u64;
                // Exponential backoff: if a timer-triggered resample repeats
                // the previous prediction, double the symbiosis interval.
                state.interval = if state.timer_triggered && repeat {
                    let doubled = state.interval.saturating_mul(2);
                    self.tel.instant("opensys", "opensys.backoff", || {
                        vec![Attr::num("interval", doubled as f64)]
                    });
                    self.books.backoffs += 1;
                    doubled
                } else {
                    cfg.base_interval
                };
                state.last_pick = Some(order.clone());
                state.slice = 0;
                state.mode = Mode::Symbios {
                    order,
                    until: self.now + state.interval,
                    predicted_ipc: samples.get(pick).map_or(0.0, |s| s.ipc),
                    drift_streak: 0,
                    pull,
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
        } => window(&candidates[*current].0, live, cfg.smt, *slice_in_rotation),
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
        let done = replay(&mut e, &[]);
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
        replay(&mut e, &[]);
        assert_eq!(e.completed(), 4);
        assert!(e.resamples() > 0, "4 jobs on SMT 2 must trigger sampling");
    }

    #[test]
    fn naive_engine_never_resamples() {
        let mut e = OnlineEngine::new(SchedulerKind::Naive, &cfg());
        for i in 0..4 {
            e.submit(job(0, 20_000 + i * 1_000));
        }
        replay(&mut e, &[]);
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
        e.books.submitted = big;
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
    fn fixed_predictor_means_no_learner() {
        let mut e = OnlineEngine::new(SchedulerKind::Sos, &cfg());
        assert!(e.learner().is_none());
        // ... and a snapshot's learner does not conjure one.
        e.restore_learner(Learner::new(Default::default()));
        assert!(e.learner().is_none());
    }

    fn run_learned(predictor: PredictorKind) -> (u64, String) {
        let mut c = cfg();
        c.predictor = predictor;
        let mut e = OnlineEngine::new(SchedulerKind::Sos, &c);
        for i in 0..5 {
            e.submit(job(0, 60_000 + i * 2_000));
        }
        replay(&mut e, &[]);
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
        let (_, saved) = run_learned(PredictorKind::Bandit);
        let mut c = cfg();
        c.predictor = PredictorKind::Bandit;
        let mut fresh = OnlineEngine::new(SchedulerKind::Sos, &c);
        fresh.restore_learner(serde_json::from_str(&saved).unwrap());
        assert_eq!(
            serde_json::to_string(fresh.learner().unwrap()).unwrap(),
            saved
        );
    }

    /// Every registry series that mirrors engine state equals that state.
    fn assert_series_mirror_engine(tel: &Telemetry, e: &OnlineEngine) {
        let snap = tel.drain();
        let counter = |name: &str| snap.counters[name];
        assert_eq!(counter("engine.timeslices"), e.timeslices());
        assert_eq!(counter("engine.resamples"), e.resamples());
        assert_eq!(
            counter("engine.timeslices"),
            counter("engine.rotate_slices")
                + counter("engine.sampling_slices")
                + counter("engine.symbios_slices")
        );
        assert!(counter("engine.predictor_picks") >= counter("engine.repeat_picks"));
        assert_eq!(counter("opensys.arrivals"), e.submitted() as u64);
        assert_eq!(counter("opensys.departures"), e.completed());
        assert_eq!(snap.gauges["engine.queue_depth"], e.live_count() as f64);
        let fs = e.fastsim_counters().expect("fast-sim is on");
        assert_eq!(
            counter("engine.extrapolated_slices"),
            fs.extrapolated_slices
        );
        assert_eq!(counter("engine.fastsim_phase_locks"), fs.phase_locks);
        assert_eq!(counter("engine.fastsim_fallbacks"), fs.fallbacks);
        assert_eq!(counter("engine.fastsim_resyncs"), fs.resyncs);
        // The learn family mirrors the learner's own summary.
        let l = e.learner().expect("bandit implies a learner").summary();
        assert_eq!(counter("learn.train_updates"), l.train_updates);
        assert_eq!(counter("learn.predictions"), l.predictions);
        assert_eq!(counter("learn.bandit_pulls"), l.bandit_pulls);
        assert_eq!(snap.gauges["learn.pred_err_ewma"], l.err_ewma);
        assert_eq!(snap.gauges["learn.bandit_regret"], l.bandit_regret);
        for (name, pulls, _) in &l.arms {
            let series = format!("learn.arm.{}.pulls", name.to_ascii_lowercase());
            assert_eq!(counter(&series), *pulls, "{series}");
        }
        // One series per event: the second names the process-wide recorder
        // used to book are gone, and a metrics handle records no events (nor
        // the lock-guarded response histogram that rides with them).
        for gone in ["opensys.resamples", "opensys.jobs_in_system"] {
            assert!(!snap.counters.contains_key(gone) && !snap.gauges.contains_key(gone));
        }
        assert!(snap.events.is_empty() && snap.histograms.is_empty());
    }

    #[test]
    fn metrics_handle_books_each_engine_event_once() {
        let mut c = cfg();
        c.predictor = PredictorKind::Bandit;
        c.base_interval = 400_000;
        c.fastsim = Some(FastSimPolicy::default());
        let tel = Telemetry::metrics();
        let mut e = OnlineEngine::new(SchedulerKind::Sos, &c);
        e.set_telemetry(tel.clone());
        for i in 0..5 {
            e.submit(job(0, 900_000 + i * 2_000));
        }
        assert_eq!(tel.gauge("engine.queue_depth").get(), 5.0);
        // Long enough for symbios tuples to lock and extrapolate.
        while e.fastsim_counters().unwrap().extrapolated_slices == 0 {
            assert!(!e.step().is_empty() || e.live_count() > 0, "never locked");
        }
        assert_series_mirror_engine(&tel, &e);
        // A handle attached mid-run starts from the totals, not from zero.
        let late = Telemetry::metrics();
        e.set_telemetry(late.clone());
        assert_series_mirror_engine(&late, &e);
        replay(&mut e, &[]);
        assert_series_mirror_engine(&late, &e);
        assert_eq!(late.counter("opensys.departures").get(), 5);
        assert!(late.counter("engine.fastsim_phase_locks").get() > 0);
        assert!(late.counter("engine.predictor_picks").get() > 0);
        assert!(late.counter("learn.bandit_pulls").get() > 0);
        // The first handle was left where the engine stopped writing to it.
        assert!(tel.counter("engine.timeslices").get() < e.timeslices());
    }

    #[test]
    fn scheduler_kind_parses_both_policies() {
        assert_eq!(SchedulerKind::parse("sos"), Some(SchedulerKind::Sos));
        assert_eq!(SchedulerKind::parse("NAIVE"), Some(SchedulerKind::Naive));
        assert_eq!(SchedulerKind::parse("fifo"), None);
        assert_eq!(SchedulerKind::Sos.name(), "sos");
    }
}

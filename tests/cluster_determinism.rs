//! The cluster determinism suite of the two-level scheduler
//! (`sos_core::cluster`):
//!
//! 1. same seed + shard count ⇒ byte-identical per-shard traces and
//!    cluster report (serialized JSON compared as bytes);
//! 2. a 1-shard cluster is bit-exact with a plain `OnlineEngine`, both
//!    driven by `replay`, over generated scenarios;
//! 3. migration conserves jobs: under forced stealing nothing is lost or
//!    duplicated, and every departed job matches a submitted one;
//! 4. a traced cluster is as reproducible as an untraced one: every shard
//!    records on its own clock into its own buffer, merged in shard order.

use proptest::prelude::*;
use sos_core::cluster::{ClusterConfig, ClusterEngine, DispatchPolicy};
use sos_core::online::{replay, JobRecord, OnlineEngine, SchedulerKind};
use sos_core::opensys::{arrival_trace, calibrate_benchmarks, JobArrival, OpenSystemConfig};
use sos_core::report::JobSummary;
use sos_core::telemetry::{EventPhase, Snapshot, Telemetry};
use workloads::spec::Benchmark;

fn small_config() -> OpenSystemConfig {
    // Tiny cycle budget: the suite runs several debug-profile cluster
    // simulations. The determinism claims are scale-independent.
    let mut cfg = OpenSystemConfig::scaled(2);
    cfg.mean_job_cycles = 60_000;
    cfg.mean_interarrival = 30_000;
    cfg.num_jobs = 16;
    cfg.calibration_cycles = 4_000;
    cfg.phased_fraction = 0.3;
    cfg.seed = 0xC1_05;
    cfg
}

fn small_trace(cfg: &OpenSystemConfig) -> Vec<JobArrival> {
    let solo = calibrate_benchmarks(cfg.smt, cfg.calibration_cycles, cfg.seed);
    arrival_trace(cfg, &solo)
}

fn cluster_config(cfg: &OpenSystemConfig, shards: usize) -> ClusterConfig {
    ClusterConfig::new(
        shards,
        DispatchPolicy::Symbiosis,
        SchedulerKind::Sos,
        cfg.online(),
    )
}

#[test]
fn seeded_cluster_runs_are_byte_identical() {
    let cfg = small_config();
    let trace = small_trace(&cfg);
    let mut reports = Vec::new();
    for _ in 0..2 {
        let ccfg = cluster_config(&cfg, 4);
        let mut engine = ClusterEngine::new(&ccfg);
        let done = replay(&mut engine, &trace);
        assert_eq!(done.len(), trace.len());
        // The report is wall-clock-free by construction, so two runs of
        // the same (seed, shard count) must serialize to identical bytes —
        // including every shard's full departure trace.
        reports.push(serde_json::to_string(&engine.report()).expect("serialize"));
    }
    assert_eq!(
        reports[0], reports[1],
        "same seed + shard count must be byte-reproducible"
    );
}

#[test]
fn different_shard_seeds_differ() {
    // Shard seeding is cluster seed ⊕ shard id: the report records it, and
    // distinct shards must not share an RNG stream.
    let cfg = small_config();
    let ccfg = cluster_config(&cfg, 3);
    let report = ClusterEngine::new(&ccfg).report();
    let seeds: Vec<u64> = report.per_shard.iter().map(|s| s.seed).collect();
    assert_eq!(seeds.len(), 3);
    assert_eq!(seeds[0], cfg.seed); // shard 0 keeps the cluster seed
    for (i, s) in seeds.iter().enumerate() {
        assert_eq!(*s, cfg.seed ^ i as u64);
    }
}

/// One input of the 1-shard-cluster ≡ plain-engine differential.
#[derive(Debug)]
struct Scenario {
    smt: usize,
    jobs: usize,
    seed: u64,
    kind: SchedulerKind,
    fast: bool,
    phased_fraction: f64,
}

#[test]
fn one_shard_cluster_is_bit_exact_with_plain_engine() {
    // The hand-picked case this test began as, then generated ones (fixed
    // seed budget; a failure prints the scenario that reproduces it).
    let base = small_config();
    let mut scenarios = vec![Scenario {
        smt: base.smt,
        jobs: base.num_jobs,
        seed: base.seed,
        kind: SchedulerKind::Sos,
        fast: false,
        phased_fraction: base.phased_fraction,
    }];
    let generated = (
        (2usize..=4, 6usize..=16, any::<u64>()),
        (any::<bool>(), any::<bool>(), any::<bool>()),
    );
    for case in 0..8 {
        let mut rng = proptest::TestRng::for_case(0xD1FF, case);
        let ((smt, jobs, seed), (sos, fast, phased)) = generated.generate(&mut rng);
        scenarios.push(Scenario {
            smt,
            jobs,
            seed,
            kind: if sos {
                SchedulerKind::Sos
            } else {
                SchedulerKind::Naive
            },
            fast,
            phased_fraction: if phased { 0.5 } else { 0.0 },
        });
    }

    for s in &scenarios {
        let mut cfg = small_config();
        cfg.smt = s.smt;
        cfg.num_jobs = s.jobs;
        cfg.seed = s.seed;
        cfg.phased_fraction = s.phased_fraction;
        cfg.fastsim = s.fast.then(smtsim::FastSimPolicy::default);
        let solo = calibrate_benchmarks(cfg.smt, cfg.calibration_cycles, cfg.seed);
        let trace = arrival_trace(&cfg, &solo);

        let mut engine = OnlineEngine::new(s.kind, &cfg.online());
        let plain = replay(&mut engine, &trace);

        // 1-shard cluster over the identical trace. slices_per_round = 1
        // makes the round structure step-for-step identical; with one shard
        // every dispatch policy routes every job to shard 0 and rebalancing
        // can never fire.
        let mut ccfg = ClusterConfig::new(1, DispatchPolicy::Symbiosis, s.kind, cfg.online());
        ccfg.slices_per_round = 1;
        let mut cluster = ClusterEngine::new(&ccfg);
        cluster.set_solo_ipc(solo.clone());
        let clustered = replay(&mut cluster, &trace);

        assert_eq!(plain.len(), s.jobs, "{s:?}");
        assert_eq!(
            plain, clustered,
            "1-shard cluster diverged from the plain engine on {s:?}"
        );
        assert_eq!(cluster.migrations(), 0);

        // The cluster report is the one job summary over the same records.
        let summary = JobSummary::of(&plain, &solo);
        let busy = engine.timeslices() * cfg.timeslice;
        let report = cluster.report();
        assert_eq!(report.aggregate_ws, summary.weighted_speedup(busy), "{s:?}");
        assert_eq!(report.response, summary.response(), "{s:?}");
        assert_eq!(report.slowdown, summary.slowdown(), "{s:?}");
    }
}

#[test]
fn forced_stealing_conserves_jobs() {
    let cfg = small_config();
    let trace = small_trace(&cfg);

    // Round-robin dispatch keeps job *counts* equal, so a single burst
    // never opens a depth gap. Instead: burst A pins shard 0 with two
    // long jobs (round-robin slots 0 and 4) while shards 1–3 drain their
    // short ones; burst B then piles fresh — still unstarted — work onto
    // every shard, leaving shard 0 deepest. With the most aggressive
    // steal settings the gap forces reclaim + re-dispatch.
    let mut ccfg = ClusterConfig::new(
        4,
        DispatchPolicy::RoundRobin,
        SchedulerKind::Naive,
        cfg.online(),
    );
    ccfg.rebalance_every = 1;
    ccfg.steal_threshold = 2;
    ccfg.slices_per_round = 1;
    // No metric may depend on how many base intervals a run spans. The
    // naive scheduler never reads `base_interval`, so a short one stretches
    // this run over hundreds of them at no cost.
    ccfg.shard.base_interval = ccfg.shard.timeslice / 4;
    let tel = Telemetry::metrics();
    let mut engine = ClusterEngine::with_telemetry(&ccfg, &tel);

    let mut submitted = Vec::new();
    let mut submit = |engine: &mut ClusterEngine, mut j: JobArrival, now: u64, stretch: u64| {
        j.arrival = now;
        j.instructions *= stretch;
        submitted.push(j.clone());
        engine.submit(j);
    };

    // Burst A: 8 jobs, two per shard; shard 0's two are 20× longer.
    for (i, job) in trace.iter().take(8).enumerate() {
        let stretch = if i % 4 == 0 { 20 } else { 1 };
        submit(&mut engine, job.clone(), 0, stretch);
    }
    // Run until shards 1–3 are empty but shard 0 still holds its long jobs.
    let mut done: Vec<JobRecord> = Vec::new();
    for _ in 0..1_000_000u64 {
        if engine.shard_depths()[1..].iter().all(|&d| d == 0) {
            break;
        }
        done.extend(engine.step());
    }
    assert!(
        engine.shard_depths()[0] > 0,
        "shard 0's long jobs must outlive the others' short ones"
    );

    // Burst B: 16 fresh jobs, four per shard — shard 0 is now deepest and
    // its newest jobs have never run, so the next rebalance steals.
    let now = engine.now();
    for job in trace.iter().cycle().take(16) {
        submit(&mut engine, job.clone(), now, 1);
    }
    done.extend(engine.drain(u64::MAX));

    assert!(
        engine.migrations() > 0,
        "aggressive stealing settings must trigger at least one migration"
    );
    assert_eq!(done.len(), submitted.len(), "no job lost or duplicated");
    assert_eq!(engine.completed() as usize, submitted.len());

    // Every departed job corresponds 1:1 to a submitted arrival record
    // (compare as sorted multisets of the identifying fields).
    let key = |a: &JobArrival| {
        (
            a.arrival,
            format!("{:?}", a.benchmark),
            a.instructions,
            a.phased,
        )
    };
    let mut want: Vec<_> = submitted.iter().map(&key).collect();
    let mut got: Vec<_> = done.iter().map(|r| key(&r.arrival)).collect();
    want.sort();
    got.sort();
    assert_eq!(want, got, "migration altered a job's identity");

    // Mirror accounting agrees with itself.
    let report = engine.report();
    let migrated_in: usize = report.per_shard.iter().map(|s| s.migrated_in).sum();
    let migrated_out: usize = report.per_shard.iter().map(|s| s.migrated_out).sum();
    assert_eq!(migrated_in, migrated_out);
    assert_eq!(report.migrations as usize, migrated_in);
    let per_shard_completed: u64 = report.per_shard.iter().map(|s| s.completed).sum();
    assert_eq!(per_shard_completed, report.completed);

    // The exported histograms count every departure, however many rounds
    // the departures spread over: Prometheus `_count` and `_bucket` series
    // are cumulative.
    let rounds: std::collections::BTreeSet<u64> = (done.iter())
        .map(|r| r.departure / ccfg.shard.timeslice)
        .collect();
    assert!(
        rounds.len() > 8,
        "departures in {} rounds only",
        rounds.len()
    );
    assert!(engine.now() > 32 * ccfg.shard.base_interval);
    let snap = tel.snapshot(engine.now());
    for name in ["cluster.response_cycles", "cluster.slowdown_x100"] {
        assert_eq!(snap.histograms[name].count, engine.completed(), "{name}");
    }
}

/// A traced 2-shard run with exactly one forced migration: two long jobs
/// occupy both contexts of shard 0 while shard 1's short ones drain; a
/// third job dispatched to shard 0 is then still unstarted when the
/// rebalance after that round sees a depth gap of 2, and moves to shard 1.
fn traced_two_shard_run(cfg: &OpenSystemConfig) -> (Snapshot, u64) {
    let mut ccfg = ClusterConfig::new(
        2,
        DispatchPolicy::RoundRobin,
        SchedulerKind::Naive,
        cfg.online(),
    );
    ccfg.rebalance_every = 1;
    ccfg.steal_threshold = 2;
    let tel = Telemetry::tracing();
    let mut engine = ClusterEngine::with_telemetry(&ccfg, &tel);
    let job = |engine: &ClusterEngine, instructions| JobArrival {
        arrival: engine.now(),
        benchmark: Benchmark::Gcc,
        instructions,
        phased: false,
    };
    // Round-robin: long, short, long, short → shard 0 holds both long jobs.
    for instructions in [400_000, 10_000, 400_000, 10_000] {
        engine.submit(job(&engine, instructions));
    }
    while engine.shard_depths()[1] > 0 {
        engine.step();
    }
    assert_eq!(engine.shard_depths(), [2, 0]);
    assert_eq!(engine.migrations(), 0, "started jobs must not migrate");
    for _ in 0..2 {
        engine.submit(job(&engine, 10_000));
    }
    engine.drain(u64::MAX);
    (tel.drain(), engine.report().migrations)
}

#[test]
fn traced_cluster_is_reproducible_with_per_shard_clocks() {
    let cfg = small_config();
    let (snap, migrations) = traced_two_shard_run(&cfg);
    let (again, _) = traced_two_shard_run(&cfg);
    assert_eq!(
        snap.chrome_trace_json(),
        again.chrome_trace_json(),
        "a traced cluster run must be byte-reproducible"
    );
    assert_eq!(snap.metrics_jsonl(), again.metrics_jsonl());

    // The forced migration appears once: one dispatcher instant, one
    // reclaim on the source shard, and the cluster counter agrees.
    assert_eq!(migrations, 1);
    let named = |name: &'static str| snap.events.iter().filter(move |e| e.name == name);
    let moved: Vec<_> = named("cluster.migration").collect();
    assert_eq!(moved.len(), 1);
    assert_eq!(moved[0].track, "cluster");
    let reclaimed: Vec<_> = named("job.reclaimed").collect();
    assert_eq!(reclaimed.len(), 1);
    assert!(reclaimed[0].track.starts_with("cluster.shard0/job/"));
    assert_eq!(snap.counters["cluster.migrations"], 1);
    // 4 + 2 dispatched plus the one re-dispatch; shard 1 ran 2 + 1 + 1 jobs.
    assert_eq!(named("job.admit").count(), 7);
    assert_eq!(named("job.complete").count(), 6);
    assert_eq!(snap.counters["cluster.shard1.opensys.departures"], 4);
    assert_eq!(
        snap.counters["cluster.shard0.timeslices"] + snap.counters["cluster.shard1.timeslices"],
        named("smtsim.timeslice").count() as u64 / 2
    );

    // Dispatcher events first, then shard 0's, then shard 1's; and every
    // track is stamped by one clock — timestamps never step back on it.
    let shard_of = |track: &str| match track.split_once('/') {
        Some(("cluster.shard0", _)) => 1,
        Some(("cluster.shard1", _)) => 2,
        _ => 0,
    };
    let owners: Vec<u8> = snap.events.iter().map(|e| shard_of(&e.track)).collect();
    assert!(owners.windows(2).all(|w| w[0] <= w[1]), "merge order");
    assert!(owners.contains(&1) && owners.contains(&2));
    let mut last = std::collections::HashMap::new();
    for e in &snap.events {
        let prev = last.insert(e.track.as_str(), e.ts_cycles).unwrap_or(0);
        assert!(prev <= e.ts_cycles, "clock stepped back on {}", e.track);
    }
    // A shard's clock is its own: each of its timeslice spans covers exactly
    // one timeslice, however the other shard's thread was scheduled (with a
    // shared clock the other shard would move it mid-span).
    for shard in ["cluster.shard0/smtsim", "cluster.shard1/smtsim"] {
        let spans: Vec<_> = named("smtsim.timeslice")
            .filter(|e| e.track == shard)
            .collect();
        assert!(!spans.is_empty());
        for pair in spans.chunks(2) {
            assert_eq!(pair[0].phase, EventPhase::SpanStart);
            assert_eq!(pair[1].phase, EventPhase::SpanEnd);
            assert_eq!(pair[1].ts_cycles - pair[0].ts_cycles, cfg.timeslice);
        }
    }
}

//! Telemetry-subsystem integration tests: serde round-trips for the event
//! and metric models, event ordering/nesting across a real SOS run, and a
//! golden schema check for the Chrome trace exporter.

use smt_symbiosis::sos::sos::{SosConfig, SosScheduler};
use smt_symbiosis::sos::telemetry::{
    chrome_trace_value, Attr, Event, EventPhase, Histogram, Metric, MetricKind, Telemetry,
};
use smt_symbiosis::sos::ExperimentSpec;
use smtsim::{ConflictCounters, ThreadStats};

fn round_trip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

#[test]
fn events_round_trip_in_every_phase() {
    for phase in [
        EventPhase::SpanStart,
        EventPhase::SpanEnd,
        EventPhase::Instant,
        EventPhase::Counter,
    ] {
        let e = Event {
            ts_cycles: 12_345,
            phase,
            track: "scheduler".into(),
            name: "sos.candidate".into(),
            attrs: vec![
                Attr::num("candidates", 10.0),
                Attr::text("spec", "Jsb(6,3,3)"),
            ],
        };
        assert_eq!(round_trip(&e), e, "{phase:?}");
    }
}

#[test]
fn metrics_and_snapshots_round_trip() {
    let mut h = Histogram::default();
    h.record(0);
    h.record(513);
    let metrics = vec![
        Metric {
            name: "c".into(),
            kind: MetricKind::Counter,
            counter: Some(42),
            gauge: None,
            histogram: None,
        },
        Metric {
            name: "g".into(),
            kind: MetricKind::Gauge,
            counter: None,
            gauge: Some(-1.25),
            histogram: None,
        },
        Metric {
            name: "h".into(),
            kind: MetricKind::Histogram,
            counter: None,
            gauge: None,
            histogram: Some(h),
        },
    ];
    for m in &metrics {
        assert_eq!(&round_trip(m), m);
    }
    // The same three metrics and one event, recorded through a handle: the
    // drained snapshot round-trips and exports exactly those rows.
    let tel = Telemetry::tracing();
    tel.counter_add("c", 42);
    tel.gauge_set("g", -1.25);
    tel.histogram_record("h", 0);
    tel.histogram_record("h", 513);
    tel.set_clock(7);
    tel.instant("opensys", "opensys.arrival", Vec::new);
    let snap = tel.drain();
    assert_eq!(round_trip(&snap), snap);
    assert_eq!(snap.metric_rows(), metrics);
    assert_eq!(
        snap.events,
        vec![Event {
            ts_cycles: 7,
            phase: EventPhase::Instant,
            track: "opensys".into(),
            name: "opensys.arrival".into(),
            attrs: vec![],
        }]
    );
}

#[test]
fn thread_stats_and_conflict_counters_round_trip() {
    let t = ThreadStats {
        committed: 123_456,
        ..Default::default()
    };
    assert_eq!(round_trip(&t), t);
    let c = ConflictCounters {
        int_queue: 9,
        fp_queue: 2,
        ..Default::default()
    };
    assert_eq!(round_trip(&c), c);
}

/// Index of the first event matching `(phase, name)`.
fn find(events: &[Event], phase: EventPhase, name: &str) -> usize {
    events
        .iter()
        .position(|e| e.phase == phase && e.name == name)
        .unwrap_or_else(|| panic!("no {phase:?} {name}"))
}

#[test]
fn sos_run_emits_well_nested_ordered_events() {
    let tel = Telemetry::tracing();
    let spec: ExperimentSpec = "Jsb(4,2,2)".parse().unwrap();
    let cfg = SosConfig {
        cycle_scale: 20_000,
        calibration_cycles: 15_000,
        ..SosConfig::default()
    };
    let report = SosScheduler::evaluate_experiment_traced(&spec, &cfg, 0, &tel);
    let snap = tel.drain();
    let events = &snap.events;
    assert!(!events.is_empty());

    // Each track is stamped by one clock (the experiment's, or its task's
    // child handle's), so timestamps never step back on a track; occupancy
    // samples are stamped inside their slice.
    let mut last = std::collections::HashMap::new();
    for e in events {
        let prev = last.insert(e.track.as_str(), e.ts_cycles).unwrap_or(0);
        assert!(
            prev <= e.ts_cycles,
            "clock stepped back on {}: {e:?}",
            e.track
        );
    }

    // Every span is balanced, per (track, name).
    let mut names: Vec<(&str, &str)> = events
        .iter()
        .filter(|e| e.phase == EventPhase::SpanStart)
        .map(|e| (e.track.as_str(), e.name.as_str()))
        .collect();
    names.dedup();
    for (track, name) in names {
        let count = |phase| {
            events
                .iter()
                .filter(|e| e.phase == phase && e.track == track && e.name == name)
                .count()
        };
        assert_eq!(
            count(EventPhase::SpanStart),
            count(EventPhase::SpanEnd),
            "unbalanced span {track}/{name}"
        );
    }

    // One task span on its own track per candidate, plus the calibration's,
    // each inside the experiment span in time.
    let candidates = report.candidates.len();
    let experiment = |phase| events[find(events, phase, "sos.experiment")].ts_cycles;
    let tasks: Vec<&Event> = events
        .iter()
        .filter(|e| matches!(e.name.as_str(), "sos.calibrate" | "sos.candidate"))
        .collect();
    assert_eq!(tasks.len(), 2 * (candidates + 1));
    for (i, pair) in tasks.chunks(2).enumerate() {
        let track = match i {
            0 => "sos.calibrate/scheduler".to_string(),
            _ => format!("sos.candidate{}/scheduler", i - 1),
        };
        assert_eq!(
            (pair[0].phase, pair[1].phase),
            (EventPhase::SpanStart, EventPhase::SpanEnd)
        );
        assert!(pair.iter().all(|e| e.track == track), "{pair:?}");
        assert!(experiment(EventPhase::SpanStart) <= pair[0].ts_cycles);
        assert!(pair[1].ts_cycles <= experiment(EventPhase::SpanEnd));
    }

    // One sample-result and one symbios-result instant per candidate.
    let count_named = |phase, name: &str| {
        events
            .iter()
            .filter(|e| e.phase == phase && e.name == name)
            .count()
    };
    assert_eq!(
        count_named(EventPhase::Instant, "sos.sample_result"),
        candidates
    );
    assert_eq!(
        count_named(EventPhase::Instant, "sos.symbios_result"),
        candidates
    );
    // One predictor-decision instant per predictor.
    assert_eq!(
        count_named(EventPhase::Instant, "sos.predictor_decision"),
        smt_symbiosis::sos::PredictorKind::ALL.len()
    );

    // The smtsim bridge recorded timeslices and conflict metrics.
    assert!(count_named(EventPhase::SpanStart, "smtsim.timeslice") > 0);
    assert!(snap.counters.contains_key("smtsim.cycles"));
    assert!(snap.counters.contains_key("sos.experiments"));
}

#[test]
fn chrome_trace_matches_golden_schema() {
    let events = vec![
        Event {
            ts_cycles: 500,
            phase: EventPhase::SpanStart,
            track: "scheduler".into(),
            name: "phase".into(),
            attrs: vec![Attr::text("spec", "J")],
        },
        Event {
            ts_cycles: 1_000,
            phase: EventPhase::Instant,
            track: "scheduler".into(),
            name: "tick".into(),
            attrs: vec![Attr::num("x", 1.5)],
        },
        Event {
            ts_cycles: 1_500,
            phase: EventPhase::SpanEnd,
            track: "scheduler".into(),
            name: "phase".into(),
            attrs: vec![],
        },
    ];
    let json = serde_json::to_string(&chrome_trace_value(&events)).unwrap();
    let golden = concat!(
        r#"{"traceEvents":["#,
        r#"{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"scheduler"}},"#,
        r#"{"name":"phase","cat":"scheduler","ph":"B","ts":1.0,"pid":1,"tid":1,"args":{"spec":"J"}},"#,
        r#"{"name":"tick","cat":"scheduler","ph":"i","ts":2.0,"pid":1,"tid":1,"s":"t","args":{"x":1.5}},"#,
        r#"{"name":"phase","cat":"scheduler","ph":"E","ts":3.0,"pid":1,"tid":1}"#,
        r#"],"displayTimeUnit":"ms","otherData":{"clockMHz":500}}"#,
    );
    assert_eq!(json, golden);
}

#[test]
fn disabled_telemetry_records_nothing_during_sos_run() {
    let tel = Telemetry::off();
    assert!(!tel.is_on());
    let spec: ExperimentSpec = "Jsb(4,2,2)".parse().unwrap();
    let cfg = SosConfig {
        cycle_scale: 40_000,
        calibration_cycles: 10_000,
        ..SosConfig::default()
    };
    let _ = SosScheduler::evaluate_experiment_traced(&spec, &cfg, 0, &tel);
    let snap = tel.drain();
    assert!(snap.events.is_empty());
    assert!(snap.metric_rows().is_empty());
}

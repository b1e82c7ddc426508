//! The evaluation cache must be invisible in the results: a warm-cache run
//! has to produce byte-identical reports to a cold run, and a disk store
//! that is stale or corrupt must be ignored, never trusted.
//!
//! The process-wide cache is shared test-global state, so every test that
//! touches it holds `CACHE_LOCK` and restores the disabled/empty state
//! before releasing it (the rest of the suite assumes uncached behavior).

use smt_symbiosis::sos::cache::{self, EvalCache, Payload};
use smt_symbiosis::sos::sos::{SosConfig, SosScheduler};
use smt_symbiosis::sos::ws::SoloRates;
use smt_symbiosis::sos::ExperimentSpec;
use std::sync::Mutex;

static CACHE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn quick_cfg() -> SosConfig {
    SosConfig {
        cycle_scale: 50_000,
        calibration_cycles: 5_000,
        ..SosConfig::default()
    }
}

fn spec() -> ExperimentSpec {
    "Jsb(4,2,2)".parse().unwrap()
}

/// Unique scratch directory for a disk-store test.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sos-cache-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn warm_cache_rerun_is_byte_identical_to_cold_run() {
    let _guard = lock();
    cache::disable();
    cache::clear();
    let cfg = quick_cfg();
    let spec = spec();

    let cold = SosScheduler::evaluate_experiment(&spec, &cfg);
    let cold_json = serde_json::to_string(&cold).unwrap();

    cache::enable();
    let prime = SosScheduler::evaluate_experiment(&spec, &cfg);
    let after_prime = cache::stats();
    assert!(
        after_prime.misses > 0,
        "priming must populate the cache: {after_prime:?}"
    );
    let warm = SosScheduler::evaluate_experiment(&spec, &cfg);
    let after_warm = cache::stats();

    // Every stage the evaluation ran is served from what it stored, one
    // stage function at a time (how a caller composes the protocol).
    let _ = SosScheduler::calibrate(&spec, &cfg);
    let symbios_cycles = spec.symbios_cycles(cfg.cycle_scale);
    for candidate in SosScheduler::candidates(&spec, &cfg) {
        let _ = SosScheduler::sample_candidate(&spec, &cfg, &candidate);
        let _ = SosScheduler::symbios_candidate(&spec, &cfg, &candidate, symbios_cycles);
    }
    let after_stages = cache::stats();

    cache::disable();
    cache::clear();

    assert_eq!(
        cold_json,
        serde_json::to_string(&prime).unwrap(),
        "a caching (but cold) run must not change the report"
    );
    assert_eq!(
        cold_json,
        serde_json::to_string(&warm).unwrap(),
        "a warm-cache rerun must be byte-identical to the cold run"
    );
    assert!(
        after_warm.hits > after_prime.hits,
        "the rerun must be served from the cache: {after_prime:?} -> {after_warm:?}"
    );
    assert_eq!(
        after_warm.misses, after_prime.misses,
        "the rerun must not fall through to the simulator for any cached \
         entry: {after_prime:?} -> {after_warm:?}"
    );
    assert_eq!(
        after_stages.misses, after_prime.misses,
        "calibrate, sample_candidate and symbios_candidate must hit what \
         evaluate_experiment stored: {after_prime:?} -> {after_stages:?}"
    );
    assert!(after_stages.hits > after_warm.hits);
}

#[test]
fn warm_calibration_and_sampling_match_cold() {
    let _guard = lock();
    cache::disable();
    cache::clear();
    let cfg = quick_cfg();
    let spec = spec();
    let candidate = SosScheduler::candidates(&spec, &cfg)
        .into_iter()
        .next()
        .expect("Jsb(4,2,2) has candidates");

    let cold_solo = serde_json::to_string(SosScheduler::calibrate(&spec, &cfg).as_slice()).unwrap();
    let cold_rots =
        serde_json::to_string(&SosScheduler::sample_candidate(&spec, &cfg, &candidate)).unwrap();

    cache::enable();
    for _ in 0..2 {
        // First pass computes and stores, second is served from the cache;
        // both must serialize identically to the uncached run.
        let solo = SosScheduler::calibrate(&spec, &cfg);
        assert_eq!(cold_solo, serde_json::to_string(solo.as_slice()).unwrap());
        let rots = SosScheduler::sample_candidate(&spec, &cfg, &candidate);
        assert_eq!(cold_rots, serde_json::to_string(&rots).unwrap());
    }
    let stats = cache::stats();
    cache::disable();
    cache::clear();
    assert!(stats.hits >= 2, "second pass must hit: {stats:?}");
}

#[test]
fn disk_store_round_trips_entries() {
    let dir = scratch_dir("roundtrip");

    let writer = EvalCache::new();
    writer.enable();
    assert_eq!(writer.attach_disk(&dir).unwrap(), 0, "fresh store is empty");
    let rates = writer.solo_rates("solo|k1", || SoloRates::new(vec![1.25, 2.5]));
    assert_eq!(rates.as_slice(), &[1.25, 2.5]);

    let reader = EvalCache::new();
    reader.enable();
    assert_eq!(reader.attach_disk(&dir).unwrap(), 1, "entry must reload");
    let reloaded = reader.solo_rates("solo|k1", || panic!("must be served from disk"));
    assert_eq!(reloaded.as_slice(), &[1.25, 2.5]);
    assert_eq!(reader.stats().hits, 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_version_header_invalidates_the_whole_store() {
    let dir = scratch_dir("stale-header");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(cache::STORE_FILE);
    // A parseable header from a different build, followed by an entry that
    // would validate — none of it may load.
    std::fs::write(
        &path,
        "{\"key_schema\":999,\"crate_version\":\"0.0.0-other\"}\n\
         {\"key\":\"solo|k1\",\"payload\":{\"solo\":[1.0],\"sample\":null,\"symbios\":null,\"bench_ipc\":null}}\n",
    )
    .unwrap();

    let c = EvalCache::new();
    c.enable();
    assert_eq!(
        c.attach_disk(&dir).unwrap(),
        0,
        "entries written under a different header must be discarded"
    );
    let rates = c.solo_rates("solo|k1", || SoloRates::new(vec![9.0]));
    assert_eq!(rates.as_slice(), &[9.0], "stale entry must not be served");
    // The file was rewritten under the current header: a second cache sees
    // the store as valid and loads the freshly written entry.
    let again = EvalCache::new();
    again.enable();
    assert_eq!(again.attach_disk(&dir).unwrap(), 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_entry_lines_are_skipped_not_trusted() {
    let dir = scratch_dir("corrupt-entry");

    let writer = EvalCache::new();
    writer.enable();
    writer.attach_disk(&dir).unwrap();
    let _ = writer.solo_rates("solo|good", || SoloRates::new(vec![3.0]));

    // Splice garbage between the header and the valid entry.
    let path = dir.join(cache::STORE_FILE);
    let contents = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<&str> = contents.lines().collect();
    assert_eq!(lines.len(), 2, "header + one entry: {contents:?}");
    lines.insert(1, "{not json at all");
    lines.insert(2, "{\"key\":\"missing-payload\"}");
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();

    let reader = EvalCache::new();
    reader.enable();
    assert_eq!(
        reader.attach_disk(&dir).unwrap(),
        1,
        "only the valid entry may load"
    );
    let rates = reader.solo_rates("solo|good", || panic!("valid entry must be served"));
    assert_eq!(rates.as_slice(), &[3.0]);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mistyped_disk_payload_is_recomputed() {
    let dir = scratch_dir("mistyped");

    let writer = EvalCache::new();
    writer.enable();
    writer.attach_disk(&dir).unwrap();
    // Store a symbios payload, then ask for solo rates under the same key.
    writer.insert(
        "solo|k1",
        Payload {
            symbios: Some(smt_symbiosis::sos::cache::SymbiosEval {
                committed: vec![1],
                cycles: 1,
            }),
            ..Payload::default()
        },
    );

    let reader = EvalCache::new();
    reader.enable();
    assert_eq!(reader.attach_disk(&dir).unwrap(), 1);
    let rates = reader.solo_rates("solo|k1", || SoloRates::new(vec![4.0]));
    assert_eq!(rates.as_slice(), &[4.0]);
    assert_eq!(reader.stats().hits, 0);
    assert_eq!(reader.stats().misses, 1);

    let _ = std::fs::remove_dir_all(&dir);
}

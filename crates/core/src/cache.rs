//! Content-addressed memoization of deterministic evaluation results.
//!
//! PR 2's replay harness proved that every evaluation this workspace runs is
//! a pure function of its inputs: the same (machine configuration, workload,
//! seed, schedule, timeslice/rotation parameters) always produces
//! byte-identical results. That makes results safely *cacheable*, and the
//! figure/table suite — which re-runs solo-IPC calibration per binary and
//! re-simulates every candidate schedule from scratch — mostly re-derives
//! values it has already computed.
//!
//! [`EvalCache`] memoizes the three expensive evaluation primitives:
//!
//! * solo-IPC calibration ([`SoloRates`]) — [`EvalCache::solo_rates`],
//! * per-schedule sample rotations ([`RotationStats`]) and symbios-phase
//!   totals — [`EvalCache::sample_rotations`], [`EvalCache::symbios`],
//! * the open system's per-benchmark IPC table —
//!   [`EvalCache::bench_rates`].
//!
//! Keys are flat strings assembled from the stable machine-config hash
//! ([`smtsim::MachineConfig::stable_hash`]), the workload/jobmix spec label,
//! the RNG seed, the schedule's canonical execution key (the exact tuple
//! sequence a rotation runs), and the timeslice/rotation parameters — see
//! the `*_key` builders. Anything that can change a simulated result is in
//! the key; anything else (telemetry, worker counts) is excluded because it
//! cannot.
//!
//! Storage is an in-memory map plus an optional on-disk JSONL store
//! (conventionally `results/cache/eval-cache.jsonl`, see
//! [`EvalCache::attach_disk`]). The disk file starts with a versioned
//! header; a header whose [`KEY_SCHEMA`] or crate version disagrees with
//! this build invalidates the whole file, and individual entries that fail
//! to parse or fail validation are ignored rather than trusted.
//!
//! The cache is **opt-in**: the process-wide instance behind the free
//! functions ([`enable`], [`solo_rates`], ...) starts disabled, so library
//! users and the test suite see uncached behavior unless they ask for it.
//! The experiment binaries enable it via `sos_bench::init_cache`.

use crate::runner::RotationStats;
use crate::schedule::Schedule;
use crate::ws::SoloRates;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use workloads::Benchmark;

/// Version of the key layout produced by the `*_key` builders *and* of the
/// evaluation semantics behind them (e.g. how many warm-up rotations a
/// candidate evaluation runs). Bump it whenever either changes: a disk store
/// written under a different schema is discarded wholesale.
pub const KEY_SCHEMA: u32 = 1;

/// Crate version baked into the disk header; entries written by a different
/// build of the crate are discarded (simulator changes legitimately change
/// results without touching the key schema).
pub const CRATE_VERSION: &str = env!("CARGO_PKG_VERSION");

/// File name of the JSONL store inside the directory given to
/// [`EvalCache::attach_disk`].
pub const STORE_FILE: &str = "eval-cache.jsonl";

/// Totals of a symbios phase: everything `WS(t)` needs, without the
/// per-slice detail (a symbios phase runs many rotations; storing every
/// slice would dwarf the sample entries for no consumer).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SymbiosEval {
    /// Committed instructions per pool thread over the phase.
    pub committed: Vec<u64>,
    /// Cycles the phase ran.
    pub cycles: u64,
}

/// One benchmark's measured solo IPC (the open system's calibration table,
/// stored as a deterministic list rather than a `HashMap` so serialized
/// entries are byte-stable).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchRate {
    /// The benchmark measured.
    pub bench: Benchmark,
    /// Its solo IPC on the keyed machine.
    pub ipc: f64,
}

/// A cached value. Exactly one field is populated; which one is implied by
/// the key prefix. (The vendored serde derives support structs but not
/// data-carrying enums, so this is a struct of options rather than an enum.)
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Payload {
    /// Solo-IPC calibration result ([`SoloRates`] as a plain vector).
    pub solo: Option<Vec<f64>>,
    /// Sample-phase rotations of one candidate schedule.
    pub sample: Option<Vec<RotationStats>>,
    /// Symbios-phase totals of one candidate schedule.
    pub symbios: Option<SymbiosEval>,
    /// The open system's per-benchmark solo-IPC table.
    pub bench_ipc: Option<Vec<BenchRate>>,
}

/// First line of the JSONL store: identifies the key schema and crate
/// version the entries were written under.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Header {
    key_schema: u32,
    crate_version: String,
}

impl Header {
    fn current() -> Self {
        Header {
            key_schema: KEY_SCHEMA,
            crate_version: CRATE_VERSION.to_string(),
        }
    }
}

/// One stored line after the header.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Entry {
    key: String,
    payload: Payload,
}

/// Hit/miss totals since the cache was created (or last [`EvalCache::clear`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to computation (including entries present
    /// but rejected by validation).
    pub misses: u64,
}

// ---------------------------------------------------------------------------
// Key builders
// ---------------------------------------------------------------------------

/// The canonical execution key of a schedule: the exact coschedule sequence
/// one rotation runs, each tuple in canonical (sorted) form.
///
/// Two schedules with this key equal execute identically, slice for slice —
/// which is the equivalence caching needs. (It is finer than
/// [`Schedule::canonical_key`], which identifies the unordered tuple *set*:
/// two representatives of the same set can run their slices in different
/// orders and measure different counters.)
pub fn schedule_key(schedule: &Schedule) -> String {
    schedule
        .tuples()
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(">")
}

/// Key of a solo-IPC calibration ([`crate::runner::Runner::calibrate_solo`]).
pub fn solo_key(machine_hash: u64, workload: &str, seed: u64, warmup: u64, measure: u64) -> String {
    format!("solo|m{machine_hash:016x}|w{workload}|s{seed:x}|c{warmup}+{measure}")
}

/// Key of one candidate's sample-phase rotations.
pub fn sample_key(
    machine_hash: u64,
    workload: &str,
    seed: u64,
    schedule: &str,
    timeslice: u64,
    rotations: usize,
) -> String {
    format!(
        "sample|m{machine_hash:016x}|w{workload}|s{seed:x}|k{schedule}|t{timeslice}|r{rotations}"
    )
}

/// Key of one candidate's symbios-phase totals.
pub fn symbios_key(
    machine_hash: u64,
    workload: &str,
    seed: u64,
    schedule: &str,
    timeslice: u64,
    cycles: u64,
) -> String {
    format!("symbios|m{machine_hash:016x}|w{workload}|s{seed:x}|k{schedule}|t{timeslice}|y{cycles}")
}

/// Key of the open system's per-benchmark calibration table.
pub fn bench_ipc_key(machine_hash: u64, cycles: u64, seed: u64) -> String {
    format!("bipc|m{machine_hash:016x}|c{cycles}|s{seed:x}")
}

// ---------------------------------------------------------------------------
// The cache
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Inner {
    map: HashMap<String, Payload>,
    disk: Option<PathBuf>,
}

/// A content-addressed evaluation cache: in-memory map, optional JSONL
/// write-through store, hit/miss counters.
///
/// Lookups and inserts are no-ops while the cache is disabled (the initial
/// state), so wrapping a computation in a `get_or_compute` helper costs
/// nothing until someone opts in. All methods take `&self` and are safe to
/// call from [`crate::par::parallel_map_with_workers`] workers; two workers
/// racing on the same key simply compute the same (deterministic) value
/// twice and the second insert overwrites the first with an identical
/// payload.
pub struct EvalCache {
    enabled: AtomicBool,
    hits: AtomicU64,
    misses: AtomicU64,
    inner: Mutex<Inner>,
}

impl EvalCache {
    /// A fresh, empty, **disabled** cache.
    pub fn new() -> Self {
        EvalCache {
            enabled: AtomicBool::new(false),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Turns lookups and inserts on.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::SeqCst);
    }

    /// Turns the cache off; entries are kept but not consulted.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::SeqCst);
    }

    /// Whether lookups are currently served.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    /// Drops every entry, detaches the disk store, and zeroes the counters
    /// (the enabled flag is untouched).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.disk = None;
        self.hits.store(0, Ordering::SeqCst);
        self.misses.store(0, Ordering::SeqCst);
    }

    /// Hit/miss totals so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::SeqCst),
            misses: self.misses.load(Ordering::SeqCst),
        }
    }

    /// Number of entries currently held in memory.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the in-memory layer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attaches (and loads) the JSONL store at `dir/eval-cache.jsonl`,
    /// creating the directory and file as needed. Returns how many entries
    /// were loaded into memory.
    ///
    /// If the file's header is missing, unparsable, or names a different
    /// [`KEY_SCHEMA`] or crate version, the whole file is considered stale:
    /// it is truncated and rewritten with a fresh header, and 0 entries
    /// load. Entry lines that fail to parse are skipped. Subsequent inserts
    /// are appended to the file.
    pub fn attach_disk(&self, dir: &Path) -> std::io::Result<usize> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(STORE_FILE);
        let mut loaded = 0usize;
        let mut valid_store = false;
        if let Ok(contents) = std::fs::read_to_string(&path) {
            let mut lines = contents.lines();
            let header_ok = lines
                .next()
                .and_then(|l| serde_json::from_str::<Header>(l).ok())
                .is_some_and(|h| h == Header::current());
            if header_ok {
                valid_store = true;
                let mut inner = self.lock();
                for line in lines {
                    if let Ok(entry) = serde_json::from_str::<Entry>(line) {
                        inner.map.insert(entry.key, entry.payload);
                        loaded += 1;
                    }
                }
            }
        }
        if !valid_store {
            // Stale or absent: start a fresh store under the current header.
            let mut f = std::fs::File::create(&path)?;
            writeln!(
                f,
                "{}",
                serde_json::to_string(&Header::current()).expect("header serializes")
            )?;
        }
        self.lock().disk = Some(path);
        Ok(loaded)
    }

    /// Inserts an entry, writing through to the disk store if one is
    /// attached. A disk write failure silently detaches the store (caching
    /// is best-effort; the computation already succeeded).
    pub fn insert(&self, key: &str, payload: Payload) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.lock();
        if let Some(path) = inner.disk.clone() {
            let line = serde_json::to_string(&Entry {
                key: key.to_string(),
                payload: payload.clone(),
            })
            .expect("cache entry serializes");
            let appended = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .and_then(|mut f| writeln!(f, "{line}"));
            if appended.is_err() {
                inner.disk = None;
            }
        }
        inner.map.insert(key.to_string(), payload);
    }

    /// Memoizes a solo-IPC calibration. Cached vectors must be non-empty
    /// with positive, finite rates (the [`SoloRates`] invariant); anything
    /// else counts as a miss and is recomputed.
    pub fn solo_rates(&self, key: &str, compute: impl FnOnce() -> SoloRates) -> SoloRates {
        if !self.is_enabled() {
            return compute();
        }
        if let Some(v) = self.raw_get(key).and_then(|p| p.solo) {
            if !v.is_empty() && v.iter().all(|r| r.is_finite() && *r > 0.0) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return SoloRates::new(v);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let out = compute();
        self.insert(
            key,
            Payload {
                solo: Some(out.as_slice().to_vec()),
                ..Payload::default()
            },
        );
        out
    }

    /// Memoizes one candidate's sample-phase rotations. Cached entries must
    /// be non-empty and slice-consistent; anything else is recomputed.
    pub fn sample_rotations(
        &self,
        key: &str,
        compute: impl FnOnce() -> Vec<RotationStats>,
    ) -> Vec<RotationStats> {
        if !self.is_enabled() {
            return compute();
        }
        if let Some(rots) = self.raw_get(key).and_then(|p| p.sample) {
            let consistent = !rots.is_empty()
                && rots
                    .iter()
                    .all(|r| !r.slices.is_empty() && r.slices.len() == r.tuples.len());
            if consistent {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return rots;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let out = compute();
        self.insert(
            key,
            Payload {
                sample: Some(out.clone()),
                ..Payload::default()
            },
        );
        out
    }

    /// Memoizes one candidate's symbios-phase totals. Cached entries must
    /// cover a non-empty interval; anything else is recomputed.
    pub fn symbios(&self, key: &str, compute: impl FnOnce() -> SymbiosEval) -> SymbiosEval {
        if !self.is_enabled() {
            return compute();
        }
        if let Some(ev) = self.raw_get(key).and_then(|p| p.symbios) {
            if ev.cycles > 0 && !ev.committed.is_empty() {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return ev;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let out = compute();
        self.insert(
            key,
            Payload {
                symbios: Some(out.clone()),
                ..Payload::default()
            },
        );
        out
    }

    /// Memoizes the open system's per-benchmark solo-IPC table. Cached
    /// tables must be non-empty with positive, finite rates.
    pub fn bench_rates(
        &self,
        key: &str,
        compute: impl FnOnce() -> Vec<BenchRate>,
    ) -> Vec<BenchRate> {
        if !self.is_enabled() {
            return compute();
        }
        if let Some(rates) = self.raw_get(key).and_then(|p| p.bench_ipc) {
            if !rates.is_empty() && rates.iter().all(|r| r.ipc.is_finite() && r.ipc > 0.0) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return rates;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let out = compute();
        self.insert(
            key,
            Payload {
                bench_ipc: Some(out.clone()),
                ..Payload::default()
            },
        );
        out
    }

    fn raw_get(&self, key: &str) -> Option<Payload> {
        self.lock().map.get(key).cloned()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Default for EvalCache {
    fn default() -> Self {
        EvalCache::new()
    }
}

// ---------------------------------------------------------------------------
// The process-wide cache
// ---------------------------------------------------------------------------

fn global() -> &'static EvalCache {
    static GLOBAL: OnceLock<EvalCache> = OnceLock::new();
    GLOBAL.get_or_init(EvalCache::new)
}

/// Enables the process-wide cache (it starts disabled).
pub fn enable() {
    global().enable();
}

/// Disables the process-wide cache; entries are kept but not consulted.
pub fn disable() {
    global().disable();
}

/// Whether the process-wide cache is enabled.
pub fn is_enabled() -> bool {
    global().is_enabled()
}

/// Clears the process-wide cache (entries, disk attachment, counters).
pub fn clear() {
    global().clear();
}

/// Hit/miss totals of the process-wide cache.
pub fn stats() -> CacheStats {
    global().stats()
}

/// Attaches the process-wide cache to a disk store; see
/// [`EvalCache::attach_disk`].
pub fn attach_disk(dir: &Path) -> std::io::Result<usize> {
    global().attach_disk(dir)
}

/// [`EvalCache::solo_rates`] on the process-wide cache.
pub fn solo_rates(key: &str, compute: impl FnOnce() -> SoloRates) -> SoloRates {
    global().solo_rates(key, compute)
}

/// [`EvalCache::sample_rotations`] on the process-wide cache.
pub fn sample_rotations(
    key: &str,
    compute: impl FnOnce() -> Vec<RotationStats>,
) -> Vec<RotationStats> {
    global().sample_rotations(key, compute)
}

/// [`EvalCache::symbios`] on the process-wide cache.
pub fn symbios(key: &str, compute: impl FnOnce() -> SymbiosEval) -> SymbiosEval {
    global().symbios(key, compute)
}

/// [`EvalCache::bench_rates`] on the process-wide cache.
pub fn bench_rates(key: &str, compute: impl FnOnce() -> Vec<BenchRate>) -> Vec<BenchRate> {
    global().bench_rates(key, compute)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_cache_computes_every_time_and_counts_nothing() {
        let c = EvalCache::new();
        let mut calls = 0;
        for _ in 0..3 {
            let ev = c.symbios("k", || {
                calls += 1;
                SymbiosEval {
                    committed: vec![1],
                    cycles: 10,
                }
            });
            assert_eq!(ev.cycles, 10);
        }
        assert_eq!(calls, 3);
        assert_eq!(c.stats(), CacheStats::default());
        assert!(c.is_empty());
    }

    #[test]
    fn enabled_cache_hits_after_first_miss() {
        let c = EvalCache::new();
        c.enable();
        let mut calls = 0;
        for _ in 0..3 {
            let solo = c.solo_rates("k", || {
                calls += 1;
                SoloRates::new(vec![1.5, 2.0])
            });
            assert_eq!(solo.as_slice(), &[1.5, 2.0]);
        }
        assert_eq!(calls, 1);
        assert_eq!(c.stats(), CacheStats { hits: 2, misses: 1 });
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn mistyped_or_invalid_payloads_count_as_misses() {
        let c = EvalCache::new();
        c.enable();
        // A symbios payload under a key we then ask for solo rates: the typed
        // getter must not trust it.
        c.insert(
            "k",
            Payload {
                symbios: Some(SymbiosEval {
                    committed: vec![1],
                    cycles: 1,
                }),
                ..Payload::default()
            },
        );
        let solo = c.solo_rates("k", || SoloRates::new(vec![1.0]));
        assert_eq!(solo.as_slice(), &[1.0]);
        // A corrupt solo vector (non-positive rate) is rejected, not trusted.
        c.insert(
            "bad",
            Payload {
                solo: Some(vec![0.0, -1.0]),
                ..Payload::default()
            },
        );
        let solo = c.solo_rates("bad", || SoloRates::new(vec![2.0]));
        assert_eq!(solo.as_slice(), &[2.0]);
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn payload_round_trips_through_json() {
        let p = Payload {
            sample: Some(vec![RotationStats {
                slices: vec![],
                tuples: vec![],
            }]),
            ..Payload::default()
        };
        let json = serde_json::to_string(&p).unwrap();
        let back: Payload = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
        let e = Entry {
            key: "sample|m00|wX|s0|k01>23|t5000|r3".into(),
            payload: p,
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: Entry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn keys_separate_every_component() {
        let keys = [
            solo_key(1, "Jsb(6,3,3)", 2, 3, 4),
            solo_key(9, "Jsb(6,3,3)", 2, 3, 4),
            solo_key(1, "Jsb(4,2,2)", 2, 3, 4),
            solo_key(1, "Jsb(6,3,3)", 9, 3, 4),
            solo_key(1, "Jsb(6,3,3)", 2, 9, 4),
            solo_key(1, "Jsb(6,3,3)", 2, 3, 9),
            sample_key(1, "Jsb(6,3,3)", 2, "012>345", 5, 6),
            sample_key(1, "Jsb(6,3,3)", 2, "045>123", 5, 6),
            sample_key(1, "Jsb(6,3,3)", 2, "012>345", 7, 6),
            sample_key(1, "Jsb(6,3,3)", 2, "012>345", 5, 7),
            symbios_key(1, "Jsb(6,3,3)", 2, "012>345", 5, 6),
            bench_ipc_key(1, 2, 3),
        ];
        let unique: std::collections::HashSet<&String> = keys.iter().collect();
        assert_eq!(unique.len(), keys.len(), "{keys:?}");
    }

    #[test]
    fn schedule_key_distinguishes_execution_order() {
        // Same canonical tuple set, different rotation order: must key apart.
        let a = Schedule::new(vec![0, 1, 2, 3], 2, 2);
        let b = Schedule::new(vec![2, 3, 0, 1], 2, 2);
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert_ne!(schedule_key(&a), schedule_key(&b));
        assert_eq!(schedule_key(&a), schedule_key(&a.clone()));
    }
}

//! The five workloads. Each builds its inputs from the seed, sets up (several
//! times, so set-up time is a median), runs a timed section whose amount of
//! work is a fixed function of `--seconds`, and hands back a [`Run`].

use crate::outcome::Run;
use crate::trace::Tracer;
use sos_core::opensys::{JobArrival, JOB_KINDS};
use std::collections::HashMap;
use std::time::Instant;
use workloads::Benchmark;

pub mod batch_sos;
pub mod cluster_sat;
pub mod open_fast;
pub mod pipe_matrix;
pub mod serve_loop;

/// Times the set-up is repeated; `setup_s` is the median repetition.
pub const SETUP_REPS: usize = 3;

/// Busy threads (or connections) a workload may use: `min(nproc, 2)`.
pub fn busy_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// What a workload is given.
pub struct Params {
    /// Workload seed: the only source of variation in the generated inputs.
    pub seed: u64,
    /// Run length the work is sized for, in seconds on the reference box.
    pub seconds: u64,
}

/// The seed of the workloads that run one fixed trajectory whatever `--seed`
/// says: `open_fast` and `cluster_sat`, whose cost is chaotic in their inputs
/// (their module documentation has the numbers). Their outputs are pinned
/// for every seed.
pub const FIXED_SEED: u64 = 1285;

/// Runs the named workload.
pub fn run(name: &str, p: &Params, tracer: &mut Tracer) -> Result<Run, String> {
    match name {
        "pipe_matrix" => Ok(pipe_matrix::run(p, tracer)),
        "batch_sos" => Ok(batch_sos::run(p, tracer)),
        "open_fast" => Ok(open_fast::run(p, tracer)),
        "cluster_sat" => Ok(cluster_sat::run(p, tracer)),
        "serve_loop" => serve_loop::run(p, tracer),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// SplitMix64 step: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A balanced job trace: its *content* is the same for every seed, and any
/// dozen consecutive arrivals hold every benchmark once; the seed decides the
/// order inside each dozen and the gaps between arrivals.
///
/// Job `i` of `n` runs benchmark `JOB_KINDS[i % 12]` and is strongly phased
/// when `i % 4 == 3`. Lengths spread evenly from a quarter to seven quarters
/// of `mean_cycles` (in solo cycles, turned into instructions at the
/// benchmark's solo IPC) and are dealt out with a stride coprime to `n`, so
/// every dozen also holds short and long jobs. The seed shuffles each dozen
/// and draws exponential gaps of mean `mean_interarrival`.
///
/// An i.i.d. draw of kinds and lengths, as `ArrivalTrace::generate` makes,
/// moves the committed-instruction total of a few dozen jobs by tens of
/// percent from seed to seed, and every host-time metric with it; where its
/// few very long jobs fall decides how long the system drains under-filled
/// at the end; and a run of like jobs arriving together changes what the
/// scheduler can do for a tenth of the run. Balancing the trace keeps the
/// useful work and the mix in the system the same for every seed, while the
/// coschedules the scheduler gets to see still differ.
pub fn balanced_trace(
    seed: u64,
    jobs: usize,
    mean_cycles: u64,
    mean_interarrival: u64,
    solo: &HashMap<Benchmark, f64>,
) -> Vec<JobArrival> {
    let kinds = JOB_KINDS.len();
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    // About 0.62 n: consecutive jobs land far apart on the length ladder.
    let stride = (1..=(jobs * 5 / 8).max(1))
        .rev()
        .find(|&s| gcd(s, jobs) == 1)
        .unwrap_or(1);
    let mut trace: Vec<JobArrival> = (0..jobs)
        .map(|i| {
            let benchmark = JOB_KINDS[i % kinds];
            let rank = (i * stride) % jobs;
            let cycles = (0.25 + 1.5 * (rank as f64 + 0.5) / jobs as f64) * mean_cycles as f64;
            JobArrival {
                arrival: 0,
                benchmark,
                instructions: ((cycles * solo[&benchmark]) as u64).max(1_000),
                phased: i % 4 == 3,
            }
        })
        .collect();
    let mut state = seed;
    let mut next = || {
        state = mix(state, 0x7ace);
        state
    };
    for dozen in trace.chunks_mut(kinds) {
        for i in (1..dozen.len()).rev() {
            dozen.swap(i, (next() % (i as u64 + 1)) as usize);
        }
    }
    let mut now = 0;
    for job in &mut trace {
        let unit = ((next() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        now += (-(1.0 - unit).ln() * mean_interarrival as f64) as u64;
        job.arrival = now;
    }
    trace
}

/// Runs `f`, returning its result and the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Repeats the set-up [`SETUP_REPS`] times; returns the last result and the
/// seconds each repetition took.
pub fn repeat_setup<R>(mut setup: impl FnMut() -> R) -> (R, Vec<f64>) {
    let mut reps = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (r, s) = timed(&mut setup);
        reps.push(s);
        last = Some(r);
    }
    (last.expect("SETUP_REPS > 0"), reps)
}

/// Peak resident set (`VmHWM`) of a process in MiB; `None` for this process.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_solo() -> HashMap<Benchmark, f64> {
        JOB_KINDS.iter().map(|&b| (b, 1.0)).collect()
    }

    #[test]
    fn balanced_trace_has_the_same_jobs_for_every_seed() {
        let content = |seed| {
            let mut jobs: Vec<(String, u64, bool)> =
                balanced_trace(seed, 36, 500_000, 300_000, &unit_solo())
                    .into_iter()
                    .map(|j| (j.benchmark.name().to_string(), j.instructions, j.phased))
                    .collect();
            jobs.sort();
            jobs
        };
        assert_eq!(content(1), content(2));
        let total: u64 = content(1).iter().map(|j| j.1).sum();
        assert!(
            (total as f64 / 36.0 / 500_000.0 - 1.0).abs() < 1e-3,
            "{total}"
        );
        assert_eq!(content(1).iter().filter(|j| j.2).count(), 9);
        let lengths: std::collections::BTreeSet<u64> = content(1).iter().map(|j| j.1).collect();
        assert_eq!(lengths.len(), 36, "the stride must visit every length once");
    }

    #[test]
    fn every_dozen_of_a_balanced_trace_holds_every_benchmark() {
        let trace = balanced_trace(9, 40, 400_000, 100_000, &unit_solo());
        for dozen in trace.chunks(12).filter(|d| d.len() == 12) {
            let kinds: std::collections::BTreeSet<&str> =
                dozen.iter().map(|j| j.benchmark.name()).collect();
            assert_eq!(kinds.len(), 12);
            let (short, long) = (
                dozen
                    .iter()
                    .map(|j| j.instructions)
                    .min()
                    .expect("non-empty"),
                dozen
                    .iter()
                    .map(|j| j.instructions)
                    .max()
                    .expect("non-empty"),
            );
            assert!(long > 2 * short, "a dozen should mix short and long jobs");
        }
    }

    #[test]
    fn balanced_trace_order_and_timing_follow_the_seed() {
        let a = balanced_trace(1, 36, 500_000, 300_000, &unit_solo());
        let b = balanced_trace(2, 36, 500_000, 300_000, &unit_solo());
        assert_eq!(a, balanced_trace(1, 36, 500_000, 300_000, &unit_solo()));
        assert_ne!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        let span = a.last().expect("non-empty").arrival as f64;
        assert!((0.5..2.0).contains(&(span / (36.0 * 300_000.0))), "{span}");
    }
}

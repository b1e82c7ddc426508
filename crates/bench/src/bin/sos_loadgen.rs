//! `sos-loadgen` — deterministic open-loop load generator for `sos-serve`.
//!
//! Replays a seeded exponential arrival trace (the same `ArrivalTrace`
//! generator the batch §9 experiments use, so a given seed always produces
//! the same job sequence) against a running daemon, then drains it and
//! prints the completed-job count and response-time percentiles.
//!
//! Open-loop means arrivals are paced by the trace, not by completions: the
//! generator never waits for a job to finish before submitting the next, so
//! an overloaded daemon answers `backpressure` (counted and reported) rather
//! than silently slowing the offered load.
//!
//! Usage: `sos-loadgen [--addr HOST:PORT] [--jobs N]
//! [--mean-interarrival CYCLES] [--mean-length CYCLES]
//! [--phased-fraction F] [--seed S] [--pace CYCLES_PER_MS] [--retry-ms MS]
//! [--no-shutdown]`
//!
//! Job lengths are submitted in solo *cycles*; the daemon converts them to
//! instructions with its own calibrated solo IPC. `--pace` maps trace
//! interarrival gaps to wall-clock sleeps (0 = submit as fast as possible).
//! A `backpressure` reply is retried every `--retry-ms` milliseconds (the
//! daemon keeps draining the queue meanwhile); `--retry-ms 0` disables the
//! retry so overload shows up as a rejected count instead — either way the
//! retry count and the total wall time spent backing off appear in the
//! final report, so queueing delay absorbed by the generator is visible.
//! The report also carries what this client saw on the wire: wall-clock
//! round-trip percentiles over every `submit` request, accepted and refused
//! alike (`submit rtt ms  p50 … p95 … p99 …  (n requests)`).
//! By default the daemon is told to `shutdown` after the drain; pass
//! `--no-shutdown` to leave it running for another client.
//!
//! This is a functional driver, not a benchmark: serving-layer throughput
//! and latency are measured by `benchmark/run --workload serve_loop`.

use sos_bench::cli::{self, Flags};
use sos_bench::serve::{Client, Request};
use sos_core::opensys::{ArrivalTrace, ArrivalTraceSpec};
use sos_core::report::percentiles;
use std::time::{Duration, Instant};

struct Args {
    addr: String,
    trace: ArrivalTraceSpec,
    pace: u64,
    retry_ms: u64,
    shutdown: bool,
}

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    Ok(Args {
        addr: flags.value("--addr", "127.0.0.1:7077".to_string())?,
        trace: cli::trace_flags(flags, 200)?,
        pace: flags.value("--pace", 0)?,
        retry_ms: flags.value("--retry-ms", 2)?,
        shutdown: !flags.switch("--no-shutdown"),
    })
}

fn main() {
    let args = cli::parse_or_exit("sos-loadgen", "", parse_args);

    // Job lengths stay in solo cycles (unit IPC): the daemon owns the
    // cycles→instructions conversion via its calibrated solo IPC table.
    let trace = ArrivalTrace::generate_in_cycles(&args.trace);

    let mut client = match Client::connect(&args.addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("sos-loadgen: cannot connect to {}: {e}", args.addr);
            std::process::exit(2);
        }
    };

    let mut accepted = 0usize;
    let mut rejected = 0usize;
    let mut retries = 0usize;
    let mut retry_wait = Duration::ZERO;
    let mut submit_rtt_ms = Vec::new();
    let mut prev_arrival = 0u64;
    for job in &trace.jobs {
        let gap_cycles = job.arrival.saturating_sub(prev_arrival);
        if let Some(gap_ms) = gap_cycles.checked_div(args.pace) {
            std::thread::sleep(Duration::from_millis(gap_ms));
        }
        prev_arrival = job.arrival;
        let req = Request::submit_cycles(job.benchmark.name(), job.instructions, job.phased);
        loop {
            let sent = Instant::now();
            let reply = client.request(&req);
            submit_rtt_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            match reply {
                Ok(resp) if resp.ok => {
                    accepted += 1;
                    break;
                }
                Ok(resp) if resp.error.as_deref() == Some("backpressure") && args.retry_ms > 0 => {
                    // The daemon keeps simulating while we back off, so a
                    // slot opens as soon as a live job departs.
                    retries += 1;
                    let backoff = Instant::now();
                    std::thread::sleep(Duration::from_millis(args.retry_ms));
                    retry_wait += backoff.elapsed();
                }
                Ok(resp) => {
                    rejected += 1;
                    if resp.error.as_deref() != Some("backpressure") {
                        eprintln!(
                            "sos-loadgen: submit rejected: {}",
                            resp.error.as_deref().unwrap_or("unknown error")
                        );
                    }
                    break;
                }
                Err(e) => {
                    eprintln!("sos-loadgen: submit failed: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
    println!(
        "# offered {} jobs (seed {}): {} accepted, {} rejected",
        trace.jobs.len(),
        args.trace.seed,
        accepted,
        rejected,
    );
    println!(
        "# backpressure: {} retries, {:.1} ms total retry wait",
        retries,
        retry_wait.as_secs_f64() * 1e3
    );
    let rtt = percentiles(&submit_rtt_ms);
    println!(
        "submit rtt ms     p50 {:.3}  p95 {:.3}  p99 {:.3}  ({} requests)",
        rtt.p50,
        rtt.p95,
        rtt.p99,
        submit_rtt_ms.len()
    );

    // Drain: blocks until every in-flight job has departed.
    if let Err(e) = client.request(&Request::verb("drain")) {
        eprintln!("sos-loadgen: drain failed: {e}");
        std::process::exit(1);
    }

    let stats = match client.request(&Request::verb("stats")) {
        Ok(resp) => match resp.stats {
            Some(s) => s,
            None => {
                eprintln!("sos-loadgen: stats reply carried no stats payload");
                std::process::exit(1);
            }
        },
        Err(e) => {
            eprintln!("sos-loadgen: stats failed: {e}");
            std::process::exit(1);
        }
    };
    println!("completed {}", stats.completed);
    println!(
        "response cycles   mean {:.0}  p50 {:.0}  p95 {:.0}  p99 {:.0}",
        stats.mean_response, stats.response.p50, stats.response.p95, stats.response.p99
    );
    println!(
        "slowdown          mean {:.3}  p50 {:.3}  p95 {:.3}  p99 {:.3}",
        stats.mean_slowdown, stats.slowdown.p50, stats.slowdown.p95, stats.slowdown.p99
    );
    println!(
        "response approx   p50 {:.0}  p95 {:.0}  p99 {:.0}  (histogram buckets)",
        stats.response_approx.p50, stats.response_approx.p95, stats.response_approx.p99
    );
    println!("resamples {}", stats.resamples);

    if args.shutdown {
        match client.request(&Request::verb("shutdown")) {
            Ok(resp) if resp.ok => {}
            Ok(resp) => eprintln!(
                "sos-loadgen: shutdown refused: {}",
                resp.error.as_deref().unwrap_or("unknown error")
            ),
            Err(e) => eprintln!("sos-loadgen: shutdown failed: {e}"),
        }
    }
}

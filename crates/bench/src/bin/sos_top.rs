//! `sos-top` — live terminal dashboard for a running `sos-serve`.
//!
//! Polls the daemon's `metrics` verb and renders the snapshot as a
//! `top`-style text dashboard: request and engine counters with rates
//! (derived from successive snapshots — counts per wall-clock second),
//! gauges, a percentile table for every histogram (p50/p95/p99/p999 over
//! every value since the daemon started, marked `~`: each is the lower bound
//! of its log2 bucket; the `stats` verb has exact response and slowdown
//! percentiles), and SLO attainment / error-budget burn rate.
//!
//! Usage: `sos-top [--addr HOST:PORT] [--interval-ms N] [--once] [--prom]`
//!
//! * `--once` fetches a single snapshot, prints it without clearing the
//!   screen, and exits 0 — the mode CI uses.
//! * `--prom` dumps the raw Prometheus text exposition and exits 0 (pipe it
//!   to a file to scrape the daemon without a Prometheus server).
//! * Otherwise the dashboard refreshes every `--interval-ms` (default
//!   1000) until interrupted or the daemon goes away.

use sos_bench::cli::{self, Flags};
use sos_bench::serve::{Client, MetricsReply, Request};
use std::time::{Duration, Instant};

struct Args {
    addr: String,
    interval_ms: u64,
    once: bool,
    prom: bool,
}

fn parse_args(flags: &mut Flags) -> Result<Args, String> {
    let args = Args {
        addr: flags.value("--addr", "127.0.0.1:7077".to_string())?,
        interval_ms: flags.value("--interval-ms", 1_000)?,
        once: flags.switch("--once"),
        prom: flags.switch("--prom"),
    };
    if args.interval_ms == 0 {
        return Err("--interval-ms must be positive".into());
    }
    Ok(args)
}

fn fetch(client: &mut Client) -> Result<MetricsReply, String> {
    let resp = client
        .request(&Request::verb("metrics"))
        .map_err(|e| format!("metrics request failed: {e}"))?;
    if !resp.ok {
        return Err(format!(
            "daemon refused metrics: {}",
            resp.error.as_deref().unwrap_or("unknown error")
        ));
    }
    match resp.metrics {
        Some(m) => Ok(*m),
        None => Err("metrics reply carried no payload (daemon too old?)".into()),
    }
}

fn main() {
    let args = cli::parse_or_exit("sos-top", "", parse_args);
    let mut client = match Client::connect(&args.addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("sos-top: cannot connect to {}: {e}", args.addr);
            std::process::exit(2);
        }
    };

    if args.prom {
        match fetch(&mut client) {
            Ok(m) => {
                print!("{}", m.prometheus);
                return;
            }
            Err(e) => {
                eprintln!("sos-top: {e}");
                std::process::exit(1);
            }
        }
    }

    let mut prev: Option<(Instant, MetricsReply)> = None;
    loop {
        let m = match fetch(&mut client) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("sos-top: {e}");
                std::process::exit(if args.once { 1 } else { 0 });
            }
        };
        let taken = Instant::now();
        if !args.once {
            // Clear screen, home cursor.
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", render(&args.addr, &m, prev.as_ref()));
        if args.once {
            return;
        }
        prev = Some((taken, m));
        std::thread::sleep(Duration::from_millis(args.interval_ms));
    }
}

/// Renders one dashboard frame. `prev` (when present) turns counters into
/// per-second rates over the wall time between the two snapshots.
fn render(addr: &str, m: &MetricsReply, prev: Option<&(Instant, MetricsReply)>) -> String {
    let snap = &m.snapshot;
    let mut out = String::new();
    out.push_str(&format!(
        "sos-top — {addr}   snapshot v{}   sim clock {} cycles\n\n",
        snap.version, snap.now_cycles
    ));

    let elapsed = prev.map(|(t, _)| t.elapsed().as_secs_f64());
    out.push_str(&format!(
        "{:<34} {:>14} {:>12}\n",
        "COUNTER", "TOTAL", "RATE/S"
    ));
    for (name, &v) in &snap.counters {
        let was = prev.and_then(|(_, p)| p.snapshot.counters.get(name));
        let rate = match (elapsed, was) {
            (Some(secs), Some(&was)) if secs > 0.0 => {
                format!("{:.1}", v.saturating_sub(was) as f64 / secs)
            }
            _ => "-".to_string(),
        };
        out.push_str(&format!("{name:<34} {v:>14} {rate:>12}\n"));
    }

    out.push_str(&format!("\n{:<34} {:>14}\n", "GAUGE", "VALUE"));
    for (name, &v) in &snap.gauges {
        out.push_str(&format!("{name:<34} {v:>14.1}\n"));
    }

    out.push_str(&format!(
        "\n{:<34} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
        "HISTOGRAM (since start)", "COUNT", "P50", "P95", "P99", "P99.9"
    ));
    for (name, h) in &snap.histograms {
        out.push_str(&format!("{name:<34} {:>8}", h.count));
        for q in [0.50, 0.95, 0.99, 0.999] {
            let v = match h.count {
                0 => "-".to_string(),
                _ => format!("~{}", h.approx_quantile(q)),
            };
            out.push_str(&format!(" {v:>10}"));
        }
        out.push('\n');
    }

    out.push_str(&format!(
        "\n{:<34} {:>8} {:>10} {:>12} {:>10} {:>6}\n",
        "SLO", "TARGET", "GOOD/TOTAL", "ATTAINMENT", "BURN", "MET"
    ));
    for (name, s) in &m.slos {
        out.push_str(&format!(
            "{name:<34} {:>8} {:>10} {:>11.1}% {:>10.2} {:>6}\n",
            s.target,
            format!("{}/{}", s.good, s.total),
            s.attainment * 100.0,
            s.burn_rate,
            if s.met { "yes" } else { "NO" }
        ));
    }
    out
}

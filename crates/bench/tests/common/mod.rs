//! Shared helper for the `sos-serve` integration tests: spawn the daemon on
//! an ephemeral port and discover the address from its banner line.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

static SPAWNS: AtomicU64 = AtomicU64::new(0);

/// Spawns `sos-serve --port 0 <extra>` and returns the child plus the
/// `host:port` it bound.
///
/// Unless `extra` already carries one, each daemon gets its own throwaway
/// `--snapshot-dir`: the default is the repo-relative `results/serve/`,
/// which concurrently-running tests would otherwise share (one test's
/// daemon restoring another's snapshot).
pub fn spawn_daemon(extra: &[&str]) -> (Child, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sos-serve"));
    cmd.args(["--port", "0"]).args(extra);
    if !extra.contains(&"--snapshot-dir") {
        let dir = std::env::temp_dir().join(format!(
            "sos-serve-scratch-{}-{}",
            std::process::id(),
            SPAWNS.fetch_add(1, Ordering::Relaxed)
        ));
        cmd.arg("--snapshot-dir").arg(dir);
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sos-serve");
    let stdout = child.stdout.take().expect("daemon stdout is piped");
    let mut banner = String::new();
    BufReader::new(stdout)
        .read_line(&mut banner)
        .expect("read daemon banner");
    let addr = banner
        .trim()
        .rsplit(' ')
        .next()
        .unwrap_or_default()
        .to_string();
    assert!(
        addr.contains(':'),
        "unexpected daemon banner: {banner:?} (expected 'sos-serve listening on HOST:PORT')"
    );
    (child, addr)
}

/// Waits up to `timeout` for the daemon to exit, returning its status;
/// kills it and panics on timeout so a hung drain can't wedge the suite.
pub fn wait_exit(child: &mut Child, timeout: Duration) -> std::process::ExitStatus {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("sos-serve did not exit within {timeout:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

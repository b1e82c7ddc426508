//! What the split between connection threads and the scheduler thread
//! promises, checked against a live daemon without a wall-clock threshold:
//! a reply never waits for the timeslice in flight (read-your-writes within
//! one timeslice), and a drain racing concurrent submitters loses no
//! acknowledged job.

mod common;

use common::{spawn_daemon, wait_exit};
use sos_bench::serve::{Client, Request, StatusReply};
use std::collections::BTreeSet;
use std::sync::Barrier;
use std::time::Duration;

fn status(client: &mut Client) -> StatusReply {
    client
        .request(&Request::verb("status"))
        .expect("reply")
        .status
        .expect("status payload")
}

/// With a timeslice that takes the host seconds to simulate, a closed loop of
/// submit/status pairs finishes inside it: every reply reflects the submit
/// before it, and the replies span at most one timeslice boundary. A daemon
/// that answers between timeslices fails this — each of its replies comes
/// from a later boundary.
#[test]
fn replies_do_not_wait_for_the_timeslice_in_flight() {
    const PAIRS: u64 = 10;
    let (mut daemon, addr) =
        spawn_daemon(&["--calibration-cycles", "4000", "--timeslice", "2000000"]);
    let mut client = Client::connect(&addr).expect("connect");

    // One long job keeps the scheduler thread inside `engine.step()`.
    let long = Request::submit_cycles("gcc", 500_000_000, false);
    assert!(client.request(&long).expect("reply").ok);
    let before = status(&mut client);
    assert_eq!((before.submitted, before.live), (1, 1));

    let mut clocks = BTreeSet::from([before.now_cycles]);
    for k in 1..=PAIRS {
        let resp = client
            .request(&Request::submit_cycles("mg", 100_000, false))
            .expect("reply");
        assert_eq!(resp.id, Some(k), "ids are dense in admission order");
        let seen = status(&mut client);
        assert_eq!(
            seen.submitted,
            1 + k,
            "status must see the submit before it"
        );
        assert_eq!(seen.live, 1 + k);
        clocks.insert(seen.now_cycles);
    }
    assert!(
        clocks.len() <= 2,
        "{} replies crossed more than one timeslice boundary: {clocks:?}",
        PAIRS + 1
    );

    // Draining 2M-cycle timeslices would take minutes in a debug build.
    daemon.kill().expect("kill daemon");
    let _ = daemon.wait();
}

/// A `drain` from one connection while others are submitting: every submit
/// answered `ok` is completed, nothing is admitted behind the drain, and a
/// `status`/`stats` sent after the drain reply sees the empty system (what
/// `sos-loadgen`'s drain → stats sequence relies on).
#[test]
fn a_drain_racing_submitters_loses_no_acknowledged_job() {
    const SUBMITTERS: usize = 3;
    const BEFORE_DRAIN: usize = 2;
    let (mut daemon, addr) = spawn_daemon(&["--calibration-cycles", "4000"]);
    // Submitters and the drainer meet once every submitter has had
    // BEFORE_DRAIN jobs accepted; they then go on until refused `draining`.
    let warmed_up = Barrier::new(SUBMITTERS + 1);

    let ids: Vec<u64> = std::thread::scope(|s| {
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|_| {
                s.spawn(|| {
                    let mut client = Client::connect(&addr).expect("connect");
                    let submit = Request::submit_cycles("mg", 40_000, false);
                    let mut ids = Vec::new();
                    loop {
                        let resp = client.request(&submit).expect("reply");
                        match (resp.id, resp.error.as_deref()) {
                            (Some(id), None) => {
                                ids.push(id);
                                if ids.len() == BEFORE_DRAIN {
                                    warmed_up.wait();
                                }
                            }
                            (None, Some("draining")) => return ids,
                            (None, Some("backpressure")) => std::thread::yield_now(),
                            other => panic!("unexpected submit reply {other:?}"),
                        }
                    }
                })
            })
            .collect();

        let mut client = Client::connect(&addr).expect("connect");
        warmed_up.wait();
        assert!(client.request(&Request::verb("drain")).expect("reply").ok);
        // The drain reply implies the published view is empty.
        let seen = status(&mut client);
        assert_eq!(seen.live, 0, "drain replied with jobs in the system");
        assert_eq!(seen.submitted, seen.completed);
        assert!(seen.draining);
        let stats = client
            .request(&Request::verb("stats"))
            .expect("reply")
            .stats
            .expect("stats payload");
        assert_eq!(stats.completed, seen.completed);

        let ids: Vec<u64> = submitters
            .into_iter()
            .flat_map(|t| t.join().expect("submitter panicked"))
            .collect();
        // Nothing was admitted behind the drain.
        let after = status(&mut client);
        assert_eq!(after.submitted, seen.submitted);
        assert_eq!(after.completed, ids.len() as u64, "an ok submit was lost");
        assert!(
            client
                .request(&Request::verb("shutdown"))
                .expect("reply")
                .ok
        );
        ids
    });

    assert!(ids.len() >= SUBMITTERS * BEFORE_DRAIN);
    let unique: BTreeSet<u64> = ids.iter().copied().collect();
    assert_eq!(unique.len(), ids.len(), "job ids must be unique");
    assert_eq!(
        unique.last().copied(),
        Some(ids.len() as u64 - 1),
        "and dense"
    );

    let status = wait_exit(&mut daemon, Duration::from_secs(60));
    assert!(status.success(), "daemon exited {status:?}");
}

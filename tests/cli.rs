//! Smoke tests for the `sos` command-line driver.

use std::process::Command;

fn sos(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sos"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn schedules_enumerates_the_papers_ten() {
    let out = sos(&["schedules", "6", "3", "3"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("10 distinct schedules"), "{text}");
    assert!(text.contains("012_345"), "{text}");
    assert!(text.contains("045_123"), "{text}");
}

#[test]
fn schedules_counts_large_spaces_without_listing() {
    let out = sos(&["schedules", "8", "4", "1"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("2520 distinct schedules"), "{text}");
    assert!(!text.contains('_'), "large spaces are not listed: {text}");
}

#[test]
fn help_succeeds() {
    assert!(sos(&["help"]).status.success());
    assert!(sos(&[]).status.success());
}

#[test]
fn unknown_command_fails() {
    let out = sos(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unsupported_shape_rejected() {
    let out = sos(&["schedules", "4", "3", "2"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("swap-all") || err.contains("swap-one"),
        "{err}"
    );
}

#[test]
fn bad_experiment_label_rejected() {
    let out = sos(&["run", "Jxx(1,2,3)"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn run_refuses_a_predictor_it_cannot_report_before_simulating() {
    // A typo used to run under `Score`; the learned kinds used to run the
    // whole experiment and then panic looking their pick up in the report.
    for bad in ["scoree", "learned", "Bandit"] {
        let out = sos(&["run", "Jsb(4,2,2)", "200000", bad]);
        assert_eq!(out.status.code(), Some(2), "{bad}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("bad predictor \"{bad}\" (one of IPC, "))
                && err.contains("Score)"),
            "{err}"
        );
        assert!(err.contains("usage:") && !err.contains("panicked"), "{err}");
        assert!(!err.contains("running"), "refused before simulating: {err}");
        assert!(out.stdout.is_empty());
    }
}

#[test]
fn run_accepts_each_of_the_papers_predictors_by_name() {
    let out = sos(&["run", "Jsb(4,2,2)", "200000", "dcache"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Dcache picks WS"), "{text}");
}

#[test]
fn arguments_nobody_asked_for_are_refused() {
    for (args, want) in [
        (
            &["schedules", "4", "2", "2", "--bogus"][..],
            "unknown flag \"--bogus\"",
        ),
        (&["solo", "2", "extra"], "unknown command \"solo\""),
        (
            &["run", "Jsb(4,2,2)", "200000", "dcache", "more"],
            "unexpected argument",
        ),
    ] {
        let out = sos(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(want) && err.contains("usage:"),
            "{args:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran");
    }
}

#[test]
fn opensys_refuses_a_scale_that_rounds_the_timeslice_to_zero() {
    for scale in ["10000000", "2000000000000"] {
        let out = sos(&["opensys", "2", "10", scale]);
        assert_eq!(out.status.code(), Some(2), "{scale}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("cycle_scale") && !err.contains("panicked"),
            "{err}"
        );
    }
}

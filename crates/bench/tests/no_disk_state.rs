//! The closed-system pass writes its eleven result files and nothing else:
//! run `paper` in an empty working directory and list what it left behind
//! (no evaluation store, no stray files). A command line it refuses leaves
//! the directory empty, so nothing is simulated or written before the
//! arguments are accepted.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs `paper arg` in a fresh, empty working directory named after `name`.
fn paper_in_empty_dir(name: &str, arg: &str) -> (Output, PathBuf) {
    let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut paper = Command::new(env!("CARGO_BIN_EXE_paper"));
    let output = paper.arg(arg).current_dir(&dir).output();
    (output.expect("paper runs"), dir)
}

/// The names in `dir`, sorted.
fn entries(dir: &Path) -> Vec<String> {
    let entries = std::fs::read_dir(dir).expect("read dir");
    let name = |e: std::io::Result<std::fs::DirEntry>| e.unwrap().file_name();
    let mut names: Vec<String> = entries.map(|e| name(e).to_string_lossy().into()).collect();
    names.sort();
    names
}

#[test]
fn paper_writes_exactly_its_eleven_result_files() {
    // Scaled far down: the test binary is a debug build, and the property
    // under test does not depend on the scale.
    let (output, dir) = paper_in_empty_dir("paper-cwd", "100000");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "paper failed: {stderr}");

    let titles = [
        ("ablations", "Design-choice ablations"),
        ("calibrate", "bench       IPC"),
        ("fig1", "Figure 1 — "),
        ("fig2", "Figure 2 — "),
        ("fig3", "Figure 3 — "),
        ("fig4", "Figure 4 — "),
        ("parallel", "§6 — "),
        ("predictor_matrix", "Predictor league table"),
        ("table2", "Table 2 — "),
        ("table3", "Table 3 — "),
        ("warmstart", "§8 — "),
    ];
    let results = dir.join("results");
    let (top, written) = (entries(&dir), entries(&results));
    let read = |name| std::fs::read_to_string(results.join(format!("{name}.txt")));
    let texts = titles.map(|(name, _)| read(name).unwrap_or_default());
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(top, ["results"], "paper left files beside results/");
    assert_eq!(written, titles.map(|(name, _)| format!("{name}.txt")));
    for ((name, title), text) in titles.iter().zip(texts) {
        assert!(text.starts_with(title), "{name}.txt: {text:?}");
    }
}

#[test]
fn paper_refuses_a_bad_command_line_before_writing_anything() {
    let (output, dir) = paper_in_empty_dir("paper-refused", "--no-such-flag");
    let left = entries(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag"), "{stderr}");
    assert!(left.is_empty(), "paper left files behind: {left:?}");
}

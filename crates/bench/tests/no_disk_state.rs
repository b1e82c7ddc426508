//! A figure binary prints what it simulated and leaves nothing behind: run
//! `fig2` in an empty working directory and check that the directory is
//! still empty afterwards (no evaluation store, no results files).

use std::process::Command;

#[test]
fn fig2_leaves_its_working_directory_empty() {
    let dir = std::env::temp_dir().join(format!("fig2-cwd-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");

    // Scaled far down: the test binary is a debug build, and the property
    // under test does not depend on the scale.
    let output = Command::new(env!("CARGO_BIN_EXE_fig2"))
        .arg("100000")
        .current_dir(&dir)
        .output()
        .expect("fig2 runs");
    assert!(
        output.status.success(),
        "fig2 failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.starts_with("Figure 2 — "), "{stdout}");

    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("read temp dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(left.is_empty(), "fig2 left files behind: {left:?}");
}

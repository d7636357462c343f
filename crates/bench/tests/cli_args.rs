//! The bench bins reject any argument their usage does not list: they
//! exit 2 with a message naming it, before they simulate anything.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Run `bin` with `args` in a fresh temporary directory; a run still
/// going after 20 s is killed and fails the test (a bin that accepted
/// its arguments simulates for longer than a rejection takes).
fn run(bin: &str, args: &[&str]) -> (Output, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "bench-cli-{}-{}",
        std::process::id(),
        args.join("_").replace(['/', '.'], "")
    ));
    std::fs::create_dir_all(&dir).expect("create the run directory");
    let mut child = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the binary");
    let start = Instant::now();
    while child.try_wait().expect("poll the child").is_none() {
        if start.elapsed() > Duration::from_secs(20) {
            child.kill().expect("kill the child");
            child.wait().expect("reap the child");
            panic!("{bin} {args:?} did not exit");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    (child.wait_with_output().expect("collect the output"), dir)
}

fn assert_rejects(out: &Output, token: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(&format!("\"{token}\"")), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "ran before rejecting: {out:?}");
}

#[test]
fn recovery_matrix_rejects_a_misspelt_exec_mode() {
    let (out, dir) = run(
        env!("CARGO_BIN_EXE_recovery_matrix"),
        &["4", "--exec-mod", "event"],
    );
    std::fs::remove_dir_all(&dir).expect("remove the run directory");
    assert_rejects(&out, "--exec-mod");
}

#[test]
fn two_region_pipeline_rejects_a_misspelt_trace_flag() {
    let (out, dir) = run(
        env!("CARGO_BIN_EXE_two_region_pipeline"),
        &["--trace-outt", "t.json"],
    );
    let wrote = dir.join("t.json").exists();
    std::fs::remove_dir_all(&dir).expect("remove the run directory");
    assert_rejects(&out, "--trace-outt");
    assert!(!wrote, "the rejected run wrote t.json");
}

#[test]
fn a_positional_past_the_usage_is_rejected() {
    let (out, dir) = run(env!("CARGO_BIN_EXE_recovery_matrix"), &["4", "8"]);
    std::fs::remove_dir_all(&dir).expect("remove the run directory");
    assert_rejects(&out, "8");
}

//! `verifd` and `verifctl` reject any argument their usage does not
//! list: they exit 2 with a message naming it, before the daemon binds
//! or the client connects.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Run `bin` with `args`; a run still going after 20 s is killed and
/// fails the test (a daemon that accepted its arguments serves forever).
fn run(bin: &str, args: &[&str]) -> Output {
    let mut child = Command::new(bin)
        .args(args)
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
    child.wait_with_output().expect("collect the output")
}

/// A socket path no other test uses; nothing listens on it.
fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("verifd-cli-{}-{tag}.sock", std::process::id()))
}

fn assert_rejects(out: &Output, token: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(&format!("\"{token}\"")), "stderr: {stderr}");
}

#[test]
fn verifd_rejects_an_unknown_flag_before_binding() {
    let sock = socket_path("unknown");
    let path = sock.to_str().expect("utf-8 temp path");
    let out = run(
        env!("CARGO_BIN_EXE_verifd"),
        &["--unix", path, "--scenario-budget", "4"],
    );
    assert_rejects(&out, "--scenario-budget");
    assert!(!sock.exists(), "verifd bound {path} before rejecting");
}

#[test]
fn verifd_rejects_a_value_flag_without_its_value() {
    let out = run(env!("CARGO_BIN_EXE_verifd"), &["--threads", "2", "--unix"]);
    assert_rejects(&out, "--unix");
}

#[test]
fn verifctl_rejects_an_unknown_flag_before_connecting() {
    let endpoint = format!("unix:{}", socket_path("absent").display());
    let out = run(
        env!("CARGO_BIN_EXE_verifctl"),
        &[
            "--connect",
            &endpoint,
            "submit",
            "--recovery",
            "1",
            "--thread",
            "3",
        ],
    );
    assert_rejects(&out, "--thread");
}

/// Every flag of the usage passes the check: the client gets as far as
/// connecting, which fails with exit 1 since nothing listens.
#[test]
fn verifctl_accepts_every_listed_flag() {
    let endpoint = format!("unix:{}", socket_path("absent").display());
    let out = run(
        env!("CARGO_BIN_EXE_verifctl"),
        &[
            "--connect",
            &endpoint,
            "submit",
            "--file",
            "sub.json",
            "--matrix",
            "--recovery",
            "2",
            "--recovery-off",
            "--seed",
            "7",
            "--budget-cycles",
            "100",
            "--threads",
            "1",
            "--exec-mode",
            "event",
            "--report",
            "--id",
            "3",
        ],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("cannot connect"), "stderr: {stderr}");
}

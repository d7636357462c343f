//! The `verifd` daemon binary.
//!
//! ```text
//! verifd [--unix PATH] [--tcp ADDR] [--max-campaigns N] [--max-queued N]
//!        [--threads N]
//! ```
//!
//! With no endpoint flags it listens on `verifd.sock` in the working
//! directory. Once every listener is bound it prints a single ready
//! line to stdout (`verifd ready unix=... tcp=...`) so supervisors and
//! CI scripts can wait for it, then serves until a client sends
//! `shutdown/v1`.

use verifd::server::{Endpoint, RunningServer, ServerConfig};

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn usize_flag(args: &[String], flag: &str, default: usize) -> usize {
    flag_value(args, flag)
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("verifd: {flag} needs an integer, got \"{v}\"");
                std::process::exit(2);
            })
        })
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "usage: verifd [--unix PATH] [--tcp ADDR] [--max-campaigns N] \
             [--max-queued N] [--threads N]"
        );
        return;
    }
    let defaults = ServerConfig::default();
    let cfg = ServerConfig {
        max_campaigns: usize_flag(&args, "--max-campaigns", defaults.max_campaigns),
        max_queued: usize_flag(&args, "--max-queued", defaults.max_queued),
        threads: usize_flag(&args, "--threads", defaults.threads),
    };
    let mut endpoints = Vec::new();
    if let Some(path) = flag_value(&args, "--unix") {
        endpoints.push(Endpoint::Unix(path.into()));
    }
    if let Some(addr) = flag_value(&args, "--tcp") {
        endpoints.push(Endpoint::Tcp(addr));
    }
    if endpoints.is_empty() {
        endpoints.push(Endpoint::Unix("verifd.sock".into()));
    }
    let running = match RunningServer::start(cfg, &endpoints) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("verifd: failed to bind: {e}");
            std::process::exit(1);
        }
    };
    let mut ready = String::from("verifd ready");
    if let Some(p) = running.unix_path() {
        ready.push_str(&format!(" unix={}", p.display()));
    }
    if let Some(a) = running.tcp_addr() {
        ready.push_str(&format!(" tcp={a}"));
    }
    println!("{ready}");
    use std::io::Write;
    let _ = std::io::stdout().flush();
    running.wait();
}

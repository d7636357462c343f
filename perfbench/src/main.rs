//! perfbench — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <frame_paper|campaign_matrix|service_fuzz> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload at the library defaults through public calls only,
//! checks every output, prints each metric by name with its unit, and
//! ends with one JSON line: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! table with `--trace 1`. See README.md for the workloads, the metrics
//! and the layer → end-to-end predictions.

mod campaign;
mod frame;
mod inputs;
mod report;
mod service;
mod stats;

use report::{Report, END_TO_END, PER_LAYER};

/// Scratch state of the benchmark inside the checkout: the ledger of
/// deterministic counters and the daemon's socket.
pub const STATE_DIR: &str = ".bench_state";

const WORKLOADS: [&str; 3] = ["frame_paper", "campaign_matrix", "service_fuzz"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse::<u64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1) as f64,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} ({} cores available)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut report: Report = match args.workload.as_str() {
        "frame_paper" => frame::run(args.seed, args.seconds, args.trace),
        "campaign_matrix" => campaign::run(args.seed, args.seconds, args.trace),
        _ => service::run(args.seed, args.seconds, args.trace),
    };
    report.check_ledger(&format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("peak_rss_mb: {:.3}", report::peak_rss_mb());
    println!(
        "operations: {} attempted, {} failed (ops_failed_share {})",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for (name, unit) in table {
        println!("  {name:<28} {:>16.6} {unit}", report.get(name));
    }
    println!("{}", report.to_json(table));
}

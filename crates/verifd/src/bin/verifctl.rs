//! The `verifctl` client binary.
//!
//! ```text
//! verifctl --connect ENDPOINT submit [--file SUB.json] [--matrix]
//!          [--recovery N] [--recovery-off] [--seed N] [--budget-cycles N]
//!          [--threads N] [--exec-mode MODE]
//!          [--report]
//! verifctl --connect ENDPOINT watch --id N
//! verifctl --connect ENDPOINT cancel --id N
//! verifctl --connect ENDPOINT metrics
//! verifctl --connect ENDPOINT ping
//! verifctl --connect ENDPOINT shutdown
//! ```
//!
//! `ENDPOINT` is `unix:<path>`, `tcp:<host:port>`, or a bare Unix
//! socket path. `submit` prints each streamed row object on its own
//! line (or, with `--report`, the reassembled `campaign_report/v1`
//! document — byte-identical to an in-process run) and finishes with
//! the `campaign_done/v1` summary on stderr.

use verif::wire::CampaignSubmission;
use verifd::client::Client;

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn parsed_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    flag_value(args, flag).map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("verifctl: bad value \"{v}\" for {flag}");
            std::process::exit(2);
        })
    })
}

fn die(msg: &str) -> ! {
    eprintln!("verifctl: {msg}");
    std::process::exit(1);
}

fn build_submission(args: &[String]) -> CampaignSubmission {
    if let Some(path) = flag_value(args, "--file") {
        let doc = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
        return CampaignSubmission::from_json(&doc)
            .unwrap_or_else(|e| die(&format!("bad submission document: {e}")));
    }
    let mut sub = CampaignSubmission {
        matrix: has_flag(args, "--matrix"),
        ..Default::default()
    };
    if let Some(runs) = parsed_flag::<usize>(args, "--recovery") {
        sub.recovery_runs = runs;
        sub.recovery_on = !has_flag(args, "--recovery-off");
    }
    if let Some(seed) = parsed_flag::<u64>(args, "--seed") {
        sub.seed = seed;
    }
    if let Some(b) = parsed_flag::<u64>(args, "--budget-cycles") {
        sub.budget_cycles = b;
    }
    if let Some(t) = parsed_flag::<usize>(args, "--threads") {
        sub.threads = t;
    }
    if let Some(mode) = flag_value(args, "--exec-mode") {
        sub.exec_mode = mode
            .parse()
            .unwrap_or_else(|e| die(&format!("bad --exec-mode: {e}")));
    }
    if !sub.matrix && sub.recovery_runs == 0 {
        die("empty submission: pass --matrix, --recovery N, or --file SUB.json");
    }
    sub
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || has_flag(&args, "--help") || has_flag(&args, "-h") {
        eprintln!(
            "usage: verifctl --connect ENDPOINT \
             (submit|watch|cancel|metrics|ping|shutdown) [options]"
        );
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    let endpoint =
        flag_value(&args, "--connect").unwrap_or_else(|| die("missing --connect ENDPOINT"));
    let command = args
        .iter()
        .find(|a| {
            matches!(
                a.as_str(),
                "submit" | "watch" | "cancel" | "metrics" | "ping" | "shutdown"
            )
        })
        .unwrap_or_else(|| die("missing command"))
        .clone();
    let mut client = Client::connect(&endpoint)
        .unwrap_or_else(|e| die(&format!("cannot connect to {endpoint}: {e}")));
    let result = match command.as_str() {
        "submit" => {
            let sub = build_submission(&args);
            let want_report = has_flag(&args, "--report");
            let served = client
                .submit_streaming(&sub, |row| {
                    if !want_report {
                        println!("{row}");
                    }
                })
                .unwrap_or_else(|e| die(&format!("submit failed: {e}")));
            if want_report {
                print!("{}", served.report_json());
            }
            eprintln!(
                "campaign {}: {} rows, {} failures, workers={}, cache {}h/{}m{}",
                served.id,
                served.done.rows,
                served.done.failures,
                served.done.workers,
                served.done.artifact_hits,
                served.done.artifact_misses,
                if served.done.cancelled {
                    ", CANCELLED"
                } else {
                    ""
                }
            );
            Ok(())
        }
        "watch" => {
            let id = parsed_flag::<u64>(&args, "--id").unwrap_or_else(|| die("watch needs --id N"));
            client.watch(id, |row| println!("{row}")).map(|(_, done)| {
                eprintln!(
                    "campaign {id}: {} rows, {} failures",
                    done.rows, done.failures
                );
            })
        }
        "cancel" => {
            let id =
                parsed_flag::<u64>(&args, "--id").unwrap_or_else(|| die("cancel needs --id N"));
            client
                .cancel(id)
                .map(|()| eprintln!("campaign {id}: cancel requested"))
        }
        "metrics" => client.metrics().map(|snap| println!("{snap}")),
        "ping" => client.ping().map(|()| println!("pong")),
        "shutdown" => client
            .shutdown()
            .map(|()| eprintln!("daemon shutting down")),
        _ => unreachable!(),
    };
    if let Err(e) = result {
        die(&format!("{command} failed: {e}"));
    }
}

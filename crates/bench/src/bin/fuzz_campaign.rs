//! fuzz_campaign — coverage-guided reconfiguration-schedule fuzzing.
//!
//! Runs three fixed-seed fuzz sessions over the small matrix-scale
//! system and reports coverage, corpus growth and deduplicated,
//! shrunk failure signatures:
//!
//! * **clean** — golden design, timing/arbitration/topology mutations
//!   only (no word-stream corruption). The robustness claim: *no legal
//!   schedule may break the golden design*, so this session must end
//!   with zero failure signatures.
//! * **corrupt** — golden design with SimB word-stream corruption ops
//!   enabled (bit flips, stalls, spurious bus errors, ICAP ready
//!   drops) and the recovery protocol off in the baseline (a mutation
//!   may toggle it). The detection claim: the oracles must catch
//!   corrupted bitstreams, so this session must find at least one
//!   failure signature.
//! * **seeded** — the bug.dpr.6a race (fixed-loop wait instead of
//!   polling transfer done) seeded into the base design. The
//!   find-and-shrink claim: the fuzzer must find the race, dedup it to
//!   one signature, and shrink the witness to a minimal reproducer.
//!
//! Modes:
//!
//! * **default** — prints each session report, checks the three claims
//!   above, exercises the reproducer replay loop, and writes every
//!   shrunk reproducer to `target/fuzz/<session>_<n>.json`.
//! * **`--replay <file> [bug-id]`** — parse a `fuzz_repro/v1` document
//!   (or a `fuzz_repro/v2` one of an earlier build) and replay it
//!   against the base design (optionally with a seeded bug from the
//!   catalog, e.g. `bug.dpr.6a`); prints the verdict and exits
//!   non-zero unless the recorded signature reproduces.
//!
//! Every session and replay runs in the `--exec-mode` the command line
//! selects (compiled by default).
//!
//! The same claims are pinned at smaller scale by
//! `verif/tests/fuzz_determinism.rs`, which `cargo test` runs.

use autovision::{Bug, FaultSet, SimMethod, SystemConfig};
use bench::harness;
use verif::fuzz::{self, FuzzOptions, FuzzReport, FuzzRepro};

const BUDGET_CYCLES: u64 = 400_000;
const SEED: u64 = 0x5EED_F022;

/// The fuzzed base: the detection matrix's small configuration, under
/// the shared `--exec-mode` flag.
fn fuzz_base() -> SystemConfig {
    SystemConfig::builder()
        .method(SimMethod::Resim)
        .width(32)
        .height(24)
        .n_frames(2)
        .payload_words(256)
        .exec_mode(harness::exec_mode())
        .build()
        .expect("fuzz base config is valid")
}

fn seeded_base() -> SystemConfig {
    SystemConfig {
        faults: FaultSet::one(Bug::Dpr6aShortFixedWait),
        ..fuzz_base()
    }
}

struct Session {
    label: &'static str,
    report: FuzzReport,
    wall_s: f64,
}

fn run_session(
    label: &'static str,
    base: &SystemConfig,
    rounds: usize,
    batch: usize,
    corrupt_stream: bool,
) -> Session {
    let opts = FuzzOptions {
        seed: SEED,
        rounds,
        batch,
        threads: harness::threads(),
        budget_cycles: BUDGET_CYCLES,
        corrupt_stream,
        ..Default::default()
    };
    let (report, wall_s) = harness::timed(|| fuzz::run_fuzz(base, &opts));
    Session {
        label,
        report,
        wall_s,
    }
}

/// Serialize every reproducer, parse it back, replay it, and check the
/// replay reproduces the recorded signature. Returns the number of
/// verified reproducers.
fn verify_repros(base: &SystemConfig, report: &FuzzReport) -> usize {
    let mut verified = 0;
    for f in &report.failures {
        let doc = f.repro.to_json();
        let parsed = FuzzRepro::from_json(&doc).expect("reproducer JSON round-trips");
        assert_eq!(parsed, f.repro, "parse-back changed the reproducer");
        let row = fuzz::replay(base, &parsed);
        assert_eq!(
            row.signature.as_deref(),
            Some(f.signature.as_str()),
            "replay of [{}] diverged: got {:?}",
            f.signature,
            row.signature
        );
        verified += 1;
    }
    verified
}

fn print_session(s: &Session) {
    println!("{} ({:.2} s):", s.label, s.wall_s);
    for line in s.report.render().lines() {
        println!("  {line}");
    }
}

fn gate(sessions: &[&Session]) {
    let by = |label: &str| {
        &sessions
            .iter()
            .find(|s| s.label == label)
            .expect("session present")
            .report
    };
    assert_eq!(
        by("clean").failures.len(),
        0,
        "golden design failed under a legal schedule:\n{}",
        by("clean").digest()
    );
    assert!(
        !by("corrupt").failures.is_empty(),
        "word-stream corruption went undetected"
    );
    assert!(
        !by("seeded").failures.is_empty(),
        "seeded bug.dpr.6a race not found"
    );
    for s in sessions {
        for f in &s.report.failures {
            assert!(
                f.repro.mutations <= f.first.mutation_count(&s.report.corpus[0]),
                "shrinker increased mutation distance for [{}]",
                f.signature
            );
        }
    }
}

fn run_full() {
    println!("fuzz_campaign — coverage-guided reconfiguration-schedule fuzzing\n");
    let clean = run_session("clean", &fuzz_base(), 6, 8, false);
    let corrupt = run_session("corrupt", &fuzz_base(), 6, 8, true);
    let seeded = run_session("seeded", &seeded_base(), 4, 8, false);
    for s in [&clean, &corrupt, &seeded] {
        print_session(s);
        println!();
    }
    gate(&[&clean, &corrupt, &seeded]);
    let verified = verify_repros(&fuzz_base(), &corrupt.report)
        + verify_repros(&seeded_base(), &seeded.report);
    println!("replay loop: {verified} reproducer(s) serialized, parsed back and re-reproduced");

    // Emit each reproducer as a standalone replayable document:
    //   fuzz_campaign --replay target/fuzz/seeded_0.json bug.dpr.6a
    std::fs::create_dir_all("target/fuzz").expect("create target/fuzz");
    for (s, bug) in [(&corrupt, ""), (&seeded, " bug.dpr.6a")] {
        for (i, f) in s.report.failures.iter().enumerate() {
            let path = format!("target/fuzz/{}_{i}.json", s.label);
            std::fs::write(&path, f.repro.to_json()).expect("write reproducer");
            println!("wrote {path} — replay with: fuzz_campaign --replay {path}{bug}");
        }
    }
}

fn run_replay(path: &str, bug_id: Option<&str>) {
    let doc = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let repro = FuzzRepro::from_json(&doc).unwrap_or_else(|e| panic!("parse {path}: {e}"));
    let base = match bug_id {
        None => fuzz_base(),
        Some(id) => {
            let bug = Bug::ALL
                .into_iter()
                .find(|b| b.id() == id)
                .unwrap_or_else(|| panic!("unknown bug id {id}"));
            SystemConfig {
                faults: FaultSet::one(bug),
                ..fuzz_base()
            }
        }
    };
    println!(
        "replaying {path} (signature [{}], {} mutation(s))",
        repro.signature, repro.mutations
    );
    let row = fuzz::replay(&base, &repro);
    println!(
        "replay: detected={} signature={:?} frames={} cycles={}",
        row.detected, row.signature, row.frames, row.cycles
    );
    for e in &row.evidence {
        println!("  evidence: {e:?}");
    }
    if row.signature.as_deref() == Some(repro.signature.as_str()) {
        println!("signature reproduced");
    } else {
        eprintln!("signature NOT reproduced");
        std::process::exit(1);
    }
}

fn main() {
    if let Some(path) = harness::flag_value("--replay") {
        let bug = std::env::args().nth(3);
        run_replay(&path, bug.as_deref());
    } else {
        run_full();
    }
}

//! Ablation — the error-injection policy.
//!
//! ReSim injects `X` by default (like DCS), and the paper notes the
//! error sources "can also be overridden for design-/test-specific
//! purposes". This harness runs the isolation bug (bug.dpr.1) under
//! three policies and shows that the optimistic "silent" policy — which
//! is effectively what Virtual Multiplexing does — cannot detect it.

use autovision::{Bug, ErrorSourceKind, FaultSet};
use bench::harness;
use verif::run_experiment;

fn main() {
    harness::args(&["--exec-mode"], &[]);
    println!("Error-source ablation on bug.dpr.1 (isolation never asserted)\n");
    println!("{:<10} {:>10}  evidence", "policy", "detected");
    println!("{}", harness::rule(72));
    for (name, kind) in [
        ("X", ErrorSourceKind::X),
        ("random", ErrorSourceKind::Random),
        ("silent", ErrorSourceKind::Silent),
    ] {
        let cfg = harness::experiment(256)
            .faults(FaultSet::one(Bug::Dpr1NoIsolation))
            .error_source(kind)
            .build()
            .expect("ablation config is valid");
        let v = run_experiment(cfg, 1_000_000);
        println!(
            "{name:<10} {:>10}  {}",
            if v.detected { "FOUND" } else { "missed" },
            harness::evidence(&v, "-")
        );
    }
    println!();
    println!("shape: X injection (ReSim default) flags the missing isolation via");
    println!("4-state propagation; a silent source behaves like VMUX and misses it.");
    println!("A random known-value source may corrupt data without tripping the");
    println!("X-monitors — detection then depends on scoreboard coverage alone.");
}

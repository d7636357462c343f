//! Ablation — module-swap trigger point.
//!
//! The paper credits ReSim's detection of the engine-reset bug to its
//! swap timing: "This bug was identified because ReSim did not activate
//! the newly configured module until all words of the SimB were
//! successfully written to the ICAP." This harness re-runs bug.dpr.6b
//! with the swap moved to the *first* payload word (the optimistic model
//! of earlier DPR simulators) and shows the detection evidence weaken.

use autovision::{Bug, FaultSet};
use bench::harness;
use resim::SwapTrigger;
use verif::run_experiment;

fn run(trigger: SwapTrigger, optimistic: bool, bug: Option<Bug>) -> verif::Verdict {
    let cfg = harness::experiment(1024)
        .faults(bug.map(FaultSet::one).unwrap_or_default())
        .swap_trigger(trigger)
        .optimistic_region(optimistic)
        .error_source(if optimistic {
            autovision::ErrorSourceKind::Silent
        } else {
            autovision::ErrorSourceKind::X
        })
        .build()
        .expect("ablation config is valid");
    run_experiment(cfg, 1_500_000)
}

fn main() {
    harness::args(&["--exec-mode"], &[]);
    println!("Swap-trigger ablation on bug.dpr.6b (no wait for transfer completion)\n");
    for (name, trig, optimistic) in [
        (
            "ReSim: swap at last word, deselect+inject",
            SwapTrigger::LastPayloadWord,
            false,
        ),
        (
            "ablation: swap at first word, deselect+inject",
            SwapTrigger::FirstPayloadWord,
            false,
        ),
        (
            "optimistic: swap at first word, module stays live, silent",
            SwapTrigger::FirstPayloadWord,
            true,
        ),
    ] {
        let clean = run(trig, optimistic, None);
        let buggy = run(trig, optimistic, Some(Bug::Dpr6bNoWaitTransfer));
        println!("model = {name}");
        println!(
            "  clean design : frames={} detected={}",
            clean.frames, clean.detected
        );
        println!(
            "  bug.dpr.6b   : frames={} detected={} evidence={}",
            buggy.frames,
            buggy.detected,
            harness::evidence(&buggy, "")
        );
        println!();
    }
    println!("shape: under ReSim's faithful timing the premature reset falls inside");
    println!("the reconfiguration window and is lost — a loud failure (hang, X on");
    println!("the bus). The fully optimistic model — instant activation, no");
    println!("deselection, no garbage — runs the broken software to completion and");
    println!("the only remaining evidence is a handful of wrong pixels: the early");
    println!("engine start now races the CPU's vector drawing for the shared");
    println!("buffer. Without a golden-model scoreboard that residue is exactly the");
    println!("kind of bug that survives simulation, which is the paper's critique");
    println!("of optimistic pre-ReSim approaches.");
}

//! Ablation — SimB length (§IV-B).
//!
//! "The designer can use a short (e.g. ~100 words) SimB to reduce the
//! simulation-debug turnaround time, can adjust the length to test
//! various scenarios of the bitstream transfer mechanism, and can set
//! the length of a SimB to be the same as a real bitstream to achieve
//! the maximum level of accuracy."
//!
//! This harness sweeps the payload length and reports (a) the simulated
//! reconfiguration delay, (b) the wall-clock cost, and (c) whether the
//! timing-sensitive bug.dpr.6a is exposed — short SimBs finish before
//! the buggy fixed wait elapses and *mask* the bug, exactly the
//! accuracy-for-speed trade the paper describes.

use autovision::{AvSystem, Bug, FaultSet, SystemConfig};
use bench::harness;
use verif::run_experiment;

fn main() {
    harness::args(&["--exec-mode"], &[]);
    println!("SimB length ablation (32x24 frames, cfg divider 4, fixed wait = 250 loops)\n");
    println!(
        "{:>10} {:>16} {:>12} {:>14}",
        "payload", "DPR delay (us)", "wall (s)", "dpr.6a found?"
    );
    println!("{}", harness::rule(58));
    for payload in [64usize, 128, 256, 1024, 4096, 16384] {
        let base = harness::experiment(payload)
            .build()
            .expect("ablation config is valid");
        // Measure reconfiguration delay on the clean design.
        let mut sys = AvSystem::build(base.clone());
        let dpr =
            verif::probe_high_time(&mut sys.sim, "probe.dpr", sys.probes.reconfiguring.unwrap());
        let (out, wall) = harness::timed(|| sys.run(30_000_000));
        assert!(!out.hung, "clean run hung at payload {payload}");
        let pulses = dpr.borrow().pulses.max(1);
        let us_per_dpr = dpr.borrow().total_ps as f64 / pulses as f64 / 1e6;

        // Does this length expose the fixed-wait bug?
        let buggy = SystemConfig {
            faults: FaultSet::one(Bug::Dpr6aShortFixedWait),
            ..base
        };
        let verdict = run_experiment(buggy, 1_500_000);
        println!(
            "{payload:>10} {us_per_dpr:>16.1} {wall:>12.2} {:>14}",
            if verdict.detected { "FOUND" } else { "masked" }
        );
    }
    println!();
    println!("shape: longer SimBs cost wall-clock but model the reconfiguration");
    println!("window accurately enough to expose timing bugs that short SimBs mask");
    println!("(the paper used 4K-word SimBs against a 129K-word real bitstream).");
}

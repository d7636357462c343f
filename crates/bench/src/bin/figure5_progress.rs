//! Figure 5 — development workload and bugs detected over 11 weeks.
//!
//! The LoC series is the paper's version-control history (reference
//! data, dominated by the week-3 import of the reused design and legacy
//! VIPs). The bug series is *regenerated*: each development phase
//! replays the bug catalog under the simulation method in use during
//! that phase, so the detections plotted per week come from real
//! simulations of this repository.

use bench::harness;
use verif::{build_timeline, render_timeline, Campaign};

fn main() {
    harness::args(&["--exec-mode"], &[]);
    let threads = harness::threads();
    println!("Figure 5 — development workload and bugs detected\n");
    let rows = Campaign::builder()
        .threads(threads)
        .exec_mode(harness::exec_mode())
        .matrix()
        .build()
        .run()
        .matrix_rows();
    let weeks = build_timeline(&rows);
    println!("{}", render_timeline(&weeks));

    // ASCII rendition of the two series.
    println!("LoC (cumulative, paper VCS data):");
    let max = weeks.iter().map(|w| w.loc).max().unwrap() as f64;
    for w in &weeks {
        let bar = "#".repeat((w.loc as f64 / max * 56.0) as usize);
        println!("  wk{:<3} {:>7} |{}", w.week, w.loc, bar);
    }
    println!("\nbugs detected per week (regenerated):");
    for w in &weeks {
        let marks = "*".repeat(w.bugs_detected.len()) + &"!".repeat(w.false_alarms.len());
        println!("  wk{:<3} |{}", w.week, marks);
    }
    println!("  (* = real bug, ! = false alarm)");

    let total_bugs: usize = weeks.iter().map(|w| w.bugs_detected.len()).sum();
    let vmux_phase: usize = weeks
        .iter()
        .filter(|w| w.week <= 9)
        .map(|w| w.bugs_detected.len())
        .sum();
    println!(
        "\nshape: {total_bugs} real bugs total; {vmux_phase} found in the VMUX phase (weeks 4-9), \
         {} in the ReSim phase (weeks 10-11); paper: 3 static then 2 SW + 6 DPR",
        total_bugs - vmux_phase
    );
}

//! Table III — detected bugs under Virtual Multiplexing vs ReSim.
//!
//! Replays the entire bug catalog: each bug is injected into the system
//! and simulated under both methods; detection is classified by the
//! automated oracles. The "status" column compares against the paper's
//! expectation (DPR bugs ReSim-only, the signature false alarm
//! VMUX-only, static/software bugs found by both).

use bench::harness;
use verif::{render_matrix, Campaign, MatrixConfig};

fn main() {
    let threads = harness::threads();
    let mc = MatrixConfig::default();
    println!(
        "Table III — bug detection matrix ({}x{}, {} frames, SimB payload {} words, {} threads)\n",
        mc.base.width, mc.base.height, mc.base.n_frames, mc.base.payload_words, threads
    );
    let report = Campaign::builder()
        .threads(threads)
        .exec_mode(harness::exec_mode())
        .matrix()
        .build()
        .run();
    let rows = report.matrix_rows();
    println!("{}", render_matrix(&rows));
    let ok = rows.iter().filter(|r| r.as_expected()).count();
    println!("{}/{} rows match the paper's analysis", ok, rows.len());
    let dpr_missed_by_vmux = rows
        .iter()
        .filter(|r| r.bug.starts_with("bug.dpr") && !r.vmux_detected && r.resim_detected)
        .count();
    println!("ReSim-only detections (bugs Virtual Multiplexing cannot see): {dpr_missed_by_vmux}");
    println!("\nkey paper rows:");
    for id in ["bug.hw.2", "bug.dpr.4", "bug.dpr.5", "bug.dpr.6b"] {
        if let Some(r) = rows.iter().find(|r| r.bug == id) {
            println!(
                "  {:<11} vmux={:<5} resim={:<5}  {}",
                r.bug, r.vmux_detected, r.resim_detected, r.evidence
            );
        }
    }
    let s = &report.stats;
    println!(
        "\nexecutor: {} scenarios in {:.2} s ({:.1}/s), {} workers, artifact cache {}/{} hits",
        s.scenarios,
        s.wall_s,
        s.scenarios_per_sec(),
        s.workers.len(),
        s.artifact_hits,
        s.artifact_hits + s.artifact_misses
    );
}

//! Recovery matrix — transient-fault injection with and without the
//! resilient-reconfiguration machinery.
//!
//! Runs the randomized campaign (`verif::recovery`) twice over the same
//! seeded fault list: once with the recovery policy disabled (the plain
//! paper configuration) and once enabled (CRC-checked SimBs, bus-error
//! detection, DMA-progress watchdog, bounded retry-with-backoff,
//! degraded-mode software). The comparison shows which upsets the plain
//! design shrugs off, which corrupt frames or hang the pipeline, and
//! the retry/latency cost of recovering all of them.
//!
//! Usage: `recovery_matrix [runs] [--exec-mode <event|compiled>]`
//! (default 16 runs per mode).

use bench::harness;
use verif::{render_campaign, summarize, Campaign, MatrixConfig};

/// Injection runs per mode when the command line names none.
const DEFAULT_RUNS: usize = 16;

fn main() {
    let runs = harness::args(&["--exec-mode"], &["runs"])
        .positional(0)
        .unwrap_or(DEFAULT_RUNS);
    let threads = harness::threads();
    // The campaign runs on the builder's defaults: the matrix base, its
    // master seed and its cycle budget.
    let base = MatrixConfig::default().base;
    println!(
        "Recovery matrix — {} seeded transient-fault runs per mode ({}x{}, {} frames, SimB payload {} words, {} threads)\n",
        runs, base.width, base.height, base.n_frames, base.payload_words, threads
    );

    // One campaign, both modes: the executor interleaves the OFF and ON
    // batches across the worker pool and the shared artifact cache
    // serves both.
    let report = Campaign::builder()
        .exec_mode(harness::exec_mode())
        .threads(threads)
        .recovery_campaign(runs, false)
        .recovery_campaign(runs, true)
        .build()
        .run();
    let rows = report.recovery_rows();
    let (off, on) = rows.split_at(runs);

    println!(
        "{}",
        render_campaign("recovery OFF (plain paper configuration)", off)
    );
    println!(
        "{}",
        render_campaign("recovery ON (CRC + watchdog + retry-with-backoff)", on)
    );

    let s_off = summarize(off);
    let s_on = summarize(on);
    println!(
        "acceptance: recovery rate {:.0}% (want >= 90%): {}; hangs with recovery on: {} (want 0): {}",
        100.0 * s_on.recovery_rate(),
        s_on.recovery_rate() >= 0.9,
        s_on.hung,
        s_on.hung == 0
    );
    println!(
        "without recovery the same faults left {} corrupted and {} hung run(s); with recovery: {} and {}",
        s_off.corrupted, s_off.hung, s_on.corrupted, s_on.hung
    );
    let st = &report.stats;
    println!(
        "executor: {} scenarios in {:.2} s ({:.1}/s), {} workers, artifact cache {}/{} hits",
        st.scenarios,
        st.wall_s,
        st.scenarios_per_sec(),
        st.workers.len(),
        st.artifact_hits,
        st.artifact_hits + st.artifact_misses
    );
}

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

use bench::harness;
use verif::{render_campaign, summarize, Campaign, CampaignConfig};

fn main() {
    let threads = harness::threads();
    let mut cc = CampaignConfig::default();
    if let Some(runs) = harness::parse_arg::<usize>(1) {
        cc.runs = runs;
    }
    println!(
        "Recovery matrix — {} seeded transient-fault runs per mode ({}x{}, {} frames, SimB payload {} words, {} threads)\n",
        cc.runs, cc.base.width, cc.base.height, cc.base.n_frames, cc.base.payload_words, threads
    );

    // One campaign, both modes: the executor interleaves the OFF and ON
    // batches across the worker pool and the shared artifact cache
    // serves both.
    let report = Campaign::builder()
        .base(cc.base.clone())
        .exec_mode(harness::exec_mode())
        .seed(cc.seed)
        .budget_cycles(cc.budget_cycles)
        .threads(threads)
        .recovery_campaign(cc.runs, false)
        .recovery_campaign(cc.runs, true)
        .build()
        .run();
    let rows = report.recovery_rows();
    let (off, on) = rows.split_at(cc.runs);

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

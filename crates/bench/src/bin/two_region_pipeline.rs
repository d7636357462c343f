//! Two-region split-pipeline demonstrator — CIE and ME in separate
//! reconfigurable regions, reconfigured on alternating half-frames
//! through one shared ICAP.
//!
//! Runs the split topology under both simulation methods and reports
//! the per-region reconfiguration-plane statistics only the multi-region
//! build exposes: each region's portal swap count, its own isolation
//! window, and the shared ICAP word traffic. A final clean matrix row
//! (the campaign executor's `Scenario::SplitClean`) confirms both
//! methods run the topology silently — the multi-region analogue of
//! Table III's golden baseline.
//!
//! Usage: `two_region_pipeline [payload_words] [--exec-mode <mode>]
//! [--trace-out <path>] [--metrics-out <path>]` (default payload 256).
//! With `--trace-out` the ReSim run is traced and exported as Perfetto
//! JSON, and the per-region reconfiguration timeline is reconstructed
//! from the trace events instead of bespoke probes.

use autovision::{AvSystem, SimMethod, SystemConfig};
use bench::harness;
use verif::{Campaign, CoverageProbes, ReconfigTimeline, Scenario};

fn main() {
    let payload: usize = harness::args(
        &["--exec-mode", "--trace-out", "--metrics-out"],
        &["payload_words"],
    )
    .positional(0)
    .unwrap_or(256);
    let obs_args = harness::ObsArgs::from_env();
    println!(
        "Two-region pipeline — CIE and ME in separate regions (32x24, 2 frames, SimB payload {payload} words)\n"
    );

    for method in [SimMethod::Vmux, SimMethod::Resim] {
        let cfg = harness::experiment(payload)
            .method(method)
            .regions(SystemConfig::split_regions())
            .build()
            .expect("split config is valid");
        let mut sys = AvSystem::build(cfg);
        if method == SimMethod::Resim {
            obs_args.arm(&mut sys.sim);
        }
        let probes = CoverageProbes::install(&mut sys);
        let (outcome, wall_s) = harness::timed(|| sys.run(4_000_000));
        assert!(
            !outcome.hung,
            "{method:?} split run hung: {:?}",
            sys.sim.messages()
        );
        let cov = probes.collect(&sys);
        let stats = sys.backend_stats();

        println!("{method:?}:");
        println!(
            "  frames         : {} in {} cycles ({:.2} s wall)",
            outcome.frames_captured, outcome.cycles, wall_s
        );
        match stats.icap.as_ref() {
            Some(icap) => {
                println!(
                    "  shared ICAP    : {} swaps, {} complete bitstreams, {} words accepted, {} dropped",
                    icap.swaps, icap.desyncs, icap.words_accepted, icap.words_dropped
                );
            }
            None => println!("  shared ICAP    : none (both engines permanently resident)"),
        }
        for (i, name) in ["A (CIE)", "B (ME)"].iter().enumerate() {
            let swaps = stats.regions.get(i).map(|r| r.swaps).unwrap_or(0);
            let pulses = cov.region_isolation_pulses.get(i).copied().unwrap_or(0);
            println!("  region {name:<8}: {swaps} swaps behind {pulses} isolation windows");
        }
        println!();

        if method == SimMethod::Resim && obs_args.active() {
            if sys.sim.trace_enabled() {
                let timeline = ReconfigTimeline::from_events(&sys.sim.trace_events());
                println!("trace-reconstructed reconfiguration timeline:");
                print!("{}", timeline.render());
                println!();
            }
            let metrics = harness::system_metrics(&sys, &outcome);
            obs_args.export(&sys.sim, &metrics);
            println!();
        }
    }

    println!("clean-run matrix row (both methods must stay silent):");
    let row = Campaign::builder()
        .scenario(Scenario::SplitClean)
        .threads(1)
        .build()
        .run()
        .matrix_rows()
        .remove(0);
    println!(
        "  {:<8} {:<28} vmux={:<5} resim={:<5} {}",
        row.bug,
        row.description,
        row.vmux_detected,
        row.resim_detected,
        if row.as_expected() {
            "as expected"
        } else {
            "UNEXPECTED"
        }
    );
    println!();
    println!("shape: under ReSim each region reloads once per frame behind its own");
    println!("isolation window while the other region computes; the shared ICAP");
    println!("carries both regions' images, routed by the rr_id in each SimB's FAR.");
    println!("Under VMUX hacked software runs (signature writes, no ICAP traffic).");
}

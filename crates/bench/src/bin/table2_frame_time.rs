//! Table II — "Time to simulate one video frame".
//!
//! Runs the full Optical Flow Demonstrator at the paper's scale
//! (320×240, SimB 4 K words, two reconfigurations per frame) under
//! ReSim, attributes *simulated* time to each pipeline stage with
//! waveform probes, and attributes *elapsed* (wall-clock) time with the
//! kernel profiler. The absolute wall numbers are host-dependent; the
//! shape to compare with the paper:
//!
//! * CIE simulated < ME simulated (1.1 vs 1.4 ms in the paper),
//! * but CIE *elapsed* > ME *elapsed* (6 vs 4.5 min) because the CIE
//!   toggles more signals per simulated millisecond,
//! * DPR ≪ everything else (SimB ≪ real bitstream),
//! * overall ≈ 3 ms of simulated time per frame.

use autovision::AvSystem;
use bench::{harness, paper_scale_config};
use std::time::Instant;
use verif::{probe_high_time, Probe};

fn main() {
    harness::args(&["--exec-mode", "--trace-out", "--metrics-out"], &[]);
    let cfg = paper_scale_config();
    let n_frames = cfg.n_frames as u64;
    println!(
        "Table II — time to simulate one video frame ({}x{}, SimB payload {} words, {} frames)\n",
        cfg.width, cfg.height, cfg.payload_words, cfg.n_frames
    );
    let mut sys = AvSystem::build(cfg);
    let obs_args = harness::ObsArgs::from_env();
    obs_args.arm(&mut sys.sim);
    // Typed views over the system's busy/window signals, and the two
    // engines' signal sets, all resolved once at build time.
    let cie_signals = sys.sim.signals_with_prefix("cie.");
    let me_signals = sys.sim.signals_with_prefix("me.");
    let cie_probe = Probe::<u64>::new(sys.probes.cie_busy);
    let me_probe = Probe::<u64>::new(sys.probes.me_busy);
    let dpr_probe = sys.probes.reconfiguring.map(Probe::<u64>::new);
    let cie_busy = probe_high_time(&mut sys.sim, "probe.cie", sys.probes.cie_busy);
    let me_busy = probe_high_time(&mut sys.sim, "probe.me", sys.probes.me_busy);
    let dpr = probe_high_time(
        &mut sys.sim,
        "probe.dpr",
        dpr_probe.expect("ReSim build").as_view(),
    );

    // Run in short slices, attributing each slice's wall time to the
    // pipeline stage active during it — the same attribution ModelSim's
    // profiler gives per simulated interval.
    let wall0 = Instant::now();
    let mut wall_cie = 0.0f64;
    let mut wall_me = 0.0f64;
    let mut wall_dpr = 0.0f64;
    let mut wall_other = 0.0f64;
    let slice = 64 * autovision::CLK_PERIOD_PS;
    let n_target = sys.config.n_frames;
    let budget = 40_000_000u64;
    let outcome = loop {
        let t0 = Instant::now();
        sys.sim.run_for(slice).expect("kernel error");
        let dt = t0.elapsed().as_secs_f64();
        if cie_probe.read(&sys.sim) == Some(1) {
            wall_cie += dt;
        } else if me_probe.read(&sys.sim) == Some(1) {
            wall_me += dt;
        } else if dpr_probe
            .map(|p| p.read(&sys.sim) == Some(1))
            .unwrap_or(false)
        {
            wall_dpr += dt;
        } else {
            wall_other += dt;
        }
        let cycles = sys.sim.now() / autovision::CLK_PERIOD_PS;
        let frames = sys.captured.borrow().len();
        if frames >= n_target || sys.cpu.borrow().halted {
            break autovision::RunOutcome {
                frames_captured: frames,
                halted: sys.cpu.borrow().halted,
                hung: false,
                cycles,
                kernel_error: None,
            };
        }
        assert!(cycles < budget, "run hung: {:?}", sys.sim.messages());
    };
    let wall = wall0.elapsed();
    assert!(!outcome.hung, "run hung: {:?}", sys.sim.messages());

    let per_frame_ms = |ps: u64| ps as f64 / n_frames as f64 / 1e9;
    let cie_ms = per_frame_ms(cie_busy.borrow().total_ps);
    let me_ms = per_frame_ms(me_busy.borrow().total_ps);
    let dpr_ms = per_frame_ms(dpr.borrow().total_ps);
    let isr_ms = sys.cpu.borrow().isr_cycles as f64 * 10.0 / n_frames as f64 / 1e6;
    let total_ms = outcome.cycles as f64 * 10.0 / n_frames as f64 / 1e6;

    let cie_wall = wall_cie;
    let me_wall = wall_me;

    println!(
        "{:<34} {:>14} {:>16} {:>18}",
        "", "Simulated (ms)", "paper (ms)", "Elapsed here (s)"
    );
    let row = |name: &str, sim_ms: f64, paper: &str, wall_s: Option<f64>| {
        let w = wall_s
            .map(|w| format!("{w:>18.2}"))
            .unwrap_or_else(|| format!("{:>18}", "-"));
        println!("{name:<34} {sim_ms:>14.3} {paper:>16} {w}");
    };
    row(
        "CensusImg Engine",
        cie_ms,
        "1.1",
        Some(cie_wall / n_frames as f64),
    );
    row(
        "Matching Engine",
        me_ms,
        "1.4",
        Some(me_wall / n_frames as f64),
    );
    row("PowerPC Interrupt Handler", isr_ms, "0.5", None);
    row(
        "Dynamic Partial Reconfiguration",
        dpr_ms,
        "< 0.1",
        Some(wall_dpr / n_frames as f64),
    );
    // The paper's "Overall" row is the sum of the stages above.
    row(
        "Overall",
        cie_ms + me_ms + isr_ms + dpr_ms,
        "3.0",
        Some(wall.as_secs_f64() / n_frames as f64),
    );
    println!(
        "{:<34} {:>14.3} {:>16} {:>18.2}",
        "(end-to-end incl. draw + video I/O)",
        total_ms,
        "-",
        wall_other / n_frames as f64
    );

    println!();
    let cie_rate = sys.sim.toggle_count_set(&cie_signals) as f64 / cie_ms.max(1e-9);
    let me_rate = sys.sim.toggle_count_set(&me_signals) as f64 / me_ms.max(1e-9);
    println!(
        "signal activity  : CIE {cie_rate:.0} toggles/sim-ms vs ME {me_rate:.0} toggles/sim-ms"
    );
    println!(
        "shape checks     : CIE_sim < ME_sim: {}; CIE activity/ms > ME activity/ms: {}; DPR << engines: {}",
        cie_ms < me_ms,
        cie_rate > me_rate,
        dpr_ms < 0.1 * (cie_ms + me_ms)
    );
    println!(
        "elapsed/sim-ms   : CIE {:.2} s/ms vs ME {:.2} s/ms — the paper's 5.5 vs 3.2 min/ms",
        cie_wall / n_frames as f64 / cie_ms.max(1e-9),
        me_wall / n_frames as f64 / me_ms.max(1e-9)
    );
    println!("                   inversion was driven by per-toggle interpreter cost in ModelSim;");
    println!("                   this compiled kernel charges mostly per clocked eval, so elapsed");
    println!("                   tracks cycles while the activity asymmetry above is preserved.");
    println!(
        "paper comparison : ModelSim needed 11 min/frame on 2009-era hardware; this kernel: {:.2} s/frame",
        wall.as_secs_f64() / n_frames as f64
    );
    let stats = sys.sim.stats();
    println!(
        "kernel work      : {} evals, {} deltas, {} signal toggles",
        stats.evals, stats.deltas, stats.toggles
    );
    if obs_args.active() {
        println!();
        let metrics = harness::system_metrics(&sys, &outcome);
        obs_args.export(&sys.sim, &metrics);
    }
}

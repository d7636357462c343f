//! §V-B — debug turnaround: full-system simulation vs on-chip debugging.
//!
//! Measures this host's wall-clock cost to simulate one paper-scale
//! frame, then compares a debug iteration (all the paper's bugs surfaced
//! within 2-4 simulated frames) against the paper's 52-minute
//! implementation+bitstream iteration for ChipScope on-chip debugging.

use bench::{harness, paper_scale_config};
use verif::{compare, FRAMES_TO_DETECT, ONCHIP_ITERATION_MIN};

fn main() {
    harness::args(&["--exec-mode"], &[]);
    println!("Debug-turnaround comparison (paper §V-B)\n");
    let mut cfg = paper_scale_config();
    cfg.n_frames = 2;
    let frames = cfg.n_frames as f64;
    let (_sys, _outcome, wall_s) = harness::run_built(cfg, 40_000_000);
    let sec_per_frame = wall_s / frames;

    let t = compare(sec_per_frame, FRAMES_TO_DETECT);
    println!(
        "simulation cost          : {:.2} s per 320x240 frame on this host",
        t.sim_sec_per_frame
    );
    println!(
        "frames to expose a bug   : {} (paper: all bugs within 2-4 frames)",
        t.frames_to_detect
    );
    println!("simulation debug iter    : {:.2} min", t.sim_iteration_min);
    println!(
        "on-chip debug iter       : {:.0} min (paper: implementation + bitstream)",
        ONCHIP_ITERATION_MIN
    );
    println!("advantage per iteration  : {:.0}x", t.advantage);
    println!();
    println!("paper scale: 11 min/frame -> 44 min/iteration vs 52 min on-chip;");
    println!("on-chip debugging additionally needs several iterations per bug");
    println!("because probe logic sees only a few signals at a time.");
}

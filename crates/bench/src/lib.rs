//! # bench — experiment harnesses
//!
//! One binary per table/figure of the paper (see DESIGN.md §3):
//!
//! | target | artifact |
//! |---|---|
//! | `table1_simb` | Table I — the annotated SimB word stream |
//! | `table2_frame_time` | Table II — time to simulate one video frame |
//! | `overhead_profile` | §V — simulation-time share of the ReSim artifacts |
//! | `table3_bugs` | Table III — the detection matrix |
//! | `figure5_progress` | Figure 5 — development timeline |
//! | `turnaround` | §V-B — debug-turnaround comparison |
//! | `ablation_simb_len` | §IV-B — SimB length accuracy/turnaround trade-off |
//! | `ablation_error_source` | error-injection policy ablation |
//! | `ablation_swap_trigger` | module-swap trigger ablation (bug.dpr.6b with the swap at the first SimB word) |
//! | `two_region_pipeline` | two-region split pipeline, per-region DPR statistics |
//! | `recovery_matrix` | transient-fault campaign, recovery off vs on |
//! | `fuzz_campaign` | coverage-guided schedule fuzzing and reproducer replay |
//!
//! The boilerplate the bins share (thread counts, argv, the small
//! experiment configuration, timing, evidence formatting) lives in
//! [`harness`].

pub mod harness;

use autovision::{SimMethod, SystemConfig};

/// The paper-scale Table II configuration: 320×240 frames, SimB with a
/// 4 K-word payload, fast configuration clock, ISR workload calibrated
/// to the published 0.5 ms/frame. Honours the shared `--exec-mode`
/// flag ([`harness::exec_mode`]), as [`harness::experiment`] does.
pub fn paper_scale_config() -> SystemConfig {
    SystemConfig::builder()
        .method(SimMethod::Resim)
        .width(320)
        .height(240)
        .n_frames(2)
        .payload_words(4096)
        .cfg_divider(1)
        .isr_pad_loops(4400)
        .exec_mode(harness::exec_mode())
        .build()
        .expect("paper-scale config is valid")
}

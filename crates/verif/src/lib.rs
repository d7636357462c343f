//! # verif — the verification harness
//!
//! Machinery that turns the AutoVision system plus the bug catalog into
//! the paper's quantitative results:
//!
//! * [`detect`] — run one configured system and classify the outcome
//!   with automated oracles (checker errors, golden-model scoreboard,
//!   poison tracking, hang detection);
//! * [`executor`] — the campaign execution plane: a work-stealing
//!   scenario pool behind the unified [`Scenario`] / [`Campaign`] API,
//!   with deterministic aggregation, shared setup artifacts, panic
//!   isolation and per-worker scheduling metrics;
//! * [`matrix`] — the full bug × method detection matrix (Table III),
//!   with the paper's expected outcomes encoded for regression checking;
//! * [`timeline`] — the Figure 5 development timeline, with the bug
//!   series regenerated from the matrix;
//! * [`turnaround`] — the §V-B simulation vs on-chip debug-turnaround
//!   comparison;
//! * [`recovery`] — the randomized transient-fault injection campaign
//!   measuring the resilient-reconfiguration machinery;
//! * [`reconfig_timeline`] — per-region reconfiguration timelines
//!   reconstructed from the kernel's structured trace;
//! * [`fuzz`] — coverage-guided fuzzing of the reconfiguration
//!   schedule, with signature-deduplicated failures and deterministic
//!   shrinking to minimal replayable reproducers;
//! * [`wire`] — the versioned campaign wire schemas
//!   (`campaign_submit/v1`, `campaign_report/v1`) shared by the
//!   in-process API, the `verifd` daemon and the `verifctl` client.

pub mod coverage;
pub mod detect;
pub mod executor;
pub mod fuzz;
pub mod matrix;
pub mod probe;
pub mod reconfig_timeline;
pub mod recovery;
pub mod timeline;
pub mod turnaround;
pub mod wire;

pub use coverage::{CoverageProbes, DprCoverage};
pub use detect::{run_experiment, Evidence, Verdict};
pub use executor::{
    execute, execute_streaming, run_scenario, Campaign, CampaignBuilder, CampaignOptions,
    CampaignReport, CampaignRow, ExecutorStats, PoolOptions, RecoveryRow, RecoverySpec, Scenario,
    ScenarioCtx, ScenarioOutcome, ScenarioSpan, Schedule, WorkerStats,
};
pub use fuzz::{
    coverage_of, failure_signature, replay, run_fuzz, shrink, FuzzFailure, FuzzOptions, FuzzReport,
    FuzzRepro, FuzzRow, FuzzSchedule, FuzzSpec, FuzzTopology,
};
pub use matrix::{
    expected_detection, render_matrix, run_bug, run_clean, run_split_clean, MatrixConfig, MatrixRow,
};
pub use probe::{probe_high_time, HighTime, Probe};
pub use reconfig_timeline::{ReconfigTimeline, RegionTimeline};
pub use recovery::{
    render_campaign, run_one, summarize, CampaignConfig, CampaignSummary, RunClass,
};
pub use timeline::{build_timeline, render_timeline, Phase, WeekRow, LOC_SERIES};
pub use turnaround::{compare, Turnaround, FRAMES_TO_DETECT, ONCHIP_ITERATION_MIN};
pub use wire::{
    report_from_json, report_to_json, row_to_json, scenario_from_json, scenario_to_json, wire_row,
    CampaignSubmission, WireOutcome, WireReport, WireRow, CAMPAIGN_REPORT_SCHEMA,
    CAMPAIGN_SUBMIT_SCHEMA,
};

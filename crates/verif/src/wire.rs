//! The campaign wire schemas — the one place `campaign_submit/v1`
//! documents and `campaign_report/v1` rows are defined.
//!
//! The in-process [`Campaign`] API, the `verifd` daemon and the
//! `verifctl` client all serialize through this module, so a row
//! streamed over a socket is byte-identical to the same row rendered
//! from an in-process run — the determinism contract the service
//! inherits from the executor. Submissions reuse the shapes the repo
//! already ships: scenarios mirror [`Scenario`]'s variants, and fuzz
//! scenarios carry their schedule in the `fuzz_repro/v1` knob encoding
//! (`warmup_cycles`, `flip_beat`/`flip_bit`, ...). A fuzz scenario runs
//! in the submission's `exec_mode`, like every other scenario.
//!
//! Both directions are schema-checked: [`CampaignSubmission::from_json`]
//! and [`report_from_json`] reject any document whose `schema` member is
//! not the version this build speaks. The decoders of documents that
//! request work — submissions and `fuzz_repro` files — also bound it:
//! [`MAX_BUDGET_CYCLES`], [`MAX_THREADS`] and [`MAX_SCENARIOS`] cap what
//! one document can ask for, so every accepted scenario finishes in
//! bounded host time.
//!
//! # Examples
//!
//! A submission round-trips through its JSON document:
//!
//! ```
//! use verif::wire::CampaignSubmission;
//! use verif::Scenario;
//!
//! let sub = CampaignSubmission {
//!     scenarios: vec![Scenario::Clean, Scenario::SplitClean],
//!     budget_cycles: 200_000,
//!     ..Default::default()
//! };
//! let doc = sub.to_json();
//! assert!(doc.contains("\"schema\": \"campaign_submit/v1\""));
//! assert_eq!(CampaignSubmission::from_json(&doc).unwrap(), sub);
//! assert_eq!(sub.to_campaign().scenarios().len(), 2);
//! ```
//!
//! Unknown schema versions are rejected, not guessed at:
//!
//! ```
//! use verif::wire::CampaignSubmission;
//!
//! let err = CampaignSubmission::from_json(
//!     "{\"schema\": \"campaign_submit/v99\", \"scenarios\": []}",
//! )
//! .unwrap_err();
//! assert!(err.contains("campaign_submit/v1"), "{err}");
//! ```
//!
//! A report document parses back into typed rows and re-renders
//! byte-identically:
//!
//! ```
//! use verif::wire::{report_from_json, report_to_json};
//! use verif::{Campaign, Scenario};
//!
//! let report = Campaign::builder()
//!     .threads(1)
//!     .scenario(Scenario::Clean)
//!     .build()
//!     .run();
//! let doc = report_to_json(&report);
//! let parsed = report_from_json(&doc).unwrap();
//! assert_eq!(parsed.rows.len(), 1);
//! assert_eq!(parsed.to_json(), doc);
//! ```

use crate::executor::{
    Campaign, CampaignReport, CampaignRow, RecoverySpec, Scenario, ScenarioOutcome,
};
use crate::fuzz::{FuzzSchedule, FuzzSpec, FuzzTopology};
use autovision::Bug;
use obs::json::{escape, Json};
use rtlsim::ExecMode;

/// Schema tag of a campaign submission document.
pub const CAMPAIGN_SUBMIT_SCHEMA: &str = "campaign_submit/v1";
/// Schema tag of a campaign report document (and, per row, the schema
/// the daemon stamps on streamed row frames).
pub const CAMPAIGN_REPORT_SCHEMA: &str = "campaign_report/v1";

/// The largest `budget_cycles` a submission or `fuzz_repro` document
/// may request, and the largest fuzz `warmup_cycles`: ten times the
/// 400 000-cycle default. The cycle budget is the only thing that ends
/// a run early, so this cap bounds every run's host time.
pub const MAX_BUDGET_CYCLES: u64 = 4_000_000;
/// The most worker threads a submission may request.
pub const MAX_THREADS: usize = 256;
/// The most scenarios a submission may plan: its explicit scenarios,
/// plus the matrix, plus the recovery batch.
pub const MAX_SCENARIOS: usize = 16_384;

fn schema_check(v: &Json, want: &str) -> Result<(), String> {
    match v.get("schema").and_then(Json::as_str) {
        Some(got) if got == want => Ok(()),
        Some(got) => Err(format!(
            "unsupported schema \"{got}\" (this build speaks {want})"
        )),
        None => Err(format!("document has no schema member (expected {want})")),
    }
}

pub(crate) fn str_of(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string key {key}"))
}

pub(crate) fn u64_of(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer key {key}"))
}

/// [`u64_of`], rejecting a value above `max` with an error naming the
/// key and the limit.
pub(crate) fn u64_at_most(v: &Json, key: &str, max: u64) -> Result<u64, String> {
    match u64_of(v, key)? {
        n if n > max => Err(format!("key {key} is {n}, above the limit of {max}")),
        n => Ok(n),
    }
}

fn u32_of(v: &Json, key: &str) -> Result<u32, String> {
    u64_at_most(v, key, u32::MAX.into()).map(|n| n as u32)
}

fn bool_of(v: &Json, key: &str) -> Result<bool, String> {
    v.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("missing or non-bool key {key}"))
}

fn opt_u32_of(v: &Json, key: &str) -> Result<Option<u32>, String> {
    match v.get(key) {
        None => Err(format!("missing key {key}")),
        Some(Json::Null) => Ok(None),
        Some(_) => u32_of(v, key).map(Some),
    }
}

fn opt_str_of(v: &Json, key: &str) -> Result<Option<String>, String> {
    match v.get(key) {
        None => Err(format!("missing key {key}")),
        Some(Json::Null) => Ok(None),
        Some(s) => s
            .as_str()
            .map(|x| Some(x.to_string()))
            .ok_or_else(|| format!("non-string key {key}")),
    }
}

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

/// One scenario as a single-line JSON object (`{"kind": "clean"}`,
/// `{"kind": "bug", "bug": "bug.dpr.4"}`, ...). Fuzz scenarios carry
/// their schedule in the `fuzz_repro/v1` knob encoding.
pub fn scenario_to_json(s: &Scenario) -> String {
    match s {
        Scenario::Clean => "{\"kind\": \"clean\"}".to_string(),
        Scenario::Bug(b) => format!("{{\"kind\": \"bug\", \"bug\": \"{}\"}}", b.id()),
        Scenario::SplitClean => "{\"kind\": \"split_clean\"}".to_string(),
        Scenario::Recovery(spec) => format!(
            "{{\"kind\": \"recovery\", \"fault\": \"{}\", \"seed\": {}, \"recovery_on\": {}}}",
            spec.fault.id(),
            spec.seed,
            spec.recovery_on
        ),
        Scenario::Fuzz(spec) => format!(
            "{{\"kind\": \"fuzz\", \"id\": {}, {}}}",
            spec.id,
            schedule_to_json(&spec.schedule, ", ")
        ),
    }
}

/// Parse one scenario object (the inverse of [`scenario_to_json`]).
pub fn scenario_from_json(v: &Json) -> Result<Scenario, String> {
    let kind = str_of(v, "kind")?;
    match kind.as_str() {
        "clean" => Ok(Scenario::Clean),
        "split_clean" => Ok(Scenario::SplitClean),
        "bug" => {
            let id = str_of(v, "bug")?;
            let bug = Bug::from_id(&id).ok_or_else(|| format!("unknown bug id \"{id}\""))?;
            Ok(Scenario::Bug(bug))
        }
        "recovery" => {
            let id = str_of(v, "fault")?;
            let fault = Bug::from_id(&id).ok_or_else(|| format!("unknown fault id \"{id}\""))?;
            if !Bug::TRANSIENTS.contains(&fault) {
                return Err(format!("\"{id}\" is not a transient fault"));
            }
            Ok(Scenario::Recovery(RecoverySpec {
                fault,
                seed: u64_of(v, "seed")?,
                recovery_on: bool_of(v, "recovery_on")?,
            }))
        }
        "fuzz" => Ok(Scenario::Fuzz(FuzzSpec {
            id: u32_of(v, "id")?,
            schedule: schedule_from_json(v)?,
        })),
        other => Err(format!("unknown scenario kind \"{other}\"")),
    }
}

/// Encode a fuzz schedule's knobs as `"key": value` members in the
/// `fuzz_repro/v1` key order, joined by `sep` — the one encoder fuzz
/// scenarios and `fuzz_repro` documents share, each with its own
/// separator. Unset optional knobs render as `null`.
pub(crate) fn schedule_to_json(s: &FuzzSchedule, sep: &str) -> String {
    let opt = |v: Option<u32>| v.map_or_else(|| "null".to_string(), |x| x.to_string());
    let (beat, bit) = s.flip.unzip();
    let split = s.topology == FuzzTopology::Split;
    [
        ("warmup_cycles", s.warmup_cycles.to_string()),
        ("isr_pad_loops", s.isr_pad_loops.to_string()),
        ("cfg_divider", s.cfg_divider.to_string()),
        ("mem_wait_states", s.mem_wait_states.to_string()),
        ("fixed_wait_loops", s.fixed_wait_loops.to_string()),
        ("round_robin", s.round_robin.to_string()),
        ("split_topology", split.to_string()),
        ("recovery_on", s.recovery_on.to_string()),
        ("flip_beat", opt(beat)),
        ("flip_bit", opt(bit)),
        ("stall", opt(s.stall)),
        ("bus_errors", s.bus_errors.to_string()),
        ("ready_drop", opt(s.ready_drop)),
    ]
    .map(|(key, value)| format!("\"{key}\": {value}"))
    .join(sep)
}

/// Decode a fuzz schedule's knobs from the `fuzz_repro/v1` key set —
/// the one decoder fuzz scenarios and `fuzz_repro` documents share.
/// Other members (an `exec_mode` written by earlier builds among them)
/// are ignored. The warmup runs before the cycle budget starts, so it
/// is capped at [`MAX_BUDGET_CYCLES`] too.
pub(crate) fn schedule_from_json(v: &Json) -> Result<FuzzSchedule, String> {
    let flip = match (opt_u32_of(v, "flip_beat")?, opt_u32_of(v, "flip_bit")?) {
        (Some(beat), Some(bit)) => Some((beat, bit)),
        (None, None) => None,
        _ => return Err("flip_beat/flip_bit must both be set or both null".to_string()),
    };
    Ok(FuzzSchedule {
        warmup_cycles: u64_at_most(v, "warmup_cycles", MAX_BUDGET_CYCLES)? as u32,
        isr_pad_loops: u32_of(v, "isr_pad_loops")?,
        cfg_divider: u32_of(v, "cfg_divider")?,
        mem_wait_states: u32_of(v, "mem_wait_states")?,
        fixed_wait_loops: u32_of(v, "fixed_wait_loops")?,
        round_robin: bool_of(v, "round_robin")?,
        topology: if bool_of(v, "split_topology")? {
            FuzzTopology::Split
        } else {
            FuzzTopology::Single
        },
        recovery_on: bool_of(v, "recovery_on")?,
        flip,
        stall: opt_u32_of(v, "stall")?,
        bus_errors: u32_of(v, "bus_errors")?,
        ready_drop: opt_u32_of(v, "ready_drop")?,
    })
}

// ---------------------------------------------------------------------
// Submissions
// ---------------------------------------------------------------------

/// One `campaign_submit/v1` document: an explicit scenario list plus
/// the executor knobs a client may set. Runs over the standard matrix
/// base configuration (32×24, two frames, 256-word SimB). The thread
/// count is a *request*: a daemon configured with its own value
/// overrides it, and by the executor's determinism contract it changes
/// no row.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSubmission {
    /// Explicit scenarios, in submission order.
    pub scenarios: Vec<Scenario>,
    /// Prepend the full detection matrix (clean + every catalogued bug).
    pub matrix: bool,
    /// Append a seeded transient-recovery batch of this many runs.
    pub recovery_runs: usize,
    /// Recovery-batch policy (ignored when `recovery_runs` is 0).
    pub recovery_on: bool,
    /// Master seed for the recovery batch expansion.
    pub seed: u64,
    /// Hang budget per run, in cycles.
    pub budget_cycles: u64,
    /// Requested worker threads (0 = executor default / daemon policy).
    pub threads: usize,
    /// Kernel execution mode for every scenario in the campaign.
    pub exec_mode: ExecMode,
}

impl Default for CampaignSubmission {
    fn default() -> Self {
        CampaignSubmission {
            scenarios: Vec::new(),
            matrix: false,
            recovery_runs: 0,
            recovery_on: true,
            seed: 0xFA_17,
            budget_cycles: 400_000,
            threads: 0,
            exec_mode: ExecMode::default(),
        }
    }
}

impl CampaignSubmission {
    /// Serialize as a `campaign_submit/v1` document.
    pub fn to_json(&self) -> String {
        let scenarios: Vec<String> = self
            .scenarios
            .iter()
            .map(|s| format!("    {}", scenario_to_json(s)))
            .collect();
        format!(
            "{{\n  \"schema\": \"{}\",\n  \"seed\": {},\n  \"budget_cycles\": {},\n  \
             \"threads\": {},\n  \"exec_mode\": \"{}\",\n  \
             \"matrix\": {},\n  \"recovery_runs\": {},\n  \"recovery_on\": {},\n  \
             \"scenarios\": [\n{}\n  ]\n}}\n",
            CAMPAIGN_SUBMIT_SCHEMA,
            self.seed,
            self.budget_cycles,
            self.threads,
            self.exec_mode.as_str(),
            self.matrix,
            self.recovery_runs,
            self.recovery_on,
            scenarios.join(",\n"),
        )
    }

    /// Parse a `campaign_submit/v1` document, rejecting any other
    /// schema version. Every executor knob is optional and defaults as
    /// [`CampaignSubmission::default`]; `scenarios` is required (an
    /// empty array is legal when `matrix` or `recovery_runs` supplies
    /// the work). A budget above [`MAX_BUDGET_CYCLES`], a thread request
    /// above [`MAX_THREADS`] or a plan of more than [`MAX_SCENARIOS`]
    /// scenarios is rejected with an error naming the limit. Unknown
    /// members are ignored, such as the `scenario_budget` that earlier
    /// clients sent.
    pub fn from_json(doc: &str) -> Result<CampaignSubmission, String> {
        let v = Json::parse(doc)?;
        schema_check(&v, CAMPAIGN_SUBMIT_SCHEMA)?;
        let d = CampaignSubmission::default();
        let opt_u64 = |key: &str, d: u64, max: u64| match v.get(key) {
            None => Ok(d),
            Some(_) => u64_at_most(&v, key, max),
        };
        let opt_usize = |key: &str, d: usize, max: usize| {
            opt_u64(key, d as u64, max as u64).map(|n| n as usize)
        };
        let opt_bool = |key: &str, d: bool| match v.get(key) {
            None => Ok(d),
            Some(b) => b.as_bool().ok_or_else(|| format!("non-bool key {key}")),
        };
        let scenarios = v
            .get("scenarios")
            .and_then(Json::as_array)
            .ok_or("missing or non-array key scenarios")?
            .iter()
            .map(scenario_from_json)
            .collect::<Result<Vec<Scenario>, String>>()?;
        let sub = CampaignSubmission {
            scenarios,
            matrix: opt_bool("matrix", d.matrix)?,
            recovery_runs: opt_usize("recovery_runs", d.recovery_runs, MAX_SCENARIOS)?,
            recovery_on: opt_bool("recovery_on", d.recovery_on)?,
            seed: opt_u64("seed", d.seed, u64::MAX)?,
            budget_cycles: opt_u64("budget_cycles", d.budget_cycles, MAX_BUDGET_CYCLES)?,
            threads: opt_usize("threads", d.threads, MAX_THREADS)?,
            exec_mode: match v.get("exec_mode") {
                None => d.exec_mode,
                Some(_) => str_of(&v, "exec_mode")?
                    .parse()
                    .map_err(|e| format!("key exec_mode: {e}"))?,
            },
        };
        // What `plan` expands: the matrix, the explicit list, the batch.
        let matrix = if sub.matrix { 1 + Bug::ALL.len() } else { 0 };
        let planned = matrix + sub.scenarios.len() + sub.recovery_runs;
        if planned > MAX_SCENARIOS {
            return Err(format!(
                "the submission plans {planned} scenarios, above the limit of {MAX_SCENARIOS}"
            ));
        }
        Ok(sub)
    }

    /// The fully planned campaign this submission describes: the matrix
    /// (when requested), then the explicit scenarios, then the seeded
    /// recovery batch. A zero thread request keeps the executor
    /// default; the daemon may grant another count through
    /// [`CampaignSubmission::plan`] without changing rows.
    pub fn to_campaign(&self) -> Campaign {
        self.plan(self.threads)
    }

    /// [`CampaignSubmission::to_campaign`] with the thread count the
    /// serving side actually grants (0 keeps the executor default).
    pub fn plan(&self, threads: usize) -> Campaign {
        let mut b = Campaign::builder()
            .seed(self.seed)
            .budget_cycles(self.budget_cycles)
            .exec_mode(self.exec_mode);
        if threads > 0 {
            b = b.threads(threads);
        }
        if self.matrix {
            b = b.matrix();
        }
        b = b.scenarios(self.scenarios.iter().copied());
        if self.recovery_runs > 0 {
            b = b.recovery_campaign(self.recovery_runs, self.recovery_on);
        }
        b.build()
    }
}

// ---------------------------------------------------------------------
// Report rows
// ---------------------------------------------------------------------

/// One parsed `campaign_report/v1` row — the wire-visible projection of
/// a [`CampaignRow`] (full in-process rows carry more: expectations,
/// frame counts, whole coverage maps).
#[derive(Debug, Clone, PartialEq)]
pub struct WireRow {
    /// Submission index.
    pub index: usize,
    /// The scenario, `Debug`-rendered.
    pub scenario: String,
    /// The outcome fields the schema carries.
    pub outcome: WireOutcome,
}

/// The per-kind payload of a [`WireRow`].
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum WireOutcome {
    Matrix {
        bug: String,
        vmux_detected: bool,
        resim_detected: bool,
        evidence: String,
    },
    Recovery {
        fault: String,
        fired: bool,
        class: String,
        retries: u64,
    },
    Fuzz {
        detected: bool,
        signature: Option<String>,
        kernel_error: Option<String>,
        coverage_keys: usize,
        evidence: Vec<String>,
    },
    Failed {
        panic: String,
    },
    Cancelled,
}

/// Project an executor row onto its wire shape.
pub fn wire_row(row: &CampaignRow) -> WireRow {
    let outcome = match &row.outcome {
        ScenarioOutcome::Matrix(m) => WireOutcome::Matrix {
            bug: m.bug.clone(),
            vmux_detected: m.vmux_detected,
            resim_detected: m.resim_detected,
            evidence: m.evidence.clone(),
        },
        ScenarioOutcome::Recovery(rr) => WireOutcome::Recovery {
            fault: rr.fault.id().to_string(),
            fired: rr.fired,
            class: format!("{:?}", rr.class),
            retries: rr.retries,
        },
        ScenarioOutcome::Fuzz(f) => WireOutcome::Fuzz {
            detected: f.detected,
            signature: f.signature.clone(),
            kernel_error: f.kernel_error.clone(),
            coverage_keys: f.coverage.len(),
            evidence: f.evidence.iter().map(|e| format!("{e:?}")).collect(),
        },
        ScenarioOutcome::Failed { panic } => WireOutcome::Failed {
            panic: panic.clone(),
        },
        ScenarioOutcome::Cancelled => WireOutcome::Cancelled,
    };
    WireRow {
        index: row.index,
        scenario: format!("{:?}", row.scenario),
        outcome,
    }
}

/// One executor row as its single-line wire JSON object — what the
/// daemon streams and what [`report_to_json`] embeds per row. The
/// byte-identity contract hangs off this function being the only
/// renderer.
pub fn row_to_json(row: &CampaignRow) -> String {
    wire_row(row).to_json()
}

impl WireRow {
    /// The row as its single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            format!("\"index\": {}", self.index),
            format!("\"scenario\": \"{}\"", escape(&self.scenario)),
        ];
        let opt_str = |key: &str, v: &Option<String>| match v {
            Some(s) => format!("\"{key}\": \"{}\"", escape(s)),
            None => format!("\"{key}\": null"),
        };
        match &self.outcome {
            WireOutcome::Matrix {
                bug,
                vmux_detected,
                resim_detected,
                evidence,
            } => {
                fields.push("\"kind\": \"matrix\"".to_string());
                fields.push(format!("\"bug\": \"{}\"", escape(bug)));
                fields.push(format!("\"vmux_detected\": {vmux_detected}"));
                fields.push(format!("\"resim_detected\": {resim_detected}"));
                fields.push(format!("\"evidence\": \"{}\"", escape(evidence)));
            }
            WireOutcome::Recovery {
                fault,
                fired,
                class,
                retries,
            } => {
                fields.push("\"kind\": \"recovery\"".to_string());
                fields.push(format!("\"fault\": \"{}\"", escape(fault)));
                fields.push(format!("\"fired\": {fired}"));
                fields.push(format!("\"class\": \"{}\"", escape(class)));
                fields.push(format!("\"retries\": {retries}"));
            }
            WireOutcome::Fuzz {
                detected,
                signature,
                kernel_error,
                coverage_keys,
                evidence,
            } => {
                let items: Vec<String> = evidence
                    .iter()
                    .map(|e| format!("\"{}\"", escape(e)))
                    .collect();
                fields.push("\"kind\": \"fuzz\"".to_string());
                fields.push(format!("\"detected\": {detected}"));
                fields.push(opt_str("signature", signature));
                fields.push(opt_str("kernel_error", kernel_error));
                fields.push(format!("\"coverage_keys\": {coverage_keys}"));
                fields.push(format!("\"evidence\": [{}]", items.join(", ")));
            }
            WireOutcome::Failed { panic } => {
                fields.push("\"kind\": \"failed\"".to_string());
                fields.push(format!("\"panic\": \"{}\"", escape(panic)));
            }
            WireOutcome::Cancelled => {
                fields.push("\"kind\": \"cancelled\"".to_string());
            }
        }
        format!("{{{}}}", fields.join(", "))
    }

    /// Parse one row from its parsed JSON object.
    pub fn from_value(v: &Json) -> Result<WireRow, String> {
        let kind = str_of(v, "kind")?;
        let outcome = match kind.as_str() {
            "matrix" => WireOutcome::Matrix {
                bug: str_of(v, "bug")?,
                vmux_detected: bool_of(v, "vmux_detected")?,
                resim_detected: bool_of(v, "resim_detected")?,
                evidence: str_of(v, "evidence")?,
            },
            "recovery" => WireOutcome::Recovery {
                fault: str_of(v, "fault")?,
                fired: bool_of(v, "fired")?,
                class: str_of(v, "class")?,
                retries: u64_of(v, "retries")?,
            },
            "fuzz" => WireOutcome::Fuzz {
                detected: bool_of(v, "detected")?,
                signature: opt_str_of(v, "signature")?,
                kernel_error: opt_str_of(v, "kernel_error")?,
                coverage_keys: u64_of(v, "coverage_keys")? as usize,
                evidence: v
                    .get("evidence")
                    .and_then(Json::as_array)
                    .ok_or("missing or non-array key evidence")?
                    .iter()
                    .map(|e| {
                        e.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| "non-string evidence item".to_string())
                    })
                    .collect::<Result<Vec<String>, String>>()?,
            },
            "failed" => WireOutcome::Failed {
                panic: str_of(v, "panic")?,
            },
            "cancelled" => WireOutcome::Cancelled,
            other => return Err(format!("unknown row kind \"{other}\"")),
        };
        Ok(WireRow {
            index: u64_of(v, "index")? as usize,
            scenario: str_of(v, "scenario")?,
            outcome,
        })
    }

    /// Parse one row from its JSON text.
    pub fn from_json(doc: &str) -> Result<WireRow, String> {
        WireRow::from_value(&Json::parse(doc)?)
    }
}

// ---------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------

/// A parsed `campaign_report/v1` document.
#[derive(Debug, Clone, PartialEq)]
pub struct WireReport {
    /// The rows, in submission order.
    pub rows: Vec<WireRow>,
    /// `stats.scenarios` of the producing run.
    pub scenarios: usize,
    /// `stats.workers` of the producing run.
    pub workers: usize,
}

impl WireReport {
    /// Re-render the document — byte-identical to the [`report_to_json`]
    /// output it was parsed from.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\n  \"schema\": \"{CAMPAIGN_REPORT_SCHEMA}\",\n  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {}{}\n",
                r.to_json(),
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "  ],\n  \"stats\": {{\"scenarios\": {}, \"workers\": {}}}\n}}\n",
            self.scenarios, self.workers
        ));
        out
    }
}

/// Render a full report as its `campaign_report/v1` document: one
/// object per row carrying the scenario, the outcome kind, and — so
/// failures are diagnosable without rerunning — the panic payload, the
/// kernel-error text and the evidence strings. Stats are
/// wall-clock-dependent and deliberately reduced to scenario/worker
/// counts.
pub fn report_to_json(report: &CampaignReport) -> String {
    WireReport {
        rows: report.rows.iter().map(wire_row).collect(),
        scenarios: report.stats.scenarios,
        workers: report.stats.workers.len(),
    }
    .to_json()
}

/// Parse a `campaign_report/v1` document, rejecting any other schema
/// version.
pub fn report_from_json(doc: &str) -> Result<WireReport, String> {
    let v = Json::parse(doc)?;
    schema_check(&v, CAMPAIGN_REPORT_SCHEMA)?;
    let rows = v
        .get("rows")
        .and_then(Json::as_array)
        .ok_or("missing or non-array key rows")?
        .iter()
        .map(WireRow::from_value)
        .collect::<Result<Vec<WireRow>, String>>()?;
    let stats = v.get("stats").ok_or("missing key stats")?;
    Ok(WireReport {
        rows,
        scenarios: u64_of(stats, "scenarios")? as usize,
        workers: u64_of(stats, "workers")? as usize,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_submission() -> CampaignSubmission {
        CampaignSubmission {
            scenarios: vec![
                Scenario::Clean,
                Scenario::Bug(Bug::Dpr4P2pOnSharedBus),
                Scenario::SplitClean,
                Scenario::Recovery(RecoverySpec {
                    fault: Bug::TransientBusError,
                    seed: 77,
                    recovery_on: true,
                }),
                Scenario::Fuzz(FuzzSpec {
                    id: 9,
                    schedule: FuzzSchedule {
                        warmup_cycles: 128,
                        flip: Some((3, 17)),
                        stall: None,
                        ..FuzzSchedule::baseline(&autovision::SystemConfig::default())
                    },
                }),
            ],
            matrix: false,
            recovery_runs: 2,
            recovery_on: false,
            seed: 0xDEAD_BEEF_0000_0001,
            budget_cycles: 123_456,
            threads: 3,
            exec_mode: ExecMode::Compiled,
        }
    }

    #[test]
    fn submission_roundtrips_every_scenario_kind() {
        let sub = mixed_submission();
        // The fuzz scenario's knob bytes, pinned: key order, separators
        // and the `null` rule for unset optional knobs.
        assert_eq!(
            scenario_to_json(&sub.scenarios[4]),
            concat!(
                r#"{"kind": "fuzz", "id": 9, "warmup_cycles": 128, "isr_pad_loops": 8, "#,
                r#""cfg_divider": 4, "mem_wait_states": 1, "fixed_wait_loops": 250, "#,
                r#""round_robin": false, "split_topology": false, "recovery_on": false, "#,
                r#""flip_beat": 3, "flip_bit": 17, "stall": null, "bus_errors": 0, "#,
                r#""ready_drop": null}"#,
            )
        );
        let doc = sub.to_json();
        let parsed = CampaignSubmission::from_json(&doc).expect("parse back");
        assert_eq!(parsed, sub);
        // And the second render is byte-identical.
        assert_eq!(parsed.to_json(), doc);
        // A fuzz scenario runs in the submission's mode: an `exec_mode`
        // member on it is ignored like any unknown key.
        let fuzz = scenario_to_json(&sub.scenarios[4]).replace('}', ", \"exec_mode\": \"event\"}");
        let v = Json::parse(&fuzz).expect("valid JSON");
        assert_eq!(scenario_from_json(&v), Ok(sub.scenarios[4]));
    }

    #[test]
    fn submission_defaults_fill_missing_members() {
        let parsed = CampaignSubmission::from_json(
            "{\"schema\": \"campaign_submit/v1\", \"scenarios\": [{\"kind\": \"clean\"}]}",
        )
        .expect("minimal doc parses");
        assert_eq!(parsed.scenarios, vec![Scenario::Clean]);
        assert_eq!(parsed.budget_cycles, 400_000);
        assert_eq!(parsed.exec_mode, ExecMode::Compiled);
        assert_eq!(parsed.threads, 0);
    }

    #[test]
    fn submission_rejects_wrong_schema_and_bad_scenarios() {
        assert!(CampaignSubmission::from_json("{\"scenarios\": []}")
            .unwrap_err()
            .contains("no schema"));
        assert!(CampaignSubmission::from_json(
            "{\"schema\": \"campaign_submit/v2\", \"scenarios\": []}"
        )
        .unwrap_err()
        .contains("unsupported schema"));
        for bad in [
            "{\"kind\": \"bug\", \"bug\": \"bug.zz.1\"}",
            "{\"kind\": \"recovery\", \"fault\": \"bug.hw.1\", \"seed\": 1, \"recovery_on\": true}",
            "{\"kind\": \"wat\"}",
        ] {
            let doc = format!("{{\"schema\": \"campaign_submit/v1\", \"scenarios\": [{bad}]}}");
            assert!(
                CampaignSubmission::from_json(&doc).is_err(),
                "accepted {bad}"
            );
        }
        for mode in ["auto", "event-driven"] {
            let err = CampaignSubmission::from_json(&format!(
                "{{\"schema\": \"campaign_submit/v1\", \"scenarios\": [], \"exec_mode\": \"{mode}\"}}"
            ))
            .unwrap_err();
            assert!(err.contains("unknown exec mode"), "{err}");
        }
    }

    /// A submission document with no scenarios and `members` spliced
    /// in before `scenarios`.
    fn submit_doc(members: &str) -> String {
        format!("{{\"schema\": \"campaign_submit/v1\", {members}\"scenarios\": []}}")
    }

    #[test]
    fn submission_knobs_past_their_limits_are_rejected_naming_the_limit() {
        let (budget, threads) = (MAX_BUDGET_CYCLES, MAX_THREADS as u64);
        let (plan, room) = (MAX_SCENARIOS as u64, MAX_SCENARIOS - 1 - Bug::ALL.len());
        for (members, limit) in [
            (format!("\"budget_cycles\": {}, ", u64::MAX), budget),
            (format!("\"budget_cycles\": {}, ", budget + 1), budget),
            (format!("\"threads\": {}, ", threads + 1), threads),
            (format!("\"threads\": {}, ", 1u64 << 40), threads),
            (format!("\"recovery_runs\": {}, ", 1u64 << 40), plan),
            (
                format!("\"matrix\": true, \"recovery_runs\": {}, ", room + 1),
                plan,
            ),
        ] {
            let err = CampaignSubmission::from_json(&submit_doc(&members)).unwrap_err();
            assert!(
                err.contains(&format!("limit of {limit}")),
                "{members}: {err}"
            );
        }
        // Every limit itself is legal.
        let at_limits = submit_doc(&format!(
            "\"budget_cycles\": {budget}, \"threads\": {threads}, \
             \"matrix\": true, \"recovery_runs\": {room}, "
        ));
        let sub = CampaignSubmission::from_json(&at_limits).expect("the limits parse");
        assert_eq!(sub.to_campaign().scenarios().len(), MAX_SCENARIOS);
    }

    #[test]
    fn integer_knobs_out_of_range_are_rejected_not_truncated() {
        let fuzz = scenario_to_json(&mixed_submission().scenarios[4]);
        for (from, to) in [
            (
                "\"cfg_divider\": 4,",
                "\"cfg_divider\": 4294967300,".to_string(),
            ),
            ("\"id\": 9,", "\"id\": 4294967305,".to_string()),
            (
                "\"flip_beat\": 3,",
                "\"flip_beat\": 4294967299,".to_string(),
            ),
            (
                "\"warmup_cycles\": 128,",
                format!("\"warmup_cycles\": {},", MAX_BUDGET_CYCLES + 1),
            ),
        ] {
            let scenario = fuzz.replace(from, &to);
            assert_ne!(scenario, fuzz, "{from} not found");
            let doc =
                format!("{{\"schema\": \"campaign_submit/v1\", \"scenarios\": [{scenario}]}}");
            let err = CampaignSubmission::from_json(&doc).unwrap_err();
            let key = from.split('"').nth(1).expect("quoted key");
            assert!(err.contains(&format!("key {key} is")), "{err}");
        }
        // A reproducer's warmup runs before its budget starts: it is
        // capped too, not wrapped to zero.
        let repro = crate::fuzz::FuzzRepro {
            schedule: FuzzSchedule::baseline(&autovision::SystemConfig::default()),
            signature: "hang".to_string(),
            mutations: 0,
            budget_cycles: 400_000,
        }
        .to_json()
        .replace("\"warmup_cycles\": 0,", "\"warmup_cycles\": 4294967296,");
        let err = crate::fuzz::FuzzRepro::from_json(&repro).unwrap_err();
        assert!(err.contains("key warmup_cycles is 4294967296"), "{err}");
        assert!(
            err.contains(&format!("limit of {MAX_BUDGET_CYCLES}")),
            "{err}"
        );
    }

    #[test]
    fn submission_expands_matrix_and_recovery_batches_like_the_builder() {
        let sub = CampaignSubmission {
            matrix: true,
            recovery_runs: 4,
            recovery_on: true,
            seed: 0xFA_17,
            ..Default::default()
        };
        let campaign = sub.to_campaign();
        let want = Campaign::builder()
            .seed(0xFA_17)
            .matrix()
            .recovery_campaign(4, true)
            .build();
        assert_eq!(campaign.scenarios(), want.scenarios());
    }

    #[test]
    fn report_roundtrip_is_byte_identical_including_failures() {
        let report = Campaign::builder()
            .threads(2)
            .scenario(Scenario::Clean)
            .scenario(Scenario::Recovery(RecoverySpec {
                // A non-transient fault panics the runner: exercises the
                // failed-row JSON path with an escaped panic payload.
                fault: Bug::Hw1MemBurstWrap,
                seed: 1,
                recovery_on: true,
            }))
            .build()
            .run();
        let doc = report_to_json(&report);
        assert_eq!(doc, report.to_json(), "method must delegate to wire");
        let parsed = report_from_json(&doc).expect("parse back");
        assert_eq!(parsed.rows.len(), 2);
        assert_eq!(parsed.to_json(), doc, "re-render must be byte-identical");
        assert!(matches!(parsed.rows[1].outcome, WireOutcome::Failed { .. }));
    }

    #[test]
    fn a_scenario_budget_from_an_earlier_client_is_ignored() {
        let members = "\"threads\": 2, \"recovery_runs\": 3, ";
        let plain = CampaignSubmission::from_json(&submit_doc(members)).expect("parses");
        let sub = CampaignSubmission::from_json(&submit_doc(&format!(
            "{members}\"scenario_budget\": {}, ",
            u64::MAX
        )))
        .expect("a stray scenario_budget parses");
        assert_eq!(sub, plain);
        let report = sub.to_campaign().run();
        assert_eq!(report.rows.len(), 3);
        assert!(report.failures().is_empty(), "{}", report.digest());
        assert_eq!(report.stats.workers.len(), 2);
    }

    #[test]
    fn report_rejects_wrong_schema() {
        let err =
            report_from_json("{\"schema\": \"campaign_report/v9\", \"rows\": []}").unwrap_err();
        assert!(err.contains("campaign_report/v1"), "{err}");
    }

    #[test]
    fn rows_of_an_unknown_kind_are_rejected() {
        let row = "{\"index\": 0, \"scenario\": \"Clean\", \"kind\": \"expired\"}";
        let err = WireRow::from_json(row).unwrap_err();
        assert!(err.contains("unknown row kind"), "{err}");
    }

    #[test]
    fn streamed_row_equals_embedded_report_row() {
        let report = Campaign::builder()
            .threads(1)
            .scenario(Scenario::Clean)
            .build()
            .run();
        let row_line = row_to_json(&report.rows[0]);
        assert!(report.to_json().contains(&format!("    {row_line}\n")));
    }
}

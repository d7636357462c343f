//! Coverage-guided fuzzing of the *reconfiguration schedule*, with
//! deterministic shrinking.
//!
//! The catalogued bugs (Table III) and the seeded transient campaign
//! cover the failure modes the paper's authors knew to look for. The
//! fuzzer covers the ones they didn't: it mutates *when* things happen —
//! the DPR start offset against the frame phase, ISR housekeeping
//! timing, the configuration-clock divider, memory wait states, the
//! bus-grant ordering, the region topology — plus what flows through the
//! bitstream path (SimB word-stream corruption through the PR 1
//! transient-fault hooks), and keeps the schedules that make the design
//! *do something new*.
//!
//! "New" is judged against a coverage map extracted from the structured
//! trace plane: isolation-window edge margins, portal-swap placement,
//! ISR overlap with transfers and isolation windows, ICAP parse-phase
//! instants, retry/backoff paths, DMA/engine activity. Every coverage
//! point is a stable [`rtlsim::coverage_key`] hash, so the map — and
//! with it corpus evolution — is bit-identical across hosts and worker
//! counts.
//!
//! # Determinism
//!
//! The fuzzer runs in *rounds*: each round derives a batch of schedules
//! from the corpus with a seeded [`StdRng`], executes the batch as
//! [`Scenario::Fuzz`] rows through the [`Campaign`] pool (inheriting
//! panic isolation and index-ordered delivery), and only then folds
//! results into the coverage map, corpus and failure set — in
//! submission order. Mutation randomness never interleaves with
//! execution, so the same seed yields bit-identical schedules, corpus
//! evolution and shrunk reproducers for any thread count.
//!
//! # Failures, dedup, shrinking
//!
//! A failing schedule (any detection oracle fired, or the scenario
//! panicked) is keyed by a stable *signature* — the ordered set of
//! evidence kinds, e.g. `"checker:plb_monitor+hang"` — and only the
//! first witness of each signature is shrunk: knobs are reverted to the
//! baseline schedule whole, then numeric knobs are bisected toward the
//! baseline, keeping every candidate that still reproduces the same
//! signature. The result is a minimal reproducer (fewest deviating
//! knobs, smallest warmup offset) emitted as a replayable [`FuzzRepro`]
//! JSON document.

use crate::detect::{self, Evidence, Verdict};
use crate::executor::{Campaign, Scenario, ScenarioCtx, ScenarioOutcome};
use crate::reconfig_timeline::ReconfigTimeline;
use crate::wire;
use autovision::{
    ArtifactCache, AvSystem, FaultSet, RecoveryPolicy, RegionSpec, SimMethod, SystemConfig,
    CLK_PERIOD_PS,
};
use obs::json::Json;
use obs::{span_durations, Span};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rtlsim::{coverage_key, log2_bucket, TraceCat, TraceEvent, TraceKind};
use std::collections::{BTreeMap, BTreeSet};

/// Trace capacity for fuzz runs: small frames keep event counts in the
/// low thousands, so 64 K slots never drop and cost ~2.5 MiB per
/// in-flight scenario instead of the 10 MiB default.
const FUZZ_TRACE_CAPACITY: usize = 1 << 16;

/// Corpus size cap: past it, the oldest non-baseline entry is evicted.
const MAX_CORPUS: usize = 64;

/// Which region topology a fuzzed schedule runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuzzTopology {
    /// One region time-shared between the engines (the paper's
    /// demonstrator).
    Single,
    /// CIE and ME in separate regions with interleaved per-region swaps.
    Split,
}

/// One fuzzed reconfiguration schedule: every timing / ordering /
/// corruption knob the mutator may turn, as plain `Copy` data so a
/// schedule can ride inside the `Copy` [`Scenario`] enum. Execution is
/// a pure function of (base config, schedule) — the fuzzer's RNG is
/// only used to *derive* schedules, never to run them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FuzzSchedule {
    /// Idle cycles simulated before the software starts — shifts every
    /// DPR window against the frame phase.
    pub warmup_cycles: u32,
    /// ISR housekeeping loops (ISR trigger-to-return timing).
    pub isr_pad_loops: u32,
    /// Configuration-clock divider of the ICAP artifact.
    pub cfg_divider: u32,
    /// Memory first-access wait states.
    pub mem_wait_states: u32,
    /// bug.dpr.6a's fixed wait loops (live when the base config seeds
    /// that bug; inert otherwise).
    pub fixed_wait_loops: u32,
    /// Round-robin PLB grant ordering instead of fixed priority.
    pub round_robin: bool,
    /// Region topology.
    pub topology: FuzzTopology,
    /// Run with the recovery policy enabled.
    pub recovery_on: bool,
    /// Flip one bit of one SimB word on the memory read path:
    /// `(beat, bit)`.
    pub flip: Option<(u32, u32)>,
    /// Stall one SimB burst for this many cycles.
    pub stall: Option<u32>,
    /// Answer this many SimB reads with a spurious bus error.
    pub bus_errors: u32,
    /// Drop ICAP `ready` for this many cycles mid-configuration.
    pub ready_drop: Option<u32>,
}

/// Number of independently mutable knobs (the shrinker walks them by
/// index).
const KNOBS: usize = 12;

impl FuzzSchedule {
    /// The unmutated schedule of a base configuration: running it is
    /// behaviourally identical to running `base` itself (modulo the
    /// forced ReSim method).
    pub fn baseline(base: &SystemConfig) -> FuzzSchedule {
        FuzzSchedule {
            warmup_cycles: 0,
            isr_pad_loops: base.isr_pad_loops,
            cfg_divider: base.cfg_divider,
            mem_wait_states: base.mem_wait_states,
            fixed_wait_loops: base.fixed_wait_loops,
            round_robin: base.arbitration == autovision::ArbMode::RoundRobin,
            topology: if base.regions.len() >= 2 {
                FuzzTopology::Split
            } else {
                FuzzTopology::Single
            },
            recovery_on: base.recovery.enabled,
            flip: None,
            stall: None,
            bus_errors: 0,
            ready_drop: None,
        }
    }

    /// True when the schedule arms any SimB word-stream fault.
    pub fn injects_fault(&self) -> bool {
        self.flip.is_some()
            || self.stall.is_some()
            || self.bus_errors > 0
            || self.ready_drop.is_some()
    }

    /// Enforce cross-knob invariants: the split pipeline's system
    /// software supports neither fault injection nor the recovery
    /// protocol, so a `Split` schedule drops both.
    pub fn sanitized(mut self) -> FuzzSchedule {
        if self.topology == FuzzTopology::Split {
            self.recovery_on = false;
            self.flip = None;
            self.stall = None;
            self.bus_errors = 0;
            self.ready_drop = None;
        }
        self
    }

    /// Overlay the schedule onto a base configuration. ReSim is forced:
    /// the schedule knobs act on the bitstream path, which only the
    /// ReSim backend models. The execution mode is the base's.
    pub fn apply(&self, base: &SystemConfig) -> SystemConfig {
        let s = self.sanitized();
        let regions = match s.topology {
            FuzzTopology::Single if base.regions.len() < 2 => base.regions.clone(),
            FuzzTopology::Single => vec![RegionSpec::time_shared()],
            FuzzTopology::Split => SystemConfig::split_regions(),
        };
        let faults = if s.topology == FuzzTopology::Split {
            FaultSet::none()
        } else {
            base.faults.clone()
        };
        SystemConfig {
            method: SimMethod::Resim,
            regions,
            faults,
            isr_pad_loops: s.isr_pad_loops,
            cfg_divider: s.cfg_divider,
            mem_wait_states: s.mem_wait_states,
            fixed_wait_loops: s.fixed_wait_loops,
            arbitration: if s.round_robin {
                autovision::ArbMode::RoundRobin
            } else {
                autovision::ArbMode::FixedPriority
            },
            recovery: RecoveryPolicy {
                enabled: s.recovery_on,
            },
            ..base.clone()
        }
    }

    /// How many knobs deviate from `baseline` — the mutation distance
    /// the shrinker minimises.
    pub fn mutation_count(&self, baseline: &FuzzSchedule) -> usize {
        (0..KNOBS)
            .filter(|&k| knob_differs(self, baseline, k))
            .count()
    }
}

fn knob_differs(s: &FuzzSchedule, b: &FuzzSchedule, k: usize) -> bool {
    match k {
        0 => s.warmup_cycles != b.warmup_cycles,
        1 => s.isr_pad_loops != b.isr_pad_loops,
        2 => s.cfg_divider != b.cfg_divider,
        3 => s.mem_wait_states != b.mem_wait_states,
        4 => s.fixed_wait_loops != b.fixed_wait_loops,
        5 => s.round_robin != b.round_robin,
        6 => s.topology != b.topology,
        7 => s.recovery_on != b.recovery_on,
        8 => s.flip != b.flip,
        9 => s.stall != b.stall,
        10 => s.bus_errors != b.bus_errors,
        11 => s.ready_drop != b.ready_drop,
        _ => unreachable!("knob index out of range"),
    }
}

fn revert_knob(s: &mut FuzzSchedule, b: &FuzzSchedule, k: usize) {
    match k {
        0 => s.warmup_cycles = b.warmup_cycles,
        1 => s.isr_pad_loops = b.isr_pad_loops,
        2 => s.cfg_divider = b.cfg_divider,
        3 => s.mem_wait_states = b.mem_wait_states,
        4 => s.fixed_wait_loops = b.fixed_wait_loops,
        5 => s.round_robin = b.round_robin,
        6 => s.topology = b.topology,
        7 => s.recovery_on = b.recovery_on,
        8 => s.flip = b.flip,
        9 => s.stall = b.stall,
        10 => s.bus_errors = b.bus_errors,
        11 => s.ready_drop = b.ready_drop,
        _ => unreachable!("knob index out of range"),
    }
}

/// Numeric knobs the shrinker bisects toward the baseline (the others
/// are revert-whole-or-keep).
const NUMERIC_KNOBS: [usize; 6] = [0, 1, 2, 3, 4, 10];

fn numeric_get(s: &FuzzSchedule, k: usize) -> u32 {
    match k {
        0 => s.warmup_cycles,
        1 => s.isr_pad_loops,
        2 => s.cfg_divider,
        3 => s.mem_wait_states,
        4 => s.fixed_wait_loops,
        10 => s.bus_errors,
        _ => unreachable!("not a numeric knob"),
    }
}

fn numeric_set(s: &mut FuzzSchedule, k: usize, v: u32) {
    match k {
        0 => s.warmup_cycles = v,
        1 => s.isr_pad_loops = v,
        2 => s.cfg_divider = v,
        3 => s.mem_wait_states = v,
        4 => s.fixed_wait_loops = v,
        10 => s.bus_errors = v,
        _ => unreachable!("not a numeric knob"),
    }
}

/// One planned fuzz scenario: a schedule plus its global iteration id
/// (purely a report label — execution depends only on the schedule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FuzzSpec {
    /// Global iteration index within the fuzz session.
    pub id: u32,
    /// The schedule to run.
    pub schedule: FuzzSchedule,
}

/// What one fuzzed schedule did.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzRow {
    /// The scenario that ran (schedule sanitized).
    pub spec: FuzzSpec,
    /// Any detection oracle fired.
    pub detected: bool,
    /// Stable failure signature (`None` for passing runs).
    pub signature: Option<String>,
    /// Kernel-error text, when the kernel itself failed.
    pub kernel_error: Option<String>,
    /// The oracle evidence (truncated like every verdict).
    pub evidence: Vec<Evidence>,
    /// Frames the display captured.
    pub frames: usize,
    /// Clock cycles the run consumed (excluding warmup).
    pub cycles: u64,
    /// Sorted coverage keys the run exhibited.
    pub coverage: Vec<u64>,
}

/// Execute one fuzzed schedule within an executor context: build the
/// overlaid system, arm the schedule's word-stream faults, shift the
/// start phase, run under the trace plane, classify and extract
/// coverage.
pub fn run_one(ctx: &ScenarioCtx<'_>, spec: FuzzSpec) -> FuzzRow {
    let sch = spec.schedule.sanitized();
    let cfg = sch.apply(ctx.base);
    let n_frames = cfg.n_frames;
    let mut sys = AvSystem::build_with(cfg, ctx.artifacts);
    sys.sim.enable_trace_with_capacity(FUZZ_TRACE_CAPACITY);
    if sch.injects_fault() {
        // Restrict injection to the SimB storage window, exactly like
        // the recovery campaign: only bitstream fetches are eligible.
        let lo = sys.layout.simb_me.0;
        let hi = sys.layout.simb_cie.0 + 4 * sys.layout.simb_cie.1;
        {
            let mut mem = sys.mem_faults.borrow_mut();
            mem.window = Some((lo, hi));
            mem.flip_next_read = sch.flip;
            mem.stall_next_read = sch.stall;
            mem.error_next_reads = sch.bus_errors;
        }
        if let (Some(d), Some(icap)) = (sch.ready_drop, &sys.icap_faults) {
            icap.borrow_mut().drop_ready_for = d;
        }
    }
    let _ = sys.sim.run_for(sch.warmup_cycles as u64 * CLK_PERIOD_PS);
    let outcome = ctx.run(&mut sys);
    let verdict = detect::classify(&sys, &outcome, n_frames);
    let coverage = coverage_of(&sys.sim.trace_events(), &verdict);
    FuzzRow {
        spec: FuzzSpec {
            id: spec.id,
            schedule: sch,
        },
        detected: verdict.detected,
        signature: failure_signature(&verdict),
        kernel_error: verdict.kernel_error.clone(),
        evidence: verdict.evidence.clone(),
        frames: verdict.frames,
        cycles: verdict.cycles,
        coverage,
    }
}

fn evidence_tag(e: &Evidence) -> String {
    match e {
        Evidence::CheckerError { component, .. } => format!("checker:{component}"),
        Evidence::OutputMismatch { .. } => "mismatch".to_string(),
        Evidence::PoisonedOutput { .. } => "poison".to_string(),
        Evidence::Hang { .. } => "hang".to_string(),
        Evidence::CpuError { .. } => "cpu".to_string(),
        Evidence::KernelError { .. } => "kernel".to_string(),
    }
}

/// The stable failure signature of a verdict: the evidence kinds (and
/// reporting components) in first-occurrence order, deduplicated. Two
/// schedules that fail the same way share a signature, so each distinct
/// failure mode is shrunk and reported once.
pub fn failure_signature(verdict: &Verdict) -> Option<String> {
    if !verdict.detected {
        return None;
    }
    let mut tags: Vec<String> = Vec::new();
    for e in &verdict.evidence {
        let t = evidence_tag(e);
        if !tags.contains(&t) {
            tags.push(t);
        }
    }
    Some(tags.join("+"))
}

fn spans_overlap(a: &Span, b: &Span) -> bool {
    a.start_ps < b.end_ps && b.start_ps < a.end_ps
}

/// Reduce a trace event stream plus its verdict to the run's coverage
/// keys (sorted, deduplicated).
pub fn coverage_of(events: &[TraceEvent], verdict: &Verdict) -> Vec<u64> {
    let b = log2_bucket;
    let mut set: BTreeSet<u64> = BTreeSet::new();
    let tl = ReconfigTimeline::from_events(events);
    for r in &tl.regions {
        let rr = r.rr_id as u64;
        set.insert(coverage_key(
            "region.transfers",
            &[rr, b(r.transfers.len() as u64)],
        ));
        set.insert(coverage_key(
            "region.isolation",
            &[rr, b(r.isolation.len() as u64)],
        ));
        set.insert(coverage_key("region.swaps", &[rr, b(r.swaps.len() as u64)]));
        set.insert(coverage_key(
            "region.transfers_isolated",
            &[rr, r.transfers_isolated() as u64],
        ));
        for &s in &r.swaps {
            let inside = r.isolation.iter().any(|w| w.start_ps <= s && s <= w.end_ps);
            set.insert(coverage_key("swap.in_isolation", &[rr, inside as u64]));
        }
        // Isolation-window *edge margins*: how close each transfer runs
        // to the window's assert/release edges, in cycle buckets — the
        // race surface the paper's DPR bugs live on.
        for t in &r.transfers {
            if let Some(w) = r
                .isolation
                .iter()
                .find(|w| w.start_ps <= t.start_ps && t.end_ps <= w.end_ps)
            {
                let lead = (t.start_ps - w.start_ps) / CLK_PERIOD_PS;
                let tail = (w.end_ps - t.end_ps) / CLK_PERIOD_PS;
                set.insert(coverage_key("iso.lead", &[rr, b(lead)]));
                set.insert(coverage_key("iso.tail", &[rr, b(tail)]));
            }
        }
    }
    set.insert(coverage_key("retries", &[b(tl.retries)]));

    // ISR placement against the reconfiguration plane.
    let isrs = span_durations(events, TraceCat::Isr, "isr");
    set.insert(coverage_key("isr.count", &[b(isrs.len() as u64)]));
    for r in &tl.regions {
        let rr = r.rr_id as u64;
        let x_transfer = isrs
            .iter()
            .filter(|i| r.transfers.iter().any(|t| spans_overlap(i, t)))
            .count() as u64;
        let x_isolation = isrs
            .iter()
            .filter(|i| r.isolation.iter().any(|w| spans_overlap(i, w)))
            .count() as u64;
        set.insert(coverage_key("isr.x_transfer", &[rr, b(x_transfer)]));
        set.insert(coverage_key("isr.x_isolation", &[rr, b(x_isolation)]));
    }

    // ICAP parse phases and retry-path instants, per (name, track).
    let mut instants: BTreeMap<(&'static str, &'static str, u32), u64> = BTreeMap::new();
    for e in events {
        if e.kind == TraceKind::Instant && matches!(e.cat, TraceCat::Icap | TraceCat::Retry) {
            *instants
                .entry((e.cat.label(), e.name, e.track))
                .or_default() += 1;
        }
    }
    for ((cat, name, track), n) in instants {
        set.insert(coverage_key(
            &format!("instant.{cat}.{name}"),
            &[track as u64, b(n)],
        ));
    }
    let backoffs = span_durations(events, TraceCat::Retry, "backoff");
    set.insert(coverage_key("backoffs", &[b(backoffs.len() as u64)]));

    // Bus/engine pressure: DMA bursts and engine runs per track, plus
    // engine computation overlapping a bitstream transfer (the split
    // pipeline's raison d'être).
    let dmas = span_durations(events, TraceCat::Dma, "burst");
    let mut per_track: BTreeMap<u32, u64> = BTreeMap::new();
    for d in &dmas {
        *per_track.entry(d.track).or_default() += 1;
    }
    for (track, n) in per_track {
        set.insert(coverage_key("dma.bursts", &[track as u64, b(n)]));
    }
    let engine_runs = span_durations(events, TraceCat::Engine, "run");
    set.insert(coverage_key("engine.runs", &[b(engine_runs.len() as u64)]));
    for r in &tl.regions {
        let overlapped = engine_runs
            .iter()
            .any(|e| r.transfers.iter().any(|t| spans_overlap(e, t)));
        set.insert(coverage_key(
            "engine.x_transfer",
            &[r.rr_id as u64, overlapped as u64],
        ));
    }

    // Outcome shape.
    set.insert(coverage_key(
        "outcome",
        &[verdict.detected as u64, b(verdict.frames as u64)],
    ));
    for e in &verdict.evidence {
        set.insert(coverage_key(&format!("evidence.{}", evidence_tag(e)), &[]));
    }
    set.into_iter().collect()
}

// ---------------------------------------------------------------------
// Mutation
// ---------------------------------------------------------------------

/// Fuzz session options.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Master seed: same seed, same schedules, corpus and reproducers.
    pub seed: u64,
    /// Mutation rounds.
    pub rounds: usize,
    /// Schedules per round (one campaign batch).
    pub batch: usize,
    /// Worker threads for the campaign pool.
    pub threads: usize,
    /// Hang budget per run, in cycles.
    pub budget_cycles: u64,
    /// Allow SimB word-stream corruption ops (flip/stall/bus
    /// error/ready drop) and toggling the recovery policy that answers
    /// them. Off for the "clean design must survive every legal
    /// schedule" gate, where injected upsets would trivially — and
    /// correctly — be detected.
    pub corrupt_stream: bool,
    /// Maximum re-runs the shrinker may spend per failure signature.
    pub shrink_budget: usize,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed: 0xF0CC_A11E,
            rounds: 4,
            batch: 8,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            budget_cycles: 400_000,
            corrupt_stream: true,
            shrink_budget: 64,
        }
    }
}

fn apply_op(s: &mut FuzzSchedule, rng: &mut StdRng, opts: &FuzzOptions, base_has_faults: bool) {
    // The op table is the *legal schedule envelope*: ranges are clamped
    // to what the golden design tolerates, so a clean base failing under
    // any schedule drawn from here is a real robustness finding.
    let mut ops: Vec<u32> = (0..=5).collect();
    // The split software rejects seeded bugs, so a faulty base keeps
    // its topology.
    if !base_has_faults {
        ops.push(6);
    }
    if opts.corrupt_stream {
        ops.extend([7, 8, 9, 10, 11]);
    }
    let op = ops[rng.random_range(0u64..ops.len() as u64) as usize];
    match op {
        // isr_pad and cfg_divider ranges are the *discovered* legal
        // envelope: fuzzing a wider range found that the golden
        // design's isolation calibration only holds for isr_pad ≥ 4
        // and cfg_divider ≤ 4 — outside it the reconfiguration X
        // escapes onto the engine's bus-control signals
        // (`plb_monitor: X/Z on bus control signal`).
        0 => s.warmup_cycles = rng.random_range(0u32..8192),
        1 => s.isr_pad_loops = rng.random_range(4u32..=64),
        2 => s.cfg_divider = rng.random_range(1u32..=4),
        3 => s.mem_wait_states = rng.random_range(0u32..=4),
        4 => s.fixed_wait_loops = rng.random_range(1u32..=512),
        5 => s.round_robin = !s.round_robin,
        6 => {
            s.topology = match s.topology {
                FuzzTopology::Single => FuzzTopology::Split,
                FuzzTopology::Split => FuzzTopology::Single,
            }
        }
        7 => s.recovery_on = !s.recovery_on,
        8 => {
            s.flip = if rng.random_range(0u32..4) == 0 {
                None
            } else {
                Some((rng.random_range(0u32..64), rng.random_range(0u32..32)))
            }
        }
        9 => {
            s.stall = if rng.random_range(0u32..4) == 0 {
                None
            } else {
                Some(rng.random_range(256u32..4096))
            }
        }
        10 => s.bus_errors = rng.random_range(0u32..=2),
        11 => {
            s.ready_drop = if rng.random_range(0u32..4) == 0 {
                None
            } else {
                Some(rng.random_range(64u32..2048))
            }
        }
        _ => unreachable!("op index out of table"),
    }
}

/// Derive one child schedule: 1–3 ops applied to a corpus parent.
fn mutate(
    parent: FuzzSchedule,
    rng: &mut StdRng,
    opts: &FuzzOptions,
    base_has_faults: bool,
) -> FuzzSchedule {
    let mut s = parent;
    let n = rng.random_range(1u32..=3);
    for _ in 0..n {
        apply_op(&mut s, rng, opts, base_has_faults);
    }
    s.sanitized()
}

// ---------------------------------------------------------------------
// Reproducers
// ---------------------------------------------------------------------

/// A minimal replayable reproducer of one failure signature.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzRepro {
    /// The shrunk schedule.
    pub schedule: FuzzSchedule,
    /// The failure signature it reproduces.
    pub signature: String,
    /// Knobs still deviating from the baseline schedule.
    pub mutations: usize,
    /// Hang budget the failure was observed under.
    pub budget_cycles: u64,
}

impl FuzzRepro {
    /// Serialize as a flat `fuzz_repro/v1` JSON document.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"schema\": \"fuzz_repro/v1\",\n  \"signature\": \"{}\",\n  \"mutations\": {},\n  \"budget_cycles\": {},\n  {}\n}}\n",
            obs::json::escape(&self.signature),
            self.mutations,
            self.budget_cycles,
            wire::schedule_to_json(&self.schedule, ",\n  "),
        )
    }

    /// Parse a document produced by [`FuzzRepro::to_json`]. The
    /// `fuzz_repro/v2` documents of earlier builds parse too: they are
    /// v1 plus an `exec_mode` member, which is ignored, because a
    /// replay runs in its base configuration's mode. A budget or warmup
    /// above [`wire::MAX_BUDGET_CYCLES`] is rejected with an error
    /// naming the limit.
    pub fn from_json(doc: &str) -> Result<FuzzRepro, String> {
        let v = Json::parse(doc)?;
        if !matches!(
            wire::str_of(&v, "schema")?.as_str(),
            "fuzz_repro/v1" | "fuzz_repro/v2"
        ) {
            return Err("unsupported schema".to_string());
        }
        Ok(FuzzRepro {
            schedule: wire::schedule_from_json(&v)?,
            signature: wire::str_of(&v, "signature")?,
            mutations: wire::u64_of(&v, "mutations")? as usize,
            budget_cycles: wire::u64_at_most(&v, "budget_cycles", wire::MAX_BUDGET_CYCLES)?,
        })
    }
}

/// Re-run a reproducer against a base configuration.
pub fn replay(base: &SystemConfig, repro: &FuzzRepro) -> FuzzRow {
    let artifacts = ArtifactCache::new();
    let ctx = ScenarioCtx::new(base, repro.budget_cycles, &artifacts);
    run_one(
        &ctx,
        FuzzSpec {
            id: 0,
            schedule: repro.schedule,
        },
    )
}

// ---------------------------------------------------------------------
// The fuzz session driver
// ---------------------------------------------------------------------

/// One deduplicated failure mode found by a fuzz session.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzFailure {
    /// The stable failure signature.
    pub signature: String,
    /// Schedules that hit this signature.
    pub hits: usize,
    /// The first witnessing schedule, unshrunk.
    pub first: FuzzSchedule,
    /// The shrunk minimal reproducer.
    pub repro: FuzzRepro,
}

/// Aggregated result of a fuzz session.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// The master seed the session ran under.
    pub seed: u64,
    /// Schedules executed (rounds × batch).
    pub iterations: usize,
    /// Distinct coverage keys observed.
    pub coverage_keys: usize,
    /// Coverage-novel schedules retained (baseline first).
    pub corpus: Vec<FuzzSchedule>,
    /// Deduplicated failures, in discovery order, each with a shrunk
    /// reproducer.
    pub failures: Vec<FuzzFailure>,
    /// Re-runs the shrinker spent.
    pub shrink_runs: usize,
}

impl FuzzReport {
    /// A deterministic line rendering — what the determinism suite
    /// compares byte-for-byte across worker counts.
    pub fn digest(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fuzz seed {:#x}: {} iterations, {} coverage keys\n",
            self.seed, self.iterations, self.coverage_keys
        ));
        for (i, s) in self.corpus.iter().enumerate() {
            out.push_str(&format!("corpus {i:03}: {s:?}\n"));
        }
        for f in &self.failures {
            out.push_str(&format!(
                "failure [{}] hits {} first {:?} repro({} mut) {:?}\n",
                f.signature, f.hits, f.first, f.repro.mutations, f.repro.schedule
            ));
        }
        out
    }

    /// Human-readable session summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fuzz session (seed {:#x}): {} schedules, {} coverage keys, corpus {}, {} failure signature(s)\n",
            self.seed,
            self.iterations,
            self.coverage_keys,
            self.corpus.len(),
            self.failures.len(),
        ));
        for f in &self.failures {
            out.push_str(&format!(
                "  [{}] ×{} — shrunk to {} mutation(s): {:?}\n",
                f.signature, f.hits, f.repro.mutations, f.repro.schedule
            ));
        }
        out
    }
}

/// Run a schedule and report its failure signature (panics included,
/// as `panic:<message>`), or `None` when it passes. The shrinker's
/// probe.
fn run_signature(
    base: &SystemConfig,
    artifacts: &ArtifactCache,
    schedule: &FuzzSchedule,
    budget_cycles: u64,
) -> Option<String> {
    let ctx = ScenarioCtx::new(base, budget_cycles, artifacts);
    let spec = FuzzSpec {
        id: 0,
        schedule: *schedule,
    };
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_one(&ctx, spec))) {
        Ok(row) => row.signature,
        Err(payload) => Some(format!(
            "panic:{}",
            crate::executor::panic_message(payload.as_ref())
        )),
    }
}

/// Shrink a failing schedule to a minimal reproducer of `signature`:
/// first revert whole knobs to the baseline, then bisect numeric knobs
/// toward their baseline values, keeping every candidate that still
/// fails the same way. Deterministic (fixed knob order, no RNG) and
/// bounded by `max_runs` probe re-runs.
pub fn shrink(
    base: &SystemConfig,
    artifacts: &ArtifactCache,
    baseline: &FuzzSchedule,
    failing: FuzzSchedule,
    signature: &str,
    budget_cycles: u64,
    max_runs: usize,
) -> (FuzzRepro, usize) {
    let mut cur = failing;
    let mut runs = 0usize;
    let check = |cand: &FuzzSchedule, runs: &mut usize| -> bool {
        *runs += 1;
        run_signature(base, artifacts, cand, budget_cycles).as_deref() == Some(signature)
    };
    // Pass 1: whole-knob reverts until fixpoint.
    loop {
        let mut changed = false;
        for k in 0..KNOBS {
            if runs >= max_runs {
                break;
            }
            if !knob_differs(&cur, baseline, k) {
                continue;
            }
            let mut cand = cur;
            revert_knob(&mut cand, baseline, k);
            let cand = cand.sanitized();
            if cand != cur && check(&cand, &mut runs) {
                cur = cand;
                changed = true;
            }
        }
        if !changed || runs >= max_runs {
            break;
        }
    }
    // Pass 2: bisect remaining numeric deviations toward the baseline
    // (smallest warmup offset = earliest divergence).
    for k in NUMERIC_KNOBS {
        loop {
            if runs >= max_runs {
                break;
            }
            let cv = numeric_get(&cur, k);
            let bv = numeric_get(baseline, k);
            if cv == bv {
                break;
            }
            let mid = if cv > bv {
                bv + (cv - bv) / 2
            } else {
                bv - (bv - cv) / 2
            };
            if mid == cv {
                break;
            }
            let mut cand = cur;
            numeric_set(&mut cand, k, mid);
            let cand = cand.sanitized();
            if check(&cand, &mut runs) {
                cur = cand;
            } else {
                break;
            }
        }
    }
    (
        FuzzRepro {
            schedule: cur,
            signature: signature.to_string(),
            mutations: cur.mutation_count(baseline),
            budget_cycles,
        },
        runs,
    )
}

/// Run a full coverage-guided fuzz session over `base`.
///
/// Each round derives a batch of schedules from the corpus, runs it
/// through the [`Campaign`] pool as [`Scenario::Fuzz`] rows, then folds
/// the index-ordered results into the coverage map / corpus / failure
/// set. New failure signatures are shrunk immediately (sequentially, on
/// the driver thread). The whole session is a pure function of
/// `(base, opts)`.
pub fn run_fuzz(base: &SystemConfig, opts: &FuzzOptions) -> FuzzReport {
    let baseline = FuzzSchedule::baseline(base);
    let base_has_faults = !base.faults.is_empty();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut corpus: Vec<FuzzSchedule> = vec![baseline];
    let mut coverage: BTreeSet<u64> = BTreeSet::new();
    let mut failures: Vec<FuzzFailure> = Vec::new();
    let artifacts = ArtifactCache::new();
    let mut next_id = 0u32;
    let mut iterations = 0usize;
    let mut shrink_runs = 0usize;
    for _round in 0..opts.rounds {
        // Derive the whole batch before anything runs: mutation
        // randomness must not interleave with execution order.
        let batch: Vec<FuzzSpec> = (0..opts.batch)
            .map(|_| {
                let parent = corpus[rng.random_range(0u64..corpus.len() as u64) as usize];
                let schedule = mutate(parent, &mut rng, opts, base_has_faults);
                let spec = FuzzSpec {
                    id: next_id,
                    schedule,
                };
                next_id += 1;
                spec
            })
            .collect();
        let report = Campaign::builder()
            .base(base.clone())
            .threads(opts.threads)
            .budget_cycles(opts.budget_cycles)
            .scenarios(batch.iter().map(|s| Scenario::Fuzz(*s)))
            .build()
            .run();
        for row in &report.rows {
            iterations += 1;
            let (schedule, signature) = match &row.outcome {
                ScenarioOutcome::Fuzz(fr) => {
                    let novel = fr.coverage.iter().any(|k| !coverage.contains(k));
                    coverage.extend(fr.coverage.iter().copied());
                    if novel {
                        corpus.push(fr.spec.schedule);
                        if corpus.len() > MAX_CORPUS {
                            // Keep the baseline; evict the oldest child.
                            corpus.remove(1);
                        }
                    }
                    (fr.spec.schedule, fr.signature.clone())
                }
                ScenarioOutcome::Failed { panic } => {
                    let Scenario::Fuzz(spec) = row.scenario else {
                        continue;
                    };
                    (spec.schedule, Some(format!("panic:{panic}")))
                }
                _ => continue,
            };
            let Some(sig) = signature else { continue };
            if let Some(f) = failures.iter_mut().find(|f| f.signature == sig) {
                f.hits += 1;
            } else {
                let (repro, spent) = shrink(
                    base,
                    &artifacts,
                    &baseline,
                    schedule,
                    &sig,
                    opts.budget_cycles,
                    opts.shrink_budget,
                );
                shrink_runs += spent;
                failures.push(FuzzFailure {
                    signature: sig,
                    hits: 1,
                    first: schedule,
                    repro,
                });
            }
        }
    }
    FuzzReport {
        seed: opts.seed,
        iterations,
        coverage_keys: coverage.len(),
        corpus,
        failures,
        shrink_runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_schedule_round_trips_the_base_config() {
        let base = SystemConfig {
            width: 32,
            height: 24,
            n_frames: 2,
            payload_words: 256,
            ..Default::default()
        };
        let sch = FuzzSchedule::baseline(&base);
        let cfg = sch.apply(&base);
        assert_eq!(cfg.isr_pad_loops, base.isr_pad_loops);
        assert_eq!(cfg.cfg_divider, base.cfg_divider);
        assert_eq!(cfg.mem_wait_states, base.mem_wait_states);
        assert_eq!(cfg.arbitration, base.arbitration);
        assert_eq!(cfg.regions.len(), 1);
        assert_eq!(sch.mutation_count(&sch), 0);
        assert!(!sch.injects_fault());
    }

    #[test]
    fn split_schedules_drop_faults_and_recovery() {
        let base = SystemConfig::default();
        let mut sch = FuzzSchedule::baseline(&base);
        sch.topology = FuzzTopology::Split;
        sch.flip = Some((3, 7));
        sch.recovery_on = true;
        let s = sch.sanitized();
        assert!(!s.injects_fault());
        assert!(!s.recovery_on);
        let cfg = s.apply(&base);
        assert_eq!(cfg.regions.len(), 2);
        assert!(cfg.faults.is_empty());
    }

    #[test]
    fn mutation_stream_is_seed_deterministic() {
        let opts = FuzzOptions::default();
        let base = SystemConfig::default();
        let baseline = FuzzSchedule::baseline(&base);
        let gen = |seed: u64| -> Vec<FuzzSchedule> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..32)
                .map(|_| mutate(baseline, &mut rng, &opts, false))
                .collect()
        };
        assert_eq!(gen(7), gen(7));
        assert_ne!(gen(7), gen(8));
    }

    #[test]
    fn repro_json_round_trips() {
        let repro = FuzzRepro {
            schedule: FuzzSchedule {
                warmup_cycles: 1234,
                isr_pad_loops: 3,
                cfg_divider: 2,
                mem_wait_states: 0,
                fixed_wait_loops: 250,
                round_robin: true,
                topology: FuzzTopology::Single,
                recovery_on: false,
                flip: Some((5, 17)),
                stall: None,
                bus_errors: 1,
                ready_drop: Some(96),
            },
            signature: "checker:plb_monitor+hang".to_string(),
            mutations: 4,
            budget_cycles: 400_000,
        };
        let doc = repro.to_json();
        assert_eq!(
            doc,
            concat!(
                "{\n",
                "  \"schema\": \"fuzz_repro/v1\",\n",
                "  \"signature\": \"checker:plb_monitor+hang\",\n",
                "  \"mutations\": 4,\n",
                "  \"budget_cycles\": 400000,\n",
                "  \"warmup_cycles\": 1234,\n",
                "  \"isr_pad_loops\": 3,\n",
                "  \"cfg_divider\": 2,\n",
                "  \"mem_wait_states\": 0,\n",
                "  \"fixed_wait_loops\": 250,\n",
                "  \"round_robin\": true,\n",
                "  \"split_topology\": false,\n",
                "  \"recovery_on\": false,\n",
                "  \"flip_beat\": 5,\n",
                "  \"flip_bit\": 17,\n",
                "  \"stall\": null,\n",
                "  \"bus_errors\": 1,\n",
                "  \"ready_drop\": 96\n",
                "}\n",
            ),
            "fuzz_repro/v1 bytes changed"
        );
        let parsed = FuzzRepro::from_json(&doc).expect("parse back");
        assert_eq!(parsed, repro);
        assert!(FuzzRepro::from_json("{}").is_err());
        // A v2 document (v1 plus an `exec_mode` member) parses to the
        // same reproducer: the mode is the replay base's.
        let v2 = doc.replace("fuzz_repro/v1", "fuzz_repro/v2").replace(
            "  \"ready_drop\": 96\n",
            "  \"ready_drop\": 96,\n  \"exec_mode\": \"event\"\n",
        );
        assert_ne!(v2, doc);
        assert_eq!(FuzzRepro::from_json(&v2), Ok(repro.clone()));
        // Signatures are free text: separators and escapes survive.
        for signature in ["checker:a,b+hang", "literal \\n here"] {
            let odd = FuzzRepro {
                signature: signature.to_string(),
                ..repro.clone()
            };
            assert_eq!(FuzzRepro::from_json(&odd.to_json()), Ok(odd));
        }
        // Truncated documents are rejected, not half-read.
        assert!(FuzzRepro::from_json(&doc[1..]).is_err());
        let cut = doc.trim_end().strip_suffix('}').expect("closing brace");
        assert!(FuzzRepro::from_json(cut).is_err());
        // A budget past the wire limit is refused, not replayed.
        let limit = wire::MAX_BUDGET_CYCLES;
        for budget in [limit + 1, u64::MAX] {
            let over = doc.replace("400000", &budget.to_string());
            let err = FuzzRepro::from_json(&over).unwrap_err();
            assert!(err.contains(&format!("limit of {limit}")), "{err}");
        }
    }

    #[test]
    fn failure_signature_dedups_evidence_kinds_in_order() {
        let v = Verdict {
            detected: true,
            evidence: vec![
                Evidence::CheckerError {
                    component: "plb_monitor".into(),
                    text: "x".into(),
                },
                Evidence::CheckerError {
                    component: "plb_monitor".into(),
                    text: "y".into(),
                },
                Evidence::Hang {
                    frames_captured: 1,
                    frames_expected: 2,
                },
            ],
            cycles: 0,
            frames: 1,
            simulated_ns: 0,
            kernel_error: None,
        };
        assert_eq!(
            failure_signature(&v).as_deref(),
            Some("checker:plb_monitor+hang")
        );
        let clean = Verdict {
            detected: false,
            evidence: vec![],
            cycles: 0,
            frames: 2,
            simulated_ns: 0,
            kernel_error: None,
        };
        assert_eq!(failure_signature(&clean), None);
    }

    #[test]
    fn coverage_of_is_deterministic_and_sensitive_to_structure() {
        use rtlsim::TraceKind::*;
        let ev = |time_ps, seq, kind, cat, name: &'static str, track, arg| TraceEvent {
            time_ps,
            seq,
            kind,
            cat,
            name,
            track,
            arg,
        };
        let verdict = Verdict {
            detected: false,
            evidence: vec![],
            cycles: 100,
            frames: 2,
            simulated_ns: 1,
            kernel_error: None,
        };
        let stream_a = vec![
            ev(100, 0, Begin, TraceCat::Isolation, "window", 1, 0),
            ev(150, 1, Begin, TraceCat::Simb, "transfer", 1, 2),
            ev(300, 2, Instant, TraceCat::Portal, "swap", 1, 2),
            ev(310, 3, End, TraceCat::Simb, "transfer", 1, 2),
            ev(400, 4, End, TraceCat::Isolation, "window", 1, 0),
        ];
        // Same shape, but the transfer escapes the isolation window.
        let stream_b = vec![
            ev(100, 0, Begin, TraceCat::Isolation, "window", 1, 0),
            ev(150, 1, Begin, TraceCat::Simb, "transfer", 1, 2),
            ev(300, 2, Instant, TraceCat::Portal, "swap", 1, 2),
            ev(400, 3, End, TraceCat::Isolation, "window", 1, 0),
            ev(410, 4, End, TraceCat::Simb, "transfer", 1, 2),
        ];
        let a1 = coverage_of(&stream_a, &verdict);
        let a2 = coverage_of(&stream_a, &verdict);
        let b = coverage_of(&stream_b, &verdict);
        assert_eq!(a1, a2);
        assert_ne!(a1, b, "isolation escape must change coverage");
        assert!(a1.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
    }
}

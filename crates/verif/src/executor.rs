//! The campaign execution plane: one claim-cursor scenario pool behind
//! one unified [`Scenario`] / [`Campaign`] API.
//!
//! Every campaign hands the pool a short list of coarse jobs (6–47
//! scenarios, each building and running a whole system) on a few
//! worker threads, so the pool is one mutex and one condvar:
//!
//! * **one claim cursor** — a worker claims the lowest unclaimed index,
//!   runs it outside the lock, and stores the result; scenarios start
//!   in submission order and no worker sits idle while one is left;
//! * **deterministic aggregation** — results are keyed by scenario
//!   index and delivered in submission order, so the report is
//!   byte-identical for any thread count (each scenario builds its own
//!   single-threaded simulator; nothing leaks between runs);
//! * **bounded in-flight memory** — a scenario *budget* caps how far
//!   past the oldest undelivered scenario the cursor may claim, which
//!   bounds the reorder buffer a streaming consumer needs to
//!   `O(budget)` rows;
//! * **shared setup artifacts** — one [`ArtifactCache`] serves every
//!   worker, so N scenarios stop re-deriving identical SimB word
//!   streams, software images and golden predictions;
//! * **panic isolation** — a scenario that panics becomes a
//!   [`ScenarioOutcome::Failed`] row; the pool keeps draining instead of
//!   aborting the whole campaign;
//! * **observability** — per-worker counters (executed, admission-window
//!   waits, busy/idle time, a log₂ run-time histogram) plus optional
//!   per-scenario spans, foldable into an [`obs::MetricsRegistry`].
//!
//! [`Campaign::builder`] assembles a scenario list (matrix rows,
//! split-pipeline rows, recovery-injection batches) over one base
//! [`SystemConfig`] and typed [`CampaignOptions`], and returns a
//! [`CampaignReport`] whose rows unify the old `MatrixRow` /
//! recovery-report shapes.

use crate::detect::{self, Verdict};
use crate::fuzz::{self, FuzzRow, FuzzSpec};
use crate::matrix::{self, MatrixConfig, MatrixRow};
use crate::recovery::{self, RunClass};
use autovision::{ArtifactCache, AvSystem, Bug, RecoveryPolicy, RunOutcome, SystemConfig};
use obs::{Histogram, MetricsRegistry};
use rtlsim::CompiledStats;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

// ---------------------------------------------------------------------
// Scenario and per-run context
// ---------------------------------------------------------------------

/// Parameters of one seeded transient-fault injection run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoverySpec {
    /// Injected transient fault (must be one of [`Bug::TRANSIENTS`]).
    pub fault: Bug,
    /// Seed for the run's fault parameters and arrival phase.
    pub seed: u64,
    /// Run with the recovery policy enabled.
    pub recovery_on: bool,
}

/// One schedulable unit of verification work. Every run family the
/// harness knows — clean baselines, catalogued bugs under both methods,
/// the split-pipeline topology, seeded transient injections — is a
/// `Scenario`, so one executor serves them all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// The clean (no-bug) configuration under both methods.
    Clean,
    /// One catalogued bug under both methods (a Table III row).
    Bug(Bug),
    /// The clean two-region split pipeline under both methods.
    SplitClean,
    /// One transient-fault injection run under ReSim.
    Recovery(RecoverySpec),
    /// One fuzzed reconfiguration schedule under ReSim (see
    /// [`crate::fuzz`]).
    Fuzz(FuzzSpec),
}

impl Scenario {
    /// The system configurations this scenario will build — used to
    /// pre-warm the artifact cache. A stale list only costs a cache
    /// miss, never correctness; the runners derive their own configs.
    fn configs(&self, base: &SystemConfig) -> Vec<SystemConfig> {
        use autovision::{FaultSet, SimMethod};
        let with =
            |method, faults: FaultSet, regions: Option<Vec<autovision::RegionSpec>>| SystemConfig {
                method,
                faults,
                regions: regions.unwrap_or_else(|| base.regions.clone()),
                ..base.clone()
            };
        match *self {
            Scenario::Clean => vec![
                with(SimMethod::Vmux, FaultSet::none(), None),
                with(SimMethod::Resim, FaultSet::none(), None),
            ],
            Scenario::Bug(bug) => vec![
                with(SimMethod::Vmux, FaultSet::one(bug), None),
                with(SimMethod::Resim, FaultSet::one(bug), None),
            ],
            Scenario::SplitClean => {
                let r = SystemConfig::split_regions();
                vec![
                    with(SimMethod::Vmux, FaultSet::none(), Some(r.clone())),
                    with(SimMethod::Resim, FaultSet::none(), Some(r)),
                ]
            }
            Scenario::Recovery(spec) => vec![SystemConfig {
                method: SimMethod::Resim,
                recovery: RecoveryPolicy {
                    enabled: spec.recovery_on,
                    ..Default::default()
                },
                ..base.clone()
            }],
            Scenario::Fuzz(spec) => vec![spec.schedule.apply(base)],
        }
    }
}

/// Everything a scenario runner needs beyond the scenario itself: the
/// base configuration, the hang budget, and the shared artifact cache.
/// Runners derive their concrete [`SystemConfig`]s from `base` and run
/// each system through `ScenarioCtx::run`, which folds its
/// compiled-plane counters into the context.
#[derive(Debug)]
pub struct ScenarioCtx<'a> {
    /// Base system configuration (method/faults/recovery overridden per
    /// scenario).
    pub base: &'a SystemConfig,
    /// Hang budget per run, in cycles.
    pub budget_cycles: u64,
    /// Shared pure-artifact cache (SimBs, software images, scenes).
    pub artifacts: &'a ArtifactCache,
    /// Compiled-mode runs so far and their summed counters.
    compiled: Mutex<(u64, CompiledStats)>,
}

impl<'a> ScenarioCtx<'a> {
    /// A context over `base` with budget `budget_cycles`, using
    /// `artifacts` for setup sharing.
    pub fn new(
        base: &'a SystemConfig,
        budget_cycles: u64,
        artifacts: &'a ArtifactCache,
    ) -> ScenarioCtx<'a> {
        ScenarioCtx {
            base,
            budget_cycles,
            artifacts,
            compiled: Mutex::default(),
        }
    }

    /// Run `sys` to completion or the hang budget, and fold its
    /// compiled-plane counters (if it ran compiled) into the context.
    pub(crate) fn run(&self, sys: &mut AvSystem) -> RunOutcome {
        let outcome = sys.run(self.budget_cycles);
        if let Some(cs) = sys.sim.compiled_stats() {
            let mut fold = self.compiled.lock().expect("compiled fold poisoned");
            fold.0 += 1;
            fold.1.merge(&cs);
        }
        outcome
    }

    /// Run one experiment: `base` with the given method/fault overlay,
    /// built against the shared cache and classified.
    pub(crate) fn experiment(
        &self,
        method: autovision::SimMethod,
        faults: autovision::FaultSet,
        regions: Option<Vec<autovision::RegionSpec>>,
    ) -> Verdict {
        let cfg = SystemConfig {
            method,
            faults,
            regions: regions.unwrap_or_else(|| self.base.regions.clone()),
            ..self.base.clone()
        };
        let n_frames = cfg.n_frames;
        let mut sys = AvSystem::build_with(cfg, self.artifacts);
        let outcome = self.run(&mut sys);
        detect::classify(&sys, &outcome, n_frames)
    }
}

// ---------------------------------------------------------------------
// Unified report rows
// ---------------------------------------------------------------------

/// One recovery-campaign row: the classified outcome and retry/latency
/// cost of a single seeded injection run. (The recovery module's old
/// ad-hoc `RunReport` folded into the unified report row type.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryRow {
    /// Injected transient fault.
    pub fault: Bug,
    /// Seed used for this run's fault parameters.
    pub seed: u64,
    /// Did the armed fault actually fire? (A fault armed after the last
    /// eligible transfer never triggers; such runs prove nothing and
    /// are excluded from the recovery rate.)
    pub fired: bool,
    /// Classified outcome.
    pub class: RunClass,
    /// Frames that matched the golden model.
    pub frames_ok: usize,
    /// Frames that differed (or were poisoned).
    pub frames_bad: usize,
    /// Retry attempts the controller made.
    pub retries: u64,
    /// Transfers completed successfully after at least one retry.
    pub recovered: u64,
    /// Transfers that exhausted the retry budget.
    pub exhausted: u64,
    /// Worst recovery latency observed, in cycles.
    pub recovery_cycles_max: u64,
    /// Sum of recovery latencies, in cycles.
    pub recovery_cycles_total: u64,
}

/// What one scenario produced.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioOutcome {
    /// A detection-matrix row (clean, bug, or split scenarios).
    Matrix(MatrixRow),
    /// A recovery-campaign row.
    Recovery(RecoveryRow),
    /// A fuzzed-schedule row.
    Fuzz(FuzzRow),
    /// The scenario panicked; the pool captured it and kept draining.
    Failed {
        /// The panic payload, stringified.
        panic: String,
    },
    /// The campaign was cancelled before this scenario ran (see
    /// [`Campaign::run_streaming_with`]); the row is a typed placeholder
    /// so delivery stays index-complete.
    Cancelled,
}

/// One row of a campaign report: the scenario, its submission index,
/// and what it produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRow {
    /// Submission index (rows are always delivered in this order).
    pub index: usize,
    /// The scenario that ran.
    pub scenario: Scenario,
    /// What it produced.
    pub outcome: ScenarioOutcome,
}

/// The aggregated result of a campaign: deterministic rows in
/// submission order plus (non-deterministic) executor statistics.
#[derive(Debug)]
pub struct CampaignReport {
    /// One row per scenario, in submission order. Byte-identical for
    /// any thread count and scenario budget.
    pub rows: Vec<CampaignRow>,
    /// Wall-clock/scheduling statistics of the run that produced the
    /// rows. Excluded from [`CampaignReport::digest`].
    pub stats: ExecutorStats,
}

impl CampaignReport {
    /// A deterministic, line-per-row rendering of the report's rows —
    /// the thing the determinism suite compares byte-for-byte across
    /// thread counts and scenario budgets.
    pub fn digest(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("campaign rows: {}\n", self.rows.len()));
        for r in &self.rows {
            out.push_str(&format!(
                "{:04} {:?} => {:?}\n",
                r.index, r.scenario, r.outcome
            ));
        }
        out
    }

    /// The matrix rows, in submission order.
    pub fn matrix_rows(&self) -> Vec<MatrixRow> {
        self.rows
            .iter()
            .filter_map(|r| match &r.outcome {
                ScenarioOutcome::Matrix(m) => Some(m.clone()),
                _ => None,
            })
            .collect()
    }

    /// The recovery rows, in submission order.
    pub fn recovery_rows(&self) -> Vec<RecoveryRow> {
        self.rows
            .iter()
            .filter_map(|r| match &r.outcome {
                ScenarioOutcome::Recovery(rr) => Some(rr.clone()),
                _ => None,
            })
            .collect()
    }

    /// Rows whose scenario panicked or was cancelled — the rows that
    /// carry no verification result.
    pub fn failures(&self) -> Vec<&CampaignRow> {
        self.rows
            .iter()
            .filter(|r| {
                matches!(
                    r.outcome,
                    ScenarioOutcome::Failed { .. } | ScenarioOutcome::Cancelled
                )
            })
            .collect()
    }

    /// The report as a `campaign_report/v1` JSON document — see
    /// [`crate::wire::report_to_json`], the one schema definition the
    /// in-process API, the `verifd` daemon and `verifctl` all share.
    pub fn to_json(&self) -> String {
        crate::wire::report_to_json(self)
    }
}

// ---------------------------------------------------------------------
// Pool options and statistics
// ---------------------------------------------------------------------

/// Executor tuning knobs (the scenario list and base configuration live
/// on [`Campaign`]).
#[derive(Debug, Clone, Copy)]
pub struct PoolOptions {
    /// Worker threads (minimum 1).
    pub threads: usize,
    /// Scenario budget: the pool never claims a scenario this many or
    /// more positions past the oldest undelivered one, bounding the
    /// reorder buffer. `0` means `4 × threads`.
    pub scenario_budget: usize,
    /// Record one span per scenario into [`ExecutorStats::spans`].
    pub spans: bool,
}

impl Default for PoolOptions {
    fn default() -> Self {
        PoolOptions {
            threads: 1,
            scenario_budget: 0,
            spans: false,
        }
    }
}

/// One worker's counters.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Scenarios this worker executed.
    pub executed: u64,
    /// Waits for the admission window (the next index was unclaimed
    /// but a full budget past the oldest undelivered one).
    pub idle_waits: u64,
    /// Nanoseconds spent executing scenarios.
    pub busy_ns: u64,
    /// Nanoseconds spent waiting for the admission window.
    pub idle_ns: u64,
    /// log₂ histogram of per-scenario run times, in nanoseconds.
    pub run_ns: Histogram,
}

/// One executed scenario's span (offsets from pool start).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioSpan {
    /// Scenario index.
    pub index: usize,
    /// Worker that ran it.
    pub worker: usize,
    /// Start offset, ns, stamped when the index was claimed; spans
    /// sorted by index start in non-decreasing order.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
}

/// Scheduling/throughput statistics of one pool run. Everything here is
/// wall-clock-dependent and therefore excluded from determinism
/// comparisons.
#[derive(Debug, Clone, Default)]
pub struct ExecutorStats {
    /// Pool wall-clock seconds.
    pub wall_s: f64,
    /// Scenarios executed.
    pub scenarios: usize,
    /// Per-worker counters, indexed by worker.
    pub workers: Vec<WorkerStats>,
    /// Largest number of completed-but-undelivered rows ever buffered
    /// (bounded by the scenario budget).
    pub max_reorder_depth: usize,
    /// Per-scenario spans (only when [`PoolOptions::spans`] is set),
    /// sorted by scenario index.
    pub spans: Vec<ScenarioSpan>,
    /// Artifact-cache hits of the campaign that produced this run
    /// (zero for raw pool runs).
    pub artifact_hits: u64,
    /// Artifact-cache misses of the campaign that produced this run.
    pub artifact_misses: u64,
    /// Systems of the campaign that ran in compiled mode (zero for raw
    /// pool runs).
    pub compiled_plans: u64,
    /// Those systems' compiled-plane counters, summed.
    pub compiled: CompiledStats,
}

impl ExecutorStats {
    /// Always 0: every worker claims from one cursor, and no job moves
    /// between workers. Kept only for the benchmark's `executor.steals`
    /// row.
    pub fn steals(&self) -> u64 {
        0
    }

    /// Total idle nanoseconds across workers.
    pub fn idle_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.idle_ns).sum()
    }

    /// Scenarios per wall-clock second.
    pub fn scenarios_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.scenarios as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// The campaign-wide run-time distribution (all workers merged).
    pub fn run_ns_histogram(&self) -> Histogram {
        let mut h = Histogram::default();
        for w in &self.workers {
            h.merge(&w.run_ns);
        }
        h
    }

    /// Fold the statistics into a metrics registry under `campaign.*`
    /// and `compiled.*`. The key set is the same for every campaign
    /// (worker counters are summed, zeros for an event-driven
    /// campaign's `compiled.*`), so in a long-lived registry every
    /// counter and gauge is the last campaign's. The `campaign.run_ns`
    /// histogram is the exception: it adds up across campaigns.
    pub fn record(&self, reg: &mut MetricsRegistry) {
        let sum = |f: fn(&WorkerStats) -> u64| self.workers.iter().map(f).sum::<u64>();
        reg.counter("campaign.scenarios", self.scenarios as u64);
        reg.counter("campaign.workers", self.workers.len() as u64);
        reg.counter("campaign.busy_ns", sum(|w| w.busy_ns));
        reg.counter("campaign.idle_ns", self.idle_ns());
        reg.counter("campaign.idle_waits", sum(|w| w.idle_waits));
        reg.counter("campaign.max_reorder_depth", self.max_reorder_depth as u64);
        reg.counter("campaign.artifact_cache.hits", self.artifact_hits);
        reg.counter("campaign.artifact_cache.misses", self.artifact_misses);
        reg.gauge("campaign.wall_s", self.wall_s);
        reg.gauge("campaign.scenarios_per_sec", self.scenarios_per_sec());
        reg.merge_histogram("campaign.run_ns", &self.run_ns_histogram());
        reg.counter("compiled.plans", self.compiled_plans);
        obs::record_compiled_stats(reg, &self.compiled);
    }
}

// ---------------------------------------------------------------------
// The claim-cursor pool
// ---------------------------------------------------------------------

/// The pool's whole shared state, behind its one mutex.
struct Cursor<R, S> {
    /// The lowest unclaimed index.
    next: usize,
    /// Every index below this one has reached the sink.
    delivered: usize,
    /// Finished results waiting for an earlier index, by index.
    slots: Vec<Option<R>>,
    /// Results held in `slots` now, and the most ever held.
    buffered: usize,
    max_depth: usize,
    sink: S,
}

impl<R, S: FnMut(usize, R)> Cursor<R, S> {
    /// Store `index`'s result and release the in-order prefix to the
    /// sink. Returns whether the prefix moved.
    fn complete(&mut self, index: usize, result: R) -> bool {
        self.slots[index] = Some(result);
        self.buffered += 1;
        self.max_depth = self.max_depth.max(self.buffered);
        let from = self.delivered;
        while let Some(r) = self.slots.get_mut(self.delivered).and_then(Option::take) {
            (self.sink)(self.delivered, r);
            self.delivered += 1;
            self.buffered -= 1;
        }
        self.delivered > from
    }
}

/// One worker: claim the lowest unclaimed index once it is inside the
/// admission window, run it outside the lock, complete it; return when
/// nothing is left to claim.
fn worker_loop<R, S, F>(
    cursor: &Mutex<Cursor<R, S>>,
    moved: &Condvar,
    budget: usize,
    w: usize,
    run: &F,
    record_spans: bool,
    t0: Instant,
) -> (WorkerStats, Vec<ScenarioSpan>)
where
    S: FnMut(usize, R),
    F: Fn(usize) -> R + Sync,
{
    let mut stats = WorkerStats::default();
    let mut spans = Vec::new();
    let mut c = cursor.lock().expect("pool lock poisoned");
    while c.next < c.slots.len() {
        // `delivered <= next` always, and the subtraction (unlike
        // `delivered + budget`) cannot overflow for any budget.
        if c.next - c.delivered >= budget {
            // The index that holds the window back is running on
            // another worker; its completion moves the prefix.
            stats.idle_waits += 1;
            let t = Instant::now();
            c = moved.wait(c).expect("pool lock poisoned");
            stats.idle_ns += t.elapsed().as_nanos() as u64;
            continue;
        }
        let j = c.next;
        c.next += 1;
        let start = Instant::now();
        drop(c);
        let r = run(j);
        let dur = start.elapsed().as_nanos() as u64;
        stats.executed += 1;
        stats.busy_ns += dur;
        stats.run_ns.observe(dur);
        if record_spans {
            spans.push(ScenarioSpan {
                index: j,
                worker: w,
                start_ns: start.duration_since(t0).as_nanos() as u64,
                dur_ns: dur,
            });
        }
        c = cursor.lock().expect("pool lock poisoned");
        if c.complete(j, r) {
            moved.notify_all();
        }
    }
    (stats, spans)
}

/// Run `jobs` indexed jobs through the pool, delivering `(index,
/// result)` pairs to `sink` in strict submission order, and return the
/// run's statistics. The scheduling layer under [`Campaign`]; exposed
/// so thread-count independence can be property-tested with synthetic
/// workloads. `run` must not panic ([`run_scenario`] catches scenario
/// panics); the sink runs under the pool lock.
pub fn execute_streaming<R, F, S>(jobs: usize, opts: &PoolOptions, run: F, sink: S) -> ExecutorStats
where
    R: Send,
    F: Fn(usize) -> R + Sync,
    S: FnMut(usize, R) + Send,
{
    let threads = opts.threads.max(1);
    let budget = if opts.scenario_budget == 0 {
        4 * threads
    } else {
        opts.scenario_budget
    };
    let cursor = Mutex::new(Cursor {
        next: 0,
        delivered: 0,
        slots: (0..jobs).map(|_| None).collect(),
        buffered: 0,
        max_depth: 0,
        sink,
    });
    let moved = Condvar::new();
    let t0 = Instant::now();
    let per_worker: Vec<(WorkerStats, Vec<ScenarioSpan>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let (cursor, moved, run) = (&cursor, &moved, &run);
                s.spawn(move || worker_loop(cursor, moved, budget, w, run, opts.spans, t0))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("campaign worker thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let c = cursor.into_inner().expect("pool lock poisoned");
    debug_assert_eq!(c.delivered, jobs, "pool finished with undelivered rows");
    let mut workers = Vec::with_capacity(threads);
    let mut spans = Vec::new();
    for (ws, sp) in per_worker {
        workers.push(ws);
        spans.extend(sp);
    }
    spans.sort_by_key(|s| s.index);
    ExecutorStats {
        wall_s,
        scenarios: jobs,
        workers,
        max_reorder_depth: c.max_depth,
        spans,
        ..Default::default()
    }
}

/// [`execute_streaming`], collecting the results into a `Vec` in
/// submission order.
pub fn execute<R, F>(jobs: usize, opts: &PoolOptions, run: F) -> (Vec<R>, ExecutorStats)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut out = Vec::with_capacity(jobs);
    let stats = execute_streaming(jobs, opts, run, |_, r| out.push(r));
    (out, stats)
}

// ---------------------------------------------------------------------
// Campaign: the unified front door
// ---------------------------------------------------------------------

/// Typed executor options for a [`Campaign`].
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Worker threads (minimum 1).
    pub threads: usize,
    /// Master seed for derived recovery batches.
    pub seed: u64,
    /// Hang budget per run, in cycles.
    pub budget_cycles: u64,
    /// Scenario budget; see [`PoolOptions::scenario_budget`].
    pub scenario_budget: usize,
    /// Record per-scenario spans into the report's stats.
    pub spans: bool,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            seed: 0xFA_17,
            budget_cycles: 400_000,
            scenario_budget: 0,
            spans: false,
        }
    }
}

#[derive(Debug, Clone)]
enum Planned {
    One(Scenario),
    RecoveryBatch { runs: usize, recovery_on: bool },
}

/// Builder for a [`Campaign`]; see [`Campaign::builder`].
#[derive(Debug, Clone)]
pub struct CampaignBuilder {
    base: SystemConfig,
    opts: CampaignOptions,
    planned: Vec<Planned>,
}

impl CampaignBuilder {
    /// Base system configuration the scenarios overlay.
    pub fn base(mut self, base: SystemConfig) -> Self {
        self.base = base;
        self
    }

    /// Kernel execution mode of the base configuration. Every scenario
    /// overlay clones the base, so the mode threads through the whole
    /// campaign (verdicts are bit-identical either way — this is how
    /// the campaign harnesses honour a bench bin's `--exec-mode`).
    pub fn exec_mode(mut self, mode: rtlsim::ExecMode) -> Self {
        self.base.exec_mode = mode;
        self
    }

    /// Worker threads.
    pub fn threads(mut self, threads: usize) -> Self {
        self.opts.threads = threads;
        self
    }

    /// Master seed for derived recovery batches.
    pub fn seed(mut self, seed: u64) -> Self {
        self.opts.seed = seed;
        self
    }

    /// Hang budget per run, in cycles.
    pub fn budget_cycles(mut self, budget_cycles: u64) -> Self {
        self.opts.budget_cycles = budget_cycles;
        self
    }

    /// Scenario budget (bounded in-flight window).
    pub fn scenario_budget(mut self, scenario_budget: usize) -> Self {
        self.opts.scenario_budget = scenario_budget;
        self
    }

    /// Record per-scenario spans.
    pub fn spans(mut self, spans: bool) -> Self {
        self.opts.spans = spans;
        self
    }

    /// Append one scenario.
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.planned.push(Planned::One(scenario));
        self
    }

    /// Append many scenarios.
    pub fn scenarios(mut self, scenarios: impl IntoIterator<Item = Scenario>) -> Self {
        self.planned.extend(scenarios.into_iter().map(Planned::One));
        self
    }

    /// Append the full detection matrix: the clean baseline plus every
    /// catalogued bug (the Table III workload).
    pub fn matrix(mut self) -> Self {
        self.planned.push(Planned::One(Scenario::Clean));
        self.planned
            .extend(Bug::ALL.into_iter().map(|b| Planned::One(Scenario::Bug(b))));
        self
    }

    /// Append the clean two-region split-pipeline scenario.
    pub fn split_clean(mut self) -> Self {
        self.planned.push(Planned::One(Scenario::SplitClean));
        self
    }

    /// Append a seeded transient-fault campaign of `runs` injections
    /// (cycled over [`Bug::TRANSIENTS`]); per-run seeds derive from the
    /// builder's master seed at [`CampaignBuilder::build`] time, so the
    /// batch is bit-equal to the legacy `run_campaign` for the same
    /// seed.
    pub fn recovery_campaign(mut self, runs: usize, recovery_on: bool) -> Self {
        self.planned
            .push(Planned::RecoveryBatch { runs, recovery_on });
        self
    }

    /// Materialise the campaign (expanding recovery batches with the
    /// final master seed).
    pub fn build(self) -> Campaign {
        let mut scenarios = Vec::new();
        for p in self.planned {
            match p {
                Planned::One(s) => scenarios.push(s),
                Planned::RecoveryBatch { runs, recovery_on } => {
                    for i in 0..runs {
                        scenarios.push(Scenario::Recovery(RecoverySpec {
                            fault: Bug::TRANSIENTS[i % Bug::TRANSIENTS.len()],
                            seed: self.opts.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                            recovery_on,
                        }));
                    }
                }
            }
        }
        Campaign {
            base: self.base,
            opts: self.opts,
            scenarios,
        }
    }
}

/// A fully planned scenario campaign: a scenario list over one base
/// configuration, executed by the claim-cursor pool.
#[derive(Debug, Clone)]
pub struct Campaign {
    base: SystemConfig,
    opts: CampaignOptions,
    scenarios: Vec<Scenario>,
}

impl Campaign {
    /// Start building a campaign. The default base configuration is the
    /// matrix base (32×24, two frames, 256-word SimB payload).
    pub fn builder() -> CampaignBuilder {
        CampaignBuilder {
            base: MatrixConfig::default().base,
            opts: CampaignOptions::default(),
            planned: Vec::new(),
        }
    }

    /// The planned scenarios, in submission order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// The options the campaign will run with.
    pub fn options(&self) -> &CampaignOptions {
        &self.opts
    }

    /// Execute every scenario and aggregate the report (rows in
    /// submission order regardless of scheduling).
    pub fn run(&self) -> CampaignReport {
        self.run_streaming(|_| {})
    }

    /// [`Campaign::run`], additionally delivering each finished row to
    /// `sink` in submission order as soon as it is complete. The
    /// scenario budget bounds how many rows are ever buffered waiting
    /// for an earlier scenario.
    pub fn run_streaming(&self, sink: impl FnMut(&CampaignRow) + Send) -> CampaignReport {
        self.run_streaming_with(&ArtifactCache::new(), None, sink)
    }

    /// [`Campaign::run_streaming`] over a caller-owned artifact cache
    /// and an optional cancellation flag — the entry point the `verifd`
    /// daemon drives, keeping one cache hot across submissions.
    ///
    /// Cached artifacts are pure functions of their keys (and those
    /// keys deliberately exclude the execution mode — see the identity
    /// contract pinned by `lockstep_equivalence`), so sharing a cache
    /// across campaigns, methods and exec modes cannot change any row.
    /// Once `cancel` reads `true`, scenarios that have not started yet
    /// complete immediately as [`ScenarioOutcome::Cancelled`] rows;
    /// scenarios already running finish normally, so delivery stays
    /// index-complete and in order.
    pub fn run_streaming_with(
        &self,
        artifacts: &ArtifactCache,
        cancel: Option<&AtomicBool>,
        mut sink: impl FnMut(&CampaignRow) + Send,
    ) -> CampaignReport {
        let cancelled = || cancel.map(|c| c.load(Ordering::Acquire)).unwrap_or(false);
        for s in &self.scenarios {
            if cancelled() {
                break;
            }
            for cfg in s.configs(&self.base) {
                artifacts.warm(&cfg);
            }
        }
        let (hits0, misses0) = artifacts.stats();
        let pool = PoolOptions {
            threads: self.opts.threads,
            scenario_budget: self.opts.scenario_budget,
            spans: self.opts.spans,
        };
        let ctx = ScenarioCtx::new(&self.base, self.opts.budget_cycles, artifacts);
        let scenarios = &self.scenarios;
        let mut rows: Vec<CampaignRow> = Vec::with_capacity(scenarios.len());
        let mut stats = {
            let rows = &mut rows;
            execute_streaming(
                scenarios.len(),
                &pool,
                |i| {
                    if cancelled() {
                        return ScenarioOutcome::Cancelled;
                    }
                    run_scenario(&ctx, scenarios[i])
                },
                move |i, outcome| {
                    let row = CampaignRow {
                        index: i,
                        scenario: scenarios[i],
                        outcome,
                    };
                    sink(&row);
                    rows.push(row);
                },
            )
        };
        // Report the *delta* this run contributed, so a long-lived
        // shared cache (the daemon's) attributes hits per campaign.
        let (hits, misses) = artifacts.stats();
        stats.artifact_hits = hits - hits0;
        stats.artifact_misses = misses - misses0;
        (stats.compiled_plans, stats.compiled) =
            *ctx.compiled.lock().expect("compiled fold poisoned");
        CampaignReport { rows, stats }
    }
}

/// Execute one scenario, capturing a panic as a failed row so the pool
/// keeps draining.
pub fn run_scenario(ctx: &ScenarioCtx<'_>, scenario: Scenario) -> ScenarioOutcome {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match scenario {
        Scenario::Clean => ScenarioOutcome::Matrix(matrix::run_clean_in(ctx)),
        Scenario::Bug(bug) => ScenarioOutcome::Matrix(matrix::run_bug_in(ctx, bug)),
        Scenario::SplitClean => ScenarioOutcome::Matrix(matrix::run_split_clean_in(ctx)),
        Scenario::Recovery(spec) => ScenarioOutcome::Recovery(recovery::run_one(ctx, spec)),
        Scenario::Fuzz(spec) => ScenarioOutcome::Fuzz(fuzz::run_one(ctx, spec)),
    }));
    result.unwrap_or_else(|payload| ScenarioOutcome::Failed {
        // `as_ref` (not `&payload`): a plain reference would unsize the
        // Box itself into `dyn Any` and the downcasts would never match.
        panic: panic_message(payload.as_ref()),
    })
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(threads: usize) -> PoolOptions {
        PoolOptions {
            threads,
            ..Default::default()
        }
    }

    #[test]
    fn pool_delivers_results_in_submission_order() {
        for threads in [1, 2, 4] {
            let (out, stats) = execute(37, &opts(threads), |i| i * 10);
            assert_eq!(out, (0..37).map(|i| i * 10).collect::<Vec<_>>());
            assert_eq!(stats.scenarios, 37);
            assert_eq!(stats.workers.len(), threads);
            assert_eq!(
                stats.workers.iter().map(|w| w.executed).sum::<u64>(),
                37,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn scenarios_start_in_submission_order() {
        let o = PoolOptions {
            threads: 3,
            scenario_budget: 64,
            spans: true,
        };
        // Job 0 is slow, so the other workers race ahead past it.
        let (_, stats) = execute(24, &o, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i
        });
        let starts: Vec<u64> = stats.spans.iter().map(|s| s.start_ns).collect();
        assert!(
            starts.windows(2).all(|w| w[0] <= w[1]),
            "spans sorted by index start out of order: {:?}",
            stats.spans
        );
    }

    #[test]
    fn record_writes_one_key_set_for_any_worker_count() {
        // A long-lived registry (the daemon's) sees a 3-worker campaign,
        // then a 1-worker one: no key of the first may outlive it.
        let mut reg = MetricsRegistry::new();
        for threads in [3, 1] {
            let (_, stats) = execute(6, &opts(threads), |i| i);
            stats.record(&mut reg);
        }
        let snap = reg.snapshot_json();
        let per_worker = snap
            .split("\"campaign.worker")
            .skip(1)
            .any(|rest| rest.starts_with(|c: char| c.is_ascii_digit()));
        assert!(!per_worker, "per-worker keys in {snap}");
        assert_eq!(reg.get_counter("campaign.workers"), 1);
        assert_eq!(reg.get_counter("campaign.scenarios"), 6);
        assert_eq!(
            reg.get_histogram("campaign.run_ns").map(|h| h.count),
            Some(12),
            "the run-time histogram adds up across campaigns"
        );
    }

    #[test]
    fn reorder_depth_respects_the_scenario_budget() {
        let o = PoolOptions {
            threads: 4,
            scenario_budget: 3,
            ..Default::default()
        };
        // Job 0 is slow, so later completions must queue behind it —
        // but never more than the budget allows.
        let (out, stats) = execute(40, &o, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i
        });
        assert_eq!(out, (0..40).collect::<Vec<_>>());
        assert!(
            stats.max_reorder_depth <= 3,
            "reorder depth {} exceeded budget",
            stats.max_reorder_depth
        );
    }

    #[test]
    fn spans_cover_every_job_once() {
        let o = PoolOptions {
            threads: 3,
            spans: true,
            ..Default::default()
        };
        let (_, stats) = execute(11, &o, |i| i);
        let idx: Vec<usize> = stats.spans.iter().map(|s| s.index).collect();
        assert_eq!(idx, (0..11).collect::<Vec<_>>());
        assert!(stats.spans.iter().all(|s| s.worker < 3));
    }

    #[test]
    fn zero_jobs_is_a_no_op() {
        let (out, stats) = execute(0, &opts(2), |i| i);
        assert!(out.is_empty());
        assert_eq!(stats.scenarios, 0);
    }

    #[test]
    fn recovery_batch_expansion_matches_the_legacy_seed_formula() {
        let c = Campaign::builder()
            .seed(0xFA_17)
            .recovery_campaign(6, true)
            .build();
        assert_eq!(c.scenarios().len(), 6);
        for (i, s) in c.scenarios().iter().enumerate() {
            let Scenario::Recovery(spec) = s else {
                panic!("expected recovery scenario, got {s:?}")
            };
            assert_eq!(spec.fault, Bug::TRANSIENTS[i % Bug::TRANSIENTS.len()]);
            assert_eq!(
                spec.seed,
                0xFA_17 ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            );
            assert!(spec.recovery_on);
        }
    }

    #[test]
    fn digest_is_stable_across_identical_reports() {
        let row = CampaignRow {
            index: 0,
            scenario: Scenario::Clean,
            outcome: ScenarioOutcome::Failed { panic: "x".into() },
        };
        let a = CampaignReport {
            rows: vec![row.clone()],
            stats: ExecutorStats::default(),
        };
        let b = CampaignReport {
            rows: vec![row],
            stats: ExecutorStats {
                wall_s: 99.0,
                ..Default::default()
            },
        };
        assert_eq!(
            a.digest(),
            b.digest(),
            "stats must not leak into the digest"
        );
    }
}

//! The campaign execution plane: a work-stealing scenario pool behind
//! one unified [`Scenario`] / [`Campaign`] API.
//!
//! The matrix (`Table III`) and the recovery campaign used to hand-roll
//! their own `i % threads` round-robin fan-outs, so one slow scenario —
//! a hung run burning its whole cycle budget — stalled its shard while
//! other workers sat idle. This module replaces both with a single
//! executor:
//!
//! * **per-worker deques + a global injector** — workers drain their own
//!   deque front-to-back, refill from the injector in chunks, and when
//!   both run dry steal a chunk from the front of the fullest peer;
//! * **deterministic aggregation** — results are keyed by scenario
//!   index and delivered in submission order, so the report is
//!   byte-identical for any thread count or steal schedule (each
//!   scenario builds its own single-threaded simulator; nothing leaks
//!   between runs);
//! * **bounded in-flight memory** — a scenario *budget* caps how far
//!   past the oldest incomplete scenario the pool may run, which bounds
//!   the reorder buffer a streaming consumer needs to `O(budget)` rows;
//! * **shared setup artifacts** — one [`ArtifactCache`] serves every
//!   worker, so N scenarios stop re-deriving identical SimB word
//!   streams, software images and golden predictions;
//! * **panic isolation** — a scenario that panics becomes a
//!   [`ScenarioOutcome::Failed`] row; the pool keeps draining instead of
//!   aborting the whole campaign;
//! * **observability** — per-worker counters (steals, refills, idle
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
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

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
    /// any thread count or steal schedule.
    pub rows: Vec<CampaignRow>,
    /// Wall-clock/scheduling statistics of the run that produced the
    /// rows. Excluded from [`CampaignReport::digest`].
    pub stats: ExecutorStats,
}

impl CampaignReport {
    /// A deterministic, line-per-row rendering of the report's rows —
    /// the thing the determinism suite compares byte-for-byte across
    /// thread counts and steal schedules.
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

    /// The fuzz rows, in submission order.
    pub fn fuzz_rows(&self) -> Vec<FuzzRow> {
        self.rows
            .iter()
            .filter_map(|r| match &r.outcome {
                ScenarioOutcome::Fuzz(f) => Some(f.clone()),
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

/// How scenarios are placed and balanced across workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// The default: scenarios enter a global injector; workers refill
    /// their deque in chunks and steal from peers when idle.
    WorkStealing,
    /// Every scenario is preloaded onto worker 0's deque, so all other
    /// workers must steal everything they run. A pathological schedule
    /// kept for the determinism suite.
    ForceSteal,
}

/// Executor tuning knobs (the scenario list and base configuration live
/// on [`Campaign`]).
#[derive(Debug, Clone, Copy)]
pub struct PoolOptions {
    /// Worker threads (minimum 1).
    pub threads: usize,
    /// Scenario budget: the pool never runs a scenario more than this
    /// many positions past the oldest incomplete one, bounding the
    /// reorder buffer. `0` means `4 × threads`.
    pub scenario_budget: usize,
    /// Placement/balancing policy.
    pub schedule: Schedule,
    /// Record one span per scenario into [`ExecutorStats::spans`].
    pub spans: bool,
}

impl Default for PoolOptions {
    fn default() -> Self {
        PoolOptions {
            threads: 1,
            scenario_budget: 0,
            schedule: Schedule::WorkStealing,
            spans: false,
        }
    }
}

/// One worker's counters.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Scenarios this worker executed.
    pub executed: u64,
    /// Successful steal operations (chunks taken from a peer).
    pub steals: u64,
    /// Scenarios acquired by stealing (including rescue singles).
    pub stolen: u64,
    /// Injector refills.
    pub refills: u64,
    /// Idle waits (no admissible work anywhere at that moment).
    pub idle_waits: u64,
    /// Nanoseconds spent executing scenarios.
    pub busy_ns: u64,
    /// Nanoseconds spent idle-waiting.
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
    /// Start offset, ns.
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
    /// Total successful steals across workers.
    pub fn steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Total injector refills across workers.
    pub fn refills(&self) -> u64 {
        self.workers.iter().map(|w| w.refills).sum()
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
    /// and `compiled.*`. Every `compiled.*` key is written (zeros for an
    /// event-driven campaign), so in a long-lived registry they are the
    /// last campaign's.
    pub fn record(&self, reg: &mut MetricsRegistry) {
        reg.counter("campaign.scenarios", self.scenarios as u64);
        reg.counter("campaign.steals", self.steals());
        reg.counter("campaign.refills", self.refills());
        reg.counter("campaign.max_reorder_depth", self.max_reorder_depth as u64);
        reg.counter("campaign.artifact_cache.hits", self.artifact_hits);
        reg.counter("campaign.artifact_cache.misses", self.artifact_misses);
        reg.gauge("campaign.wall_s", self.wall_s);
        reg.gauge("campaign.scenarios_per_sec", self.scenarios_per_sec());
        for (i, w) in self.workers.iter().enumerate() {
            reg.counter(&format!("campaign.worker{i}.executed"), w.executed);
            reg.counter(&format!("campaign.worker{i}.steals"), w.steals);
            reg.counter(&format!("campaign.worker{i}.stolen"), w.stolen);
            reg.counter(&format!("campaign.worker{i}.idle_waits"), w.idle_waits);
            reg.counter(&format!("campaign.worker{i}.busy_ns"), w.busy_ns);
            reg.counter(&format!("campaign.worker{i}.idle_ns"), w.idle_ns);
        }
        reg.merge_histogram("campaign.run_ns", &self.run_ns_histogram());
        reg.counter("compiled.plans", self.compiled_plans);
        obs::record_compiled_stats(reg, &self.compiled);
    }
}

// ---------------------------------------------------------------------
// The work-stealing pool
// ---------------------------------------------------------------------

struct Reorder<R, S: FnMut(usize, R)> {
    slots: Vec<Option<R>>,
    next: usize,
    buffered: usize,
    max_depth: usize,
    sink: S,
}

struct Shared<R, S: FnMut(usize, R)> {
    injector: Mutex<VecDeque<usize>>,
    deques: Vec<Mutex<VecDeque<usize>>>,
    /// Mirrors `Reorder::next` for lock-free admission checks.
    prefix: AtomicUsize,
    completed: AtomicUsize,
    reorder: Mutex<Reorder<R, S>>,
    /// Workers with no admissible work park here instead of spin-
    /// yielding (spinning would starve the busy workers of CPU on
    /// oversubscribed hosts). Notified on every completion.
    park: Mutex<()>,
    wake: Condvar,
    jobs: usize,
    budget: usize,
}

impl<R, S: FnMut(usize, R)> Shared<R, S> {
    fn window_end(&self) -> usize {
        self.prefix
            .load(Ordering::Acquire)
            .saturating_add(self.budget)
    }

    fn complete(&self, index: usize, result: R) {
        let mut ro = self.reorder.lock().expect("reorder lock poisoned");
        ro.slots[index] = Some(result);
        ro.buffered += 1;
        if ro.buffered > ro.max_depth {
            ro.max_depth = ro.buffered;
        }
        while ro.next < self.jobs {
            let i = ro.next;
            let Some(v) = ro.slots[i].take() else {
                break;
            };
            (ro.sink)(i, v);
            ro.next += 1;
            ro.buffered -= 1;
        }
        self.prefix.store(ro.next, Ordering::Release);
        drop(ro);
        self.completed.fetch_add(1, Ordering::AcqRel);
        // Lock-then-notify so a worker that checked the counters and is
        // about to wait cannot miss this wakeup.
        drop(self.park.lock().expect("park lock poisoned"));
        self.wake.notify_all();
    }

    /// Pop this worker's own front job if it is inside the admission
    /// window.
    fn pop_local(&self, w: usize) -> Option<usize> {
        let mut d = self.deques[w].lock().expect("deque lock poisoned");
        match d.front() {
            Some(&f) if f < self.window_end() => d.pop_front(),
            _ => None,
        }
    }

    fn local_is_empty(&self, w: usize) -> bool {
        self.deques[w]
            .lock()
            .expect("deque lock poisoned")
            .is_empty()
    }

    /// Move a chunk from the injector onto worker `w`'s (empty) deque.
    fn refill(&self, w: usize) -> bool {
        let grabbed: Vec<usize> = {
            let mut inj = self.injector.lock().expect("injector lock poisoned");
            if inj.is_empty() {
                return false;
            }
            let n = chunk_of(inj.len());
            inj.drain(..n).collect()
        };
        let mut d = self.deques[w].lock().expect("deque lock poisoned");
        d.extend(grabbed);
        true
    }

    /// Steal a chunk from the front of the fullest peer onto worker
    /// `w`'s (empty) deque. Returns how many jobs moved.
    fn steal(&self, w: usize) -> usize {
        // Pick the fullest victim without holding two locks at once.
        let mut victim = None;
        let mut best = 0usize;
        for (v, dq) in self.deques.iter().enumerate() {
            if v == w {
                continue;
            }
            let len = dq.lock().expect("deque lock poisoned").len();
            if len > best {
                best = len;
                victim = Some(v);
            }
        }
        let Some(v) = victim else { return 0 };
        let grabbed: Vec<usize> = {
            let mut dq = self.deques[v].lock().expect("deque lock poisoned");
            if dq.is_empty() {
                return 0;
            }
            let n = chunk_of(dq.len());
            dq.drain(..n).collect()
        };
        let n = grabbed.len();
        let mut d = self.deques[w].lock().expect("deque lock poisoned");
        d.extend(grabbed);
        n
    }

    /// Pop the globally smallest queued job if admissible — the rescue
    /// path that keeps the admission window live when every worker's
    /// own front is blocked. Deques only ever grow while empty, so each
    /// front is that deque's minimum.
    fn rescue(&self) -> Option<usize> {
        let window = self.window_end();
        // Injector front first (it holds the globally un-dealt tail).
        {
            let mut inj = self.injector.lock().expect("injector lock poisoned");
            if let Some(&f) = inj.front() {
                if f < window {
                    return inj.pop_front();
                }
            }
        }
        let mut best: Option<(usize, usize)> = None; // (front, deque)
        for (v, dq) in self.deques.iter().enumerate() {
            if let Some(&f) = dq.lock().expect("deque lock poisoned").front() {
                if best.map(|(b, _)| f < b).unwrap_or(true) {
                    best = Some((f, v));
                }
            }
        }
        let (f, v) = best?;
        if f >= window {
            return None;
        }
        let mut dq = self.deques[v].lock().expect("deque lock poisoned");
        // Re-check under the lock; the front may have moved.
        match dq.front() {
            Some(&g) if g == f => dq.pop_front(),
            _ => None,
        }
    }
}

/// Jobs moved per injector refill or steal: half the source, capped at
/// 8.
fn chunk_of(len: usize) -> usize {
    len.div_ceil(2).clamp(1, 8)
}

fn worker_loop<R, S, F>(
    shared: &Shared<R, S>,
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
    loop {
        let mut acquired = shared.pop_local(w);
        if acquired.is_none() && shared.local_is_empty(w) {
            if shared.refill(w) {
                stats.refills += 1;
                acquired = shared.pop_local(w);
            } else {
                let n = shared.steal(w);
                if n > 0 {
                    stats.steals += 1;
                    stats.stolen += n as u64;
                    acquired = shared.pop_local(w);
                }
            }
        }
        if acquired.is_none() {
            // Own front blocked by the admission window (or someone
            // stole the refill): run the globally smallest queued job.
            if let Some(j) = shared.rescue() {
                stats.stolen += 1;
                acquired = Some(j);
            }
        }
        match acquired {
            Some(j) => {
                let start = Instant::now();
                let r = run(j);
                let dur = start.elapsed();
                stats.executed += 1;
                stats.busy_ns += dur.as_nanos() as u64;
                stats.run_ns.observe(dur.as_nanos() as u64);
                if record_spans {
                    spans.push(ScenarioSpan {
                        index: j,
                        worker: w,
                        start_ns: start.duration_since(t0).as_nanos() as u64,
                        dur_ns: dur.as_nanos() as u64,
                    });
                }
                shared.complete(j, r);
            }
            None => {
                stats.idle_waits += 1;
                let t = Instant::now();
                let guard = shared.park.lock().expect("park lock poisoned");
                if shared.completed.load(Ordering::Acquire) >= shared.jobs {
                    break;
                }
                // Admissibility only changes when a job completes, so a
                // completion notify is the wake signal; the timeout
                // bounds the cost of any lost race with a steal.
                let _ = shared
                    .wake
                    .wait_timeout(guard, Duration::from_millis(2))
                    .expect("park lock poisoned");
                stats.idle_ns += t.elapsed().as_nanos() as u64;
                if shared.completed.load(Ordering::Acquire) >= shared.jobs {
                    break;
                }
            }
        }
    }
    (stats, spans)
}

/// Run `jobs` indexed jobs through the pool, delivering `(index,
/// result)` pairs to `sink` in strict submission order, and return the
/// run's statistics. The scheduling layer under [`Campaign`]; exposed
/// so schedule-independence can be property-tested with synthetic
/// workloads.
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
    let mut injector = VecDeque::new();
    let mut deques: Vec<VecDeque<usize>> = (0..threads).map(|_| VecDeque::new()).collect();
    match opts.schedule {
        Schedule::WorkStealing => injector.extend(0..jobs),
        Schedule::ForceSteal => deques[0].extend(0..jobs),
    }
    let shared = Shared {
        injector: Mutex::new(injector),
        deques: deques.into_iter().map(Mutex::new).collect(),
        prefix: AtomicUsize::new(0),
        completed: AtomicUsize::new(0),
        reorder: Mutex::new(Reorder {
            slots: (0..jobs).map(|_| None).collect(),
            next: 0,
            buffered: 0,
            max_depth: 0,
            sink,
        }),
        park: Mutex::new(()),
        wake: Condvar::new(),
        jobs,
        budget,
    };
    let t0 = Instant::now();
    let per_worker: Vec<(WorkerStats, Vec<ScenarioSpan>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let shared = &shared;
                let run = &run;
                s.spawn(move || worker_loop(shared, w, run, opts.spans, t0))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("campaign worker thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let ro = shared.reorder.into_inner().expect("reorder lock poisoned");
    debug_assert_eq!(ro.next, jobs, "pool finished with undelivered rows");
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
        max_reorder_depth: ro.max_depth,
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
    /// Placement/balancing policy.
    pub schedule: Schedule,
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
            schedule: Schedule::WorkStealing,
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

    /// Placement/balancing policy.
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.opts.schedule = schedule;
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
/// configuration, executed by the work-stealing pool.
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
            schedule: self.opts.schedule,
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

    fn opts(threads: usize, schedule: Schedule) -> PoolOptions {
        PoolOptions {
            threads,
            schedule,
            ..Default::default()
        }
    }

    #[test]
    fn pool_delivers_results_in_submission_order() {
        for schedule in [Schedule::WorkStealing, Schedule::ForceSteal] {
            for threads in [1, 2, 4] {
                let (out, stats) = execute(37, &opts(threads, schedule), |i| i * 10);
                assert_eq!(out, (0..37).map(|i| i * 10).collect::<Vec<_>>());
                assert_eq!(stats.scenarios, 37);
                assert_eq!(
                    stats.workers.iter().map(|w| w.executed).sum::<u64>(),
                    37,
                    "{schedule:?} @ {threads}"
                );
            }
        }
    }

    #[test]
    fn force_steal_makes_other_workers_steal() {
        let (out, stats) = execute(64, &opts(4, Schedule::ForceSteal), |i| i);
        assert_eq!(out.len(), 64);
        assert!(
            stats.steals() > 0 || stats.workers[0].executed == 64,
            "either someone stole or worker 0 ran everything: {stats:?}"
        );
        // With 64 jobs and any real interleaving the thieves get work.
        let others: u64 = stats.workers[1..].iter().map(|w| w.executed).sum();
        assert_eq!(stats.workers[0].executed + others, 64);
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
        let (out, stats) = execute(0, &opts(2, Schedule::WorkStealing), |i| i);
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

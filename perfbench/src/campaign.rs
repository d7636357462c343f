//! `campaign_matrix`: the 47-scenario Table III campaign, in-process at
//! two worker threads, on a fresh artifact cache per campaign.

use crate::inputs;
use crate::report::{self, Report, Timer};
use crate::stats::{fastest, median, Timing};
use autovision::{ArtifactCache, AvSystem, Bug, FaultSet, RecoveryPolicy, SimMethod, SystemConfig};
use std::time::Instant;
use verif::{
    Campaign, CampaignReport, CampaignRow, MatrixConfig, RunClass, Scenario, ScenarioOutcome,
};

/// Plannings before each campaign; `setup_s` is the fastest of all.
const PLAN_REPS: usize = 101;

/// Time [`PLAN_REPS`] plannings of the seed's campaign; returns the
/// fastest and the last plan.
fn plan(seed: u64, spans: bool, timer: Option<&Timer>) -> (f64, Campaign) {
    let mut times = Vec::with_capacity(PLAN_REPS);
    let mut last = None;
    for _ in 0..PLAN_REPS {
        let t0 = Instant::now();
        let c = match timer {
            Some(t) => t.time(|| inputs::campaign(seed, spans)).0,
            None => inputs::campaign(seed, spans),
        };
        times.push(t0.elapsed().as_secs_f64());
        last = Some(c);
    }
    (fastest(&times), last.expect("at least one planning"))
}

/// Check one campaign's rows: none failed, every Table III verdict as
/// the paper expects, and the rendering identical to the first
/// campaign's. Returns the rendered rows.
fn check(
    report: &mut Report,
    campaign: &CampaignReport,
    first: &mut Option<String>,
) -> Vec<String> {
    let rows: Vec<String> = campaign.rows.iter().map(verif::row_to_json).collect();
    report.attempted += rows.len() as u64;
    for r in campaign.failures() {
        report.fail(format!(
            "row {} ({:?}) did not complete: {:?}",
            r.index, r.scenario, r.outcome
        ));
    }
    for m in campaign.matrix_rows() {
        if !m.as_expected() {
            report.fail(format!(
                "Table III row {} detected contrary to the paper",
                m.bug
            ));
        }
    }
    let d = report::digest(rows.iter().map(String::as_str));
    match first {
        Some(f) if *f != d => report.fail(format!("row digest {d} differs from {f}")),
        Some(_) => {}
        None => *first = Some(d),
    }
    rows
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    if trace {
        return traced(seed);
    }
    let mut report = Report::default();
    let (mut setup_s, campaign) = plan(seed, true, None);
    println!(
        "campaign_matrix: {} scenarios, {} threads, budget {} cycles, fresh cache per campaign",
        campaign.scenarios().len(),
        campaign.options().threads,
        campaign.options().budget_cycles
    );

    let t0 = Instant::now();
    let mut walls = Vec::new();
    let mut firsts = Vec::new();
    // Fastest repetition of each scenario across the run's campaigns.
    let mut best = vec![f64::INFINITY; campaign.scenarios().len()];
    let mut digest = None;
    loop {
        let cache = ArtifactCache::new();
        let c0 = Instant::now();
        let mut first_row = None;
        let out = campaign.run_streaming_with(&cache, None, |_| {
            first_row.get_or_insert_with(|| c0.elapsed().as_secs_f64());
        });
        walls.push(c0.elapsed().as_secs_f64());
        firsts.push(first_row.unwrap_or(0.0));
        for s in &out.stats.spans {
            best[s.index] = best[s.index].min(s.dur_ns as f64 / 1e9);
        }
        check(&mut report, &out, &mut digest);
        if t0.elapsed().as_secs_f64() + median(&walls) > seconds {
            break;
        }
        // Plan again between campaigns, so the set-up samples spread
        // over the run.
        setup_s = setup_s.min(plan(seed, true, None).0);
    }
    let work: f64 = best.iter().sum();
    let best_first = fastest(&firsts);
    println!("campaign_s      : {}", Timing::of(&walls).describe("s"));
    println!("campaign walls  : {walls:.3?}");
    println!(
        "scenarios_per_s : {:.4} at {} threads",
        best.len() as f64 * walls.len() as f64 / walls.iter().sum::<f64>(),
        campaign.options().threads
    );
    println!(
        "campaign work   : {work:.4} s (sum over scenarios of the fastest of {} repetitions)",
        walls.len()
    );
    println!(
        "first row       : {} (fastest {best_first:.4} s)",
        Timing::of(&firsts).describe("s")
    );
    report.set("op_ms", 1e3 * work);
    report.set("first_result_ms", 1e3 * best_first);
    report.set("setup_s", setup_s);
    report.pin("rows", campaign.scenarios().len());
    report.pin("rows.digest", digest.unwrap_or_default());
    report
}

/// The system configurations the campaign builds, for a cold
/// `ArtifactCache::warm`: both methods of every matrix scenario, and
/// the recovery runs' ReSim builds with the policy off and on.
fn configs(base: &SystemConfig) -> Vec<SystemConfig> {
    let mut out: Vec<SystemConfig> = matrix_systems(base).into_iter().map(|(_, c)| c).collect();
    for enabled in [false, true] {
        out.push(SystemConfig {
            method: SimMethod::Resim,
            recovery: RecoveryPolicy {
                enabled,
                ..Default::default()
            },
            ..base.clone()
        });
    }
    out
}

/// Both methods' systems of each matrix scenario (clean, every bug,
/// the split pipeline), exactly as the matrix runners configure them.
fn matrix_systems(base: &SystemConfig) -> Vec<(Scenario, SystemConfig)> {
    let scenarios = std::iter::once(Scenario::Clean)
        .chain(Bug::ALL.into_iter().map(Scenario::Bug))
        .chain(std::iter::once(Scenario::SplitClean));
    let mut out = Vec::new();
    for s in scenarios {
        for method in [SimMethod::Vmux, SimMethod::Resim] {
            let (faults, regions) = match s {
                Scenario::Bug(b) => (FaultSet::one(b), base.regions.clone()),
                Scenario::SplitClean => (FaultSet::none(), SystemConfig::split_regions()),
                _ => (FaultSet::none(), base.regions.clone()),
            };
            out.push((
                s,
                SystemConfig {
                    method,
                    faults,
                    regions,
                    ..base.clone()
                },
            ));
        }
    }
    out
}

/// Executor and runner layers from span-recording campaigns: worker
/// busy share, idle and tail time, steals, reorder depth, scenario
/// times, and the share of busy time spent in scenarios that ran until
/// their cycle budget was used up (`burning`).
pub fn executor_layers(
    report: &mut Report,
    campaigns: &[&CampaignReport],
    burning: impl Fn(&CampaignRow) -> bool,
) {
    let (mut busy_ns, mut capacity_s, mut durs, mut burnt) = (0u64, 0.0, Vec::new(), 0.0);
    for c in campaigns {
        let stats = &c.stats;
        busy_ns += stats.workers.iter().map(|w| w.busy_ns).sum::<u64>();
        capacity_s += stats.workers.len() as f64 * stats.wall_s;
        report.add("executor.idle_s", stats.idle_ns() as f64 / 1e9);
        report.add("executor.steals", stats.steals() as f64);
        let depth = report
            .get("executor.reorder_depth_max")
            .max(stats.max_reorder_depth as f64);
        report.set("executor.reorder_depth_max", depth);
        // Tail: how long the last worker ran alone after the others
        // finished their last scenario.
        let mut ends = vec![0u64; stats.workers.len()];
        for s in &stats.spans {
            ends[s.worker] = ends[s.worker].max(s.start_ns + s.dur_ns);
            let ms = s.dur_ns as f64 / 1e6;
            durs.push(ms);
            if burning(&c.rows[s.index]) {
                burnt += ms;
            }
        }
        ends.sort_unstable_by(|a, b| b.cmp(a));
        if ends.len() >= 2 {
            report.add("executor.tail_s", (ends[0] - ends[1]) as f64 / 1e9);
        }
    }
    let total_ms: f64 = durs.iter().sum();
    report.set("executor.busy_share", busy_ns as f64 / 1e9 / capacity_s);
    report.set("scenario.ms", total_ms / durs.len() as f64);
    report.set("scenario.max_ms", durs.iter().copied().fold(0.0, f64::max));
    report.set("scenario.budget_burn_share", burnt / total_ms);
}

/// The traced run: one untraced and one span-recording campaign, then a
/// profiled serial replay of the matrix scenarios' 30 systems for the
/// kernel and eval-body layers.
fn traced(seed: u64) -> Report {
    let mut report = Report::traced();
    let timer = Timer::new();
    let base = MatrixConfig::default().base;
    let (_, plain) = plan(seed, false, Some(&timer));
    let (_, spanned) = plan(seed, true, Some(&timer));
    let budget = spanned.options().budget_cycles;

    let warm = ArtifactCache::new();
    let ((), derive_s) = timer.time(|| {
        for c in configs(&base) {
            warm.warm(&c);
        }
    });
    report.set("artifacts.derive_s", derive_s);

    let mut digest = None;
    let (out, wall_plain) =
        timer.time(|| plain.run_streaming_with(&ArtifactCache::new(), None, |_| {}));
    let (rows, _) = timer.time(|| check(&mut report, &out, &mut digest));
    drop(rows);
    let (out, wall) =
        timer.time(|| spanned.run_streaming_with(&ArtifactCache::new(), None, |_| {}));
    let mut render_us = Vec::new();
    let mut bytes = 0usize;
    for row in &out.rows {
        let (json, dt) = timer.time(|| verif::row_to_json(row));
        render_us.push(1e6 * dt);
        bytes += json.len();
    }
    let (rows, _) = timer.time(|| check(&mut report, &out, &mut digest));
    report.set("wire.row_render_us", median(&render_us));
    report.set("wire.row_bytes", bytes as f64 / rows.len() as f64);
    report.set("bench.trace_overhead_share", wall / wall_plain - 1.0);

    // Kernel and eval layers: replay the matrix systems one by one.
    let mut burners = std::collections::BTreeSet::new();
    let mut builds = Vec::new();
    for (scenario, cfg) in matrix_systems(&base) {
        let n_frames = cfg.n_frames;
        let method = cfg.method;
        let (mut sys, b) = timer.time(|| AvSystem::build_with(cfg, &warm));
        builds.push(b);
        sys.sim.set_profiling(true);
        let (outcome, run_s) = timer.time(|| sys.run(budget));
        report.add("kernel.run_s", run_s);
        report.add_kernel(&sys.sim.stats(), outcome.cycles);
        let (rows, _) = timer.time(|| sys.sim.profiler().report(&sys.sim.eval_counts()));
        report.add_profile(&rows);
        let (verdict, _) = timer.time(|| verif::detect::classify(&sys, &outcome, n_frames));
        if outcome.hung {
            burners.insert(format!("{scenario:?}"));
        }
        let row = out.rows.iter().find(|r| r.scenario == scenario);
        if let Some(ScenarioOutcome::Matrix(m)) = row.map(|r| &r.outcome) {
            let campaign_says = match method {
                SimMethod::Vmux => m.vmux_detected,
                SimMethod::Resim => m.resim_detected,
            };
            if campaign_says != verdict.detected {
                report.fail(format!(
                    "replay of {scenario:?} under {method:?} disagrees with the campaign"
                ));
            }
        }
    }
    report.finish_kernel();
    report.set("build.system_ms", 1e3 * median(&builds));
    report.set("build.systems", builds.len() as f64);

    let is_burner = |row: &CampaignRow| match &row.outcome {
        ScenarioOutcome::Recovery(r) => r.class == RunClass::Hung,
        _ => burners.contains(&format!("{:?}", row.scenario)),
    };
    executor_layers(&mut report, &[&out], is_burner);
    let (hits, misses) = (out.stats.artifact_hits, out.stats.artifact_misses);
    report.set("artifacts.hits", hits as f64);
    report.set("artifacts.misses", misses as f64);
    report.set(
        "artifacts.hit_share",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    timer.close(&mut report);

    println!(
        "campaign wall {wall_plain:.3} s untraced, {wall:.3} s with spans; busy share {:.3}, \
         tail {:.3} s, {} steals; {} of {} scenarios burn their cycle budget ({:.1}% of busy time)",
        report.get("executor.busy_share"),
        report.get("executor.tail_s"),
        out.stats.steals(),
        out.rows.iter().filter(|r| is_burner(r)).count(),
        out.rows.len(),
        100.0 * report.get("scenario.budget_burn_share")
    );
    println!(
        "matrix replay: {} systems, kernel {:.3} s, {:.1} evals/cycle, ReSim artifacts {:.2}% of eval time",
        builds.len(),
        report.get("kernel.run_s"),
        report.get("kernel.evals_per_cycle"),
        100.0 * report.get("eval.resim_share")
    );
    report.pin("rows", rows.len());
    report.pin("rows.digest", digest.unwrap_or_default());
    for k in [
        "kernel.cycles",
        "kernel.events",
        "kernel.evals",
        "kernel.deltas",
        "kernel.toggles",
    ] {
        report.pin(k, report.get(k) as u64);
    }
    report
}

//! Regression: [`autovision::ArtifactCache`] keys deliberately exclude
//! the kernel execution mode. That is only sound because cached
//! artifacts (SimB word streams, software images, golden scenes) are
//! pure functions of the system configuration and the identity contract
//! pins event-driven and compiled execution to bit-identical behaviour.
//! This suite pins both halves: a campaign submitted in `Compiled` mode
//! against a cache warmed by an `EventDriven` campaign must hit for
//! every artifact — and still produce byte-identical rows, across the
//! whole bug catalog and the transient faults. It also pins that a
//! campaign's compiled-plane counters fold from every runner.

use autovision::{ArtifactCache, Bug};
use obs::MetricsRegistry;
use rtlsim::ExecMode;
use verif::wire::report_to_json;
use verif::{Campaign, FuzzSchedule, FuzzSpec, MatrixConfig, RecoverySpec, Scenario};

fn campaign(mode: ExecMode) -> Campaign {
    Campaign::builder()
        .threads(2)
        .exec_mode(mode)
        .scenario(Scenario::Clean)
        .scenario(Scenario::Bug(autovision::Bug::Dpr1NoIsolation))
        .build()
}

#[test]
fn compiled_submissions_hit_the_cache_warmed_by_event_driven_runs() {
    let cache = ArtifactCache::new();

    let event = campaign(ExecMode::EventDriven).run_streaming_with(&cache, None, |_| {});
    assert!(
        event.stats.artifact_misses > 0,
        "cold run should derive artifacts"
    );

    let compiled = campaign(ExecMode::Compiled).run_streaming_with(&cache, None, |_| {});
    assert_eq!(
        compiled.stats.artifact_misses, 0,
        "cache keys must be exec-mode-independent: a compiled campaign \
         over the same configs should re-derive nothing"
    );
    assert!(compiled.stats.artifact_hits > 0);

    // And mode independence is not just a key property — the rows the
    // two modes produce are byte-identical (the PR 9 identity contract
    // seen from the campaign plane).
    assert_eq!(report_to_json(&event), report_to_json(&compiled));
}

/// The Table III matrix, the split pipeline and two transient-fault
/// batches (recovery off, then on): every scenario family the lockstep
/// suite does not drive through the dispatch filter.
fn catalog(mode: ExecMode) -> Campaign {
    Campaign::builder()
        .threads(2)
        .exec_mode(mode)
        .matrix()
        .split_clean()
        .recovery_campaign(8, false)
        .recovery_campaign(8, true)
        .build()
}

#[test]
fn bug_catalog_and_transient_faults_report_identically_in_both_modes() {
    let cache = ArtifactCache::new();
    let event = catalog(ExecMode::EventDriven).run_streaming_with(&cache, None, |_| {});
    let compiled = catalog(ExecMode::Compiled).run_streaming_with(&cache, None, |_| {});
    for report in [&event, &compiled] {
        assert!(report.failures().is_empty(), "{}", report.digest());
    }
    assert_eq!(report_to_json(&event), report_to_json(&compiled));
}

#[test]
fn pre_cancelled_campaigns_yield_typed_cancelled_rows_for_every_scenario() {
    use std::sync::atomic::AtomicBool;
    let cache = ArtifactCache::new();
    let cancel = AtomicBool::new(true);
    let mut streamed = Vec::new();
    let report = campaign(ExecMode::EventDriven)
        .run_streaming_with(&cache, Some(&cancel), |row| streamed.push(row.index));
    assert_eq!(report.rows.len(), 2, "delivery must stay index-complete");
    assert_eq!(streamed, vec![0, 1]);
    assert!(report
        .rows
        .iter()
        .all(|r| r.outcome == verif::ScenarioOutcome::Cancelled));
    assert_eq!(report.failures().len(), 2);
    assert_eq!(
        report.stats.artifact_misses, 0,
        "a cancelled campaign must not warm the cache"
    );
    let json = report_to_json(&report);
    assert!(json.contains("\"kind\": \"cancelled\""), "{json}");
}

/// One scenario per runner, all in `mode`: a matrix row (two systems),
/// one recovery run and one fuzz run.
fn every_runner(mode: ExecMode) -> Campaign {
    let schedule = FuzzSchedule {
        exec_mode: mode,
        ..FuzzSchedule::baseline(&MatrixConfig::default().base)
    };
    Campaign::builder()
        .threads(2)
        .exec_mode(mode)
        .scenario(Scenario::Clean)
        .scenario(Scenario::Recovery(RecoverySpec {
            fault: Bug::TRANSIENTS[0],
            seed: 7,
            recovery_on: true,
        }))
        .scenario(Scenario::Fuzz(FuzzSpec { id: 0, schedule }))
        .build()
}

#[test]
fn compiled_counters_fold_from_every_runner_of_the_campaign() {
    let compiled = every_runner(ExecMode::Compiled).run();
    assert!(compiled.failures().is_empty(), "{}", compiled.digest());
    assert_eq!(
        compiled.stats.compiled_plans, 4,
        "2 matrix systems + 1 recovery + 1 fuzz"
    );
    assert!(compiled.stats.compiled.steady_points > 0);

    let event = every_runner(ExecMode::EventDriven).run();
    assert!(event.failures().is_empty(), "{}", event.digest());
    assert_eq!(event.stats.compiled_plans, 0);
    assert_eq!(event.stats.compiled.steady_points, 0);

    // A registry that outlives the campaign shows the last one only.
    let mut reg = MetricsRegistry::new();
    compiled.stats.record(&mut reg);
    assert_eq!(reg.get_counter("compiled.plans"), 4);
    assert!(reg.get_gauge("compiled.fallback_share").is_some());
    event.stats.record(&mut reg);
    assert_eq!(reg.get_counter("compiled.plans"), 0);
    assert_eq!(reg.get_counter("compiled.steady_points"), 0);
    assert_eq!(reg.get_gauge("compiled.fallback_share"), Some(0.0));
}

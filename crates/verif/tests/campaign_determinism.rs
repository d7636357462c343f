//! Determinism suite for the campaign executor.
//!
//! The contract under test: a [`verif::CampaignReport`]'s rows are a
//! pure function of the scenario list — byte-identical for any worker
//! count, with a panicking scenario degrading into a typed failed row
//! instead of aborting the pool.

use autovision::Bug;
use proptest::prelude::*;
use verif::{
    execute, Campaign, CampaignReport, PoolOptions, RecoverySpec, Scenario, ScenarioOutcome,
};

/// A small mixed workload touching every scenario family: clean and
/// bugged matrix rows, the split pipeline, and seeded recovery runs
/// with the recovery policy on and off.
fn mixed_campaign(threads: usize) -> CampaignReport {
    Campaign::builder()
        .threads(threads)
        .scenario(Scenario::Clean)
        .scenario(Scenario::Bug(Bug::Hw1MemBurstWrap))
        .scenario(Scenario::SplitClean)
        .recovery_campaign(4, true)
        .recovery_campaign(2, false)
        .build()
        .run()
}

#[test]
fn report_is_byte_identical_for_any_worker_count() {
    let baseline = mixed_campaign(1);
    assert_eq!(baseline.rows.len(), 9);
    assert!(baseline.failures().is_empty(), "{}", baseline.digest());
    for threads in [2, 4, 8] {
        let got = mixed_campaign(threads);
        assert!(got.failures().is_empty(), "{}", got.digest());
        assert_eq!(
            baseline.digest(),
            got.digest(),
            "{threads}-worker report differs from the serial run"
        );
    }
}

#[test]
fn scenario_panic_becomes_a_failed_row_and_the_pool_keeps_draining() {
    // A non-transient fault in a recovery spec makes the injection
    // runner panic ("... is not a transient fault"); the executor must
    // convert that into a Failed row and still deliver every other row.
    let report = Campaign::builder()
        .threads(2)
        .scenario(Scenario::Recovery(RecoverySpec {
            fault: Bug::Hw1MemBurstWrap,
            seed: 1,
            recovery_on: true,
        }))
        .scenario(Scenario::Clean)
        .scenario(Scenario::Recovery(RecoverySpec {
            fault: Bug::TransientBusError,
            seed: 2,
            recovery_on: true,
        }))
        .build()
        .run();
    assert_eq!(report.rows.len(), 3);
    let failures = report.failures();
    assert_eq!(failures.len(), 1, "{}", report.digest());
    assert_eq!(failures[0].index, 0);
    match &failures[0].outcome {
        ScenarioOutcome::Failed { panic } => {
            assert!(
                panic.contains("is not a transient fault"),
                "unexpected panic payload: {panic}"
            );
        }
        other => panic!("expected a failed row, got {other:?}"),
    }
    assert!(matches!(report.rows[1].outcome, ScenarioOutcome::Matrix(_)));
    assert!(matches!(
        report.rows[2].outcome,
        ScenarioOutcome::Recovery(_)
    ));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    /// Aggregation order equals submission order for any per-scenario
    /// delay pattern and worker count.
    #[test]
    fn aggregation_order_is_submission_order_under_random_delays(
        delays in prop::collection::vec(0u64..3, 1..40),
        threads in 1usize..6,
    ) {
        let opts = PoolOptions {
            threads,
            ..Default::default()
        };
        let n = delays.len();
        let (out, stats) = execute(n, &opts, |i| {
            if delays[i] > 0 {
                std::thread::sleep(std::time::Duration::from_millis(delays[i]));
            }
            i
        });
        prop_assert_eq!(out, (0..n).collect::<Vec<_>>());
        prop_assert_eq!(stats.workers.iter().map(|w| w.executed).sum::<u64>(), n as u64);
    }
}

#[test]
fn panic_payload_is_surfaced_in_the_failed_row_and_report_json() {
    let report = Campaign::builder()
        .threads(1)
        .scenario(Scenario::Recovery(RecoverySpec {
            fault: Bug::Hw1MemBurstWrap,
            seed: 1,
            recovery_on: true,
        }))
        .build()
        .run();
    let failures = report.failures();
    assert_eq!(failures.len(), 1);
    let ScenarioOutcome::Failed { panic } = &failures[0].outcome else {
        panic!("expected a failed row, got {:?}", failures[0].outcome);
    };
    assert!(panic.contains("is not a transient fault"));
    let json = report.to_json();
    assert!(json.contains("\"kind\": \"failed\""), "{json}");
    assert!(json.contains("is not a transient fault"), "{json}");
}

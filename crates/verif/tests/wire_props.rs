//! Property tests for every wire parser: `campaign_submit/v1`,
//! `campaign_report/v1`, the row objects `campaign_row/v1` frames carry,
//! and `fuzz_repro/v1`.
//!
//! Two properties per schema: random typed values render, parse back
//! equal and re-render byte-identically; and byte mutations of a
//! rendered document (flip, insert, delete, truncate) make every
//! `from_json` return `Ok` or `Err`, never panic.

use autovision::Bug;
use proptest::prelude::*;
use rtlsim::ExecMode;
use verif::wire::{
    report_from_json, CampaignSubmission, WireOutcome, WireReport, WireRow, MAX_BUDGET_CYCLES,
    MAX_SCENARIOS, MAX_THREADS,
};
use verif::{FuzzRepro, FuzzSchedule, FuzzSpec, FuzzTopology, RecoverySpec, Scenario};

/// Characters that stress the escaper: quotes, backslashes, control
/// characters, DEL, multi-byte and non-BMP scalars, plus any scalar.
fn arb_char() -> impl Strategy<Value = char> {
    prop_oneof![
        prop::sample::select(vec![
            'a',
            'Z',
            '0',
            ' ',
            '"',
            '\\',
            '/',
            '\n',
            '\r',
            '\t',
            '\u{0}',
            '\u{8}',
            '\u{c}',
            '\u{1f}',
            '\u{7f}',
            'é',
            '—',
            '\u{fffd}',
            '\u{ffff}',
            '😀',
            '\u{10ffff}',
        ]),
        any::<u32>().prop_map(|u| char::from_u32(u % 0x11_0000).unwrap_or('\u{d7ff}')),
    ]
}

fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(arb_char(), 0..12).prop_map(|cs| cs.into_iter().collect())
}

fn arb_opt_u32() -> impl Strategy<Value = Option<u32>> {
    prop_oneof![Just(None), any::<u32>().prop_map(Some)]
}

fn arb_exec_mode() -> impl Strategy<Value = ExecMode> {
    prop::sample::select(vec![ExecMode::EventDriven, ExecMode::Compiled])
}

/// Every knob across the range the decoder accepts.
fn arb_schedule() -> impl Strategy<Value = FuzzSchedule> {
    (
        (
            0..=MAX_BUDGET_CYCLES as u32,
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<bool>(),
        ),
        (any::<bool>(), any::<bool>(), arb_opt_u32(), any::<u32>()),
        (arb_opt_u32(), any::<u32>(), arb_opt_u32()),
    )
        .prop_map(
            |(
                (warmup, isr_pad, divider, wait_states, wait_loops, round_robin),
                (split, recovery_on, flip_beat, flip_bit),
                (stall, bus_errors, ready_drop),
            )| FuzzSchedule {
                warmup_cycles: warmup,
                isr_pad_loops: isr_pad,
                cfg_divider: divider,
                mem_wait_states: wait_states,
                fixed_wait_loops: wait_loops,
                round_robin,
                topology: if split {
                    FuzzTopology::Split
                } else {
                    FuzzTopology::Single
                },
                recovery_on,
                flip: flip_beat.map(|beat| (beat, flip_bit)),
                stall,
                bus_errors,
                ready_drop,
            },
        )
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    let bugs: Vec<Bug> = Bug::ALL.into_iter().chain(Bug::TRANSIENTS).collect();
    prop_oneof![
        Just(Scenario::Clean),
        Just(Scenario::SplitClean),
        prop::sample::select(bugs).prop_map(Scenario::Bug),
        (
            prop::sample::select(Bug::TRANSIENTS.to_vec()),
            any::<u64>(),
            any::<bool>()
        )
            .prop_map(
                |(fault, seed, recovery_on)| Scenario::Recovery(RecoverySpec {
                    fault,
                    seed,
                    recovery_on
                })
            ),
        (any::<u32>(), arb_schedule())
            .prop_map(|(id, schedule)| Scenario::Fuzz(FuzzSpec { id, schedule })),
    ]
}

fn arb_submission() -> impl Strategy<Value = CampaignSubmission> {
    (
        prop::collection::vec(arb_scenario(), 0..6),
        (any::<bool>(), any::<u64>(), any::<bool>(), any::<u64>()),
        (0..=MAX_BUDGET_CYCLES, 0..=MAX_THREADS, arb_exec_mode()),
    )
        .prop_map(
            |(scenarios, (matrix, runs, recovery_on, seed), (budget, threads, mode))| {
                // Whatever the explicit list and the matrix leave of the
                // scenario cap, the recovery batch may fill.
                let room =
                    MAX_SCENARIOS - scenarios.len() - if matrix { 1 + Bug::ALL.len() } else { 0 };
                CampaignSubmission {
                    scenarios,
                    matrix,
                    recovery_runs: (runs % (room as u64 + 1)) as usize,
                    recovery_on,
                    seed,
                    budget_cycles: budget,
                    threads,
                    exec_mode: mode,
                }
            },
        )
}

fn arb_outcome() -> impl Strategy<Value = WireOutcome> {
    prop_oneof![
        (arb_string(), any::<bool>(), any::<bool>(), arb_string()).prop_map(
            |(bug, vmux_detected, resim_detected, evidence)| WireOutcome::Matrix {
                bug,
                vmux_detected,
                resim_detected,
                evidence,
            }
        ),
        (arb_string(), any::<bool>(), arb_string(), any::<u64>()).prop_map(
            |(fault, fired, class, retries)| WireOutcome::Recovery {
                fault,
                fired,
                class,
                retries,
            }
        ),
        (
            any::<bool>(),
            prop_oneof![Just(None), arb_string().prop_map(Some)],
            prop_oneof![Just(None), arb_string().prop_map(Some)],
            any::<u64>(),
            prop::collection::vec(arb_string(), 0..4),
        )
            .prop_map(|(detected, signature, kernel_error, keys, evidence)| {
                WireOutcome::Fuzz {
                    detected,
                    signature,
                    kernel_error,
                    coverage_keys: keys as usize,
                    evidence,
                }
            }),
        arb_string().prop_map(|panic| WireOutcome::Failed { panic }),
        Just(WireOutcome::Cancelled),
    ]
}

fn arb_row() -> impl Strategy<Value = WireRow> {
    (any::<u64>(), arb_string(), arb_outcome()).prop_map(|(index, scenario, outcome)| WireRow {
        index: index as usize,
        scenario,
        outcome,
    })
}

fn arb_report() -> impl Strategy<Value = WireReport> {
    (
        prop::collection::vec(arb_row(), 0..5),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(rows, scenarios, workers)| WireReport {
            rows,
            scenarios: scenarios as usize,
            workers: workers as usize,
        })
}

fn arb_repro() -> impl Strategy<Value = FuzzRepro> {
    (
        arb_schedule(),
        arb_string(),
        any::<u64>(),
        0..=MAX_BUDGET_CYCLES,
    )
        .prop_map(
            |(schedule, signature, mutations, budget_cycles)| FuzzRepro {
                schedule,
                signature,
                mutations: mutations as usize,
                budget_cycles,
            },
        )
}

/// One byte edit: flip a bit, insert a byte, delete a byte, or
/// truncate. Positions and values come from the raw draws.
fn mutate(doc: &mut Vec<u8>, (op, at, byte): (u8, u64, u8)) {
    let i = (at % (doc.len() as u64 + 1)) as usize;
    match op % 4 {
        0 if i < doc.len() => doc[i] ^= 1 << (byte % 8),
        1 => doc.insert(i, byte),
        2 if i < doc.len() => {
            doc.remove(i);
        }
        _ => doc.truncate(i),
    }
}

/// Feed `doc` to every wire parser; each must return, not panic.
fn parse_all(doc: &str) {
    let _ = CampaignSubmission::from_json(doc);
    let _ = report_from_json(doc);
    let _ = WireRow::from_json(doc);
    let _ = FuzzRepro::from_json(doc);
}

fn edits() -> impl Strategy<Value = Vec<(u8, u64, u8)>> {
    prop::collection::vec((any::<u8>(), any::<u64>(), any::<u8>()), 1..5)
}

/// Any mutated rendering of one of the four schemas.
fn arb_document() -> impl Strategy<Value = String> {
    prop_oneof![
        arb_submission().prop_map(|s| s.to_json()),
        arb_report().prop_map(|r| r.to_json()),
        arb_row().prop_map(|r| r.to_json()),
        arb_repro().prop_map(|r| r.to_json()),
    ]
}

proptest! {
    #[test]
    fn submissions_round_trip_byte_identically(sub in arb_submission()) {
        let doc = sub.to_json();
        let parsed = CampaignSubmission::from_json(&doc).map_err(TestCaseError::Fail)?;
        prop_assert_eq!(parsed.to_json(), doc);
        prop_assert_eq!(parsed, sub);
    }

    #[test]
    fn reports_round_trip_byte_identically(report in arb_report()) {
        let doc = report.to_json();
        let parsed = report_from_json(&doc).map_err(TestCaseError::Fail)?;
        prop_assert_eq!(parsed.to_json(), doc);
        prop_assert_eq!(parsed, report);
    }

    #[test]
    fn rows_round_trip_byte_identically(row in arb_row()) {
        let doc = row.to_json();
        let parsed = WireRow::from_json(&doc).map_err(TestCaseError::Fail)?;
        prop_assert_eq!(parsed.to_json(), doc);
        prop_assert_eq!(parsed, row);
    }

    #[test]
    fn repros_round_trip_byte_identically(repro in arb_repro()) {
        let doc = repro.to_json();
        let parsed = FuzzRepro::from_json(&doc).map_err(TestCaseError::Fail)?;
        prop_assert_eq!(parsed.to_json(), doc);
        prop_assert_eq!(parsed, repro);
    }
}

proptest! {
    // Cheap cases, and most mutations only reach the first error, so
    // run many.
    #![proptest_config(ProptestConfig { cases: 4096 })]

    #[test]
    fn mutated_documents_parse_or_fail_without_panicking(
        doc in arb_document(),
        edits in edits(),
    ) {
        let mut bytes = doc.into_bytes();
        for e in edits {
            mutate(&mut bytes, e);
        }
        parse_all(&String::from_utf8_lossy(&bytes));
    }
}

//! Determinism suite for the schedule fuzzer.
//!
//! The contract under test: a [`verif::FuzzReport`] — generated
//! schedules, corpus evolution, coverage map, deduplicated failure
//! signatures and shrunk reproducers — is a pure function of
//! `(base config, options)`: bit-identical for any worker count, and a
//! reproducer emitted by one session replays to the same failure
//! signature after a JSON round-trip.

use autovision::{Bug, FaultSet, SimMethod, SystemConfig};
use proptest::prelude::*;
use verif::fuzz::{self, FuzzOptions, FuzzReport};

fn clean_base() -> SystemConfig {
    SystemConfig::builder()
        .method(SimMethod::Resim)
        .width(32)
        .height(24)
        .n_frames(1)
        .payload_words(128)
        .build()
        .expect("valid base")
}

/// The detection matrix's base: 32×24, two frames, 256-word SimB.
fn matrix_base() -> SystemConfig {
    SystemConfig::builder()
        .method(SimMethod::Resim)
        .width(32)
        .height(24)
        .n_frames(2)
        .payload_words(256)
        .build()
        .expect("valid base")
}

fn seeded_base() -> SystemConfig {
    SystemConfig {
        faults: FaultSet::one(Bug::Dpr6aShortFixedWait),
        ..matrix_base()
    }
}

/// One fuzz session. `corrupt` arms the SimB word-stream corruption
/// ops and the recovery-policy knob, and runs a larger 3 × 6 session:
/// corruption needs more draws than a seeded race before a schedule
/// breaks the stream.
fn session(
    base: &SystemConfig,
    seed: u64,
    threads: usize,
    budget_cycles: u64,
    corrupt: bool,
) -> FuzzReport {
    let (rounds, batch) = if corrupt { (3, 6) } else { (2, 3) };
    fuzz::run_fuzz(
        base,
        &FuzzOptions {
            seed,
            rounds,
            batch,
            threads,
            budget_cycles,
            corrupt_stream: corrupt,
            mutate_recovery: corrupt,
            mutate_topology: true,
            // Small shrink budget keeps the debug-build suite fast; the
            // shrinker is deterministic at any budget.
            shrink_budget: 8,
            ..Default::default()
        },
    )
}

#[test]
fn clean_session_digest_is_identical_across_worker_counts() {
    let baseline = session(&clean_base(), 0xD5, 1, 120_000, false);
    assert_eq!(baseline.iterations, 6);
    assert!(
        baseline.failures.is_empty(),
        "legal schedules broke the golden design:\n{}",
        baseline.digest()
    );
    for threads in [2, 4, 8] {
        let got = session(&clean_base(), 0xD5, threads, 120_000, false);
        assert_eq!(
            baseline.digest(),
            got.digest(),
            "{threads}-worker fuzz session diverged from the serial run"
        );
    }
}

#[test]
fn failing_session_shrinks_identically_across_worker_counts() {
    // bug.dpr.6a races the fixed-loop wait against the transfer, which
    // the oracles catch on every schedule — so this session exercises
    // the failure path: signature dedup plus the shrinker, whose
    // reproducer must also be worker-count-invariant.
    let baseline = session(&seeded_base(), 0xD6, 1, 30_000, false);
    assert_eq!(
        baseline.failures.len(),
        1,
        "expected exactly one deduplicated signature:\n{}",
        baseline.digest()
    );
    let f = &baseline.failures[0];
    assert_eq!(f.signature, "checker:plb_monitor+hang");
    assert_eq!(
        f.repro.mutations, 0,
        "the baseline schedule already fails, so the shrunk reproducer \
         must carry zero mutations: {:?}",
        f.repro.schedule
    );
    assert!(
        f.repro.mutations <= f.first.mutation_count(&baseline.corpus[0]),
        "the shrinker increased the mutation distance"
    );
    for threads in [4, 8] {
        let got = session(&seeded_base(), 0xD6, threads, 30_000, false);
        assert_eq!(baseline.digest(), got.digest());
    }
}

#[test]
fn emitted_reproducer_replays_to_the_same_signature() {
    let report = session(&seeded_base(), 0xD7, 2, 30_000, false);
    let f = &report.failures[0];
    let doc = f.repro.to_json();
    let parsed = fuzz::FuzzRepro::from_json(&doc).expect("reproducer round-trips");
    assert_eq!(parsed, f.repro);
    let row = fuzz::replay(&seeded_base(), &parsed);
    assert_eq!(row.signature.as_deref(), Some(f.signature.as_str()));
}

#[test]
fn corrupted_stream_is_detected_shrunk_and_replayed() {
    // Word-stream corruption with recovery off must trip an oracle, and
    // the shrinker must cut the witness down to the one knob that
    // breaks the stream; the reproducer replays after a JSON round-trip.
    let report = session(&matrix_base(), 0x5EED_F022, 2, 400_000, true);
    assert_eq!(
        report.failures.len(),
        1,
        "expected exactly one deduplicated signature:\n{}",
        report.digest()
    );
    let f = &report.failures[0];
    assert_eq!(f.signature, "checker:icapctrl+hang");
    assert_eq!(f.repro.mutations, 1, "{:?}", f.repro.schedule);
    assert_eq!(f.repro.schedule.bus_errors, 1, "a spurious bus error");
    assert!(
        f.repro.mutations <= f.first.mutation_count(&report.corpus[0]),
        "the shrinker increased the mutation distance"
    );
    let parsed = fuzz::FuzzRepro::from_json(&f.repro.to_json()).expect("reproducer round-trips");
    assert_eq!(parsed, f.repro);
    let row = fuzz::replay(&matrix_base(), &parsed);
    assert_eq!(row.signature.as_deref(), Some(f.signature.as_str()));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4 })]

    /// For any master seed, corpus evolution and coverage are
    /// bit-identical between a serial and a maximally-parallel session
    /// — mutation randomness never interleaves with execution.
    #[test]
    fn any_seed_is_worker_count_invariant(seed in 0u64..1u64 << 48) {
        let serial = session(&clean_base(), seed, 1, 120_000, false);
        let parallel = session(&clean_base(), seed, 8, 120_000, false);
        prop_assert_eq!(serial.digest(), parallel.digest());
    }
}

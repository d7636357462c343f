//! Targeted resilient-reconfiguration scenarios: each test arms one
//! hand-picked fault against a full system build and checks the exact
//! recovery mechanism that must handle it, plus the regression that the
//! recovery machinery is inert when disabled.

use autovision::{AvSystem, MemLayout, RecoveryPolicy, SimMethod, SystemConfig, WATCHDOG_CYCLES};

const BUDGET: u64 = 400_000;

fn recovery_cfg() -> SystemConfig {
    SystemConfig {
        method: SimMethod::Resim,
        width: 32,
        height: 24,
        n_frames: 2,
        payload_words: 256,
        recovery: RecoveryPolicy { enabled: true },
        ..Default::default()
    }
}

fn simb_window(sys: &AvSystem) -> (u32, u32) {
    (
        sys.layout.simb_me.0,
        sys.layout.simb_cie.0 + 4 * sys.layout.simb_cie.1,
    )
}

fn frames_match_golden(sys: &AvSystem) -> bool {
    let golden = sys.golden_output();
    sys.captured
        .borrow()
        .iter()
        .zip(&golden)
        .all(|(got, want)| got.differing_pixels(want) == 0)
}

#[test]
fn crc_mismatch_is_detected_and_retried() {
    let cfg = recovery_cfg();
    let n = cfg.n_frames;
    let mut sys = AvSystem::build(cfg);
    {
        let mut mem = sys.mem_faults.borrow_mut();
        mem.window = Some(simb_window(&sys));
        // Beat 30 of the first burst lands mid-payload: framing stays
        // intact, so only the CRC check can catch the upset.
        mem.flip_next_read = Some((30, 7));
    }
    let outcome = sys.run(BUDGET);
    assert!(!outcome.hung && outcome.kernel_error.is_none());
    assert_eq!(outcome.frames_captured, n);
    assert_eq!(sys.mem_faults.borrow().flips_fired, 1);
    let r = sys.recovery.borrow();
    assert!(r.integrity_errors > 0, "CRC mismatch not detected: {r:?}");
    assert!(r.recovered > 0, "corrupted transfer not recovered: {r:?}");
    assert_eq!(r.exhausted, 0);
    drop(r);
    assert!(
        frames_match_golden(&sys),
        "recovered run must match golden output"
    );
}

#[test]
fn exhausted_retries_engage_degraded_fallback() {
    let cfg = recovery_cfg();
    let n = cfg.n_frames;
    let mut sys = AvSystem::build(cfg);
    {
        // A *persistent* fault: every SimB read bus-errors, so every
        // retry fails too and the budget runs out.
        let mut mem = sys.mem_faults.borrow_mut();
        mem.window = Some(simb_window(&sys));
        mem.error_next_reads = u32::MAX;
    }
    let outcome = sys.run(BUDGET);
    let r = sys.recovery.borrow();
    assert!(r.exhausted > 0, "retry budget never exhausted: {r:?}");
    assert!(r.retries >= u64::from(autovision::icapctrl::MAX_RETRIES));
    // The whole point of graceful degradation: the frame pipeline keeps
    // delivering (stale vectors) instead of hanging.
    assert!(!outcome.hung, "pipeline hung instead of degrading");
    assert_eq!(
        outcome.frames_captured, n,
        "degraded pipeline dropped frames"
    );
}

#[test]
fn watchdog_fires_on_stalled_dma() {
    let cfg = recovery_cfg();
    let wd = WATCHDOG_CYCLES;
    let n = cfg.n_frames;
    let mut sys = AvSystem::build(cfg);
    {
        let mut mem = sys.mem_faults.borrow_mut();
        mem.window = Some(simb_window(&sys));
        mem.stall_next_read = Some(2 * wd);
    }
    let outcome = sys.run(BUDGET);
    assert!(!outcome.hung && outcome.kernel_error.is_none());
    assert_eq!(outcome.frames_captured, n);
    assert_eq!(sys.mem_faults.borrow().stalls_fired, 1);
    let r = sys.recovery.borrow();
    assert!(
        r.watchdog_fires > 0,
        "stalled DMA never tripped the watchdog: {r:?}"
    );
    assert!(r.recovered > 0);
    drop(r);
    assert!(frames_match_golden(&sys));
}

#[test]
fn recovery_disabled_is_inert_and_preserves_seed_behaviour() {
    // The default configuration must be bit-for-bit the paper setup:
    // plain SimB framing (payload + 10 words, no integrity packet), no
    // degraded-mode software, and all recovery counters dead zero.
    let cfg = SystemConfig {
        width: 32,
        height: 24,
        n_frames: 2,
        payload_words: 256,
        ..Default::default()
    };
    assert!(!cfg.recovery.enabled, "recovery must be off by default");
    let layout = MemLayout::for_config(&cfg);
    assert_eq!(layout.simb_me.1, cfg.payload_words as u32 + 10);
    assert_eq!(layout.simb_cie.1, cfg.payload_words as u32 + 10);

    let n = cfg.n_frames;
    let mut sys = AvSystem::build(cfg);
    let outcome = sys.run(BUDGET);
    assert!(!outcome.hung && outcome.kernel_error.is_none());
    assert_eq!(outcome.frames_captured, n);
    assert!(frames_match_golden(&sys));
    let r = sys.recovery.borrow();
    assert_eq!((r.retries, r.recovered, r.exhausted), (0, 0, 0), "{r:?}");
    assert_eq!(r.bus_errors + r.watchdog_fires + r.integrity_errors, 0);
    // No integrity machinery in the ICAP stream either.
    let icap = sys.backend_stats().icap.expect("ReSim build");
    assert_eq!(icap.crc_ok + icap.crc_mismatches, 0);
}

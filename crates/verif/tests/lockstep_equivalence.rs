//! Lockstep equivalence suite: compiled vs event-driven dispatch.
//!
//! The compiled plane's contract is *bit-identical observable
//! behaviour* — not just matching end states. This suite enforces the
//! strong form metasim-style: two copies of the same system, one per
//! execution mode, advance one clock period at a time, and after every
//! edge the full architectural signal state (order-sensitive FNV digest
//! over every signal's value/X planes) and the named probe signals must
//! agree. A divergence is reported at the first cycle it appears, with
//! the first differing signal named. Both systems also trace every
//! value change to a VCD, and the two files must be byte-identical at
//! the end: that pins the order of records within a delta, which the
//! per-edge state comparison cannot see.
//!
//! Coverage:
//! * the Table II demonstrator shape (single time-shared region, ReSim
//!   method) at matrix scale,
//! * the split two-region pipeline,
//! * a proptest sweep over the fuzzer's *legal schedule envelope*
//!   (`cfg_divider` ≤ 4, `isr_pad_loops` ≥ 4, wait states, grant
//!   ordering — the ranges the golden design is calibrated for).
//!
//! Every test is a pure function of its config, so the suite is green
//! at any `--test-threads` (1/4/8 — tests share no state).

use autovision::{AvSystem, SimMethod, SystemConfig, CLK_PERIOD_PS};
use proptest::prelude::*;
use rtlsim::{ExecMode, SignalId};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use verif::fuzz::FuzzSchedule;

/// Cycles both systems may drain after completion (matches the run
/// loop's let-DMA-finish chunk).
const DRAIN_CYCLES: u64 = 512;

fn probe_list(sys: &AvSystem) -> Vec<SignalId> {
    let p = &sys.probes;
    let mut v = vec![p.cie_busy, p.me_busy, p.isolate];
    v.extend(p.reconfiguring);
    v.extend(p.inject);
    for r in &p.regions {
        v.extend([r.isolate, r.busy, r.done]);
    }
    v
}

/// Name the first signal whose value differs — the digest says *that*
/// state diverged, this says *where*.
fn first_divergence(ev: &AvSystem, co: &AvSystem) -> String {
    for s in ev.sim.signals_with_prefix("") {
        let (a, b) = (ev.sim.peek(s), co.sim.peek(s));
        if a != b {
            return format!("{}: event={a:?} compiled={b:?}", ev.sim.signal_name(s));
        }
    }
    "digest differs but no named signal does (width/arena mismatch)".to_string()
}

/// A VCD path no other system of this test process writes to: the
/// tests run in parallel threads of one process.
fn vcd_path(mode: ExecMode) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("lockstep_{}_{n}_{mode}.vcd", std::process::id()))
}

/// Build `cfg` in `mode`, tracing every value change to a fresh VCD.
fn traced(cfg: &SystemConfig, mode: ExecMode) -> (AvSystem, PathBuf) {
    let mut sys = AvSystem::build(SystemConfig {
        exec_mode: mode,
        ..cfg.clone()
    });
    let path = vcd_path(mode);
    sys.sim.trace_vcd(&path).expect("create VCD");
    (sys, path)
}

/// Flush and read one system's VCD, deleting the file.
fn take_vcd(sys: &mut AvSystem, path: &Path) -> Vec<u8> {
    sys.sim.flush_vcd().expect("flush VCD");
    let bytes = std::fs::read(path).expect("read VCD");
    std::fs::remove_file(path).expect("remove VCD");
    bytes
}

/// The first line where two VCDs differ, with its line number.
fn first_vcd_divergence(ev: &[u8], co: &[u8]) -> String {
    let (ev, co) = (String::from_utf8_lossy(ev), String::from_utf8_lossy(co));
    let mut time = "#0";
    for (i, (a, b)) in ev.lines().zip(co.lines()).enumerate() {
        if a != b {
            return format!("line {} (at {time}): event={a:?} compiled={b:?}", i + 1);
        }
        if a.starts_with('#') {
            time = a;
        }
    }
    format!(
        "one VCD is a prefix of the other ({} vs {} lines)",
        ev.lines().count(),
        co.lines().count()
    )
}

/// Build one system per mode from `cfg` and advance them in lockstep,
/// comparing registered state and probe values at every clock edge and
/// the two VCDs at the end. Returns the frames both runs captured.
fn lockstep(cfg: &SystemConfig, max_cycles: u64) -> usize {
    let (mut ev, ev_vcd) = traced(cfg, ExecMode::EventDriven);
    let (mut co, co_vcd) = traced(cfg, ExecMode::Compiled);
    let probes = probe_list(&ev);
    assert_eq!(
        probes,
        probe_list(&co),
        "probe signal ids differ between identically-built systems"
    );

    let mut cycles = 0u64;
    let mut drain = None::<u64>;
    loop {
        ev.sim
            .run_for(CLK_PERIOD_PS)
            .expect("event-driven kernel error");
        co.sim
            .run_for(CLK_PERIOD_PS)
            .expect("compiled kernel error");
        cycles += 1;
        for &p in &probes {
            let (a, b) = (ev.sim.peek(p), co.sim.peek(p));
            assert_eq!(
                a,
                b,
                "cycle {cycles}: probe {} diverged (event={a:?} compiled={b:?})",
                ev.sim.signal_name(p)
            );
        }
        if ev.sim.state_digest() != co.sim.state_digest() {
            panic!(
                "cycle {cycles}: architectural state diverged — {}",
                first_divergence(&ev, &co)
            );
        }
        let finished =
            |s: &AvSystem| s.cpu.borrow().halted || s.captured.borrow().len() >= s.config.n_frames;
        match drain {
            None if finished(&ev) && finished(&co) => drain = Some(DRAIN_CYCLES),
            Some(0) => break,
            Some(ref mut left) => *left -= 1,
            None => assert!(
                cycles < max_cycles,
                "lockstep hit the {max_cycles}-cycle budget before completion"
            ),
        }
    }

    let (ev_bytes, co_bytes) = (take_vcd(&mut ev, &ev_vcd), take_vcd(&mut co, &co_vcd));
    assert!(
        ev_bytes == co_bytes,
        "VCD bytes differ between exec modes: {}",
        first_vcd_divergence(&ev_bytes, &co_bytes)
    );
    let (fe, fc) = (ev.captured.borrow(), co.captured.borrow());
    assert_eq!(fe.len(), fc.len(), "captured frame counts differ");
    for (i, (a, b)) in fe.iter().zip(fc.iter()).enumerate() {
        assert_eq!(a, b, "captured frame {i} differs between modes");
    }
    // The work-avoidance counters are the *allowed* per-mode difference;
    // everything compared above was not. Sanity: the compiled run
    // actually filtered something.
    let cs = co.sim.compiled_stats().expect("compiled mode has stats");
    assert!(
        cs.skipped_parked > 0,
        "compiled run never skipped a dispatch — filtering was inert"
    );
    fe.len()
}

fn table2_shape() -> SystemConfig {
    SystemConfig::builder()
        .method(SimMethod::Resim)
        .width(32)
        .height(24)
        .n_frames(2)
        .payload_words(256)
        .build()
        .expect("valid config")
}

#[test]
fn table2_shape_runs_in_lockstep() {
    let frames = lockstep(&table2_shape(), 400_000);
    assert_eq!(frames, 2);
}

#[test]
fn split_pipeline_runs_in_lockstep() {
    let cfg = SystemConfig {
        regions: SystemConfig::split_regions(),
        ..table2_shape()
    };
    let frames = lockstep(&cfg, 400_000);
    assert_eq!(frames, 2);
}

#[test]
fn vmux_method_runs_in_lockstep() {
    let cfg = SystemConfig {
        method: SimMethod::Vmux,
        ..table2_shape()
    };
    let frames = lockstep(&cfg, 400_000);
    assert_eq!(frames, 2);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4 })]

    /// Any schedule from the fuzzer's legal envelope runs in lockstep:
    /// the timing knobs move every reconfiguration window against the
    /// frame phase, and the compiled run must track the event-driven
    /// one through all of them, edge by edge.
    #[test]
    fn legal_envelope_schedules_run_in_lockstep(
        isr_pad_loops in 4u32..=64,
        cfg_divider in 1u32..=4,
        mem_wait_states in 0u32..=4,
        round_robin in any::<bool>(),
    ) {
        let base = SystemConfig::builder()
            .method(SimMethod::Resim)
            .width(32)
            .height(24)
            .n_frames(1)
            .payload_words(128)
            .build()
            .expect("valid config");
        let sch = FuzzSchedule {
            isr_pad_loops,
            cfg_divider,
            mem_wait_states,
            round_robin,
            ..FuzzSchedule::baseline(&base)
        };
        let frames = lockstep(&sch.apply(&base), 400_000);
        prop_assert_eq!(frames, 1);
    }
}

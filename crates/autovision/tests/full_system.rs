//! Full-system runs of the Optical Flow Demonstrator under both
//! simulation methods: the golden design must process frames end-to-end
//! with bit-exact displayed output and no checker errors.

use autovision::{AvSystem, SimMethod, SystemConfig, CLK_PERIOD_PS};
use rtlsim::ExecMode;

fn config(method: SimMethod) -> SystemConfig {
    SystemConfig {
        method,
        width: 32,
        height: 24,
        n_frames: 2,
        payload_words: 64,
        ..Default::default()
    }
}

fn run_clean(method: SimMethod) {
    let mut sys = AvSystem::build(config(method));
    let outcome = sys.run(2_000_000);
    assert!(
        !outcome.hung,
        "{method:?}: hung after {} cycles with {} frames; messages: {:#?}",
        outcome.cycles,
        outcome.frames_captured,
        sys.sim.messages()
    );
    assert_eq!(outcome.frames_captured, 2, "{method:?}");
    assert!(
        !sys.sim.has_errors(),
        "{method:?}: checker errors: {:#?}",
        sys.sim.messages()
    );
    let golden = sys.golden_output();
    let captured = sys.captured.borrow();
    for (t, (got, want)) in captured.iter().zip(&golden).enumerate() {
        assert_eq!(
            got.differing_pixels(want),
            0,
            "{method:?}: frame {t} mismatches golden ({} px, mad {:.3})",
            got.differing_pixels(want),
            got.mean_abs_diff(want)
        );
    }
    assert_eq!(sys.captured_poison.borrow().iter().sum::<usize>(), 0);
}

#[test]
fn resim_clean_system_processes_frames_bit_exactly() {
    run_clean(SimMethod::Resim);
}

#[test]
fn vmux_clean_system_processes_frames_bit_exactly() {
    run_clean(SimMethod::Vmux);
}

#[test]
fn resim_performs_two_reconfigurations_per_frame() {
    let mut sys = AvSystem::build(config(SimMethod::Resim));
    let outcome = sys.run(2_000_000);
    assert!(!outcome.hung);
    let stats = sys.backend_stats();
    let icap = stats.icap.as_ref().unwrap();
    // Two swaps per frame (CIE->ME and ME->CIE).
    assert_eq!(icap.swaps, 2 * 2, "swaps");
    assert_eq!(icap.desyncs, 2 * 2, "completed bitstreams");
    assert_eq!(stats.regions[0].swaps, 2 * 2);
    assert_eq!(icap.words_dropped, 0);
    // Every SimB word made it through the controller.
    let expected_words = 2 * 2 * sys.layout.simb_me.1 as u64;
    assert_eq!(icap.words_accepted, expected_words);
}

#[test]
fn vmux_never_exercises_the_reconfiguration_machinery() {
    let mut sys = AvSystem::build(config(SimMethod::Vmux));
    let outcome = sys.run(2_000_000);
    assert!(!outcome.hung);
    assert!(
        sys.backend_stats().icap.is_none(),
        "no ICAP artifact in the VMUX testbench"
    );
    // The IcapCTRL module is instantiated but idle: its DCR status never
    // left the reset state.
    // (Software never programs it under VMUX — the paper's point.)
    assert_eq!(
        sys.sim
            .toggle_count_set(&sys.sim.signals_with_prefix("icapctrl.plb.req")),
        0
    );
}

#[test]
fn cpu_executes_isrs_and_main_loop_work() {
    let mut sys = AvSystem::build(config(SimMethod::Resim));
    let outcome = sys.run(2_000_000);
    assert!(!outcome.hung);
    let cpu = sys.cpu.borrow();
    assert!(
        cpu.interrupts >= 2 * 5 - 1,
        "ISR per pipeline step: {}",
        cpu.interrupts
    );
    assert!(cpu.isr_cycles > 0);
    assert!(cpu.instret > 1_000);
    assert!(cpu.error.is_none(), "{:?}", cpu.error);
}

#[test]
fn reconfiguration_time_is_bitstream_transfer_time() {
    // Same system, longer SimB => later completion (the delay VMUX
    // models as zero). Measured end-to-end on the full design.
    let cycles_for = |payload: usize| -> u64 {
        let mut cfg = config(SimMethod::Resim);
        cfg.payload_words = payload;
        let mut sys = AvSystem::build(cfg);
        let out = sys.run(4_000_000);
        assert!(!out.hung, "payload {payload} hung");
        out.cycles
    };
    let short = cycles_for(32);
    let long = cycles_for(2048);
    // 4 transfers of (2048-32) extra words at >= cfg_divider cycles/word.
    assert!(
        long > short + 4 * 2_000,
        "longer bitstreams must visibly delay the pipeline: {short} vs {long}"
    );
}

#[test]
fn kernel_counters_are_exact_in_both_exec_modes() {
    // The 32×24, one-frame, 128-word ReSim system run to software halt.
    // Cycles, events, toggles and frames are mode-independent by the
    // compiled plane's identity contract; evals and deltas are what each
    // mode's dispatch filter lets through. Any drift means the kernel's
    // scheduling semantics changed.
    for (mode, evals, deltas, steady_evals) in [
        (ExecMode::EventDriven, 111_683, 11_096, 2_000_000),
        (ExecMode::Compiled, 28_315, 10_443, 0),
    ] {
        let mut sys = AvSystem::build(SystemConfig {
            n_frames: 1,
            payload_words: 128,
            exec_mode: mode,
            ..config(SimMethod::Resim)
        });
        let outcome = sys.run(10_000_000);
        assert!(outcome.halted, "{mode}: software did not halt");
        assert!(outcome.kernel_error.is_none(), "{mode}");
        let stats = sys.sim.stats();
        let shared = (
            outcome.cycles,
            stats.events,
            stats.toggles,
            outcome.frames_captured,
        );
        assert_eq!(shared, (4_608, 10_242, 30_841, 1), "{mode}");
        assert_eq!((stats.evals, stats.deltas), (evals, deltas), "{mode}");
        // After halt only the clock has work: event-driven dispatch
        // still evaluates every clocked component on each rising edge,
        // compiled dispatch parks them all.
        sys.sim
            .run_for(100_000 * CLK_PERIOD_PS)
            .expect("quiescent window");
        let steady = sys.sim.stats().evals - stats.evals;
        assert_eq!(steady, steady_evals, "{mode}: quiescent-window evals");
    }
}

/// FNV-1a over a byte stream, the pin format for whole files.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

#[test]
fn reconfiguration_vcd_is_pinned_in_both_exec_modes() {
    // The `waveforms` example's system: every value change of every
    // signal, in kernel apply order, through one reconfiguration frame.
    // The bytes are the same in both modes, and the pinned digest holds
    // them across kernel changes (the example writes md5
    // 4a4a49fee549186857838e20380c4f4e).
    let dir = std::env::temp_dir().join(format!("autovision_vcd_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let vcds: Vec<Vec<u8>> = [ExecMode::EventDriven, ExecMode::Compiled]
        .into_iter()
        .map(|mode| {
            let cfg = SystemConfig::builder()
                .method(SimMethod::Resim)
                .width(16)
                .height(8)
                .n_frames(1)
                .payload_words(64)
                .exec_mode(mode)
                .build()
                .expect("waveform config is valid");
            let path = dir.join(format!("reconfiguration_{mode}.vcd"));
            let mut sys = AvSystem::build(cfg);
            sys.sim.trace_vcd(&path).unwrap();
            let outcome = sys.run(1_000_000);
            sys.sim.flush_vcd().unwrap();
            assert!(!outcome.hung, "{mode}");
            std::fs::read(&path).unwrap()
        })
        .collect();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(vcds[0] == vcds[1], "VCD bytes differ between exec modes");
    assert_eq!(
        (vcds[0].len(), fnv1a(&vcds[0])),
        (149_008, 0xe9cd_cc56_e524_05fc),
        "reconfiguration VCD drifted"
    );
}

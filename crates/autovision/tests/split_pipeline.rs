//! End-to-end runs of the two-region split-pipeline demonstrator: CIE
//! and ME in separate reconfigurable regions, reconfigured on
//! alternating half-frames. The displayed output must stay bit-exact
//! against the same golden model as the single-region system, and under
//! ReSim each region must see exactly one partial reconfiguration per
//! frame behind its own isolation window.

use autovision::{AvSystem, SimMethod, SystemConfig};

const N_FRAMES: usize = 2;

fn config(method: SimMethod) -> SystemConfig {
    SystemConfig {
        method,
        width: 32,
        height: 24,
        n_frames: N_FRAMES,
        payload_words: 64,
        regions: SystemConfig::split_regions(),
        ..Default::default()
    }
}

fn run_clean(method: SimMethod) -> AvSystem {
    let mut sys = AvSystem::build(config(method));
    let outcome = sys.run(4_000_000);
    assert!(
        !outcome.hung,
        "{method:?}: hung after {} cycles with {} frames; messages: {:#?}",
        outcome.cycles,
        outcome.frames_captured,
        sys.sim.messages()
    );
    assert_eq!(outcome.frames_captured, N_FRAMES, "{method:?}");
    assert!(
        !sys.sim.has_errors(),
        "{method:?}: checker errors: {:#?}",
        sys.sim.messages()
    );
    let golden = sys.golden_output();
    {
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
    sys
}

#[test]
fn resim_split_pipeline_processes_frames_bit_exactly() {
    run_clean(SimMethod::Resim);
}

#[test]
fn vmux_split_pipeline_processes_frames_bit_exactly() {
    let sys = run_clean(SimMethod::Vmux);
    // Both engines are permanently resident: no ICAP artifact, zeroed
    // region counters, and the IcapCTRL bus master never wakes up.
    let stats = sys.backend_stats();
    assert!(stats.icap.is_none());
    assert_eq!(stats.total_swaps(), 0);
    assert_eq!(
        sys.sim
            .toggle_count_set(&sys.sim.signals_with_prefix("icapctrl.plb.req")),
        0
    );
}

#[test]
fn resim_split_reconfigures_each_region_once_per_frame() {
    let sys = run_clean(SimMethod::Resim);
    let n = N_FRAMES as u64;

    // One shared ICAP streams both regions' images: two swaps per frame
    // system-wide, but each region's portal sees exactly one.
    let stats = sys.backend_stats();
    let icap = stats.icap.as_ref().expect("ReSim build has an ICAP");
    assert_eq!(icap.swaps, 2 * n, "system-wide swaps");
    assert_eq!(icap.desyncs, 2 * n, "completed bitstreams");
    assert_eq!(icap.words_dropped, 0);
    assert_eq!(stats.regions.len(), 2, "one portal per region");
    assert_eq!(stats.regions[0].swaps, n, "region A (CIE) swaps");
    assert_eq!(stats.regions[1].swaps, n, "region B (ME) swaps");
    let expected_words = n * (sys.layout.simb_me.1 + sys.layout.simb_cie.1) as u64;
    assert_eq!(icap.words_accepted, expected_words);

    // Isolation windows: each frame isolates B during its ME reload
    // (first half) and A during its CIE reload (second half) — one
    // rising and one falling edge per region per frame, nothing more.
    assert_eq!(sys.probes.regions.len(), 2);
    assert_eq!(
        sys.sim
            .toggle_count_set(&sys.sim.signals_with_prefix("isolate")),
        2 * n,
        "region A isolation window per frame"
    );
    assert_eq!(
        sys.sim
            .toggle_count_set(&sys.sim.signals_with_prefix("rrb.isolate")),
        2 * n,
        "region B isolation window per frame"
    );
}

#[test]
fn split_reconfiguration_hides_behind_compute() {
    // The point of the split pipeline: reconfiguration overlaps the
    // other region's compute half instead of serialising with it.
    // Stretching the bitstream by the same amount must cost the split
    // system far less wall-clock than the time-shared system, where
    // every extra word sits on the frame's critical path.
    let cycles_for = |split: bool, payload: usize| -> u64 {
        let mut cfg = SystemConfig {
            method: SimMethod::Resim,
            width: 64,
            height: 48,
            n_frames: N_FRAMES,
            payload_words: payload,
            ..Default::default()
        };
        if split {
            cfg.regions = SystemConfig::split_regions();
        }
        let mut sys = AvSystem::build(cfg);
        let out = sys.run(16_000_000);
        assert!(!out.hung, "split={split} payload={payload} hung");
        assert_eq!(out.frames_captured, N_FRAMES);
        out.cycles
    };
    let single_extra = cycles_for(false, 1024).saturating_sub(cycles_for(false, 32));
    let split_extra = cycles_for(true, 1024).saturating_sub(cycles_for(true, 32));
    assert!(
        2 * split_extra < single_extra,
        "overlapped reconfiguration must hide most of the bitstream \
         stretch the time-shared system pays in full: \
         split +{split_extra} vs single-region +{single_extra} cycles"
    );
}

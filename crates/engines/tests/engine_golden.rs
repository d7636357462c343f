//! The RTL engines against their golden models: bit-exact outputs,
//! reset/parameter-latch discipline, and selection gating.

use engines::{CensusEngine, EngineIf, EngineParamSignals, MatchingEngine};
use plb::{AddressWindow, ArbMode, MemorySlave, PlbBus, SharedMem};
use rtlsim::{SignalId, Simulator};
use video::{census_transform, match_frames, Frame, MatchParams, MotionVector, Scene};

const PERIOD: u64 = 10_000;
const SRC: u32 = 0x1_0000;
const DST: u32 = 0x3_0000;
const PREV: u32 = 0x5_0000;
const VEC: u32 = 0x7_0000;

struct Tb {
    sim: Simulator,
    mem: SharedMem,
    io: EngineIf,
    params: EngineParamSignals,
}

fn tb(kind: &str, w: usize, h: usize) -> Tb {
    let mut sim = Simulator::new();
    let clk = sim.signal("clk", 1);
    let rst = sim.signal("rst", 1);
    sim.add_clock(clk, PERIOD);
    sim.add_reset(rst, 2 * PERIOD);
    let mem = SharedMem::new(1 << 20);
    let (sport, _) = MemorySlave::instantiate(&mut sim, "mem", clk, rst, mem.clone(), 0, false);
    let go = sim.signal_init("go", 1, 0);
    let ereset = sim.signal_init("ereset", 1, 0);
    let params = EngineParamSignals::alloc(&mut sim, "p");
    let io = EngineIf::alloc(&mut sim, kind, clk, rst, go, ereset, &params);
    match kind {
        "cie" => CensusEngine::instantiate(&mut sim, "cie", io),
        _ => MatchingEngine::instantiate(&mut sim, "me", io, MatchParams::default()),
    }
    PlbBus::new(
        &mut sim,
        "plb",
        clk,
        rst,
        ArbMode::FixedPriority,
        vec![io.plb],
        vec![(
            sport,
            AddressWindow {
                base: 0,
                len: 1 << 20,
            },
        )],
    );
    let mut t = Tb {
        sim,
        mem,
        io,
        params,
    };
    t.sim.run_for(4 * PERIOD).unwrap(); // release reset
    t.sim.poke_u64(t.io.sel, 1);
    t.sim.poke_u64(t.params.width, w as u64);
    t.sim.poke_u64(t.params.height, h as u64);
    t
}

fn pulse(tb: &mut Tb, sig: SignalId) {
    tb.sim.poke_u64(sig, 1);
    tb.sim.run_for(PERIOD).unwrap();
    tb.sim.poke_u64(sig, 0);
    tb.sim.run_for(PERIOD).unwrap();
}

fn run_engine(tb: &mut Tb, max_cycles: u64) -> u64 {
    // Wait for the done pulse, returning elapsed cycles.
    let start = tb.sim.now();
    for _ in 0..max_cycles {
        tb.sim.run_for(PERIOD).unwrap();
        if tb.sim.peek_u64(tb.io.done) == Some(1) {
            return (tb.sim.now() - start) / PERIOD;
        }
    }
    panic!("engine did not finish within {max_cycles} cycles");
}

#[test]
fn cie_matches_golden_model_bit_exactly() {
    let (w, h) = (64, 48);
    let frame = Scene::new(w, h, 2, 11).frame(0);
    let mut t = tb("cie", w, h);
    t.mem.load_words(SRC, &frame.to_words());
    t.sim.poke_u64(t.params.src_addr, SRC as u64);
    t.sim.poke_u64(t.params.dst_addr, DST as u64);
    {
        let s = t.io.ereset;
        pulse(&mut t, s);
    }
    {
        let s = t.io.go;
        pulse(&mut t, s);
    }
    run_engine(&mut t, 100_000);
    let words: Vec<u32> = t
        .mem
        .read_words(DST, w * h / 4)
        .into_iter()
        .map(|x| x.expect("output must not be poisoned"))
        .collect();
    let rtl = Frame::from_words(w, h, &words);
    let golden = census_transform(&frame);
    assert_eq!(
        rtl.differing_pixels(&golden),
        0,
        "CIE output must be bit-exact (mad {})",
        rtl.mean_abs_diff(&golden)
    );
    assert!(!t.sim.has_errors(), "{:?}", t.sim.messages());
}

#[test]
fn me_matches_golden_model() {
    let (w, h) = (64, 48);
    let scene = Scene::new(w, h, 2, 21);
    let c0 = census_transform(&scene.frame(0));
    let c1 = census_transform(&scene.frame(1));
    let mut t = tb("me", w, h);
    t.mem.load_words(PREV, &c0.to_words());
    t.mem.load_words(SRC, &c1.to_words());
    t.sim.poke_u64(t.params.src_addr, SRC as u64);
    t.sim.poke_u64(t.params.aux_addr, PREV as u64);
    t.sim.poke_u64(t.params.vec_addr, VEC as u64);
    {
        let s = t.io.ereset;
        pulse(&mut t, s);
    }
    {
        let s = t.io.go;
        pulse(&mut t, s);
    }
    run_engine(&mut t, 400_000);
    let n = t.mem.read_u32(VEC).unwrap() as usize;
    let golden = match_frames(&c0, &c1, &MatchParams::default());
    assert_eq!(n, golden.len(), "vector count");
    for (i, g) in golden.iter().enumerate() {
        let v = MotionVector::unpack(t.mem.read_u32(VEC + 4 + 4 * i as u32).unwrap());
        assert_eq!((v.x, v.y, v.dx, v.dy), (g.x, g.y, g.dx, g.dy), "vector {i}");
    }
    assert!(!t.sim.has_errors());
}

#[test]
fn cie_ignores_go_when_not_selected() {
    let (w, h) = (16, 8);
    let mut t = tb("cie", w, h);
    t.mem.load_words(SRC, &Frame::new(w, h).to_words());
    t.sim.poke_u64(t.params.src_addr, SRC as u64);
    t.sim.poke_u64(t.params.dst_addr, DST as u64);
    {
        let s = t.io.ereset;
        pulse(&mut t, s);
    }
    // Deselect (the region is configured with the other module).
    t.sim.poke_u64(t.io.sel, 0);
    {
        let s = t.io.go;
        pulse(&mut t, s);
    }
    t.sim.run_for(200 * PERIOD).unwrap();
    assert_eq!(t.sim.peek_u64(t.io.busy), Some(0), "must stay idle");
    // Re-select and start: now it runs.
    t.sim.poke_u64(t.io.sel, 1);
    {
        let s = t.io.go;
        pulse(&mut t, s);
    }
    t.sim.run_for(10 * PERIOD).unwrap();
    assert_eq!(t.sim.peek_u64(t.io.busy), Some(1));
}

#[test]
fn parameters_latch_on_reset_not_on_go() {
    // The discipline bug.dpr.6b abuses: change the parameter wires
    // *after* ereset — the engine must still use the latched values.
    let (w, h) = (16, 8);
    let frame = Scene::new(w, h, 1, 3).frame(0);
    let mut t = tb("cie", w, h);
    t.mem.load_words(SRC, &frame.to_words());
    t.sim.poke_u64(t.params.src_addr, SRC as u64);
    t.sim.poke_u64(t.params.dst_addr, DST as u64);
    {
        let s = t.io.ereset;
        pulse(&mut t, s);
    }
    // Now corrupt the wires (software reprogramming for the next frame).
    t.sim.poke_u64(t.params.src_addr, 0xF_0000);
    t.sim.poke_u64(t.params.dst_addr, 0xF_8000);
    {
        let s = t.io.go;
        pulse(&mut t, s);
    }
    run_engine(&mut t, 50_000);
    // Output landed at the LATCHED destination, not the new wire value.
    let golden = census_transform(&frame);
    let words: Vec<u32> = t
        .mem
        .read_words(DST, w * h / 4)
        .into_iter()
        .map(|x| x.unwrap())
        .collect();
    assert_eq!(Frame::from_words(w, h, &words), golden);
    assert_eq!(
        t.mem.read_u32(0xF_8000),
        Some(0),
        "nothing at the stale wire address"
    );
}

#[test]
fn stale_latch_produces_wrong_output_location() {
    // Run once, then reprogram the wires but "lose" the reset (the
    // essence of bug.dpr.6b) — the second run reuses frame 1's buffers.
    let (w, h) = (16, 8);
    let f0 = Scene::new(w, h, 1, 5).frame(0);
    let f1 = Scene::new(w, h, 1, 5).frame(1);
    let mut t = tb("cie", w, h);
    t.mem.load_words(SRC, &f0.to_words());
    t.sim.poke_u64(t.params.src_addr, SRC as u64);
    t.sim.poke_u64(t.params.dst_addr, DST as u64);
    {
        let s = t.io.ereset;
        pulse(&mut t, s);
    }
    {
        let s = t.io.go;
        pulse(&mut t, s);
    }
    run_engine(&mut t, 50_000);
    // Next frame at new addresses; reset is LOST (not pulsed).
    let src2 = SRC + 0x4000;
    let dst2 = DST + 0x4000;
    t.mem.load_words(src2, &f1.to_words());
    t.sim.poke_u64(t.params.src_addr, src2 as u64);
    t.sim.poke_u64(t.params.dst_addr, dst2 as u64);
    {
        let s = t.io.go;
        pulse(&mut t, s);
    }
    run_engine(&mut t, 50_000);
    // The engine reprocessed the OLD buffers: dst2 untouched, DST holds
    // census(f0) — not census(f1).
    assert_eq!(
        t.mem.read_u32(dst2),
        Some(0),
        "new destination never written"
    );
    let words: Vec<u32> = t
        .mem
        .read_words(DST, w * h / 4)
        .into_iter()
        .map(|x| x.unwrap())
        .collect();
    assert_eq!(Frame::from_words(w, h, &words), census_transform(&f0));
}

#[test]
fn cie_is_busier_than_me_per_cycle() {
    // Kernel activity (signal toggles per simulated cycle) must be
    // higher for the CIE — the cause of the paper's Table II elapsed
    // inversion.
    let (w, h) = (32, 24);
    let scene = Scene::new(w, h, 1, 9);
    let f = scene.frame(0);
    let c0 = census_transform(&f);
    let c1 = census_transform(&scene.frame(1));

    let mut tc = tb("cie", w, h);
    tc.mem.load_words(SRC, &f.to_words());
    tc.sim.poke_u64(tc.params.src_addr, SRC as u64);
    tc.sim.poke_u64(tc.params.dst_addr, DST as u64);
    {
        let s = tc.io.ereset;
        pulse(&mut tc, s);
    }
    {
        let s = tc.io.go;
        pulse(&mut tc, s);
    }
    let cie_cycles = run_engine(&mut tc, 100_000);
    let cie_toggles = tc
        .sim
        .toggle_count_set(&tc.sim.signals_with_prefix("cie.dp."));

    let mut tm = tb("me", w, h);
    tm.mem.load_words(PREV, &c0.to_words());
    tm.mem.load_words(SRC, &c1.to_words());
    tm.sim.poke_u64(tm.params.src_addr, SRC as u64);
    tm.sim.poke_u64(tm.params.aux_addr, PREV as u64);
    tm.sim.poke_u64(tm.params.vec_addr, VEC as u64);
    {
        let s = tm.io.ereset;
        pulse(&mut tm, s);
    }
    {
        let s = tm.io.go;
        pulse(&mut tm, s);
    }
    let me_cycles = run_engine(&mut tm, 400_000);
    let me_toggles = tm
        .sim
        .toggle_count_set(&tm.sim.signals_with_prefix("me.dp."));

    let cie_rate = cie_toggles as f64 / cie_cycles as f64;
    let me_rate = me_toggles as f64 / me_cycles as f64;
    assert!(
        cie_rate > me_rate,
        "CIE activity/cycle ({cie_rate:.2}) must exceed ME ({me_rate:.2})"
    );
}

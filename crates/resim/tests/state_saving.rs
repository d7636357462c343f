//! State saving and restoration (the authors' FPGA'12 methodology,
//! carried by ReSim's GCAPTURE/GRESTORE SimBs): a module's state is
//! captured before it is swapped out and restored after it is swapped
//! back in, so it can resume without a fresh reset/parameter cycle.

use engines::{CensusEngine, EngineIf, EngineParamSignals};
use plb::{AddressWindow, ArbMode, MemorySlave, PlbBus, SharedMem};
use resim::{
    build_simb, instantiate_region, IcapArtifact, IcapConfig, RegionOptions, RrBoundary, SimbKind,
    XSource,
};
use rtlsim::{CompKind, Ctx, Simulator};
use video::{census_transform, Frame, Scene};

const PERIOD: u64 = 10_000;
const SRC: u32 = 0x1_0000;
const DST: u32 = 0x2_0000;

/// A trivial second module occupying the region while the CIE is out.
fn filler_module(sim: &mut Simulator, io: EngineIf) {
    let clk = io.clk;
    sim.add_component(
        "filler",
        CompKind::UserReconf,
        Box::new(move |ctx: &mut Ctx<'_>| {
            if ctx.rose(clk) {
                ctx.set_bit(io.busy, false);
            }
        }),
        &[clk],
    );
}

#[test]
fn gcapture_grestore_round_trip_preserves_module_state() {
    let (w, h) = (16usize, 8usize);
    let mut sim = Simulator::new();
    let clk = sim.signal("clk", 1);
    let rst = sim.signal("rst", 1);
    sim.add_clock(clk, PERIOD);
    sim.add_reset(rst, 2 * PERIOD);
    let mem = SharedMem::new(256 * 1024);
    let (sport, _) = MemorySlave::instantiate(&mut sim, "mem", clk, rst, mem.clone(), 0, false);

    let go = sim.signal_init("go", 1, 0);
    let er = sim.signal_init("er", 1, 0);
    let params = EngineParamSignals::alloc(&mut sim, "p");
    let cie_if = EngineIf::alloc(&mut sim, "cie", clk, rst, go, er, &params);
    let other_if = EngineIf::alloc(&mut sim, "other", clk, rst, go, er, &params);
    CensusEngine::instantiate(&mut sim, "cie", cie_if);
    filler_module(&mut sim, other_if);

    let (icap, _stats, _) =
        IcapArtifact::instantiate(&mut sim, "icap", clk, rst, IcapConfig::default());
    let boundary = RrBoundary::alloc(&mut sim, "rr");
    let portal = instantiate_region(
        &mut sim,
        "rr0",
        rst,
        1,
        icap,
        vec![(1, cie_if), (2, other_if)],
        boundary,
        Some(1),
        Box::new(XSource),
        RegionOptions::default(),
    );
    PlbBus::new(
        &mut sim,
        "plb",
        clk,
        rst,
        ArbMode::FixedPriority,
        vec![boundary.plb],
        vec![(
            sport,
            AddressWindow {
                base: 0,
                len: 256 * 1024,
            },
        )],
    );
    sim.run_for(5 * PERIOD).unwrap();

    // Program the CIE once: params latch on ereset.
    let frame = Scene::new(w, h, 1, 3).frame(0);
    mem.load_words(SRC, &frame.to_words());
    sim.poke_u64(params.width, w as u64);
    sim.poke_u64(params.height, h as u64);
    sim.poke_u64(params.src_addr, SRC as u64);
    sim.poke_u64(params.dst_addr, DST as u64);
    sim.poke_u64(er, 1);
    sim.run_for(PERIOD).unwrap();
    sim.poke_u64(er, 0);
    sim.run_for(PERIOD).unwrap();

    let feed = |sim: &mut Simulator, words: &[u32]| {
        sim.poke_u64(icap.ce, 1);
        for w in words {
            let mut guard = 0;
            while sim.peek_u64(icap.ready) != Some(1) {
                sim.poke_u64(icap.cwrite, 0);
                sim.run_for(PERIOD).unwrap();
                guard += 1;
                assert!(guard < 10_000);
            }
            sim.poke_u64(icap.cdata, *w as u64);
            sim.poke_u64(icap.cwrite, 1);
            sim.run_for(PERIOD).unwrap();
        }
        sim.poke_u64(icap.cwrite, 0);
        sim.poke_u64(icap.ce, 0);
        sim.run_for(300 * PERIOD).unwrap();
    };

    // Capture CIE state, swap it out, corrupt the parameter WIRES (the
    // static-region registers get reused by other software), swap the
    // CIE back, restore, and start WITHOUT a reset.
    feed(&mut sim, &build_simb(SimbKind::Capture, 1, 1, 0));
    feed(
        &mut sim,
        &build_simb(SimbKind::Config { module: 2 }, 1, 32, 1),
    );
    sim.poke_u64(params.src_addr, 0xDEAD0000u64);
    sim.poke_u64(params.dst_addr, 0xBEEF0000u64);
    sim.run_for(5 * PERIOD).unwrap();
    feed(
        &mut sim,
        &build_simb(SimbKind::Config { module: 1 }, 1, 32, 2),
    );
    feed(&mut sim, &build_simb(SimbKind::Restore, 1, 1, 0));

    sim.poke_u64(go, 1);
    sim.run_for(PERIOD).unwrap();
    sim.poke_u64(go, 0);
    // Wait for completion.
    let mut guard = 0;
    while sim.peek_u64(cie_if.busy) != Some(0) || guard < 5 {
        sim.run_for(PERIOD).unwrap();
        guard += 1;
        assert!(guard < 50_000, "CIE did not finish");
    }
    sim.run_for(10 * PERIOD).unwrap();

    let stats = portal.borrow();
    assert_eq!(stats.captures, 1);
    assert_eq!(stats.restores, 1);
    assert_eq!(stats.swaps, 2);
    drop(stats);

    // The CIE ran with its RESTORED parameters, not the corrupted wires.
    let words: Vec<u32> = mem
        .read_words(DST, w * h / 4)
        .into_iter()
        .map(|x| x.expect("clean output"))
        .collect();
    let got = Frame::from_words(w, h, &words);
    assert_eq!(
        got,
        census_transform(&frame),
        "state survived the swap round trip"
    );
    assert!(!sim.has_errors(), "{:?}", sim.messages());
}

#[test]
fn without_restore_the_swapped_back_module_uses_stale_wires_semantics() {
    // Control experiment: the same sequence minus GCAPTURE/GRESTORE
    // leaves the module with its ORIGINAL latch (params latch only on
    // ereset), demonstrating that restore is what would be needed if the
    // latch had been disturbed. Here we verify the baseline: state is
    // per-module and untouched by the swap itself.
    let mut sim = Simulator::new();
    let clk = sim.signal("clk", 1);
    let rst = sim.signal("rst", 1);
    sim.add_clock(clk, PERIOD);
    sim.add_reset(rst, 2 * PERIOD);
    let go = sim.signal_init("go", 1, 0);
    let er = sim.signal_init("er", 1, 0);
    let params = EngineParamSignals::alloc(&mut sim, "p");
    let a = EngineIf::alloc(&mut sim, "a", clk, rst, go, er, &params);
    let b = EngineIf::alloc(&mut sim, "b", clk, rst, go, er, &params);
    filler_module(&mut sim, a);
    {
        let clk2 = clk;
        sim.add_component(
            "filler2",
            CompKind::UserReconf,
            Box::new(move |ctx: &mut Ctx<'_>| {
                if ctx.rose(clk2) {
                    ctx.set_bit(b.busy, false);
                }
            }),
            &[clk2],
        );
    }
    let (icap, _s, _) =
        IcapArtifact::instantiate(&mut sim, "icap", clk, rst, IcapConfig::default());
    let boundary = RrBoundary::alloc(&mut sim, "rr");
    let portal = instantiate_region(
        &mut sim,
        "rr0",
        rst,
        1,
        icap,
        vec![(1, a), (2, b)],
        boundary,
        Some(1),
        Box::new(XSource),
        RegionOptions::default(),
    );
    sim.run_for(5 * PERIOD).unwrap();
    // Capture strobes addressed to ANOTHER region do not reach us.
    let feed = |sim: &mut Simulator, words: &[u32]| {
        sim.poke_u64(icap.ce, 1);
        for w in words {
            while sim.peek_u64(icap.ready) != Some(1) {
                sim.poke_u64(icap.cwrite, 0);
                sim.run_for(PERIOD).unwrap();
            }
            sim.poke_u64(icap.cdata, *w as u64);
            sim.poke_u64(icap.cwrite, 1);
            sim.run_for(PERIOD).unwrap();
        }
        sim.poke_u64(icap.cwrite, 0);
        sim.poke_u64(icap.ce, 0);
        sim.run_for(200 * PERIOD).unwrap();
    };
    feed(&mut sim, &build_simb(SimbKind::Capture, 9, 1, 0));
    assert_eq!(
        portal.borrow().captures,
        0,
        "other region's capture ignored"
    );
}

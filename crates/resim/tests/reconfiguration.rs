//! Integration tests of the ReSim simulation-only layer: bitstream
//! transfer through the ICAP artifact, error injection, swap timing,
//! FIFO backpressure, and the VMUX baseline's contrasting behaviour.

use dcr::RegFile;
use engines::{EngineIf, EngineParamSignals};
use resim::{
    build_simb, instantiate_region, instantiate_vmux, IcapArtifact, IcapConfig, RegionOptions,
    RrBoundary, SimbKind, VmuxConfig, XSource,
};
use rtlsim::{CompKind, Ctx, SignalId, Simulator};

const PERIOD: u64 = 10_000;

/// A trivial stand-in module: while selected it drives its ID onto its
/// private port's `wdata` and holds `busy` high.
fn dummy_module(sim: &mut Simulator, name: &str, io: EngineIf, id: u64) {
    let clk = io.clk;
    sim.add_component(
        name,
        CompKind::UserReconf,
        Box::new(move |ctx: &mut Ctx<'_>| {
            if ctx.rose(clk) {
                let sel = ctx.is_high(io.sel);
                ctx.set_bit(io.busy, sel);
                ctx.set_u64(io.plb.wdata, if sel { id } else { 0 });
            }
        }),
        &[clk],
    );
}

struct Tb {
    sim: Simulator,
    icap: resim::IcapPort,
    icap_stats: std::rc::Rc<std::cell::RefCell<resim::IcapStats>>,
    portal_stats: std::rc::Rc<std::cell::RefCell<resim::PortalStats>>,
    boundary: RrBoundary,
}

fn tb(cfg: IcapConfig) -> Tb {
    let mut sim = Simulator::new();
    let clk = sim.signal("clk", 1);
    let rst = sim.signal("rst", 1);
    sim.add_clock(clk, PERIOD);
    sim.add_reset(rst, 2 * PERIOD);
    let go = sim.signal_init("go", 1, 0);
    let ereset = sim.signal_init("ereset", 1, 0);
    let params = EngineParamSignals::alloc(&mut sim, "p");
    let m1 = EngineIf::alloc(&mut sim, "mod1", clk, rst, go, ereset, &params);
    let m2 = EngineIf::alloc(&mut sim, "mod2", clk, rst, go, ereset, &params);
    dummy_module(&mut sim, "dummy1", m1, 0x11);
    dummy_module(&mut sim, "dummy2", m2, 0x22);
    let (icap, icap_stats, _) = IcapArtifact::instantiate(&mut sim, "icap", clk, rst, cfg);
    let boundary = RrBoundary::alloc(&mut sim, "rr");
    let portal_stats = instantiate_region(
        &mut sim,
        "rr0",
        rst,
        0x01,
        icap,
        vec![(0x01, m1), (0x02, m2)],
        boundary,
        Some(0x01),
        Box::new(XSource),
        RegionOptions::default(),
    );
    let mut t = Tb {
        sim,
        icap,
        icap_stats,
        portal_stats,
        boundary,
    };
    t.sim.run_for(4 * PERIOD).unwrap();
    t
}

/// Feed SimB words to the ICAP at one word/cycle, honouring `ready`.
fn write_simb(t: &mut Tb, words: &[u32]) {
    t.sim.poke_u64(t.icap.ce, 1);
    let mut i = 0;
    let mut guard = 0;
    while i < words.len() {
        if t.sim.peek_u64(t.icap.ready) == Some(1) {
            t.sim.poke_u64(t.icap.cdata, words[i] as u64);
            t.sim.poke_u64(t.icap.cwrite, 1);
            i += 1;
        } else {
            t.sim.poke_u64(t.icap.cwrite, 0);
        }
        t.sim.run_for(PERIOD).unwrap();
        guard += 1;
        assert!(guard < 100_000, "SimB transfer stuck");
    }
    t.sim.poke_u64(t.icap.cwrite, 0);
    t.sim.poke_u64(t.icap.ce, 0);
    t.sim.run_for(PERIOD).unwrap();
}

fn drain(t: &mut Tb, cycles: u64) {
    t.sim.run_for(cycles * PERIOD).unwrap();
}

#[test]
fn simb_transfer_swaps_the_module() {
    let mut t = tb(IcapConfig::default());
    // Initially module 1 is configured and drives its ID.
    drain(&mut t, 5);
    assert_eq!(t.sim.peek_u64(t.boundary.plb.wdata), Some(0x11));
    // Configure module 2.
    let simb = build_simb(SimbKind::Config { module: 0x02 }, 0x01, 32, 1);
    write_simb(&mut t, &simb);
    drain(&mut t, 200);
    assert_eq!(
        t.sim.peek_u64(t.boundary.plb.wdata),
        Some(0x22),
        "module swapped"
    );
    assert_eq!(t.icap_stats.borrow().swaps, 1);
    assert_eq!(t.icap_stats.borrow().desyncs, 1);
    assert_eq!(t.portal_stats.borrow().swaps, 1);
    assert!(!t.sim.has_errors(), "{:?}", t.sim.messages());
}

#[test]
fn x_is_injected_while_payload_streams() {
    let mut t = tb(IcapConfig {
        cfg_divider: 8,
        ..Default::default()
    });
    let simb = build_simb(SimbKind::Config { module: 0x02 }, 0x01, 64, 2);
    // Write the header plus half the payload, then stop: the region is
    // mid-reconfiguration.
    write_simb(&mut t, &simb[..8 + 32]);
    drain(&mut t, 8 * 40); // let the slow config clock drain the FIFO
    assert_eq!(t.sim.peek_u64(t.icap.inject), Some(1), "injection active");
    assert!(
        t.sim.peek(t.boundary.plb.wdata).has_unknown(),
        "boundary outputs must be X during reconfiguration"
    );
    assert!(
        t.sim.peek(t.boundary.busy).has_unknown(),
        "control outputs corrupted too"
    );
    // Finish the bitstream: injection ends, module 2 appears.
    write_simb(&mut t, &simb[8 + 32..]);
    drain(&mut t, 8 * 40);
    assert_eq!(t.sim.peek_u64(t.icap.inject), Some(0));
    assert_eq!(t.sim.peek_u64(t.boundary.plb.wdata), Some(0x22));
}

#[test]
fn swap_triggers_only_after_the_last_payload_word() {
    // "ReSim did not activate the newly configured module until all
    // words of the SimB were successfully written to the ICAP."
    let mut t = tb(IcapConfig {
        cfg_divider: 1,
        ..Default::default()
    });
    let simb = build_simb(SimbKind::Config { module: 0x02 }, 0x01, 128, 3);
    write_simb(&mut t, &simb[..simb.len() - 4]); // all but last payload word + trailer
    drain(&mut t, 50);
    assert_eq!(
        t.icap_stats.borrow().swaps,
        0,
        "no swap until the stream completes"
    );
    assert_eq!(t.sim.peek_u64(t.icap.reconfiguring), Some(1));
    write_simb(&mut t, &simb[simb.len() - 4..]);
    drain(&mut t, 50);
    assert_eq!(t.icap_stats.borrow().swaps, 1);
    assert_eq!(t.sim.peek_u64(t.icap.reconfiguring), Some(0));
}

#[test]
fn ignoring_ready_overflows_the_fifo_and_is_detected() {
    // bug.dpr.3 in miniature: the controller blasts the 74-word SimB at
    // one word per cycle without checking `ready`, while the config
    // clock drains one word per 16 cycles, so the FIFO overflows.
    let mut t = tb(IcapConfig {
        cfg_divider: 16,
        ..Default::default()
    });
    let simb = build_simb(SimbKind::Config { module: 0x02 }, 0x01, 64, 4);
    t.sim.poke_u64(t.icap.ce, 1);
    for w in &simb {
        t.sim.poke_u64(t.icap.cdata, *w as u64);
        t.sim.poke_u64(t.icap.cwrite, 1);
        t.sim.run_for(PERIOD).unwrap();
    }
    t.sim.poke_u64(t.icap.cwrite, 0);
    drain(&mut t, 16 * 80);
    let stats = t.icap_stats.borrow();
    assert!(stats.words_dropped > 0, "FIFO must overflow");
    assert_eq!(stats.swaps, 0, "corrupted stream must not swap");
    assert!(t.sim.has_errors(), "overflow must be reported");
}

#[test]
fn capture_and_restore_strobes_reach_the_portal() {
    let mut t = tb(IcapConfig::default());
    write_simb(&mut t, &build_simb(SimbKind::Capture, 0x01, 1, 0));
    drain(&mut t, 100);
    write_simb(&mut t, &build_simb(SimbKind::Restore, 0x01, 1, 0));
    drain(&mut t, 100);
    let s = t.portal_stats.borrow();
    assert_eq!(s.captures, 1);
    assert_eq!(s.restores, 1);
    assert_eq!(s.swaps, 0);
}

#[test]
fn unknown_module_id_is_an_error() {
    let mut t = tb(IcapConfig::default());
    write_simb(
        &mut t,
        &build_simb(SimbKind::Config { module: 0x77 }, 0x01, 8, 5),
    );
    drain(&mut t, 200);
    assert!(t.sim.has_errors());
    assert_eq!(t.portal_stats.borrow().bad_module_ids, 1);
    // Region is left unconfigured.
    assert_eq!(t.sim.peek_u64(t.boundary.plb.wdata), Some(0));
}

#[test]
fn simb_for_other_region_is_ignored_by_this_portal() {
    let mut t = tb(IcapConfig::default());
    write_simb(
        &mut t,
        &build_simb(SimbKind::Config { module: 0x02 }, 0x05, 8, 6),
    );
    drain(&mut t, 200);
    assert_eq!(t.portal_stats.borrow().swaps, 0);
    // Module 1 still active.
    assert_eq!(t.sim.peek_u64(t.boundary.plb.wdata), Some(0x11));
}

#[test]
fn transfer_time_scales_with_simb_length_and_divider() {
    // The reconfiguration delay is the bitstream transfer time — the
    // property VMUX cannot model. Measure cycles to swap for two lengths.
    let time_to_swap = |payload: usize, divider: u32| -> u64 {
        let mut t = tb(IcapConfig {
            cfg_divider: divider,
            ..Default::default()
        });
        let simb = build_simb(SimbKind::Config { module: 0x02 }, 0x01, payload, 9);
        let start = t.sim.now();
        write_simb(&mut t, &simb);
        let mut guard = 0;
        while t.icap_stats.borrow().swaps == 0 {
            t.sim.run_for(PERIOD).unwrap();
            guard += 1;
            assert!(guard < 1_000_000);
        }
        (t.sim.now() - start) / PERIOD
    };
    let short = time_to_swap(64, 4);
    let long = time_to_swap(512, 4);
    let slow = time_to_swap(64, 16);
    assert!(
        long > short * 4,
        "8x payload must take >4x: {short} vs {long}"
    );
    assert!(
        slow > short * 2,
        "slower config clock must stretch the transfer: {short} vs {slow}"
    );
}

#[test]
fn vmux_swaps_instantly_with_no_errors() {
    // The baseline: signature write swaps immediately; nothing ever goes X.
    let mut sim = Simulator::new();
    let clk = sim.signal("clk", 1);
    let rst = sim.signal("rst", 1);
    sim.add_clock(clk, PERIOD);
    sim.add_reset(rst, 2 * PERIOD);
    let go = sim.signal_init("go", 1, 0);
    let ereset = sim.signal_init("ereset", 1, 0);
    let params = EngineParamSignals::alloc(&mut sim, "p");
    let m1 = EngineIf::alloc(&mut sim, "mod1", clk, rst, go, ereset, &params);
    let m2 = EngineIf::alloc(&mut sim, "mod2", clk, rst, go, ereset, &params);
    dummy_module(&mut sim, "dummy1", m1, 0x11);
    dummy_module(&mut sim, "dummy2", m2, 0x22);
    let boundary = RrBoundary::alloc(&mut sim, "rr");
    let sig_regs = RegFile::new(0x400, 1);
    instantiate_vmux(
        &mut sim,
        "vmux",
        clk,
        rst,
        sig_regs.clone(),
        vec![(1, m1), (2, m2)],
        boundary,
        VmuxConfig {
            reset_signature: Some(1),
        },
    );
    sim.run_for(10 * PERIOD).unwrap();
    assert_eq!(sim.peek_u64(boundary.plb.wdata), Some(0x11));
    // "Software" writes the signature: swap happens within a few cycles,
    // with no X anywhere — the un-tested optimism of VMUX.
    sig_regs.bus_write(0x400, 2);
    sim.run_for(5 * PERIOD).unwrap();
    assert_eq!(sim.peek_u64(boundary.plb.wdata), Some(0x22));
    assert!(!sim.has_errors());
}

#[test]
fn vmux_uninitialised_signature_selects_nothing() {
    // bug.hw.2, the false alarm: no reset value -> garbage signature ->
    // no engine selected at startup.
    let mut sim = Simulator::new();
    let clk = sim.signal("clk", 1);
    let rst = sim.signal("rst", 1);
    sim.add_clock(clk, PERIOD);
    sim.add_reset(rst, 2 * PERIOD);
    let go = sim.signal_init("go", 1, 0);
    let ereset = sim.signal_init("ereset", 1, 0);
    let params = EngineParamSignals::alloc(&mut sim, "p");
    let m1 = EngineIf::alloc(&mut sim, "mod1", clk, rst, go, ereset, &params);
    dummy_module(&mut sim, "dummy1", m1, 0x11);
    let boundary = RrBoundary::alloc(&mut sim, "rr");
    instantiate_vmux(
        &mut sim,
        "vmux",
        clk,
        rst,
        RegFile::new(0x400, 1),
        vec![(1, m1)],
        boundary,
        VmuxConfig {
            reset_signature: None,
        },
    );
    sim.run_for(20 * PERIOD).unwrap();
    assert_eq!(sim.peek_u64(m1.sel), Some(0), "no module selected");
    assert_eq!(sim.peek_u64(boundary.plb.wdata), Some(0));
}

fn _unused(_: SignalId) {}

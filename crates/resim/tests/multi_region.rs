//! Multiple reconfigurable regions sharing one configuration port —
//! ReSim's region addressing (the FAR's region ID) must route each SimB
//! to exactly the portal it names.

use engines::{EngineIf, EngineParamSignals};
use resim::{
    build_simb, instantiate_region, IcapArtifact, IcapConfig, RegionOptions, RrBoundary, SimbKind,
    XSource,
};
use rtlsim::{CompKind, Ctx, Simulator};

const PERIOD: u64 = 10_000;

fn dummy(sim: &mut Simulator, name: &str, io: EngineIf, id: u64) {
    let clk = io.clk;
    sim.add_component(
        name,
        CompKind::UserReconf,
        Box::new(move |ctx: &mut Ctx<'_>| {
            if ctx.rose(clk) {
                let sel = ctx.is_high(io.sel);
                ctx.set_u64(io.plb.wdata, if sel { id } else { 0 });
            }
        }),
        &[clk],
    );
}

#[test]
fn two_regions_swap_independently_through_one_icap() {
    let mut sim = Simulator::new();
    let clk = sim.signal("clk", 1);
    let rst = sim.signal("rst", 1);
    sim.add_clock(clk, PERIOD);
    sim.add_reset(rst, 2 * PERIOD);
    let go = sim.signal_init("go", 1, 0);
    let er = sim.signal_init("er", 1, 0);
    let params = EngineParamSignals::alloc(&mut sim, "p");

    let (icap, stats, _) =
        IcapArtifact::instantiate(&mut sim, "icap", clk, rst, IcapConfig::default());

    // Region 1 hosts modules 0x11/0x12; region 2 hosts 0x21/0x22.
    let mut boundaries = Vec::new();
    let mut portals = Vec::new();
    for (rr, ids) in [(1u8, [0x11u8, 0x12]), (2, [0x21, 0x22])] {
        let a = EngineIf::alloc(&mut sim, &format!("r{rr}a"), clk, rst, go, er, &params);
        let b = EngineIf::alloc(&mut sim, &format!("r{rr}b"), clk, rst, go, er, &params);
        dummy(&mut sim, &format!("r{rr}da"), a, ids[0] as u64);
        dummy(&mut sim, &format!("r{rr}db"), b, ids[1] as u64);
        let boundary = RrBoundary::alloc(&mut sim, &format!("rr{rr}"));
        let p = instantiate_region(
            &mut sim,
            &format!("region{rr}"),
            rst,
            rr,
            icap,
            vec![(ids[0], a), (ids[1], b)],
            boundary,
            Some(ids[0]),
            Box::new(XSource),
            RegionOptions::default(),
        );
        boundaries.push(boundary);
        portals.push(p);
    }
    sim.run_for(5 * PERIOD).unwrap();
    assert_eq!(sim.peek_u64(boundaries[0].plb.wdata), Some(0x11));
    assert_eq!(sim.peek_u64(boundaries[1].plb.wdata), Some(0x21));

    // Reconfigure region 2 only.
    let simb = build_simb(SimbKind::Config { module: 0x22 }, 2, 32, 5);
    let feed = |words: &[u32], sim: &mut Simulator| {
        sim.poke_u64(icap.ce, 1);
        for w in words {
            let mut guard = 0;
            while sim.peek_u64(icap.ready) != Some(1) {
                sim.poke_u64(icap.cwrite, 0); // honour backpressure
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
    feed(&simb, &mut sim);
    assert_eq!(
        sim.peek_u64(boundaries[1].plb.wdata),
        Some(0x22),
        "region 2 swapped"
    );
    assert_eq!(
        sim.peek_u64(boundaries[0].plb.wdata),
        Some(0x11),
        "region 1 untouched"
    );
    assert_eq!(portals[0].borrow().swaps, 0);
    assert_eq!(portals[1].borrow().swaps, 1);

    // Now region 1, while region 2 keeps its new module.
    let simb = build_simb(SimbKind::Config { module: 0x12 }, 1, 32, 6);
    feed(&simb, &mut sim);
    assert_eq!(sim.peek_u64(boundaries[0].plb.wdata), Some(0x12));
    assert_eq!(sim.peek_u64(boundaries[1].plb.wdata), Some(0x22));
    assert_eq!(portals[0].borrow().swaps, 1);
    assert_eq!(stats.borrow().swaps, 2);
    assert!(!sim.has_errors(), "{:?}", sim.messages());
}

//! Compiled-plane kernel tests: edge filtering, parking, doorbells and
//! dirty-window fallback, each checked for bit-identity against an
//! event-driven reference built the same way.

use rtlsim::{Clock, CompKind, Ctx, DirtyWatch, ExecMode, Lv, ResetGen, Simulator};
use std::cell::Cell;
use std::rc::Rc;

const PERIOD: u64 = 10_000;

/// A counter design with a clocked process, a reset, and a decoder.
/// Returns (sim, q, dec) with the kernel in `mode`.
fn counter_design(mode: ExecMode) -> (Simulator, rtlsim::SignalId, rtlsim::SignalId) {
    let mut sim = Simulator::new();
    let clk = sim.signal("clk", 1);
    let rst = sim.signal("rst", 1);
    let q = sim.signal_init("q", 8, 0);
    let dec = sim.signal_init("dec", 1, 0);
    sim.add_component(
        "clkgen",
        CompKind::Vip,
        Box::new(Clock::new(clk, PERIOD)),
        &[],
    );
    sim.add_component(
        "rstgen",
        CompKind::Vip,
        Box::new(ResetGen::new(rst, 2 * PERIOD)),
        &[],
    );
    let counter = sim.add_component(
        "counter",
        CompKind::UserStatic,
        Box::new(move |ctx: &mut Ctx<'_>| {
            if ctx.is_high(rst) {
                ctx.set_u64(q, 0);
                return;
            }
            if ctx.rose(clk) {
                let v = ctx.get(q) + Lv::from_u64(8, 1);
                ctx.set(q, v);
            }
        }),
        &[clk, rst],
    );
    sim.add_component(
        "decoder",
        CompKind::UserStatic,
        Box::new(move |ctx: &mut Ctx<'_>| {
            let high = ctx.get_u64(q).is_some_and(|v| v >= 5);
            ctx.set_bit(dec, high);
        }),
        &[q],
    );
    sim.set_exec_mode(mode);
    sim.declare_clocked(counter, clk);
    sim.watch_dirty(rst, DirtyWatch::TruthyOrUnknown);
    (sim, q, dec)
}

#[test]
fn compiled_counter_matches_event_driven_bit_for_bit() {
    let (mut ev, evq, evd) = counter_design(ExecMode::EventDriven);
    let (mut co, coq, cod) = counter_design(ExecMode::Compiled);
    for _ in 0..50 {
        ev.run_for(PERIOD).unwrap();
        co.run_for(PERIOD).unwrap();
        assert_eq!(ev.peek(evq), co.peek(coq));
        assert_eq!(ev.peek(evd), co.peek(cod));
        assert_eq!(ev.state_digest(), co.state_digest(), "state diverged");
    }
    assert_eq!(ev.stats().toggles, co.stats().toggles);
    // The whole point: the compiled mode dispatched fewer evals.
    assert!(
        co.stats().evals < ev.stats().evals,
        "compiled mode should skip wrong-edge activations: {} vs {}",
        co.stats().evals,
        ev.stats().evals
    );
    let cs = co.compiled_stats().expect("compiled mode has stats");
    assert!(cs.skipped_edge > 0);
    assert!(ev.compiled_stats().is_none(), "event-driven mode has none");
    // Reset opens a dirty window that closes when rst deasserts.
    assert_eq!(cs.fallback_entries, 1);
    assert_eq!(cs.fallback_exits, 1);
    assert_eq!(co.fallback_windows().len(), 1);
    assert!(co.fallback_windows()[0].1 < u64::MAX);
}

/// `Simulator::new()` starts in the default mode with its dispatch gate
/// open: a clocked process is filtered without any mode call.
#[test]
fn a_bare_simulator_filters_in_the_default_mode() {
    let mut sim = Simulator::new();
    assert_eq!(sim.exec_mode(), ExecMode::Compiled);
    let clk = sim.signal("clk", 1);
    let q = sim.signal_init("q", 8, 0);
    sim.add_component(
        "clkgen",
        CompKind::Vip,
        Box::new(Clock::new(clk, PERIOD)),
        &[],
    );
    let counter = sim.add_component(
        "counter",
        CompKind::UserStatic,
        Box::new(move |ctx: &mut Ctx<'_>| {
            if ctx.rose(clk) {
                let v = ctx.get(q) + Lv::from_u64(8, 1);
                ctx.set(q, v);
            }
        }),
        &[clk],
    );
    sim.declare_clocked(counter, clk);
    sim.run_for(10 * PERIOD).unwrap();
    assert_eq!(sim.peek_u64(q), Some(10));
    let cs = sim.compiled_stats().expect("compiled mode has stats");
    assert!(cs.skipped_edge > 0, "{cs:?}");
    assert_eq!(cs.fallback_points, 0, "{cs:?}");
}

/// An idle FSM that parks until its `go` input changes, plus a doorbell
/// rung from the testbench side.
#[test]
fn parked_component_wakes_on_signal_and_doorbell() {
    let evals = Rc::new(Cell::new(0u64));
    let bell_flag = Rc::new(Cell::new(false));
    let build = |mode: ExecMode, evals: Rc<Cell<u64>>, flag: Rc<Cell<bool>>| {
        let mut sim = Simulator::new();
        let clk = sim.signal("clk", 1);
        let go = sim.signal_init("go", 1, 0);
        let out = sim.signal_init("out", 8, 0);
        sim.add_component(
            "clkgen",
            CompKind::Vip,
            Box::new(Clock::new(clk, PERIOD)),
            &[],
        );
        sim.set_exec_mode(mode);
        let bell = sim.add_doorbell(flag.clone());
        let fsm = sim.add_component(
            "fsm",
            CompKind::UserStatic,
            Box::new(move |ctx: &mut Ctx<'_>| {
                evals.set(evals.get() + 1);
                if ctx.rose(clk) && ctx.is_high(go) {
                    let v = ctx.get(out) + Lv::from_u64(8, 1);
                    ctx.set(out, v);
                }
                if !ctx.is_high(go) {
                    // Quiescent until go changes or the doorbell rings.
                    ctx.park_until(&[go], &[bell]);
                }
            }),
            &[clk],
        );
        sim.declare_clocked(fsm, clk);
        (sim, go, out)
    };

    let (mut sim, go, out) = build(ExecMode::Compiled, evals.clone(), bell_flag.clone());
    sim.run_for(20 * PERIOD).unwrap();
    let idle_evals = evals.get();
    assert!(
        idle_evals < 6,
        "parked FSM kept evaluating: {idle_evals} evals over 20 idle cycles"
    );
    // Signal wake: drive go high; the FSM must resume counting.
    sim.poke_u64(go, 1);
    sim.run_for(5 * PERIOD).unwrap();
    assert_eq!(
        sim.peek_u64(out),
        Some(5),
        "missed posedges after signal wake"
    );
    sim.poke_u64(go, 0);
    sim.run_for(5 * PERIOD).unwrap();
    let parked_again = evals.get();
    sim.run_for(10 * PERIOD).unwrap();
    assert!(evals.get() <= parked_again + 1, "FSM failed to re-park");
    // Doorbell wake: ring the bell; the FSM gets dispatched again (one
    // eval is enough to observe the out-of-band state).
    let before = evals.get();
    bell_flag.set(true);
    sim.run_for(3 * PERIOD).unwrap();
    assert!(evals.get() > before, "doorbell did not wake the parked FSM");
    let cs = sim.compiled_stats().unwrap();
    assert!(cs.parks > 0);
    assert!(cs.signal_wakes > 0);
    assert!(cs.doorbell_rings > 0);
    assert!(cs.skipped_parked > 0);
}

/// While a watched dirty signal is truthy, filtering fully suspends:
/// parked components and wrong-edge filtering both stop applying.
#[test]
fn dirty_window_suspends_filtering_and_unparks() {
    let mut sim = Simulator::new();
    let clk = sim.signal("clk", 1);
    let iso = sim.signal_init("isolate", 1, 0);
    let seen = Rc::new(Cell::new(0u64));
    sim.add_component(
        "clkgen",
        CompKind::Vip,
        Box::new(Clock::new(clk, PERIOD)),
        &[],
    );
    sim.set_exec_mode(ExecMode::Compiled);
    let seen2 = seen.clone();
    let watcher = sim.add_component(
        "watcher",
        CompKind::UserStatic,
        Box::new(move |ctx: &mut Ctx<'_>| {
            seen2.set(seen2.get() + 1);
            // Parks forever: only a dirty window (or iso change) revives it.
            ctx.park_until(&[], &[]);
        }),
        &[clk],
    );
    sim.declare_clocked(watcher, clk);
    sim.watch_dirty(iso, DirtyWatch::TruthyOrUnknown);
    sim.run_for(10 * PERIOD).unwrap();
    let while_parked = seen.get();
    assert!(while_parked <= 2, "park ignored: {while_parked}");
    // Open the window: every posedge AND negedge now dispatches.
    sim.poke_u64(iso, 1);
    sim.run_for(10 * PERIOD).unwrap();
    let in_window = seen.get() - while_parked;
    assert!(
        in_window >= 19,
        "fallback did not dispatch fully: {in_window}"
    );
    // Close it: the component re-parks on its first steady eval.
    sim.poke_u64(iso, 0);
    sim.run_for(10 * PERIOD).unwrap();
    let after = seen.get();
    sim.run_for(10 * PERIOD).unwrap();
    assert!(
        seen.get() <= after + 1,
        "did not re-park after window close"
    );
    let cs = sim.compiled_stats().unwrap();
    assert_eq!(cs.fallback_entries, 1);
    assert_eq!(cs.fallback_exits, 1);
    assert!(cs.steady_points > 0 && cs.fallback_points > 0);
}

/// Event-driven mode must be byte-identical to a kernel with no compiled
/// declarations at all — the declarations are inert there.
#[test]
fn declarations_are_inert_in_event_driven_mode() {
    let (mut plain, pq, _) = counter_design(ExecMode::EventDriven);
    let mut bare = Simulator::new();
    {
        let clk = bare.signal("clk", 1);
        let rst = bare.signal("rst", 1);
        let q = bare.signal_init("q", 8, 0);
        let dec = bare.signal_init("dec", 1, 0);
        bare.add_component(
            "clkgen",
            CompKind::Vip,
            Box::new(Clock::new(clk, PERIOD)),
            &[],
        );
        bare.add_component(
            "rstgen",
            CompKind::Vip,
            Box::new(ResetGen::new(rst, 2 * PERIOD)),
            &[],
        );
        bare.add_component(
            "counter",
            CompKind::UserStatic,
            Box::new(move |ctx: &mut Ctx<'_>| {
                if ctx.is_high(rst) {
                    ctx.set_u64(q, 0);
                    return;
                }
                if ctx.rose(clk) {
                    let v = ctx.get(q) + Lv::from_u64(8, 1);
                    ctx.set(q, v);
                }
            }),
            &[clk, rst],
        );
        bare.add_component(
            "decoder",
            CompKind::UserStatic,
            Box::new(move |ctx: &mut Ctx<'_>| {
                let high = ctx.get_u64(q).is_some_and(|v| v >= 5);
                ctx.set_bit(dec, high);
            }),
            &[q],
        );
    }
    plain.run_for(30 * PERIOD).unwrap();
    bare.run_for(30 * PERIOD).unwrap();
    assert_eq!(plain.state_digest(), bare.state_digest());
    assert_eq!(plain.stats().evals, bare.stats().evals);
    assert_eq!(plain.stats().deltas, bare.stats().deltas);
    assert_eq!(plain.peek_u64(pq), Some(28));
}

//! Compiled-plane kernel tests: parking, doorbells, the dispatch order
//! of a batch that wakes a parked component and of a listener set three
//! bitset words wide, each checked against an event-driven reference
//! built the same way.

use rtlsim::{CompKind, Ctx, ExecMode, Lv, SignalId, Simulator};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

const PERIOD: u64 = 10_000;

/// A counter design: a posedge-clocked counter with reset, a decoder on
/// its output and an idle monitor on every clock edge. With `hints` the
/// monitor makes the compiled plane's declaration: it parks until a
/// doorbell rings. Returns (sim, q, dec) with the kernel in `mode`.
fn counter_design(mode: ExecMode, hints: bool) -> (Simulator, SignalId, SignalId) {
    let mut sim = Simulator::new();
    let clk = sim.signal("clk", 1);
    let rst = sim.signal("rst", 1);
    let q = sim.signal_init("q", 8, 0);
    let dec = sim.signal_init("dec", 1, 0);
    sim.add_clock(clk, PERIOD);
    sim.add_reset(rst, 2 * PERIOD);
    sim.set_exec_mode(mode);
    sim.add_clocked(
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
        clk,
        &[rst],
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
    let bell = hints.then(|| sim.add_doorbell(Rc::new(Cell::new(false))));
    sim.add_component(
        "monitor",
        CompKind::Vip,
        Box::new(move |ctx: &mut Ctx<'_>| {
            if let Some(bell) = bell {
                ctx.park_until(&[], &[bell]);
            }
        }),
        &[clk],
    );
    (sim, q, dec)
}

#[test]
fn compiled_counter_matches_event_driven_bit_for_bit() {
    let (mut ev, evq, evd) = counter_design(ExecMode::EventDriven, true);
    let (mut co, coq, cod) = counter_design(ExecMode::Compiled, true);
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
        "compiled mode should skip the parked monitor: {} vs {}",
        co.stats().evals,
        ev.stats().evals
    );
    let cs = co.compiled_stats().expect("compiled mode has stats");
    assert!(cs.skipped_parked > 0);
    assert!(ev.compiled_stats().is_none(), "event-driven mode has none");
}

/// `Simulator::new()` starts in the default mode: a parked process is
/// skipped without any mode call.
#[test]
fn a_bare_simulator_filters_in_the_default_mode() {
    let mut sim = Simulator::new();
    assert_eq!(sim.exec_mode(), ExecMode::Compiled);
    let clk = sim.signal("clk", 1);
    let q = sim.signal_init("q", 8, 0);
    sim.add_clock(clk, PERIOD);
    sim.add_clocked(
        "counter",
        CompKind::UserStatic,
        Box::new(move |ctx: &mut Ctx<'_>| {
            if ctx.rose(clk) {
                let v = ctx.get(q) + Lv::from_u64(8, 1);
                ctx.set(q, v);
            }
        }),
        clk,
        &[],
    );
    sim.add_component(
        "idle",
        CompKind::Vip,
        Box::new(|ctx: &mut Ctx<'_>| ctx.park_until(&[], &[])),
        &[clk],
    );
    sim.run_for(10 * PERIOD).unwrap();
    assert_eq!(sim.peek_u64(q), Some(10));
    let cs = sim.compiled_stats().expect("compiled mode has stats");
    assert!(cs.skipped_parked > 0, "{cs:?}");
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
        sim.add_clock(clk, PERIOD);
        sim.set_exec_mode(mode);
        let bell = sim.add_doorbell(flag.clone());
        sim.add_clocked(
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
            clk,
            &[],
        );
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

/// How the batch of [`late_wake_order`] changes `a`, then `b`.
#[derive(Debug, Clone, Copy)]
enum Batch {
    /// Two writes of one eval.
    Writes,
    /// Two testbench pokes at one time.
    Pokes,
}

/// The dispatch order of one batch that changes `a`, then `b`. P is
/// registered first, listens to both and parks until `b` changes; Q
/// listens to `a`.
fn late_wake_order(mode: ExecMode, batch: Batch) -> Vec<&'static str> {
    let mut sim = Simulator::new();
    sim.set_exec_mode(mode);
    let a = sim.signal_init("a", 1, 0);
    let b = sim.signal_init("b", 1, 0);
    let go = sim.signal_init("go", 1, 0);
    let log = Rc::new(RefCell::new(Vec::new()));
    let p_log = log.clone();
    sim.add_component(
        "p",
        CompKind::UserStatic,
        Box::new(move |ctx: &mut Ctx<'_>| {
            p_log.borrow_mut().push("P");
            ctx.park_until(&[b], &[]);
        }),
        &[a, b],
    );
    let q_log = log.clone();
    sim.add_component(
        "q",
        CompKind::UserStatic,
        Box::new(move |_: &mut Ctx<'_>| q_log.borrow_mut().push("Q")),
        &[a],
    );
    sim.add_component(
        "driver",
        CompKind::Vip,
        Box::new(move |ctx: &mut Ctx<'_>| {
            if ctx.is_high(go) {
                ctx.set_bit(a, true);
                ctx.set_bit(b, true);
            }
        }),
        &[go],
    );
    sim.settle().unwrap();
    log.borrow_mut().clear();
    if let Batch::Pokes = batch {
        sim.poke_u64(a, 1);
        sim.poke_u64(b, 1);
    } else {
        sim.poke_u64(go, 1);
    }
    sim.settle().unwrap();
    if mode.is_compiled() {
        assert!(sim.compiled_stats().unwrap().parks > 0, "P never parked");
    }
    log.take()
}

/// A parked component that one signal of a batch skips and a later
/// signal of the same batch wakes is queued where event-driven dispatch
/// queues it, at the earlier signal: every batch unparks before it
/// marks.
#[test]
fn a_late_wake_keeps_the_event_driven_dispatch_order() {
    for batch in [Batch::Writes, Batch::Pokes] {
        for mode in [ExecMode::EventDriven, ExecMode::Compiled] {
            assert_eq!(
                late_wake_order(mode, batch),
                ["P", "Q"],
                "{mode}, {batch:?}"
            );
        }
    }
}

/// Event-driven mode must be byte-identical to a kernel given none of
/// the compiled plane's declarations: parking and doorbells are inert
/// there.
#[test]
fn declarations_are_inert_in_event_driven_mode() {
    let (mut plain, pq, _) = counter_design(ExecMode::EventDriven, true);
    let (mut bare, _, _) = counter_design(ExecMode::EventDriven, false);
    plain.run_for(30 * PERIOD).unwrap();
    bare.run_for(30 * PERIOD).unwrap();
    assert_eq!(plain.state_digest(), bare.state_digest());
    assert_eq!(plain.stats().evals, bare.stats().evals);
    assert_eq!(plain.stats().deltas, bare.stats().deltas);
    assert_eq!(plain.peek_u64(pq), Some(28));
}

/// Listeners of [`wide_fan_out`]: more than 128, so the signal's
/// listener set spans three 64-bit words.
const FAN_OUT: usize = 150;

/// Listener `i` of [`wide_fan_out`] parks for good on its first eval.
fn parks(i: usize) -> bool {
    i.is_multiple_of(3) || (60..70).contains(&i)
}

/// Listener `i` of [`wide_fan_out`] is posedge, so a fall skips it.
fn posedge(i: usize) -> bool {
    i % 5 == 4
}

/// One signal `s` with [`FAN_OUT`] listeners, registered in index order
/// with an unrelated component after every seventh, so a listener's
/// `CompId` is not its index. Returns the dispatch log of a rise and
/// then a fall of `s`, and how far `skipped_parked` grew on each.
fn wide_fan_out(mode: ExecMode) -> [(Vec<usize>, u64); 2] {
    let mut sim = Simulator::new();
    sim.set_exec_mode(mode);
    let s = sim.signal_init("s", 1, 0);
    let never = sim.signal_init("never", 1, 0);
    let log = Rc::new(RefCell::new(Vec::new()));
    for i in 0..FAN_OUT {
        let sink = log.clone();
        let body = Box::new(move |ctx: &mut Ctx<'_>| {
            sink.borrow_mut().push(i);
            if parks(i) {
                ctx.park_until(&[never], &[]);
            }
        });
        let name = format!("l{i}");
        if posedge(i) {
            sim.add_clocked(name, CompKind::UserStatic, body, s, &[]);
        } else {
            sim.add_component(name, CompKind::UserStatic, body, &[s]);
        }
        if i % 7 == 6 {
            sim.add_component(
                format!("other{i}"),
                CompKind::Vip,
                Box::new(|_: &mut Ctx<'_>| {}),
                &[never],
            );
        }
    }
    sim.settle().unwrap();
    let skipped = |sim: &Simulator| sim.compiled_stats().map_or(0, |cs| cs.skipped_parked);
    [1, 0].map(|level| {
        log.borrow_mut().clear();
        let before = skipped(&sim);
        sim.poke_u64(s, level);
        sim.settle().unwrap();
        (log.take(), skipped(&sim) - before)
    })
}

/// A change of a signal whose listeners span three bitset words
/// dispatches every listener that is not parked, in registration order,
/// and counts each parked one it skips exactly once; a fall leaves out
/// the posedge listeners, parked or not.
#[test]
fn a_wide_fan_out_dispatches_in_registration_order() {
    for mode in [ExecMode::EventDriven, ExecMode::Compiled] {
        let filtered = |fell: bool| -> (Vec<usize>, u64) {
            let listening: Vec<usize> = (0..FAN_OUT).filter(|&i| !(fell && posedge(i))).collect();
            if !mode.is_compiled() {
                return (listening, 0);
            }
            let parked = listening.iter().filter(|&&i| parks(i)).count() as u64;
            (
                listening.into_iter().filter(|&i| !parks(i)).collect(),
                parked,
            )
        };
        let [rise, fall] = wide_fan_out(mode);
        assert_eq!(rise, filtered(false), "{mode}: rise");
        assert_eq!(fall, filtered(true), "{mode}: fall");
    }
}

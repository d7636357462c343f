//! Determinism guarantees of the event queue.
//!
//! Events apply in `(time, sequence)` order: earliest first, and events
//! due at one time point in the order they were scheduled (FIFO by
//! global sequence number), however far ahead each was scheduled and
//! however the run is cut into `run_until` calls. The delta-limit
//! oscillation detector fires at [`DELTA_LIMIT`]. Table and VCD byte
//! identity rest on these properties.

use proptest::prelude::*;
use rtlsim::{CompKind, Ctx, KernelError, Lv, Simulator, DELTA_LIMIT};
use std::cell::RefCell;
use std::rc::Rc;

/// Grid step of the queue property's delays and clock edges.
const GRID: u64 = 50_000;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    /// Each event `e` is the release of a kernel reset,
    /// `add_reset(s_e, delays[e])`, scheduled at build time in `e`
    /// order, and each `s_e` has its own listener logging `(now, e)` on
    /// the release. Delays sit on a coarse grid from one step up to
    /// 3.2 µs, so many releases share a time point, next to a kernel
    /// clock whose edges fall on the same grid. Whatever `run_until`
    /// chunks the run is cut into, each call ends at its deadline and the
    /// log is the events sorted by `(delay, e)`.
    #[test]
    fn events_apply_in_time_then_scheduling_order(
        steps in prop::collection::vec(1u64..=64, 1..=48),
        half_steps in 1u64..=4,
        cuts in prop::collection::vec(1u64..=800_000, 0..=12),
    ) {
        let delays: Vec<u64> = steps.iter().map(|k| k * GRID).collect();
        let mut sim = Simulator::new();
        let clk = sim.signal("clk", 1);
        sim.add_clock(clk, 2 * half_steps * GRID);
        let log: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        for (e, &d) in delays.iter().enumerate() {
            let s = sim.signal(format!("s{e}"), 1);
            sim.add_reset(s, d);
            let sink = log.clone();
            sim.add_component(
                format!("l{e}"),
                CompKind::Vip,
                Box::new(move |ctx: &mut Ctx<'_>| {
                    if ctx.fell(s) {
                        sink.borrow_mut().push((ctx.now(), e));
                    }
                }),
                &[s],
            );
        }
        let mut deadline = 0;
        for cut in cuts {
            deadline += cut;
            sim.run_until(deadline).unwrap();
            prop_assert_eq!(sim.now(), deadline);
        }
        let end = deadline.max(64 * GRID);
        sim.run_until(end).unwrap();
        prop_assert_eq!(sim.now(), end);
        let mut want: Vec<(u64, usize)> = delays.iter().copied().zip(0..).collect();
        want.sort_unstable();
        prop_assert_eq!(log.borrow().clone(), want);
    }
}

/// Same-timestamp drives to one signal: the last scheduled write wins.
#[test]
fn same_timestamp_drives_apply_last_writer_wins() {
    let mut sim = Simulator::new();
    let s = sim.signal_init("s", 8, 0);
    let changes: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    {
        let changes = changes.clone();
        sim.add_component(
            "watch",
            CompKind::Vip,
            Box::new(move |ctx: &mut Ctx<'_>| {
                if ctx.changed(s) {
                    if let Some(v) = ctx.get_u64(s) {
                        changes.borrow_mut().push(v);
                    }
                }
            }),
            &[s],
        );
    }
    // Three pokes at the same instant: 7, then 9, then 13.
    sim.poke_u64(s, 7);
    sim.poke_u64(s, 9);
    sim.poke_u64(s, 13);
    sim.settle().unwrap();
    assert_eq!(sim.peek_u64(s), Some(13), "last scheduled write wins");
    // Each drive applied in order within the same delta batch, so the
    // watcher saw exactly one change (to the final value).
    assert_eq!(changes.borrow().clone(), vec![13]);
}

/// A reset release scheduled at build time and a clock edge scheduled
/// half a period before it meet at one instant, the clock's fifth fall,
/// and still apply in global scheduling order: the far release first,
/// as the AutoVision reset releases just before its fifth falling edge.
/// Each signal has its own any-edge listener, the clock's registered
/// first, so the listeners' dispatch order is the order the two drives
/// applied in.
#[test]
fn far_and_near_wakes_at_one_instant_apply_in_scheduling_order() {
    let period = 10_000u64;
    let t_meet = 5 * period;
    let mut sim = Simulator::new();
    let clk = sim.signal("clk", 1);
    let rst = sim.signal("rst", 1);
    sim.add_clock(clk, period);
    sim.add_reset(rst, t_meet);
    let log: Rc<RefCell<Vec<(u64, &'static str)>>> = Rc::new(RefCell::new(Vec::new()));
    for (name, s) in [("clk", clk), ("rst", rst)] {
        let sink = log.clone();
        sim.add_component(
            name,
            CompKind::Vip,
            Box::new(move |ctx: &mut Ctx<'_>| {
                if ctx.fell(s) {
                    sink.borrow_mut().push((ctx.now(), name));
                }
            }),
            &[s],
        );
    }
    sim.run_until(t_meet).unwrap();
    let at_meet: Vec<_> = log
        .borrow()
        .iter()
        .filter(|e| e.0 == t_meet)
        .map(|e| e.1)
        .collect();
    assert_eq!(
        at_meet,
        ["rst", "clk"],
        "the release must keep its earlier sequence number"
    );
}

/// A self-retriggering chain that stops just under the limit settles
/// cleanly; an unbounded oscillation trips `DeltaOverflow` at the
/// offending time point.
#[test]
fn delta_limit_fires_exactly_at_the_limit() {
    // Under the limit: a counter that stops after DELTA_LIMIT - 10
    // self-triggered updates.
    let mut sim = Simulator::new();
    let c = sim.signal_init("c", 32, 0);
    let stop = (DELTA_LIMIT - 10) as u64;
    sim.add_component(
        "chain",
        CompKind::UserStatic,
        Box::new(move |ctx: &mut Ctx<'_>| {
            let v = ctx.get_u64(c).unwrap();
            if v < stop {
                ctx.set_u64(c, v + 1);
            }
        }),
        &[c],
    );
    sim.settle().expect("sub-limit chain must settle");
    assert_eq!(sim.peek_u64(c), Some(stop));

    // Over the limit: never stops.
    let mut sim = Simulator::new();
    let c = sim.signal_init("c", 32, 0);
    sim.add_component(
        "osc",
        CompKind::UserStatic,
        Box::new(move |ctx: &mut Ctx<'_>| {
            let v = ctx.get(c);
            ctx.set(c, !v);
        }),
        &[c],
    );
    let err = sim.settle().unwrap_err();
    assert_eq!(err, KernelError::DeltaOverflow { time_ps: 0 });
    // The kernel allowed exactly DELTA_LIMIT deltas before giving up.
    assert_eq!(sim.stats().deltas, DELTA_LIMIT as u64 + 1);
}

/// Two identical seeded runs produce identical statistics, messages and
/// final state — the scheduler has no hidden nondeterminism (hash
/// ordering, pointer identity, wall clock).
#[test]
fn identical_runs_are_bit_identical() {
    fn build_and_run() -> (u64, u64, u64, u64, Vec<String>, Option<u64>) {
        let mut sim = Simulator::new();
        let clk = sim.signal("clk", 1);
        sim.add_clock(clk, 10_000);
        let q = sim.signal_init("q", 16, 0);
        let mut lcg = 0xDEADBEEFu64;
        sim.add_component(
            "noise",
            CompKind::UserStatic,
            Box::new(move |ctx: &mut Ctx<'_>| {
                if ctx.rose(clk) {
                    lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let v = (lcg >> 33) & 0xFFFF;
                    ctx.set(q, Lv::from_u64(16, v));
                    if v & 0xFF == 0 {
                        ctx.warn(format!("rare value {v}"));
                    }
                }
            }),
            &[clk],
        );
        sim.run_until(3_000_000).unwrap();
        let st = sim.stats();
        let msgs = sim
            .messages()
            .iter()
            .map(|m| format!("{m}"))
            .collect::<Vec<_>>();
        (
            st.evals,
            st.deltas,
            st.events,
            st.toggles,
            msgs,
            sim.peek_u64(q),
        )
    }
    let a = build_and_run();
    let b = build_and_run();
    assert_eq!(a, b);
}

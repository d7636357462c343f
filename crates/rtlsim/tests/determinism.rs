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

    /// One driver schedules `set_after(s_e, 1, delays[e])` for every
    /// event `e` in its initial eval, and each `s_e` has its own
    /// listener logging `(now, e)` on the rise. Delays sit on a coarse
    /// grid up to 3.2 µs, so many events share a time point, next to a
    /// kernel clock whose edges fall on the same grid. Whatever
    /// `run_until` chunks the run is cut into, each call ends at its
    /// deadline and the log is the events sorted by `(delay, e)`.
    #[test]
    fn events_apply_in_time_then_scheduling_order(
        steps in prop::collection::vec(0u64..=64, 1..=48),
        half_steps in 1u64..=4,
        cuts in prop::collection::vec(1u64..=800_000, 0..=12),
    ) {
        let delays: Vec<u64> = steps.iter().map(|k| k * GRID).collect();
        let mut sim = Simulator::new();
        let clk = sim.signal("clk", 1);
        sim.add_clock(clk, 2 * half_steps * GRID);
        let log: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        let sigs: Vec<_> = (0..delays.len())
            .map(|e| sim.signal_init(format!("s{e}"), 1, 0))
            .collect();
        for (e, &s) in sigs.iter().enumerate() {
            let sink = log.clone();
            sim.add_component(
                format!("l{e}"),
                CompKind::Vip,
                Box::new(move |ctx: &mut Ctx<'_>| {
                    if ctx.rose(s) {
                        sink.borrow_mut().push((ctx.now(), e));
                    }
                }),
                &[s],
            );
        }
        let schedule: Vec<_> = sigs.iter().copied().zip(delays.iter().copied()).collect();
        sim.add_component(
            "driver",
            CompKind::Vip,
            Box::new(move |ctx: &mut Ctx<'_>| {
                for &(s, d) in &schedule {
                    ctx.set_after(s, Lv::bit(true), d);
                }
            }),
            &[],
        );
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

/// Register components that log their id when woken; wake them all at
/// one timestamp in a scrambled registration order and check the batch
/// evaluates in scheduling order.
#[test]
fn same_timestamp_wakes_apply_in_scheduling_order() {
    let mut sim = Simulator::new();
    let log: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
    let trig = sim.signal_init("trig", 1, 0);
    let n = 16usize;
    for i in 0..n {
        let log = log.clone();
        let mut armed = false;
        sim.add_component(
            format!("w{i}"),
            CompKind::Vip,
            Box::new(move |ctx: &mut Ctx<'_>| {
                if !armed {
                    armed = true;
                    ctx.wake_after(50_000);
                } else if ctx.now() == 50_000 {
                    log.borrow_mut().push(i);
                }
            }),
            &[],
        );
    }
    let _ = trig;
    sim.run_until(60_000).unwrap();
    let got = log.borrow().clone();
    // All initial evals run in registration order, so the wakes are
    // scheduled 0..n and must be delivered 0..n.
    assert_eq!(got, (0..n).collect::<Vec<_>>());
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

/// A wake scheduled 10 µs ahead and a wake scheduled later from close
/// range meet at one instant, and still apply in global scheduling
/// order: the far one first.
#[test]
fn far_and_near_wakes_at_one_instant_apply_in_scheduling_order() {
    let mut sim = Simulator::new();
    let log: Rc<RefCell<Vec<&'static str>>> = Rc::new(RefCell::new(Vec::new()));
    let t_meet = 10_000_000u64;
    {
        let log = log.clone();
        let mut armed = false;
        sim.add_component(
            "far_first",
            CompKind::Vip,
            Box::new(move |ctx: &mut Ctx<'_>| {
                if !armed {
                    armed = true;
                    ctx.wake_after(t_meet);
                } else {
                    log.borrow_mut().push("far_first");
                }
            }),
            &[],
        );
    }
    {
        // This component re-arms a short wake chain and schedules its
        // final wake for the same instant from close range, with a
        // *later* sequence number.
        let log = log.clone();
        let mut stage = 0u32;
        sim.add_component(
            "near_second",
            CompKind::Vip,
            Box::new(move |ctx: &mut Ctx<'_>| {
                stage += 1;
                match stage {
                    1 => ctx.wake_after(t_meet - 500_000),
                    2 => ctx.wake_after(500_000),
                    _ => log.borrow_mut().push("near_second"),
                }
            }),
            &[],
        );
    }
    sim.run_until(t_meet + 1_000).unwrap();
    assert_eq!(
        log.borrow().clone(),
        vec!["far_first", "near_second"],
        "the far wake must keep its earlier sequence number"
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

//! Determinism guarantees of the event queue.
//!
//! Events apply in `(time, sequence)` order: earliest first, and events
//! due at one time point in the order they were scheduled (FIFO by
//! global sequence number), however far ahead each was scheduled and
//! however the run is cut into `run_until` calls. A clock edge schedules
//! its successor when it applies, so the successor's sequence number
//! follows every event scheduled before that point. The delta-limit
//! oscillation detector fires at [`DELTA_LIMIT`]. Table and VCD byte
//! identity rest on these properties.

use proptest::prelude::*;
use rtlsim::{CompKind, Ctx, KernelError, Lv, SignalId, Simulator, DELTA_LIMIT};
use std::cell::RefCell;
use std::rc::Rc;

/// Grid step of the queue property's delays and clock edges.
const GRID: u64 = 50_000;

/// One logged value change of the queue property.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Change {
    /// Clock `clock` moved to `level`.
    Edge { clock: usize, level: bool },
    /// Reset `e` was released.
    Release(usize),
    /// Poke signal `p` took the poke's fresh value `v`.
    Poke { p: usize, v: u64 },
}

/// What a reference event drives when it applies.
#[derive(Debug, Clone, Copy)]
enum RefKind {
    /// An edge of clock `clock` to `level`, half period `half`.
    Edge {
        clock: usize,
        level: bool,
        half: u64,
    },
    /// A one-shot drive: a reset release or a testbench poke.
    Once(Change),
}

/// The queue's reference model: a list of `(time, seq, kind)` entries
/// and the global sequence counter, applied in `(time, seq)` order.
#[derive(Default)]
struct RefQueue {
    seq: u64,
    pending: Vec<(u64, u64, RefKind)>,
    log: Vec<(u64, Change)>,
}

impl RefQueue {
    fn schedule(&mut self, time: u64, kind: RefKind) {
        self.seq += 1;
        self.pending.push((time, self.seq, kind));
    }

    /// Apply every entry due at or before `deadline`, earliest
    /// `(time, seq)` first. An edge schedules the opposite edge half a
    /// period later as it applies.
    fn run_until(&mut self, deadline: u64) {
        loop {
            let Some(i) = (0..self.pending.len())
                .filter(|&i| self.pending[i].0 <= deadline)
                .min_by_key(|&i| (self.pending[i].0, self.pending[i].1))
            else {
                return;
            };
            let (time, _, kind) = self.pending.remove(i);
            match kind {
                RefKind::Edge { clock, level, half } => {
                    self.log.push((time, Change::Edge { clock, level }));
                    self.schedule(
                        time + half,
                        RefKind::Edge {
                            clock,
                            level: !level,
                            half,
                        },
                    );
                }
                RefKind::Once(change) => self.log.push((time, change)),
            }
        }
    }
}

/// Register a listener on `sig` that logs `(now, change(ctx))` whenever
/// `sig` changes and `change` reports something.
fn log_changes(
    sim: &mut Simulator,
    name: String,
    sig: SignalId,
    log: &Rc<RefCell<Vec<(u64, Change)>>>,
    change: impl Fn(&Ctx<'_>) -> Option<Change> + 'static,
) {
    let sink = log.clone();
    sim.add_component(
        name,
        CompKind::Vip,
        Box::new(move |ctx: &mut Ctx<'_>| {
            if ctx.changed(sig) {
                if let Some(c) = change(ctx) {
                    sink.borrow_mut().push((ctx.now(), c));
                }
            }
        }),
        &[sig],
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    /// Two kernel clocks whose edges fall on a coarse grid, the releases
    /// of kernel resets `add_reset(s_e, delays[e])` scheduled at build
    /// time in `e` order, and testbench pokes issued between `run_until`
    /// cuts, each to its own signal with a fresh value. Delays run from
    /// one grid step up to 3.2 µs, so many releases share a time point
    /// with each other and with edges of both clocks. Every driven
    /// signal has its own listener, so the log of `(now, change)` is the
    /// order the kernel applied its events in. Whatever chunks the run
    /// is cut into, each call ends at its deadline, and the log and the
    /// event count equal the `(time, seq)` reference model's.
    #[test]
    fn events_apply_in_time_then_scheduling_order(
        steps in prop::collection::vec(1u64..=64, 1..=48),
        half_steps in (1u64..=4, 1u64..=6),
        cuts in prop::collection::vec((1u64..=800_000, 0usize..=3), 0..=12),
    ) {
        let mut sim = Simulator::new();
        let mut model = RefQueue::default();
        let log: Rc<RefCell<Vec<(u64, Change)>>> = Rc::new(RefCell::new(Vec::new()));
        for (clock, half) in [half_steps.0 * GRID, half_steps.1 * GRID].into_iter().enumerate() {
            let clk = sim.signal(format!("clk{clock}"), 1);
            sim.add_clock(clk, 2 * half);
            model.schedule(half, RefKind::Edge { clock, level: true, half });
            // The clock's initial 0 applies at t=0 as a write, not an
            // event.
            model.log.push((0, Change::Edge { clock, level: false }));
            log_changes(&mut sim, format!("lc{clock}"), clk, &log, move |ctx| {
                Some(Change::Edge { clock, level: ctx.is_high(clk) })
            });
        }
        for (e, k) in steps.iter().enumerate() {
            let s = sim.signal(format!("s{e}"), 1);
            sim.add_reset(s, k * GRID);
            model.schedule(k * GRID, RefKind::Once(Change::Release(e)));
            log_changes(&mut sim, format!("l{e}"), s, &log, move |ctx| {
                ctx.fell(s).then_some(Change::Release(e))
            });
        }
        let max_pokes = cuts.iter().map(|c| c.1).max().unwrap_or(0);
        let pokes: Vec<SignalId> = (0..max_pokes)
            .map(|p| {
                let sig = sim.signal_init(format!("p{p}"), 32, 0);
                log_changes(&mut sim, format!("lp{p}"), sig, &log, move |ctx| {
                    ctx.get_u64(sig).map(|v| Change::Poke { p, v })
                });
                sig
            })
            .collect();
        let mut deadline = 0;
        let mut fresh = 0u64;
        for (cut, n_pokes) in cuts {
            deadline += cut;
            sim.run_until(deadline).unwrap();
            model.run_until(deadline);
            prop_assert_eq!(sim.now(), deadline);
            for (p, &sig) in pokes.iter().enumerate().take(n_pokes) {
                fresh += 1;
                sim.poke_u64(sig, fresh);
                model.schedule(deadline, RefKind::Once(Change::Poke { p, v: fresh }));
            }
        }
        let end = deadline.max(64 * GRID);
        sim.run_until(end).unwrap();
        model.run_until(end);
        prop_assert_eq!(sim.now(), end);
        prop_assert_eq!(log.borrow().clone(), model.log);
        prop_assert_eq!(sim.stats().events, model.seq);
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

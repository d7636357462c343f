//! The kernel drops a non-blocking write when it is the first write to a
//! signal in an eval phase and equals the signal's current value. These
//! tests pin that rule against the plain semantics it must preserve:
//! every write applies in queue order, and only real changes toggle,
//! record an edge or wake sensitive components.

use proptest::prelude::*;
use rtlsim::{CompKind, Ctx, Lv, SignalId, Simulator};
use std::cell::Cell;
use std::rc::Rc;

/// A component that counts its evaluations.
fn add_counter(sim: &mut Simulator, name: &str, sensitivity: &[SignalId]) -> Rc<Cell<u32>> {
    let n = Rc::new(Cell::new(0));
    let seen = n.clone();
    sim.add_component(
        name,
        CompKind::UserStatic,
        Box::new(move |_: &mut Ctx<'_>| seen.set(seen.get() + 1)),
        sensitivity,
    );
    n
}

/// Raise `go` from the testbench and settle every delta it causes.
fn pulse(sim: &mut Simulator, go: SignalId) {
    sim.poke_u64(go, 1);
    sim.settle().expect("settles");
}

#[test]
fn write_then_revert_in_one_eval_toggles_twice_and_wakes_readers() {
    let mut sim = Simulator::new();
    let go = sim.signal_init("go", 1, 0);
    let s = sim.signal_init("s", 8, 5);
    sim.add_component(
        "writer",
        CompKind::UserStatic,
        Box::new(move |ctx: &mut Ctx<'_>| {
            if ctx.rose(go) {
                ctx.set_u64(s, 6);
                ctx.set_u64(s, 5);
            }
        }),
        &[go],
    );
    let saw_change = Rc::new(Cell::new(false));
    let flag = saw_change.clone();
    sim.add_component(
        "reader",
        CompKind::UserStatic,
        Box::new(move |ctx: &mut Ctx<'_>| {
            if ctx.changed(s) {
                flag.set(true);
            }
        }),
        &[s],
    );
    let reader_evals = add_counter(&mut sim, "reader_count", &[s]);
    sim.settle().expect("initial evals");
    assert_eq!(reader_evals.get(), 1, "initial eval only");

    pulse(&mut sim, go);
    assert_eq!(sim.peek_u64(s), Some(5));
    assert_eq!(sim.toggle_count(s), 2, "5 -> 6 -> 5 both apply");
    assert_eq!(reader_evals.get(), 2, "the revert still wakes readers");
    assert!(saw_change.get(), "readers see the change of the last step");
}

#[test]
fn a_later_write_of_the_current_value_still_wins_the_delta() {
    let mut sim = Simulator::new();
    let go = sim.signal_init("go", 1, 0);
    let s = sim.signal_init("s", 4, 3);
    // Registration order is evaluation order within the delta.
    sim.add_component(
        "a",
        CompKind::UserStatic,
        Box::new(move |ctx: &mut Ctx<'_>| {
            if ctx.rose(go) {
                ctx.set_u64(s, 9);
            }
        }),
        &[go],
    );
    sim.add_component(
        "b",
        CompKind::UserStatic,
        Box::new(move |ctx: &mut Ctx<'_>| {
            if ctx.rose(go) {
                ctx.set(s, Lv::from_u64(4, 3));
            }
        }),
        &[go],
    );
    sim.settle().expect("initial evals");
    pulse(&mut sim, go);
    assert_eq!(sim.peek_u64(s), Some(3), "last write wins");
    assert_eq!(sim.toggle_count(s), 2);
}

#[test]
fn an_elided_write_records_no_edge_and_queues_nobody() {
    let mut sim = Simulator::new();
    let go = sim.signal_init("go", 1, 0);
    let s = sim.signal_init("s", 1, 0);
    let u = sim.signal("u", 4); // all-X
    let tick = sim.signal_init("tick", 1, 0);
    sim.add_component(
        "writer",
        CompKind::UserStatic,
        Box::new(move |ctx: &mut Ctx<'_>| {
            if ctx.rose(go) {
                ctx.set_bit(s, false);
                ctx.set(u, Lv::xes(4));
                ctx.set_bit(tick, true);
            }
        }),
        &[go],
    );
    let edges = Rc::new(Cell::new((false, false, false)));
    let probe = edges.clone();
    sim.add_component(
        "probe",
        CompKind::UserStatic,
        Box::new(move |ctx: &mut Ctx<'_>| {
            if ctx.rose(tick) {
                probe.set((ctx.changed(s), ctx.rose(s), ctx.changed(u)));
            }
        }),
        &[tick],
    );
    let s_readers = add_counter(&mut sim, "s_readers", &[s, u]);
    sim.settle().expect("initial evals");
    let evals_before = sim.stats().evals;

    pulse(&mut sim, go);
    assert_eq!(sim.peek_u64(tick), Some(1), "the real write applied");
    assert_eq!(edges.get(), (false, false, false));
    assert_eq!(sim.toggle_count(s), 0);
    assert_eq!(sim.toggle_count(u), 0);
    assert_eq!(s_readers.get(), 1, "only the initial eval");
    assert_eq!(
        sim.stats().evals - evals_before,
        2,
        "writer on go, probe on tick, nobody on s or u"
    );
}

/// One scripted write: (signal index, value plane, unknown plane).
type Write = (usize, u64, u64);

const SIGNALS: usize = 3;
const WIDTH: u8 = 2;

fn lv(val: u64, xz: u64) -> Lv {
    Lv::from_planes(WIDTH, val, xz)
}

/// Run `script[d][k]` — the writes component `k` issues in delta `d` —
/// through the kernel. A sequencer steps a counter once per delta, so
/// every row lands in its own delta at time 0, and the writers evaluate
/// in registration order within each. Returns the simulator and the
/// written signals.
fn run_script(script: &[Vec<Vec<Write>>], writers: usize) -> (Simulator, Vec<SignalId>) {
    let mut sim = Simulator::new();
    let step = sim.signal_init("step", 8, 0);
    let sigs: Vec<SignalId> = (0..SIGNALS)
        .map(|i| sim.signal_init(format!("s{i}"), WIDTH, 0))
        .collect();
    let last = script.len() as u64 - 1;
    sim.add_component(
        "sequencer",
        CompKind::Vip,
        Box::new(move |ctx: &mut Ctx<'_>| {
            let d = ctx.get_u64(step).expect("known step");
            if d < last {
                ctx.set_u64(step, d + 1);
            }
        }),
        &[step],
    );
    for k in 0..writers {
        let rows: Vec<Vec<Write>> = script.iter().map(|row| row[k].clone()).collect();
        let sigs = sigs.clone();
        sim.add_component(
            format!("w{k}"),
            CompKind::UserStatic,
            Box::new(move |ctx: &mut Ctx<'_>| {
                let d = ctx.get_u64(step).expect("known step") as usize;
                for &(i, val, xz) in &rows[d] {
                    if xz == 0 {
                        ctx.set_u64(sigs[i], val);
                    } else {
                        ctx.set(sigs[i], lv(val, xz));
                    }
                }
            }),
            &[step],
        );
    }
    sim.settle().expect("script settles");
    (sim, sigs)
}

/// Mostly known values (three in four), so repeats of the current value
/// are common; the rest carry `X`/`Z` bits.
fn arb_write() -> impl Strategy<Value = Write> {
    (
        0..SIGNALS,
        0u64..4,
        prop_oneof![Just(0u64), Just(0u64), 0u64..4],
    )
}

fn arb_script() -> impl Strategy<Value = (usize, Vec<Vec<Vec<Write>>>)> {
    (1usize..=4).prop_flat_map(|writers| {
        let row = prop::collection::vec(prop::collection::vec(arb_write(), 0..4), writers);
        prop::collection::vec(row, 1..6).prop_map(move |script| (writers, script))
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    /// Elision is invisible: final values and toggle counts equal a
    /// shadow model that applies every write of every delta in order.
    #[test]
    fn elision_matches_apply_every_write((writers, script) in arb_script()) {
        let (sim, sigs) = run_script(&script, writers);
        let mut cur = [lv(0, 0); SIGNALS];
        let mut toggles = [0u64; SIGNALS];
        for row in &script {
            for writes in row {
                for &(i, val, xz) in writes {
                    let v = lv(val, xz);
                    if !cur[i].eq_case(&v) {
                        cur[i] = v;
                        toggles[i] += 1;
                    }
                }
            }
        }
        for (i, &s) in sigs.iter().enumerate() {
            let got = sim.peek(s);
            prop_assert!(got.eq_case(&cur[i]), "s{i}: kernel {got:?}, model {:?}", cur[i]);
        }
        let got: Vec<u64> = sigs.iter().map(|&s| sim.toggle_count(s)).collect();
        prop_assert_eq!(got, toggles);
    }
}

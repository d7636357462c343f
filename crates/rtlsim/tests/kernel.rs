//! Integration tests for the simulation kernel: scheduling semantics,
//! delta cycles, X propagation, clocks and reset, the posedge edge rule,
//! tracing and diagnostics.

use rtlsim::{CompKind, Ctx, ExecMode, KernelError, Logic, Lv, Severity, SignalId, Simulator};
use std::cell::RefCell;
use std::rc::Rc;

const PERIOD: u64 = 10_000; // 10 ns

fn clocked_system() -> (Simulator, rtlsim::SignalId) {
    let mut sim = Simulator::new();
    let clk = sim.signal("clk", 1);
    sim.add_clock(clk, PERIOD);
    (sim, clk)
}

/// A chain of flip-flops must shift one position per clock edge, proving
/// that all clocked components read pre-edge values (non-blocking
/// assignment semantics). A naive immediate-update kernel would collapse
/// the chain in a single cycle.
#[test]
fn flip_flop_chain_has_nba_semantics() {
    let (mut sim, clk) = clocked_system();
    let stages = 8;
    let mut regs = Vec::new();
    for i in 0..=stages {
        regs.push(sim.signal_init(format!("st{i}"), 8, 0));
    }
    // Source drives a new value every cycle.
    let src = regs[0];
    sim.add_component(
        "src",
        CompKind::UserStatic,
        Box::new(move |ctx: &mut Ctx<'_>| {
            if ctx.rose(clk) {
                let v = ctx.get(src) + Lv::from_u64(8, 1);
                ctx.set(src, v);
            }
        }),
        &[clk],
    );
    for i in 0..stages {
        let d = regs[i];
        let q = regs[i + 1];
        sim.add_component(
            format!("ff{i}"),
            CompKind::UserStatic,
            Box::new(move |ctx: &mut Ctx<'_>| {
                if ctx.rose(clk) {
                    ctx.set(q, ctx.get(d));
                }
            }),
            &[clk],
        );
    }
    // After N posedges the last stage lags the source by `stages` cycles.
    let cycles = 20u64;
    sim.run_until(PERIOD / 2 + (cycles - 1) * PERIOD + 1)
        .unwrap();
    let head = sim.peek_u64(regs[0]).unwrap();
    let tail = sim.peek_u64(regs[stages]).unwrap();
    assert_eq!(head, cycles);
    assert_eq!(tail, cycles - stages as u64);
}

/// Combinational logic must settle through multiple deltas within a
/// single time step.
#[test]
fn combinational_chain_settles_in_zero_time() {
    let mut sim = Simulator::new();
    let a = sim.signal_init("a", 8, 0);
    let mut prev = a;
    let mut last = a;
    for i in 0..16 {
        let next = sim.signal(format!("n{i}"), 8);
        let p = prev;
        sim.add_component(
            format!("inc{i}"),
            CompKind::UserStatic,
            Box::new(move |ctx: &mut Ctx<'_>| {
                ctx.set(next, ctx.get(p) + Lv::from_u64(8, 1));
            }),
            &[p],
        );
        prev = next;
        last = next;
    }
    sim.settle().unwrap();
    assert_eq!(sim.peek_u64(last), Some(16));
    assert_eq!(sim.now(), 0, "combinational settling must not advance time");
    // Poke the head and re-settle: the whole chain follows.
    sim.poke_u64(a, 100);
    sim.settle().unwrap();
    assert_eq!(sim.peek_u64(last), Some(116));
}

/// Two cross-coupled inverters with no stable point must hit the delta
/// limit rather than hang.
#[test]
fn oscillation_hits_delta_limit() {
    let mut sim = Simulator::new();
    let a = sim.signal_init("a", 1, 0);
    sim.add_component(
        "osc",
        CompKind::UserStatic,
        Box::new(move |ctx: &mut Ctx<'_>| {
            let v = !ctx.get(a);
            ctx.set(a, v);
        }),
        &[a],
    );
    let err = sim.settle().unwrap_err();
    assert!(matches!(err, KernelError::DeltaOverflow { time_ps: 0 }));
}

/// X driven into a combinational cone reaches the output, and dominance
/// (`0 & X = 0`) stops it where logic permits.
#[test]
fn x_propagates_through_combinational_logic() {
    let mut sim = Simulator::new();
    let a = sim.signal_init("a", 4, 0xF);
    let b = sim.signal_init("b", 4, 0x0);
    let and_out = sim.signal("and_out", 4);
    let or_out = sim.signal("or_out", 4);
    sim.add_component(
        "gates",
        CompKind::UserStatic,
        Box::new(move |ctx: &mut Ctx<'_>| {
            ctx.set(and_out, ctx.get(a) & ctx.get(b));
            ctx.set(or_out, ctx.get(a) | ctx.get(b));
        }),
        &[a, b],
    );
    sim.settle().unwrap();
    assert_eq!(sim.peek_u64(and_out), Some(0));
    assert_eq!(sim.peek_u64(or_out), Some(0xF));
    // Now corrupt `a` as the ReSim error injector would.
    sim.poke(a, Lv::xes(4));
    sim.settle().unwrap();
    // 0 & X = 0: the AND output stays clean.
    assert_eq!(sim.peek_u64(and_out), Some(0));
    // 0 | X = X: the OR output is poisoned.
    assert!(sim.peek(or_out).eq_case(&Lv::xes(4)));
}

/// Edge queries must distinguish posedge from negedge and not re-trigger
/// on unrelated deltas.
#[test]
fn edge_detection_counts_each_edge_once() {
    let (mut sim, clk) = clocked_system();
    let rises = sim.signal_init("rises", 16, 0);
    let falls = sim.signal_init("falls", 16, 0);
    sim.add_component(
        "edgecnt",
        CompKind::Vip,
        Box::new(move |ctx: &mut Ctx<'_>| {
            if ctx.rose(clk) {
                let v = ctx.get(rises) + Lv::from_u64(16, 1);
                ctx.set(rises, v);
            }
            if ctx.fell(clk) {
                let v = ctx.get(falls) + Lv::from_u64(16, 1);
                ctx.set(falls, v);
            }
        }),
        &[clk],
    );
    sim.run_until(10 * PERIOD).unwrap(); // edges at 5,10,...,100 ns
    assert_eq!(sim.peek_u64(rises), Some(10));
    assert_eq!(sim.peek_u64(falls), Some(10));
}

/// `set_after` implements transport delay across time steps.
#[test]
fn transport_delay_lands_on_schedule() {
    let mut sim = Simulator::new();
    let trig = sim.signal_init("trig", 1, 0);
    let out = sim.signal_init("out", 8, 0);
    sim.add_component(
        "delayer",
        CompKind::UserStatic,
        Box::new(move |ctx: &mut Ctx<'_>| {
            if ctx.rose(trig) {
                ctx.set_after(out, Lv::from_u64(8, 0xAB), 7_500);
            }
        }),
        &[trig],
    );
    sim.settle().unwrap();
    sim.poke_u64(trig, 1);
    sim.run_until(7_499).unwrap();
    assert_eq!(sim.peek_u64(out), Some(0));
    sim.run_until(7_500).unwrap();
    assert_eq!(sim.peek_u64(out), Some(0xAB));
}

/// A deadline behind `now()` does not rewind time: `run_until` settles
/// the current time point and returns with `now()` unchanged, so a later
/// poke lands at that time, not behind the last clock edge.
#[test]
fn run_until_an_earlier_deadline_keeps_the_current_time() {
    let (mut sim, clk) = clocked_system();
    let d = sim.signal_init("d", 1, 0);
    let log = Rc::new(RefCell::new(Vec::new()));
    let sink = log.clone();
    sim.add_component(
        "watch",
        CompKind::Vip,
        Box::new(move |ctx: &mut Ctx<'_>| {
            if ctx.changed(d) {
                sink.borrow_mut().push((ctx.now(), ctx.get_u64(d)));
            }
        }),
        &[d],
    );
    let now = 10 * PERIOD;
    sim.run_until(now).unwrap();
    sim.poke_u64(d, 1);
    sim.run_until(4 * PERIOD).unwrap();
    assert_eq!(sim.now(), now);
    sim.poke_u64(d, 0);
    sim.settle().unwrap();
    assert_eq!(*log.borrow(), [(now, Some(1)), (now, Some(0))]);
    // The clock kept its phase: the X->0 initialisation, then two edges
    // per period.
    sim.run_until(11 * PERIOD).unwrap();
    assert_eq!(sim.toggle_count(clk), 1 + 22);
}

/// `finish` stops the run loop like `$finish`.
#[test]
fn finish_request_halts_simulation() {
    let (mut sim, clk) = clocked_system();
    let mut count = 0u32;
    sim.add_component(
        "stopper",
        CompKind::Vip,
        Box::new(move |ctx: &mut Ctx<'_>| {
            if ctx.rose(clk) {
                count += 1;
                if count == 3 {
                    ctx.finish();
                }
            }
        }),
        &[clk],
    );
    sim.run_until(1_000 * PERIOD).unwrap();
    assert!(sim.finished());
    // Third posedge is at 25 ns.
    assert_eq!(sim.now(), PERIOD / 2 + 2 * PERIOD);
}

/// Messages carry time, component attribution and severity; errors are
/// visible via `has_errors`.
#[test]
fn diagnostics_are_recorded_and_classified() {
    let (mut sim, clk) = clocked_system();
    sim.add_component(
        "checker",
        CompKind::Vip,
        Box::new(move |ctx: &mut Ctx<'_>| {
            if ctx.rose(clk) && ctx.now() > 20_000 {
                ctx.error("value out of range");
                ctx.finish();
            }
        }),
        &[clk],
    );
    sim.run_until(100 * PERIOD).unwrap();
    assert!(sim.has_errors());
    let msgs = sim.take_messages();
    assert_eq!(msgs.len(), 1);
    assert_eq!(msgs[0].severity, Severity::Error);
    assert_eq!(msgs[0].component, "checker");
    assert_eq!(msgs[0].time_ps, 25_000);
    assert!(!sim.has_errors(), "take_messages drains the log");
}

/// The VCD trace contains a header, our signals and timestamped changes.
#[test]
fn vcd_trace_is_well_formed() {
    let dir = std::env::temp_dir().join("rtlsim_vcd_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.vcd");
    let (mut sim, clk) = clocked_system();
    let data = sim.signal_init("data", 4, 0);
    sim.add_component(
        "drv",
        CompKind::UserStatic,
        Box::new(move |ctx: &mut Ctx<'_>| {
            if ctx.rose(clk) {
                let v = ctx.get(data) + Lv::from_u64(4, 3);
                ctx.set(data, v);
            }
        }),
        &[clk],
    );
    sim.trace_vcd(&path).unwrap();
    sim.run_until(5 * PERIOD).unwrap();
    sim.flush_vcd().unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("$timescale 1ps $end"));
    assert!(text.contains("$var wire 1"));
    assert!(text.contains("$var wire 4"));
    assert!(text.contains("$enddefinitions $end"));
    assert!(text.contains("#5000"));
    assert!(text.lines().any(|l| l.starts_with("b0011 ")));
}

/// Profiler attributes time by component kind.
#[test]
fn profiler_attributes_time_by_kind() {
    let (mut sim, clk) = clocked_system();
    let sink = sim.signal_init("sink", 32, 0);
    // A deliberately heavy user component and a trivial artifact.
    sim.add_component(
        "heavy",
        CompKind::UserStatic,
        Box::new(move |ctx: &mut Ctx<'_>| {
            if ctx.rose(clk) {
                let mut acc = ctx.get_u64(sink).unwrap_or(0);
                for i in 0..5_000u64 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                }
                ctx.set_u64(sink, acc & 0xFFFF_FFFF);
            }
        }),
        &[clk],
    );
    sim.add_component(
        "tiny_artifact",
        CompKind::Artifact,
        Box::new(move |_ctx: &mut Ctx<'_>| {}),
        &[clk],
    );
    // Profiling is opt-in (off by default to keep the hot path free of
    // clock reads); the profiler samples 1 in 16 evals, so run long
    // enough for the law of large numbers to take over.
    sim.set_profiling(true);
    sim.run_until(2_000 * PERIOD).unwrap();
    let names = sim.eval_counts();
    let rows = sim.profiler().report(&names);
    let fraction_of = |kind: CompKind| -> f64 {
        rows.iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.fraction)
            .sum()
    };
    let user = fraction_of(CompKind::UserStatic);
    let artifact = fraction_of(CompKind::Artifact);
    assert!(
        user > artifact,
        "heavy user logic must dominate: {user} vs {artifact}"
    );
    assert!(user > 0.5, "user fraction {user}");
    assert_eq!(rows[0].name, "heavy");
}

/// Signal toggle counts give an activity measure per hierarchy prefix.
#[test]
fn toggle_counts_by_prefix() {
    let (mut sim, clk) = clocked_system();
    let busy = sim.signal_init("cie.busy_bit", 1, 0);
    let quiet = sim.signal_init("me.quiet_bit", 1, 0);
    sim.add_component(
        "toggler",
        CompKind::UserStatic,
        Box::new(move |ctx: &mut Ctx<'_>| {
            if ctx.rose(clk) {
                let v = !ctx.get(busy);
                ctx.set(busy, v);
            }
        }),
        &[clk],
    );
    sim.run_until(50 * PERIOD).unwrap();
    assert!(sim.toggle_count_set(&sim.signals_with_prefix("cie.")) >= 49);
    assert_eq!(sim.toggle_count_set(&sim.signals_with_prefix("me.")), 0);
    let _ = quiet;
}

/// An uninitialised signal reads as all-X until first driven, as in a
/// 4-state HDL simulator.
#[test]
fn signals_initialise_to_x() {
    let mut sim = Simulator::new();
    let s = sim.signal("floating", 8);
    assert!(sim.peek(s).eq_case(&Lv::xes(8)));
    assert_eq!(sim.peek(s).get(3), Logic::X);
    sim.poke_u64(s, 5);
    sim.settle().unwrap();
    assert_eq!(sim.peek_u64(s), Some(5));
}

/// Kernel statistics reflect activity.
#[test]
fn stats_track_activity() {
    let (mut sim, clk) = clocked_system();
    let q = sim.signal_init("q", 8, 0);
    sim.add_component(
        "cnt",
        CompKind::UserStatic,
        Box::new(move |ctx: &mut Ctx<'_>| {
            if ctx.rose(clk) {
                let v = ctx.get(q) + Lv::from_u64(8, 1);
                ctx.set(q, v);
            }
        }),
        &[clk],
    );
    sim.run_until(100 * PERIOD).unwrap();
    let stats = sim.stats();
    assert!(stats.evals > 200, "evals: {}", stats.evals);
    assert!(stats.deltas > 100, "deltas: {}", stats.deltas);
    assert!(stats.toggles > 200, "toggles: {}", stats.toggles);
    assert!(
        stats.time_points >= 200,
        "time points: {}",
        stats.time_points
    );
    assert!(
        stats.events >= stats.time_points,
        "events: {} vs time points: {}",
        stats.events,
        stats.time_points
    );
}

/// A kernel clock needs no component: it reads 0 before its first rise,
/// then changes every half period.
#[test]
fn clock_toggles_at_half_period() {
    let mut sim = Simulator::new();
    let clk = sim.signal("clk", 1);
    sim.add_clock(clk, 10_000);
    sim.run_until(4_999).unwrap();
    assert_eq!(sim.peek_u64(clk), Some(0));
    sim.run_until(5_000).unwrap();
    assert_eq!(sim.peek_u64(clk), Some(1));
    sim.run_until(10_000).unwrap();
    assert_eq!(sim.peek_u64(clk), Some(0));
    sim.run_until(100_000).unwrap();
    // One X->0 initialisation change, then edges at 5 ns intervals.
    assert_eq!(sim.toggle_count(clk), 1 + 20);
}

#[test]
#[should_panic(expected = "period must be even")]
fn odd_period_rejected() {
    let mut sim = Simulator::new();
    let clk = sim.signal("clk", 1);
    sim.add_clock(clk, 7);
}

#[test]
fn reset_pulse_shape() {
    let mut sim = Simulator::new();
    let rst = sim.signal("rst", 1);
    sim.add_reset(rst, 25_000);
    sim.settle().unwrap();
    assert_eq!(sim.peek_u64(rst), Some(1));
    sim.run_until(24_999).unwrap();
    assert_eq!(sim.peek_u64(rst), Some(1));
    sim.run_until(25_000).unwrap();
    assert_eq!(sim.peek_u64(rst), Some(0));
    sim.run_until(1_000_000).unwrap();
    assert_eq!(sim.peek_u64(rst), Some(0));
    assert_eq!(sim.toggle_count(rst), 2);
}

#[test]
#[should_panic(expected = "reset duration must be positive")]
fn zero_reset_duration_rejected() {
    let mut sim = Simulator::new();
    let rst = sim.signal("rst", 1);
    sim.add_reset(rst, 0);
}

#[test]
fn two_clock_domains_stay_phase_locked() {
    let mut sim = Simulator::new();
    let fast = sim.signal("fast", 1);
    let slow = sim.signal("slow", 1);
    sim.add_clock(fast, 10_000);
    sim.add_clock(slow, 40_000);
    sim.run_until(400_000).unwrap();
    // Discount the initial X->0 change on each clock.
    assert_eq!(sim.toggle_count(fast) - 1, 4 * (sim.toggle_count(slow) - 1));
}

/// What one eval of a posedge listener saw: time, `clk` rose, `clk`
/// fell, and which of the listener's other inputs changed.
type Seen = (u64, bool, bool, Vec<bool>);

type Log = Rc<RefCell<Vec<Seen>>>;

/// A simulator in `mode` with a kernel clock on `clk` and a posedge
/// listener that logs every eval it gets. `build` adds the rest of the
/// design and returns the listener's other (any-edge) inputs, which are
/// returned too.
fn posedge_listener(
    mode: ExecMode,
    build: impl FnOnce(&mut Simulator) -> Vec<SignalId>,
) -> (Simulator, Vec<SignalId>, Log) {
    let mut sim = Simulator::new();
    sim.set_exec_mode(mode);
    let clk = sim.signal("clk", 1);
    sim.add_clock(clk, PERIOD);
    let others = build(&mut sim);
    let log = Rc::new(RefCell::new(Vec::new()));
    let sink = log.clone();
    let inputs = others.clone();
    sim.add_clocked(
        "ff",
        CompKind::UserStatic,
        Box::new(move |ctx: &mut Ctx<'_>| {
            let changed = inputs.iter().map(|&s| ctx.changed(s)).collect();
            let seen = (ctx.now(), ctx.rose(clk), ctx.fell(clk), changed);
            sink.borrow_mut().push(seen);
        }),
        clk,
        &others,
    );
    (sim, others, log)
}

/// The evals logged at time `t`.
fn seen_at(log: &Log, t: u64) -> Vec<Seen> {
    log.borrow().iter().filter(|e| e.0 == t).cloned().collect()
}

const MODES: [ExecMode; 2] = [ExecMode::EventDriven, ExecMode::Compiled];

/// `always @(posedge clk)`: a falling clock wakes nobody, in both modes.
#[test]
fn posedge_listener_is_not_dispatched_when_its_clock_falls() {
    for mode in MODES {
        let (mut sim, _, log) = posedge_listener(mode, |_| Vec::new());
        sim.run_until(10 * PERIOD).unwrap();
        let log = log.borrow();
        assert!(log.iter().all(|e| !e.2), "{mode}: dispatched on a fall");
        // The initial eval, the X->0 initialisation, then one per rise.
        assert_eq!(log.len(), 2 + 10, "{mode}");
        assert_eq!(log.iter().filter(|e| e.1).count(), 10, "{mode}");
        // The falls cost no delta: one per rise, one at t=0.
        assert_eq!(sim.stats().deltas, 2 + 10, "{mode}");
    }
}

/// The X->0 initialisation is not a fall from a driven 1, so it
/// dispatches posedge listeners, after the initial evals and in the
/// clock's list order.
#[test]
fn clock_initialisation_dispatches_posedge_listeners() {
    for mode in MODES {
        let mut sim = Simulator::new();
        sim.set_exec_mode(mode);
        let clk = sim.signal("clk", 1);
        sim.add_clock(clk, PERIOD);
        let log = Rc::new(RefCell::new(Vec::new()));
        for name in ["a", "b"] {
            let sink = log.clone();
            sim.add_clocked(
                name,
                CompKind::UserStatic,
                Box::new(move |ctx: &mut Ctx<'_>| {
                    sink.borrow_mut()
                        .push((name, ctx.changed(clk), ctx.get_u64(clk)));
                }),
                clk,
                &[],
            );
        }
        sim.settle().unwrap();
        assert_eq!(
            *log.borrow(),
            [
                ("a", false, None),
                ("b", false, None),
                ("a", true, Some(0)),
                ("b", true, Some(0)),
            ],
            "{mode}"
        );
    }
}

/// A reset that changes in the same delta as a falling edge dispatches
/// the posedge listener once, through its reset input.
#[test]
fn reset_release_on_a_falling_edge_dispatches_a_posedge_listener() {
    for mode in MODES {
        let (mut sim, _, log) = posedge_listener(mode, |sim| {
            let rst = sim.signal("rst", 1);
            sim.add_reset(rst, 2 * PERIOD);
            vec![rst]
        });
        sim.run_until(3 * PERIOD).unwrap();
        assert_eq!(seen_at(&log, PERIOD), [], "{mode}: a bare fall dispatched");
        let release = (2 * PERIOD, false, true, vec![true]);
        assert_eq!(seen_at(&log, 2 * PERIOD), [release], "{mode}");
    }
}

/// A clock edge applies at the top of its time point's first delta,
/// together with every drive due then: a listener sees the edge and a
/// `set_after` drive landing on it in one eval. A testbench poke issued
/// at a falling edge that woke nobody lands in that edge's delta too.
#[test]
fn drives_at_an_edge_time_share_the_edge_delta() {
    for mode in MODES {
        let (mut sim, inputs, log) = posedge_listener(mode, |sim| {
            let d = sim.signal_init("d", 1, 0);
            let go = sim.signal_init("go", 1, 0);
            sim.add_component(
                "stimulus",
                CompKind::Vip,
                Box::new(move |ctx: &mut Ctx<'_>| ctx.set_after(d, Lv::bit(true), PERIOD / 2)),
                &[],
            );
            vec![d, go]
        });
        let rise = PERIOD / 2;
        sim.run_until(rise).unwrap();
        let with_d = (rise, true, false, vec![true, false]);
        assert_eq!(seen_at(&log, rise), [with_d], "{mode}");
        sim.run_until(PERIOD).unwrap();
        assert_eq!(seen_at(&log, PERIOD), [], "{mode}");
        sim.poke_u64(inputs[1], 1);
        sim.settle().unwrap();
        let with_go = (PERIOD, false, true, vec![false, true]);
        assert_eq!(seen_at(&log, PERIOD), [with_go], "{mode}");
    }
}

/// Posedge and any-edge listeners mixed on one signal dispatch in
/// registration order. A rise, `X`->1 included, wakes all four; a fall
/// from a driven 1, 1->`X` included, wakes only the any-edge two.
#[test]
fn mixed_edge_listeners_dispatch_in_registration_order() {
    for mode in MODES {
        let mut sim = Simulator::new();
        sim.set_exec_mode(mode);
        let s = sim.signal("s", 1);
        let log = Rc::new(RefCell::new(Vec::new()));
        for (name, posedge) in [("a", true), ("b", false), ("c", true), ("d", false)] {
            let sink = log.clone();
            let body = Box::new(move |_: &mut Ctx<'_>| sink.borrow_mut().push(name));
            if posedge {
                sim.add_clocked(name, CompKind::UserStatic, body, s, &[]);
            } else {
                sim.add_component(name, CompKind::UserStatic, body, &[s]);
            }
        }
        sim.settle().unwrap();
        assert_eq!(*log.borrow(), ["a", "b", "c", "d"], "{mode}: initial evals");
        let steps = [
            ("X->1", Lv::bit(true), &["a", "b", "c", "d"][..]),
            ("1->0", Lv::bit(false), &["b", "d"][..]),
            ("0->1", Lv::bit(true), &["a", "b", "c", "d"][..]),
            ("1->X", Lv::xes(1), &["b", "d"][..]),
        ];
        for (edge, v, want) in steps {
            log.borrow_mut().clear();
            sim.poke(s, v);
            sim.settle().unwrap();
            assert_eq!(*log.borrow(), want, "{mode}: {edge}");
        }
    }
}

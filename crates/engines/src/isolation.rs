//! The Isolation module.
//!
//! To keep the spurious outputs of a region undergoing reconfiguration
//! from corrupting the static design, every region output is gated by an
//! AND with the inverted `isolate` control: while `isolate` is asserted
//! the static side sees clean zeros, whatever the region drives. The
//! module is part of the *user design* (it is synthesized), and the
//! paper's key point is that only ReSim-style simulation — which injects
//! `X` while the bitstream is in flight — actually *tests* it: under
//! Virtual Multiplexing the region never emits garbage, so a missing or
//! mis-controlled isolation module sails through simulation.

use rtlsim::{CompKind, Component, Ctx, Logic, Lv, SignalId, Simulator, TraceCat};

/// One gated signal pair.
#[derive(Debug, Clone, Copy)]
pub struct IsoPair {
    /// Region-side input.
    pub from: SignalId,
    /// Static-side output.
    pub to: SignalId,
}

/// The isolation component: `to = isolate ? 0 : from` per pair, with the
/// faithful gate-level X semantics (an `X` on `isolate` lets `X` through
/// wherever the data bit is not already 0).
pub struct Isolation {
    isolate: SignalId,
    pairs: Vec<IsoPair>,
    /// Trace lane for isolation-window spans (the region id).
    trace_track: u32,
}

impl Isolation {
    /// Build and register the module. The component re-evaluates on any
    /// input or control change, like the combinational gates it models.
    /// `trace_track` is the lane the module's isolation-window spans are
    /// filed under in the structured trace (the region id it guards).
    pub fn instantiate(
        sim: &mut Simulator,
        name: &str,
        isolate: SignalId,
        pairs: Vec<IsoPair>,
        trace_track: u32,
    ) {
        let mut sens = vec![isolate];
        sens.extend(pairs.iter().map(|p| p.from));
        let iso = Isolation {
            isolate,
            pairs,
            trace_track,
        };
        sim.add_component(name, CompKind::UserStatic, Box::new(iso), &sens);
    }
}

impl Component for Isolation {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        // The assert/release window of the isolation control, as a span
        // on the region's lane (edge-detected, so the per-pair loop
        // below stays emission-free).
        if ctx.rose(self.isolate) {
            ctx.trace_begin(TraceCat::Isolation, "window", self.trace_track, 0);
        } else if ctx.fell(self.isolate) {
            ctx.trace_end(TraceCat::Isolation, "window", self.trace_track, 0);
        }
        let gate = !ctx.get(self.isolate); // 1 = pass, 0 = clamp, X = X
        let g = gate.get(0);
        for i in 0..self.pairs.len() {
            let p = self.pairs[i];
            let v = ctx.get(p.from);
            let out = match g {
                Logic::One => v,
                Logic::Zero => Lv::zeros(v.width()),
                // X/Z on the control: every non-zero bit is unknown —
                // exactly what a real AND gate does.
                _ => v & Lv::xes(v.width()),
            };
            ctx.set(p.to, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlsim::Simulator;

    fn tb() -> (Simulator, SignalId, SignalId, SignalId) {
        let mut sim = Simulator::new();
        let isolate = sim.signal_init("isolate", 1, 0);
        let a_in = sim.signal_init("a_in", 8, 0);
        let a_out = sim.signal("a_out", 8);
        Isolation::instantiate(
            &mut sim,
            "iso",
            isolate,
            vec![IsoPair {
                from: a_in,
                to: a_out,
            }],
            0,
        );
        (sim, isolate, a_in, a_out)
    }

    #[test]
    fn passes_through_when_not_isolated() {
        let (mut sim, _iso, a_in, a_out) = tb();
        sim.poke_u64(a_in, 0xAB);
        sim.settle().unwrap();
        assert_eq!(sim.peek_u64(a_out), Some(0xAB));
    }

    #[test]
    fn clamps_to_zero_when_isolated_even_against_x() {
        let (mut sim, iso, a_in, a_out) = tb();
        sim.poke_u64(iso, 1);
        sim.poke(a_in, Lv::xes(8)); // region mid-reconfiguration
        sim.settle().unwrap();
        assert_eq!(sim.peek_u64(a_out), Some(0), "isolation must clamp X");
    }

    #[test]
    fn x_escapes_when_not_isolated() {
        // The bug.dpr.1 scenario: software never asserted isolate.
        let (mut sim, _iso, a_in, a_out) = tb();
        sim.poke(a_in, Lv::xes(8));
        sim.settle().unwrap();
        assert!(
            sim.peek(a_out).has_unknown(),
            "X leaks into the static region"
        );
    }

    #[test]
    fn x_on_control_poisons_nonzero_bits() {
        let (mut sim, iso, a_in, a_out) = tb();
        sim.poke(iso, Lv::xes(1));
        sim.poke_u64(a_in, 0b0000_0101);
        sim.settle().unwrap();
        let out = sim.peek(a_out);
        assert_eq!(out.get(1), Logic::Zero, "zero bits stay zero through AND");
        assert_eq!(out.get(0), Logic::X, "one bits become X");
    }
}

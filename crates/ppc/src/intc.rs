//! A small DCR-programmed interrupt controller.
//!
//! The Optical Flow Demonstrator's processing flow is driven by ISRs:
//! the start, end and reconfiguration of the video engines are all
//! signalled through interrupt lines gathered here (Figure 2 of the
//! paper). Registers (DCR):
//!
//! | offset | name   | behaviour                                     |
//! |--------|--------|-----------------------------------------------|
//! | 0      | STATUS | pending lines (read)                          |
//! | 1      | ENABLE | per-line enable mask (read/write)             |
//! | 2      | ACK    | write-1-to-clear pending bits                 |
//!
//! A rising edge on a line latches its pending bit; `irq` is high while
//! `STATUS & ENABLE != 0`; a same-cycle arrival survives an ACK.
//!
//! The `pulse_irq_bug` knob is the case study's bug.hw.4: the buggy
//! controller pulses `irq` for one cycle on a new pending bit instead of
//! holding the level until the ISR acknowledges it.

use dcr::RegFile;
use rtlsim::{CompKind, Component, Ctx, DoorbellId, SignalId, Simulator};

/// Register offsets within the controller's DCR block.
pub mod reg {
    /// Pending lines (read-only).
    pub const STATUS: u16 = 0;
    /// Per-line enable mask.
    pub const ENABLE: u16 = 1;
    /// Write-1-to-clear acknowledge.
    pub const ACK: u16 = 2;
}

/// The interrupt controller component.
pub struct IntController {
    clk: SignalId,
    rst: SignalId,
    lines: Vec<SignalId>,
    irq: SignalId,
    regs: RegFile,
    prev_levels: u32,
    pending: u32,
    /// Reproduces the "pulse instead of level" bug when true: `irq` is a
    /// single-cycle pulse on new pending bits rather than a level held
    /// until acknowledged — a processor busy in a multi-cycle bus stall
    /// misses it entirely (the case study's hung-pipeline static bug
    /// class).
    pulse_irq_bug: bool,
    prev_pending: u32,
    /// Interrupt lines plus reset: the park wake set.
    wake: Vec<SignalId>,
    /// Doorbell rung by DCR writes to the controller's registers.
    bell: DoorbellId,
}

impl IntController {
    /// Build and register the controller. `regs` must have at least 3
    /// registers; `lines` are the interrupt inputs (bit i = line i);
    /// `irq` is the output wired to the processor; `pulse_irq_bug`
    /// enables the pulse-instead-of-level defect.
    #[allow(clippy::too_many_arguments)]
    pub fn instantiate(
        sim: &mut Simulator,
        name: &str,
        clk: SignalId,
        rst: SignalId,
        lines: Vec<SignalId>,
        irq: SignalId,
        regs: RegFile,
        pulse_irq_bug: bool,
    ) {
        assert!(
            regs.len() >= 3,
            "interrupt controller needs 3 DCR registers"
        );
        assert!(lines.len() <= 32, "at most 32 interrupt lines");
        let mut sens = vec![rst];
        sens.extend_from_slice(&lines);
        let mut wake = lines.clone();
        wake.push(rst);
        let bell = sim.add_doorbell(regs.dirty_flag());
        let intc = IntController {
            clk,
            rst,
            lines,
            irq,
            regs,
            prev_levels: 0,
            pending: 0,
            pulse_irq_bug,
            prev_pending: 0,
            wake,
            bell,
        };
        sim.add_clocked(name, CompKind::UserStatic, Box::new(intc), clk, &sens);
    }
}

impl Component for IntController {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.is_high(self.rst) {
            self.pending = 0;
            self.prev_levels = 0;
            self.regs.set(reg::STATUS, 0);
            ctx.set_bit(self.irq, false);
            return;
        }
        if !ctx.rose(self.clk) {
            return;
        }
        // Sample lines and latch rising edges.
        let mut levels = 0u32;
        for (i, &l) in self.lines.iter().enumerate() {
            if ctx.is_high(l) {
                levels |= 1 << i;
            }
        }
        let rising = levels & !self.prev_levels;
        self.prev_levels = levels;

        // Apply software writes.
        let mut ack_mask = 0u32;
        for (off, v) in self.regs.take_writes() {
            if off == reg::ACK {
                ack_mask |= v;
            }
            // ENABLE writes take effect via the register file itself.
        }
        // New arrivals win over clears.
        self.pending &= !ack_mask;
        self.pending |= rising;

        self.regs.set(reg::STATUS, self.pending);
        let enable = self.regs.get(reg::ENABLE);
        let mut pulse_open = false;
        if self.pulse_irq_bug {
            // BUG: only newly pending, enabled bits pulse the line for a
            // single cycle.
            let newly = self.pending & !self.prev_pending;
            pulse_open = newly & enable != 0;
            ctx.set_bit(self.irq, pulse_open);
        } else {
            ctx.set_bit(self.irq, self.pending & enable != 0);
        }
        self.prev_pending = self.pending;
        // Once the line sampling reached its fixed point this state is a
        // pure function of lines/ENABLE/pending; sleep until a line or
        // reset moves, or software touches a register. A single-cycle
        // irq pulse keeps the controller awake so the next edge clears it.
        if !pulse_open {
            ctx.park_until(&self.wake, &[self.bell]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlsim::Simulator;

    const PERIOD: u64 = 10_000;

    struct Tb {
        sim: Simulator,
        lines: Vec<SignalId>,
        irq: SignalId,
        regs: RegFile,
    }

    fn tb() -> Tb {
        let mut sim = Simulator::new();
        let clk = sim.signal("clk", 1);
        let rst = sim.signal("rst", 1);
        sim.add_clock(clk, PERIOD);
        sim.add_reset(rst, 2 * PERIOD);
        let lines: Vec<SignalId> = (0..4)
            .map(|i| sim.signal_init(format!("l{i}"), 1, 0))
            .collect();
        let irq = sim.signal("irq", 1);
        let regs = RegFile::new(0x300, 3);
        IntController::instantiate(
            &mut sim,
            "intc",
            clk,
            rst,
            lines.clone(),
            irq,
            regs.clone(),
            false,
        );
        Tb {
            sim,
            lines,
            irq,
            regs,
        }
    }

    #[test]
    fn rising_edge_latches_and_enable_gates_irq() {
        let mut t = tb();
        t.sim.run_for(5 * PERIOD).unwrap();
        t.sim.poke_u64(t.lines[1], 1);
        t.sim.run_for(3 * PERIOD).unwrap();
        assert_eq!(t.regs.get(reg::STATUS), 0b10, "pending latched");
        assert_eq!(t.sim.peek_u64(t.irq), Some(0), "masked while ENABLE=0");
        t.regs.bus_write(0x300 + reg::ENABLE, 0b10);
        t.sim.run_for(2 * PERIOD).unwrap();
        assert_eq!(t.sim.peek_u64(t.irq), Some(1));
        // Level stays high but pending persists after line drops.
        t.sim.poke_u64(t.lines[1], 0);
        t.sim.run_for(2 * PERIOD).unwrap();
        assert_eq!(t.regs.get(reg::STATUS), 0b10);
    }

    #[test]
    fn ack_clears_only_selected_bits() {
        let mut t = tb();
        t.sim.run_for(5 * PERIOD).unwrap();
        t.sim.poke_u64(t.lines[0], 1);
        t.sim.poke_u64(t.lines[2], 1);
        t.sim.run_for(3 * PERIOD).unwrap();
        assert_eq!(t.regs.get(reg::STATUS), 0b101);
        t.regs.bus_write(0x300 + reg::ACK, 0b001);
        t.sim.run_for(2 * PERIOD).unwrap();
        assert_eq!(t.regs.get(reg::STATUS), 0b100);
    }

    #[test]
    fn arrival_during_ack_survives_in_correct_design() {
        let mut t = tb();
        t.sim.run_for(5 * PERIOD).unwrap();
        t.sim.poke_u64(t.lines[0], 1);
        t.sim.run_for(3 * PERIOD).unwrap();
        // Line 3 rises in the same cycle the ACK for line 0 lands.
        t.regs.bus_write(0x300 + reg::ACK, 0b1);
        t.sim.poke_u64(t.lines[3], 1);
        t.sim.run_for(2 * PERIOD).unwrap();
        assert_eq!(t.regs.get(reg::STATUS), 0b1000, "new arrival must survive");
    }
}

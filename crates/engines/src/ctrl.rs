//! The engine-control block: the static-region DCR registers that were
//! moved *out* of the reconfigurable region, bridged onto the parameter
//! wires and start/reset strobes both engines share.

use crate::ports::EngineParamSignals;
use dcr::RegFile;
use rtlsim::{CompKind, Component, Ctx, DoorbellId, SignalId, Simulator, TraceCat};

/// DCR register offsets of an engine-control block.
pub mod reg {
    /// Write: bit0 = start pulse, bit1 = engine reset pulse.
    pub const CTRL: u16 = 0;
    /// Read: bit0 = busy, bit1 = done (latched until next CTRL write).
    pub const STATUS: u16 = 1;
    /// Source image byte address.
    pub const SRC: u16 = 2;
    /// Destination image byte address.
    pub const DST: u16 = 3;
    /// Auxiliary input byte address (ME: previous census image).
    pub const AUX: u16 = 4;
    /// Vector output byte address (ME).
    pub const VEC: u16 = 5;
    /// Frame width in pixels.
    pub const WIDTH: u16 = 6;
    /// Frame height in pixels.
    pub const HEIGHT: u16 = 7;
}

/// CTRL bit: start.
pub const CTRL_GO: u32 = 1;
/// CTRL bit: engine reset (latches parameters).
pub const CTRL_RESET: u32 = 2;

/// The control block component.
pub struct EngineCtrl {
    clk: SignalId,
    rst: SignalId,
    regs: RegFile,
    params: EngineParamSignals,
    go: SignalId,
    ereset: SignalId,
    /// Post-isolation busy/done as seen from the static region.
    busy_in: SignalId,
    done_in: SignalId,
    /// Interrupt line to the INTC (pulses with done).
    irq_out: SignalId,
    done_latch: bool,
    go_pending: bool,
    rst_pending: bool,
    /// Trace lane for run spans (the region id this block fronts).
    trace_track: u32,
    /// An engine-run span is open (trace bookkeeping only).
    run_open: bool,
    /// Doorbell rung by DCR writes to this block's registers.
    bell: DoorbellId,
}

impl EngineCtrl {
    /// Build and register the block. `trace_track` is the lane engine
    /// start/done spans are filed under in the structured trace (the
    /// region id this block fronts).
    #[allow(clippy::too_many_arguments)]
    pub fn instantiate(
        sim: &mut Simulator,
        name: &str,
        clk: SignalId,
        rst: SignalId,
        regs: RegFile,
        params: EngineParamSignals,
        go: SignalId,
        ereset: SignalId,
        busy_in: SignalId,
        done_in: SignalId,
        irq_out: SignalId,
        trace_track: u32,
    ) {
        assert!(
            regs.len() >= 8,
            "engine control block needs 8 DCR registers"
        );
        let bell = sim.add_doorbell(regs.dirty_flag());
        let c = EngineCtrl {
            clk,
            rst,
            regs,
            params,
            go,
            ereset,
            busy_in,
            done_in,
            irq_out,
            done_latch: false,
            go_pending: false,
            rst_pending: false,
            trace_track,
            run_open: false,
            bell,
        };
        sim.add_clocked(name, CompKind::UserStatic, Box::new(c), clk, &[rst]);
    }
}

impl Component for EngineCtrl {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.is_high(self.rst) {
            if self.run_open {
                self.run_open = false;
                ctx.trace_end(TraceCat::Engine, "run", self.trace_track, u64::MAX);
            }
            ctx.set_bit(self.go, false);
            ctx.set_bit(self.ereset, false);
            ctx.set_bit(self.irq_out, false);
            self.done_latch = false;
            self.go_pending = false;
            self.rst_pending = false;
            return;
        }
        if !ctx.rose(self.clk) {
            return;
        }
        // Default: strobes are single-cycle.
        ctx.set_bit(self.go, false);
        ctx.set_bit(self.ereset, false);
        for (off, v) in self.regs.take_writes() {
            match off {
                reg::CTRL => {
                    if v & CTRL_GO != 0 {
                        self.go_pending = true;
                    }
                    if v & CTRL_RESET != 0 {
                        self.rst_pending = true;
                    }
                    self.done_latch = false;
                }
                reg::SRC => ctx.set_u64(self.params.src_addr, v as u64),
                reg::DST => ctx.set_u64(self.params.dst_addr, v as u64),
                reg::AUX => ctx.set_u64(self.params.aux_addr, v as u64),
                reg::VEC => ctx.set_u64(self.params.vec_addr, v as u64),
                reg::WIDTH => ctx.set_u64(self.params.width, v as u64),
                reg::HEIGHT => ctx.set_u64(self.params.height, v as u64),
                _ => {}
            }
        }
        // Issue pending strobes (one cycle after the DCR write lands, so
        // parameter writes from the same burst are already on the wires).
        let mut strobed = false;
        if self.rst_pending {
            self.rst_pending = false;
            if self.run_open {
                self.run_open = false;
                ctx.trace_end(TraceCat::Engine, "run", self.trace_track, 1);
            }
            ctx.set_bit(self.ereset, true);
            strobed = true;
        } else if self.go_pending {
            self.go_pending = false;
            if !self.run_open {
                self.run_open = true;
                ctx.trace_begin(TraceCat::Engine, "run", self.trace_track, 0);
            }
            ctx.set_bit(self.go, true);
            strobed = true;
        }
        // Status readback. An X on the post-isolation lines (broken
        // isolation during reconfiguration) would corrupt STATUS; we
        // record it as a lossy 0 plus a warning, matching what a
        // synthesized register would capture nondeterministically.
        let busy = ctx.get(self.busy_in);
        let done = ctx.get(self.done_in);
        if busy.has_unknown() || done.has_unknown() {
            ctx.warn("engine status lines carry X");
        }
        if done.truthy() {
            if self.run_open {
                self.run_open = false;
                ctx.trace_end(TraceCat::Engine, "run", self.trace_track, 0);
            }
            self.done_latch = true;
        }
        let status = (busy.truthy() as u32) | ((self.done_latch as u32) << 1);
        self.regs.set(reg::STATUS, status);
        ctx.set_bit(self.irq_out, done.truthy());
        // Quiescent when no strobe is pending or in flight and the status
        // lines are clean: future evals are pure resampling until the
        // engine moves busy/done, software writes a register (doorbell),
        // or reset changes. X-ed status lines keep the block awake so the
        // per-posedge warning cadence matches event-driven execution.
        if !strobed
            && !self.go_pending
            && !self.rst_pending
            && !busy.has_unknown()
            && !done.has_unknown()
        {
            ctx.park_until(&[self.busy_in, self.done_in, self.rst], &[self.bell]);
        }
    }
}

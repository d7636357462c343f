//! Virtual Multiplexing — the traditional baseline for simulating DPR.
//!
//! Both engines live inside an `Engine_wrapper`; a multiplexer selects
//! the "active" one, and the selector is an `engine_signature` register
//! written by (specially hacked) software over the DCR bus. Module swaps
//! are therefore instantaneous, the reconfiguration controller is never
//! exercised, nothing emits garbage during a swap, and the isolation
//! module is untested — the exact limitations the paper's Section IV-A
//! catalogues.
//!
//! The `engine_signature` register exists *only* in this simulation
//! configuration, which is how the case study's bug.hw.2 becomes a false
//! alarm: if the register is not reset at start-up
//! ([`VmuxConfig::reset_signature`] = `None`), no engine is ever
//! selected and the system hangs — in a way the real hardware never
//! would.

use crate::portal::{connect, quiesce, RrBoundary};
use dcr::RegFile;
use engines::EngineIf;
use rtlsim::{CompKind, Component, Ctx, DoorbellId, SignalId, Simulator};

/// Virtual-multiplexing configuration.
#[derive(Debug, Clone, Copy)]
pub struct VmuxConfig {
    /// Value loaded into `engine_signature` at reset; `None` models the
    /// designer forgetting to initialise it (bug.hw.2: the register
    /// powers up to garbage that selects no engine).
    pub reset_signature: Option<u32>,
}

impl Default for VmuxConfig {
    fn default() -> Self {
        VmuxConfig {
            reset_signature: Some(0),
        }
    }
}

/// Uninitialised power-up garbage for the signature register.
const GARBAGE: u32 = 0xFFFF_FFFF;

struct VmuxCtl {
    clk: SignalId,
    rst: SignalId,
    regs: RegFile,
    cfg: VmuxConfig,
    /// Signature value as a kernel signal (selector of the mux).
    signature: SignalId,
    /// Doorbell rung by DCR writes to the signature register.
    bell: DoorbellId,
}

impl Component for VmuxCtl {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.is_high(self.rst) {
            let v = self.cfg.reset_signature.unwrap_or(GARBAGE);
            self.regs.set(0, v);
            ctx.set_u64(self.signature, v as u64);
            return;
        }
        if !ctx.rose(self.clk) {
            return;
        }
        for (off, v) in self.regs.take_writes() {
            if off == 0 {
                ctx.set_u64(self.signature, v as u64);
            }
        }
        // Purely software-driven: only a register write or reset can
        // change the signature output.
        ctx.park_until(&[self.rst], &[self.bell]);
    }
}

struct VmuxMux {
    modules: Vec<(u32, EngineIf)>,
    boundary: RrBoundary,
    signature: SignalId,
    /// The signature of the previous eval; `None` before the first.
    steering: Option<u32>,
}

impl Component for VmuxMux {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let sig = ctx.get(self.signature).to_u64_lossy() as u32;
        let all = self.steering != Some(sig);
        self.steering = Some(sig);
        let mut selected: Option<EngineIf> = None;
        for (id, m) in &self.modules {
            let sel = *id == sig;
            if all {
                ctx.set_bit(m.sel, sel);
            }
            if sel {
                selected = Some(*m);
            } else if all {
                quiesce(ctx, m);
            }
        }
        // Nothing selected: the wrapper outputs idle zeros — note: NO
        // erroneous values, unlike real reconfiguration.
        connect(ctx, selected.as_ref(), &self.boundary, all);
    }
}

/// Instantiate the Virtual-Multiplexing wrapper.
///
/// `modules` pairs each engine's signature value with its interface;
/// `regs` is the simulation-only `engine_signature` DCR register block
/// (1 register) the hacked software writes to swap engines.
#[allow(clippy::too_many_arguments)]
pub fn instantiate_vmux(
    sim: &mut Simulator,
    name: &str,
    clk: SignalId,
    rst: SignalId,
    regs: RegFile,
    modules: Vec<(u32, EngineIf)>,
    boundary: RrBoundary,
    cfg: VmuxConfig,
) {
    assert!(!regs.is_empty(), "engine_signature needs one register");
    let init = cfg.reset_signature.unwrap_or(GARBAGE);
    let signature = sim.signal_init(format!("{name}.signature"), 32, init as u64);
    let bell = sim.add_doorbell(regs.dirty_flag());
    let ctl = VmuxCtl {
        clk,
        rst,
        regs,
        cfg,
        signature,
        bell,
    };
    sim.add_clocked(
        format!("{name}.ctl"),
        CompKind::Artifact,
        Box::new(ctl),
        clk,
        &[rst],
    );

    let mut sens: Vec<SignalId> = vec![signature];
    for (_, e) in &modules {
        sens.push(e.busy);
        sens.push(e.done);
        sens.extend_from_slice(&e.plb.master_driven());
    }
    sens.extend_from_slice(&boundary.plb.bus_driven());
    let mux = VmuxMux {
        modules,
        boundary,
        signature,
        steering: None,
    };
    sim.add_component(
        format!("{name}.mux"),
        CompKind::Artifact,
        Box::new(mux),
        &sens,
    );
}

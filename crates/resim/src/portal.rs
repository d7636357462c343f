//! The extended portal and region multiplexer — ReSim's stand-in for the
//! slice of configuration memory a reconfigurable region maps to.
//!
//! All candidate modules are instantiated in parallel (like Virtual
//! Multiplexing), but the *selection* is driven by bitstream traffic
//! parsed by the ICAP artifact rather than by a software-written
//! signature register, so the software under test is exactly the
//! software that ships.
//!
//! Two components cooperate:
//!
//! * [`ExtendedPortal`] (clocked) — tracks the region's active module,
//!   reacting to swap/capture/restore strobes addressed to its region ID.
//! * `RrMux` (combinational) — steers the active module's outputs to the
//!   region boundary, injects the error source's value while the SimB
//!   payload streams, and fans the boundary's bus responses back to the
//!   selected module. Its evaluation cost is charged to the profiler on
//!   every engine-IO toggle, which is precisely the 1.4% overhead the
//!   paper measures for the `Engine_wrapper` multiplexer.

use crate::icap::IcapPort;
use engines::EngineIf;
use plb::MasterPort;
use rtlsim::{CompKind, Component, Ctx, Lv, SignalId, Simulator, TraceCat};
use std::cell::RefCell;
use std::rc::Rc;

/// Source of the values driven onto region outputs during
/// reconfiguration. The default drives `X` (like DCS X-injection); the
/// paper notes advanced users can override it for design-specific tests.
pub trait ErrorSource {
    /// Value to drive on an output of `width` bits.
    fn value(&mut self, width: u8) -> Lv;
}

/// The default: undefined `X` on every output bit.
pub struct XSource;

impl ErrorSource for XSource {
    fn value(&mut self, width: u8) -> Lv {
        Lv::xes(width)
    }
}

/// Drives zeros — modelling an optimistic simulator that never emits
/// garbage (useful as an ablation: bugs the X injection catches vanish).
pub struct SilentSource;

impl ErrorSource for SilentSource {
    fn value(&mut self, width: u8) -> Lv {
        Lv::zeros(width)
    }
}

/// Drives pseudo-random *known* values — garbage that is not `X`, for
/// testing checkers that only look at value ranges.
pub struct RandomSource {
    state: u64,
}

impl RandomSource {
    /// Seeded random source.
    pub fn new(seed: u64) -> RandomSource {
        RandomSource { state: seed | 1 }
    }
}

impl ErrorSource for RandomSource {
    fn value(&mut self, width: u8) -> Lv {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        Lv::from_u64(width, self.state >> 8)
    }
}

/// Region modelling fidelity options (ablation knobs; the defaults are
/// ReSim's faithful behaviour).
#[derive(Debug, Clone, Copy)]
pub struct RegionOptions {
    /// Deselect every module and drive the error source while the SimB
    /// payload streams. Disabling this yields the optimistic
    /// DCS/VMUX-style model in which the region never emits garbage and
    /// the configured module stays live through the rewrite.
    pub deselect_during_inject: bool,
}

impl Default for RegionOptions {
    fn default() -> Self {
        RegionOptions {
            deselect_during_inject: true,
        }
    }
}

/// The boundary signals of a reconfigurable region as seen by the static
/// design: one engine-shaped interface.
#[derive(Debug, Clone, Copy)]
pub struct RrBoundary {
    /// Region busy (from the active module).
    pub busy: SignalId,
    /// Region done pulse.
    pub done: SignalId,
    /// The region's shared bus master port (this is what connects to the
    /// PLB, usually through the isolation module).
    pub plb: MasterPort,
}

impl RrBoundary {
    /// Allocate boundary signals under `prefix`.
    pub fn alloc(sim: &mut Simulator, prefix: &str) -> RrBoundary {
        RrBoundary {
            busy: sim.signal(format!("{prefix}.busy"), 1),
            done: sim.signal(format!("{prefix}.done"), 1),
            plb: MasterPort::alloc(sim, &format!("{prefix}.plb")),
        }
    }
}

/// Portal status shared with the testbench.
#[derive(Debug, Default, Clone)]
pub struct PortalStats {
    /// Module swaps applied to this region.
    pub swaps: u64,
    /// GCAPTURE strobes addressed to this region.
    pub captures: u64,
    /// GRESTORE strobes addressed to this region.
    pub restores: u64,
    /// Swap strobes naming an unknown module ID.
    pub bad_module_ids: u64,
}

/// The per-region portal state machine.
pub struct ExtendedPortal {
    rst: SignalId,
    rr_id: u8,
    icap: IcapPort,
    module_ids: Vec<u8>,
    /// Kernel signal holding the active module index (0xFF = none).
    active: SignalId,
    initial: u64,
    stats: Rc<RefCell<PortalStats>>,
}

const NONE: u64 = 0xFF;

impl Component for ExtendedPortal {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.is_high(self.rst) {
            ctx.set_u64(self.active, self.initial);
            return;
        }
        // Purely event-driven: the portal is sensitive to the ICAP's
        // strobes, not the clock — like ModelSim's artifacts it costs
        // nothing while no bitstream flows.
        if ctx.is_high(self.icap.swap_strobe)
            && ctx.get(self.icap.swap_rr).to_u64_lossy() as u8 == self.rr_id
        {
            let module = ctx.get(self.icap.swap_module).to_u64_lossy() as u8;
            match self.module_ids.iter().position(|m| *m == module) {
                Some(idx) => {
                    ctx.trace_instant(TraceCat::Portal, "swap", self.rr_id as u32, module as u64);
                    ctx.set_u64(self.active, idx as u64);
                    self.stats.borrow_mut().swaps += 1;
                }
                None => {
                    self.stats.borrow_mut().bad_module_ids += 1;
                    ctx.error(format!(
                        "SimB configured unknown module id {module:#04x} into region {:#04x}",
                        self.rr_id
                    ));
                    ctx.set_u64(self.active, NONE);
                }
            }
        }
        if ctx.is_high(self.icap.capture_strobe)
            && ctx.get(self.icap.swap_rr).to_u64_lossy() as u8 == self.rr_id
        {
            self.stats.borrow_mut().captures += 1;
        }
        if ctx.is_high(self.icap.restore_strobe)
            && ctx.get(self.icap.swap_rr).to_u64_lossy() as u8 == self.rr_id
        {
            self.stats.borrow_mut().restores += 1;
        }
    }
}

struct RrMux {
    rr_id: u8,
    modules: Vec<EngineIf>,
    boundary: RrBoundary,
    active: SignalId,
    inject: SignalId,
    /// The ICAP's current FAR region — the stream in flight only rewrites
    /// THIS region's frames when it matches `rr_id`. Read un-sensitised:
    /// the FAR packet always precedes the payload, so the value is stable
    /// by the time `inject` rises.
    swap_rr: SignalId,
    opts: RegionOptions,
    /// ICAP capture/restore strobes, forwarded to the configured module.
    capture: SignalId,
    restore: SignalId,
    source: Box<dyn ErrorSource>,
}

impl Component for RrMux {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let inject = self.opts.deselect_during_inject && {
            let v = ctx.get(self.inject);
            (v.truthy() || v.has_unknown())
                && ctx.get(self.swap_rr).to_u64_lossy() as u8 == self.rr_id
        };
        let active = ctx.get(self.active).to_u64_lossy();
        let b = self.boundary;
        // Module selection: the configured module, unless its
        // configuration frames are mid-rewrite. State-capture/restore
        // strobes reach only the configured module.
        let cap = ctx.get(self.capture);
        let res = ctx.get(self.restore);
        for (i, m) in self.modules.iter().enumerate() {
            let mine = !inject && active == i as u64;
            ctx.set_bit(m.sel, mine);
            ctx.set_bit(m.capture, mine && cap.truthy());
            ctx.set_bit(m.restore, mine && res.truthy());
        }
        let sel = if !inject && (active as usize) < self.modules.len() {
            Some(self.modules[active as usize])
        } else {
            None
        };
        // Quiesce bus responses into every non-selected module so a
        // freshly swapped-out engine never sees a stale grant.
        for m in &self.modules {
            if sel.map(|s| s.plb.gnt) == Some(m.plb.gnt) {
                continue;
            }
            ctx.set_bit(m.plb.gnt, false);
            ctx.set_bit(m.plb.addr_ack, false);
            ctx.set_bit(m.plb.wready, false);
            ctx.set_bit(m.plb.rvalid, false);
            ctx.set_u64(m.plb.rdata, 0);
            ctx.set_bit(m.plb.complete, false);
            ctx.set_bit(m.plb.err, false);
        }
        match sel {
            Some(m) if !inject => {
                ctx.set(b.busy, ctx.get(m.busy));
                ctx.set(b.done, ctx.get(m.done));
                // Forward the module's master-driven signals out...
                let from = m.plb.master_driven();
                let to = b.plb.master_driven();
                for (f, t) in from.iter().zip(to.iter()) {
                    ctx.set(*t, ctx.get(*f));
                }
                // ...and the boundary's bus responses back in.
                ctx.set(m.plb.gnt, ctx.get(b.plb.gnt));
                ctx.set(m.plb.addr_ack, ctx.get(b.plb.addr_ack));
                ctx.set(m.plb.wready, ctx.get(b.plb.wready));
                ctx.set(m.plb.rvalid, ctx.get(b.plb.rvalid));
                ctx.set(m.plb.rdata, ctx.get(b.plb.rdata));
                ctx.set(m.plb.complete, ctx.get(b.plb.complete));
                ctx.set(m.plb.err, ctx.get(b.plb.err));
            }
            _ => {
                // No configured module, or frames being rewritten: the
                // error source decides what the static region sees.
                let (bv, dv) = if inject {
                    (self.source.value(1), self.source.value(1))
                } else {
                    (Lv::zeros(1), Lv::zeros(1))
                };
                ctx.set(b.busy, bv);
                ctx.set(b.done, dv);
                for t in b.plb.master_driven() {
                    let w = 32; // widths coerced by Ctx::set
                    let v = if inject {
                        self.source.value(w)
                    } else {
                        Lv::zeros(w)
                    };
                    ctx.set(t, v);
                }
            }
        }
    }
}

/// Builder: instantiate the portal + mux pair for one region.
///
/// `modules` pairs each candidate module's SimB ID with its interface;
/// `initial` optionally names the module present in the initial (full)
/// configuration. Returns the portal stats handle.
#[allow(clippy::too_many_arguments)]
pub fn instantiate_region(
    sim: &mut Simulator,
    name: &str,
    clk: SignalId,
    rst: SignalId,
    rr_id: u8,
    icap: IcapPort,
    modules: Vec<(u8, EngineIf)>,
    boundary: RrBoundary,
    initial: Option<u8>,
    source: Box<dyn ErrorSource>,
) -> Rc<RefCell<PortalStats>> {
    instantiate_region_with(
        sim,
        name,
        clk,
        rst,
        rr_id,
        icap,
        modules,
        boundary,
        initial,
        source,
        RegionOptions::default(),
    )
}

/// As [`instantiate_region`] with explicit [`RegionOptions`].
#[allow(clippy::too_many_arguments)]
pub fn instantiate_region_with(
    sim: &mut Simulator,
    name: &str,
    // Kept for interface stability: earlier revisions clocked the portal.
    _clk: SignalId,
    rst: SignalId,
    rr_id: u8,
    icap: IcapPort,
    modules: Vec<(u8, EngineIf)>,
    boundary: RrBoundary,
    initial: Option<u8>,
    source: Box<dyn ErrorSource>,
    opts: RegionOptions,
) -> Rc<RefCell<PortalStats>> {
    let initial_idx = match initial {
        Some(id) => modules
            .iter()
            .position(|(m, _)| *m == id)
            .map(|i| i as u64)
            .unwrap_or(NONE),
        None => NONE,
    };
    let active = sim.signal_init(format!("{name}.active"), 8, initial_idx);
    let stats = Rc::new(RefCell::new(PortalStats::default()));
    let portal = ExtendedPortal {
        rst,
        rr_id,
        icap,
        module_ids: modules.iter().map(|(m, _)| *m).collect(),
        active,
        initial: initial_idx,
        stats: stats.clone(),
    };
    sim.add_component(
        format!("{name}.portal"),
        CompKind::Artifact,
        Box::new(portal),
        &[
            icap.swap_strobe,
            icap.capture_strobe,
            icap.restore_strobe,
            rst,
        ],
    );

    let ifs: Vec<EngineIf> = modules.iter().map(|(_, e)| *e).collect();
    // The mux re-evaluates whenever any engine IO, boundary response, or
    // steering state toggles — the paper's "triggered whenever the
    // engine IOs toggled".
    let mut sens: Vec<SignalId> = vec![
        active,
        icap.inject,
        icap.capture_strobe,
        icap.restore_strobe,
    ];
    for e in &ifs {
        sens.push(e.busy);
        sens.push(e.done);
        sens.extend_from_slice(&e.plb.master_driven());
    }
    sens.extend_from_slice(&[
        boundary.plb.gnt,
        boundary.plb.addr_ack,
        boundary.plb.wready,
        boundary.plb.rvalid,
        boundary.plb.rdata,
        boundary.plb.complete,
        boundary.plb.err,
    ]);
    let mux = RrMux {
        rr_id,
        modules: ifs,
        boundary,
        active,
        inject: icap.inject,
        swap_rr: icap.swap_rr,
        opts,
        capture: icap.capture_strobe,
        restore: icap.restore_strobe,
        source,
    };
    sim.add_component(
        format!("{name}.mux"),
        CompKind::Artifact,
        Box::new(mux),
        &sens,
    );
    stats
}

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
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PortalStats {
    /// Region ID carried in SimB frame addresses.
    pub rr_id: u8,
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
    /// The `(inject, active, capture, restore)` steering of the previous
    /// eval, as computed from the inputs; `None` before the first. It is
    /// compared by value: `inject` reads `swap_rr`, which does not wake
    /// the mux.
    steering: Option<(bool, u64, bool, bool)>,
}

impl Component for RrMux {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let inject = self.opts.deselect_during_inject && {
            let v = ctx.get(self.inject);
            (v.truthy() || v.has_unknown())
                && ctx.get(self.swap_rr).to_u64_lossy() as u8 == self.rr_id
        };
        let active = ctx.get(self.active).to_u64_lossy();
        let cap = ctx.is_high(self.capture);
        let res = ctx.is_high(self.restore);
        let steering = (inject, active, cap, res);
        // While injecting, every eval draws fresh error values, so it
        // re-drives everything.
        let all = inject || self.steering != Some(steering);
        self.steering = Some(steering);
        let b = self.boundary;
        let sel = if !inject && (active as usize) < self.modules.len() {
            Some(self.modules[active as usize])
        } else {
            None
        };
        if all {
            // Module selection: the configured module, unless its
            // configuration frames are mid-rewrite. State-capture/restore
            // strobes reach only the configured module.
            for (i, m) in self.modules.iter().enumerate() {
                let mine = !inject && active == i as u64;
                ctx.set_bit(m.sel, mine);
                ctx.set_bit(m.capture, mine && cap);
                ctx.set_bit(m.restore, mine && res);
            }
            for m in &self.modules {
                if sel.map(|s| s.plb.gnt) != Some(m.plb.gnt) {
                    quiesce(ctx, m);
                }
            }
        }
        if inject {
            // Frames being rewritten: the error source decides what the
            // static region sees.
            let (bv, dv) = (self.source.value(1), self.source.value(1));
            ctx.set(b.busy, bv);
            ctx.set(b.done, dv);
            for t in b.plb.master_driven() {
                let v = self.source.value(32); // widths coerced by Ctx::set
                ctx.set(t, v);
            }
        } else {
            connect(ctx, sel.as_ref(), &b, all);
        }
    }
}

/// Quiesce the bus responses into a module that is not selected, so a
/// freshly swapped-out engine never sees a stale grant. Shared by both
/// region muxes, as is [`connect`].
pub(crate) fn quiesce(ctx: &mut Ctx<'_>, m: &EngineIf) {
    for s in m.plb.bus_driven() {
        ctx.set_u64(s, 0);
    }
}

/// Connect the selected module to the region boundary: its busy, done
/// and master-driven bus signals go out, and the boundary's bus
/// responses come back in. With no module selected the boundary idles at
/// zero. `all` re-drives everything; otherwise only the inputs that
/// changed are forwarded, which is exact because both muxes wake on
/// every routed input, never park, and pass `all` whenever their
/// steering changed (see [`Ctx::route`]).
pub(crate) fn connect(ctx: &mut Ctx<'_>, sel: Option<&EngineIf>, b: &RrBoundary, all: bool) {
    match sel {
        Some(m) => {
            ctx.route(&[m.busy, m.done], &[b.busy, b.done], all, |v| v);
            ctx.route(&m.plb.master_driven(), &b.plb.master_driven(), all, |v| v);
            ctx.route(&b.plb.bus_driven(), &m.plb.bus_driven(), all, |v| v);
        }
        None if all => {
            ctx.set_bit(b.busy, false);
            ctx.set_bit(b.done, false);
            for t in b.plb.master_driven() {
                ctx.set_u64(t, 0);
            }
        }
        None => {}
    }
}

/// Builder: instantiate the portal + mux pair for one region.
///
/// `modules` pairs each candidate module's SimB ID with its interface;
/// `initial` optionally names the module present in the initial (full)
/// configuration; `source` drives the region outputs while the payload
/// streams, as `opts` allows. Returns the portal stats handle.
#[allow(clippy::too_many_arguments)]
pub fn instantiate_region(
    sim: &mut Simulator,
    name: &str,
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
    let stats = Rc::new(RefCell::new(PortalStats {
        rr_id,
        ..PortalStats::default()
    }));
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
    sens.extend_from_slice(&boundary.plb.bus_driven());
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
        steering: None,
    };
    sim.add_component(
        format!("{name}.mux"),
        CompKind::Artifact,
        Box::new(mux),
        &sens,
    );
    stats
}

//! Per-region SoC-fabric builders.
//!
//! [`AvSystem::build_with`](crate::AvSystem::build_with) instantiates the
//! static part of the demonstrator (memory, VIPs, interrupt controller,
//! CPU and the shared PLB) itself. This module holds what it builds once
//! per reconfigurable region — [`RegionNames`], [`engine_cluster`] and
//! [`region_isolation`] — plus [`system_control`], whose isolation
//! bitmask spans every region.
//!
//! The builders are *order-preserving*: they allocate signals and
//! components in the order the paper-reproduction outputs (tables, VCD,
//! kernel counters) are pinned to. Region index 0 reproduces the
//! single-region names; later regions derive theirs from the index.

use crate::system::{EngineKind, RegionSpec};
use dcr::RegFile;
use engines::{CensusEngine, EngineIf, EngineParamSignals, IsoPair, Isolation, MatchingEngine};
use plb::MasterPort;
use resim::RrBoundary;
use rtlsim::{CompKind, Component, Ctx, DoorbellId, SignalId, Simulator};
use video::MatchParams;

// ---------------------------------------------------------------------
// per-region naming
// ---------------------------------------------------------------------

/// Instance names of one reconfigurable region's machinery.
///
/// Region index 0 reproduces the legacy single-region names exactly
/// (`"isolate"`, `"eng.go"`, `"cie"`, ...); later regions derive names
/// from the index and the region's boundary prefix, so every region is
/// distinguishable in waveforms and monitor reports.
#[derive(Debug, Clone)]
pub struct RegionNames {
    /// Region index in [`RegionSpec`] order.
    pub idx: usize,
    /// Boundary signal prefix (`"rr"` for region 0).
    pub boundary: String,
    /// Extended-portal / wrapper instance prefix.
    pub portal: String,
    /// Engine-cluster shared-wire prefix (`"eng"` / `"eng1"` ...).
    pub eng: String,
    /// Engine control block instance name.
    pub eng_ctrl: String,
    /// Engine done/interrupt wire.
    pub eng_irq: String,
    /// Isolation control wire.
    pub isolate: String,
    /// Isolated busy output.
    pub iso_busy: String,
    /// Isolated done output.
    pub iso_done: String,
    /// Isolated bus-master port prefix.
    pub iso_port: String,
    /// Isolation component instance.
    pub isolation: String,
    /// Response-relay component instance.
    pub relay: String,
    /// VMUX wrapper instance prefix.
    pub vmux: String,
    /// DCR slave name of the region's signature register.
    pub sig_slave: String,
    /// Bus-monitor label of the region's master port.
    pub bus_label: String,
}

impl RegionNames {
    /// Compute the names for region `idx` with boundary prefix
    /// `boundary`.
    pub fn for_region(idx: usize, boundary: &str) -> RegionNames {
        let b = boundary;
        if idx == 0 {
            RegionNames {
                idx,
                boundary: b.to_string(),
                portal: format!("{b}0"),
                eng: "eng".into(),
                eng_ctrl: "eng_ctrl".into(),
                eng_irq: "irq.engine".into(),
                isolate: "isolate".into(),
                iso_busy: "iso.busy".into(),
                iso_done: "iso.done".into(),
                iso_port: format!("{b}_iso.plb"),
                isolation: "isolation".into(),
                relay: format!("{b}_rsp_relay"),
                vmux: "vmux".into(),
                sig_slave: "signature".into(),
                bus_label: format!("engine_{b}"),
            }
        } else {
            RegionNames {
                idx,
                boundary: b.to_string(),
                portal: format!("{b}{idx}"),
                eng: format!("eng{idx}"),
                eng_ctrl: format!("eng_ctrl{idx}"),
                eng_irq: format!("irq.engine{idx}"),
                isolate: format!("{b}.isolate"),
                iso_busy: format!("{b}.iso.busy"),
                iso_done: format!("{b}.iso.done"),
                iso_port: format!("{b}_iso.plb"),
                isolation: format!("{b}_isolation"),
                relay: format!("{b}_rsp_relay"),
                vmux: format!("vmux{idx}"),
                sig_slave: format!("signature{idx}"),
                bus_label: format!("engine_{b}"),
            }
        }
    }

    /// Instance name of a module of `kind` inside this region
    /// (`"cie"`/`"me"` for region 0, `"cie1"`/`"me1"` ...).
    pub fn module(&self, kind: EngineKind) -> String {
        let base = match kind {
            EngineKind::Census => "cie",
            EngineKind::Matching => "me",
        };
        if self.idx == 0 {
            base.to_string()
        } else {
            format!("{base}{}", self.idx)
        }
    }
}

// ---------------------------------------------------------------------
// engine cluster (the modules of one region)
// ---------------------------------------------------------------------

/// The engines of one region plus the static-region wires they share.
pub struct EngineCluster {
    /// Shared one-cycle start pulse.
    pub go: SignalId,
    /// Shared one-cycle soft-reset pulse.
    pub ereset: SignalId,
    /// Shared parameter wires (driven by the engine control block).
    pub params: EngineParamSignals,
    /// SimB module ID paired with each module's boundary interface, in
    /// [`RegionSpec`] order.
    pub modules: Vec<(u8, EngineIf)>,
    /// Busy signal of the census module, when the region has one.
    pub census_busy: Option<SignalId>,
    /// Busy signal of the matching module, when the region has one.
    pub matching_busy: Option<SignalId>,
}

/// Instantiate every module of `spec` in parallel (all interfaces are
/// allocated before any engine body, matching the legacy layout).
pub fn engine_cluster(
    sim: &mut Simulator,
    clk: SignalId,
    rst: SignalId,
    names: &RegionNames,
    spec: &RegionSpec,
) -> EngineCluster {
    let go = sim.signal_init(format!("{}.go", names.eng), 1, 0);
    let ereset = sim.signal_init(format!("{}.ereset", names.eng), 1, 0);
    let params = EngineParamSignals::alloc(sim, &format!("{}.params", names.eng));
    let ifs: Vec<EngineIf> = spec
        .modules
        .iter()
        .map(|m| EngineIf::alloc(sim, &names.module(m.kind), clk, rst, go, ereset, &params))
        .collect();
    let mut census_busy = None;
    let mut matching_busy = None;
    for (m, io) in spec.modules.iter().zip(&ifs) {
        let name = names.module(m.kind);
        match m.kind {
            EngineKind::Census => {
                CensusEngine::instantiate(sim, &name, *io);
                census_busy.get_or_insert(io.busy);
            }
            EngineKind::Matching => {
                MatchingEngine::instantiate(sim, &name, *io, MatchParams::default());
                matching_busy.get_or_insert(io.busy);
            }
        }
    }
    EngineCluster {
        go,
        ereset,
        params,
        modules: spec
            .modules
            .iter()
            .zip(ifs)
            .map(|(m, io)| (m.id, io))
            .collect(),
        census_busy,
        matching_busy,
    }
}

// ---------------------------------------------------------------------
// region isolation
// ---------------------------------------------------------------------

/// The isolation layer between one region boundary and the static
/// system: gated busy/done/bus-request wires plus the region's bus
/// master port.
pub struct RegionIsolation {
    /// Isolation control (high = region outputs forced to zero).
    pub isolate: SignalId,
    /// Gated busy.
    pub busy: SignalId,
    /// Gated done.
    pub done: SignalId,
    /// The region's isolated master port on the shared bus.
    pub port: MasterPort,
}

/// Copies the bus responses of the isolated port back to the region
/// boundary (inputs into the region need no isolation). The first eval
/// copies all of them, later ones only those that changed (see
/// [`Ctx::route`]).
struct ReverseRelay {
    from: MasterPort,
    to: MasterPort,
    driven: bool,
}

impl Component for ReverseRelay {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let all = !self.driven;
        self.driven = true;
        ctx.route(&self.from.bus_driven(), &self.to.bus_driven(), all, |v| v);
    }
}

/// Wrap `boundary` in an Isolation instance and a response relay.
pub fn region_isolation(
    sim: &mut Simulator,
    names: &RegionNames,
    boundary: RrBoundary,
    rr_id: u8,
) -> RegionIsolation {
    let isolate = sim.signal_init(&*names.isolate, 1, 0);
    let busy = sim.signal(&*names.iso_busy, 1);
    let done = sim.signal(&*names.iso_done, 1);
    let port = MasterPort::alloc(sim, &names.iso_port);
    let mut pairs = vec![
        IsoPair {
            from: boundary.busy,
            to: busy,
        },
        IsoPair {
            from: boundary.done,
            to: done,
        },
    ];
    for (from, to) in boundary
        .plb
        .master_driven()
        .iter()
        .zip(port.master_driven())
    {
        pairs.push(IsoPair { from: *from, to });
    }
    Isolation::instantiate(sim, &names.isolation, isolate, pairs, rr_id as u32);
    let rev = ReverseRelay {
        from: port,
        to: boundary.plb,
        driven: false,
    };
    sim.add_component(
        &*names.relay,
        CompKind::UserStatic,
        Box::new(rev),
        &port.bus_driven(),
    );
    RegionIsolation {
        isolate,
        busy,
        done,
        port,
    }
}

// ---------------------------------------------------------------------
// system control
// ---------------------------------------------------------------------

/// Drives the per-region isolate wires from the SYS DCR block and stores
/// heartbeats. Register 0 is an isolation bitmask: bit *i* controls
/// region *i* — the single-region system's software, which writes 0/1,
/// is the one-bit case.
struct SysCtrl {
    clk: SignalId,
    rst: SignalId,
    regs: RegFile,
    isolates: Vec<SignalId>,
    /// Doorbell rung by software DCR writes to the SYS block.
    bell: DoorbellId,
}

impl Component for SysCtrl {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.is_high(self.rst) {
            for &s in &self.isolates {
                ctx.set_bit(s, false);
            }
            return;
        }
        if !ctx.rose(self.clk) {
            return;
        }
        for (off, v) in self.regs.take_writes() {
            if off == 0 {
                for (i, &s) in self.isolates.iter().enumerate() {
                    ctx.set_bit(s, v & (1 << i) != 0);
                }
            }
            // off 2 = heartbeat: value is already stored in the regfile.
        }
        // Purely software-driven: only a DCR write or reset can change
        // the isolate outputs.
        ctx.park_until(&[self.rst], &[self.bell]);
    }
}

/// Instantiate the system-control block over the regions' isolate wires
/// (in region order).
pub fn system_control(
    sim: &mut Simulator,
    clk: SignalId,
    rst: SignalId,
    regs: RegFile,
    isolates: Vec<SignalId>,
) {
    let bell = sim.add_doorbell(regs.dirty_flag());
    let ctl = SysCtrl {
        clk,
        rst,
        regs,
        isolates,
        bell,
    };
    sim.add_clocked("sysctrl", CompKind::UserStatic, Box::new(ctl), clk, &[rst]);
}

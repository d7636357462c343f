//! Composable SoC-fabric builders.
//!
//! `AvSystem::build` used to be one ~400-line monolith that allocated
//! every signal and component of the demonstrator inline. This module
//! splits it into reusable subsystem builders — clocking/reset, main
//! memory, engine clusters, region isolation, system control, video
//! VIPs, interrupt fabric, CPU, shared bus — each returning a typed
//! handle struct, so a platform is assembled from parts.
//!
//! Builders are deliberately *order-preserving*: the single-region
//! system assembled through them allocates exactly the same signals and
//! components, in exactly the same order, as the original monolith —
//! which is what keeps the paper-reproduction outputs (tables, VCD,
//! kernel counters) byte-identical. Anything that generalises to N
//! regions ([`RegionNames`], [`engine_cluster`], [`region_isolation`],
//! [`system_control`]) reproduces the legacy names for region index 0
//! and derives names for the rest.

use crate::system::{EngineKind, RegionSpec, CLK_PERIOD_PS};
use dcr::RegFile;
use engines::{CensusEngine, EngineIf, EngineParamSignals, IsoPair, Isolation, MatchingEngine};
use plb::{
    AddressWindow, ArbMode, MasterPort, MemFaultHandle, MemorySlave, MonitorStats, PlbBus,
    PlbBusConfig, PlbMonitor, SharedMem, SlavePort,
};
use ppc::{IntController, IssConfig, IssStats, PpcIss};
use resim::RrBoundary;
use rtlsim::{Clock, CompKind, Component, Ctx, DoorbellId, ResetGen, SignalId, Simulator};
use std::cell::RefCell;
use std::rc::Rc;
use video::{Frame, MatchParams};

// ---------------------------------------------------------------------
// clocking / reset
// ---------------------------------------------------------------------

/// The global clock and power-on reset wires.
#[derive(Debug, Clone, Copy)]
pub struct ClockReset {
    /// System clock.
    pub clk: SignalId,
    /// Power-on reset (high for the first few cycles).
    pub rst: SignalId,
}

/// Allocate `clk`/`rst` and the generators driving them.
pub fn clock_reset(sim: &mut Simulator) -> ClockReset {
    let clk = sim.signal("clk", 1);
    let rst = sim.signal("rst", 1);
    sim.add_component(
        "clkgen",
        CompKind::Vip,
        Box::new(Clock::new(clk, CLK_PERIOD_PS)),
        &[],
    );
    sim.add_component(
        "rstgen",
        CompKind::Vip,
        Box::new(ResetGen::new(rst, 5 * CLK_PERIOD_PS)),
        &[],
    );
    ClockReset { clk, rst }
}

// ---------------------------------------------------------------------
// main memory
// ---------------------------------------------------------------------

/// Main memory and its bus-slave port.
pub struct MainMemory {
    /// Backing store (shared with the CPU ISS and test probes).
    pub mem: SharedMem,
    /// The DDR controller's slave port on the PLB.
    pub port: SlavePort,
    /// Transient-fault injection handle.
    pub faults: MemFaultHandle,
}

/// Instantiate the DDR model.
pub fn main_memory(
    sim: &mut Simulator,
    cr: ClockReset,
    bytes: usize,
    wait_states: u32,
    stale_first_beat_bug: bool,
) -> MainMemory {
    let mem = SharedMem::new(bytes);
    let (port, faults) = MemorySlave::instantiate_faulty(
        sim,
        "ddr",
        cr.clk,
        cr.rst,
        mem.clone(),
        wait_states,
        stale_first_beat_bug,
    );
    MainMemory { mem, port, faults }
}

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
    cr: ClockReset,
    names: &RegionNames,
    spec: &RegionSpec,
) -> EngineCluster {
    let go = sim.signal_init(format!("{}.go", names.eng), 1, 0);
    let ereset = sim.signal_init(format!("{}.ereset", names.eng), 1, 0);
    let params = EngineParamSignals::alloc(sim, &format!("{}.params", names.eng));
    let ifs: Vec<EngineIf> = spec
        .modules
        .iter()
        .map(|m| {
            EngineIf::alloc(
                sim,
                &names.module(m.kind),
                cr.clk,
                cr.rst,
                go,
                ereset,
                &params,
            )
        })
        .collect();
    let mut census_busy = None;
    let mut matching_busy = None;
    for (m, io) in spec.modules.iter().zip(&ifs) {
        let name = names.module(m.kind);
        match m.kind {
            EngineKind::Census => {
                CensusEngine::instantiate(sim, &name, *io, 2);
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
/// boundary (inputs into the region need no isolation).
struct ReverseRelay {
    from: MasterPort,
    to: MasterPort,
}

impl Component for ReverseRelay {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set(self.to.gnt, ctx.get(self.from.gnt));
        ctx.set(self.to.addr_ack, ctx.get(self.from.addr_ack));
        ctx.set(self.to.wready, ctx.get(self.from.wready));
        ctx.set(self.to.rvalid, ctx.get(self.from.rvalid));
        ctx.set(self.to.rdata, ctx.get(self.from.rdata));
        ctx.set(self.to.complete, ctx.get(self.from.complete));
        ctx.set(self.to.err, ctx.get(self.from.err));
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
    };
    sim.add_component(
        &*names.relay,
        CompKind::UserStatic,
        Box::new(rev),
        &[
            port.gnt,
            port.addr_ack,
            port.wready,
            port.rvalid,
            port.rdata,
            port.complete,
            port.err,
        ],
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
    bell: Option<DoorbellId>,
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
        if let Some(bell) = self.bell {
            ctx.park_until(&[self.rst], &[bell]);
        }
    }
}

/// Instantiate the system-control block over the regions' isolate wires
/// (in region order).
pub fn system_control(sim: &mut Simulator, cr: ClockReset, regs: RegFile, isolates: Vec<SignalId>) {
    let bell = sim.add_doorbell(regs.dirty_flag());
    let ctl = SysCtrl {
        clk: cr.clk,
        rst: cr.rst,
        regs,
        isolates,
        bell: Some(bell),
    };
    let sens = [cr.clk, cr.rst];
    let comp = sim.add_component("sysctrl", CompKind::UserStatic, Box::new(ctl), &sens);
    sim.declare_clocked(comp, cr.clk);
}

// ---------------------------------------------------------------------
// video subsystem
// ---------------------------------------------------------------------

/// The camera and display VIPs.
pub struct VideoSubsystem {
    /// Camera frame-captured interrupt.
    pub vin_irq: SignalId,
    /// Display frame-shown interrupt.
    pub vout_irq: SignalId,
    /// Camera DMA master port.
    pub vin_port: MasterPort,
    /// Display DMA master port.
    pub vout_port: MasterPort,
    /// Frames captured by the display VIP.
    pub captured: Rc<RefCell<Vec<Frame>>>,
    /// Per-captured-frame count of X-poisoned words.
    pub captured_poison: Rc<RefCell<Vec<usize>>>,
}

/// Instantiate camera and display VIPs over `input_frames`.
#[allow(clippy::too_many_arguments)]
pub fn video_subsystem(
    sim: &mut Simulator,
    cr: ClockReset,
    vin_regs: RegFile,
    vout_regs: RegFile,
    input_frames: Vec<Frame>,
    width: usize,
    height: usize,
    short_dma_bug: bool,
) -> VideoSubsystem {
    let vin_irq = sim.signal_init("irq.videoin", 1, 0);
    let vout_irq = sim.signal_init("irq.videoout", 1, 0);
    let vin_port = MasterPort::alloc(sim, "videoin.plb");
    let vout_port = MasterPort::alloc(sim, "videoout.plb");
    crate::vips::VideoInVip::instantiate(
        sim,
        "videoin",
        cr.clk,
        cr.rst,
        vin_regs,
        vin_port,
        vin_irq,
        input_frames,
        short_dma_bug,
    );
    let (captured, captured_poison) = crate::vips::VideoOutVip::instantiate(
        sim, "videoout", cr.clk, cr.rst, vout_regs, vout_port, vout_irq, width, height,
    );
    VideoSubsystem {
        vin_irq,
        vout_irq,
        vin_port,
        vout_port,
        captured,
        captured_poison,
    }
}

// ---------------------------------------------------------------------
// interrupt fabric
// ---------------------------------------------------------------------

/// Instantiate the interrupt controller over `lines` (bit *i* of the
/// status register is `lines[i]`) and return the CPU interrupt wire.
pub fn interrupt_fabric(
    sim: &mut Simulator,
    cr: ClockReset,
    lines: Vec<SignalId>,
    regs: RegFile,
    pulse_irq_bug: bool,
) -> SignalId {
    let cpu_irq = sim.signal("irq.cpu", 1);
    IntController::instantiate_with(
        sim,
        "intc",
        cr.clk,
        cr.rst,
        lines,
        cpu_irq,
        regs,
        false,
        pulse_irq_bug,
    );
    cpu_irq
}

// ---------------------------------------------------------------------
// CPU subsystem
// ---------------------------------------------------------------------

/// The PowerPC subsystem: assembled program in memory, ISR vector, ISS.
pub struct CpuSubsystem {
    /// CPU bus master port.
    pub port: MasterPort,
    /// Execution statistics (halt flag, instruction counts).
    pub stats: Rc<RefCell<IssStats>>,
}

/// Assemble `source` at `0x1000`, install the external-interrupt vector
/// branch at `0x500`, and instantiate the ISS.
pub fn cpu_subsystem(
    sim: &mut Simulator,
    cr: ClockReset,
    cpu_irq: SignalId,
    mem: &SharedMem,
    dcr_handle: dcr::DcrHandle,
    source: &str,
) -> CpuSubsystem {
    let program = ppc::assemble(source, 0x1000).expect("system software must assemble");
    cpu_subsystem_prebuilt(sim, cr, cpu_irq, mem, dcr_handle, &program)
}

/// [`cpu_subsystem`] with an already-assembled program image — the
/// artifact-cache path, where one assembly serves many builds.
pub fn cpu_subsystem_prebuilt(
    sim: &mut Simulator,
    cr: ClockReset,
    cpu_irq: SignalId,
    mem: &SharedMem,
    dcr_handle: dcr::DcrHandle,
    program: &ppc::Program,
) -> CpuSubsystem {
    let port = MasterPort::alloc(sim, "cpu.plb");
    mem.load_bytes(program.base, &program.to_bytes());
    let isr = program.symbol("isr");
    mem.write_u32(
        0x500,
        ppc::Instr::B {
            target: (isr as i64 - 0x500) as i32,
            link: false,
        }
        .encode(),
    );
    let stats = PpcIss::instantiate(
        sim,
        "ppc_iss",
        cr.clk,
        cr.rst,
        cpu_irq,
        port,
        mem.clone(),
        dcr_handle,
        IssConfig {
            entry: 0x1000,
            vector_base: 0,
            trace_depth: 0,
        },
    );
    CpuSubsystem { port, stats }
}

// ---------------------------------------------------------------------
// shared bus
// ---------------------------------------------------------------------

/// Instantiate the bus monitor and the PLB over `masters` (label +
/// port, in priority order) and the memory slave.
pub fn shared_bus(
    sim: &mut Simulator,
    cr: ClockReset,
    masters: Vec<(String, MasterPort)>,
    mem_port: SlavePort,
    mem_bytes: usize,
    arbitration: ArbMode,
) -> Rc<RefCell<MonitorStats>> {
    let ports: Vec<MasterPort> = masters.iter().map(|(_, p)| *p).collect();
    let bus_monitor = PlbMonitor::instantiate(sim, "plb_monitor", cr.clk, cr.rst, masters);
    PlbBus::new(
        sim,
        "plb",
        cr.clk,
        cr.rst,
        PlbBusConfig {
            arbitration,
            ..Default::default()
        },
        ports,
        vec![(
            mem_port,
            AddressWindow {
                base: 0,
                len: mem_bytes as u32,
            },
        )],
    );
    bus_monitor
}

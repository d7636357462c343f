//! Shadow-oracle test of the five components that copy values between
//! ports: the PLB relay, the ReSim region mux, the VMUX wrapper mux, the
//! isolation module and the region response relay.
//!
//! Each test drives one of them next to a reference model, from the same
//! random inputs. The reference is the plain body: on every eval it
//! recomputes and re-drives every output, into output signals of its own.
//! After every settle, each output of the component must equal the
//! reference's, `X` bits included. About one poke in five changes a
//! steering input (bus owner, active module, `inject`, the capture and
//! restore strobes, the signature, `isolate`) and the rest change data,
//! so most evals run under steady steering. Pokes land up to two deltas
//! late, so one settle can evaluate a component several times.

use autovision::fabric::{region_isolation, RegionNames};
use dcr::RegFile;
use engines::{EngineIf, EngineParamSignals, IsoPair, Isolation};
use plb::{AddressWindow, ArbMode, MasterPort, PlbBus, SlavePort};
use resim::{
    instantiate_region, instantiate_vmux, ErrorSource, IcapPort, RandomSource, RegionOptions,
    RrBoundary, VmuxConfig,
};
use rtlsim::{CompKind, Component, Ctx, ExecMode, Logic, Lv, SignalId, Simulator};

const MODES: [ExecMode; 2] = [ExecMode::EventDriven, ExecMode::Compiled];
const STEPS: usize = 3_000;
const NONE: u64 = 0xFF;

/// xorshift64*: a small deterministic generator for the stimulus.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The master-driven half of a master port.
fn master_half(m: &MasterPort) -> [SignalId; 7] {
    [m.req, m.rnw, m.addr, m.size, m.wvalid, m.wdata, m.rready]
}

/// The bus-driven half of a master port.
fn bus_half(m: &MasterPort) -> [SignalId; 7] {
    [
        m.gnt, m.addr_ack, m.wready, m.rvalid, m.rdata, m.complete, m.err,
    ]
}

/// The slave-driven half of a slave port.
fn slave_half(s: &SlavePort) -> [SignalId; 6] {
    [s.aready, s.wready, s.rvalid, s.rdata, s.complete, s.err]
}

/// The bus-driven half of a slave port.
fn request_half(s: &SlavePort) -> [SignalId; 7] {
    [
        s.sel, s.a_rnw, s.a_addr, s.a_size, s.wvalid, s.wdata, s.rready,
    ]
}

/// Zero every bus response into a master port.
fn quiesce(ctx: &mut Ctx<'_>, m: &MasterPort) {
    for s in bus_half(m) {
        ctx.set_u64(s, 0);
    }
}

fn copy(ctx: &mut Ctx<'_>, from: &[SignalId], to: &[SignalId]) {
    for (f, t) in from.iter().zip(to) {
        ctx.set(*t, ctx.get(*f));
    }
}

/// One randomly driven input.
struct Input {
    /// The lag chain: entry `d` reaches the input `d` deltas after it is
    /// poked; entry 0 is the input itself.
    chain: [SignalId; 3],
    width: u8,
    /// `None` for a data input (any value); otherwise the steering
    /// values to pick from.
    picks: Option<Vec<Lv>>,
}

/// A component under test, its reference and their shared stimulus.
struct Bench {
    sim: Simulator,
    rng: Rng,
    inputs: Vec<Input>,
    /// (component output, reference output) pairs.
    outputs: Vec<(SignalId, SignalId)>,
}

impl Bench {
    fn new(mode: ExecMode, seed: u64) -> Bench {
        let mut sim = Simulator::new();
        sim.set_exec_mode(mode);
        Bench {
            sim,
            rng: Rng(seed | 1),
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Drive `sig` with random data of its width.
    fn data(&mut self, sig: SignalId, width: u8) {
        self.input(sig, width, None);
    }

    /// Drive `sig` with one of `picks` (steering).
    fn steer(&mut self, sig: SignalId, picks: Vec<Lv>) {
        let width = picks[0].width();
        self.input(sig, width, Some(picks));
    }

    fn input(&mut self, sig: SignalId, width: u8, picks: Option<Vec<Lv>>) {
        let name = self.sim.signal_name(sig).to_string();
        let mut chain = [sig; 3];
        for d in 1..3 {
            let stage = self.sim.signal(format!("{name}.lag{d}"), width);
            let next = chain[d - 1];
            self.sim.add_component(
                format!("{name}.lag{d}"),
                CompKind::Vip,
                Box::new(move |ctx: &mut Ctx<'_>| {
                    if ctx.changed(stage) {
                        ctx.set(next, ctx.get(stage));
                    }
                }),
                &[stage],
            );
            chain[d] = stage;
        }
        self.inputs.push(Input {
            chain,
            width,
            picks,
        });
    }

    fn compare(&mut self, dut: &[SignalId], reference: &[SignalId]) {
        assert_eq!(dut.len(), reference.len());
        self.outputs
            .extend(dut.iter().copied().zip(reference.iter().copied()));
    }

    /// A random data value: known most of the time, sometimes with `X`
    /// or `Z` bits.
    fn random_data(&mut self, width: u8) -> Lv {
        let val = match self.rng.below(4) {
            0 => 0,
            1 => 1,
            _ => self.rng.next(),
        };
        let xz = match self.rng.below(8) {
            0 => u64::MAX,
            1 => self.rng.next(),
            _ => 0,
        };
        Lv::from_planes(width, val, xz)
    }

    /// Poke one to four inputs, about one in five a steering input,
    /// each through a random lag; settle; compare every output pair.
    fn step(&mut self, label: &str, step: usize) {
        let steering: Vec<usize> = (0..self.inputs.len())
            .filter(|&i| self.inputs[i].picks.is_some())
            .collect();
        let data: Vec<usize> = (0..self.inputs.len())
            .filter(|&i| self.inputs[i].picks.is_none())
            .collect();
        for _ in 0..1 + self.rng.below(4) {
            let pool = if data.is_empty() || (!steering.is_empty() && self.rng.below(5) == 0) {
                &steering
            } else {
                &data
            };
            let i = pool[self.rng.below(pool.len() as u64) as usize];
            let lag = self.rng.below(3) as usize;
            let v = match &self.inputs[i].picks {
                Some(p) => p[self.rng.below(p.len() as u64) as usize],
                None => self.random_data(self.inputs[i].width),
            };
            let target = self.inputs[i].chain[lag];
            self.sim.poke(target, v);
        }
        self.sim.settle().unwrap();
        for &(dut, reference) in &self.outputs {
            let (got, want) = (self.sim.peek(dut), self.sim.peek(reference));
            assert!(
                got.eq_case(&want),
                "{label}, step {step}: {} is {got:?}, the reference drives {want:?}",
                self.sim.signal_name(dut)
            );
        }
    }

    fn run(mut self, label: &str) {
        for step in 0..STEPS {
            self.step(label, step);
        }
    }
}

fn bits(width: u8, values: &[u64]) -> Vec<Lv> {
    values.iter().map(|&v| Lv::from_u64(width, v)).collect()
}

fn with_x(mut picks: Vec<Lv>) -> Vec<Lv> {
    let w = picks[0].width();
    picks.push(Lv::xes(w));
    picks
}

// ---------------------------------------------------------------------
// PLB relay
// ---------------------------------------------------------------------

/// The relay's reference body.
struct RelayRef {
    masters: Vec<MasterPort>,
    slaves: Vec<SlavePort>,
    m_out: Vec<MasterPort>,
    s_out: Vec<SlavePort>,
    owner: SignalId,
    slave: SignalId,
    errm: SignalId,
}

impl Component for RelayRef {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let owner = ctx.get(self.owner).to_u64_lossy();
        let slave = ctx.get(self.slave).to_u64_lossy();
        let errm = ctx.get(self.errm).to_u64_lossy();
        let granted = owner != NONE && (slave as usize) < self.slaves.len();
        for (mi, m) in self.m_out.iter().enumerate() {
            let mine = granted && owner == mi as u64;
            if mine {
                let s = &self.slaves[slave as usize];
                ctx.set_bit(m.gnt, true);
                copy(ctx, &slave_half(s), &bus_half(m)[1..]);
            } else {
                let e = errm == mi as u64;
                for (sig, v) in bus_half(m)
                    .into_iter()
                    .zip([0, 0, 0, 0, 0, e as u64, e as u64])
                {
                    ctx.set_u64(sig, v);
                }
            }
        }
        for (si, s) in self.s_out.iter().enumerate() {
            let mine = granted && slave == si as u64;
            if mine {
                let m = &self.masters[owner as usize];
                ctx.set_bit(s.sel, true);
                copy(ctx, &master_half(m)[1..], &request_half(s)[1..]);
            } else {
                for sig in request_half(s) {
                    ctx.set_u64(sig, 0);
                }
            }
        }
    }
}

fn relay_bench(mode: ExecMode, seed: u64) -> Bench {
    let mut b = Bench::new(mode, seed);
    let sim = &mut b.sim;
    // The arbiter never runs: the clock stays at 0 and reset low, so
    // the test owns the steering signals.
    let clk = sim.signal_init("clk", 1, 0);
    let rst = sim.signal_init("rst", 1, 0);
    let (n_m, n_s) = (3, 2);
    let masters: Vec<MasterPort> = (0..n_m)
        .map(|i| MasterPort::alloc(sim, &format!("m{i}")))
        .collect();
    let slaves: Vec<SlavePort> = (0..n_s)
        .map(|i| SlavePort::alloc(sim, &format!("s{i}")))
        .collect();
    let m_out: Vec<MasterPort> = (0..n_m)
        .map(|i| MasterPort::alloc(sim, &format!("ref.m{i}")))
        .collect();
    let s_out: Vec<SlavePort> = (0..n_s)
        .map(|i| SlavePort::alloc(sim, &format!("ref.s{i}")))
        .collect();
    let windows = slaves
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let w = AddressWindow {
                base: i as u32 * 0x1000,
                len: 0x1000,
            };
            (*s, w)
        })
        .collect();
    let bus = PlbBus::new(
        sim,
        "plb",
        clk,
        rst,
        ArbMode::FixedPriority,
        masters.clone(),
        windows,
    );
    let mut sens = vec![bus.owner, bus.slave, bus.errm];
    for m in &masters {
        sens.extend_from_slice(&master_half(m));
    }
    for s in &slaves {
        sens.extend_from_slice(&slave_half(s));
    }
    let reference = RelayRef {
        masters: masters.clone(),
        slaves: slaves.clone(),
        m_out: m_out.clone(),
        s_out: s_out.clone(),
        owner: bus.owner,
        slave: bus.slave,
        errm: bus.errm,
    };
    sim.add_component(
        "ref.relay",
        CompKind::UserStatic,
        Box::new(reference),
        &sens,
    );

    // Owner indices stay in range or NONE (the arbiter never grants a
    // master that does not exist); the slave index may point past the
    // last slave, which the relay treats as "not granted".
    let owners: Vec<u64> = (0..n_m as u64).chain([NONE]).collect();
    let slave_ids: Vec<u64> = (0..=n_s as u64).chain([NONE]).collect();
    b.steer(bus.owner, with_x(bits(8, &owners)));
    b.steer(bus.slave, with_x(bits(8, &slave_ids)));
    b.steer(bus.errm, with_x(bits(8, &owners)));
    for (m, o) in masters.iter().zip(&m_out) {
        for s in master_half(m) {
            let w = b.sim.peek(s).width();
            b.data(s, w);
        }
        b.compare(&bus_half(m), &bus_half(o));
    }
    for (s, o) in slaves.iter().zip(&s_out) {
        for sig in slave_half(s) {
            let w = b.sim.peek(sig).width();
            b.data(sig, w);
        }
        b.compare(&request_half(s), &request_half(o));
    }
    b
}

#[test]
fn plb_relay_matches_its_reference() {
    for mode in MODES {
        relay_bench(mode, 0x5EED_0001).run(&format!("shared relay, {mode}"));
    }
}

// ---------------------------------------------------------------------
// Region muxes
// ---------------------------------------------------------------------

/// The region-side outputs of one module's mux port.
#[derive(Clone, Copy)]
struct ModuleOut {
    sel: SignalId,
    capture: SignalId,
    restore: SignalId,
    plb: MasterPort,
}

fn module_out(sim: &mut Simulator, prefix: &str) -> ModuleOut {
    ModuleOut {
        sel: sim.signal_init(format!("{prefix}.sel"), 1, 0),
        capture: sim.signal_init(format!("{prefix}.capture"), 1, 0),
        restore: sim.signal_init(format!("{prefix}.restore"), 1, 0),
        plb: MasterPort::alloc(sim, &format!("{prefix}.plb")),
    }
}

/// `n` engine interfaces on shared dummy wires; nothing drives them but
/// the stimulus.
fn engine_ifs(sim: &mut Simulator, n: usize) -> Vec<EngineIf> {
    let clk = sim.signal_init("clk", 1, 0);
    let rst = sim.signal_init("rst", 1, 0);
    let go = sim.signal_init("eng.go", 1, 0);
    let ereset = sim.signal_init("eng.ereset", 1, 0);
    let params = EngineParamSignals::alloc(sim, "eng");
    (0..n)
        .map(|i| EngineIf::alloc(sim, &format!("mod{i}"), clk, rst, go, ereset, &params))
        .collect()
}

/// Forward the selected module's outputs to the boundary and the
/// boundary's bus responses back to it, or idle the boundary.
fn connect(
    ctx: &mut Ctx<'_>,
    sel: Option<(&EngineIf, &ModuleOut)>,
    boundary: &RrBoundary,
    out: &RrBoundary,
) {
    match sel {
        Some((m, o)) => {
            copy(ctx, &[m.busy, m.done], &[out.busy, out.done]);
            copy(ctx, &master_half(&m.plb), &master_half(&out.plb));
            copy(ctx, &bus_half(&boundary.plb), &bus_half(&o.plb));
        }
        None => {
            ctx.set_bit(out.busy, false);
            ctx.set_bit(out.done, false);
            for t in master_half(&out.plb) {
                ctx.set_u64(t, 0);
            }
        }
    }
}

/// The ReSim region mux's reference body.
struct RrMuxRef {
    rr_id: u8,
    modules: Vec<EngineIf>,
    outs: Vec<ModuleOut>,
    boundary: RrBoundary,
    out: RrBoundary,
    active: SignalId,
    inject: SignalId,
    swap_rr: SignalId,
    capture: SignalId,
    restore: SignalId,
    deselect_during_inject: bool,
    source: RandomSource,
}

impl Component for RrMuxRef {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let inject = self.deselect_during_inject && {
            let v = ctx.get(self.inject);
            (v.truthy() || v.has_unknown())
                && ctx.get(self.swap_rr).to_u64_lossy() as u8 == self.rr_id
        };
        let active = ctx.get(self.active).to_u64_lossy();
        let cap = ctx.get(self.capture).truthy();
        let res = ctx.get(self.restore).truthy();
        for (i, o) in self.outs.iter().enumerate() {
            let mine = !inject && active == i as u64;
            ctx.set_bit(o.sel, mine);
            ctx.set_bit(o.capture, mine && cap);
            ctx.set_bit(o.restore, mine && res);
        }
        let sel = (!inject && (active as usize) < self.modules.len()).then_some(active as usize);
        for (i, o) in self.outs.iter().enumerate() {
            if sel != Some(i) {
                quiesce(ctx, &o.plb);
            }
        }
        if inject {
            for t in [self.out.busy, self.out.done] {
                let v = self.source.value(1);
                ctx.set(t, v);
            }
            for t in master_half(&self.out.plb) {
                let v = self.source.value(32);
                ctx.set(t, v);
            }
        } else {
            let sel = sel.map(|i| (&self.modules[i], &self.outs[i]));
            connect(ctx, sel, &self.boundary, &self.out);
        }
    }
}

/// Engine-side and boundary-side data inputs of a region mux, and the
/// output pairs to compare.
fn mux_ports(
    b: &mut Bench,
    modules: &[EngineIf],
    outs: &[ModuleOut],
    boundary: &RrBoundary,
    out: &RrBoundary,
) {
    for (m, o) in modules.iter().zip(outs) {
        b.data(m.busy, 1);
        b.data(m.done, 1);
        for s in master_half(&m.plb) {
            let w = b.sim.peek(s).width();
            b.data(s, w);
        }
        b.compare(&[m.sel], &[o.sel]);
        b.compare(&bus_half(&m.plb), &bus_half(&o.plb));
    }
    for s in bus_half(&boundary.plb) {
        let w = b.sim.peek(s).width();
        b.data(s, w);
    }
    b.compare(&[boundary.busy, boundary.done], &[out.busy, out.done]);
    b.compare(&master_half(&boundary.plb), &master_half(&out.plb));
}

fn rr_mux_bench(mode: ExecMode, deselect_during_inject: bool, seed: u64) -> Bench {
    const RR_ID: u8 = 3;
    const SOURCE_SEED: u64 = 0xE44;
    let mut b = Bench::new(mode, seed);
    let sim = &mut b.sim;
    let modules = engine_ifs(sim, 2);
    let outs: Vec<ModuleOut> = (0..2)
        .map(|i| module_out(sim, &format!("ref.mod{i}")))
        .collect();
    let boundary = RrBoundary::alloc(sim, "rr");
    let out = RrBoundary::alloc(sim, "ref.rr");
    let icap = IcapPort::alloc(sim, "icap");
    // The portal only writes `active` on a swap strobe or reset, and
    // both stay low: the test drives `active` itself.
    instantiate_region(
        sim,
        "rr0",
        modules[0].rst,
        RR_ID,
        icap,
        vec![(0x11, modules[0]), (0x22, modules[1])],
        boundary,
        Some(0x11),
        Box::new(RandomSource::new(SOURCE_SEED)),
        RegionOptions {
            deselect_during_inject,
        },
    );
    let active = sim.signals_with_prefix("rr0.active");
    assert_eq!(active.len(), 1);
    let active = active[0];
    let mut sens = vec![
        active,
        icap.inject,
        icap.capture_strobe,
        icap.restore_strobe,
    ];
    for e in &modules {
        sens.extend_from_slice(&[e.busy, e.done]);
        sens.extend_from_slice(&master_half(&e.plb));
    }
    sens.extend_from_slice(&bus_half(&boundary.plb));
    let reference = RrMuxRef {
        rr_id: RR_ID,
        modules: modules.clone(),
        outs,
        boundary,
        out,
        active,
        inject: icap.inject,
        swap_rr: icap.swap_rr,
        capture: icap.capture_strobe,
        restore: icap.restore_strobe,
        deselect_during_inject,
        source: RandomSource::new(SOURCE_SEED),
    };
    let outs = reference.outs.clone();
    sim.add_component("ref.mux", CompKind::Artifact, Box::new(reference), &sens);

    b.steer(active, with_x(bits(8, &[0, 1, 2, NONE])));
    b.steer(icap.inject, with_x(bits(1, &[0, 0, 1])));
    b.steer(icap.swap_rr, bits(8, &[RR_ID as u64, RR_ID as u64 + 1]));
    // The strobes pulse often, mostly while the rest of the steering
    // holds.
    for strobe in [icap.capture_strobe, icap.restore_strobe] {
        b.steer(strobe, with_x(bits(1, &[0, 1])));
    }
    mux_ports(&mut b, &modules, &outs, &boundary, &out);
    for (m, o) in modules.iter().zip(&outs) {
        b.compare(&[m.capture, m.restore], &[o.capture, o.restore]);
    }
    b
}

#[test]
fn resim_region_mux_matches_its_reference() {
    for mode in MODES {
        rr_mux_bench(mode, true, 0x5EED_0003).run(&format!("region mux, {mode}"));
        rr_mux_bench(mode, false, 0x5EED_0004).run(&format!("region mux, no deselect, {mode}"));
    }
}

/// The VMUX wrapper mux's reference body.
struct VmuxRef {
    modules: Vec<(u32, EngineIf)>,
    outs: Vec<ModuleOut>,
    boundary: RrBoundary,
    out: RrBoundary,
    signature: SignalId,
}

impl Component for VmuxRef {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let sig = ctx.get(self.signature).to_u64_lossy() as u32;
        let mut selected = None;
        for (i, ((id, _), o)) in self.modules.iter().zip(&self.outs).enumerate() {
            let sel = *id == sig;
            ctx.set_bit(o.sel, sel);
            if sel {
                selected = Some(i);
            } else {
                quiesce(ctx, &o.plb);
            }
        }
        let sel = selected.map(|i| (&self.modules[i].1, &self.outs[i]));
        connect(ctx, sel, &self.boundary, &self.out);
    }
}

fn vmux_bench(mode: ExecMode, seed: u64) -> Bench {
    const GARBAGE: u64 = 0xFFFF_FFFF;
    let mut b = Bench::new(mode, seed);
    let sim = &mut b.sim;
    let ifs = engine_ifs(sim, 2);
    let modules = vec![(0, ifs[0]), (1, ifs[1])];
    let outs: Vec<ModuleOut> = (0..2)
        .map(|i| module_out(sim, &format!("ref.mod{i}")))
        .collect();
    let boundary = RrBoundary::alloc(sim, "rr");
    let out = RrBoundary::alloc(sim, "ref.rr");
    let (clk, rst) = (ifs[0].clk, ifs[0].rst);
    // The controller only drives the signature on reset or a clock
    // rise, and neither happens: the test drives it itself.
    instantiate_vmux(
        sim,
        "vmux",
        clk,
        rst,
        RegFile::new(0x100, 1),
        modules.clone(),
        boundary,
        VmuxConfig::default(),
    );
    let signature = sim.signals_with_prefix("vmux.signature");
    assert_eq!(signature.len(), 1);
    let signature = signature[0];
    let mut sens = vec![signature];
    for e in &ifs {
        sens.extend_from_slice(&[e.busy, e.done]);
        sens.extend_from_slice(&master_half(&e.plb));
    }
    sens.extend_from_slice(&bus_half(&boundary.plb));
    let reference = VmuxRef {
        modules,
        outs: outs.clone(),
        boundary,
        out,
        signature,
    };
    sim.add_component("ref.mux", CompKind::Artifact, Box::new(reference), &sens);

    b.steer(signature, with_x(bits(32, &[0, 1, 2, GARBAGE])));
    mux_ports(&mut b, &ifs, &outs, &boundary, &out);
    b
}

#[test]
fn vmux_wrapper_mux_matches_its_reference() {
    for mode in MODES {
        vmux_bench(mode, 0x5EED_0005).run(&format!("vmux mux, {mode}"));
    }
}

// ---------------------------------------------------------------------
// Region isolation: the isolation module and the response relay
// ---------------------------------------------------------------------

/// The isolation module's reference body.
struct IsolationRef {
    isolate: SignalId,
    pairs: Vec<IsoPair>,
}

impl Component for IsolationRef {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let g = (!ctx.get(self.isolate)).get(0);
        for p in &self.pairs {
            let v = ctx.get(p.from);
            let out = match g {
                Logic::One => v,
                Logic::Zero => Lv::zeros(v.width()),
                _ => v & Lv::xes(v.width()),
            };
            ctx.set(p.to, out);
        }
    }
}

/// The response relay's reference body.
struct ReverseRelayRef {
    from: MasterPort,
    to: MasterPort,
}

impl Component for ReverseRelayRef {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        copy(ctx, &bus_half(&self.from), &bus_half(&self.to));
    }
}

fn isolation_bench(mode: ExecMode, seed: u64) -> Bench {
    let mut b = Bench::new(mode, seed);
    let sim = &mut b.sim;
    let boundary = RrBoundary::alloc(sim, "rr");
    let iso = region_isolation(sim, &RegionNames::for_region(0, "rr"), boundary, 0);
    // The isolated side's reference copies.
    let iso_busy = sim.signal("ref.iso.busy", 1);
    let iso_done = sim.signal("ref.iso.done", 1);
    let iso_port = MasterPort::alloc(sim, "ref.iso.plb");
    let rsp = MasterPort::alloc(sim, "ref.rr.plb");
    let from: Vec<SignalId> = [boundary.busy, boundary.done]
        .into_iter()
        .chain(master_half(&boundary.plb))
        .collect();
    let to: Vec<SignalId> = [iso_busy, iso_done]
        .into_iter()
        .chain(master_half(&iso_port))
        .collect();
    let pairs = from
        .iter()
        .zip(&to)
        .map(|(&from, &to)| IsoPair { from, to })
        .collect();
    let mut sens = vec![iso.isolate];
    sens.extend_from_slice(&from);
    sim.add_component(
        "ref.isolation",
        CompKind::UserStatic,
        Box::new(IsolationRef {
            isolate: iso.isolate,
            pairs,
        }),
        &sens,
    );
    sim.add_component(
        "ref.rsp_relay",
        CompKind::UserStatic,
        Box::new(ReverseRelayRef {
            from: iso.port,
            to: rsp,
        }),
        &bus_half(&iso.port),
    );

    b.steer(iso.isolate, with_x(bits(1, &[0, 1])));
    for &s in &from {
        let w = b.sim.peek(s).width();
        b.data(s, w);
    }
    for s in bus_half(&iso.port) {
        let w = b.sim.peek(s).width();
        b.data(s, w);
    }
    let dut: Vec<SignalId> = [iso.busy, iso.done]
        .into_iter()
        .chain(master_half(&iso.port))
        .collect();
    b.compare(&dut, &to);
    b.compare(&bus_half(&boundary.plb), &bus_half(&rsp));
    b
}

#[test]
fn isolation_and_response_relay_match_their_references() {
    for mode in MODES {
        isolation_bench(mode, 0x5EED_0006).run(&format!("region isolation, {mode}"));
    }
}

/// A standalone isolation module over pairs of several widths.
#[test]
fn isolation_matches_its_reference_across_widths() {
    for mode in MODES {
        let mut b = Bench::new(mode, 0x5EED_0007);
        let sim = &mut b.sim;
        let isolate = sim.signal_init("isolate", 1, 0);
        let widths = [1u8, 3, 8, 32, 64];
        let from: Vec<SignalId> = widths
            .iter()
            .map(|&w| sim.signal(format!("in{w}"), w))
            .collect();
        let dut: Vec<SignalId> = widths
            .iter()
            .map(|&w| sim.signal(format!("out{w}"), w))
            .collect();
        let to: Vec<SignalId> = widths
            .iter()
            .map(|&w| sim.signal(format!("ref.out{w}"), w))
            .collect();
        let pairs = |to: &[SignalId]| -> Vec<IsoPair> {
            from.iter()
                .zip(to)
                .map(|(&from, &to)| IsoPair { from, to })
                .collect()
        };
        Isolation::instantiate(sim, "iso", isolate, pairs(&dut), 0);
        let mut sens = vec![isolate];
        sens.extend_from_slice(&from);
        let reference = IsolationRef {
            isolate,
            pairs: pairs(&to),
        };
        sim.add_component("ref.iso", CompKind::UserStatic, Box::new(reference), &sens);
        b.steer(isolate, with_x(bits(1, &[0, 1])));
        for (&s, &w) in from.iter().zip(&widths) {
            b.data(s, w);
        }
        b.compare(&dut, &to);
        b.run(&format!("isolation widths, {mode}"));
    }
}

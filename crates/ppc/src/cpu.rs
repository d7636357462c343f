//! The instruction-set simulator: an architectural core plus a kernel
//! component that gives it cycle-accurate memory and DCR timing.
//!
//! The paper replaces the (far too slow) processor netlist with an IBM
//! PowerPC ISS so "the software could run as if it were running on a real
//! processor". This module is that VIP: instruction fetch comes straight
//! from the shared memory image (a perfect I-cache), while data accesses
//! travel over the PLB as real bus transactions and `mtdcr`/`mfdcr` issue
//! real DCR chain operations — so software/hardware timing interactions
//! (the heart of bug.dpr.5 and bug.dpr.6b) are simulated faithfully.

use crate::insn::{Cond, Instr, Spr};
use dcr::{DcrHandle, DcrOp, DcrResult};
use plb::{DmaDriver, DmaEvent, MasterPort, SharedMem};
use rtlsim::{CompKind, Component, Ctx, SignalId, Simulator, TraceCat};
use std::cell::RefCell;
use std::rc::Rc;

/// MSR bit: external interrupts enabled.
pub const MSR_EE: u32 = 0x8000;

/// What the architectural core needs the environment to do next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Instruction fully retired; continue (with `extra_cycles` of
    /// pipeline stall beyond the base cycle).
    Continue {
        /// Additional stall cycles (multiply/divide latency etc.).
        extra_cycles: u32,
    },
    /// Perform a load of `size` bytes and call
    /// [`CpuCore::complete_load`].
    Load {
        /// Byte address.
        addr: u32,
        /// 1 or 4 bytes.
        size: u8,
        /// Destination register.
        reg: u8,
    },
    /// Perform a store of `size` bytes.
    Store {
        /// Byte address.
        addr: u32,
        /// 1 or 4 bytes.
        size: u8,
        /// Value (byte stores use the low 8 bits).
        value: u32,
    },
    /// Read DCR `dcrn` and call [`CpuCore::complete_load`] with `reg`.
    DcrRead {
        /// DCR number.
        dcrn: u16,
        /// Destination register.
        reg: u8,
    },
    /// Write DCR `dcrn`.
    DcrWrite {
        /// DCR number.
        dcrn: u16,
        /// Value to write.
        value: u32,
    },
    /// `halt` (trap) executed.
    Halt,
    /// Illegal instruction or other architectural error.
    Error(String),
}

/// CR0 condition bits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cr0 {
    /// Less than.
    pub lt: bool,
    /// Greater than.
    pub gt: bool,
    /// Equal.
    pub eq: bool,
}

/// The architectural state and instruction semantics (no timing).
#[derive(Debug, Clone)]
pub struct CpuCore {
    /// General purpose registers.
    pub gpr: [u32; 32],
    /// Program counter (address of the *next* instruction to execute).
    pub pc: u32,
    /// Machine state register (only `MSR_EE` is meaningful here).
    pub msr: u32,
    /// Condition register field 0.
    pub cr0: Cr0,
    /// Link register.
    pub lr: u32,
    /// Count register.
    pub ctr: u32,
    /// Saved PC on interrupt.
    pub srr0: u32,
    /// Saved MSR on interrupt.
    pub srr1: u32,
    /// Base address of the interrupt vector table (external interrupt
    /// enters at `vector_base + 0x500`).
    pub vector_base: u32,
}

impl CpuCore {
    /// A core that starts executing at `entry` with interrupts disabled.
    pub fn new(entry: u32, vector_base: u32) -> CpuCore {
        CpuCore {
            gpr: [0; 32],
            pc: entry,
            msr: 0,
            cr0: Cr0::default(),
            lr: 0,
            ctr: 0,
            srr0: 0,
            srr1: 0,
            vector_base,
        }
    }

    fn set_cr0_signed(&mut self, a: i32, b: i32) {
        self.cr0 = Cr0 {
            lt: a < b,
            gt: a > b,
            eq: a == b,
        };
    }

    fn set_cr0_unsigned(&mut self, a: u32, b: u32) {
        self.cr0 = Cr0 {
            lt: a < b,
            gt: a > b,
            eq: a == b,
        };
    }

    fn cond_taken(&mut self, c: Cond) -> bool {
        match c {
            Cond::Eq => self.cr0.eq,
            Cond::Ne => !self.cr0.eq,
            Cond::Lt => self.cr0.lt,
            Cond::Ge => !self.cr0.lt,
            Cond::Gt => self.cr0.gt,
            Cond::Le => !self.cr0.gt,
            Cond::Dnz => {
                self.ctr = self.ctr.wrapping_sub(1);
                self.ctr != 0
            }
        }
    }

    /// Take an external interrupt (call only when
    /// [`CpuCore::interrupts_enabled`]).
    pub fn external_interrupt(&mut self) {
        self.srr0 = self.pc;
        self.srr1 = self.msr;
        self.msr &= !MSR_EE;
        self.pc = self.vector_base + 0x500;
    }

    /// Are external interrupts enabled?
    pub fn interrupts_enabled(&self) -> bool {
        self.msr & MSR_EE != 0
    }

    /// Finish a previously returned `Load`/`DcrRead` action.
    pub fn complete_load(&mut self, reg: u8, value: u32) {
        self.gpr[reg as usize] = value;
    }

    /// Execute one decoded instruction located at the current PC.
    /// Advances the PC. Memory and DCR work is returned as an [`Action`]
    /// for the environment to perform with real timing.
    pub fn execute(&mut self, i: Instr) -> Action {
        use Instr::*;
        let pc = self.pc;
        self.pc = pc.wrapping_add(4);
        let g = |r: u8| -> u32 { self.gpr[r as usize] };
        let cont = Action::Continue { extra_cycles: 0 };
        match i {
            Addi { rt, ra, simm } => {
                let base = if ra == 0 { 0 } else { g(ra) };
                self.gpr[rt as usize] = base.wrapping_add(simm as i32 as u32);
                cont
            }
            Addis { rt, ra, simm } => {
                let base = if ra == 0 { 0 } else { g(ra) };
                self.gpr[rt as usize] = base.wrapping_add((simm as i32 as u32) << 16);
                cont
            }
            Ori { ra, rs, uimm } => {
                self.gpr[ra as usize] = g(rs) | uimm as u32;
                cont
            }
            Oris { ra, rs, uimm } => {
                self.gpr[ra as usize] = g(rs) | ((uimm as u32) << 16);
                cont
            }
            Xori { ra, rs, uimm } => {
                self.gpr[ra as usize] = g(rs) ^ uimm as u32;
                cont
            }
            AndiDot { ra, rs, uimm } => {
                let v = g(rs) & uimm as u32;
                self.gpr[ra as usize] = v;
                self.set_cr0_signed(v as i32, 0);
                cont
            }
            Add { rt, ra, rb } => {
                self.gpr[rt as usize] = g(ra).wrapping_add(g(rb));
                cont
            }
            Subf { rt, ra, rb } => {
                self.gpr[rt as usize] = g(rb).wrapping_sub(g(ra));
                cont
            }
            Mullw { rt, ra, rb } => {
                self.gpr[rt as usize] = g(ra).wrapping_mul(g(rb));
                Action::Continue { extra_cycles: 4 }
            }
            Divwu { rt, ra, rb } => {
                let d = g(rb);
                self.gpr[rt as usize] = g(ra).checked_div(d).unwrap_or(0);
                Action::Continue { extra_cycles: 35 }
            }
            Neg { rt, ra } => {
                self.gpr[rt as usize] = (g(ra) as i32).wrapping_neg() as u32;
                cont
            }
            And { ra, rs, rb } => {
                self.gpr[ra as usize] = g(rs) & g(rb);
                cont
            }
            Or { ra, rs, rb } => {
                self.gpr[ra as usize] = g(rs) | g(rb);
                cont
            }
            Xor { ra, rs, rb } => {
                self.gpr[ra as usize] = g(rs) ^ g(rb);
                cont
            }
            Slw { ra, rs, rb } => {
                let sh = g(rb) & 0x3F;
                self.gpr[ra as usize] = if sh >= 32 { 0 } else { g(rs) << sh };
                cont
            }
            Srw { ra, rs, rb } => {
                let sh = g(rb) & 0x3F;
                self.gpr[ra as usize] = if sh >= 32 { 0 } else { g(rs) >> sh };
                cont
            }
            Rlwinm { ra, rs, sh, mb, me } => {
                let rot = g(rs).rotate_left(sh as u32);
                // PowerPC big-endian bit numbering: bit 0 is the MSB.
                let x = u32::MAX >> mb;
                let y = u32::MAX << (31 - me);
                let mask = if mb <= me { x & y } else { x | y };
                self.gpr[ra as usize] = rot & mask;
                cont
            }
            Cmpw { ra, rb } => {
                self.set_cr0_signed(g(ra) as i32, g(rb) as i32);
                cont
            }
            Cmpwi { ra, simm } => {
                self.set_cr0_signed(g(ra) as i32, simm as i32);
                cont
            }
            Cmplw { ra, rb } => {
                self.set_cr0_unsigned(g(ra), g(rb));
                cont
            }
            Cmplwi { ra, uimm } => {
                self.set_cr0_unsigned(g(ra), uimm as u32);
                cont
            }
            Lwz { rt, ra, d } => {
                let base = if ra == 0 { 0 } else { g(ra) };
                Action::Load {
                    addr: base.wrapping_add(d as i32 as u32),
                    size: 4,
                    reg: rt,
                }
            }
            Lbz { rt, ra, d } => {
                let base = if ra == 0 { 0 } else { g(ra) };
                Action::Load {
                    addr: base.wrapping_add(d as i32 as u32),
                    size: 1,
                    reg: rt,
                }
            }
            Stw { rs, ra, d } => {
                let base = if ra == 0 { 0 } else { g(ra) };
                Action::Store {
                    addr: base.wrapping_add(d as i32 as u32),
                    size: 4,
                    value: g(rs),
                }
            }
            Stb { rs, ra, d } => {
                let base = if ra == 0 { 0 } else { g(ra) };
                Action::Store {
                    addr: base.wrapping_add(d as i32 as u32),
                    size: 1,
                    value: g(rs) & 0xFF,
                }
            }
            Lwzx { rt, ra, rb } => {
                let base = if ra == 0 { 0 } else { g(ra) };
                Action::Load {
                    addr: base.wrapping_add(g(rb)),
                    size: 4,
                    reg: rt,
                }
            }
            Stwx { rs, ra, rb } => {
                let base = if ra == 0 { 0 } else { g(ra) };
                Action::Store {
                    addr: base.wrapping_add(g(rb)),
                    size: 4,
                    value: g(rs),
                }
            }
            B { target, link } => {
                if link {
                    self.lr = pc.wrapping_add(4);
                }
                self.pc = pc.wrapping_add(target as u32);
                Action::Continue { extra_cycles: 1 }
            }
            Bc { cond, target, link } => {
                if link {
                    self.lr = pc.wrapping_add(4);
                }
                if self.cond_taken(cond) {
                    self.pc = pc.wrapping_add(target as i32 as u32);
                    Action::Continue { extra_cycles: 1 }
                } else {
                    cont
                }
            }
            Blr => {
                self.pc = self.lr & !3;
                Action::Continue { extra_cycles: 1 }
            }
            Bctr => {
                self.pc = self.ctr & !3;
                Action::Continue { extra_cycles: 1 }
            }
            Mtspr { spr, rs } => {
                match spr {
                    Spr::Lr => self.lr = g(rs),
                    Spr::Ctr => self.ctr = g(rs),
                    Spr::Srr0 => self.srr0 = g(rs),
                    Spr::Srr1 => self.srr1 = g(rs),
                }
                cont
            }
            Mfspr { rt, spr } => {
                self.gpr[rt as usize] = match spr {
                    Spr::Lr => self.lr,
                    Spr::Ctr => self.ctr,
                    Spr::Srr0 => self.srr0,
                    Spr::Srr1 => self.srr1,
                };
                cont
            }
            Mtdcr { dcrn, rs } => Action::DcrWrite { dcrn, value: g(rs) },
            Mfdcr { rt, dcrn } => Action::DcrRead { dcrn, reg: rt },
            Mtmsr { rs } => {
                self.msr = g(rs);
                cont
            }
            Mfmsr { rt } => {
                self.gpr[rt as usize] = self.msr;
                cont
            }
            Mfcr { rt } => {
                // CR0 occupies the top nibble: LT=31, GT=30, EQ=29.
                self.gpr[rt as usize] = ((self.cr0.lt as u32) << 31)
                    | ((self.cr0.gt as u32) << 30)
                    | ((self.cr0.eq as u32) << 29);
                cont
            }
            Mtcrf { rs } => {
                let v = g(rs);
                self.cr0 = Cr0 {
                    lt: v & (1 << 31) != 0,
                    gt: v & (1 << 30) != 0,
                    eq: v & (1 << 29) != 0,
                };
                cont
            }
            Rfi => {
                self.pc = self.srr0;
                self.msr = self.srr1;
                Action::Continue { extra_cycles: 1 }
            }
            Sync | Isync => Action::Continue { extra_cycles: 1 },
            Trap => Action::Halt,
            Illegal(w) => Action::Error(format!("illegal instruction {w:#010x} at {pc:#010x}")),
        }
    }
}

/// Execution statistics shared with the testbench.
#[derive(Debug, Default, Clone)]
pub struct IssStats {
    /// Instructions retired.
    pub instret: u64,
    /// Cycles elapsed while not halted.
    pub cycles: u64,
    /// Cycles spent stalled on loads/stores.
    pub mem_stall_cycles: u64,
    /// Cycles spent stalled on DCR accesses.
    pub dcr_stall_cycles: u64,
    /// External interrupts taken.
    pub interrupts: u64,
    /// Cycles spent between interrupt entry and `rfi` (ISR time — the
    /// "PowerPC Interrupt Handler" row of the paper's Table II).
    pub isr_cycles: u64,
    /// True once the core executed `halt`.
    pub halted: bool,
    /// Set when the core stopped on an error (message kept).
    pub error: Option<String>,
    /// PC of the most recently fetched instruction (debug aid).
    pub last_pc: u32,
}

#[derive(Debug)]
enum IssState {
    Run,
    Stall(u32),
    WaitLoadWord {
        reg: u8,
    },
    WaitLoadByte {
        reg: u8,
        byte_off: u32,
    },
    WaitStore,
    /// Byte store: read-modify-write (read phase).
    WaitRmwRead {
        addr: u32,
        byte_off: u32,
        value: u8,
    },
    /// Byte store: write phase in flight.
    WaitRmwWrite,
    WaitDcr {
        reg: Option<u8>,
    },
    Halted,
}

/// Address the ISS starts executing at after reset (its interrupt
/// vector base is 0, so the external interrupt enters at `0x500`).
/// System programs are assembled to load here.
pub const ISS_ENTRY: u32 = 0x1000;

/// The kernel component wrapping [`CpuCore`].
pub struct PpcIss {
    core: CpuCore,
    clk: SignalId,
    rst: SignalId,
    irq: SignalId,
    mem: SharedMem,
    dma: DmaDriver,
    dcr: DcrHandle,
    state: IssState,
    stats: Rc<RefCell<IssStats>>,
    in_isr: bool,
}

impl PpcIss {
    /// Build and register the ISS. `port` must be connected to the PLB as
    /// a master; `dcr` to the DCR chain master; `irq` is the external
    /// interrupt line (level-sensitive while EE).
    #[allow(clippy::too_many_arguments)]
    pub fn instantiate(
        sim: &mut Simulator,
        name: &str,
        clk: SignalId,
        rst: SignalId,
        irq: SignalId,
        port: MasterPort,
        mem: SharedMem,
        dcr: DcrHandle,
    ) -> Rc<RefCell<IssStats>> {
        let stats = Rc::new(RefCell::new(IssStats::default()));
        let iss = PpcIss {
            core: CpuCore::new(ISS_ENTRY, 0),
            clk,
            rst,
            irq,
            mem,
            dma: DmaDriver::new(port, plb::dma::Handshake::Full, 16),
            dcr,
            state: IssState::Run,
            stats: stats.clone(),
            in_isr: false,
        };
        sim.add_clocked(name, CompKind::Vip, Box::new(iss), clk, &[rst]);
        stats
    }

    fn begin_action(&mut self, ctx: &mut Ctx<'_>, action: Action) {
        match action {
            Action::Continue { extra_cycles } => {
                self.state = if extra_cycles > 0 {
                    IssState::Stall(extra_cycles)
                } else {
                    IssState::Run
                };
            }
            Action::Load { addr, size: 4, reg } => {
                self.dma.start_read(addr & !3, 1);
                self.state = IssState::WaitLoadWord { reg };
            }
            Action::Load { addr, reg, .. } => {
                self.dma.start_read(addr & !3, 1);
                self.state = IssState::WaitLoadByte {
                    reg,
                    byte_off: addr & 3,
                };
            }
            Action::Store {
                addr,
                size: 4,
                value,
            } => {
                self.dma.start_write(addr & !3, vec![value]);
                self.state = IssState::WaitStore;
            }
            Action::Store { addr, value, .. } => {
                // Byte store becomes read-modify-write on the 32-bit bus.
                self.dma.start_read(addr & !3, 1);
                self.state = IssState::WaitRmwRead {
                    addr: addr & !3,
                    byte_off: addr & 3,
                    value: value as u8,
                };
            }
            Action::DcrRead { dcrn, reg } => {
                self.dcr.request(DcrOp::Read(dcrn));
                self.state = IssState::WaitDcr { reg: Some(reg) };
            }
            Action::DcrWrite { dcrn, value } => {
                self.dcr.request(DcrOp::Write(dcrn, value));
                self.state = IssState::WaitDcr { reg: None };
            }
            Action::Halt => {
                self.stats.borrow_mut().halted = true;
                self.state = IssState::Halted;
            }
            Action::Error(msg) => {
                ctx.error(format!("CPU stopped: {msg}"));
                let mut s = self.stats.borrow_mut();
                s.error = Some(msg);
                s.halted = true;
                self.state = IssState::Halted;
            }
        }
    }
}

impl Component for PpcIss {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.is_high(self.rst) {
            self.core = CpuCore::new(ISS_ENTRY, 0);
            self.state = IssState::Run;
            if self.in_isr {
                ctx.trace_end(TraceCat::Isr, "isr", 0, u64::MAX);
            }
            self.in_isr = false;
            self.dma.reset(ctx);
            return;
        }
        if !ctx.rose(self.clk) {
            return;
        }
        {
            let mut s = self.stats.borrow_mut();
            if !matches!(self.state, IssState::Halted) {
                s.cycles += 1;
                if self.in_isr {
                    s.isr_cycles += 1;
                }
            }
        }
        match &mut self.state {
            // A halted core never restarts on its own; only reset revives
            // it (interrupts are not sampled while halted).
            IssState::Halted => ctx.park_until(&[self.rst], &[]),
            IssState::Stall(n) => {
                *n -= 1;
                if *n == 0 {
                    self.state = IssState::Run;
                }
            }
            IssState::Run => {
                // Interrupt check at instruction boundary.
                if self.core.interrupts_enabled() && ctx.is_high(self.irq) {
                    self.core.external_interrupt();
                    if !self.in_isr {
                        ctx.trace_begin(TraceCat::Isr, "isr", 0, 0);
                    }
                    self.in_isr = true;
                    self.stats.borrow_mut().interrupts += 1;
                }
                let pc = self.core.pc;
                if pc as usize + 4 > self.mem.len() {
                    let msg = format!("instruction fetch out of memory at {pc:#010x}");
                    ctx.error(format!("CPU stopped: {msg}"));
                    self.stats.borrow_mut().error = Some(msg);
                    self.state = IssState::Halted;
                    return;
                }
                let word = match self.mem.read_u32(pc) {
                    Some(w) => w,
                    None => {
                        let msg = format!("fetched X-poisoned instruction at {pc:#010x}");
                        ctx.error(format!("CPU stopped: {msg}"));
                        self.stats.borrow_mut().error = Some(msg);
                        self.state = IssState::Halted;
                        return;
                    }
                };
                let instr = Instr::decode(word);
                let was_rfi = matches!(instr, Instr::Rfi);
                let action = self.core.execute(instr);
                {
                    let mut s = self.stats.borrow_mut();
                    s.instret += 1;
                    s.last_pc = pc;
                }
                if was_rfi {
                    if self.in_isr {
                        ctx.trace_end(TraceCat::Isr, "isr", 0, 0);
                    }
                    self.in_isr = false;
                }
                self.begin_action(ctx, action);
            }
            IssState::WaitLoadWord { reg } => {
                let reg = *reg;
                self.stats.borrow_mut().mem_stall_cycles += 1;
                if let Some(ev) = self.dma.step(ctx) {
                    match ev {
                        DmaEvent::ReadDone => {
                            let v = self.dma.take_read_data()[0];
                            self.core.complete_load(reg, v);
                            self.state = IssState::Run;
                        }
                        _ => {
                            ctx.error("CPU load failed on the bus");
                            self.state = IssState::Halted;
                        }
                    }
                }
            }
            IssState::WaitLoadByte { reg, byte_off } => {
                let (reg, off) = (*reg, *byte_off);
                self.stats.borrow_mut().mem_stall_cycles += 1;
                if let Some(ev) = self.dma.step(ctx) {
                    match ev {
                        DmaEvent::ReadDone => {
                            let w = self.dma.take_read_data()[0];
                            self.core.complete_load(reg, (w >> (8 * off)) & 0xFF);
                            self.state = IssState::Run;
                        }
                        _ => {
                            ctx.error("CPU byte load failed on the bus");
                            self.state = IssState::Halted;
                        }
                    }
                }
            }
            IssState::WaitStore => {
                self.stats.borrow_mut().mem_stall_cycles += 1;
                if let Some(ev) = self.dma.step(ctx) {
                    match ev {
                        DmaEvent::WriteDone => self.state = IssState::Run,
                        _ => {
                            ctx.error("CPU store failed on the bus");
                            self.state = IssState::Halted;
                        }
                    }
                }
            }
            IssState::WaitRmwRead {
                addr,
                byte_off,
                value,
            } => {
                let (addr, off, val) = (*addr, *byte_off, *value);
                self.stats.borrow_mut().mem_stall_cycles += 1;
                if let Some(ev) = self.dma.step(ctx) {
                    match ev {
                        DmaEvent::ReadDone => {
                            let w = self.dma.take_read_data()[0];
                            let mask = 0xFFu32 << (8 * off);
                            let merged = (w & !mask) | ((val as u32) << (8 * off));
                            self.dma.start_write(addr, vec![merged]);
                            self.state = IssState::WaitRmwWrite;
                        }
                        _ => {
                            ctx.error("CPU byte store (read phase) failed on the bus");
                            self.state = IssState::Halted;
                        }
                    }
                }
            }
            IssState::WaitRmwWrite => {
                self.stats.borrow_mut().mem_stall_cycles += 1;
                if let Some(ev) = self.dma.step(ctx) {
                    match ev {
                        DmaEvent::WriteDone => self.state = IssState::Run,
                        _ => {
                            ctx.error("CPU byte store (write phase) failed on the bus");
                            self.state = IssState::Halted;
                        }
                    }
                }
            }
            IssState::WaitDcr { reg } => {
                let reg = *reg;
                self.stats.borrow_mut().dcr_stall_cycles += 1;
                if let Some((_, result)) = self.dcr.poll() {
                    match result {
                        DcrResult::Ok(v) => {
                            if let Some(r) = reg {
                                self.core.complete_load(r, v);
                            }
                            self.state = IssState::Run;
                        }
                        DcrResult::Timeout | DcrResult::CorruptX => {
                            // The DCR master already reported the error;
                            // software reads garbage and continues, as a
                            // real core would.
                            if let Some(r) = reg {
                                self.core.complete_load(r, 0xDEAD_DEAD);
                            }
                            self.state = IssState::Run;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    /// Run a program on the bare core with direct (zero-latency) memory,
    /// no bus — unit-level semantics checks.
    fn run_bare(src: &str, max_steps: usize) -> CpuCore {
        let p = assemble(src, 0x1000).unwrap();
        let mut mem = vec![0u8; 64 * 1024];
        mem[p.base as usize..p.base as usize + p.words.len() * 4].copy_from_slice(&p.to_bytes());
        let mut core = CpuCore::new(0x1000, 0);
        for _ in 0..max_steps {
            let pc = core.pc as usize;
            let w = u32::from_le_bytes(mem[pc..pc + 4].try_into().unwrap());
            match core.execute(Instr::decode(w)) {
                Action::Continue { .. } => {}
                Action::Load { addr, size, reg } => {
                    let a = (addr & !3) as usize;
                    let w = u32::from_le_bytes(mem[a..a + 4].try_into().unwrap());
                    let v = if size == 4 {
                        w
                    } else {
                        (w >> (8 * (addr & 3))) & 0xFF
                    };
                    core.complete_load(reg, v);
                }
                Action::Store { addr, size, value } => {
                    if size == 4 {
                        mem[addr as usize..addr as usize + 4].copy_from_slice(&value.to_le_bytes());
                    } else {
                        mem[addr as usize] = value as u8;
                    }
                }
                Action::Halt => return core,
                other => panic!("unexpected action {other:?}"),
            }
        }
        panic!("program did not halt");
    }

    #[test]
    fn arithmetic_loop_counts_to_ten() {
        let core = run_bare(
            "li r3, 0\nloop: addi r3, r3, 1\ncmpwi r3, 10\nbne loop\nhalt\n",
            200,
        );
        assert_eq!(core.gpr[3], 10);
    }

    #[test]
    fn function_call_and_return() {
        let core = run_bare(
            "li r3, 5\nbl double\nbl double\nhalt\ndouble: add r3, r3, r3\nblr\n",
            100,
        );
        assert_eq!(core.gpr[3], 20);
    }

    #[test]
    fn memory_round_trip_and_byte_ops() {
        let core = run_bare(
            "liw r4, 0x2000\nliw r3, 0x11223344\nstw r3, 0(r4)\nlwz r5, 0(r4)\nlbz r6, 1(r4)\nhalt\n",
            100,
        );
        assert_eq!(core.gpr[5], 0x11223344);
        assert_eq!(core.gpr[6], 0x33); // little-endian byte 1
    }

    #[test]
    fn bdnz_delay_loop() {
        let core = run_bare(
            "li r3, 0\nli r4, 100\nmtctr r4\nloop: addi r3, r3, 1\nbdnz loop\nhalt\n",
            500,
        );
        assert_eq!(core.gpr[3], 100);
        assert_eq!(core.ctr, 0);
    }

    #[test]
    fn signed_vs_unsigned_compare() {
        let core = run_bare(
            "liw r3, 0xFFFFFFFF\nli r4, 1\nli r5, 0\nli r6, 0\ncmpw r3, r4\nbge signed_ge\nb after1\nsigned_ge: li r5, 1\nafter1: cmplw r3, r4\nble unsigned_le\nli r6, 1\nunsigned_le: halt\n",
            100,
        );
        // -1 < 1 signed, so r5 stays 0; 0xFFFFFFFF > 1 unsigned, so r6 = 1.
        assert_eq!(core.gpr[5], 0);
        assert_eq!(core.gpr[6], 1);
    }

    #[test]
    fn rlwinm_masks() {
        let core = run_bare(
            "liw r3, 0xDEADBEEF\nslwi r4, r3, 8\nsrwi r5, r3, 16\nrlwinm r6, r3, 0, 24, 31\nhalt\n",
            50,
        );
        assert_eq!(core.gpr[4], 0xADBEEF00);
        assert_eq!(core.gpr[5], 0x0000DEAD);
        assert_eq!(core.gpr[6], 0x000000EF);
    }

    #[test]
    fn shift_register_ops() {
        let core = run_bare(
            "li r3, 1\nli r4, 35\nslw r5, r3, r4\nli r4, 4\nslw r6, r3, r4\nliw r7, 0x80000000\nsrw r8, r7, r4\nhalt\n",
            60,
        );
        assert_eq!(core.gpr[5], 0, "shift >= 32 yields 0");
        assert_eq!(core.gpr[6], 16);
        assert_eq!(core.gpr[8], 0x0800_0000);
    }

    #[test]
    fn mul_div_neg() {
        let core = run_bare(
            "li r3, 7\nli r4, 6\nmullw r5, r3, r4\nli r6, 100\nli r7, 7\ndivwu r8, r6, r7\nneg r9, r3\nhalt\n",
            50,
        );
        assert_eq!(core.gpr[5], 42);
        assert_eq!(core.gpr[8], 14);
        assert_eq!(core.gpr[9], (-7i32) as u32);
    }

    #[test]
    fn interrupt_save_restore() {
        let mut core = CpuCore::new(0x1000, 0);
        core.msr = MSR_EE;
        core.pc = 0x1234;
        core.external_interrupt();
        assert_eq!(core.pc, 0x500);
        assert_eq!(core.srr0, 0x1234);
        assert_eq!(core.srr1, MSR_EE);
        assert!(!core.interrupts_enabled());
        // rfi restores.
        let action = core.execute(Instr::Rfi);
        assert!(matches!(action, Action::Continue { .. }));
        assert_eq!(core.pc, 0x1234);
        assert!(core.interrupts_enabled());
    }

    #[test]
    fn dcr_actions_surface() {
        let mut core = CpuCore::new(0, 0);
        core.gpr[3] = 0xCAFE;
        assert_eq!(
            core.execute(Instr::Mtdcr { dcrn: 0x100, rs: 3 }),
            Action::DcrWrite {
                dcrn: 0x100,
                value: 0xCAFE
            }
        );
        assert_eq!(
            core.execute(Instr::Mfdcr { rt: 4, dcrn: 0x101 }),
            Action::DcrRead {
                dcrn: 0x101,
                reg: 4
            }
        );
        core.complete_load(4, 77);
        assert_eq!(core.gpr[4], 77);
    }

    #[test]
    fn illegal_instruction_errors() {
        let mut core = CpuCore::new(0, 0);
        match core.execute(Instr::Illegal(0xFFFF_FFFF)) {
            Action::Error(msg) => assert!(msg.contains("illegal")),
            other => panic!("{other:?}"),
        }
    }
}

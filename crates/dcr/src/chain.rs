//! The daisy-chain fabric: master FSM and pass-through slaves.

use crate::regfile::RegFile;
use crate::{DCR_ADDR_BITS, DCR_DATA_BITS, DCR_TIMEOUT_CYCLES};
use rtlsim::{CompKind, Component, Ctx, DoorbellId, Lv, SignalId, Simulator};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

/// One DCR access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DcrOp {
    /// `mfdcr` — read the register at the address.
    Read(u16),
    /// `mtdcr` — write the value to the register at the address.
    Write(u16, u32),
}

/// Outcome of a DCR access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DcrResult {
    /// Read data (or the written value echoed for writes).
    Ok(u32),
    /// No slave acknowledged within [`DCR_TIMEOUT_CYCLES`].
    Timeout,
    /// The ack or data path carried `X`/`Z` — the chain is corrupted,
    /// typically by a slave inside a region undergoing reconfiguration.
    CorruptX,
}

struct HandleInner {
    requests: VecDeque<DcrOp>,
    results: VecDeque<(DcrOp, DcrResult)>,
    in_flight: bool,
}

/// Testbench/processor-side handle for issuing DCR operations.
#[derive(Clone)]
pub struct DcrHandle {
    inner: Rc<RefCell<HandleInner>>,
    /// Raised on every [`DcrHandle::request`]; the master parks on this
    /// as a kernel doorbell while its queue is empty.
    pending: Rc<Cell<bool>>,
}

impl DcrHandle {
    fn new() -> DcrHandle {
        DcrHandle {
            inner: Rc::new(RefCell::new(HandleInner {
                requests: VecDeque::new(),
                results: VecDeque::new(),
                in_flight: false,
            })),
            pending: Rc::new(Cell::new(false)),
        }
    }

    /// The request flag, suitable for `Simulator::add_doorbell`.
    pub fn request_flag(&self) -> Rc<Cell<bool>> {
        self.pending.clone()
    }

    /// Queue an access; it executes in order after earlier requests.
    pub fn request(&self, op: DcrOp) {
        self.inner.borrow_mut().requests.push_back(op);
        self.pending.set(true);
    }

    /// Pop the oldest completed access, if any.
    pub fn poll(&self) -> Option<(DcrOp, DcrResult)> {
        self.inner.borrow_mut().results.pop_front()
    }

    /// True while any request is queued or executing.
    pub fn busy(&self) -> bool {
        let i = self.inner.borrow();
        i.in_flight || !i.requests.is_empty()
    }
}

#[derive(Debug, Clone, Copy)]
enum MState {
    Idle,
    Wait { op: DcrOp, cycles: u32 },
}

struct DcrMaster {
    clk: SignalId,
    rst: SignalId,
    abus: SignalId,
    wdata: SignalId,
    rd: SignalId,
    wr: SignalId,
    ret_data: SignalId,
    ret_ack: SignalId,
    handle: DcrHandle,
    state: MState,
    /// Doorbell rung by [`DcrHandle::request`]; the master parks on it
    /// while idle with an empty queue.
    bell: DoorbellId,
}

impl Component for DcrMaster {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.is_high(self.rst) {
            ctx.set_bit(self.rd, false);
            ctx.set_bit(self.wr, false);
            ctx.set_u64(self.abus, 0);
            ctx.set_u64(self.wdata, 0);
            self.state = MState::Idle;
            return;
        }
        if !ctx.rose(self.clk) {
            return;
        }
        match self.state {
            MState::Idle => {
                let op = self.handle.inner.borrow_mut().requests.pop_front();
                if op.is_none() {
                    // Quiescent: nothing to issue until software queues a
                    // request (doorbell) or reset changes.
                    ctx.park_until(&[self.rst], &[self.bell]);
                }
                if let Some(op) = op {
                    self.handle.inner.borrow_mut().in_flight = true;
                    match op {
                        DcrOp::Read(a) => {
                            ctx.set_u64(self.abus, a as u64);
                            ctx.set_bit(self.rd, true);
                        }
                        DcrOp::Write(a, v) => {
                            ctx.set_u64(self.abus, a as u64);
                            ctx.set_u64(self.wdata, v as u64);
                            ctx.set_bit(self.wr, true);
                        }
                    }
                    self.state = MState::Wait { op, cycles: 0 };
                }
            }
            MState::Wait { op, cycles } => {
                let ack = ctx.get(self.ret_ack);
                let data = ctx.get(self.ret_data);
                let result = if ack.has_unknown() {
                    Some(DcrResult::CorruptX)
                } else if ack.truthy() {
                    if matches!(op, DcrOp::Read(_)) && data.has_unknown() {
                        Some(DcrResult::CorruptX)
                    } else {
                        Some(DcrResult::Ok(data.to_u64_lossy() as u32))
                    }
                } else if cycles >= DCR_TIMEOUT_CYCLES {
                    Some(DcrResult::Timeout)
                } else {
                    self.state = MState::Wait {
                        op,
                        cycles: cycles + 1,
                    };
                    None
                };
                if let Some(r) = result {
                    match r {
                        DcrResult::CorruptX => {
                            ctx.error(format!("DCR chain corrupted by X during {op:?}"))
                        }
                        DcrResult::Timeout => ctx.error(format!("DCR timeout on {op:?}")),
                        DcrResult::Ok(_) => {}
                    }
                    ctx.set_bit(self.rd, false);
                    ctx.set_bit(self.wr, false);
                    let mut inner = self.handle.inner.borrow_mut();
                    inner.results.push_back((op, r));
                    inner.in_flight = false;
                    self.state = MState::Idle;
                }
            }
        }
    }
}

struct DcrSlave {
    clk: SignalId,
    abus: SignalId,
    rd: SignalId,
    wr: SignalId,
    d_in: SignalId,
    ack_in: SignalId,
    d_out: SignalId,
    ack_out: SignalId,
    regs: RegFile,
    /// When this signal is truthy or unknown, the slave's chain outputs
    /// are driven to `X` — it models the slave's logic being inside a
    /// region that is currently being reconfigured.
    x_when: Option<SignalId>,
    /// Everything the eval reads except `clk`: while the slave is not
    /// selected its outputs are pure passthrough, so it can park until
    /// one of these moves. It must stay awake while selected — the
    /// write commit needs to sample a posedge.
    wake: Vec<SignalId>,
}

impl Component for DcrSlave {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        // Corruption override: region being rewritten.
        if let Some(xs) = self.x_when {
            let v = ctx.get(xs);
            if v.truthy() || v.has_unknown() {
                ctx.set(self.d_out, Lv::xes(DCR_DATA_BITS));
                ctx.set(self.ack_out, Lv::xes(1));
                return;
            }
        }
        let addr = ctx.get(self.abus).to_u64_lossy() as u16;
        let rd = ctx.is_high(self.rd);
        let wr = ctx.is_high(self.wr);
        let sel = (rd || wr) && self.regs.decodes(addr);
        // Clocked write commit (wr is a level; commit once on the first
        // posedge it is seen — the master holds until ack, and ack is
        // combinational, so exactly one posedge samples wr&&sel high
        // before the master deasserts).
        if ctx.rose(self.clk) && wr && sel {
            let d = ctx.get(self.d_in);
            if d.has_unknown() {
                ctx.error(format!(
                    "DCR write to {addr:#x} received X data through the chain"
                ));
            }
            self.regs.bus_write(addr, d.to_u64_lossy() as u32);
        }
        // Combinational chain segment.
        if sel {
            ctx.set_bit(self.ack_out, true);
            if rd {
                ctx.set_u64(self.d_out, self.regs.bus_read(addr) as u64);
            } else {
                ctx.set(self.d_out, ctx.get(self.d_in));
            }
        } else {
            ctx.set(self.ack_out, ctx.get(self.ack_in));
            ctx.set(self.d_out, ctx.get(self.d_in));
            // Not selected: outputs track the chain inputs, all of which
            // are in the wake set, so posedge re-evals are no-ops.
            ctx.park_until(&self.wake, &[]);
        }
    }
}

/// Builds a DCR chain: master, then slaves in attachment order. The
/// *last* attached slave is nearest the master's return path, so `X`
/// from it corrupts every response.
pub struct DcrChainBuilder<'a> {
    sim: &'a mut Simulator,
    name: String,
    clk: SignalId,
    rst: SignalId,
    abus: SignalId,
    wdata: SignalId,
    rd: SignalId,
    wr: SignalId,
    /// Data/ack signal pair at the current chain tail.
    tail_d: SignalId,
    tail_ack: SignalId,
    slave_count: usize,
}

impl<'a> DcrChainBuilder<'a> {
    /// Start a chain. `clk`/`rst` drive the master and write commits.
    pub fn new(sim: &'a mut Simulator, name: &str, clk: SignalId, rst: SignalId) -> Self {
        let abus = sim.signal_init(format!("{name}.abus"), DCR_ADDR_BITS, 0);
        let wdata = sim.signal_init(format!("{name}.wdata"), DCR_DATA_BITS, 0);
        let rd = sim.signal_init(format!("{name}.rd"), 1, 0);
        let wr = sim.signal_init(format!("{name}.wr"), 1, 0);
        // Chain head: master's write data, ack 0.
        let head_ack = sim.signal_init(format!("{name}.ack0"), 1, 0);
        DcrChainBuilder {
            sim,
            name: name.to_string(),
            clk,
            rst,
            abus,
            wdata,
            rd,
            wr,
            tail_d: wdata,
            tail_ack: head_ack,
            slave_count: 0,
        }
    }

    /// Append a register-block slave to the chain. `x_when` (if given)
    /// forces the slave's chain outputs to `X` while that signal is
    /// truthy/unknown — wire the reconfigurable region's "reconfiguring"
    /// strobe here to model DCR registers left inside the region.
    pub fn add_slave(&mut self, label: &str, regs: RegFile, x_when: Option<SignalId>) {
        let i = self.slave_count;
        self.slave_count += 1;
        let d_out = self
            .sim
            .signal(format!("{}.d{}", self.name, i + 1), DCR_DATA_BITS);
        let ack_out = self.sim.signal(format!("{}.ack{}", self.name, i + 1), 1);
        let mut wake = vec![self.abus, self.rd, self.wr, self.tail_d, self.tail_ack];
        if let Some(x) = x_when {
            wake.push(x);
        }
        let slave = DcrSlave {
            clk: self.clk,
            abus: self.abus,
            rd: self.rd,
            wr: self.wr,
            d_in: self.tail_d,
            ack_in: self.tail_ack,
            d_out,
            ack_out,
            regs,
            x_when,
            wake: wake.clone(),
        };
        // A falling clk would only re-run the comb passthrough with
        // unchanged inputs, so the slave is posedge-clocked.
        self.sim.add_clocked(
            format!("{}.slave.{}", self.name, label),
            CompKind::UserStatic,
            Box::new(slave),
            self.clk,
            &wake,
        );
        self.tail_d = d_out;
        self.tail_ack = ack_out;
    }

    /// Close the ring: instantiate the master and return its handle.
    pub fn finish(self) -> DcrHandle {
        let handle = DcrHandle::new();
        let bell = self.sim.add_doorbell(handle.request_flag());
        let master = DcrMaster {
            clk: self.clk,
            rst: self.rst,
            abus: self.abus,
            wdata: self.wdata,
            rd: self.rd,
            wr: self.wr,
            ret_data: self.tail_d,
            ret_ack: self.tail_ack,
            handle: handle.clone(),
            state: MState::Idle,
            bell,
        };
        self.sim.add_clocked(
            format!("{}.master", self.name),
            CompKind::UserStatic,
            Box::new(master),
            self.clk,
            &[self.rst],
        );
        handle
    }
}

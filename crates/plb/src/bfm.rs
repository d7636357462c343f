//! A scripted bus-functional-model master for testing the bus fabric.

use crate::dma::{DmaDriver, DmaEvent, Handshake};
use crate::port::MasterPort;
use rtlsim::{CompKind, Component, Ctx, SignalId, Simulator};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// One scripted operation.
#[derive(Debug, Clone)]
pub enum BfmOp {
    /// Write `data` starting at `addr`.
    Write {
        /// Start byte address.
        addr: u32,
        /// Beats to write.
        data: Vec<u32>,
    },
    /// Read `words` beats from `addr`.
    Read {
        /// Start byte address.
        addr: u32,
        /// Beats to read.
        words: u32,
    },
    /// Stay idle for `cycles` clock cycles.
    Delay {
        /// Idle cycles.
        cycles: u32,
    },
}

/// Results shared with the testbench.
#[derive(Debug, Default)]
pub struct BfmLog {
    /// Data captured by each completed read, in script order.
    pub reads: Vec<Vec<u32>>,
    /// Completed operation count (writes + reads).
    pub completed: usize,
    /// Bus errors observed.
    pub errors: usize,
}

/// A scripted PLB master: executes its operations in order, one at a
/// time, and records results into a shared [`BfmLog`].
pub struct TestMaster {
    clk: SignalId,
    rst: SignalId,
    dma: DmaDriver,
    script: VecDeque<BfmOp>,
    delay_left: u32,
    log: Rc<RefCell<BfmLog>>,
}

impl TestMaster {
    /// Build and register a scripted master; returns its port and log.
    pub fn instantiate(
        sim: &mut Simulator,
        name: &str,
        clk: SignalId,
        rst: SignalId,
        handshake: Handshake,
        max_burst: u32,
        script: Vec<BfmOp>,
    ) -> (MasterPort, Rc<RefCell<BfmLog>>) {
        let port = MasterPort::alloc(sim, name);
        let log = Rc::new(RefCell::new(BfmLog::default()));
        let tm = TestMaster {
            clk,
            rst,
            dma: DmaDriver::new(port, handshake, max_burst),
            script: script.into(),
            delay_left: 0,
            log: log.clone(),
        };
        sim.add_clocked(name, CompKind::Vip, Box::new(tm), clk, &[rst]);
        (port, log)
    }
}

impl Component for TestMaster {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.is_high(self.rst) {
            self.dma.reset(ctx);
            return;
        }
        if !ctx.rose(self.clk) {
            return;
        }
        if let Some(ev) = self.dma.step(ctx) {
            let mut log = self.log.borrow_mut();
            match ev {
                DmaEvent::WriteDone => log.completed += 1,
                DmaEvent::ReadDone => {
                    log.reads.push(self.dma.take_read_data());
                    log.completed += 1;
                }
                DmaEvent::Error => log.errors += 1,
                // The BFM never cancels transfers.
                DmaEvent::Aborted => {}
            }
        }
        if self.dma.idle() {
            if self.delay_left > 0 {
                self.delay_left -= 1;
                return;
            }
            match self.script.pop_front() {
                Some(BfmOp::Write { addr, data }) => self.dma.start_write(addr, data),
                Some(BfmOp::Read { addr, words }) => self.dma.start_read(addr, words),
                Some(BfmOp::Delay { cycles }) => self.delay_left = cycles,
                // Script exhausted and the DMA engine idle: done forever
                // (short of a reset).
                None => ctx.park_until(&[self.rst], &[]),
            }
        }
    }
}

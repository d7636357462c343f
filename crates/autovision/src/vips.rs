//! Video verification IPs — the camera and display replacements.
//!
//! "Since the simulation environment does not have a camera or a
//! display, the video input and output modules were replaced with
//! VIPs "to mimic the input/output video stream ... transfer to/from
//! the simulated main memory via cycle-accurate PLB bus operations."
//!
//! Both VIPs are demand-driven through small DCR register blocks, so the
//! embedded software sequences them exactly as it sequenced the real
//! camera/display IP cores.

use dcr::RegFile;
use plb::dma::Handshake;
use plb::{DmaDriver, DmaEvent, MasterPort};
use rtlsim::{CompKind, Component, Ctx, DoorbellId, SignalId, Simulator};
use std::cell::RefCell;
use std::rc::Rc;
use video::Frame;

/// DCR register offsets shared by both VIPs.
pub mod reg {
    /// Frame buffer byte address.
    pub const ADDR: u16 = 0;
    /// Write bit0 = go.
    pub const CTRL: u16 = 1;
    /// bit0 = busy.
    pub const STATUS: u16 = 2;
}

/// Shared handle to the frames the display VIP has captured.
pub type CapturedFrames = Rc<RefCell<Vec<Frame>>>;
/// Shared handle to the per-frame X-poisoned word counts.
pub type PoisonCounts = Rc<RefCell<Vec<usize>>>;

/// The video-input VIP: on `go`, DMA-writes the next source frame to the
/// programmed address and pulses its interrupt line.
pub struct VideoInVip {
    clk: SignalId,
    rst: SignalId,
    regs: RegFile,
    dma: DmaDriver,
    irq_out: SignalId,
    frames: Vec<Frame>,
    next: usize,
    busy: bool,
    /// bug.hw.3: stop the transfer one burst (16 words) short.
    short_dma: bool,
    supplied: Rc<RefCell<usize>>,
    /// Doorbell rung by software DCR writes to this VIP's registers.
    bell: DoorbellId,
}

impl VideoInVip {
    /// Build and register the VIP; returns a counter of supplied frames.
    #[allow(clippy::too_many_arguments)]
    pub fn instantiate(
        sim: &mut Simulator,
        name: &str,
        clk: SignalId,
        rst: SignalId,
        regs: RegFile,
        port: MasterPort,
        irq_out: SignalId,
        frames: Vec<Frame>,
        short_dma: bool,
    ) -> Rc<RefCell<usize>> {
        assert!(!frames.is_empty(), "video input needs at least one frame");
        let supplied = Rc::new(RefCell::new(0));
        let bell = sim.add_doorbell(regs.dirty_flag());
        let vip = VideoInVip {
            clk,
            rst,
            regs,
            dma: DmaDriver::new(port, Handshake::Full, 16),
            irq_out,
            frames,
            next: 0,
            busy: false,
            short_dma,
            supplied: supplied.clone(),
            bell,
        };
        sim.add_clocked(name, CompKind::Vip, Box::new(vip), clk, &[rst]);
        supplied
    }
}

impl Component for VideoInVip {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.is_high(self.rst) {
            self.busy = false;
            self.next = 0;
            self.dma.reset(ctx);
            ctx.set_bit(self.irq_out, false);
            return;
        }
        if !ctx.rose(self.clk) {
            return;
        }
        ctx.set_bit(self.irq_out, false);
        let mut pulsed = false;
        for (off, v) in self.regs.take_writes() {
            if off == reg::CTRL && v & 1 != 0 && !self.busy {
                let frame = &self.frames[self.next % self.frames.len()];
                self.next += 1;
                let mut words = frame.to_words();
                if self.short_dma {
                    // BUG: the end-address calculation drops the last
                    // burst worth of pixels.
                    let keep = words.len().saturating_sub(16).max(1);
                    words.truncate(keep);
                }
                self.dma.start_write(self.regs.get(reg::ADDR), words);
                self.busy = true;
            }
        }
        if self.busy {
            if let Some(ev) = self.dma.step(ctx) {
                match ev {
                    DmaEvent::WriteDone => {
                        self.busy = false;
                        *self.supplied.borrow_mut() += 1;
                        ctx.set_bit(self.irq_out, true);
                        pulsed = true;
                    }
                    _ => {
                        ctx.error("video-in DMA failed");
                        self.busy = false;
                    }
                }
            }
        }
        self.regs.set(reg::STATUS, self.busy as u32);
        // Idle with no interrupt pulse to clear: nothing moves until the
        // software writes a register (doorbell) or reset asserts.
        if !self.busy && !pulsed {
            ctx.park_until(&[self.rst], &[self.bell]);
        }
    }
}

/// The video-output VIP: on `go`, DMA-reads a frame from the programmed
/// address into the shared capture log (our "display").
pub struct VideoOutVip {
    clk: SignalId,
    rst: SignalId,
    regs: RegFile,
    dma: DmaDriver,
    irq_out: SignalId,
    width: usize,
    height: usize,
    busy: bool,
    captured: Rc<RefCell<Vec<Frame>>>,
    /// Beats of the current read that carried X (poisoned pixels) —
    /// surfaced per captured frame.
    poisoned: Rc<RefCell<Vec<usize>>>,
    /// Doorbell rung by software DCR writes to this VIP's registers.
    bell: DoorbellId,
}

impl VideoOutVip {
    /// Build and register the VIP; returns (captured frames, per-frame
    /// poisoned-beat counts).
    #[allow(clippy::too_many_arguments)]
    pub fn instantiate(
        sim: &mut Simulator,
        name: &str,
        clk: SignalId,
        rst: SignalId,
        regs: RegFile,
        port: MasterPort,
        irq_out: SignalId,
        width: usize,
        height: usize,
    ) -> (CapturedFrames, PoisonCounts) {
        let captured = Rc::new(RefCell::new(Vec::new()));
        let poisoned = Rc::new(RefCell::new(Vec::new()));
        let bell = sim.add_doorbell(regs.dirty_flag());
        let vip = VideoOutVip {
            clk,
            rst,
            regs,
            dma: DmaDriver::new(port, Handshake::Full, 16),
            irq_out,
            width,
            height,
            busy: false,
            captured: captured.clone(),
            poisoned: poisoned.clone(),
            bell,
        };
        sim.add_clocked(name, CompKind::Vip, Box::new(vip), clk, &[rst]);
        (captured, poisoned)
    }
}

impl Component for VideoOutVip {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.is_high(self.rst) {
            self.busy = false;
            self.dma.reset(ctx);
            ctx.set_bit(self.irq_out, false);
            return;
        }
        if !ctx.rose(self.clk) {
            return;
        }
        ctx.set_bit(self.irq_out, false);
        let mut pulsed = false;
        for (off, v) in self.regs.take_writes() {
            if off == reg::CTRL && v & 1 != 0 && !self.busy {
                let words = (self.width * self.height / 4) as u32;
                self.dma.start_read(self.regs.get(reg::ADDR), words);
                self.busy = true;
            }
        }
        if self.busy {
            if let Some(ev) = self.dma.step(ctx) {
                match ev {
                    DmaEvent::ReadDone => {
                        self.busy = false;
                        let unknowns = self.dma.unknown_beats().len();
                        let words = self.dma.take_read_data();
                        self.captured.borrow_mut().push(Frame::from_words(
                            self.width,
                            self.height,
                            &words,
                        ));
                        self.poisoned.borrow_mut().push(unknowns);
                        ctx.set_bit(self.irq_out, true);
                        pulsed = true;
                    }
                    _ => {
                        ctx.error("video-out DMA failed");
                        self.busy = false;
                    }
                }
            }
        }
        self.regs.set(reg::STATUS, self.busy as u32);
        // Idle with no interrupt pulse to clear: nothing moves until the
        // software writes a register (doorbell) or reset asserts.
        if !self.busy && !pulsed {
            ctx.park_until(&[self.rst], &[self.bell]);
        }
    }
}

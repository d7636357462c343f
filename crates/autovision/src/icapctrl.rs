//! IcapCTRL — the reconfiguration controller (user design, *not* a
//! simulation artifact).
//!
//! The controller DMAs a bitstream (in simulation: a SimB) from main
//! memory over the PLB and feeds it to the ICAP configuration port one
//! word at a time. The modified Optical Flow Demonstrator attaches it to
//! the shared PLB — in the original design it had a dedicated
//! point-to-point link, and the leftover fixed-latency timing assumption
//! is exactly bug.dpr.4. Software programs it over DCR:
//!
//! | offset | name   | behaviour                                  |
//! |--------|--------|--------------------------------------------|
//! | 0      | CTRL   | write bit0 = start transfer                |
//! | 1      | STATUS | bit0 busy, bit1 done (latched), bit2 error,|
//! |        |        | bit3 recovered (done after ≥1 retry)       |
//! | 2      | ADDR   | bitstream byte address in memory           |
//! | 3      | SIZE   | bitstream length in 32-bit words           |
//! | 4      | RETRY  | retries used by the current/last transfer  |
//! | 5      | ERRCODE| last fault code (see [`errcode`])          |
//!
//! `done` pulses the `irq_out` line for the interrupt controller; with
//! recovery enabled a *permanent* failure (retry budget exhausted) also
//! pulses it, with STATUS.error set, so software never hangs waiting.
//!
//! ## Resilient reconfiguration
//!
//! With a [`RecoveryPolicy`] enabled the controller detects three fault
//! classes — PLB bus-error responses on the bitstream DMA, a
//! DMA-progress watchdog timeout (stalled transfer, dropped ICAP ready,
//! or a stream whose framing was corrupted so badly it never DESYNCs),
//! and the ICAP artifact's `crc_error` integrity latch — and runs a
//! bounded retry-with-backoff sequence: drain/abort the in-flight DMA
//! protocol-cleanly, pulse the ICAP `abort` input to re-arm the SimB
//! parser, wait an exponentially growing backoff, then re-DMA the whole
//! bitstream from `ADDR`. Isolation stays asserted throughout — software
//! holds it until the done interrupt — so a retried swap is invisible to
//! the static region apart from the added latency. Everything is off by
//! default; the default-policy controller is cycle-identical to the
//! seed.

use crate::faults::{Bug, FaultSet};
use dcr::RegFile;
use plb::dma::Handshake;
use plb::{DmaDriver, DmaEvent, MasterPort};
use resim::IcapPort;
use rtlsim::{CompKind, Component, Ctx, DoorbellId, SignalId, Simulator, TraceCat};
use std::cell::RefCell;
use std::rc::Rc;

/// DCR register offsets.
pub mod reg {
    /// Start control (write-1 bit0).
    pub const CTRL: u16 = 0;
    /// Status: busy/done/error/recovered.
    pub const STATUS: u16 = 1;
    /// Bitstream byte address.
    pub const ADDR: u16 = 2;
    /// Bitstream length in words.
    pub const SIZE: u16 = 3;
    /// Retries used by the current/last transfer.
    pub const RETRY: u16 = 4;
    /// Last fault code (see [`super::errcode`]).
    pub const ERRCODE: u16 = 5;
}

/// Fault codes reported in the ERRCODE register.
pub mod errcode {
    /// No fault.
    pub const NONE: u32 = 0;
    /// The bus answered a bitstream DMA with an error response.
    pub const BUS: u32 = 1;
    /// The DMA-progress watchdog expired (stalled transfer, dropped
    /// ICAP ready, or a corrupted stream that never completed).
    pub const WATCHDOG: u32 = 2;
    /// The ICAP reported a bitstream integrity failure (CRC mismatch or
    /// missing integrity word).
    pub const INTEGRITY: u32 = 3;
}

/// How many times an enabled policy retries a failed transfer before
/// the error is latched permanently.
pub const MAX_RETRIES: u32 = 3;

/// Backoff before retry `i` (1-based) is `BACKOFF_BASE << (i-1)`
/// cycles.
pub const BACKOFF_BASE: u32 = 16;

/// Cycles without transfer progress (no DMA burst completion and no
/// word accepted by the ICAP) before an enabled policy's watchdog
/// declares the transfer stuck.
pub const WATCHDOG_CYCLES: u32 = 2048;

/// Retry-with-backoff policy for the controller. Disabled by default:
/// the controller then behaves exactly like the original seed design
/// (first fault latches the error bit and gives up).
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryPolicy {
    /// Master enable for detection, watchdog and retry (up to
    /// [`MAX_RETRIES`] retries after [`BACKOFF_BASE`] backoff, with a
    /// [`WATCHDOG_CYCLES`] progress watchdog).
    pub enabled: bool,
}

/// Counters the recovery campaign reads out after a run.
#[derive(Debug, Default, Clone)]
pub struct RecoveryStats {
    /// Retry attempts started.
    pub retries: u64,
    /// Bus-error faults detected.
    pub bus_errors: u64,
    /// Watchdog expiries.
    pub watchdog_fires: u64,
    /// Integrity (CRC) faults detected.
    pub integrity_errors: u64,
    /// Transfers that completed successfully after at least one retry.
    pub recovered: u64,
    /// Transfers that failed permanently (budget exhausted).
    pub exhausted: u64,
    /// Sum over recovered transfers of cycles from first fault
    /// detection to completion.
    pub recovery_cycles_total: u64,
    /// Worst-case recovery latency in cycles.
    pub recovery_cycles_max: u64,
}

/// Words fetched from memory per burst (large bursts keep the feed
/// queue ahead of the ICAP's one-word-per-cycle drain).
const BURST: u32 = 128;
/// Feed-queue level below which the next burst is prefetched.
const PREFETCH_LEVEL: usize = 192;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum St {
    Idle,
    /// Transfer in progress: the DMA prefetches bursts into the feed
    /// queue while the ICAP side drains it, one word per cycle.
    Active,
    /// All words written (recovery mode only): wait for the ICAP to
    /// drain through DESYNC, then check the integrity latch.
    WaitDrain,
    /// A fault was detected: drain the in-flight DMA protocol-cleanly
    /// before re-arming (a granted PLB burst cannot simply be dropped).
    AbortFlush,
    /// Exponential backoff before the retry; the ICAP `abort` input is
    /// held high so the artifact starts the retry from a clean parser.
    Backoff {
        left: u32,
    },
    DonePulse,
}

/// The reconfiguration controller component.
pub struct IcapCtrl {
    clk: SignalId,
    rst: SignalId,
    regs: RegFile,
    icap: IcapPort,
    dma: DmaDriver,
    st: St,
    /// Double-buffered feed queue between the DMA and the ICAP port.
    feed: std::collections::VecDeque<u32>,
    fetching: bool,
    addr: u32,
    /// Words still to fetch from memory.
    fetch_left: u32,
    /// Words still to write into the ICAP.
    write_left: u32,
    done_latch: bool,
    error_latch: bool,
    /// bug.dpr.3: do not check ICAP `ready` before writing.
    ignore_ready: bool,
    irq_out: SignalId,
    policy: RecoveryPolicy,
    rstats: Rc<RefCell<RecoveryStats>>,
    /// Retries used by the current transfer.
    retries: u32,
    /// Last fault code (errcode::*).
    err_code: u32,
    /// Cycles since the last sign of transfer progress.
    watchdog: u32,
    /// The ICAP has raised `reconfiguring` during this attempt (needed
    /// to tell "drained through DESYNC" from "never synced").
    seen_reconfig: bool,
    /// The current transfer completed after at least one retry.
    recovered_latch: bool,
    /// Free-running cycle counter (recovery-latency bookkeeping). Only
    /// *differences* within one transfer are ever read, and a transfer
    /// never passes through `Idle`, so parking in `Idle` (which stops
    /// the counter) cannot skew a latency.
    cycle: u64,
    /// Cycle of the first fault of the current transfer.
    recovery_start: Option<u64>,
    /// The current eval drove `irq_out` high (pulse still to be cleared
    /// at the next posedge, so parking is not yet a no-op).
    irq_pulsed: bool,
    /// Doorbell rung by software DCR writes to this controller.
    bell: Option<DoorbellId>,
}

impl IcapCtrl {
    /// Build and register the controller. The bus handshake policy and
    /// backpressure behaviour come from the injected `faults`; the
    /// retry machinery from `policy`. Returns the shared recovery
    /// counters.
    #[allow(clippy::too_many_arguments)]
    pub fn instantiate(
        sim: &mut Simulator,
        name: &str,
        clk: SignalId,
        rst: SignalId,
        regs: RegFile,
        port: MasterPort,
        icap: IcapPort,
        irq_out: SignalId,
        faults: &FaultSet,
        policy: RecoveryPolicy,
    ) -> Rc<RefCell<RecoveryStats>> {
        assert!(regs.len() >= 6, "IcapCTRL needs 6 DCR registers");
        let handshake = if faults.has(Bug::Dpr4P2pOnSharedBus) {
            // The original design's dedicated-link timing.
            Handshake::FixedLatency { addr_latency: 2 }
        } else {
            Handshake::Full
        };
        let rstats = Rc::new(RefCell::new(RecoveryStats::default()));
        // The bitstream-fetch DMA is the one the reconfiguration
        // timeline cares about: give it the configuration-plane lane.
        let mut dma = DmaDriver::new(port, handshake, BURST);
        dma.set_trace_track(0);
        let bell = sim.add_doorbell(regs.dirty_flag());
        let ctrl = IcapCtrl {
            clk,
            rst,
            regs,
            icap,
            dma,
            st: St::Idle,
            feed: std::collections::VecDeque::new(),
            fetching: false,
            addr: 0,
            fetch_left: 0,
            write_left: 0,
            done_latch: false,
            error_latch: false,
            ignore_ready: faults.has(Bug::Dpr3IgnoreIcapReady),
            irq_out,
            policy,
            rstats: rstats.clone(),
            retries: 0,
            err_code: errcode::NONE,
            watchdog: 0,
            seen_reconfig: false,
            recovered_latch: false,
            cycle: 0,
            recovery_start: None,
            irq_pulsed: false,
            bell: Some(bell),
        };
        sim.add_clocked(name, CompKind::UserStatic, Box::new(ctrl), clk, &[rst]);
        rstats
    }

    fn update_status(&self) {
        let busy = !matches!(self.st, St::Idle) as u32;
        let status = busy
            | ((self.done_latch as u32) << 1)
            | ((self.error_latch as u32) << 2)
            | ((self.recovered_latch as u32) << 3);
        self.regs.set(reg::STATUS, status);
        self.regs.set(reg::RETRY, self.retries);
        self.regs.set(reg::ERRCODE, self.err_code);
    }

    /// Handle a detected transfer fault: either start a retry (abort,
    /// backoff, re-DMA) or — with the budget exhausted — latch the
    /// error, raise it at error severity and interrupt software.
    fn fail(&mut self, ctx: &mut Ctx<'_>, code: u32) {
        let icap = self.icap;
        self.err_code = code;
        {
            let mut s = self.rstats.borrow_mut();
            match code {
                errcode::BUS => s.bus_errors += 1,
                errcode::WATCHDOG => s.watchdog_fires += 1,
                errcode::INTEGRITY => s.integrity_errors += 1,
                _ => {}
            }
        }
        if self.recovery_start.is_none() {
            self.recovery_start = Some(self.cycle);
        }
        ctx.trace_instant(TraceCat::Retry, "fault", self.retries, code as u64);
        ctx.set_bit(icap.cwrite, false);
        if self.retries >= MAX_RETRIES {
            ctx.trace_instant(TraceCat::Retry, "exhausted", self.retries, code as u64);
            self.rstats.borrow_mut().exhausted += 1;
            ctx.error(format!(
                "IcapCTRL: reconfiguration failed permanently after {} retries (fault code {})",
                self.retries, code
            ));
            self.error_latch = true;
            ctx.set_bit(icap.ce, false);
            // Interrupt anyway so software can run its degraded path
            // instead of waiting forever for a done that never comes.
            ctx.set_bit(self.irq_out, true);
            self.irq_pulsed = true;
            self.st = St::Idle;
        } else {
            self.retries += 1;
            ctx.trace_instant(TraceCat::Retry, "retry", self.retries, code as u64);
            self.rstats.borrow_mut().retries += 1;
            ctx.warn(format!(
                "IcapCTRL: transfer fault (code {}), retry {}/{}",
                code, self.retries, MAX_RETRIES
            ));
            if !self.dma.idle() {
                self.dma.abort_flush(ctx);
            }
            self.st = St::AbortFlush;
        }
    }

    /// Begin (or re-begin) streaming the bitstream programmed in
    /// ADDR/SIZE.
    fn arm_transfer(&mut self, ctx: &mut Ctx<'_>) {
        let icap = self.icap;
        self.addr = self.regs.get(reg::ADDR);
        self.fetch_left = self.regs.get(reg::SIZE);
        self.write_left = self.fetch_left;
        self.feed.clear();
        self.fetching = false;
        self.watchdog = 0;
        self.seen_reconfig = false;
        ctx.set_bit(icap.ce, true);
        self.st = St::Active;
    }

    /// Exponential backoff for the upcoming retry attempt (held ≥ 2
    /// cycles so the ICAP is guaranteed to observe the abort strobe).
    fn backoff_cycles(&self) -> u32 {
        let shift = (self.retries.saturating_sub(1)).min(16);
        BACKOFF_BASE.saturating_mul(1 << shift).max(2)
    }
}

impl Component for IcapCtrl {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let icap = self.icap;
        if ctx.is_high(self.rst) {
            self.st = St::Idle;
            self.done_latch = false;
            self.error_latch = false;
            self.recovered_latch = false;
            self.retries = 0;
            self.err_code = errcode::NONE;
            self.watchdog = 0;
            self.recovery_start = None;
            self.dma.reset(ctx);
            ctx.set_bit(icap.cwrite, false);
            ctx.set_bit(icap.ce, false);
            ctx.set_bit(icap.abort, false);
            ctx.set_bit(self.irq_out, false);
            return;
        }
        if !ctx.rose(self.clk) {
            return;
        }
        self.cycle = self.cycle.wrapping_add(1);
        ctx.set_bit(self.irq_out, false);
        self.irq_pulsed = false;
        for (off, v) in self.regs.take_writes() {
            if off == reg::CTRL && v & 1 != 0 {
                if self.st == St::Idle {
                    self.done_latch = false;
                    self.error_latch = false;
                    self.recovered_latch = false;
                    self.retries = 0;
                    self.err_code = errcode::NONE;
                    self.recovery_start = None;
                    if self.regs.get(reg::SIZE) == 0 {
                        ctx.warn("IcapCTRL started with zero-length bitstream");
                        self.done_latch = true;
                        ctx.set_bit(self.irq_out, true);
                        self.irq_pulsed = true;
                    } else {
                        self.arm_transfer(ctx);
                    }
                } else {
                    ctx.warn("IcapCTRL start while busy ignored");
                }
            }
        }
        match self.st {
            St::Idle => {}
            St::Active => {
                if self.policy.enabled {
                    self.watchdog += 1;
                    if ctx.is_high(icap.reconfiguring) {
                        self.seen_reconfig = true;
                    }
                }
                // Memory side: prefetch the next burst while the feed
                // queue has room (double buffering).
                if self.fetching {
                    if let Some(ev) = self.dma.step(ctx) {
                        match ev {
                            DmaEvent::ReadDone => {
                                self.feed.extend(self.dma.take_read_data());
                                self.fetching = false;
                                self.watchdog = 0;
                            }
                            DmaEvent::Error if self.policy.enabled => {
                                self.fetching = false;
                                self.fail(ctx, errcode::BUS);
                                self.update_status();
                                return;
                            }
                            _ => {
                                ctx.error("IcapCTRL bitstream DMA failed");
                                self.err_code = errcode::BUS;
                                self.error_latch = true;
                                ctx.set_bit(icap.ce, false);
                                ctx.set_bit(icap.cwrite, false);
                                self.st = St::Idle;
                                self.update_status();
                                return;
                            }
                        }
                    }
                } else if self.fetch_left > 0 && self.feed.len() < PREFETCH_LEVEL {
                    let n = self.fetch_left.min(BURST);
                    self.dma.start_read(self.addr, n);
                    self.addr += 4 * n;
                    self.fetch_left -= n;
                    self.fetching = true;
                }
                // ICAP side: one word per cycle, honouring (or, with
                // bug.dpr.3, ignoring) the port's backpressure.
                let can_write =
                    !self.feed.is_empty() && (self.ignore_ready || ctx.is_high(icap.ready));
                if can_write {
                    let w = self
                        .feed
                        .pop_front()
                        .expect("can_write is only set with a queued word");
                    ctx.set_bit(icap.cwrite, true);
                    ctx.set_u64(icap.cdata, w as u64);
                    self.write_left -= 1;
                    self.watchdog = 0;
                    if self.write_left == 0 {
                        self.st = if self.policy.enabled {
                            St::WaitDrain
                        } else {
                            St::DonePulse
                        };
                    }
                } else {
                    ctx.set_bit(icap.cwrite, false);
                }
                if self.policy.enabled && self.st == St::Active && self.watchdog >= WATCHDOG_CYCLES
                {
                    self.fail(ctx, errcode::WATCHDOG);
                }
            }
            St::WaitDrain => {
                // All words written; the ICAP is still draining its
                // FIFO. Success = the stream passed through DESYNC with
                // the integrity latch clear. A latched `crc_error` is an
                // integrity fault; a stream that never gets there
                // (framing corrupted) trips the watchdog.
                ctx.set_bit(icap.cwrite, false);
                if ctx.is_high(icap.reconfiguring) {
                    self.seen_reconfig = true;
                }
                if ctx.is_high(icap.crc_error) {
                    self.fail(ctx, errcode::INTEGRITY);
                } else if self.seen_reconfig && !ctx.is_high(icap.reconfiguring) {
                    if self.retries > 0 {
                        self.recovered_latch = true;
                        let mut s = self.rstats.borrow_mut();
                        s.recovered += 1;
                        if let Some(start) = self.recovery_start {
                            let lat = self.cycle.wrapping_sub(start);
                            s.recovery_cycles_total += lat;
                            s.recovery_cycles_max = s.recovery_cycles_max.max(lat);
                        }
                    }
                    self.st = St::DonePulse;
                } else {
                    self.watchdog += 1;
                    if self.watchdog >= WATCHDOG_CYCLES {
                        self.fail(ctx, errcode::WATCHDOG);
                    }
                }
            }
            St::AbortFlush => {
                ctx.set_bit(icap.cwrite, false);
                // Keep stepping the DMA until the cancelled transfer has
                // drained off the bus (any terminal event leaves it
                // idle).
                let idle = self.dma.idle() || self.dma.step(ctx).is_some();
                if idle {
                    self.fetching = false;
                    self.feed.clear();
                    // Hold the ICAP abort through the backoff window so
                    // the artifact re-arms its parser for the retry.
                    ctx.set_bit(icap.abort, true);
                    ctx.set_bit(icap.ce, false);
                    let left = self.backoff_cycles();
                    ctx.trace_begin(TraceCat::Retry, "backoff", self.retries, left as u64);
                    self.st = St::Backoff { left };
                }
            }
            St::Backoff { left } => {
                if left > 1 {
                    self.st = St::Backoff { left: left - 1 };
                } else {
                    ctx.trace_end(TraceCat::Retry, "backoff", self.retries, 0);
                    ctx.set_bit(icap.abort, false);
                    self.arm_transfer(ctx);
                }
            }
            St::DonePulse => {
                ctx.set_bit(icap.cwrite, false);
                ctx.set_bit(icap.ce, false);
                self.done_latch = true;
                ctx.set_bit(self.irq_out, true);
                self.irq_pulsed = true;
                self.st = St::Idle;
            }
        }
        self.update_status();
        // Idle with no pulse left to clear: only a DCR write (doorbell)
        // or reset can start the next transfer.
        if self.st == St::Idle && !self.irq_pulsed {
            if let Some(bell) = self.bell {
                ctx.park_until(&[self.rst], &[bell]);
            }
        }
    }
}

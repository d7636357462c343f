//! The ICAP artifact: the simulation-only stand-in for the FPGA's
//! internal configuration access port.
//!
//! The user design's reconfiguration controller writes SimB words to this
//! port exactly as it would write a real bitstream to the real ICAP. The
//! artifact models the two properties the case study's bugs hinge on:
//!
//! * **Backpressure** — a small input FIFO drained at the configuration
//!   clock rate (`cfg_divider` system cycles per word). A controller
//!   that ignores `ready` overflows the FIFO and loses words
//!   (bug.dpr.3); a slow divider stretches the transfer so software that
//!   does not wait for completion races ahead (bug.dpr.6b).
//! * **Interpretation** — drained words run through the [`SimbParser`];
//!   the resulting events drive the extended portal: error injection
//!   during the payload, module swap at the final payload word, and the
//!   DURING-reconfiguration window between SYNC and DESYNC.

use crate::simb::{SimbEvent, SimbParser};
use rtlsim::{CompKind, Component, Ctx, SignalId, Simulator, TraceCat};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// When the module swap fires relative to the FDRI payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapTrigger {
    /// ReSim's choice: only after the final payload word is written —
    /// the new module is not activated "until all words of the SimB
    /// were successfully written to the ICAP", which is what exposes
    /// the engine-reset timing bug (paper §V-A on bug.dpr.6b).
    LastPayloadWord,
    /// Ablation: activate as soon as the payload begins (an optimistic
    /// model some earlier DPR simulators effectively used).
    FirstPayloadWord,
}

/// Depth of the ICAP artifact's input FIFO, in words.
pub const FIFO_DEPTH: usize = 16;

/// ICAP artifact configuration.
#[derive(Debug, Clone, Copy)]
pub struct IcapConfig {
    /// System-clock cycles per configuration word drained (models the
    /// configuration clock divider; the modified AutoVision design used
    /// a slower configuration clock than the original).
    pub cfg_divider: u32,
    /// When the module swap fires (ablation knob; keep the default for
    /// faithful ReSim behaviour).
    pub swap_trigger: SwapTrigger,
    /// Serve a retrying reconfiguration controller. The module swap
    /// waits for the stream's CRC32 integrity packet: the strobe is
    /// deferred from the final payload word to the `CrcOk` event, a CRC
    /// mismatch latches `crc_error` instead of activating a corrupted
    /// module, and a stream that DESYNCs without an integrity word is
    /// refused. Recoverable transfer faults (CRC mismatch, missing
    /// integrity word, malformed words, FIFO overflow) are reported as
    /// warnings, since the controller raises the error itself once its
    /// retries run out. Off by default — plain SimBs carry no CRC and
    /// every paper-reproduction number is unchanged.
    pub resilient: bool,
}

impl Default for IcapConfig {
    fn default() -> Self {
        IcapConfig {
            cfg_divider: 4,
            swap_trigger: SwapTrigger::LastPayloadWord,
            resilient: false,
        }
    }
}

/// Signals exposed by the ICAP artifact.
#[derive(Debug, Clone, Copy)]
pub struct IcapPort {
    /// In: write data.
    pub cdata: SignalId,
    /// In: write strobe.
    pub cwrite: SignalId,
    /// In: port enable.
    pub ce: SignalId,
    /// Out: FIFO can accept a word this cycle.
    pub ready: SignalId,
    /// Out: high between SYNC and DESYNC.
    pub reconfiguring: SignalId,
    /// Out: high while the FDRI payload is streaming (error injection
    /// window).
    pub inject: SignalId,
    /// Out: one-cycle strobe — swap the module now.
    pub swap_strobe: SignalId,
    /// Out: region addressed by the swap.
    pub swap_rr: SignalId,
    /// Out: module to activate.
    pub swap_module: SignalId,
    /// Out: one-cycle strobe — capture state (GCAPTURE).
    pub capture_strobe: SignalId,
    /// Out: one-cycle strobe — restore state (GRESTORE).
    pub restore_strobe: SignalId,
    /// Out: integrity failure latch — set on CRC mismatch (or a stream
    /// refused for lacking its integrity word), cleared by the next
    /// SYNC or reset. The reconfiguration controller polls this after a
    /// transfer to decide whether to retry.
    pub crc_error: SignalId,
    /// In: transfer-abort strobe (models the device's ICAP abort
    /// sequence). While high, the artifact discards its FIFO and resets
    /// the SimB parser so a retried bitstream starts from a clean SYNC
    /// search, and deasserts `inject`/`reconfiguring`.
    pub abort: SignalId,
}

impl IcapPort {
    /// Allocate the port's signals under `prefix`.
    pub fn alloc(sim: &mut Simulator, prefix: &str) -> IcapPort {
        IcapPort {
            cdata: sim.signal_init(format!("{prefix}.cdata"), 32, 0),
            cwrite: sim.signal_init(format!("{prefix}.cwrite"), 1, 0),
            ce: sim.signal_init(format!("{prefix}.ce"), 1, 0),
            ready: sim.signal_init(format!("{prefix}.ready"), 1, 0),
            reconfiguring: sim.signal_init(format!("{prefix}.reconfiguring"), 1, 0),
            inject: sim.signal_init(format!("{prefix}.inject"), 1, 0),
            swap_strobe: sim.signal_init(format!("{prefix}.swap_strobe"), 1, 0),
            swap_rr: sim.signal_init(format!("{prefix}.swap_rr"), 8, 0),
            swap_module: sim.signal_init(format!("{prefix}.swap_module"), 8, 0),
            capture_strobe: sim.signal_init(format!("{prefix}.capture_strobe"), 1, 0),
            restore_strobe: sim.signal_init(format!("{prefix}.restore_strobe"), 1, 0),
            crc_error: sim.signal_init(format!("{prefix}.crc_error"), 1, 0),
            abort: sim.signal_init(format!("{prefix}.abort"), 1, 0),
        }
    }
}

/// Counters shared with the testbench.
#[derive(Debug, Default, Clone)]
pub struct IcapStats {
    /// Words accepted into the FIFO.
    pub words_accepted: u64,
    /// Words dropped because the FIFO was full (controller ignored
    /// `ready`).
    pub words_dropped: u64,
    /// Module swaps triggered.
    pub swaps: u64,
    /// Malformed words flagged by the parser.
    pub malformed: u64,
    /// Completed reconfigurations (DESYNC seen).
    pub desyncs: u64,
    /// Times `ready` deasserted (backpressure actually exercised).
    pub backpressure_events: u64,
    /// Integrity packets that verified OK.
    pub crc_ok: u64,
    /// Integrity packets that failed verification.
    pub crc_mismatches: u64,
    /// Streams refused because the port was `resilient` but the SimB
    /// carried no integrity word.
    pub integrity_missing: u64,
    /// Transfer aborts requested through the `abort` input.
    pub aborts: u64,
}

/// Transient faults injectable at the ICAP boundary (recovery
/// campaign). One-shot: counters decrement as the fault plays out.
#[derive(Debug, Default)]
pub struct IcapFaultPlan {
    /// Force `ready` low for this many active cycles — models a
    /// configuration-logic hiccup where the port stops accepting words.
    /// A controller honouring `ready` stops feeding; its DMA-progress
    /// watchdog is what recovers.
    pub drop_ready_for: u32,
    /// Cycles of dropped ready actually applied so far.
    pub drops_fired: u64,
}

/// Shared handle for arming [`IcapFaultPlan`] faults.
pub type IcapFaultHandle = Rc<RefCell<IcapFaultPlan>>;

/// The ICAP artifact component.
pub struct IcapArtifact {
    clk: SignalId,
    rst: SignalId,
    port: IcapPort,
    cfg: IcapConfig,
    fifo: VecDeque<u32>,
    parser: SimbParser,
    drain_count: u32,
    last_far: (u8, u8),
    /// A completed payload waiting for integrity verification before the
    /// swap strobe may fire (`resilient` mode only).
    swap_deferred: bool,
    /// A strobe output was set high last cycle and must be cleared.
    strobe_pending: bool,
    /// Last driven value of `ready` (avoid redundant writes on the idle
    /// fast path — the artifact must cost nothing while no bitstream
    /// flows).
    ready_driven: Option<bool>,
    stats: Rc<RefCell<IcapStats>>,
    /// Campaign-armed transient faults.
    faults: IcapFaultHandle,
    /// Edge-detect for the `abort` input.
    abort_seen: bool,
    /// Region id of the SimB-transfer trace span currently open (set at
    /// the stream's FAR, closed at DESYNC/abort). Trace bookkeeping
    /// only; never read by the simulation itself.
    transfer_rr: Option<u8>,
    /// Region id of the open error-injection trace span, likewise.
    inject_rr: Option<u8>,
}

impl IcapArtifact {
    /// Build and register the artifact; returns its port, its counters
    /// and the handle the recovery campaign arms ICAP-side transient
    /// faults through.
    pub fn instantiate(
        sim: &mut Simulator,
        name: &str,
        clk: SignalId,
        rst: SignalId,
        cfg: IcapConfig,
    ) -> (IcapPort, Rc<RefCell<IcapStats>>, IcapFaultHandle) {
        assert!(cfg.cfg_divider >= 1);
        let port = IcapPort::alloc(sim, name);
        let stats = Rc::new(RefCell::new(IcapStats::default()));
        let faults: IcapFaultHandle = Rc::new(RefCell::new(IcapFaultPlan::default()));
        let icap = IcapArtifact {
            clk,
            rst,
            port,
            cfg,
            fifo: VecDeque::with_capacity(FIFO_DEPTH),
            parser: SimbParser::new(),
            drain_count: 0,
            last_far: (0, 0),
            swap_deferred: false,
            strobe_pending: false,
            ready_driven: None,
            stats: stats.clone(),
            faults: faults.clone(),
            abort_seen: false,
            transfer_rr: None,
            inject_rr: None,
        };
        sim.add_clocked(name, CompKind::Artifact, Box::new(icap), clk, &[rst]);
        (port, stats, faults)
    }

    /// Close any open trace spans (stream torn down by abort or reset).
    fn trace_close_spans(&mut self, ctx: &mut Ctx<'_>, arg: u64) {
        if let Some(rr) = self.inject_rr.take() {
            ctx.trace_end(TraceCat::Icap, "inject", rr as u32, arg);
        }
        if let Some(rr) = self.transfer_rr.take() {
            ctx.trace_end(TraceCat::Simb, "transfer", rr as u32, arg);
        }
    }

    /// Report a recoverable transfer fault: warning in `resilient` mode
    /// (the retrying controller escalates on exhaustion), error
    /// otherwise.
    fn report(&self, ctx: &mut Ctx<'_>, msg: impl Into<String>) {
        if self.cfg.resilient {
            ctx.warn(msg.into());
        } else {
            ctx.error(msg.into());
        }
    }
}

impl Component for IcapArtifact {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let p = self.port;
        if ctx.is_high(self.rst) {
            self.trace_close_spans(ctx, u64::MAX);
            self.fifo.clear();
            self.parser = SimbParser::new();
            self.drain_count = 0;
            self.swap_deferred = false;
            self.strobe_pending = false;
            self.abort_seen = false;
            self.ready_driven = Some(true);
            ctx.set_bit(p.ready, true);
            ctx.set_bit(p.reconfiguring, false);
            ctx.set_bit(p.inject, false);
            ctx.set_bit(p.swap_strobe, false);
            ctx.set_bit(p.capture_strobe, false);
            ctx.set_bit(p.restore_strobe, false);
            ctx.set_bit(p.crc_error, false);
            return;
        }
        if !ctx.rose(self.clk) {
            return;
        }
        // Fast idle path: no traffic, nothing buffered, nothing to clear
        // — the artifact costs (almost) nothing while no bitstream flows.
        let aborting = ctx.is_high(p.abort);
        let active = ctx.is_high(p.ce) || !self.fifo.is_empty() || self.strobe_pending || aborting;
        if !active {
            self.abort_seen = false;
            // No bitstream in flight and nothing buffered: sleep until
            // the controller raises ce/abort or reset changes.
            ctx.park_until(&[p.ce, p.abort, self.rst], &[]);
            return;
        }
        // Strobes are single-cycle.
        if self.strobe_pending {
            self.strobe_pending = false;
            ctx.set_bit(p.swap_strobe, false);
            ctx.set_bit(p.capture_strobe, false);
            ctx.set_bit(p.restore_strobe, false);
        }

        // Abort sequence: dump the FIFO and re-arm the parser so a
        // retried SimB starts from a clean SYNC search. `crc_error`
        // stays latched until the next SYNC (the controller has already
        // sampled it, but the testbench may still want to see it).
        if aborting {
            if !self.abort_seen {
                self.abort_seen = true;
                ctx.trace_instant(TraceCat::Icap, "abort", self.last_far.0 as u32, 0);
                self.trace_close_spans(ctx, u64::MAX);
                self.stats.borrow_mut().aborts += 1;
                self.fifo.clear();
                self.parser = SimbParser::new();
                self.drain_count = 0;
                self.swap_deferred = false;
                ctx.set_bit(p.reconfiguring, false);
                ctx.set_bit(p.inject, false);
            }
            // Restore ready (FIFO is now empty) and take no other action
            // while the abort strobe is held.
            if self.ready_driven != Some(true) {
                self.ready_driven = Some(true);
                ctx.set_bit(p.ready, true);
            }
            return;
        }
        self.abort_seen = false;

        // Accept a word if the controller writes.
        if ctx.is_high(p.ce) && ctx.is_high(p.cwrite) {
            let word = ctx.get(p.cdata);
            if self.fifo.len() < FIFO_DEPTH {
                match word.to_u64() {
                    Some(w) => {
                        self.fifo.push_back(w as u32);
                        self.stats.borrow_mut().words_accepted += 1;
                    }
                    None => {
                        ctx.error("X written to the ICAP data port");
                    }
                }
            } else {
                self.stats.borrow_mut().words_dropped += 1;
                self.report(ctx, "ICAP FIFO overflow: configuration word dropped");
            }
        }

        // Drain at the configuration clock rate.
        self.drain_count += 1;
        if self.drain_count >= self.cfg.cfg_divider {
            self.drain_count = 0;
            if let Some(w) = self.fifo.pop_front() {
                for ev in self.parser.push(w) {
                    match ev {
                        SimbEvent::Sync => {
                            ctx.trace_instant(TraceCat::Icap, "sync", 0, 0);
                            ctx.set_bit(p.reconfiguring, true);
                            ctx.set_bit(p.crc_error, false);
                            self.swap_deferred = false;
                        }
                        SimbEvent::Far { rr, module } => {
                            self.last_far = (rr, module);
                            if self.transfer_rr.is_none() {
                                self.transfer_rr = Some(rr);
                                ctx.trace_begin(
                                    TraceCat::Simb,
                                    "transfer",
                                    rr as u32,
                                    module as u64,
                                );
                            }
                            ctx.set_u64(p.swap_rr, rr as u64);
                            ctx.set_u64(p.swap_module, module as u64);
                        }
                        SimbEvent::Wcfg => {}
                        SimbEvent::PayloadStart { words } => {
                            if self.inject_rr.is_none() {
                                self.inject_rr = Some(self.last_far.0);
                                ctx.trace_begin(
                                    TraceCat::Icap,
                                    "inject",
                                    self.last_far.0 as u32,
                                    words as u64,
                                );
                            }
                            ctx.set_bit(p.inject, true);
                            if self.cfg.swap_trigger == SwapTrigger::FirstPayloadWord {
                                ctx.trace_instant(
                                    TraceCat::Icap,
                                    "swap",
                                    self.last_far.0 as u32,
                                    self.last_far.1 as u64,
                                );
                                ctx.set_bit(p.swap_strobe, true);
                                self.strobe_pending = true;
                                self.stats.borrow_mut().swaps += 1;
                            }
                        }
                        SimbEvent::PayloadEnd => {
                            if let Some(rr) = self.inject_rr.take() {
                                ctx.trace_end(TraceCat::Icap, "inject", rr as u32, 0);
                            }
                            ctx.set_bit(p.inject, false);
                            if self.cfg.swap_trigger == SwapTrigger::LastPayloadWord {
                                if self.cfg.resilient {
                                    // Hold the swap until the stream's
                                    // CRC packet verifies.
                                    self.swap_deferred = true;
                                } else {
                                    ctx.trace_instant(
                                        TraceCat::Icap,
                                        "swap",
                                        self.last_far.0 as u32,
                                        self.last_far.1 as u64,
                                    );
                                    ctx.set_bit(p.swap_strobe, true);
                                    self.strobe_pending = true;
                                    self.stats.borrow_mut().swaps += 1;
                                }
                            }
                        }
                        SimbEvent::Capture => {
                            ctx.set_bit(p.capture_strobe, true);
                            self.strobe_pending = true;
                        }
                        SimbEvent::Restore => {
                            ctx.set_bit(p.restore_strobe, true);
                            self.strobe_pending = true;
                        }
                        SimbEvent::Desync => {
                            if let Some(rr) = self.transfer_rr.take() {
                                ctx.trace_end(TraceCat::Simb, "transfer", rr as u32, 0);
                            }
                            ctx.set_bit(p.reconfiguring, false);
                            self.stats.borrow_mut().desyncs += 1;
                            if self.swap_deferred {
                                // The port is resilient but the SimB
                                // carried no CRC packet: refuse the swap.
                                self.swap_deferred = false;
                                ctx.set_bit(p.crc_error, true);
                                self.stats.borrow_mut().integrity_missing += 1;
                                self.report(
                                    ctx,
                                    "SimB ended without its integrity word: module swap refused",
                                );
                            }
                        }
                        SimbEvent::Malformed { word } => {
                            ctx.trace_instant(TraceCat::Icap, "malformed", 0, word as u64);
                            self.stats.borrow_mut().malformed += 1;
                            self.report(ctx, format!("malformed SimB word {word:#010x}"));
                        }
                        SimbEvent::CrcOk => {
                            ctx.trace_instant(TraceCat::Icap, "crc_ok", self.last_far.0 as u32, 0);
                            self.stats.borrow_mut().crc_ok += 1;
                            if self.swap_deferred {
                                self.swap_deferred = false;
                                ctx.trace_instant(
                                    TraceCat::Icap,
                                    "swap",
                                    self.last_far.0 as u32,
                                    self.last_far.1 as u64,
                                );
                                ctx.set_bit(p.swap_strobe, true);
                                self.strobe_pending = true;
                                self.stats.borrow_mut().swaps += 1;
                            }
                        }
                        SimbEvent::CrcMismatch { expected, got } => {
                            ctx.trace_instant(
                                TraceCat::Icap,
                                "crc_mismatch",
                                self.last_far.0 as u32,
                                got as u64,
                            );
                            self.stats.borrow_mut().crc_mismatches += 1;
                            self.swap_deferred = false;
                            ctx.set_bit(p.crc_error, true);
                            self.report(
                                ctx,
                                format!(
                                    "SimB integrity error: CRC mismatch \
                                     (computed {expected:#010x}, received {got:#010x}) — \
                                     module swap refused"
                                ),
                            );
                        }
                    }
                }
            }
        }
        // Ready must account for the two-cycle observation skew of the
        // registered handshake: after `ready` drops, a well-behaved
        // controller can still land two more words, so reserve two
        // slots. (A controller that ignores `ready` altogether —
        // bug.dpr.3 — still overflows and is flagged above.)
        let mut ready = self.fifo.len() + 2 < FIFO_DEPTH;
        let mut plan = self.faults.borrow_mut();
        if plan.drop_ready_for > 0 {
            plan.drop_ready_for -= 1;
            plan.drops_fired += 1;
            ready = false;
        }
        if self.ready_driven != Some(ready) {
            self.ready_driven = Some(ready);
            ctx.set_bit(p.ready, ready);
            if !ready {
                self.stats.borrow_mut().backpressure_events += 1;
            }
        }
    }
}

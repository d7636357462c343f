//! The Matching Engine (ME) as a cycle-accurate RTL model.
//!
//! The ME loads the previous and current census images into its internal
//! buffers (the original accelerator streamed through BRAM line stores),
//! then runs an exhaustive displacement search per grid anchor with a
//! systolic array that evaluates [`MatchingEngine::OPS_PER_CYCLE`]
//! patch-pixel comparisons per clock, and finally DMA-writes the packed
//! motion vectors. Its simulated time per frame is *longer* than the
//! CIE's (more cycles), but it touches fewer kernel signals per cycle —
//! together these reproduce the Table II simulated/elapsed inversion.
//!
//! Parameter latching follows the same reset discipline as the CIE (and
//! is therefore vulnerable to the same bug.dpr.6b misuse): `ereset`
//! latches `src` (current census), `aux` (previous census), `vec`
//! (vector output) and the geometry.

use crate::ports::EngineIf;
use plb::dma::Handshake;
use plb::{DmaDriver, DmaEvent};
use rtlsim::{CompKind, Component, Ctx, SignalId, Simulator};
use video::{Frame, MatchParams, MotionVector};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum St {
    Idle,
    LoadPrev,
    LoadCurr,
    /// Searching; one anchor at a time, `cycles_left` models the systolic
    /// array latency for the current anchor.
    Search {
        anchor: usize,
        cycles_left: u32,
    },
    WriteVectors,
    DonePulse,
}

#[derive(Debug, Clone, Copy, Default)]
struct Latched {
    curr: u32,
    prev: u32,
    vec: u32,
    width: usize,
    height: usize,
}

/// The ME component. Instantiate with [`MatchingEngine::instantiate`].
pub struct MatchingEngine {
    io: EngineIf,
    dma: DmaDriver,
    st: St,
    latched: Latched,
    /// GCAPTURE/GRESTORE snapshot (see `CensusEngine::saved`).
    saved: Option<Latched>,
    params: MatchParams,
    prev: Option<Frame>,
    curr: Option<Frame>,
    anchors: Vec<(usize, usize)>,
    vectors: Vec<MotionVector>,
    /// Datapath activity signal (one toggle per anchor-search cycle).
    sig_cost: SignalId,
    ops_per_cycle: u32,
}

impl MatchingEngine {
    /// Patch-pixel comparisons the systolic array performs per clock.
    pub const OPS_PER_CYCLE: u32 = 28;

    /// Build and register the engine.
    pub fn instantiate(sim: &mut Simulator, name: &str, io: EngineIf, params: MatchParams) {
        let sig_cost = sim.signal_init(format!("{name}.dp.cost"), 16, 0);
        let eng = MatchingEngine {
            io,
            dma: DmaDriver::new(io.plb, Handshake::Full, 16),
            st: St::Idle,
            latched: Latched::default(),
            saved: None,
            params,
            prev: None,
            curr: None,
            anchors: Vec::new(),
            vectors: Vec::new(),
            sig_cost,
            ops_per_cycle: Self::OPS_PER_CYCLE,
        };
        sim.add_clocked(name, CompKind::UserReconf, Box::new(eng), io.clk, &[io.rst]);
    }

    fn anchor_cycles(&self) -> u32 {
        let r = (2 * self.params.search_radius + 1) as u32;
        let p = (2 * self.params.patch_half + 1) as u32;
        (r * r * p * p).div_ceil(self.ops_per_cycle)
    }

    fn search_anchor(&self, x: usize, y: usize) -> MotionVector {
        let prev = self
            .prev
            .as_ref()
            .expect("search runs only after the DMA latched the previous frame");
        let curr = self
            .curr
            .as_ref()
            .expect("search runs only after the DMA latched the current frame");
        video::search_anchor(prev, curr, x, y, &self.params)
    }

    fn frame_words(&self) -> u32 {
        (self.latched.width * self.latched.height / 4) as u32
    }

    /// Start a frame if `go` is asserted while this engine is selected.
    fn try_start(&mut self, ctx: &mut Ctx<'_>) {
        let io = self.io;
        if ctx.is_high(io.go) && ctx.is_high(io.sel) {
            if self.latched.width < 4 || self.latched.height < 1 {
                ctx.warn("ME started with degenerate geometry");
                ctx.set_bit(io.done, true);
                self.st = St::DonePulse;
                return;
            }
            ctx.set_bit(io.busy, true);
            self.dma.start_read(self.latched.prev, self.frame_words());
            self.st = St::LoadPrev;
        }
    }
}

impl Component for MatchingEngine {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let io = self.io;
        if ctx.is_high(io.rst) {
            self.st = St::Idle;
            self.dma.reset(ctx);
            ctx.set_bit(io.busy, false);
            ctx.set_bit(io.done, false);
            return;
        }
        if !ctx.rose(io.clk) {
            return;
        }
        if ctx.is_high(io.capture) && ctx.is_high(io.sel) {
            self.saved = Some(self.latched);
        }
        if ctx.is_high(io.restore) && ctx.is_high(io.sel) {
            if let Some(s) = self.saved {
                self.latched = s;
            } else {
                ctx.warn("ME restore with no captured state");
            }
        }
        if ctx.is_high(io.ereset) && ctx.is_high(io.sel) {
            self.latched = Latched {
                curr: ctx.get(io.src_addr).to_u64_lossy() as u32,
                prev: ctx.get(io.aux_addr).to_u64_lossy() as u32,
                vec: ctx.get(io.vec_addr).to_u64_lossy() as u32,
                width: ctx.get(io.width).to_u64_lossy() as usize,
                height: ctx.get(io.height).to_u64_lossy() as usize,
            };
            self.st = St::Idle;
            self.dma.reset(ctx);
            ctx.set_bit(io.busy, false);
            ctx.set_bit(io.done, false);
            return;
        }
        match self.st {
            St::Idle => {
                self.try_start(ctx);
                // Still idle with every control strobe low: nothing can
                // happen until one of them (or reset) moves.
                if self.st == St::Idle
                    && !ctx.is_high(io.go)
                    && !ctx.is_high(io.capture)
                    && !ctx.is_high(io.restore)
                    && !ctx.is_high(io.ereset)
                {
                    ctx.park_until(&[io.go, io.capture, io.restore, io.ereset, io.rst], &[]);
                }
            }
            St::LoadPrev => {
                if let Some(ev) = self.dma.step(ctx) {
                    match ev {
                        DmaEvent::ReadDone => {
                            let words = self.dma.take_read_data();
                            self.prev = Some(Frame::from_words(
                                self.latched.width,
                                self.latched.height,
                                &words,
                            ));
                            self.dma.start_read(self.latched.curr, self.frame_words());
                            self.st = St::LoadCurr;
                        }
                        _ => {
                            ctx.error("ME previous-frame DMA failed");
                            ctx.set_bit(io.busy, false);
                            self.st = St::Idle;
                        }
                    }
                }
            }
            St::LoadCurr => {
                if let Some(ev) = self.dma.step(ctx) {
                    match ev {
                        DmaEvent::ReadDone => {
                            let words = self.dma.take_read_data();
                            self.curr = Some(Frame::from_words(
                                self.latched.width,
                                self.latched.height,
                                &words,
                            ));
                            // The golden model's anchors, in its order.
                            self.anchors.clear();
                            self.vectors.clear();
                            self.anchors.extend(
                                self.params.anchors(self.latched.width, self.latched.height),
                            );
                            if self.anchors.is_empty() {
                                ctx.warn("ME: frame too small for any anchor");
                                ctx.set_bit(io.busy, false);
                                ctx.set_bit(io.done, true);
                                self.st = St::DonePulse;
                            } else {
                                let cl = self.anchor_cycles();
                                self.st = St::Search {
                                    anchor: 0,
                                    cycles_left: cl,
                                };
                            }
                        }
                        _ => {
                            ctx.error("ME current-frame DMA failed");
                            ctx.set_bit(io.busy, false);
                            self.st = St::Idle;
                        }
                    }
                }
            }
            St::Search {
                anchor,
                cycles_left,
            } => {
                // Systolic-array activity toggle.
                ctx.set_u64(self.sig_cost, (anchor as u64 ^ cycles_left as u64) & 0xFFFF);
                if cycles_left > 1 {
                    self.st = St::Search {
                        anchor,
                        cycles_left: cycles_left - 1,
                    };
                } else {
                    let (x, y) = self.anchors[anchor];
                    let v = self.search_anchor(x, y);
                    self.vectors.push(v);
                    if anchor + 1 < self.anchors.len() {
                        let cl = self.anchor_cycles();
                        self.st = St::Search {
                            anchor: anchor + 1,
                            cycles_left: cl,
                        };
                    } else {
                        // Emit: count word, then packed vectors.
                        let mut words = Vec::with_capacity(self.vectors.len() + 1);
                        words.push(self.vectors.len() as u32);
                        words.extend(self.vectors.iter().map(|v| v.pack()));
                        self.dma.start_write(self.latched.vec, words);
                        self.st = St::WriteVectors;
                    }
                }
            }
            St::WriteVectors => {
                if let Some(ev) = self.dma.step(ctx) {
                    match ev {
                        DmaEvent::WriteDone => {
                            ctx.set_bit(io.busy, false);
                            ctx.set_bit(io.done, true);
                            self.st = St::DonePulse;
                        }
                        _ => {
                            ctx.error("ME vector DMA failed");
                            ctx.set_bit(io.busy, false);
                            self.st = St::Idle;
                        }
                    }
                }
            }
            St::DonePulse => {
                ctx.set_bit(io.done, false);
                self.st = St::Idle;
                // A start strobe landing on this edge is still honoured.
                self.try_start(ctx);
            }
        }
    }
}

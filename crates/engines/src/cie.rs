//! The Census Image Engine (CIE) as a cycle-accurate RTL model.
//!
//! Per frame the engine streams the input image row by row over its PLB
//! master port, computes the census transform with a three-row line
//! buffer (two pixels per clock cycle), and streams the feature image
//! back to memory. The signature computation toggles internal datapath
//! signals every cycle, so the CIE generates more kernel activity per
//! simulated millisecond than the Matching Engine — reproducing the
//! paper's observation that 1.1 ms of CIE simulation takes *longer*
//! wall-clock than 1.4 ms of ME simulation (Table II).
//!
//! ## State and reset discipline
//!
//! Parameters (addresses, geometry) are latched on the `ereset` pulse,
//! not on `go` — exactly the discipline whose violation is bug.dpr.6b:
//! if software pulses `ereset` before the module swap completes, the
//! newly configured engine runs `go` with stale latched parameters and
//! processes the wrong buffers.

use crate::ports::EngineIf;
use plb::dma::Handshake;
use plb::{DmaDriver, DmaEvent};
use rtlsim::{CompKind, Component, Ctx, SignalId, Simulator};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum St {
    Idle,
    /// DMA read of the next input row in flight.
    ReadRow,
    /// Computing signatures for the centre row, [`PIXELS_PER_CYCLE`]
    /// pixels per cycle.
    Compute {
        x: usize,
    },
    /// DMA write of the completed output row.
    WriteRow,
    DonePulse,
}

/// Latched (reset-time) parameters.
#[derive(Debug, Clone, Copy, Default)]
struct Latched {
    src: u32,
    dst: u32,
    width: usize,
    height: usize,
}

/// The CIE component. Instantiate with [`CensusEngine::instantiate`].
pub struct CensusEngine {
    io: EngineIf,
    dma: DmaDriver,
    st: St,
    latched: Latched,
    /// State snapshot taken on the `capture` strobe (GCAPTURE) and
    /// reloaded on `restore` (GRESTORE) — so a module swapped back in
    /// can resume with its parameters without a fresh reset.
    saved: Option<Latched>,
    /// Row index currently being fetched (input row).
    fetch_y: usize,
    /// Row index currently being computed (centre row).
    comp_y: usize,
    rows: [Vec<u8>; 3], // y-1, y, y+1 (line buffers)
    out_row: Vec<u8>,
    /// Datapath activity signals (toggled per pixel).
    sig_px: SignalId,
    sig_out: SignalId,
    sig_acc: SignalId,
}

/// Pixels processed per clock (the engine's datapath parallelism).
const PIXELS_PER_CYCLE: usize = 2;

impl CensusEngine {
    /// Build and register the engine.
    pub fn instantiate(sim: &mut Simulator, name: &str, io: EngineIf) {
        let sig_px = sim.signal_init(format!("{name}.dp.px"), 8, 0);
        let sig_out = sim.signal_init(format!("{name}.dp.sig"), 8, 0);
        let sig_acc = sim.signal_init(format!("{name}.dp.acc"), 16, 0);
        let eng = CensusEngine {
            io,
            dma: DmaDriver::new(io.plb, Handshake::Full, 16),
            st: St::Idle,
            latched: Latched::default(),
            saved: None,
            fetch_y: 0,
            comp_y: 0,
            rows: [Vec::new(), Vec::new(), Vec::new()],
            out_row: Vec::new(),
            sig_px,
            sig_out,
            sig_acc,
        };
        sim.add_clocked(name, CompKind::UserReconf, Box::new(eng), io.clk, &[io.rst]);
    }

    fn census_at(&self, x: usize) -> u8 {
        let w = self.latched.width;
        let c = self.rows[1][x];
        let mut sig = 0u8;
        let mut bit = 0;
        for dy in 0..3usize {
            for dx in [-1isize, 0, 1] {
                if dy == 1 && dx == 0 {
                    continue;
                }
                let nx = x as isize + dx;
                let n = if nx < 0 || nx as usize >= w {
                    0
                } else {
                    self.rows[dy][nx as usize]
                };
                if n < c {
                    sig |= 0x80 >> bit;
                }
                bit += 1;
            }
        }
        sig
    }

    fn unpack_row(data: &[u32], width: usize) -> Vec<u8> {
        let mut row = Vec::with_capacity(width);
        for w in data {
            row.extend_from_slice(&w.to_le_bytes());
        }
        row.truncate(width);
        row
    }

    fn start_fetch(&mut self) {
        let w = self.latched.width;
        let addr = self.latched.src + (self.fetch_y * w) as u32;
        self.dma.start_read(addr, (w / 4) as u32);
        self.st = St::ReadRow;
    }

    fn begin_compute_or_finish(&mut self, ctx: &mut Ctx<'_>) {
        if self.comp_y < self.latched.height {
            self.out_row.clear();
            self.st = St::Compute { x: 0 };
        } else {
            ctx.set_bit(self.io.busy, false);
            ctx.set_bit(self.io.done, true);
            self.st = St::DonePulse;
        }
    }

    /// Start a frame if `go` is asserted while this engine is selected.
    fn try_start(&mut self, ctx: &mut Ctx<'_>) {
        let io = self.io;
        if ctx.is_high(io.go) && ctx.is_high(io.sel) {
            // NOTE: parameters were latched at reset time; a `go`
            // without a preceding (observed) reset runs with stale
            // state.
            if self.latched.width < 4 || self.latched.height < 1 {
                ctx.warn("CIE started with degenerate geometry");
                ctx.set_bit(io.done, true);
                self.st = St::DonePulse;
                return;
            }
            ctx.set_bit(io.busy, true);
            let w = self.latched.width;
            self.rows = [vec![0; w], vec![0; w], vec![0; w]];
            self.fetch_y = 0;
            self.comp_y = 0;
            self.out_row = Vec::with_capacity(w);
            self.start_fetch();
        }
    }
}

impl Component for CensusEngine {
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
        // State save/restore strobes (honoured only while configured).
        if ctx.is_high(io.capture) && ctx.is_high(io.sel) {
            self.saved = Some(self.latched);
        }
        if ctx.is_high(io.restore) && ctx.is_high(io.sel) {
            if let Some(s) = self.saved {
                self.latched = s;
            } else {
                ctx.warn("CIE restore with no captured state");
            }
        }
        // Reset/parameter latch: honoured only while this engine is the
        // configured module.
        if ctx.is_high(io.ereset) && ctx.is_high(io.sel) {
            self.latched = Latched {
                src: ctx.get(io.src_addr).to_u64_lossy() as u32,
                dst: ctx.get(io.dst_addr).to_u64_lossy() as u32,
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
                // Still idle with every control strobe low: quiescent
                // until go/capture/restore/ereset or reset moves.
                if self.st == St::Idle
                    && !ctx.is_high(io.go)
                    && !ctx.is_high(io.capture)
                    && !ctx.is_high(io.restore)
                    && !ctx.is_high(io.ereset)
                {
                    ctx.park_until(&[io.go, io.capture, io.restore, io.ereset, io.rst], &[]);
                }
            }
            St::ReadRow => {
                if let Some(ev) = self.dma.step(ctx) {
                    match ev {
                        DmaEvent::ReadDone => {
                            let words = self.dma.take_read_data();
                            let row = Self::unpack_row(&words, self.latched.width);
                            // Shift the line buffer: rows slide up.
                            self.rows.rotate_left(1);
                            self.rows[2] = row;
                            if !self.dma.unknown_beats().is_empty() {
                                ctx.warn("CIE read X-poisoned pixels");
                            }
                            self.fetch_y += 1;
                            // We can compute row comp_y once rows
                            // comp_y-1..=comp_y+1 are buffered; with the
                            // slide, that is when fetch_y >= comp_y + 2.
                            if self.fetch_y >= self.comp_y + 2 {
                                self.begin_compute_or_finish(ctx);
                            } else if self.fetch_y < self.latched.height {
                                self.start_fetch();
                            } else {
                                // Short frame: no row below; slide in a
                                // zero row and compute.
                                self.rows.rotate_left(1);
                                self.rows[2] = vec![0; self.latched.width];
                                self.begin_compute_or_finish(ctx);
                            }
                        }
                        _ => {
                            ctx.error("CIE input DMA failed");
                            self.st = St::Idle;
                            ctx.set_bit(io.busy, false);
                        }
                    }
                }
            }
            St::Compute { x } => {
                let w = self.latched.width;
                let mut x = x;
                let mut acc = 0u16;
                for _ in 0..PIXELS_PER_CYCLE {
                    if x >= w {
                        break;
                    }
                    let sig = self.census_at(x);
                    self.out_row.push(sig);
                    acc = acc.wrapping_add(sig as u16);
                    x += 1;
                }
                // Datapath activity: these toggles are what make the CIE
                // "hotter" per simulated ms than the ME.
                ctx.set_u64(self.sig_px, self.rows[1][x.min(w) - 1] as u64);
                ctx.set_u64(
                    self.sig_out,
                    *self
                        .out_row
                        .last()
                        .expect("a compute step emits at least one census signature")
                        as u64,
                );
                ctx.set_u64(self.sig_acc, acc as u64);
                if x >= w {
                    // Row finished: write it out.
                    let words: Vec<u32> = self
                        .out_row
                        .chunks(4)
                        .map(|c| {
                            let mut b = [0u8; 4];
                            b[..c.len()].copy_from_slice(c);
                            u32::from_le_bytes(b)
                        })
                        .collect();
                    let addr = self.latched.dst + (self.comp_y * w) as u32;
                    self.dma.start_write(addr, words);
                    self.st = St::WriteRow;
                } else {
                    self.st = St::Compute { x };
                }
            }
            St::WriteRow => {
                if let Some(ev) = self.dma.step(ctx) {
                    match ev {
                        DmaEvent::WriteDone => {
                            self.comp_y += 1;
                            let h = self.latched.height;
                            if self.fetch_y < h {
                                self.start_fetch();
                            } else if self.comp_y < h {
                                // Bottom rows: slide in a zero row.
                                self.rows.rotate_left(1);
                                self.rows[2] = vec![0; self.latched.width];
                                self.begin_compute_or_finish(ctx);
                            } else {
                                self.begin_compute_or_finish(ctx);
                            }
                        }
                        _ => {
                            ctx.error("CIE output DMA failed");
                            self.st = St::Idle;
                            ctx.set_bit(io.busy, false);
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

//! Main-memory slave with wait states and X-poison tracking.

use crate::port::SlavePort;
use rtlsim::{CompKind, Component, Ctx, Lv, SignalId, Simulator};
use std::cell::RefCell;
use std::rc::Rc;

/// Byte-addressable memory shared between the simulation and the
/// testbench (for loading programs, frames and bitstreams, and for
/// inspecting results).
///
/// Every 32-bit word carries a *poison* flag: a word written while any
/// of its bits were `X`/`Z` is poisoned, and reads of poisoned words
/// return all-`X`. This lets corruption caused by a broken isolation
/// module survive a round trip through memory and surface later in a
/// scoreboard comparison, just as it would on real hardware as garbage
/// pixel data.
#[derive(Clone)]
pub struct SharedMem {
    inner: Rc<RefCell<MemInner>>,
}

struct MemInner {
    data: Vec<u8>,
    poison: Vec<bool>, // one flag per 32-bit word
}

impl SharedMem {
    /// Allocate `bytes` of zeroed memory (rounded up to a word).
    pub fn new(bytes: usize) -> SharedMem {
        let bytes = (bytes + 3) & !3;
        SharedMem {
            inner: Rc::new(RefCell::new(MemInner {
                data: vec![0; bytes],
                poison: vec![false; bytes / 4],
            })),
        }
    }

    /// Memory size in bytes.
    pub fn len(&self) -> usize {
        self.inner.borrow().data.len()
    }

    /// True if the memory has zero length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read a little-endian 32-bit word. Returns `None` (poisoned) if the
    /// word was last written with unknown bits. Panics if out of range or
    /// unaligned.
    pub fn read_u32(&self, addr: u32) -> Option<u32> {
        let inner = self.inner.borrow();
        let a = addr as usize;
        assert!(a.is_multiple_of(4), "unaligned read at {addr:#010x}");
        assert!(
            a + 4 <= inner.data.len(),
            "read out of range at {addr:#010x}"
        );
        if inner.poison[a / 4] {
            return None;
        }
        let bytes = inner.data[a..a + 4]
            .try_into()
            .expect("range-checked 4-byte slice");
        Some(u32::from_le_bytes(bytes))
    }

    /// Write a little-endian 32-bit word and clear its poison flag.
    pub fn write_u32(&self, addr: u32, v: u32) {
        let mut inner = self.inner.borrow_mut();
        let a = addr as usize;
        assert!(a.is_multiple_of(4), "unaligned write at {addr:#010x}");
        assert!(
            a + 4 <= inner.data.len(),
            "write out of range at {addr:#010x}"
        );
        inner.data[a..a + 4].copy_from_slice(&v.to_le_bytes());
        inner.poison[a / 4] = false;
    }

    /// Mark a word as poisoned (used by the bus-side write path when the
    /// incoming data had unknown bits).
    pub fn poison_word(&self, addr: u32) {
        let mut inner = self.inner.borrow_mut();
        let a = addr as usize / 4;
        inner.poison[a] = true;
    }

    /// Is the word at `addr` poisoned?
    pub fn is_poisoned(&self, addr: u32) -> bool {
        self.inner.borrow().poison[addr as usize / 4]
    }

    /// Number of poisoned words in the whole memory.
    pub fn poisoned_words(&self) -> usize {
        self.inner.borrow().poison.iter().filter(|p| **p).count()
    }

    /// Bulk-load bytes at `addr` (testbench side; clears poison).
    pub fn load_bytes(&self, addr: u32, bytes: &[u8]) {
        let mut inner = self.inner.borrow_mut();
        let a = addr as usize;
        assert!(a + bytes.len() <= inner.data.len(), "load out of range");
        inner.data[a..a + bytes.len()].copy_from_slice(bytes);
        for w in a / 4..(a + bytes.len()).div_ceil(4) {
            inner.poison[w] = false;
        }
    }

    /// Bulk-load 32-bit words at `addr`.
    pub fn load_words(&self, addr: u32, words: &[u32]) {
        for (i, w) in words.iter().enumerate() {
            self.write_u32(addr + 4 * i as u32, *w);
        }
    }

    /// Bulk-read `n` words from `addr`; poisoned words read as `None`.
    pub fn read_words(&self, addr: u32, n: usize) -> Vec<Option<u32>> {
        (0..n).map(|i| self.read_u32(addr + 4 * i as u32)).collect()
    }

    /// Copy out raw bytes (poison ignored) — for file output.
    pub fn dump_bytes(&self, addr: u32, n: usize) -> Vec<u8> {
        let inner = self.inner.borrow();
        inner.data[addr as usize..addr as usize + n].to_vec()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemState {
    Idle,
    AckWait { left: u32 },
    Write { addr: u32, beats_left: u32 },
    Read { addr: u32, beats_left: u32 },
    Complete,
}

/// One-shot transient-fault plan for a [`MemorySlave`].
///
/// The recovery campaign arms a fault through a shared
/// [`MemFaultHandle`] while the simulation runs; the slave consumes it on
/// the next eligible *read* transaction and then behaves normally again —
/// the memory contents themselves are never altered, so a retried
/// transfer sees clean data. Write transactions are never disturbed.
#[derive(Debug, Default)]
pub struct MemFaultPlan {
    /// Address window `[lo, hi)` a read must start in to be eligible.
    /// `None` makes every read eligible. Used to target SimB fetches
    /// without disturbing CPU instruction or frame traffic.
    pub window: Option<(u32, u32)>,
    /// Respond to this many eligible reads with a bus error
    /// (`err`+`complete`, no data phase) instead of serving them.
    pub error_next_reads: u32,
    /// Delay the address ack of the next eligible read by this many
    /// cycles (consumed once). The transaction then completes normally,
    /// so a bounded stall never wedges the bus.
    pub stall_next_read: Option<u32>,
    /// Flip `bit` (mod 32) of beat `beat` (clamped to the burst length)
    /// of the next eligible read — a transient single-bit readout upset.
    pub flip_next_read: Option<(u32, u32)>,
    /// Number of bus errors injected so far.
    pub errors_fired: u64,
    /// Number of stalls injected so far.
    pub stalls_fired: u64,
    /// Number of bit flips injected so far.
    pub flips_fired: u64,
}

/// Shared handle through which a testbench arms [`MemFaultPlan`] faults.
pub type MemFaultHandle = Rc<RefCell<MemFaultPlan>>;

/// The memory slave FSM attached to a [`SlavePort`].
pub struct MemorySlave {
    port: SlavePort,
    clk: SignalId,
    rst: SignalId,
    mem: SharedMem,
    /// Cycles between `sel` and `aready` (first-access latency).
    wait_states: u32,
    /// Injectable defect: the burst-read output register is enabled one
    /// beat late, so the first beat of every multi-beat read drives the
    /// *previous* transfer's data (single-beat reads take the non-burst
    /// path and are unaffected) — the case study's static-region bug
    /// class.
    stale_first_beat_bug: bool,
    /// The read output register (observable only through the defect).
    rdata_reg: u32,
    state: MemState,
    /// Armed transient faults (campaign-controlled).
    faults: MemFaultHandle,
    /// A consumed flip fault waiting for its target beat.
    active_flip: Option<(u32, u32)>,
    /// Beat counter within the current read transaction.
    beat_idx: u32,
}

impl MemorySlave {
    /// Allocate a port, build the slave and register it with the kernel.
    /// `stale_first_beat_bug` enables the burst-read defect. Returns the
    /// port and the handle the recovery campaign arms transient faults
    /// through.
    pub fn instantiate(
        sim: &mut Simulator,
        name: &str,
        clk: SignalId,
        rst: SignalId,
        mem: SharedMem,
        wait_states: u32,
        stale_first_beat_bug: bool,
    ) -> (SlavePort, MemFaultHandle) {
        let port = SlavePort::alloc(sim, name);
        let faults: MemFaultHandle = Rc::new(RefCell::new(MemFaultPlan::default()));
        let slave = MemorySlave {
            port,
            clk,
            rst,
            mem,
            wait_states,
            stale_first_beat_bug,
            rdata_reg: 0,
            state: MemState::Idle,
            faults: faults.clone(),
            active_flip: None,
            beat_idx: 0,
        };
        sim.add_clocked(name, CompKind::UserStatic, Box::new(slave), clk, &[rst]);
        (port, faults)
    }
}

impl Component for MemorySlave {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let p = self.port;
        if ctx.is_high(self.rst) {
            self.state = MemState::Idle;
            self.active_flip = None;
            self.beat_idx = 0;
            ctx.set_bit(p.aready, false);
            ctx.set_bit(p.wready, false);
            ctx.set_bit(p.rvalid, false);
            ctx.set_u64(p.rdata, 0);
            ctx.set_bit(p.complete, false);
            ctx.set_bit(p.err, false);
            return;
        }
        if !ctx.rose(self.clk) {
            return;
        }
        match self.state {
            MemState::Idle => {
                if ctx.is_high(p.sel) {
                    if self.wait_states == 0 {
                        self.accept(ctx);
                    } else {
                        self.state = MemState::AckWait {
                            left: self.wait_states,
                        };
                    }
                } else {
                    // Deselected: nothing happens until the bus steers a
                    // transaction here (or reset changes).
                    ctx.park_until(&[p.sel, self.rst], &[]);
                }
            }
            MemState::AckWait { left } => {
                if left == 1 {
                    self.accept(ctx);
                } else {
                    self.state = MemState::AckWait { left: left - 1 };
                }
            }
            MemState::Write { addr, beats_left } => {
                ctx.set_bit(p.aready, false);
                if ctx.is_high(p.wvalid) {
                    // Beat commits this edge (wready was high).
                    let data = ctx.get(p.wdata);
                    match data.to_u64() {
                        Some(v) => self.mem.write_u32(addr, v as u32),
                        None => {
                            // Unknown data: store the lossy value and
                            // poison the word so later reads return X.
                            self.mem.write_u32(addr, data.to_u64_lossy() as u32);
                            self.mem.poison_word(addr);
                        }
                    }
                    if beats_left == 1 {
                        ctx.set_bit(p.wready, false);
                        ctx.set_bit(p.complete, true);
                        self.state = MemState::Complete;
                    } else {
                        self.state = MemState::Write {
                            addr: addr + 4,
                            beats_left: beats_left - 1,
                        };
                    }
                }
            }
            MemState::Read { addr, beats_left } => {
                ctx.set_bit(p.aready, false);
                if ctx.is_high(p.rready) {
                    // Current beat consumed; advance.
                    if beats_left == 1 {
                        ctx.set_bit(p.rvalid, false);
                        ctx.set_bit(p.complete, true);
                        self.state = MemState::Complete;
                    } else {
                        let next = addr + 4;
                        self.drive_read(ctx, next, false);
                        self.state = MemState::Read {
                            addr: next,
                            beats_left: beats_left - 1,
                        };
                    }
                }
            }
            MemState::Complete => {
                ctx.set_bit(p.complete, false);
                ctx.set_bit(p.err, false);
                self.state = MemState::Idle;
            }
        }
    }
}

impl MemorySlave {
    fn accept(&mut self, ctx: &mut Ctx<'_>) {
        let p = self.port;
        let addr = ctx.get(p.a_addr).to_u64_lossy() as u32;
        let size = (ctx.get(p.a_size).to_u64_lossy() as u32).max(1);
        let rnw = ctx.is_high(p.a_rnw);
        if rnw && self.consume_read_fault(ctx, addr, size) {
            return;
        }
        ctx.set_bit(p.aready, true);
        if rnw {
            self.beat_idx = 0;
            self.drive_read(ctx, addr, size > 1);
            self.state = MemState::Read {
                addr,
                beats_left: size,
            };
        } else {
            ctx.set_bit(p.wready, true);
            self.state = MemState::Write {
                addr,
                beats_left: size,
            };
        }
    }

    /// Check the armed fault plan against an incoming read. Returns
    /// `true` when the fault replaces the normal accept path (bus error
    /// or stall); a bit flip only arms `active_flip` and lets the
    /// transaction proceed.
    fn consume_read_fault(&mut self, ctx: &mut Ctx<'_>, addr: u32, size: u32) -> bool {
        let mut plan = self.faults.borrow_mut();
        let eligible = plan.window.is_none_or(|(lo, hi)| addr >= lo && addr < hi);
        if !eligible {
            return false;
        }
        if plan.error_next_reads > 0 {
            plan.error_next_reads -= 1;
            plan.errors_fired += 1;
            let p = self.port;
            ctx.set_bit(p.err, true);
            ctx.set_bit(p.complete, true);
            self.state = MemState::Complete;
            return true;
        }
        if let Some(n) = plan.stall_next_read.take() {
            plan.stalls_fired += 1;
            self.state = MemState::AckWait { left: n.max(1) };
            return true;
        }
        if let Some((beat, bit)) = plan.flip_next_read.take() {
            plan.flips_fired += 1;
            self.active_flip = Some((beat.min(size - 1), bit & 31));
        }
        false
    }

    fn drive_read(&mut self, ctx: &mut Ctx<'_>, addr: u32, first_of_burst: bool) {
        let p = self.port;
        let stale = self.rdata_reg;
        match self.mem.read_u32(addr) {
            Some(v) => {
                let mut out = if self.stale_first_beat_bug && first_of_burst {
                    // BUG: the output register enable lags one beat on
                    // the burst path; the previous transfer's data goes
                    // out first.
                    stale
                } else {
                    v
                };
                if let Some((beat, bit)) = self.active_flip {
                    if self.beat_idx == beat {
                        out ^= 1 << bit;
                        self.active_flip = None;
                    }
                }
                ctx.set_u64(p.rdata, out as u64);
                self.rdata_reg = v;
            }
            None => ctx.set(p.rdata, Lv::xes(32)), // poisoned word reads as X
        }
        self.beat_idx += 1;
        ctx.set_bit(p.rvalid, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_mem_round_trip() {
        let mem = SharedMem::new(64);
        mem.write_u32(0, 0xDEADBEEF);
        mem.write_u32(60, 42);
        assert_eq!(mem.read_u32(0), Some(0xDEADBEEF));
        assert_eq!(mem.read_u32(60), Some(42));
        assert_eq!(mem.read_u32(4), Some(0));
    }

    #[test]
    fn poison_round_trip() {
        let mem = SharedMem::new(64);
        mem.write_u32(8, 7);
        mem.poison_word(8);
        assert_eq!(mem.read_u32(8), None);
        assert!(mem.is_poisoned(8));
        assert_eq!(mem.poisoned_words(), 1);
        // A clean write heals the word.
        mem.write_u32(8, 9);
        assert_eq!(mem.read_u32(8), Some(9));
        assert_eq!(mem.poisoned_words(), 0);
    }

    #[test]
    fn bulk_load_and_read() {
        let mem = SharedMem::new(128);
        mem.load_words(16, &[1, 2, 3, 4]);
        assert_eq!(
            mem.read_words(16, 4),
            vec![Some(1), Some(2), Some(3), Some(4)]
        );
        mem.load_bytes(0, &[0x78, 0x56, 0x34, 0x12]);
        assert_eq!(mem.read_u32(0), Some(0x12345678));
        assert_eq!(mem.dump_bytes(0, 2), vec![0x78, 0x56]);
    }

    #[test]
    #[should_panic(expected = "unaligned read")]
    fn unaligned_read_panics() {
        SharedMem::new(64).read_u32(2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_write_panics() {
        SharedMem::new(64).write_u32(64, 1);
    }

    #[test]
    fn size_rounds_up_to_word() {
        let mem = SharedMem::new(5);
        assert_eq!(mem.len(), 8);
        assert!(!mem.is_empty());
    }
}

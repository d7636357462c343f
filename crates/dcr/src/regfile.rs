//! Shared register-file handles connecting DCR slaves to the hardware
//! that owns the registers.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

struct RegInner {
    base: u16,
    regs: Vec<u32>,
    /// Software writes not yet consumed by the owning hardware
    /// (offset, value) — lets command registers trigger actions.
    writes: VecDeque<(u16, u32)>,
}

/// A block of `n` DCR registers starting at DCR address `base`.
///
/// The handle is shared three ways: the DCR slave component services bus
/// reads/writes through it, the owning hardware component reads its
/// parameters and posts status, and the testbench can inspect it.
#[derive(Clone)]
pub struct RegFile {
    inner: Rc<RefCell<RegInner>>,
    /// Raised by [`RegFile::bus_write`] only — never by hardware-side
    /// [`RegFile::set`] — so the owning component can park on a kernel
    /// doorbell without waking itself by posting status.
    dirty: Rc<Cell<bool>>,
}

impl RegFile {
    /// Create a register block of `count` registers at `base`.
    pub fn new(base: u16, count: usize) -> RegFile {
        RegFile {
            inner: Rc::new(RefCell::new(RegInner {
                base,
                regs: vec![0; count],
                writes: VecDeque::new(),
            })),
            dirty: Rc::new(Cell::new(false)),
        }
    }

    /// The bus-write flag, suitable for `Simulator::add_doorbell`. It is
    /// set whenever software writes through the DCR chain and cleared by
    /// the kernel when it services the doorbell.
    pub fn dirty_flag(&self) -> Rc<Cell<bool>> {
        self.dirty.clone()
    }

    /// First DCR address of the block.
    pub fn base(&self) -> u16 {
        self.inner.borrow().base
    }

    /// Number of registers.
    pub fn len(&self) -> usize {
        self.inner.borrow().regs.len()
    }

    /// True when the block has no registers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Does this block decode DCR address `addr`?
    pub fn decodes(&self, addr: u16) -> bool {
        let inner = self.inner.borrow();
        addr >= inner.base && ((addr - inner.base) as usize) < inner.regs.len()
    }

    /// Read register `offset` (hardware or testbench side).
    pub fn get(&self, offset: u16) -> u32 {
        self.inner.borrow().regs[offset as usize]
    }

    /// Write register `offset` (hardware posting status; does not queue a
    /// software-write event).
    pub fn set(&self, offset: u16, v: u32) {
        self.inner.borrow_mut().regs[offset as usize] = v;
    }

    /// Bus-side write: stores the value and queues a write event for the
    /// owning hardware.
    pub fn bus_write(&self, addr: u16, v: u32) {
        let mut inner = self.inner.borrow_mut();
        let off = addr - inner.base;
        inner.regs[off as usize] = v;
        inner.writes.push_back((off, v));
        self.dirty.set(true);
    }

    /// Bus-side read.
    pub fn bus_read(&self, addr: u16) -> u32 {
        let inner = self.inner.borrow();
        inner.regs[(addr - inner.base) as usize]
    }

    /// Drain the queued software-write events (owning hardware side).
    /// Owners poll this every clock edge; with nothing queued it returns
    /// an unallocated empty vector.
    pub fn take_writes(&self) -> Vec<(u16, u32)> {
        let mut inner = self.inner.borrow_mut();
        if inner.writes.is_empty() {
            return Vec::new();
        }
        inner.writes.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_window() {
        let rf = RegFile::new(0x100, 4);
        assert!(rf.decodes(0x100));
        assert!(rf.decodes(0x103));
        assert!(!rf.decodes(0x104));
        assert!(!rf.decodes(0xFF));
        assert_eq!(rf.len(), 4);
        assert!(!rf.is_empty());
    }

    #[test]
    fn bus_writes_queue_events_but_hw_sets_do_not() {
        let rf = RegFile::new(0, 2);
        rf.set(0, 7);
        assert!(rf.take_writes().is_empty());
        rf.bus_write(1, 42);
        assert_eq!(rf.get(1), 42);
        assert_eq!(rf.take_writes(), vec![(1, 42)]);
        assert!(rf.take_writes().is_empty(), "events drain once");
    }

    #[test]
    fn clone_shares_state() {
        let rf = RegFile::new(0, 1);
        let rf2 = rf.clone();
        rf.set(0, 5);
        assert_eq!(rf2.get(0), 5);
        assert_eq!(rf2.bus_read(0), 5);
    }
}

//! # plb — a cycle-accurate Processor Local Bus model
//!
//! The AutoVision Optical Flow Demonstrator connects its video engines,
//! reconfiguration controller (IcapCTRL), video VIPs and PowerPC to main
//! memory over a shared PLB (Figure 1 of the paper). This crate models
//! that bus at the signal level on top of the [`rtlsim`] kernel:
//!
//! * [`PlbBus`] — clocked arbiter (fixed-priority or round-robin) plus a
//!   combinational crossbar relay between the granted master and the
//!   address-decoded slave.
//! * [`MasterPort`] / [`SlavePort`] — the signal bundles a master or
//!   slave exposes to the bus.
//! * [`DmaDriver`] — a reusable master-side burst FSM that engines, VIPs,
//!   IcapCTRL and the processor embed to perform memory transfers.
//! * [`MemorySlave`] — main memory with configurable wait states, backed
//!   by a [`SharedMem`] buffer the testbench can load frames, programs
//!   and bitstreams into.
//! * [`PlbMonitor`] — a protocol checker that flags `X` on control
//!   signals and handshake violations; this is how corruption escaping a
//!   reconfigurable region whose isolation is broken becomes a *detected*
//!   bug.
//!
//! ## Protocol
//!
//! All signals are sampled on the PLB clock's rising edge.
//!
//! 1. **Request.** A master asserts `req` with `rnw`, `addr` and `size`
//!    (beats of 32-bit words) held stable.
//! 2. **Grant + decode.** When idle, the arbiter picks the winning
//!    requester (per its [`ArbMode`]) and asserts its `gnt` while selecting
//!    the slave whose address window matches. An unmapped address
//!    completes immediately with `err`.
//! 3. **Address ack.** The slave raises `aready` when it accepts the
//!    transaction; the bus forwards this as the master's `addr_ack`, and
//!    the master deasserts `req`.
//! 4. **Data.** Writes move one beat on every edge where `wvalid &&
//!    wready`; reads on every edge where `rvalid && rready` (AXI-style
//!    two-way handshake, so either side may throttle).
//! 5. **Complete.** After the final beat the slave pulses `complete`
//!    (forwarded to the master) and the bus re-arbitrates.
//!
//! There is one topology, the modified design's shared bus. The case
//! study's bug.dpr.4, an IcapCTRL that keeps the fixed-latency timing of
//! the original design's point-to-point link, is a master-side policy
//! ([`dma::Handshake::FixedLatency`]) on that bus, not a bus mode.

pub mod bfm;
pub mod bus;
pub mod dma;
pub mod memory;
pub mod monitor;
pub mod port;

pub use bfm::{BfmOp, TestMaster};
pub use bus::{AddressWindow, ArbMode, PlbBus};
pub use dma::{DmaDriver, DmaEvent};
pub use memory::{MemFaultHandle, MemFaultPlan, MemorySlave, SharedMem};
pub use monitor::{MonitorStats, PlbMonitor};
pub use port::{MasterPort, SlavePort};

/// Data bus width in bits.
pub const DATA_BITS: u8 = 32;
/// Address bus width in bits.
pub const ADDR_BITS: u8 = 32;
/// Burst-size field width in bits (max 255 beats per burst).
pub const SIZE_BITS: u8 = 8;
/// Largest burst the bus protocol allows.
pub const MAX_BURST: usize = 255;

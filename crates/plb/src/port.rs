//! Signal bundles for bus attachment points.

use crate::{ADDR_BITS, DATA_BITS, SIZE_BITS};
use rtlsim::{SignalId, Simulator};

/// The signals a bus master exposes.
///
/// The first group is driven by the master, the second by the bus. A
/// master that sits inside a reconfigurable region drives these through
/// the isolation module, so during reconfiguration the bus-facing side
/// can be clamped while the region-side carries `X`.
#[derive(Debug, Clone, Copy)]
pub struct MasterPort {
    // Master-driven.
    /// Transaction request.
    pub req: SignalId,
    /// Read (1) / write (0) select, valid while `req`.
    pub rnw: SignalId,
    /// Byte address of the first beat, valid while `req`.
    pub addr: SignalId,
    /// Number of 32-bit beats (1..=255), valid while `req`.
    pub size: SignalId,
    /// Write-data valid.
    pub wvalid: SignalId,
    /// Write data for the current beat.
    pub wdata: SignalId,
    /// Master ready to accept read data.
    pub rready: SignalId,
    // Bus-driven.
    /// Arbiter grant (held for the whole transfer).
    pub gnt: SignalId,
    /// Slave accepted the address phase.
    pub addr_ack: SignalId,
    /// Slave ready to accept the current write beat.
    pub wready: SignalId,
    /// Read data valid.
    pub rvalid: SignalId,
    /// Read data for the current beat.
    pub rdata: SignalId,
    /// One-cycle pulse: transfer finished.
    pub complete: SignalId,
    /// Transfer aborted (decode miss or slave error); pulses with
    /// `complete`.
    pub err: SignalId,
}

impl MasterPort {
    /// Allocate the port's signals under `prefix` (e.g. `"plb.icap"`).
    /// Master-driven outputs start at 0 so an idle, never-evaluated
    /// master does not wedge arbitration with `X` requests.
    pub fn alloc(sim: &mut Simulator, prefix: &str) -> MasterPort {
        MasterPort {
            req: sim.signal_init(format!("{prefix}.req"), 1, 0),
            rnw: sim.signal_init(format!("{prefix}.rnw"), 1, 0),
            addr: sim.signal_init(format!("{prefix}.addr"), ADDR_BITS, 0),
            size: sim.signal_init(format!("{prefix}.size"), SIZE_BITS, 0),
            wvalid: sim.signal_init(format!("{prefix}.wvalid"), 1, 0),
            wdata: sim.signal_init(format!("{prefix}.wdata"), DATA_BITS, 0),
            rready: sim.signal_init(format!("{prefix}.rready"), 1, 0),
            gnt: sim.signal_init(format!("{prefix}.gnt"), 1, 0),
            addr_ack: sim.signal_init(format!("{prefix}.addr_ack"), 1, 0),
            wready: sim.signal_init(format!("{prefix}.wready"), 1, 0),
            rvalid: sim.signal_init(format!("{prefix}.rvalid"), 1, 0),
            rdata: sim.signal_init(format!("{prefix}.rdata"), DATA_BITS, 0),
            complete: sim.signal_init(format!("{prefix}.complete"), 1, 0),
            err: sim.signal_init(format!("{prefix}.err"), 1, 0),
        }
    }

    /// The master-driven signals, in field order (used for isolation
    /// clamping, error injection and routing at a region boundary).
    pub fn master_driven(&self) -> [SignalId; 7] {
        [
            self.req,
            self.rnw,
            self.addr,
            self.size,
            self.wvalid,
            self.wdata,
            self.rready,
        ]
    }

    /// The bus-driven signals, in field order.
    pub fn bus_driven(&self) -> [SignalId; 7] {
        [
            self.gnt,
            self.addr_ack,
            self.wready,
            self.rvalid,
            self.rdata,
            self.complete,
            self.err,
        ]
    }
}

/// The signals a bus slave exposes. First group driven by the bus,
/// second by the slave.
#[derive(Debug, Clone, Copy)]
pub struct SlavePort {
    // Bus-driven.
    /// This slave is selected for the current transfer.
    pub sel: SignalId,
    /// Read/write of the selected transfer.
    pub a_rnw: SignalId,
    /// Start address of the selected transfer.
    pub a_addr: SignalId,
    /// Beat count of the selected transfer.
    pub a_size: SignalId,
    /// Write-beat valid (relayed from the granted master).
    pub wvalid: SignalId,
    /// Write data (relayed from the granted master).
    pub wdata: SignalId,
    /// Master ready for read data (relayed).
    pub rready: SignalId,
    // Slave-driven.
    /// Slave accepts the address phase.
    pub aready: SignalId,
    /// Slave ready for the current write beat.
    pub wready: SignalId,
    /// Read data valid.
    pub rvalid: SignalId,
    /// Read data.
    pub rdata: SignalId,
    /// One-cycle completion pulse.
    pub complete: SignalId,
    /// Error pulse (with `complete`).
    pub err: SignalId,
}

impl SlavePort {
    /// Allocate the port's signals under `prefix` (e.g. `"plb.mem"`).
    pub fn alloc(sim: &mut Simulator, prefix: &str) -> SlavePort {
        SlavePort {
            sel: sim.signal_init(format!("{prefix}.sel"), 1, 0),
            a_rnw: sim.signal_init(format!("{prefix}.a_rnw"), 1, 0),
            a_addr: sim.signal_init(format!("{prefix}.a_addr"), ADDR_BITS, 0),
            a_size: sim.signal_init(format!("{prefix}.a_size"), SIZE_BITS, 0),
            wvalid: sim.signal_init(format!("{prefix}.wvalid"), 1, 0),
            wdata: sim.signal_init(format!("{prefix}.wdata"), DATA_BITS, 0),
            rready: sim.signal_init(format!("{prefix}.rready"), 1, 0),
            aready: sim.signal_init(format!("{prefix}.aready"), 1, 0),
            wready: sim.signal_init(format!("{prefix}.wready"), 1, 0),
            rvalid: sim.signal_init(format!("{prefix}.rvalid"), 1, 0),
            rdata: sim.signal_init(format!("{prefix}.rdata"), DATA_BITS, 0),
            complete: sim.signal_init(format!("{prefix}.complete"), 1, 0),
            err: sim.signal_init(format!("{prefix}.err"), 1, 0),
        }
    }

    /// The bus-driven signals, in field order.
    pub fn bus_driven(&self) -> [SignalId; 7] {
        [
            self.sel,
            self.a_rnw,
            self.a_addr,
            self.a_size,
            self.wvalid,
            self.wdata,
            self.rready,
        ]
    }

    /// The slave-driven signals, in field order.
    pub fn slave_driven(&self) -> [SignalId; 6] {
        [
            self.aready,
            self.wready,
            self.rvalid,
            self.rdata,
            self.complete,
            self.err,
        ]
    }
}

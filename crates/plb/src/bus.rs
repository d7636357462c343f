//! The bus itself: a clocked arbiter plus a combinational crossbar relay.
//!
//! The arbiter and relay are two kernel components sharing state through
//! internal signals (`owner`, `slave`, `errm`), mirroring how a
//! synthesized bus splits into sequential arbitration and combinational
//! steering logic. The relay forwards [`rtlsim::Lv`] values verbatim, so
//! `X` driven by a reconfigurable region whose isolation is broken
//! travels across the bus exactly as it would in a 4-state HDL simulation.

use crate::port::{MasterPort, SlavePort};
use rtlsim::{CompKind, Component, Ctx, SignalId, Simulator};

/// Arbitration policy among requesting masters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbMode {
    /// Lowest master index wins (index = priority; video-in is typically
    /// index 0 so the real-time stream never starves).
    FixedPriority,
    /// Rotating priority starting after the previous winner.
    RoundRobin,
}

/// Bus topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusMode {
    /// Arbitrated shared bus (the modified Optical Flow Demonstrator).
    Shared,
    /// Dedicated master-0 to slave-0 link with no arbitration (the
    /// original design's NPI-style IcapCTRL attachment). Only legal with
    /// exactly one master and one slave.
    PointToPoint,
}

/// One slave's address window.
#[derive(Debug, Clone, Copy)]
pub struct AddressWindow {
    /// First byte address covered.
    pub base: u32,
    /// Window length in bytes.
    pub len: u32,
}

impl AddressWindow {
    /// Does `addr` fall inside this window?
    #[inline]
    pub fn contains(&self, addr: u32) -> bool {
        addr >= self.base && (addr - self.base) < self.len
    }
}

/// Bus configuration.
#[derive(Debug, Clone)]
pub struct PlbBusConfig {
    /// Arbitration policy (ignored in point-to-point mode).
    pub arbitration: ArbMode,
    /// Topology.
    pub mode: BusMode,
    /// If set, the arbiter reports an error when one transfer holds the
    /// bus longer than this many clock cycles (hung-slave detector).
    pub hang_limit_cycles: Option<u64>,
}

impl Default for PlbBusConfig {
    fn default() -> Self {
        PlbBusConfig {
            arbitration: ArbMode::FixedPriority,
            mode: BusMode::Shared,
            hang_limit_cycles: Some(1_000_000),
        }
    }
}

const NONE: u64 = 0xFF;

/// Builder/handle for an instantiated bus.
pub struct PlbBus {
    /// Internal: index of the granted master, `0xFF` when idle.
    pub owner: SignalId,
    /// Internal: index of the selected slave, `0xFF` when idle.
    pub slave: SignalId,
    /// Internal: master index receiving a decode-error pulse.
    pub errm: SignalId,
}

struct Arbiter {
    clk: SignalId,
    rst: SignalId,
    cfg: PlbBusConfig,
    masters: Vec<MasterPort>,
    slaves: Vec<(SlavePort, AddressWindow)>,
    owner: SignalId,
    slave: SignalId,
    errm: SignalId,
    rr_next: usize,
    held_cycles: u64,
    hang_reported: bool,
    /// Request lines plus reset: the only inputs that can start a grant
    /// while the bus is idle, i.e. the park wake set.
    wake: Vec<SignalId>,
}

impl Arbiter {
    fn decode(&self, addr: u32) -> Option<usize> {
        self.slaves.iter().position(|(_, w)| w.contains(addr))
    }

    fn pick_winner(&mut self, ctx: &Ctx<'_>) -> Option<usize> {
        let n = self.masters.len();
        match self.cfg.arbitration {
            ArbMode::FixedPriority => (0..n).find(|&m| ctx.is_high(self.masters[m].req)),
            ArbMode::RoundRobin => {
                let start = self.rr_next;
                (0..n)
                    .map(|i| (start + i) % n)
                    .find(|&m| ctx.is_high(self.masters[m].req))
            }
        }
    }
}

impl Component for Arbiter {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.is_high(self.rst) {
            match self.cfg.mode {
                BusMode::PointToPoint => {
                    // Permanently wired master 0 <-> slave 0.
                    ctx.set_u64(self.owner, 0);
                    ctx.set_u64(self.slave, 0);
                }
                BusMode::Shared => {
                    ctx.set_u64(self.owner, NONE);
                    ctx.set_u64(self.slave, NONE);
                }
            }
            ctx.set_u64(self.errm, NONE);
            self.held_cycles = 0;
            self.hang_reported = false;
            return;
        }
        if !ctx.rose(self.clk) {
            return;
        }
        if self.cfg.mode == BusMode::PointToPoint {
            // Permanently granted: only reset ever changes the outputs.
            ctx.park_until(&[self.rst], &[]);
            return; // nothing to arbitrate
        }
        // Error pulses last one cycle.
        if ctx.get_u64(self.errm) != Some(NONE) {
            ctx.set_u64(self.errm, NONE);
        }
        let owner = ctx.get_u64(self.owner).unwrap_or(NONE);
        if owner == NONE {
            self.held_cycles = 0;
            self.hang_reported = false;
            let winner = self.pick_winner(ctx);
            if winner.is_none() && ctx.get_u64(self.errm) == Some(NONE) {
                // Idle bus, no error pulse to clear: quiescent until a
                // master raises a request (or reset changes). The grant
                // counter state is already zeroed.
                ctx.park_until(&self.wake, &[]);
            }
            if let Some(w) = winner {
                match ctx.get_u64(self.masters[w].addr).map(|a| a as u32) {
                    Some(addr) => match self.decode(addr) {
                        Some(s) => {
                            ctx.set_u64(self.owner, w as u64);
                            ctx.set_u64(self.slave, s as u64);
                            self.rr_next = (w + 1) % self.masters.len();
                        }
                        None => {
                            ctx.warn(format!("decode miss: master {w} addr {addr:#010x}"));
                            ctx.set_u64(self.errm, w as u64);
                        }
                    },
                    None => {
                        ctx.error(format!("master {w} requested with X/Z address"));
                        ctx.set_u64(self.errm, w as u64);
                    }
                }
            }
        } else {
            self.held_cycles += 1;
            let s = ctx.get_u64(self.slave).unwrap_or(NONE) as usize;
            if s < self.slaves.len() && ctx.is_high(self.slaves[s].0.complete) {
                ctx.set_u64(self.owner, NONE);
                ctx.set_u64(self.slave, NONE);
            } else if let Some(limit) = self.cfg.hang_limit_cycles {
                if self.held_cycles > limit && !self.hang_reported {
                    self.hang_reported = true;
                    ctx.error(format!(
                        "bus hang: master {owner} has held the bus for {limit} cycles"
                    ));
                }
            }
        }
    }
}

struct Relay {
    masters: Vec<MasterPort>,
    slaves: Vec<SlavePort>,
    owner: SignalId,
    slave: SignalId,
    errm: SignalId,
    /// In point-to-point mode the grant is permanent, so the slave's
    /// transaction-start strobe must come from the master's `req` rather
    /// than from the (constant) steering state.
    p2p: bool,
}

impl Component for Relay {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let owner = ctx.get(self.owner).to_u64_lossy();
        let slave = ctx.get(self.slave).to_u64_lossy();
        let errm = ctx.get(self.errm).to_u64_lossy();
        let granted = owner != NONE && (slave as usize) < self.slaves.len();
        for (mi, m) in self.masters.iter().enumerate() {
            let mine = granted && owner == mi as u64;
            if mine {
                let s = &self.slaves[slave as usize];
                ctx.set_bit(m.gnt, true);
                ctx.set(m.addr_ack, ctx.get(s.aready));
                ctx.set(m.wready, ctx.get(s.wready));
                ctx.set(m.rvalid, ctx.get(s.rvalid));
                ctx.set(m.rdata, ctx.get(s.rdata));
                ctx.set(m.complete, ctx.get(s.complete));
                ctx.set(m.err, ctx.get(s.err));
            } else {
                ctx.set_bit(m.gnt, false);
                ctx.set_bit(m.addr_ack, false);
                ctx.set_bit(m.wready, false);
                ctx.set_bit(m.rvalid, false);
                ctx.set_u64(m.rdata, 0);
                let e = errm == mi as u64;
                ctx.set_bit(m.complete, e);
                ctx.set_bit(m.err, e);
            }
        }
        for (si, s) in self.slaves.iter().enumerate() {
            let mine = granted && slave == si as u64;
            if mine {
                let m = &self.masters[owner as usize];
                let sel = if self.p2p { ctx.is_high(m.req) } else { true };
                ctx.set_bit(s.sel, sel);
                ctx.set(s.a_rnw, ctx.get(m.rnw));
                ctx.set(s.a_addr, ctx.get(m.addr));
                ctx.set(s.a_size, ctx.get(m.size));
                ctx.set(s.wvalid, ctx.get(m.wvalid));
                ctx.set(s.wdata, ctx.get(m.wdata));
                ctx.set(s.rready, ctx.get(m.rready));
            } else {
                ctx.set_bit(s.sel, false);
                ctx.set_bit(s.a_rnw, false);
                ctx.set_u64(s.a_addr, 0);
                ctx.set_u64(s.a_size, 0);
                ctx.set_bit(s.wvalid, false);
                ctx.set_u64(s.wdata, 0);
                ctx.set_bit(s.rready, false);
            }
        }
    }
}

impl PlbBus {
    /// Instantiate the bus. `slaves` pairs each slave port with its
    /// address window; windows must not overlap. Panics on an invalid
    /// point-to-point configuration or overlapping windows.
    pub fn new(
        sim: &mut Simulator,
        name: &str,
        clk: SignalId,
        rst: SignalId,
        cfg: PlbBusConfig,
        masters: Vec<MasterPort>,
        slaves: Vec<(SlavePort, AddressWindow)>,
    ) -> PlbBus {
        assert!(
            !masters.is_empty() && !slaves.is_empty(),
            "bus needs >=1 master and slave"
        );
        if cfg.mode == BusMode::PointToPoint {
            assert!(
                masters.len() == 1 && slaves.len() == 1,
                "point-to-point bus takes exactly one master and one slave"
            );
        }
        for (i, (_, a)) in slaves.iter().enumerate() {
            for (_, b) in slaves.iter().skip(i + 1) {
                let disjoint = a.base + a.len <= b.base || b.base + b.len <= a.base;
                assert!(disjoint, "overlapping address windows");
            }
        }
        let p2p = cfg.mode == BusMode::PointToPoint;
        let init_owner = if p2p { 0 } else { NONE };
        let owner = sim.signal_init(format!("{name}.owner"), 8, init_owner);
        let slave = sim.signal_init(format!("{name}.slave"), 8, init_owner);
        let errm = sim.signal_init(format!("{name}.errm"), 8, NONE);

        let mut wake: Vec<SignalId> = masters.iter().map(|m| m.req).collect();
        wake.push(rst);
        let arb = Arbiter {
            clk,
            rst,
            cfg,
            masters: masters.clone(),
            slaves: slaves.clone(),
            owner,
            slave,
            errm,
            rr_next: 0,
            held_cycles: 0,
            hang_reported: false,
            wake,
        };
        let arb_comp = sim.add_component(
            format!("{name}.arbiter"),
            CompKind::UserStatic,
            Box::new(arb),
            &[clk, rst],
        );
        sim.declare_clocked(arb_comp, clk);

        let relay = Relay {
            masters: masters.clone(),
            slaves: slaves.iter().map(|(p, _)| *p).collect(),
            owner,
            slave,
            errm,
            p2p,
        };
        // Sensitivity: steering state plus every endpoint-driven signal.
        let mut sens: Vec<SignalId> = vec![owner, slave, errm];
        for m in &masters {
            sens.extend_from_slice(&m.master_driven());
        }
        for (s, _) in &slaves {
            sens.extend_from_slice(&[s.aready, s.wready, s.rvalid, s.rdata, s.complete, s.err]);
        }
        sim.add_component(
            format!("{name}.relay"),
            CompKind::UserStatic,
            Box::new(relay),
            &sens,
        );

        PlbBus { owner, slave, errm }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_containment() {
        let w = AddressWindow {
            base: 0x1000,
            len: 0x100,
        };
        assert!(w.contains(0x1000));
        assert!(w.contains(0x10FF));
        assert!(!w.contains(0x1100));
        assert!(!w.contains(0xFFF));
    }

    #[test]
    #[should_panic(expected = "overlapping address windows")]
    fn overlapping_windows_rejected() {
        let mut sim = Simulator::new();
        let clk = sim.signal_init("clk", 1, 0);
        let rst = sim.signal_init("rst", 1, 0);
        let m = MasterPort::alloc(&mut sim, "m0");
        let s0 = SlavePort::alloc(&mut sim, "s0");
        let s1 = SlavePort::alloc(&mut sim, "s1");
        PlbBus::new(
            &mut sim,
            "plb",
            clk,
            rst,
            PlbBusConfig::default(),
            vec![m],
            vec![
                (
                    s0,
                    AddressWindow {
                        base: 0,
                        len: 0x2000,
                    },
                ),
                (
                    s1,
                    AddressWindow {
                        base: 0x1000,
                        len: 0x1000,
                    },
                ),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "point-to-point bus takes exactly one")]
    fn p2p_multi_master_rejected() {
        let mut sim = Simulator::new();
        let clk = sim.signal_init("clk", 1, 0);
        let rst = sim.signal_init("rst", 1, 0);
        let m0 = MasterPort::alloc(&mut sim, "m0");
        let m1 = MasterPort::alloc(&mut sim, "m1");
        let s0 = SlavePort::alloc(&mut sim, "s0");
        let cfg = PlbBusConfig {
            mode: BusMode::PointToPoint,
            ..Default::default()
        };
        PlbBus::new(
            &mut sim,
            "plb",
            clk,
            rst,
            cfg,
            vec![m0, m1],
            vec![(
                s0,
                AddressWindow {
                    base: 0,
                    len: 0x1000,
                },
            )],
        );
    }
}

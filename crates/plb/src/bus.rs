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

const NONE: u64 = 0xFF;

/// The arbiter reports an error when one transfer holds the bus longer
/// than this many clock cycles (hung-slave detector).
const HANG_LIMIT_CYCLES: u64 = 1_000_000;

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
    arbitration: ArbMode,
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
        match self.arbitration {
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
            ctx.set_u64(self.owner, NONE);
            ctx.set_u64(self.slave, NONE);
            ctx.set_u64(self.errm, NONE);
            self.held_cycles = 0;
            self.hang_reported = false;
            return;
        }
        if !ctx.rose(self.clk) {
            return;
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
            } else if self.held_cycles > HANG_LIMIT_CYCLES && !self.hang_reported {
                self.hang_reported = true;
                ctx.error(format!(
                    "bus hang: master {owner} has held the bus for {HANG_LIMIT_CYCLES} cycles"
                ));
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
    /// The `(owner, slave, errm)` steering of the previous eval; `None`
    /// before the first.
    steering: Option<(u64, u64, u64)>,
}

impl Component for Relay {
    /// Re-drives both ports of every master and slave when the steering
    /// changes; otherwise only the granted pair's changed inputs are
    /// routed across (see [`Ctx::route`]), since everything else is a
    /// constant of the steering.
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        let steering = (
            ctx.get(self.owner).to_u64_lossy(),
            ctx.get(self.slave).to_u64_lossy(),
            ctx.get(self.errm).to_u64_lossy(),
        );
        let all = self.steering != Some(steering);
        self.steering = Some(steering);
        let (owner, slave, errm) = steering;
        let granted = owner != NONE && (slave as usize) < self.slaves.len();
        for (mi, m) in self.masters.iter().enumerate() {
            let mine = granted && owner == mi as u64;
            if mine {
                let s = &self.slaves[slave as usize];
                if all {
                    ctx.set_bit(m.gnt, true);
                }
                ctx.route(&s.slave_driven(), &m.bus_driven()[1..], all, |v| v);
            } else if all {
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
                if all {
                    ctx.set_bit(s.sel, true);
                }
                let (from, to) = (m.master_driven(), s.bus_driven());
                ctx.route(&from[1..], &to[1..], all, |v| v);
            } else if all {
                for t in s.bus_driven() {
                    ctx.set_u64(t, 0);
                }
            }
        }
    }
}

impl PlbBus {
    /// Instantiate the bus, granting `masters` (in index order) by
    /// `arbitration`. `slaves` pairs each slave port with its address
    /// window; panics on overlapping windows.
    pub fn new(
        sim: &mut Simulator,
        name: &str,
        clk: SignalId,
        rst: SignalId,
        arbitration: ArbMode,
        masters: Vec<MasterPort>,
        slaves: Vec<(SlavePort, AddressWindow)>,
    ) -> PlbBus {
        assert!(
            !masters.is_empty() && !slaves.is_empty(),
            "bus needs >=1 master and slave"
        );
        for (i, (_, a)) in slaves.iter().enumerate() {
            for (_, b) in slaves.iter().skip(i + 1) {
                let disjoint = a.base + a.len <= b.base || b.base + b.len <= a.base;
                assert!(disjoint, "overlapping address windows");
            }
        }
        let owner = sim.signal_init(format!("{name}.owner"), 8, NONE);
        let slave = sim.signal_init(format!("{name}.slave"), 8, NONE);
        let errm = sim.signal_init(format!("{name}.errm"), 8, NONE);

        let mut wake: Vec<SignalId> = masters.iter().map(|m| m.req).collect();
        wake.push(rst);
        let arb = Arbiter {
            clk,
            rst,
            arbitration,
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
        sim.add_clocked(
            format!("{name}.arbiter"),
            CompKind::UserStatic,
            Box::new(arb),
            clk,
            &[rst],
        );

        let relay = Relay {
            masters: masters.clone(),
            slaves: slaves.iter().map(|(p, _)| *p).collect(),
            owner,
            slave,
            errm,
            steering: None,
        };
        // Sensitivity: steering state plus every endpoint-driven signal,
        // which covers every input the relay routes.
        let mut sens: Vec<SignalId> = vec![owner, slave, errm];
        for m in &masters {
            sens.extend_from_slice(&m.master_driven());
        }
        for (s, _) in &slaves {
            sens.extend_from_slice(&s.slave_driven());
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
            ArbMode::FixedPriority,
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
}

//! Bus protocol checker.
//!
//! The monitor is a verification IP: it never drives the bus, it only
//! observes. It reports kernel [`rtlsim::Severity::Error`] diagnostics
//! for:
//!
//! * `X`/`Z` on any master-driven control signal (`req`, `wvalid`,
//!   `rready`) — the signature of a reconfigurable region leaking
//!   spurious values into the static region past a broken isolation
//!   module;
//! * an `X` address or size presented with `req`;
//! * a master driving `wvalid` while not granted (the fixed-latency
//!   point-to-point assumption colliding with a shared bus);
//! * write data containing `X` while `wvalid` is asserted.
//!
//! Each distinct violation per master is reported once to keep logs
//! readable; the total count is still available via
//! [`MonitorStats::violations`].

use crate::port::MasterPort;
use rtlsim::{CompKind, Component, Ctx, SignalId, Simulator};
use std::cell::RefCell;
use std::rc::Rc;

/// Counters shared with the testbench.
#[derive(Debug, Default, Clone)]
pub struct MonitorStats {
    /// Total protocol violations observed (all kinds, all masters).
    pub violations: u64,
    /// Violations caused by unknown (`X`/`Z`) values.
    pub x_violations: u64,
    /// Ungranted-drive violations.
    pub ungranted_drives: u64,
}

/// The checker component. Attach with [`PlbMonitor::instantiate`].
pub struct PlbMonitor {
    clk: SignalId,
    rst: SignalId,
    masters: Vec<(String, MasterPort)>,
    reported: Vec<[bool; 5]>,
    /// Per master: a request is outstanding and no address ack has been
    /// observed yet, so data valids are premature.
    awaiting_ack: Vec<bool>,
    stats: Rc<RefCell<MonitorStats>>,
    /// Every signal the checks read, i.e. the park wake set.
    wake: Vec<SignalId>,
    /// A violation counted during the current eval; parking would change
    /// the per-cycle violation count of a persistent condition.
    fired: bool,
}

impl PlbMonitor {
    /// Build and register a monitor over the given masters; returns the
    /// shared statistics handle.
    pub fn instantiate(
        sim: &mut Simulator,
        name: &str,
        clk: SignalId,
        rst: SignalId,
        masters: Vec<(String, MasterPort)>,
    ) -> Rc<RefCell<MonitorStats>> {
        let stats = Rc::new(RefCell::new(MonitorStats::default()));
        let mut wake: Vec<SignalId> = vec![rst];
        for (_, p) in &masters {
            wake.extend_from_slice(&[
                p.req, p.addr, p.size, p.wvalid, p.wdata, p.rready, p.gnt, p.addr_ack,
            ]);
        }
        let mon = PlbMonitor {
            clk,
            rst,
            reported: vec![[false; 5]; masters.len()],
            awaiting_ack: vec![false; masters.len()],
            masters,
            stats: stats.clone(),
            wake,
            fired: false,
        };
        sim.add_clocked(name, CompKind::Vip, Box::new(mon), clk, &[rst]);
        stats
    }

    /// Count a violation; returns true the first time this (master,
    /// kind) fires, so the caller can emit the one diagnostic without
    /// paying for message formatting on every cycle of a persistent
    /// violation.
    fn flag(&mut self, midx: usize, kind: usize, is_x: bool) -> bool {
        self.fired = true;
        {
            let mut s = self.stats.borrow_mut();
            s.violations += 1;
            if is_x {
                s.x_violations += 1;
            }
            if kind == 3 {
                s.ungranted_drives += 1;
            }
        }
        if !self.reported[midx][kind] {
            self.reported[midx][kind] = true;
            true
        } else {
            false
        }
    }
}

impl Component for PlbMonitor {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.is_high(self.rst) || !ctx.rose(self.clk) {
            return;
        }
        self.fired = false;
        for i in 0..self.masters.len() {
            let p = self.masters[i].1;
            // Unknown on control signals.
            if (ctx.get(p.req).has_unknown()
                || ctx.get(p.wvalid).has_unknown()
                || ctx.get(p.rready).has_unknown())
                && self.flag(i, 0, true)
            {
                ctx.error(format!(
                    "master '{}': X/Z on bus control signal",
                    self.masters[i].0
                ));
            }
            // Unknown address/size while requesting.
            if ctx.is_high(p.req)
                && (ctx.get(p.addr).has_unknown() || ctx.get(p.size).has_unknown())
                && self.flag(i, 1, true)
            {
                ctx.error(format!(
                    "master '{}': request with X/Z address or size",
                    self.masters[i].0
                ));
            }
            // Unknown write data while claiming it is valid.
            if ctx.is_high(p.wvalid) && ctx.get(p.wdata).has_unknown() && self.flag(i, 2, true) {
                ctx.error(format!(
                    "master '{}': X/Z write data with wvalid",
                    self.masters[i].0
                ));
            }
            // Driving data without owning the bus.
            if ctx.is_high(p.wvalid) && !ctx.is_high(p.gnt) && self.flag(i, 3, false) {
                ctx.error(format!(
                    "master '{}': wvalid asserted without bus grant",
                    self.masters[i].0
                ));
            }
            // Track the address phase: data valids before the slave has
            // acknowledged the address are premature (the fixed-latency
            // point-to-point assumption colliding with a shared bus —
            // bug.dpr.4's signature).
            if ctx.is_high(p.addr_ack) {
                self.awaiting_ack[i] = false;
            } else if ctx.is_high(p.req) {
                self.awaiting_ack[i] = true;
            }
            if self.awaiting_ack[i]
                && !ctx.is_high(p.addr_ack)
                && (ctx.is_high(p.wvalid) || ctx.is_high(p.rready))
                && self.flag(i, 4, false)
            {
                ctx.error(format!(
                    "master '{}': data phase started before address ack",
                    self.masters[i].0
                ));
            }
        }
        // Clean cycle: the checks are pure functions of the observed
        // signals, so nothing can fire until one of them changes.
        if !self.fired {
            ctx.park_until(&self.wake, &[]);
        }
    }
}

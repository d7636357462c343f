//! The compiled-simulation plane: the dispatch filter behind
//! [`ExecMode`].
//!
//! # What "compiled" means here
//!
//! A classical compiled simulator (the berkeley-emulation-engine style)
//! re-emits the netlist as straight-line host code and keeps a *second*
//! copy of architectural state, which it must hand back to the
//! event-driven reference at every boundary. This kernel's components are
//! opaque `eval` bodies observing intra-delta glitch order through the
//! VCD sink and toggle counters, so a schedule that re-orders evaluation
//! would change the waveform byte stream. Instead, the compiled plane
//! keeps the delta loop as the *only* executor and compiles away the
//! dispatches that are provably no-ops, by **parking**: an idle FSM
//! calls [`crate::Ctx::park_until`] to declare itself quiescent until
//! one of its watched signals changes, a [`DoorbellId`] rings or a
//! self-scheduled wakeup fires, and a parked component is skipped at
//! dispatch.
//!
//! Each delta opens with one batch of value changes, and the kernel
//! **unparks before it marks**: before any listener of the batch is
//! queued, every component the batch wakes is unparked. No later
//! signal of a batch wakes a component that an earlier one skipped, so
//! the ready queue is the event-driven one with the parked components
//! left out. The execution order within a delta remains
//! event order, which is what pins waveforms bit-identical between
//! modes, reconfiguration windows included. There is no second state
//! copy: the event queue and signal arena are shared.
//!
//! Clock edges are not the plane's business: a component registered with
//! [`crate::Simulator::add_clocked`] wakes on its clock's rising edge
//! only, in both modes, so there is no falling-edge dispatch to filter.

use crate::{CompId, SignalId};
use std::cell::Cell;
use std::rc::Rc;

/// Execution mode of a [`crate::Simulator`], selected before the first
/// run call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Classic event-driven kernel: every sensitivity activation
    /// dispatches. The reference semantics the compiled plane is pinned
    /// against.
    EventDriven,
    /// Compiled dispatch: parked components are skipped. Bit-identical
    /// observable behaviour, fewer component evaluations. The default.
    #[default]
    Compiled,
}

impl ExecMode {
    /// Does this mode enable the compiled dispatch filter?
    #[inline]
    pub fn is_compiled(self) -> bool {
        !matches!(self, ExecMode::EventDriven)
    }

    /// Stable lowercase name (CLI/JSON spelling), the one
    /// [`str::parse`] accepts.
    pub fn as_str(self) -> &'static str {
        match self {
            ExecMode::EventDriven => "event",
            ExecMode::Compiled => "compiled",
        }
    }
}

impl std::str::FromStr for ExecMode {
    type Err = String;
    fn from_str(s: &str) -> Result<ExecMode, String> {
        match s {
            "event" => Ok(ExecMode::EventDriven),
            "compiled" => Ok(ExecMode::Compiled),
            _ => Err(format!("unknown exec mode '{s}' (event|compiled)")),
        }
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Handle to a registered doorbell (see
/// [`crate::Simulator::add_doorbell`]): a shared flag that out-of-band
/// state owners (register files, request queues) raise when they mutate
/// state a parked component polls, so parking stays sound for state that
/// bypasses the signal arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DoorbellId(pub(crate) u32);

/// Dispatch counters of the compiled plane. Every field is additive, so
/// the counters of several runs fold with [`CompiledStats::merge`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CompiledStats {
    /// Dispatches skipped because the component was parked.
    pub skipped_parked: u64,
    /// `park_until` calls honoured.
    pub parks: u64,
    /// Parked components woken by a watched-signal change.
    pub signal_wakes: u64,
    /// Doorbell rings consumed (each may wake several listeners).
    pub doorbell_rings: u64,
}

impl CompiledStats {
    /// Add `other`'s counters to these, as if both runs had been one.
    pub fn merge(&mut self, other: &CompiledStats) {
        self.skipped_parked += other.skipped_parked;
        self.parks += other.parks;
        self.signal_wakes += other.signal_wakes;
        self.doorbell_rings += other.doorbell_rings;
    }
}

/// Dense per-component / per-signal compiled-plane state, embedded in
/// `SimCore` so both the dispatcher and `Ctx::park_until` reach it.
#[derive(Default)]
pub(crate) struct CompiledCore {
    pub mode: ExecMode,
    /// Per component: currently parked.
    pub parked: Vec<bool>,
    /// Per component: wake set already registered (the set is latched
    /// from the first `park_until` call).
    pub wake_registered: Vec<bool>,
    /// Per signal: components to unpark when the signal changes.
    pub wakers: Vec<Vec<CompId>>,
    /// Registered doorbells and their parked listeners.
    pub doorbells: Vec<(Rc<Cell<bool>>, Vec<CompId>)>,
    pub stats: CompiledStats,
}

impl CompiledCore {
    /// Give a newly added component its dense slot: unparked, no wake
    /// set.
    pub fn add_comp(&mut self) {
        self.parked.push(false);
        self.wake_registered.push(false);
    }

    /// Unpark the components whose wake set holds `sig`, which the
    /// coming batch changes.
    #[inline]
    pub fn wake(&mut self, sig: SignalId) {
        for &c in &self.wakers[sig.0 as usize] {
            let parked = &mut self.parked[c.0 as usize];
            if *parked {
                *parked = false;
                self.stats.signal_wakes += 1;
            }
        }
    }

    /// Consume raised doorbells, unparking their listeners. Called before
    /// each batch in compiled mode; cost is one `Cell` read per
    /// doorbell.
    #[inline]
    pub fn service_doorbells(&mut self) {
        for (flag, listeners) in &self.doorbells {
            if flag.get() {
                flag.set(false);
                self.stats.doorbell_rings += 1;
                for &c in listeners {
                    self.parked[c.0 as usize] = false;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_mode_round_trips_through_its_name() {
        for m in [ExecMode::EventDriven, ExecMode::Compiled] {
            assert_eq!(m.as_str().parse(), Ok(m));
        }
        for other in ["event-driven", "eventdriven", "Event", "bogus"] {
            assert!(other.parse::<ExecMode>().is_err(), "{other}");
        }
        assert_eq!(ExecMode::default(), ExecMode::Compiled);
    }
}

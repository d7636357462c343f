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
//! one of its watched signals changes or a [`DoorbellId`] rings, and a
//! parked component is skipped at dispatch.
//!
//! The parked set is a bitset over `CompId`, and so is each signal's
//! listener set, stored as ascending `(word, mask)` pairs. Marking a
//! signal's listeners queues the set bits of `mask & !parked[word]`
//! from low to high and counts the parked bits into
//! [`CompiledStats::skipped_parked`] with one popcount, so a parked
//! listener costs nothing per entry. Components listen only while they
//! register, so ascending `CompId` order is registration order, the
//! order event-driven dispatch queues them in.
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

/// The word index and bit of `c` in a bitset over `CompId`: bit `b` of
/// word `w` is the component `64 * w + b`.
#[inline]
pub(crate) fn comp_bit(c: CompId) -> (usize, u64) {
    (c.0 as usize / 64, 1 << (c.0 % 64))
}

/// Dense per-component / per-signal compiled-plane state, embedded in
/// `SimCore` so both the dispatcher and `Ctx::park_until` reach it.
#[derive(Default)]
pub(crate) struct CompiledCore {
    pub mode: ExecMode,
    /// Bitset over `CompId` of the parked components (see [`comp_bit`]).
    pub parked: Vec<u64>,
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
        if self.wake_registered.len().is_multiple_of(64) {
            self.parked.push(0);
        }
        self.wake_registered.push(false);
    }

    /// Mark `c` parked.
    #[inline]
    pub fn park(&mut self, c: CompId) {
        let (word, bit) = comp_bit(c);
        self.parked[word] |= bit;
    }

    /// Unpark the components whose wake set holds `sig`, which the
    /// coming batch changes.
    #[inline]
    pub fn wake(&mut self, sig: SignalId) {
        for &c in &self.wakers[sig.0 as usize] {
            let (word, bit) = comp_bit(c);
            if self.parked[word] & bit != 0 {
                self.parked[word] &= !bit;
                self.stats.signal_wakes += 1;
            }
        }
    }

    /// Consume raised doorbells, unparking their listeners. Called before
    /// each batch; cost is one `Cell` read per doorbell. Only a parked
    /// component listens, so in event-driven mode this just lowers the
    /// flags.
    #[inline]
    pub fn service_doorbells(&mut self) {
        for (flag, listeners) in &self.doorbells {
            if flag.get() {
                flag.set(false);
                self.stats.doorbell_rings += 1;
                for &c in listeners {
                    let (word, bit) = comp_bit(c);
                    self.parked[word] &= !bit;
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

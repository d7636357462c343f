//! The compiled-simulation plane: the steady-state dispatch filter
//! behind [`ExecMode`].
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
//! dispatches that are provably no-ops:
//!
//! * **Edge filtering** — a component declared clocked via
//!   [`crate::Simulator::declare_clocked`] is never dispatched for the
//!   falling edge of its clock (its eval contract makes those evals
//!   observable no-ops; every other sensitivity, e.g. reset, dispatches
//!   normally).
//! * **Parking** — an idle FSM calls [`crate::Ctx::park_until`] to
//!   declare itself quiescent until one of its watched signals changes or
//!   a [`DoorbellId`] rings; parked components are skipped at dispatch.
//! * **Dirty-window fallback** — while any watched boundary condition
//!   holds (region isolation asserted, a SimB transfer in flight, `X` on
//!   a watched signal), filtering is suspended and every component is
//!   unparked: the kernel degenerates to full event-driven delta
//!   semantics for the duration of the window.
//!
//! Because the compiled plane only ever *removes* no-op dispatches, the
//! state handoff in both directions is trivially clean: there is no
//! second state copy, the event queue and signal arena are shared, and
//! entering/leaving a dirty window is a flag flip plus an unpark sweep.
//! The execution order within a delta remains event order, which is what
//! pins waveforms bit-identical between modes.

use crate::CompId;
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
    /// Compiled steady-state dispatch: edge filtering and parking are
    /// honoured outside dirty windows. Bit-identical observable
    /// behaviour, fewer component evaluations. The default.
    #[default]
    Compiled,
}

impl ExecMode {
    /// Does this mode enable the compiled dispatch filter?
    #[inline]
    pub fn is_compiled(self) -> bool {
        !matches!(self, ExecMode::EventDriven)
    }

    /// Stable lowercase name (CLI/JSON spelling).
    pub fn as_str(self) -> &'static str {
        match self {
            ExecMode::EventDriven => "event",
            ExecMode::Compiled => "compiled",
        }
    }

    /// Parse the CLI/JSON spelling produced by [`ExecMode::as_str`]
    /// (plus the common long aliases).
    pub fn parse(s: &str) -> Option<ExecMode> {
        match s {
            "event" | "event-driven" | "eventdriven" => Some(ExecMode::EventDriven),
            "compiled" => Some(ExecMode::Compiled),
            _ => None,
        }
    }
}

impl std::str::FromStr for ExecMode {
    type Err = String;
    fn from_str(s: &str) -> Result<ExecMode, String> {
        ExecMode::parse(s).ok_or_else(|| format!("unknown exec mode '{s}' (event|compiled)"))
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

/// What makes a watched signal "dirty" (see
/// [`crate::Simulator::watch_dirty`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirtyWatch {
    /// Dirty while the signal has any driven-1 bit (isolation asserted,
    /// transfer in flight).
    Truthy,
    /// Dirty while the signal carries `X`/`Z` bits (corruption escaping a
    /// boundary).
    Unknown,
    /// Dirty in either case (reset, ICAP handshake wires).
    TruthyOrUnknown,
}

/// Dispatch counters of the compiled plane. Every field is additive, so
/// the counters of several runs fold with [`CompiledStats::merge`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CompiledStats {
    /// Dispatches skipped because the activation was the wrong clock
    /// edge.
    pub skipped_edge: u64,
    /// Dispatches skipped because the component was parked.
    pub skipped_parked: u64,
    /// `park_until` calls honoured.
    pub parks: u64,
    /// Parked components woken by a watched-signal change.
    pub signal_wakes: u64,
    /// Doorbell rings consumed (each may wake several listeners).
    pub doorbell_rings: u64,
    /// Transitions into the dirty-window fallback.
    pub fallback_entries: u64,
    /// Transitions back to filtered steady-state dispatch.
    pub fallback_exits: u64,
    /// Time points executed with filtering active.
    pub steady_points: u64,
    /// Time points executed in fallback.
    pub fallback_points: u64,
}

impl CompiledStats {
    /// Add `other`'s counters to these, as if both runs had been one.
    pub fn merge(&mut self, other: &CompiledStats) {
        self.skipped_edge += other.skipped_edge;
        self.skipped_parked += other.skipped_parked;
        self.parks += other.parks;
        self.signal_wakes += other.signal_wakes;
        self.doorbell_rings += other.doorbell_rings;
        self.fallback_entries += other.fallback_entries;
        self.fallback_exits += other.fallback_exits;
        self.steady_points += other.steady_points;
        self.fallback_points += other.fallback_points;
    }
}

/// Per-signal compiled-plane flags, packed next to the signal's hot
/// state (`SignalState.cflags`).
pub(crate) mod cflag {
    /// Signal is dirty-watched for truthiness.
    pub const WATCH_TRUTHY: u8 = 1 << 0;
    /// Signal is dirty-watched for unknown bits.
    pub const WATCH_UNKNOWN: u8 = 1 << 1;
    /// Signal currently holds its dirty condition.
    pub const DIRTY_NOW: u8 = 1 << 2;
    /// Signal has a (possibly empty) park wake list.
    pub const HAS_WAKERS: u8 = 1 << 3;
    pub const WATCH_ANY: u8 = WATCH_TRUTHY | WATCH_UNKNOWN;
}

const NO_CLOCK: u32 = u32::MAX;

/// Dense per-component / per-signal compiled-plane state, embedded in
/// `SimCore` so both the dispatcher and `Ctx::park_until` reach it.
#[derive(Default)]
pub(crate) struct CompiledCore {
    pub mode: ExecMode,
    /// Hot gate: true iff `mode.is_compiled()` and no dirty window is
    /// active. Checked once per signal application.
    pub filtering: bool,
    /// Per component: declared clock signal id, `NO_CLOCK` if generic.
    pub clock_of: Vec<u32>,
    /// Per component: currently parked.
    pub parked: Vec<bool>,
    /// Per component: wake set already registered (the set is latched
    /// from the first `park_until` call).
    pub wake_registered: Vec<bool>,
    /// Per signal: components to unpark when the signal changes.
    pub wakers: Vec<Vec<CompId>>,
    /// Registered doorbells and their parked listeners.
    pub doorbells: Vec<(Rc<Cell<bool>>, Vec<CompId>)>,
    /// Number of signals currently dirty; filtering is suspended while
    /// non-zero.
    pub dirty_count: u32,
    /// Closed and open fallback windows as `(entry_ps, exit_ps)`; an open
    /// window has `exit_ps == u64::MAX`. Kept out of the structured trace
    /// so the TraceBuf stream stays bit-identical between modes.
    pub windows: Vec<(u64, u64)>,
    pub stats: CompiledStats,
}

impl CompiledCore {
    /// Give a newly added component its dense slot: no clock, unparked,
    /// no wake set.
    pub fn add_comp(&mut self) {
        self.clock_of.push(NO_CLOCK);
        self.parked.push(false);
        self.wake_registered.push(false);
    }

    /// Clear every parked flag (dirty-window entry / full flush).
    pub fn unpark_all(&mut self) {
        for p in &mut self.parked {
            *p = false;
        }
    }

    /// Recompute the hot filtering gate from mode/dirty state.
    #[inline]
    pub fn refresh_gate(&mut self) {
        self.filtering = self.mode.is_compiled() && self.dirty_count == 0;
    }

    /// Consume raised doorbells, unparking their listeners. Called once
    /// per delta while filtering; cost is one `Cell` read per doorbell.
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
            assert_eq!(ExecMode::parse(m.as_str()), Some(m));
        }
        assert_eq!(ExecMode::parse("event-driven"), Some(ExecMode::EventDriven));
        assert_eq!(ExecMode::parse("bogus"), None);
        assert_eq!(ExecMode::default(), ExecMode::Compiled);
    }
}

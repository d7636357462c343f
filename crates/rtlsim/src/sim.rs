//! The discrete-event simulation core: signal arena, two-level event
//! scheduler (near-term timing wheel + far-horizon heap), allocation-free
//! delta-cycle loop, message log and statistics.
//!
//! # Scheduler
//!
//! Events live in one of two structures depending on how far ahead they
//! are scheduled:
//!
//! * A **timing wheel** of `WHEEL_SLOTS` dense slots, each covering
//!   2^`TICK_SHIFT` ps. The wheel spans ~105 clock periods of the
//!   AutoVision system clock, so in steady state essentially every event
//!   (clock edges, register updates, bus handshakes) is an O(1) push into
//!   a slot `Vec` plus one bit set in an occupancy bitmap.
//! * A **far-horizon `BinaryHeap`** for the rare event beyond the wheel
//!   window (watchdog deadlines, long reset delays). Events migrate
//!   lazily from the heap into the wheel as time advances.
//!
//! Determinism is preserved exactly: every event carries the global
//! sequence number it was scheduled with, and the batch extracted at one
//! timestamp is sorted by that sequence before it is applied, so
//! same-timestamp ordering is identical to the old single-heap kernel
//! (pinned by `tests/determinism.rs`).
//!
//! # Delta loop
//!
//! The loop allocates nothing per delta: the popped-event batch, the
//! ready queue and the non-blocking-write list are all reusable buffers,
//! and ready-queue membership is tracked with a generation stamp instead
//! of a drained `bool` flag.

use crate::compiled::{cflag, CompiledCore, CompiledStats, DirtyWatch, DoorbellId, ExecMode};
use crate::component::{CompKind, Component, Ctx};
use crate::lv::Lv;
use crate::name::{Name, NameArena, NameId};
use crate::profile::Profiler;
use crate::trace::{TraceBuf, TraceCat, TraceEvent, TraceKind, DEFAULT_TRACE_CAPACITY};
use crate::vcd::VcdWriter;
use crate::{CompId, Severity, SignalId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Maximum delta iterations at one time point before the kernel declares a
/// combinational oscillation (like an HDL simulator's iteration limit).
pub const DELTA_LIMIT: u32 = 10_000;

/// Time points between scheduler-occupancy counter samples while the
/// structured trace is enabled.
const SCHED_SAMPLE_PERIOD: u64 = 4096;

/// A timestamped diagnostic produced by a component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimMessage {
    /// Simulation time of the report, in picoseconds.
    pub time_ps: u64,
    /// Message class.
    pub severity: Severity,
    /// Hierarchical name of the reporting component (interned; cloning
    /// is a reference-count bump).
    pub component: Name,
    /// Free-form text.
    pub text: String,
}

impl fmt::Display for SimMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12} ps] {:?} {}: {}",
            self.time_ps, self.severity, self.component, self.text
        )
    }
}

pub(crate) struct SignalState {
    pub name: NameId,
    pub width: u8,
    pub cur: Lv,
    pub prev: Lv,
    /// Global step number of the most recent value change.
    pub last_change: u64,
    /// Components sensitive to any change of this signal.
    pub sensitive: Vec<CompId>,
    /// Number of value changes since time 0.
    pub toggles: u64,
    /// Compiled-plane flags (dirty watches, park wake list presence);
    /// see [`crate::compiled::cflag`]. Zero for ordinary signals.
    pub cflags: u8,
    /// `SimCore::step` of the eval phase that last queued a write to
    /// this signal (see [`SimCore::push_write`]).
    pub written_step: u64,
}

struct CompSlot {
    name: NameId,
    kind: CompKind,
    /// Equals the simulator's current ready generation while the
    /// component is queued in the ready set (generation stamping avoids
    /// a clear pass over all slots per delta).
    queued_gen: u64,
    evals: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum EventKind {
    Drive(SignalId, Lv),
    Wake(CompId),
}

#[derive(Clone, Copy)]
struct Event {
    time: u64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Number of slots in the near-term timing wheel. Power of two.
const WHEEL_SLOTS: usize = 1024;
const WHEEL_MASK: usize = WHEEL_SLOTS - 1;
/// log2 of the time span (ps) covered by one wheel slot.
const TICK_SHIFT: u32 = 10;
/// Words in the slot-occupancy bitmap.
const OCC_WORDS: usize = WHEEL_SLOTS / 64;

/// Two-level event scheduler: dense timing wheel for the near term, heap
/// for the far horizon.
///
/// Invariants (checked in debug builds):
/// * No event is ever scheduled in the past, so every pending event's
///   tick is ≥ `self.tick` — slots behind the cursor are empty.
/// * Within the wheel window of `WHEEL_SLOTS` ticks, each tick maps to a
///   unique slot, so all events in one slot share a tick.
/// * Far-heap events all lie beyond the window, so whenever the wheel is
///   non-empty its minimum precedes the heap's minimum.
struct Scheduler {
    slots: Box<[Vec<Event>]>,
    /// One bit per slot: set iff the slot is non-empty.
    occ: [u64; OCC_WORDS],
    /// Wheel cursor: current time >> [`TICK_SHIFT`].
    tick: u64,
    /// Events currently in the wheel.
    len: usize,
    /// Events beyond the wheel window, migrated in lazily by `advance`.
    far: BinaryHeap<Reverse<Event>>,
}

impl Scheduler {
    fn new() -> Scheduler {
        Scheduler {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            occ: [0; OCC_WORDS],
            tick: 0,
            len: 0,
            far: BinaryHeap::new(),
        }
    }

    #[inline]
    fn push(&mut self, ev: Event) {
        let t = ev.time >> TICK_SHIFT;
        debug_assert!(t >= self.tick, "event scheduled in the past");
        if t < self.tick + WHEEL_SLOTS as u64 {
            self.push_wheel(ev, t);
        } else {
            self.far.push(Reverse(ev));
        }
    }

    #[inline]
    fn push_wheel(&mut self, ev: Event, tick: u64) {
        let idx = (tick as usize) & WHEEL_MASK;
        self.slots[idx].push(ev);
        self.occ[idx / 64] |= 1u64 << (idx % 64);
        self.len += 1;
    }

    /// Move the cursor forward to `now`'s tick and migrate far-heap
    /// events that fall inside the new wheel window.
    fn advance(&mut self, now: u64) {
        let new_tick = now >> TICK_SHIFT;
        if new_tick <= self.tick {
            return;
        }
        self.tick = new_tick;
        let horizon = new_tick + WHEEL_SLOTS as u64;
        while self
            .far
            .peek()
            .is_some_and(|Reverse(ev)| (ev.time >> TICK_SHIFT) < horizon)
        {
            let Reverse(ev) = self.far.pop().expect("peeked event is still queued");
            let tick = ev.time >> TICK_SHIFT;
            self.push_wheel(ev, tick);
        }
    }

    /// Extract every event scheduled for exactly `now` into `out`, in
    /// the order it was scheduled (sequence order).
    fn pop_at(&mut self, now: u64, out: &mut Vec<Event>) {
        self.advance(now);
        out.clear();
        let idx = ((now >> TICK_SHIFT) as usize) & WHEEL_MASK;
        if self.occ[idx / 64] & (1u64 << (idx % 64)) == 0 {
            return;
        }
        let slot = &mut self.slots[idx];
        let mut i = 0;
        while i < slot.len() {
            if slot[i].time == now {
                out.push(slot.swap_remove(i));
            } else {
                i += 1;
            }
        }
        self.len -= out.len();
        if slot.is_empty() {
            self.occ[idx / 64] &= !(1u64 << (idx % 64));
        }
        // swap_remove scrambles order, and heap→wheel migration can
        // interleave batches; the global sequence number restores the
        // exact scheduling order at this timestamp.
        out.sort_unstable_by_key(|e| e.seq);
    }

    /// Total pending events (wheel + far horizon) — the occupancy the
    /// kernel samples into the trace as a counter track.
    fn pending_events(&self) -> usize {
        self.len + self.far.len()
    }

    /// Time of the earliest pending event, if any.
    fn next_time(&self) -> Option<u64> {
        if self.len > 0 {
            let idx = self
                .first_occupied((self.tick as usize) & WHEEL_MASK)
                .expect("wheel count positive but occupancy bitmap empty");
            return self.slots[idx].iter().map(|e| e.time).min();
        }
        self.far.peek().map(|r| r.0.time)
    }

    /// First non-empty slot at or circularly after `start` (ascending
    /// tick order, since the window maps ticks to slots injectively).
    fn first_occupied(&self, start: usize) -> Option<usize> {
        let sw = start / 64;
        let sb = start % 64;
        let w = self.occ[sw] & (!0u64 << sb);
        if w != 0 {
            return Some(sw * 64 + w.trailing_zeros() as usize);
        }
        for off in 1..OCC_WORDS {
            let wi = (sw + off) & (OCC_WORDS - 1);
            let w = self.occ[wi];
            if w != 0 {
                return Some(wi * 64 + w.trailing_zeros() as usize);
            }
        }
        let w = self.occ[sw] & !(!0u64 << sb);
        if w != 0 {
            return Some(sw * 64 + w.trailing_zeros() as usize);
        }
        None
    }
}

/// Mutable kernel state shared with evaluation contexts.
pub(crate) struct SimCore {
    pub now: u64,
    /// Monotonic counter incremented once per delta application phase;
    /// used for edge detection.
    pub step: u64,
    seq: u64,
    pub signals: Vec<SignalState>,
    sched: Scheduler,
    /// Non-blocking writes accumulated during the current delta; only
    /// [`SimCore::push_write`] appends to it.
    pending: Vec<(SignalId, Lv)>,
    pub messages: Vec<SimMessage>,
    pub finish_requested: bool,
    pub names: NameArena,
    comp_names: Vec<(NameId, CompKind)>,
    /// Structured-event sink (see [`crate::trace`]); off by default.
    pub trace: TraceBuf,
    /// Compiled-plane state (see [`crate::compiled`]); inert while the
    /// execution mode is [`ExecMode::EventDriven`].
    pub compiled: CompiledCore,
}

impl SimCore {
    pub fn schedule_drive(&mut self, time: u64, sig: SignalId, v: Lv) {
        self.seq += 1;
        self.sched.push(Event {
            time,
            seq: self.seq,
            kind: EventKind::Drive(sig, v),
        });
    }

    pub fn schedule_wake(&mut self, time: u64, comp: CompId) {
        self.seq += 1;
        self.sched.push(Event {
            time,
            seq: self.seq,
            kind: EventKind::Wake(comp),
        });
    }

    pub fn comp_name(&self, c: CompId) -> &Name {
        self.names.resolve(self.comp_names[c.0 as usize].0)
    }

    /// Queue a non-blocking write of `v` to `sig`, the one path behind
    /// [`Ctx::set`] and its variants.
    ///
    /// The first write to a signal in an eval phase is dropped when it
    /// equals the signal's current value. That is exact: until this
    /// phase's writes apply, `cur` can only change through earlier
    /// entries of the same batch, and there are none for this signal, so
    /// the write would apply as a no-op. Every queued write stamps
    /// `written_step`; later writes to the same signal in the phase are
    /// always queued, so write-then-revert and last-write-wins sequences
    /// reach `apply` unchanged.
    #[inline]
    pub fn push_write(&mut self, sig: SignalId, v: Lv) {
        let s = &mut self.signals[sig.0 as usize];
        if s.written_step != self.step {
            if s.cur.eq_case(&v) {
                return;
            }
            s.written_step = self.step;
        }
        self.pending.push((sig, v));
    }

    /// Park `comp` until one of `signals` changes value or one of
    /// `doorbells` rings (see [`Ctx::park_until`], which checks the mode
    /// inline and calls this only in compiled modes). The wake set is
    /// latched from the first call.
    #[inline(never)]
    pub fn park_until(&mut self, comp: CompId, signals: &[SignalId], doorbells: &[DoorbellId]) {
        let cc = &mut self.compiled;
        debug_assert!(cc.mode.is_compiled());
        let idx = comp.0 as usize;
        if !cc.wake_registered[idx] {
            cc.wake_registered[idx] = true;
            for &s in signals {
                cc.wakers[s.0 as usize].push(comp);
                self.signals[s.0 as usize].cflags |= cflag::HAS_WAKERS;
            }
            for &d in doorbells {
                cc.doorbells[d.0 as usize].1.push(comp);
            }
        }
        cc.parked[idx] = true;
        cc.stats.parks += 1;
    }
}

/// Cumulative kernel statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimStats {
    /// Total component evaluations performed.
    pub evals: u64,
    /// Total delta cycles executed.
    pub deltas: u64,
    /// Total distinct time points visited.
    pub time_points: u64,
    /// Total signal value changes.
    pub toggles: u64,
    /// Total events scheduled (drives + wakeups).
    pub events: u64,
}

/// The top-level event-driven simulator.
///
/// Construction wires signals and components; [`Simulator::run_for`] /
/// [`Simulator::run_until`] advance time. The kernel implements the
/// standard two-phase HDL scheduling model: within one delta, all
/// triggered components evaluate against a frozen signal state, then their
/// non-blocking writes apply together, possibly triggering another delta.
pub struct Simulator {
    core: SimCore,
    comps: Vec<CompSlot>,
    /// Component bodies, indexed like `comps`. Kept apart from `core` so
    /// the eval loop borrows both disjointly.
    bodies: Vec<Box<dyn Component>>,
    /// Reusable ready queue; membership tracked by `ready_gen` stamps.
    ready: Vec<CompId>,
    ready_gen: u64,
    /// Reusable buffer for the event batch popped at one timestamp.
    pop_scratch: Vec<Event>,
    profiler: Profiler,
    /// Mirror of the profiler's enabled flag, checked on the hot path.
    profiling: bool,
    vcd: Option<VcdWriter>,
    /// True iff a VCD sink is attached; hot-path gate for trace hooks.
    tracing: bool,
    stats: SimStats,
    /// Components that have never run yet (initial eval at first run call).
    uninitialized: Vec<CompId>,
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulator {
    /// Create an empty simulator at time 0, in [`ExecMode::default`].
    pub fn new() -> Simulator {
        let mut sim = Simulator {
            core: SimCore {
                now: 0,
                step: 1,
                seq: 0,
                signals: Vec::new(),
                sched: Scheduler::new(),
                pending: Vec::new(),
                messages: Vec::new(),
                finish_requested: false,
                names: NameArena::new(),
                comp_names: Vec::new(),
                trace: TraceBuf::new(),
                compiled: CompiledCore::default(),
            },
            comps: Vec::new(),
            bodies: Vec::new(),
            ready: Vec::new(),
            ready_gen: 1,
            pop_scratch: Vec::new(),
            profiler: Profiler::new(),
            profiling: false,
            vcd: None,
            tracing: false,
            stats: SimStats::default(),
            uninitialized: Vec::new(),
        };
        // Open the dispatch gate the default mode implies, so a bare
        // simulator filters exactly like one given the mode explicitly.
        sim.core.compiled.refresh_gate();
        sim
    }

    /// Declare a new signal. Initial value is all-`X` (uninitialised), as
    /// in a 4-state HDL simulator.
    pub fn signal(&mut self, name: impl AsRef<str>, width: u8) -> SignalId {
        let id = SignalId(self.core.signals.len() as u32);
        let name = self.core.names.intern(name.as_ref());
        self.core.signals.push(SignalState {
            name,
            width,
            cur: Lv::xes(width),
            prev: Lv::xes(width),
            last_change: 0,
            sensitive: Vec::new(),
            toggles: 0,
            cflags: 0,
            written_step: 0,
        });
        self.core.compiled.wakers.push(Vec::new());
        id
    }

    /// Declare a signal with a known initial value.
    pub fn signal_init(&mut self, name: impl AsRef<str>, width: u8, init: u64) -> SignalId {
        let id = self.signal(name, width);
        self.core.signals[id.0 as usize].cur = Lv::from_u64(width, init);
        self.core.signals[id.0 as usize].prev = Lv::from_u64(width, init);
        id
    }

    /// Register a component. `sensitivity` lists the signals whose changes
    /// trigger evaluation; every component additionally gets one initial
    /// evaluation when the simulation first runs (like an HDL `initial`).
    pub fn add_component(
        &mut self,
        name: impl AsRef<str>,
        kind: CompKind,
        body: Box<dyn Component>,
        sensitivity: &[SignalId],
    ) -> CompId {
        let id = CompId(self.comps.len() as u32);
        let name = self.core.names.intern(name.as_ref());
        self.comps.push(CompSlot {
            name,
            kind,
            queued_gen: 0,
            evals: 0,
        });
        self.bodies.push(body);
        self.core.comp_names.push((name, kind));
        self.core.compiled.add_comp();
        for &s in sensitivity {
            self.core.signals[s.0 as usize].sensitive.push(id);
        }
        self.profiler.register(id, kind);
        self.uninitialized.push(id);
        id
    }

    /// Current simulation time in picoseconds.
    pub fn now(&self) -> u64 {
        self.core.now
    }

    /// Peek a signal's current value (testbench read).
    pub fn peek(&self, s: SignalId) -> Lv {
        self.core.signals[s.0 as usize].cur
    }

    /// Peek as `u64` (None if unknown bits).
    pub fn peek_u64(&self, s: SignalId) -> Option<u64> {
        self.peek(s).to_u64()
    }

    /// Drive a signal from the testbench; takes effect when the simulation
    /// next advances (scheduled at the current time).
    pub fn poke(&mut self, s: SignalId, v: Lv) {
        let w = self.core.signals[s.0 as usize].width;
        let t = self.core.now;
        self.core.schedule_drive(t, s, v.resize(w));
    }

    /// Drive a known value from the testbench.
    pub fn poke_u64(&mut self, s: SignalId, v: u64) {
        let w = self.core.signals[s.0 as usize].width;
        self.poke(s, Lv::from_u64(w, v));
    }

    /// Signal name lookup.
    pub fn signal_name(&self, s: SignalId) -> &str {
        self.core
            .names
            .resolve(self.core.signals[s.0 as usize].name)
            .as_str()
    }

    /// Number of value changes a signal has seen (activity measure; the
    /// paper's CIE-vs-ME elapsed-time inversion is explained by exactly
    /// this quantity).
    pub fn toggle_count(&self, s: SignalId) -> u64 {
        self.core.signals[s.0 as usize].toggles
    }

    /// Sum of toggle counts over all signals whose hierarchical name
    /// starts with `prefix`.
    ///
    /// Legacy stringly lookup: it re-scans every signal name on each
    /// call. Resolve once with [`Simulator::signals_with_prefix`] (or
    /// `verif`'s typed `ActivityProbe`) and read through the handles
    /// instead.
    #[doc(hidden)]
    pub fn toggle_count_prefix(&self, prefix: &str) -> u64 {
        self.toggle_count_set(&self.signals_with_prefix(prefix))
    }

    /// Resolve the set of signals whose hierarchical name starts with
    /// `prefix` — once, at build time — into typed handles usable for
    /// repeated activity reads without any string matching.
    pub fn signals_with_prefix(&self, prefix: &str) -> Vec<SignalId> {
        self.core
            .signals
            .iter()
            .enumerate()
            .filter(|(_, s)| self.core.names.resolve(s.name).starts_with(prefix))
            .map(|(i, _)| SignalId(i as u32))
            .collect()
    }

    /// Sum of toggle counts over a resolved signal set.
    pub fn toggle_count_set(&self, signals: &[SignalId]) -> u64 {
        signals.iter().map(|s| self.toggle_count(*s)).sum()
    }

    /// Enable VCD waveform tracing of all signals to `path`.
    pub fn trace_vcd(&mut self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let names: Vec<(String, u8)> = self
            .core
            .signals
            .iter()
            .map(|s| (self.core.names.resolve(s.name).to_string(), s.width))
            .collect();
        self.vcd = Some(VcdWriter::create(path, &names)?);
        self.tracing = true;
        Ok(())
    }

    /// Enable structured event tracing (see [`crate::trace`]) with the
    /// default ring capacity. A pure observer: enabling it never changes
    /// simulation results, and while it stays off every emission helper
    /// is a single predicted-not-taken branch.
    pub fn enable_trace(&mut self) {
        self.enable_trace_with_capacity(DEFAULT_TRACE_CAPACITY);
    }

    /// Enable structured event tracing with an explicit ring capacity
    /// (events; oldest are overwritten once full).
    pub fn enable_trace_with_capacity(&mut self, capacity: usize) {
        self.core.trace.enable(capacity);
    }

    /// True if the structured-event sink is on.
    pub fn trace_enabled(&self) -> bool {
        self.core.trace.enabled
    }

    /// Recorded trace events in emission order (oldest retained first).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.core.trace.events()
    }

    /// Events lost to ring overwrite.
    pub fn trace_dropped(&self) -> u64 {
        self.core.trace.dropped()
    }

    /// Enable or disable per-component wall-time profiling (off by
    /// default — sampling clock reads cost measurable throughput).
    pub fn set_profiling(&mut self, on: bool) {
        self.profiling = on;
        self.profiler.set_enabled(on);
    }

    /// Access the profiler report.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Cumulative kernel statistics.
    pub fn stats(&self) -> SimStats {
        let mut s = self.stats;
        s.toggles = self.core.signals.iter().map(|x| x.toggles).sum();
        s.events = self.core.seq;
        s
    }

    /// Per-component evaluation counts, as (name, kind, evals). Names are
    /// interned handles; cloning the result does not copy strings.
    pub fn eval_counts(&self) -> Vec<(Name, CompKind, u64)> {
        self.comps
            .iter()
            .map(|c| (self.core.names.resolve(c.name).clone(), c.kind, c.evals))
            .collect()
    }

    /// All diagnostics recorded so far.
    pub fn messages(&self) -> &[SimMessage] {
        &self.core.messages
    }

    /// Drain diagnostics.
    pub fn take_messages(&mut self) -> Vec<SimMessage> {
        std::mem::take(&mut self.core.messages)
    }

    /// True if any component reported an error.
    pub fn has_errors(&self) -> bool {
        self.core
            .messages
            .iter()
            .any(|m| m.severity == Severity::Error)
    }

    /// Record a message from the testbench itself.
    pub fn report(&mut self, severity: Severity, text: impl Into<String>) {
        let id = self.core.names.intern("testbench");
        let component = self.core.names.resolve(id).clone();
        let now = self.core.now;
        self.core.messages.push(SimMessage {
            time_ps: now,
            severity,
            component,
            text: text.into(),
        });
    }

    /// True if a component called [`Ctx::finish`].
    pub fn finished(&self) -> bool {
        self.core.finish_requested
    }

    fn mark_sensitive(
        signals: &[SignalState],
        comps: &mut [CompSlot],
        ready: &mut Vec<CompId>,
        gen: u64,
        sig: SignalId,
    ) {
        for &c in &signals[sig.0 as usize].sensitive {
            let slot = &mut comps[c.0 as usize];
            if slot.queued_gen != gen {
                slot.queued_gen = gen;
                ready.push(c);
            }
        }
    }

    /// As [`Simulator::mark_sensitive`], honouring the compiled dispatch
    /// filter: parked components and wrong-edge activations of declared
    /// clocked components are provably observable no-ops and are skipped.
    /// Iteration order over the remaining components is unchanged, which
    /// keeps the ready queue (and thus the delta schedule) identical to
    /// event-driven mode restricted to the dispatched set.
    fn mark_sensitive_filtered(
        signals: &[SignalState],
        comps: &mut [CompSlot],
        ready: &mut Vec<CompId>,
        gen: u64,
        sig: SignalId,
        compiled: &mut CompiledCore,
        rose: bool,
    ) {
        for &c in &signals[sig.0 as usize].sensitive {
            let idx = c.0 as usize;
            if compiled.parked[idx] {
                compiled.stats.skipped_parked += 1;
                continue;
            }
            if !rose && compiled.clock_of[idx] == sig.0 {
                compiled.stats.skipped_edge += 1;
                continue;
            }
            let slot = &mut comps[idx];
            if slot.queued_gen != gen {
                slot.queued_gen = gen;
                ready.push(c);
            }
        }
    }

    /// Apply a value to a signal; returns true if it changed.
    fn apply(&mut self, sig: SignalId, v: Lv) -> bool {
        let s = &mut self.core.signals[sig.0 as usize];
        if s.cur.eq_case(&v) {
            return false;
        }
        s.prev = s.cur;
        s.cur = v;
        s.last_change = self.core.step;
        s.toggles += 1;
        let cflags = s.cflags;
        let rose = !s.prev.truthy() && s.cur.truthy();
        if self.tracing {
            if let Some(vcd) = &mut self.vcd {
                vcd.change(self.core.now, sig, v);
            }
        }
        if cflags != 0 {
            self.signal_compiled_hooks(sig, cflags);
        }
        if self.core.compiled.filtering {
            Self::mark_sensitive_filtered(
                &self.core.signals,
                &mut self.comps,
                &mut self.ready,
                self.ready_gen,
                sig,
                &mut self.core.compiled,
                rose,
            );
        } else {
            Self::mark_sensitive(
                &self.core.signals,
                &mut self.comps,
                &mut self.ready,
                self.ready_gen,
                sig,
            );
        }
        true
    }

    /// Cold path of [`Simulator::apply`] for signals carrying compiled
    /// flags: wake parked listeners and track dirty-window membership.
    /// Runs in every mode so park/dirty state stays consistent even while
    /// filtering is suspended.
    fn signal_compiled_hooks(&mut self, sig: SignalId, cflags: u8) {
        let cc = &mut self.core.compiled;
        if cflags & cflag::HAS_WAKERS != 0 {
            for &c in &cc.wakers[sig.0 as usize] {
                if cc.parked[c.0 as usize] {
                    cc.parked[c.0 as usize] = false;
                    cc.stats.signal_wakes += 1;
                }
            }
        }
        if cflags & cflag::WATCH_ANY != 0 {
            let s = &mut self.core.signals[sig.0 as usize];
            let dirty = (cflags & cflag::WATCH_TRUTHY != 0 && s.cur.truthy())
                || (cflags & cflag::WATCH_UNKNOWN != 0 && s.cur.has_unknown());
            let was = cflags & cflag::DIRTY_NOW != 0;
            if dirty != was {
                // Window bookkeeping lives outside the structured trace
                // sink: the TraceBuf stream is pinned bit-identical
                // between execution modes, so fallback spans are logged
                // separately and exported by the observability layer.
                if dirty {
                    s.cflags |= cflag::DIRTY_NOW;
                    cc.dirty_count += 1;
                    if cc.dirty_count == 1 && cc.mode.is_compiled() {
                        cc.stats.fallback_entries += 1;
                        cc.unpark_all();
                        cc.refresh_gate();
                        cc.windows.push((self.core.now, u64::MAX));
                    }
                } else {
                    s.cflags &= !cflag::DIRTY_NOW;
                    cc.dirty_count -= 1;
                    if cc.dirty_count == 0 && cc.mode.is_compiled() {
                        cc.stats.fallback_exits += 1;
                        cc.refresh_gate();
                        if let Some(w) = cc.windows.last_mut() {
                            w.1 = self.core.now;
                        }
                    }
                }
            }
        }
    }

    fn eval_ready(&mut self) {
        // Components cannot be re-queued while this batch runs (queueing
        // only happens in `apply`, which the eval phase never calls), so
        // the batch can be iterated in place.
        let (core, comps, bodies) = (&mut self.core, &mut self.comps, &mut self.bodies);
        if self.profiling {
            for &c in &self.ready {
                comps[c.0 as usize].evals += 1;
                let t0 = self.profiler.begin();
                bodies[c.0 as usize].eval(&mut Ctx { core, me: c });
                self.profiler.end(c, t0);
            }
        } else {
            for &c in &self.ready {
                comps[c.0 as usize].evals += 1;
                bodies[c.0 as usize].eval(&mut Ctx { core, me: c });
            }
        }
        self.stats.evals += self.ready.len() as u64;
        self.ready.clear();
        // Bumping the generation un-queues every component at once.
        self.ready_gen += 1;
    }

    /// Execute all deltas at the current time until quiescent.
    fn settle_now(&mut self) -> Result<(), KernelError> {
        let mut deltas = 0u32;
        loop {
            // Pop the batch of events scheduled for exactly `now`.
            let now = self.core.now;
            let mut batch = std::mem::take(&mut self.pop_scratch);
            self.core.sched.pop_at(now, &mut batch);
            let popped = !batch.is_empty();
            for &ev in batch.iter() {
                match ev.kind {
                    EventKind::Drive(sig, v) => {
                        self.apply(sig, v);
                    }
                    EventKind::Wake(c) => {
                        // A self-scheduled wakeup always dispatches and
                        // always unparks: the component asked for it.
                        self.core.compiled.parked[c.0 as usize] = false;
                        let gen = self.ready_gen;
                        let slot = &mut self.comps[c.0 as usize];
                        if slot.queued_gen != gen {
                            slot.queued_gen = gen;
                            self.ready.push(c);
                        }
                    }
                }
            }
            self.pop_scratch = batch;
            if self.ready.is_empty() && !popped {
                return Ok(());
            }
            self.eval_ready();
            // Apply non-blocking writes; they constitute the next delta.
            // Nothing pushes to `core.pending` while they apply, so the
            // buffer can be taken and handed back without reallocating.
            let mut pending = std::mem::take(&mut self.core.pending);
            self.core.step += 1;
            self.stats.deltas += 1;
            for &(sig, v) in pending.iter() {
                self.apply(sig, v);
            }
            pending.clear();
            debug_assert!(self.core.pending.is_empty());
            self.core.pending = pending;
            if self.core.compiled.filtering && !self.core.compiled.doorbells.is_empty() {
                self.core.compiled.service_doorbells();
            }
            deltas += 1;
            if deltas > DELTA_LIMIT {
                return Err(KernelError::DeltaOverflow {
                    time_ps: self.core.now,
                });
            }
            if self.core.finish_requested {
                return Ok(());
            }
        }
    }

    fn init_components(&mut self) {
        for c in std::mem::take(&mut self.uninitialized) {
            let slot = &mut self.comps[c.0 as usize];
            if slot.queued_gen != self.ready_gen {
                slot.queued_gen = self.ready_gen;
                self.ready.push(c);
            }
        }
    }

    /// Run until `deadline` ps (inclusive of events at the deadline) or
    /// until a component calls `finish`. On return the current time is
    /// `deadline` (unless finished early), so testbench pokes issued
    /// between run calls land when wall-of-code order suggests.
    pub fn run_until(&mut self, deadline: u64) -> Result<(), KernelError> {
        self.init_components();
        let compiled_mode = self.core.compiled.mode.is_compiled();
        loop {
            self.settle_now()?;
            if self.core.finish_requested {
                return Ok(());
            }
            let next = match self.core.sched.next_time() {
                Some(t) => t,
                None => {
                    let t = self.core.now.max(deadline);
                    self.core.now = t;
                    self.core.sched.advance(t);
                    return Ok(());
                }
            };
            debug_assert!(next > self.core.now, "settle_now left same-time events");
            if next > deadline {
                self.core.now = deadline;
                self.core.sched.advance(deadline);
                return Ok(());
            }
            self.core.now = next;
            self.core.sched.advance(next);
            self.core.step += 1;
            self.stats.time_points += 1;
            if compiled_mode {
                if self.core.compiled.filtering {
                    self.core.compiled.stats.steady_points += 1;
                } else {
                    self.core.compiled.stats.fallback_points += 1;
                }
            }
            // Sample scheduler occupancy into the trace on a coarse,
            // deterministic cadence (a simulation-derived counter, so
            // identical runs sample at identical points).
            if self.core.trace.enabled && self.stats.time_points.is_multiple_of(SCHED_SAMPLE_PERIOD)
            {
                let occ = self.core.sched.pending_events() as u64;
                self.core.trace.push(
                    next,
                    TraceKind::Counter,
                    TraceCat::Kernel,
                    "sched.pending",
                    0,
                    occ,
                );
            }
        }
    }

    /// Run for `duration` ps past the current time.
    pub fn run_for(&mut self, duration: u64) -> Result<(), KernelError> {
        let d = self.core.now + duration;
        self.run_until(d)
    }

    /// Execute pending same-time activity without advancing time.
    pub fn settle(&mut self) -> Result<(), KernelError> {
        self.init_components();
        self.settle_now()
    }

    // --- Compiled-plane API (see `crate::compiled`) -------------------

    /// Select the execution mode. Call before the first run; switching
    /// back to [`ExecMode::EventDriven`] mid-run is allowed (it simply
    /// stops filtering and unparks everything).
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.core.compiled.mode = mode;
        if !mode.is_compiled() {
            self.core.compiled.unpark_all();
        }
        self.core.compiled.refresh_gate();
    }

    /// The selected execution mode.
    pub fn exec_mode(&self) -> ExecMode {
        self.core.compiled.mode
    }

    /// Declare `comp` a clocked (sequential-rank) process: its eval is an
    /// observable no-op for any activation that is solely `clk` changing
    /// to other-than-rising. The declaration is a contract; the kernel
    /// skips exactly those activations in compiled mode. Activations from
    /// any other sensitivity (reset lines, data inputs) are unaffected.
    pub fn declare_clocked(&mut self, comp: CompId, clk: SignalId) {
        self.core.compiled.clock_of[comp.0 as usize] = clk.0;
    }

    /// Watch `sig` as a dirty-window trigger: while the condition holds,
    /// compiled dispatch falls back to full event-driven semantics (and
    /// every parked component is woken). The current value is inspected
    /// immediately, so watching a signal that is already dirty (e.g. a
    /// reset line that is high, or still `X`) opens a window at once.
    pub fn watch_dirty(&mut self, sig: SignalId, cond: DirtyWatch) {
        let s = &mut self.core.signals[sig.0 as usize];
        match cond {
            DirtyWatch::Truthy => s.cflags |= cflag::WATCH_TRUTHY,
            DirtyWatch::Unknown => s.cflags |= cflag::WATCH_UNKNOWN,
            DirtyWatch::TruthyOrUnknown => s.cflags |= cflag::WATCH_ANY,
        }
        let dirty = (s.cflags & cflag::WATCH_TRUTHY != 0 && s.cur.truthy())
            || (s.cflags & cflag::WATCH_UNKNOWN != 0 && s.cur.has_unknown());
        if dirty && s.cflags & cflag::DIRTY_NOW == 0 {
            s.cflags |= cflag::DIRTY_NOW;
            self.core.compiled.dirty_count += 1;
            if self.core.compiled.dirty_count == 1 && self.core.compiled.mode.is_compiled() {
                self.core.compiled.stats.fallback_entries += 1;
                self.core.compiled.windows.push((self.core.now, u64::MAX));
            }
            self.core.compiled.refresh_gate();
        }
    }

    /// Register a doorbell: a shared flag an out-of-band state owner (a
    /// register file, a request queue) raises on mutation so parked
    /// pollers of that state are woken. Components pass the returned id
    /// to [`Ctx::park_until`].
    pub fn add_doorbell(&mut self, flag: std::rc::Rc<std::cell::Cell<bool>>) -> DoorbellId {
        let id = DoorbellId(self.core.compiled.doorbells.len() as u32);
        self.core.compiled.doorbells.push((flag, Vec::new()));
        id
    }

    /// Compiled-plane statistics; `None` exactly in event-driven mode.
    pub fn compiled_stats(&self) -> Option<CompiledStats> {
        let cc = &self.core.compiled;
        cc.mode.is_compiled().then_some(cc.stats)
    }

    /// Dirty-window fallback intervals as `(entry_ps, exit_ps)` pairs; an
    /// open window reads as `exit_ps == u64::MAX`.
    pub fn fallback_windows(&self) -> &[(u64, u64)] {
        &self.core.compiled.windows
    }

    /// Order-sensitive FNV-1a digest over every signal's current value
    /// (widths and 4-state planes included). Two simulators built the
    /// same way agree on this digest iff their architectural signal
    /// state is identical — the per-cycle check of the lockstep
    /// equivalence suite.
    pub fn state_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |b: u64| {
            for byte in b.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        for s in &self.core.signals {
            eat(s.width as u64);
            eat(s.cur.val_plane());
            eat(s.cur.xz_plane());
        }
        h
    }

    /// Flush the VCD trace (call before dropping if you need the file).
    pub fn flush_vcd(&mut self) -> std::io::Result<()> {
        if let Some(v) = &mut self.vcd {
            v.flush()?;
        }
        Ok(())
    }
}

/// Kernel-level failures, reported by [`Simulator::run_until`] and
/// surfaced unchanged in `autovision`'s `RunOutcome::kernel_error` and
/// `verif`'s recovery campaign — one error type across the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelError {
    /// Combinational oscillation: the delta limit was exceeded at one
    /// time point.
    DeltaOverflow {
        /// The time at which the oscillation occurred.
        time_ps: u64,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::DeltaOverflow { time_ps } => {
                write!(f, "delta-cycle oscillation at t={time_ps} ps")
            }
        }
    }
}

impl std::error::Error for KernelError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: u64, seq: u64) -> Event {
        Event {
            time,
            seq,
            kind: EventKind::Wake(CompId(0)),
        }
    }

    #[test]
    fn wheel_orders_same_timestamp_by_sequence() {
        let mut s = Scheduler::new();
        for seq in [3u64, 1, 2] {
            s.push(ev(500, seq));
        }
        let mut out = Vec::new();
        s.pop_at(500, &mut out);
        let seqs: Vec<u64> = out.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [1, 2, 3]);
        assert_eq!(s.next_time(), None);
    }

    #[test]
    fn far_events_migrate_into_the_wheel() {
        let mut s = Scheduler::new();
        let far_time = (WHEEL_SLOTS as u64 + 10) << TICK_SHIFT;
        s.push(ev(far_time, 1));
        assert_eq!(s.len, 0, "beyond the window goes to the heap");
        assert_eq!(s.next_time(), Some(far_time));
        s.advance(far_time - 100);
        assert_eq!(s.len, 1, "migrated once within the window");
        let mut out = Vec::new();
        s.pop_at(far_time, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(s.next_time(), None);
    }

    #[test]
    fn next_time_scans_across_bitmap_words_and_wraps() {
        let mut s = Scheduler::new();
        // Advance so the cursor sits mid-wheel, then schedule an event
        // whose slot index wraps below the cursor.
        let base = (WHEEL_SLOTS as u64 / 2) << TICK_SHIFT;
        s.advance(base);
        let wrapped = ((WHEEL_SLOTS as u64 / 2) + WHEEL_SLOTS as u64 - 3) << TICK_SHIFT;
        s.push(ev(wrapped, 1));
        assert_eq!(s.next_time(), Some(wrapped));
        let near = base + 2048;
        s.push(ev(near, 2));
        assert_eq!(s.next_time(), Some(near));
    }

    #[test]
    fn pop_at_leaves_later_events_in_the_same_slot() {
        let mut s = Scheduler::new();
        // Same tick (0), two different times within it.
        s.push(ev(100, 1));
        s.push(ev(900, 2));
        let mut out = Vec::new();
        s.pop_at(100, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(s.next_time(), Some(900));
    }
}

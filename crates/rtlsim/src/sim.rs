//! The discrete-event simulation core: signal arena, event queue,
//! allocation-free delta-cycle loop, message log and statistics.
//!
//! # Event queue
//!
//! Pending events live in one flat, unordered table of drives, each
//! stamped with `seq`, the global sequence number it was scheduled with.
//! The table holds only the kernel's own drives: clock edges, reset
//! releases and testbench pokes, so it holds one or two entries in a
//! clocked design. Each clock keeps exactly one edge pending, which is
//! rescheduled in place each time it applies. Components schedule
//! nothing; their writes apply at the end of the delta. The next time
//! point is the table's least time, and the drives due at one time
//! point apply in `seq` order, which is sorted only when more than one
//! is due (pinned against a `(time, seq)` reference model by
//! `tests/determinism.rs`).
//!
//! # Delta loop
//!
//! The loop allocates nothing per delta: the ready queue and the
//! non-blocking-write list are reusable buffers, and ready-queue
//! membership is tracked with a generation stamp instead of a drained
//! `bool` flag.
//!
//! Each delta opens with one batch of value changes: the drives due now
//! on the first delta of a time point, then the writes of the previous
//! eval phase. Both are `(signal, value)` lists, applied by one
//! `Simulator::apply_batch`, which unparks every component the batch
//! wakes before it marks anyone.

use crate::compiled::{comp_bit, CompiledCore, CompiledStats, DoorbellId, ExecMode};
use crate::component::{CompKind, Component, Ctx};
use crate::lv::Lv;
use crate::name::{Name, NameArena, NameId};
use crate::profile::Profiler;
use crate::trace::{TraceBuf, TraceEvent, DEFAULT_TRACE_CAPACITY};
use crate::vcd::VcdWriter;
use crate::{CompId, Severity, SignalId};
use std::fmt;

/// Maximum delta iterations at one time point before the kernel declares a
/// combinational oscillation (like an HDL simulator's iteration limit).
pub const DELTA_LIMIT: u32 = 10_000;

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
    /// Components woken when this signal changes, as ascending
    /// `(word, mask)` pairs over `CompId` (see [`Simulator::listen`]).
    pub sensitive: Vec<(u32, u64)>,
    /// The any-edge entries of `sensitive`, in the same form: the
    /// components woken when this signal falls from a driven 1, which
    /// wakes no posedge listener.
    pub on_fall: Vec<(u32, u64)>,
    /// Number of value changes since time 0.
    pub toggles: u64,
    /// True once a parked component listed this signal in its wake set
    /// (see `CompiledCore::wakers`).
    pub has_wakers: bool,
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

#[derive(Clone, Copy)]
enum EventKind {
    /// A reset release or a testbench poke: drive the value.
    Drive(SignalId, Lv),
    /// A kernel clock edge `(clock, level, half period)`: drive the
    /// level. Applying it reschedules the entry as the opposite edge half
    /// a period later.
    Edge(SignalId, bool, u64),
}

#[derive(Clone, Copy)]
struct Event {
    time: u64,
    seq: u64,
    kind: EventKind,
}

/// Mutable kernel state shared with evaluation contexts.
pub(crate) struct SimCore {
    pub now: u64,
    /// Monotonic counter incremented once per delta application phase;
    /// used for edge detection.
    pub step: u64,
    /// Global scheduling sequence number: it breaks ties between events
    /// due at one time, and [`SimStats::events`] reads it.
    seq: u64,
    pub signals: Vec<SignalState>,
    /// Pending events, unordered (see the module docs).
    queue: Vec<Event>,
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
    fn schedule(&mut self, time: u64, kind: EventKind) {
        debug_assert!(time >= self.now, "event scheduled in the past");
        self.seq += 1;
        self.queue.push(Event {
            time,
            seq: self.seq,
            kind,
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
                self.signals[s.0 as usize].has_wakers = true;
            }
            for &d in doorbells {
                cc.doorbells[d.0 as usize].1.push(comp);
            }
        }
        cc.park(comp);
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
    /// Total events scheduled, the queue's only traffic: kernel clock
    /// edges, reset releases and testbench pokes.
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
    /// Reusable buffer of the drives due now, in scheduling order (see
    /// [`Simulator::take_due`]).
    due: Vec<(SignalId, Lv)>,
    /// Reusable buffer of the `(seq, queue index)` of each entry due now.
    due_order: Vec<(u64, usize)>,
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
        Simulator {
            core: SimCore {
                now: 0,
                step: 1,
                seq: 0,
                signals: Vec::new(),
                queue: Vec::new(),
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
            due: Vec::new(),
            due_order: Vec::new(),
            profiler: Profiler::new(),
            profiling: false,
            vcd: None,
            tracing: false,
            stats: SimStats::default(),
            uninitialized: Vec::new(),
        }
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
            on_fall: Vec::new(),
            toggles: 0,
            has_wakers: false,
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
        let id = self.register(name.as_ref(), kind, body);
        for &s in sensitivity {
            self.listen(s, id, false);
        }
        id
    }

    /// Register a clocked component, `always @(posedge clk)`: a change of
    /// `clk` wakes it unless `clk` fell from a driven 1, so it runs on
    /// each rise and on the clock's `X`->0 initialisation. Any change of
    /// the signals in `others` (asynchronous reset, data it samples
    /// combinationally) wakes it too.
    pub fn add_clocked(
        &mut self,
        name: impl AsRef<str>,
        kind: CompKind,
        body: Box<dyn Component>,
        clk: SignalId,
        others: &[SignalId],
    ) -> CompId {
        let id = self.register(name.as_ref(), kind, body);
        self.listen(clk, id, true);
        for &s in others {
            self.listen(s, id, false);
        }
        id
    }

    fn register(&mut self, name: &str, kind: CompKind, body: Box<dyn Component>) -> CompId {
        let id = CompId(self.comps.len() as u32);
        let name = self.core.names.intern(name);
        self.comps.push(CompSlot {
            name,
            kind,
            queued_gen: 0,
            evals: 0,
        });
        self.bodies.push(body);
        self.core.comp_names.push((name, kind));
        self.core.compiled.add_comp();
        self.profiler.register(id);
        self.uninitialized.push(id);
        id
    }

    /// Add `comp` to the listener sets of `sig`. Each set is a list of
    /// ascending `(word, mask)` pairs of a bitset over `CompId` (see
    /// [`comp_bit`]). Components listen only while they register, so
    /// `comp` is the newest component, and ascending `CompId` order is
    /// registration order.
    fn listen(&mut self, sig: SignalId, comp: CompId, posedge: bool) {
        fn add(set: &mut Vec<(u32, u64)>, comp: CompId) {
            let (word, bit) = comp_bit(comp);
            let word = word as u32;
            match set.last_mut() {
                Some((w, mask)) if *w == word => *mask |= bit,
                last => {
                    debug_assert!(last.is_none_or(|(w, _)| *w < word));
                    set.push((word, bit));
                }
            }
        }
        let s = &mut self.core.signals[sig.0 as usize];
        add(&mut s.sensitive, comp);
        if !posedge {
            add(&mut s.on_fall, comp);
        }
    }

    /// Drive `sig` as a free-running clock of full period `period_ps`. Its
    /// initial 0 is queued like a write of an initial eval, so it applies
    /// at the end of the next run call's first delta. It rises half a
    /// period after this call and toggles every half period from then on.
    /// Each edge is a scheduled drive, applied at the top of its time
    /// point's first delta with every other drive due then. Panics unless
    /// the period is even and at least 2 ps.
    pub fn add_clock(&mut self, sig: SignalId, period_ps: u64) {
        assert!(
            period_ps >= 2 && period_ps.is_multiple_of(2),
            "clock period must be even and >= 2 ps"
        );
        let half = period_ps / 2;
        self.core.push_write(sig, Lv::bit(false));
        self.core
            .schedule(self.core.now + half, EventKind::Edge(sig, true, half));
    }

    /// Drive `sig` as an active-high reset: 1 from the end of the next run
    /// call's first delta, like a clock's initial 0, and 0 from
    /// `duration_ps` after this call. Panics if `duration_ps` is 0, which
    /// would schedule the release before the assertion applies.
    pub fn add_reset(&mut self, sig: SignalId, duration_ps: u64) {
        assert!(duration_ps > 0, "reset duration must be positive");
        self.core.push_write(sig, Lv::bit(true));
        self.core.schedule(
            self.core.now + duration_ps,
            EventKind::Drive(sig, Lv::bit(false)),
        );
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
        self.core.schedule(t, EventKind::Drive(s, v.resize(w)));
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
    /// Enable it before the first run: [`Profiler::report`] scales the
    /// samples by every eval since the simulator was built.
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

    /// Queue the listeners of `sig`, which just changed, in registration
    /// order. When the signal `fell` from a driven 1 the set is the fall
    /// set, which leaves out the posedge entries, in every mode. A parked
    /// component is masked out word by word and counted, never visited;
    /// only compiled mode parks. Each word queues its remaining bits from
    /// low to high, so the order is ascending `CompId`, which is
    /// registration order. Masking never reorders the rest, and the batch
    /// unparked everyone it wakes before its first mark, so the ready
    /// queue, and thus the delta schedule, is the event-driven one
    /// restricted to the dispatched set.
    fn mark_sensitive(&mut self, sig: SignalId, fell: bool) {
        let cc = &mut self.core.compiled;
        let gen = self.ready_gen;
        let s = &self.core.signals[sig.0 as usize];
        let set = if fell { &s.on_fall } else { &s.sensitive };
        for &(word, mask) in set {
            let parked = cc.parked[word as usize] & mask;
            cc.stats.skipped_parked += u64::from(parked.count_ones());
            let mut live = mask & !parked;
            while live != 0 {
                let idx = word as usize * 64 + live.trailing_zeros() as usize;
                live &= live - 1;
                let slot = &mut self.comps[idx];
                if slot.queued_gen != gen {
                    slot.queued_gen = gen;
                    self.ready.push(CompId(idx as u32));
                }
            }
        }
    }

    /// Apply a value to a signal and queue its listeners if it changed.
    fn apply(&mut self, sig: SignalId, v: Lv) {
        let s = &mut self.core.signals[sig.0 as usize];
        if s.cur.eq_case(&v) {
            return;
        }
        s.prev = s.cur;
        s.cur = v;
        s.last_change = self.core.step;
        s.toggles += 1;
        let fell = s.prev.truthy() && !s.cur.truthy();
        if self.tracing {
            if let Some(vcd) = &mut self.vcd {
                vcd.change(self.core.now, sig, v);
            }
        }
        self.mark_sensitive(sig, fell);
    }

    /// Take the drives due now onto `due`, in scheduling order; the
    /// entries are sorted only when more than one is due. An edge becomes
    /// a drive of its level, and its entry is rescheduled in place as the
    /// opposite edge half a period (>= 1 ps) later, with a fresh `seq` in
    /// the order the edges apply, so it is not due now. The one-shot
    /// drives applied leave the table.
    fn take_due(&mut self, due: &mut Vec<(SignalId, Lv)>) {
        let core = &mut self.core;
        let now = core.now;
        let order = &mut self.due_order;
        order.extend(
            core.queue
                .iter()
                .enumerate()
                .filter(|(_, ev)| ev.time == now)
                .map(|(i, ev)| (ev.seq, i)),
        );
        if order.len() > 1 {
            order.sort_unstable();
        }
        let mut one_shot = false;
        for &(_, i) in order.iter() {
            let ev = &mut core.queue[i];
            match ev.kind {
                EventKind::Drive(sig, v) => {
                    due.push((sig, v));
                    one_shot = true;
                }
                EventKind::Edge(sig, level, half) => {
                    due.push((sig, Lv::bit(level)));
                    core.seq += 1;
                    *ev = Event {
                        time: now + half,
                        seq: core.seq,
                        kind: EventKind::Edge(sig, !level, half),
                    };
                }
            }
        }
        order.clear();
        if one_shot {
            core.queue.retain(|ev| ev.time != now);
        }
    }

    /// Apply one batch of value changes in order, and empty it: the
    /// drives due now, or the writes of an eval phase.
    ///
    /// Before the batch marks anyone it unparks every component it
    /// wakes: the listeners of rung doorbells and the wakers of every
    /// entry that differs from its signal's value before the batch. Such
    /// an entry means the signal changes in the batch, at that entry or
    /// an earlier one. Every signal of a write batch has one, since
    /// [`SimCore::push_write`] drops a first write equal to the current
    /// value.
    ///
    /// So when [`Simulator::mark_sensitive`] skips a parked component,
    /// nothing later in the batch wakes it: a component that one signal
    /// of a batch skipped and a later one woke would otherwise be queued
    /// at the later signal's place, not where event-driven dispatch
    /// queues it. Nothing parks in event-driven mode, so there the
    /// unpark pass finds nobody to wake.
    fn apply_batch(&mut self, batch: &mut Vec<(SignalId, Lv)>) {
        let (signals, cc) = (&self.core.signals, &mut self.core.compiled);
        cc.service_doorbells();
        for &(sig, v) in batch.iter() {
            let s = &signals[sig.0 as usize];
            if s.has_wakers && !s.cur.eq_case(&v) {
                cc.wake(sig);
            }
        }
        for &(sig, v) in batch.iter() {
            self.apply(sig, v);
        }
        batch.clear();
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
        // The first batch: the drives due now. Doorbells rung since the
        // last batch, by the testbench between run calls, count too.
        let mut due = std::mem::take(&mut self.due);
        self.take_due(&mut due);
        self.apply_batch(&mut due);
        self.due = due;
        loop {
            // A batch that wakes nobody is not a delta. Writes can be
            // pending with nobody ready only before the first eval: the
            // initial values of kernel clocks and resets.
            if self.ready.is_empty() && self.core.pending.is_empty() {
                return Ok(());
            }
            self.eval_ready();
            // The next batch: this phase's non-blocking writes. Nothing
            // pushes to `core.pending` while they apply, so the buffer
            // can be taken and handed back without reallocating.
            let mut pending = std::mem::take(&mut self.core.pending);
            self.core.step += 1;
            self.stats.deltas += 1;
            self.apply_batch(&mut pending);
            debug_assert!(self.core.pending.is_empty());
            self.core.pending = pending;
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
    /// between run calls land when wall-of-code order suggests. Time
    /// never moves backwards: a deadline before the current time is
    /// clamped to it, so the call only settles the current time point.
    pub fn run_until(&mut self, deadline: u64) -> Result<(), KernelError> {
        let deadline = deadline.max(self.core.now);
        self.init_components();
        loop {
            self.settle_now()?;
            if self.core.finish_requested {
                return Ok(());
            }
            let Some(next) = self.core.queue.iter().map(|ev| ev.time).min() else {
                self.core.now = deadline;
                return Ok(());
            };
            debug_assert!(next > self.core.now, "settle_now left same-time events");
            if next > deadline {
                self.core.now = deadline;
                return Ok(());
            }
            self.core.now = next;
            self.core.step += 1;
            self.stats.time_points += 1;
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

    /// Select the execution mode, a setting made before the first run.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.core.compiled.mode = mode;
    }

    /// The selected execution mode.
    pub fn exec_mode(&self) -> ExecMode {
        self.core.compiled.mode
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

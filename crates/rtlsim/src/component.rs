//! The component model: user logic plugs into the kernel by implementing
//! [`Component`] and interacting with signals through an evaluation
//! context [`Ctx`].

use crate::compiled::DoorbellId;
use crate::lv::Lv;
use crate::sim::{SimCore, SimMessage};
use crate::trace::{TraceCat, TraceKind};
use crate::{CompId, Severity, SignalId};

/// Classification of a component, used by the kernel profiler to attribute
/// simulation time the way the paper's §V ModelSim profile does
/// (user design vs. simulation-only artifacts vs. verification IP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompKind {
    /// Synthesizable user design in the static region.
    UserStatic,
    /// Synthesizable user design inside a reconfigurable region.
    UserReconf,
    /// Simulation-only artifact (engine-wrapper mux, extended portal,
    /// error injector, ICAP artifact).
    Artifact,
    /// Verification IP (video VIPs, ISS, bus monitors, checkers).
    Vip,
}

/// A simulation component (one "always block"/module instance worth of
/// behaviour). The kernel calls [`Component::eval`] whenever a signal in
/// the component's sensitivity list changes, and once at the start of the
/// first run for initialisation.
pub trait Component {
    /// React to the current signal state. Reads see the *current* values;
    /// writes issued through [`Ctx::set`] take effect at the end of the
    /// delta cycle (non-blocking-assignment semantics), so all components
    /// evaluated in the same delta observe a consistent pre-update state.
    fn eval(&mut self, ctx: &mut Ctx<'_>);
}

/// Blanket impl so simple processes can be closures.
impl<F: FnMut(&mut Ctx<'_>)> Component for F {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        self(ctx)
    }
}

/// Evaluation context handed to [`Component::eval`].
///
/// All signal access goes through the context, which enforces the kernel's
/// two-phase read/write discipline and records edge information for the
/// current delta.
pub struct Ctx<'a> {
    pub(crate) core: &'a mut SimCore,
    pub(crate) me: CompId,
}

impl Ctx<'_> {
    /// Current simulation time in picoseconds.
    #[inline]
    pub fn now(&self) -> u64 {
        self.core.now
    }

    /// Read a signal's current value.
    #[inline]
    pub fn get(&self, s: SignalId) -> Lv {
        self.core.signals[s.0 as usize].cur
    }

    /// Read a signal as `u64`, `None` if any bit is `X`/`Z`.
    #[inline]
    pub fn get_u64(&self, s: SignalId) -> Option<u64> {
        self.get(s).to_u64()
    }

    /// True if the signal currently has at least one driven-1 bit.
    #[inline]
    pub fn is_high(&self, s: SignalId) -> bool {
        self.get(s).truthy()
    }

    /// Schedule a non-blocking write: the value becomes visible at the end
    /// of the current delta cycle. Width is coerced to the signal width.
    #[inline]
    pub fn set(&mut self, s: SignalId, v: Lv) {
        let w = self.core.signals[s.0 as usize].width;
        self.core.push_write(s, v.resize(w));
    }

    /// Non-blocking write of a known value.
    #[inline]
    pub fn set_u64(&mut self, s: SignalId, v: u64) {
        let w = self.core.signals[s.0 as usize].width;
        self.core.push_write(s, Lv::from_u64(w, v));
    }

    /// Non-blocking write of a single-bit signal.
    #[inline]
    pub fn set_bit(&mut self, s: SignalId, b: bool) {
        self.core.push_write(s, Lv::bit(b));
    }

    /// Did `s` change to a driven 1 in the delta that triggered this eval?
    #[inline]
    pub fn rose(&self, s: SignalId) -> bool {
        let sig = &self.core.signals[s.0 as usize];
        sig.last_change == self.core.step && !sig.prev.truthy() && sig.cur.truthy()
    }

    /// Did `s` change to known 0 in the delta that triggered this eval?
    #[inline]
    pub fn fell(&self, s: SignalId) -> bool {
        let sig = &self.core.signals[s.0 as usize];
        sig.last_change == self.core.step && sig.prev.truthy() && !sig.cur.truthy()
    }

    /// Did `s` change value in the delta that triggered this eval?
    #[inline]
    pub fn changed(&self, s: SignalId) -> bool {
        self.core.signals[s.0 as usize].last_change == self.core.step
    }

    /// Drive each `to[i]` with `map(from[i])`: every pair when `all`, and
    /// otherwise only the pairs whose `from` changed in the delta that
    /// triggered this eval. Port-copy components (bus relays, region
    /// muxes, isolation) route through it, so they pay per changed input
    /// rather than per port.
    ///
    /// Skipping is exact under one invariant, which every caller keeps.
    /// The caller never parks, lists every `from` in its sensitivity
    /// list and is the only driver of each `to`. It passes `all` on its
    /// first eval and whenever `map` or the pairing differs from its
    /// previous eval, that is, when its steering changed. Then every
    /// change of a `from` wakes the caller in the very next delta, where
    /// [`Ctx::changed`] reports it, so a skipped `to` still holds what
    /// the caller last drove into it: `map` of the unchanged `from`.
    /// Debug builds assert exactly that for every skipped pair.
    #[inline]
    pub fn route(&mut self, from: &[SignalId], to: &[SignalId], all: bool, map: impl Fn(Lv) -> Lv) {
        debug_assert_eq!(from.len(), to.len());
        for (&f, &t) in from.iter().zip(to) {
            if all || self.changed(f) {
                let v = map(self.get(f));
                self.set(t, v);
            } else {
                debug_assert!(
                    {
                        let w = self.core.signals[t.0 as usize].width;
                        self.get(t).eq_case(&map(self.get(f)).resize(w))
                    },
                    "{} no longer holds its value routed from {}, which did not change",
                    self.core
                        .names
                        .resolve(self.core.signals[t.0 as usize].name),
                    self.core
                        .names
                        .resolve(self.core.signals[f.0 as usize].name),
                );
            }
        }
    }

    /// Record a diagnostic message attributed to this component. The
    /// component name is an interned handle, so this never copies it.
    pub fn report(&mut self, severity: Severity, text: impl Into<String>) {
        let msg = SimMessage {
            time_ps: self.core.now,
            severity,
            component: self.core.comp_name(self.me).clone(),
            text: text.into(),
        };
        self.core.messages.push(msg);
    }

    /// Shorthand for [`Severity::Error`] reports; errors make
    /// `Simulator::has_errors` true, which the verification harness uses
    /// as its "bug detected" signal.
    pub fn error(&mut self, text: impl Into<String>) {
        self.report(Severity::Error, text);
    }

    /// Shorthand for [`Severity::Warning`] reports.
    pub fn warn(&mut self, text: impl Into<String>) {
        self.report(Severity::Warning, text);
    }

    /// Stop the simulation at the end of the current delta (like
    /// `$finish`). Pending writes still apply.
    pub fn finish(&mut self) {
        self.core.finish_requested = true;
    }

    /// Declare this component quiescent: in compiled mode it is skipped
    /// at dispatch until one of `signals` changes value or one of
    /// `doorbells` rings.
    ///
    /// The kernel unparks before it marks, so the batch of changes that
    /// wakes the component dispatches it just as event-driven dispatch
    /// would, at the same place in the ready queue. No-op in event-driven
    /// mode. This is the one place dispatch reads the execution mode:
    /// since nothing parks in event-driven mode, the kernel's marking and
    /// unparking never test it.
    ///
    /// **Contract**: until one of those wake conditions occurs, every
    /// eval of this component must be an observable no-op — no signal
    /// value changes, no messages, no trace emissions, no externally
    /// visible shared-state mutation. The wake set is latched from the
    /// first call; list every signal the parked eval reads, and a
    /// doorbell for every out-of-band state source (register files,
    /// request queues) it polls.
    #[inline]
    pub fn park_until(&mut self, signals: &[SignalId], doorbells: &[DoorbellId]) {
        if self.core.compiled.mode.is_compiled() {
            let me = self.me;
            self.core.park_until(me, signals, doorbells);
        }
    }

    // --- Structured event tracing (see `crate::trace`). Every helper is
    // a single inlined branch while tracing is off; emission is a pure
    // observation and never changes scheduling.

    /// True if the structured-event sink is on. Components only need this
    /// when preparing an emission is itself non-trivial.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.core.trace.enabled
    }

    /// Open a span: `cat`/`name`/`track` identify it; the matching
    /// [`Ctx::trace_end`] closes it. `track` is the per-category lane
    /// (the reconfigurable-region id for region-scoped spans).
    #[inline]
    pub fn trace_begin(&mut self, cat: TraceCat, name: &'static str, track: u32, arg: u64) {
        if self.core.trace.enabled {
            let now = self.core.now;
            self.core
                .trace
                .push(now, TraceKind::Begin, cat, name, track, arg);
        }
    }

    /// Close the innermost span with this `cat`/`name`/`track`.
    #[inline]
    pub fn trace_end(&mut self, cat: TraceCat, name: &'static str, track: u32, arg: u64) {
        if self.core.trace.enabled {
            let now = self.core.now;
            self.core
                .trace
                .push(now, TraceKind::End, cat, name, track, arg);
        }
    }

    /// Record a zero-duration point event.
    #[inline]
    pub fn trace_instant(&mut self, cat: TraceCat, name: &'static str, track: u32, arg: u64) {
        if self.core.trace.enabled {
            let now = self.core.now;
            self.core
                .trace
                .push(now, TraceKind::Instant, cat, name, track, arg);
        }
    }
}

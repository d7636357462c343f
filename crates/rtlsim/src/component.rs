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
    /// Verification IP (video VIPs, ISS, checkers, clock/reset generators).
    Vip,
}

/// A simulation component (one "always block"/module instance worth of
/// behaviour). The kernel calls [`Component::eval`] whenever a signal in
/// the component's sensitivity list changes, at `t=0` for initialisation,
/// and on self-scheduled wakeups.
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

    /// The id of the component being evaluated.
    #[inline]
    pub fn me(&self) -> CompId {
        self.me
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

    /// True if the signal is all known zeros.
    #[inline]
    pub fn is_low(&self, s: SignalId) -> bool {
        let v = self.get(s);
        v.is_known() && v.val_plane() == 0
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

    /// Schedule a write `delay_ps` in the future (transport delay).
    #[inline]
    pub fn set_after(&mut self, s: SignalId, v: Lv, delay_ps: u64) {
        let w = self.core.signals[s.0 as usize].width;
        self.core
            .schedule_drive(self.core.now + delay_ps, s, v.resize(w));
    }

    /// Request re-evaluation of this component `delay_ps` from now,
    /// independent of signal activity.
    #[inline]
    pub fn wake_after(&mut self, delay_ps: u64) {
        let me = self.me;
        self.core.schedule_wake(self.core.now + delay_ps, me);
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

    /// Declare this component quiescent: in compiled execution modes it
    /// is skipped at dispatch until one of `signals` changes value, one
    /// of `doorbells` rings, a self-scheduled wakeup fires, or a
    /// dirty-window fallback begins. No-op in event-driven mode.
    ///
    /// **Contract**: until one of those wake conditions occurs, every
    /// eval of this component must be an observable no-op — no signal
    /// value changes, no messages, no trace emissions, no event
    /// scheduling, no externally visible shared-state mutation. The wake
    /// set is latched from the first call; list every signal the parked
    /// eval reads, and a doorbell for every out-of-band state source
    /// (register files, request queues) it polls.
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

    /// Record a counter sample (`value` becomes the track's y-value).
    #[inline]
    pub fn trace_counter(&mut self, cat: TraceCat, name: &'static str, track: u32, value: u64) {
        if self.core.trace.enabled {
            let now = self.core.now;
            self.core
                .trace
                .push(now, TraceKind::Counter, cat, name, track, value);
        }
    }
}

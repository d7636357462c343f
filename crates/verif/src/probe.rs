//! Measurement probes.
//!
//! [`Probe`] is a typed handle to a signal in a running simulation: a
//! `Probe<u64>` reads and writes numeric values, a `Probe<Lv>` works at
//! the 4-value-logic level. Both carry their [`SignalId`] and the view
//! type in the type system, replacing the stringly
//! `peek`/`poke`-by-`SignalId`-plus-`signal_name` pattern the harnesses
//! used to hand-roll.
//!
//! [`probe_high_time`] attaches an accumulator that measures how long a
//! signal stays high — used by the Table II harness to attribute
//! simulated time to the CIE, the ME and the DPR intervals by watching
//! their busy/window signals, exactly as one would measure in a
//! waveform viewer.

use rtlsim::{CompKind, Component, Ctx, Lv, SignalId, Simulator};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::rc::Rc;

/// Typed handle to a signal: `T` selects the view (`u64` or [`Lv`]).
///
/// A probe is `Copy` and independent of the simulator's lifetime; it
/// reads and writes by borrowing the simulator per call:
///
/// ```
/// use rtlsim::Simulator;
/// use verif::Probe;
///
/// let mut sim = Simulator::new();
/// let busy = sim.signal_init("cie.busy", 1, 0);
/// let probe = Probe::<u64>::new(busy);
/// assert_eq!(probe.read(&sim), Some(0));
/// probe.write(&mut sim, 1);
/// sim.settle().unwrap();
/// assert!(probe.is_high(&sim));
/// ```
#[derive(Debug)]
pub struct Probe<T> {
    sig: SignalId,
    _view: PhantomData<fn() -> T>,
}

// Manual impls: `#[derive]` would needlessly require `T: Copy`.
impl<T> Clone for Probe<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Probe<T> {}

impl<T> Probe<T> {
    /// Wrap a signal handle in a typed probe.
    pub fn new(sig: SignalId) -> Probe<T> {
        Probe {
            sig,
            _view: PhantomData,
        }
    }

    /// The underlying signal handle.
    pub fn signal(&self) -> SignalId {
        self.sig
    }

    /// The probed signal's hierarchical name.
    pub fn name<'a>(&self, sim: &'a Simulator) -> &'a str {
        sim.signal_name(self.sig)
    }

    /// True if the signal currently has at least one driven-1 bit.
    pub fn is_high(&self, sim: &Simulator) -> bool {
        sim.peek(self.sig).truthy()
    }

    /// Number of value changes the signal has seen.
    pub fn toggles(&self, sim: &Simulator) -> u64 {
        sim.toggle_count(self.sig)
    }

    /// Re-view the same signal through a different value type.
    pub fn as_view<U>(&self) -> Probe<U> {
        Probe::new(self.sig)
    }
}

impl Probe<u64> {
    /// Read the current value; `None` if any bit is `X`/`Z`.
    pub fn read(&self, sim: &Simulator) -> Option<u64> {
        sim.peek_u64(self.sig)
    }

    /// Drive a value from the testbench (applies on the next settle).
    pub fn write(&self, sim: &mut Simulator, v: u64) {
        sim.poke_u64(self.sig, v);
    }
}

impl Probe<Lv> {
    /// Read the current 4-value contents.
    pub fn read(&self, sim: &Simulator) -> Lv {
        sim.peek(self.sig)
    }

    /// Drive a 4-value word from the testbench (applies on the next
    /// settle).
    pub fn write(&self, sim: &mut Simulator, v: Lv) {
        sim.poke(self.sig, v);
    }
}

impl<T> From<SignalId> for Probe<T> {
    fn from(sig: SignalId) -> Probe<T> {
        Probe::new(sig)
    }
}

impl<T> From<Probe<T>> for SignalId {
    fn from(p: Probe<T>) -> SignalId {
        p.sig
    }
}

/// Accumulated measurements of one signal.
#[derive(Debug, Default, Clone, Copy)]
pub struct HighTime {
    /// Total picoseconds the signal spent high.
    pub total_ps: u64,
    /// Number of high pulses observed (completed).
    pub pulses: u64,
}

struct HighTimeProbe {
    sig: SignalId,
    rose_at: Option<u64>,
    out: Rc<RefCell<HighTime>>,
}

impl Component for HighTimeProbe {
    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.rose(self.sig) && self.rose_at.is_none() {
            self.rose_at = Some(ctx.now());
        } else if ctx.fell(self.sig) {
            if let Some(t0) = self.rose_at.take() {
                let mut o = self.out.borrow_mut();
                o.total_ps += ctx.now() - t0;
                o.pulses += 1;
            }
        }
    }
}

/// Attach a high-time probe to a signal; read results through the
/// handle. Accepts a bare [`SignalId`] or any typed [`Probe`] over it.
pub fn probe_high_time(
    sim: &mut Simulator,
    name: &str,
    sig: impl Into<Probe<Lv>>,
) -> Rc<RefCell<HighTime>> {
    let sig = sig.into().signal();
    let out = Rc::new(RefCell::new(HighTime::default()));
    let probe = HighTimeProbe {
        sig,
        rose_at: None,
        out: out.clone(),
    };
    sim.add_component(name, CompKind::Vip, Box::new(probe), &[sig]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlsim::Lv;

    #[test]
    fn measures_pulse_widths() {
        let mut sim = Simulator::new();
        let s = sim.signal_init("s", 1, 0);
        let p = Probe::<Lv>::new(s);
        let ht = probe_high_time(&mut sim, "probe", p);
        sim.run_for(10_000).unwrap();
        p.write(&mut sim, Lv::bit(true));
        sim.run_for(35_000).unwrap();
        p.write(&mut sim, Lv::bit(false));
        sim.run_for(10_000).unwrap();
        p.write(&mut sim, Lv::bit(true));
        sim.run_for(5_000).unwrap();
        p.write(&mut sim, Lv::bit(false));
        sim.run_for(1_000).unwrap();
        let m = *ht.borrow();
        assert_eq!(m.pulses, 2);
        assert_eq!(m.total_ps, 40_000);
    }

    #[test]
    fn ignores_signal_that_stays_low() {
        let mut sim = Simulator::new();
        let clk = sim.signal("clk", 1);
        let s = sim.signal_init("s", 1, 0);
        sim.add_clock(clk, 10_000);
        let ht = probe_high_time(&mut sim, "probe", s);
        sim.run_for(500_000).unwrap();
        assert_eq!(ht.borrow().pulses, 0);
        assert_eq!(ht.borrow().total_ps, 0);
    }

    #[test]
    fn typed_views_read_and_write() {
        let mut sim = Simulator::new();
        let s = sim.signal_init("dut.count", 8, 7);
        let n = Probe::<u64>::new(s);
        assert_eq!(n.read(&sim), Some(7));
        assert_eq!(n.name(&sim), "dut.count");
        assert_eq!(n.signal(), s);
        n.write(&mut sim, 42);
        sim.settle().unwrap();
        assert_eq!(n.read(&sim), Some(42));
        assert!(n.is_high(&sim));

        let l: Probe<Lv> = n.as_view();
        assert_eq!(l.read(&sim).to_u64(), Some(42));
        l.write(&mut sim, Lv::xes(8));
        sim.settle().unwrap();
        assert_eq!(n.read(&sim), None, "X bits have no numeric view");
        assert!(l.read(&sim).eq_case(&Lv::xes(8)));

        // SignalId round-trips through the probe.
        let back: rtlsim::SignalId = l.into();
        assert_eq!(back, s);
        let _from_sig: Probe<u64> = s.into();
    }
}

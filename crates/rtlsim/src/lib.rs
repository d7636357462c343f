//! # rtlsim — a cycle/delta-accurate RTL simulation kernel
//!
//! This crate is the substitute for the commercial HDL simulator
//! (ModelSim) used by the paper *"RTL Simulation of High Performance
//! Dynamic Reconfiguration: A Video Processing Case Study"*. It provides
//! everything the ReSim methodology needs from its host simulator:
//!
//! * **Four-value logic** ([`Logic`], [`Lv`]) with faithful `X`
//!   propagation — the error-injection mechanism that models a region
//!   undergoing partial reconfiguration drives `X` into the static region
//!   and relies on the kernel to propagate it like a real HDL simulator.
//! * **Event-driven scheduling** with delta cycles and non-blocking update
//!   semantics ([`Simulator`], [`Component`], [`Ctx`]), so registered and
//!   combinational processes compose exactly as Verilog `always` blocks.
//! * **Kernel clocks and reset** ([`Simulator::add_clock`],
//!   [`Simulator::add_reset`]): each edge is a scheduled drive, and a
//!   component registered with [`Simulator::add_clocked`] wakes on its
//!   clock's rising edge only, HDL's `always @(posedge clk)`. Any number
//!   of phase-locked domains can run side by side.
//! * **Waveform tracing** (VCD) and **per-component profiling**
//!   ([`profile::Profiler`]) used to reproduce the paper's §V simulation
//!   overhead measurements.
//!
//! ## Example
//!
//! ```
//! use rtlsim::{Simulator, CompKind, Ctx, Lv};
//!
//! let mut sim = Simulator::new();
//! let clk = sim.signal("clk", 1);
//! let q = sim.signal_init("q", 8, 0);
//! sim.add_clock(clk, 10_000);
//! // An 8-bit counter, `always @(posedge clk)`. It is also evaluated once
//! // at start-up and when `clk` leaves `X`, hence the `rose` check.
//! sim.add_clocked(
//!     "counter",
//!     CompKind::UserStatic,
//!     Box::new(move |ctx: &mut Ctx<'_>| {
//!         if ctx.rose(clk) {
//!             let v = ctx.get(q) + Lv::from_u64(8, 1);
//!             ctx.set(q, v);
//!         }
//!     }),
//!     clk,
//!     &[],
//! );
//! sim.run_until(100_000).unwrap(); // posedges at 5, 15, ..., 95 ns
//! assert_eq!(sim.peek_u64(q), Some(10));
//! ```

pub mod compiled;
pub mod component;
pub mod logic;
pub mod lv;
pub mod name;
pub mod profile;
pub mod sim;
pub mod trace;
mod vcd;

pub use compiled::{CompiledStats, DoorbellId, ExecMode};
pub use component::{CompKind, Component, Ctx};
pub use logic::Logic;
pub use lv::Lv;
pub use name::{Name, NameId};
pub use sim::{KernelError, SimMessage, SimStats, Simulator, DELTA_LIMIT};
pub use trace::{coverage_key, log2_bucket, TraceCat, TraceEvent, TraceKind};

/// Handle to a signal in a [`Simulator`]'s arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(pub(crate) u32);

/// Handle to a registered component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompId(pub(crate) u32);

/// Severity of a [`SimMessage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// Informational note.
    Info,
    /// Suspicious but not necessarily wrong.
    Warning,
    /// A checker or assertion failure; makes `Simulator::has_errors` true.
    Error,
}

/// Convenience: picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Convenience: picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Convenience: picoseconds per millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;

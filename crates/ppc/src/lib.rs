//! # ppc — a PowerPC-405-subset instruction set simulator
//!
//! The paper drives the AutoVision hardware with embedded software
//! running on an IBM PowerPC ISS "so that the software could run as if it
//! were running on a real processor". This crate is that substrate:
//!
//! * [`insn`] — a typed instruction subset with real PowerPC encodings;
//! * [`asm`] — a two-pass assembler the system software is written in;
//! * [`cpu`] — the architectural core ([`CpuCore`]) and the kernel
//!   component ([`PpcIss`]) that executes it cycle-by-cycle with real PLB
//!   loads/stores and DCR accesses;
//! * [`intc`] — the DCR-programmed interrupt controller that sequences
//!   the frame pipeline's ISRs.
//!
//! The ISS models a perfect instruction cache (fetch reads the memory
//! image directly) but performs every data access as a real bus
//! transaction — it is the software-visible *timing* of loads, stores and
//! DCR operations that the DPR bugs in this case study depend on, not
//! fetch bandwidth.

pub mod asm;
pub mod cpu;
pub mod insn;
pub mod intc;

pub use asm::{assemble, AsmError, Program};
pub use cpu::{Action, CpuCore, IssStats, PpcIss, ISS_ENTRY, MSR_EE};
pub use insn::{Cond, Instr, Spr};
pub use intc::IntController;

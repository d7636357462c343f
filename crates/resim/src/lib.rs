//! # resim — RTL simulation of dynamic partial reconfiguration
//!
//! A Rust reimplementation of the ReSim library, the paper's core
//! contribution: cycle-accurate RTL simulation of an FPGA design
//! *before, during and after* partial reconfiguration, without exposing
//! device-level bitstream details to the user design.
//!
//! The simulation-only layer has three artifacts (Figure 4 of the
//! paper), each a substitute for a piece of the physical FPGA:
//!
//! | artifact | substitutes for | module |
//! |---|---|---|
//! | SimB | the real configuration bitstream | [`simb`] |
//! | ICAP artifact | the internal configuration access port | [`icap`] |
//! | Extended portal + region mux | the configuration memory of one reconfigurable region | [`portal`] |
//!
//! The user design — reconfiguration controller, isolation logic, engines
//! and the software driving them — is untouched: the same RTL and the
//! same software run in simulation and on the device. During a SimB
//! transfer the region mux drives an [`portal::ErrorSource`] (default:
//! all-`X`) onto every region output, so untested isolation logic fails
//! loudly; the module swap triggers only when the final payload word
//! arrives, so the *timing* of reconfiguration is the timing of the
//! bitstream transfer.
//!
//! [`vmux`] provides the traditional Virtual Multiplexing baseline the
//! paper compares against; it shares the parallel-instantiation idea but
//! swaps modules by software writes to a simulation-only
//! `engine_signature` register, with zero delay and no error injection.
//!
//! [`backend`] builds either method's swap machinery for a list of
//! regions: [`build_resim`] and [`build_vmux`] each return one
//! [`Backend`], the configuration port, fault handle and probe signals
//! the platform wires up plus the counters behind [`Backend::stats`].

pub mod backend;
pub mod icap;
pub mod portal;
pub mod simb;
pub mod vmux;

pub use backend::{build_resim, build_vmux, Backend, BackendStats, RegionPlan, VmuxRegion};

pub use icap::{
    IcapArtifact, IcapConfig, IcapFaultHandle, IcapFaultPlan, IcapPort, IcapStats, SwapTrigger,
};
pub use portal::{
    instantiate_region, ErrorSource, ExtendedPortal, PortalStats, RandomSource, RegionOptions,
    RrBoundary, SilentSource, XSource,
};
pub use simb::{
    annotate_simb, build_simb, build_simb_integrity, crc32, SimbEvent, SimbKind, SimbParser,
};
pub use vmux::{instantiate_vmux, VmuxConfig};

//! # autovision — the Optical Flow Demonstrator
//!
//! Full-system integration of the paper's design under test (Figure 1):
//!
//! * two video engines (CIE, ME) time-sharing one reconfigurable region,
//!   swapped **twice per frame** by partial reconfiguration;
//! * the reconfiguration machinery: [`IcapCtrl`] (bitstream DMA over the
//!   shared PLB into the ICAP port) and the Isolation module;
//! * a PowerPC running the pipelined, interrupt-driven system software
//!   ([`software`], Figure 2);
//! * camera/display Verification IPs backed by deterministic synthetic
//!   traffic scenes;
//! * the DCR daisy chain carrying every control register.
//!
//! [`AvSystem::build`] assembles the whole design under either
//! simulation method ([`SimMethod::Vmux`] or [`SimMethod::Resim`]) with
//! any subset of the catalogued [`faults::Bug`]s injected, and
//! [`AvSystem::run`] executes frames to completion with golden-model
//! scoring available via [`AvSystem::golden_output`].

pub mod artifacts;
pub mod fabric;
pub mod faults;
pub mod icapctrl;
pub mod software;
pub mod system;
pub mod vips;

pub use artifacts::{ArtifactCache, SceneArtifacts};
pub use faults::{Bug, BugClass, FaultSet};
pub use icapctrl::{IcapCtrl, RecoveryPolicy, RecoveryStats, WATCHDOG_CYCLES};
pub use plb::ArbMode;
pub use software::{SimMethod, SplitSwConfig, SwConfig};
pub use system::{
    golden_output, AvSystem, ConfigError, EngineKind, ErrorSourceKind, MemLayout, ModuleSpec,
    RegionProbes, RegionSpec, RunOutcome, Scenario, SimbSlot, SystemConfig, SystemConfigBuilder,
    SystemProbes, CLK_PERIOD_PS, MODULE_CIE, MODULE_ME, RR_ID, RR_ID_B,
};
pub use vips::{VideoInVip, VideoOutVip};

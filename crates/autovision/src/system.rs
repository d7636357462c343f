//! Full-system assembly of the Optical Flow Demonstrator (Figure 1 of
//! the paper): engines + reconfiguration machinery + PowerPC + VIPs on a
//! shared PLB with a DCR daisy chain, under either simulation method.
//!
//! The assembly is composed from the subsystem builders in
//! [`crate::fabric`] plus a [`resim::ReconfigBackend`] that populates
//! the reconfigurable regions — [`SimMethod`] selects the backend, it is
//! no longer control flow threaded through the build. The
//! reconfiguration plane is region-indexed end-to-end: `SystemConfig`
//! carries a `Vec<RegionSpec>`, each region gets its own engine
//! cluster, isolation layer, engine-control block and interrupt line,
//! and all regions share one IcapCTRL whose SimB streams are routed by
//! the RR ID carried in each bitstream's frame address. The paper's
//! single-region system is the one-element case and is byte-identical
//! to the pre-refactor monolith.

use crate::artifacts::ArtifactCache;
use crate::fabric::{self, RegionNames};
use crate::faults::{Bug, FaultSet};
use crate::icapctrl::{IcapCtrl, RecoveryPolicy, RecoveryStats};
use crate::software::{self, dcr_map, SimMethod, SplitSwConfig, SwConfig};
use dcr::{DcrChainBuilder, RegFile};
use engines::EngineCtrl;
use plb::{MasterPort, MemFaultHandle, MonitorStats, SharedMem};
use ppc::IssStats;
use resim::{
    build_simb, build_simb_integrity, BackendStats, IcapConfig, IcapFaultHandle, ReconfigBackend,
    RegionPlan, ResimBackend, RrBoundary, SimbKind, VmuxBackend, VmuxConfig, VmuxRegion, XSource,
};
use rtlsim::{DirtyWatch, ExecMode, KernelError, SignalId, Simulator, PS_PER_NS};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use video::{Frame, Scene};

/// System clock period (100 MHz).
pub const CLK_PERIOD_PS: u64 = 10 * PS_PER_NS;
/// SimB module IDs.
pub const MODULE_CIE: u8 = 0x01;
/// SimB module ID of the matching engine (Table I's example).
pub const MODULE_ME: u8 = 0x02;
/// The (first) reconfigurable region's ID.
pub const RR_ID: u8 = 0x01;
/// Region ID of the second region in the split-pipeline scenario.
pub const RR_ID_B: u8 = 0x02;

/// What kind of engine a region module is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Census-transform image engine (CIE).
    Census,
    /// Motion-vector matching engine (ME).
    Matching,
}

/// One candidate module of a reconfigurable region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModuleSpec {
    /// SimB module ID (doubles as the VMUX signature value).
    pub id: u8,
    /// Which engine this module instantiates.
    pub kind: EngineKind,
}

impl ModuleSpec {
    /// A census-engine module with SimB ID `id`.
    pub fn census(id: u8) -> ModuleSpec {
        ModuleSpec {
            id,
            kind: EngineKind::Census,
        }
    }

    /// A matching-engine module with SimB ID `id`.
    pub fn matching(id: u8) -> ModuleSpec {
        ModuleSpec {
            id,
            kind: EngineKind::Matching,
        }
    }
}

/// One reconfigurable region of the platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionSpec {
    /// Region ID carried in SimB frame addresses.
    pub id: u8,
    /// Boundary signal prefix (also names the region's isolation and
    /// portal machinery; see [`fabric::RegionNames`]).
    pub boundary: String,
    /// Candidate modules, in instantiation order.
    pub modules: Vec<ModuleSpec>,
    /// Module present in the initial (full) configuration.
    pub initial: Option<u8>,
}

impl RegionSpec {
    /// The paper's region: CIE and ME time-shared in one RR, CIE
    /// initially resident.
    pub fn time_shared() -> RegionSpec {
        RegionSpec {
            id: RR_ID,
            boundary: "rr".into(),
            modules: vec![
                ModuleSpec::census(MODULE_CIE),
                ModuleSpec::matching(MODULE_ME),
            ],
            initial: Some(MODULE_CIE),
        }
    }
}

/// The region topologies the system software supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// One region time-shared between the census and matching engines —
    /// the paper's demonstrator, two reconfigurations per frame.
    SingleRegion,
    /// CIE and ME resident in separate regions; each region is reloaded
    /// during the half-frame its engine idles, overlapping
    /// reconfiguration with the other engine's computation.
    SplitPipeline,
}

/// Build-time configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// DPR simulation method (selects the [`ReconfigBackend`]).
    pub method: SimMethod,
    /// Injected bugs.
    pub faults: FaultSet,
    /// Reconfigurable regions, in instantiation order.
    pub regions: Vec<RegionSpec>,
    /// Frame width (multiple of 4).
    pub width: usize,
    /// Frame height.
    pub height: usize,
    /// Frames to process.
    pub n_frames: usize,
    /// SimB FDRI payload length in words (designer-chosen; the paper
    /// uses 4 K words against a 129 K-word real bitstream).
    pub payload_words: usize,
    /// Configuration-clock divider of the ICAP artifact.
    pub cfg_divider: u32,
    /// Memory first-access wait states.
    pub mem_wait_states: u32,
    /// Shared-PLB grant ordering. Fixed priority is the demonstrator's
    /// wiring (video first, CPU last); round-robin is the alternative
    /// grant ordering the schedule fuzzer explores.
    pub arbitration: plb::ArbMode,
    /// Calibrated ISR housekeeping loops.
    pub isr_pad_loops: u32,
    /// bug.dpr.6a's fixed wait (tuned for the original faster clock).
    pub fixed_wait_loops: u32,
    /// Scene generator seed.
    pub seed: u64,
    /// Moving objects in the synthetic scene.
    pub scene_objects: usize,
    /// Error source driven onto region outputs during reconfiguration
    /// (ReSim only; the ablation knob for the X-injection policy).
    pub error_source: ErrorSourceKind,
    /// When the ICAP artifact triggers the module swap (ReSim only;
    /// ablation knob — the default is ReSim's last-payload-word choice).
    pub swap_trigger: resim::icap::SwapTrigger,
    /// Keep the configured module selected while the payload streams
    /// (ablation knob: `false` is ReSim's faithful deselect-and-inject
    /// behaviour; `true` is the optimistic model of earlier simulators).
    pub optimistic_region: bool,
    /// Resilient-reconfiguration policy. When enabled the SimBs carry a
    /// CRC32 integrity word, the ICAP defers swaps until it verifies,
    /// IcapCTRL detects faults and retries with backoff, and the system
    /// software degrades gracefully when the retry budget is exhausted.
    /// Disabled (the default) leaves every paper-reproduction number
    /// untouched.
    pub recovery: RecoveryPolicy,
    /// Kernel execution mode. [`ExecMode::Compiled`] filters steady-state
    /// dispatches (edge filtering + parking) and falls back to full
    /// event-driven dispatch inside reconfiguration and X-injection
    /// windows; outputs are bit-identical in every mode. Defaults to
    /// [`ExecMode::default`], the compiled plane;
    /// [`ExecMode::EventDriven`] is the reference it is pinned against.
    pub exec_mode: ExecMode,
}

/// Selectable error-injection policies (see `resim::portal`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorSourceKind {
    /// Undefined `X` on every output bit (ReSim default, like DCS).
    X,
    /// Clean zeros — an optimistic simulator that never emits garbage.
    Silent,
    /// Pseudo-random known values.
    Random,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            method: SimMethod::Resim,
            faults: FaultSet::none(),
            regions: vec![RegionSpec::time_shared()],
            width: 64,
            height: 48,
            n_frames: 2,
            payload_words: 256,
            cfg_divider: 4,
            mem_wait_states: 1,
            arbitration: plb::ArbMode::FixedPriority,
            isr_pad_loops: 8,
            fixed_wait_loops: 250,
            seed: 2013,
            scene_objects: 2,
            error_source: ErrorSourceKind::X,
            swap_trigger: resim::icap::SwapTrigger::LastPayloadWord,
            optimistic_region: false,
            recovery: RecoveryPolicy::default(),
            exec_mode: ExecMode::default(),
        }
    }
}

impl SystemConfig {
    /// Start a validating fluent builder seeded with the defaults.
    ///
    /// Unlike mutating a struct literal, [`SystemConfigBuilder::build`]
    /// rejects configurations the system cannot actually run (width not
    /// a multiple of 4, zero frames, a zero configuration-clock divider,
    /// an unsupported region topology) instead of failing deep inside
    /// `AvSystem::build`.
    ///
    /// ```
    /// use autovision::SystemConfig;
    /// let cfg = SystemConfig::builder()
    ///     .width(32)
    ///     .height(24)
    ///     .n_frames(1)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(cfg.width, 32);
    /// assert!(SystemConfig::builder().width(30).build().is_err());
    /// ```
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder {
            cfg: SystemConfig::default(),
        }
    }

    /// The two-region demonstrator's region list: CIE resident in region
    /// `RR_ID`, ME resident in region [`RR_ID_B`], each reloaded on
    /// alternating half-frames.
    pub fn split_regions() -> Vec<RegionSpec> {
        vec![
            RegionSpec {
                id: RR_ID,
                boundary: "rr".into(),
                modules: vec![ModuleSpec::census(MODULE_CIE)],
                initial: Some(MODULE_CIE),
            },
            RegionSpec {
                id: RR_ID_B,
                boundary: "rrb".into(),
                modules: vec![ModuleSpec::matching(MODULE_ME)],
                initial: Some(MODULE_ME),
            },
        ]
    }

    /// Classify (and validate) the region topology.
    ///
    /// Region-level structural errors (no regions, duplicate IDs, empty
    /// module sets, an `initial` module not in the set) are reported
    /// first; a structurally sound topology the system software cannot
    /// drive is [`ConfigError::UnsupportedTopology`].
    pub fn scenario(&self) -> Result<Scenario, ConfigError> {
        if self.regions.is_empty() {
            return Err(ConfigError::NoRegions);
        }
        for (i, r) in self.regions.iter().enumerate() {
            if self.regions[..i].iter().any(|o| o.id == r.id) {
                return Err(ConfigError::DuplicateRegionId { id: r.id });
            }
            if r.modules.is_empty() {
                return Err(ConfigError::EmptyRegion { id: r.id });
            }
            for (j, m) in r.modules.iter().enumerate() {
                if r.modules[..j].iter().any(|o| o.id == m.id) {
                    return Err(ConfigError::DuplicateModuleId {
                        region: r.id,
                        module: m.id,
                    });
                }
            }
            if let Some(init) = r.initial {
                if !r.modules.iter().any(|m| m.id == init) {
                    return Err(ConfigError::UnknownInitialModule {
                        region: r.id,
                        module: init,
                    });
                }
            }
        }
        let kinds: Vec<Vec<EngineKind>> = self
            .regions
            .iter()
            .map(|r| r.modules.iter().map(|m| m.kind).collect())
            .collect();
        let scenario = match kinds.as_slice() {
            [one] if one.contains(&EngineKind::Census) && one.contains(&EngineKind::Matching) => {
                Scenario::SingleRegion
            }
            [a, b]
                if a.as_slice() == [EngineKind::Census]
                    && b.as_slice() == [EngineKind::Matching] =>
            {
                Scenario::SplitPipeline
            }
            _ => return Err(ConfigError::UnsupportedTopology),
        };
        if scenario == Scenario::SplitPipeline {
            if !self.faults.bugs().is_empty() {
                return Err(ConfigError::UnsupportedInSplit {
                    feature: "injected bugs",
                });
            }
            if self.recovery.enabled {
                return Err(ConfigError::UnsupportedInSplit {
                    feature: "the recovery policy",
                });
            }
        }
        Ok(scenario)
    }
}

/// An invalid [`SystemConfig`], rejected by [`SystemConfigBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// Frame width must be a positive multiple of 4 (the census engine
    /// processes pixel quads and the DMA engines move word-aligned rows).
    WidthNotMultipleOf4 {
        /// The rejected width.
        width: usize,
    },
    /// Frame height must be positive.
    ZeroHeight,
    /// At least one frame must be processed.
    ZeroFrames,
    /// The ICAP configuration-clock divider cannot be zero.
    ZeroDivider,
    /// The SimB payload must contain at least one word.
    ZeroPayload,
    /// The platform needs at least one reconfigurable region.
    NoRegions,
    /// Two regions share one SimB region ID.
    DuplicateRegionId {
        /// The repeated ID.
        id: u8,
    },
    /// A region has no candidate modules.
    EmptyRegion {
        /// The offending region.
        id: u8,
    },
    /// A region lists one module ID twice.
    DuplicateModuleId {
        /// The offending region.
        region: u8,
        /// The repeated module ID.
        module: u8,
    },
    /// A region's initial module is not in its module set.
    UnknownInitialModule {
        /// The offending region.
        region: u8,
        /// The unknown module ID.
        module: u8,
    },
    /// The region/module topology matches no scenario the system
    /// software can drive (supported: one census+matching region;
    /// census-only region plus matching-only region).
    UnsupportedTopology,
    /// A feature the split-pipeline software does not implement.
    UnsupportedInSplit {
        /// What was requested.
        feature: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::WidthNotMultipleOf4 { width } => {
                write!(f, "frame width {width} is not a positive multiple of 4")
            }
            ConfigError::ZeroHeight => write!(f, "frame height must be positive"),
            ConfigError::ZeroFrames => write!(f, "at least one frame must be processed"),
            ConfigError::ZeroDivider => {
                write!(f, "configuration-clock divider must be positive")
            }
            ConfigError::ZeroPayload => write!(f, "SimB payload must be at least one word"),
            ConfigError::NoRegions => write!(f, "at least one reconfigurable region is required"),
            ConfigError::DuplicateRegionId { id } => {
                write!(f, "region ID {id:#x} is used by more than one region")
            }
            ConfigError::EmptyRegion { id } => {
                write!(f, "region {id:#x} has no candidate modules")
            }
            ConfigError::DuplicateModuleId { region, module } => {
                write!(f, "region {region:#x} lists module {module:#x} twice")
            }
            ConfigError::UnknownInitialModule { region, module } => {
                write!(
                    f,
                    "region {region:#x}'s initial module {module:#x} is not in its module set"
                )
            }
            ConfigError::UnsupportedTopology => {
                write!(f, "region topology matches no supported scenario")
            }
            ConfigError::UnsupportedInSplit { feature } => {
                write!(
                    f,
                    "{feature} are not supported in the split-pipeline scenario"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Fluent, validating builder for [`SystemConfig`]; see
/// [`SystemConfig::builder`].
#[derive(Debug, Clone)]
pub struct SystemConfigBuilder {
    cfg: SystemConfig,
}

impl SystemConfigBuilder {
    /// DPR simulation method.
    pub fn method(mut self, method: SimMethod) -> Self {
        self.cfg.method = method;
        self
    }

    /// Injected bugs.
    pub fn faults(mut self, faults: FaultSet) -> Self {
        self.cfg.faults = faults;
        self
    }

    /// Reconfigurable regions (validated against the supported
    /// scenarios; see [`SystemConfig::scenario`]).
    pub fn regions(mut self, regions: Vec<RegionSpec>) -> Self {
        self.cfg.regions = regions;
        self
    }

    /// Frame width in pixels (must be a positive multiple of 4).
    pub fn width(mut self, width: usize) -> Self {
        self.cfg.width = width;
        self
    }

    /// Frame height in pixels (must be positive).
    pub fn height(mut self, height: usize) -> Self {
        self.cfg.height = height;
        self
    }

    /// Frames to process (must be positive).
    pub fn n_frames(mut self, n_frames: usize) -> Self {
        self.cfg.n_frames = n_frames;
        self
    }

    /// SimB FDRI payload length in words (must be positive).
    pub fn payload_words(mut self, payload_words: usize) -> Self {
        self.cfg.payload_words = payload_words;
        self
    }

    /// Configuration-clock divider of the ICAP artifact (must be
    /// positive).
    pub fn cfg_divider(mut self, cfg_divider: u32) -> Self {
        self.cfg.cfg_divider = cfg_divider;
        self
    }

    /// Memory first-access wait states.
    pub fn mem_wait_states(mut self, mem_wait_states: u32) -> Self {
        self.cfg.mem_wait_states = mem_wait_states;
        self
    }

    /// Shared-PLB grant ordering.
    pub fn arbitration(mut self, arbitration: plb::ArbMode) -> Self {
        self.cfg.arbitration = arbitration;
        self
    }

    /// Calibrated ISR housekeeping loops.
    pub fn isr_pad_loops(mut self, isr_pad_loops: u32) -> Self {
        self.cfg.isr_pad_loops = isr_pad_loops;
        self
    }

    /// bug.dpr.6a's fixed wait loop count.
    pub fn fixed_wait_loops(mut self, fixed_wait_loops: u32) -> Self {
        self.cfg.fixed_wait_loops = fixed_wait_loops;
        self
    }

    /// Scene generator seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Moving objects in the synthetic scene.
    pub fn scene_objects(mut self, scene_objects: usize) -> Self {
        self.cfg.scene_objects = scene_objects;
        self
    }

    /// Error source driven onto region outputs during reconfiguration.
    pub fn error_source(mut self, error_source: ErrorSourceKind) -> Self {
        self.cfg.error_source = error_source;
        self
    }

    /// When the ICAP artifact triggers the module swap.
    pub fn swap_trigger(mut self, swap_trigger: resim::icap::SwapTrigger) -> Self {
        self.cfg.swap_trigger = swap_trigger;
        self
    }

    /// Keep the configured module selected while the payload streams.
    pub fn optimistic_region(mut self, optimistic_region: bool) -> Self {
        self.cfg.optimistic_region = optimistic_region;
        self
    }

    /// Resilient-reconfiguration policy.
    pub fn recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.cfg.recovery = recovery;
        self
    }

    /// Kernel execution mode (see [`SystemConfig::exec_mode`]).
    pub fn exec_mode(mut self, exec_mode: ExecMode) -> Self {
        self.cfg.exec_mode = exec_mode;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<SystemConfig, ConfigError> {
        let cfg = self.cfg;
        if cfg.width == 0 || !cfg.width.is_multiple_of(4) {
            return Err(ConfigError::WidthNotMultipleOf4 { width: cfg.width });
        }
        if cfg.height == 0 {
            return Err(ConfigError::ZeroHeight);
        }
        if cfg.n_frames == 0 {
            return Err(ConfigError::ZeroFrames);
        }
        if cfg.cfg_divider == 0 {
            return Err(ConfigError::ZeroDivider);
        }
        if cfg.payload_words == 0 {
            return Err(ConfigError::ZeroPayload);
        }
        cfg.scenario()?;
        Ok(cfg)
    }
}

/// One SimB image staged in the bitstream "flash" region of memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimbSlot {
    /// Target region ID carried in the SimB's frame addresses.
    pub rr_id: u8,
    /// Module the SimB configures.
    pub module: u8,
    /// The module's engine kind (selects the payload seed).
    pub kind: EngineKind,
    /// Byte address of the image in main memory.
    pub addr: u32,
    /// Image length in words.
    pub words: u32,
}

/// Memory layout derived from a configuration.
#[derive(Debug, Clone)]
pub struct MemLayout {
    /// Total memory bytes.
    pub mem_bytes: usize,
    /// First input buffer (double-buffered).
    pub in0: u32,
    /// First census buffer (double-buffered).
    pub cen0: u32,
    /// Vector buffer.
    pub vecs: u32,
    /// ME SimB (address, words) — the first matching-engine image.
    pub simb_me: (u32, u32),
    /// CIE SimB (address, words) — the first census-engine image.
    pub simb_cie: (u32, u32),
    /// Every SimB image, one per region module, matching-engine images
    /// first (the legacy single-region order).
    pub simbs: Vec<SimbSlot>,
}

impl MemLayout {
    /// Compute the layout for a configuration.
    pub fn for_config(cfg: &SystemConfig) -> MemLayout {
        let fb = (cfg.width * cfg.height) as u32;
        let align = |a: u32| (a + 0xFFF) & !0xFFF;
        let in0 = 0x0004_0000;
        let cen0 = align(in0 + 2 * fb);
        let vecs = align(cen0 + 2 * fb);
        // Integrity SimBs carry one extra packet (2 words) before the
        // DESYNC trailer.
        let integrity = if cfg.recovery.enabled { 2 } else { 0 };
        let simb_words = (cfg.payload_words + 10 + integrity) as u32;
        let mut images: Vec<(u8, u8, EngineKind)> = cfg
            .regions
            .iter()
            .flat_map(|r| r.modules.iter().map(move |m| (r.id, m.id, m.kind)))
            .collect();
        // ME image first, then CIE (stable within each kind) — the
        // legacy flash order, reproduced for every topology.
        images.sort_by_key(|(_, _, kind)| match kind {
            EngineKind::Matching => 0,
            EngineKind::Census => 1,
        });
        let mut addr = align(vecs + 0x8000);
        let mut simbs = Vec::with_capacity(images.len());
        for (rr_id, module, kind) in images {
            simbs.push(SimbSlot {
                rr_id,
                module,
                kind,
                addr,
                words: simb_words,
            });
            addr = align(addr + 4 * simb_words);
        }
        let first = |kind: EngineKind| {
            simbs
                .iter()
                .find(|s| s.kind == kind)
                .map(|s| (s.addr, s.words))
                .unwrap_or((0, 0))
        };
        MemLayout {
            mem_bytes: (addr.max(0x0020_0000)) as usize,
            in0,
            cen0,
            vecs,
            simb_me: first(EngineKind::Matching),
            simb_cie: first(EngineKind::Census),
            simbs,
        }
    }
}

/// Outcome of a bounded system run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Output frames captured by the display VIP.
    pub frames_captured: usize,
    /// The CPU executed its final `halt`.
    pub halted: bool,
    /// The cycle budget ran out before the work completed.
    pub hung: bool,
    /// Clock cycles consumed.
    pub cycles: u64,
    /// The simulation kernel itself failed (e.g. a delta-cycle
    /// oscillation) before the run could finish. Carried as the typed
    /// [`rtlsim::KernelError`] — the same value `run_for` returned —
    /// instead of panicking, so verdict classification can report it as
    /// a detected failure.
    pub kernel_error: Option<KernelError>,
}

/// A fully built Optical Flow Demonstrator simulation.
pub struct AvSystem {
    /// The kernel (run/inspect through it).
    pub sim: Simulator,
    /// Main memory.
    pub mem: SharedMem,
    /// Frames captured by the display VIP.
    pub captured: Rc<RefCell<Vec<Frame>>>,
    /// Per-captured-frame count of X-poisoned words.
    pub captured_poison: Rc<RefCell<Vec<usize>>>,
    /// CPU statistics.
    pub cpu: Rc<RefCell<IssStats>>,
    /// The reconfiguration backend, retained for its statistics
    /// snapshot (see [`AvSystem::backend_stats`]).
    backend: Box<dyn ReconfigBackend>,
    /// Bus protocol monitor statistics.
    pub bus_monitor: Rc<RefCell<MonitorStats>>,
    /// Transient-fault injection handle of the memory slave (recovery
    /// campaign).
    pub mem_faults: MemFaultHandle,
    /// Transient-fault injection handle of the ICAP artifact (ReSim
    /// builds only).
    pub icap_faults: Option<IcapFaultHandle>,
    /// IcapCTRL recovery counters (all zero unless `recovery.enabled`).
    pub recovery: Rc<RefCell<RecoveryStats>>,
    /// The synthetic input frames fed by the camera VIP.
    pub input_frames: Vec<Frame>,
    /// Golden prediction shared from the [`ArtifactCache`] the system
    /// was built with (computed on demand otherwise).
    golden: Option<std::sync::Arc<crate::artifacts::SceneArtifacts>>,
    /// The configuration the system was built from.
    pub config: SystemConfig,
    /// Memory layout in use.
    pub layout: MemLayout,
    /// Named signals exposed for measurement probes.
    pub probes: SystemProbes,
}

/// Signals the benchmarks attach measurement probes to.
#[derive(Debug, Clone)]
pub struct SystemProbes {
    /// CIE busy (high while the census engine processes a frame).
    pub cie_busy: SignalId,
    /// ME busy.
    pub me_busy: SignalId,
    /// ICAP "during reconfiguration" window (ReSim builds only).
    pub reconfiguring: Option<SignalId>,
    /// Error-injection window: high while the SimB payload streams
    /// (ReSim builds only).
    pub inject: Option<SignalId>,
    /// First region's isolation control.
    pub isolate: SignalId,
    /// Per-region isolation probes, in [`RegionSpec`] order.
    pub regions: Vec<RegionProbes>,
}

/// Isolation-layer probe signals of one region.
#[derive(Debug, Clone, Copy)]
pub struct RegionProbes {
    /// Isolation control (high = region outputs gated to zero).
    pub isolate: SignalId,
    /// The region's gated busy output.
    pub busy: SignalId,
    /// The region's gated done output.
    pub done: SignalId,
}

impl AvSystem {
    /// Build the complete system.
    pub fn build(cfg: SystemConfig) -> AvSystem {
        Self::build_inner(cfg, None)
    }

    /// Build the complete system, sourcing pure setup artifacts (SimB
    /// word streams, the assembled software image, the synthetic scene
    /// and its golden prediction) from a shared [`ArtifactCache`].
    /// Bit-identical to [`AvSystem::build`] — the cache only absorbs
    /// re-derivation, never changes a value.
    pub fn build_with(cfg: SystemConfig, artifacts: &ArtifactCache) -> AvSystem {
        Self::build_inner(cfg, Some(artifacts))
    }

    fn build_inner(cfg: SystemConfig, artifacts: Option<&ArtifactCache>) -> AvSystem {
        let scenario = cfg
            .scenario()
            .expect("region topology must be valid (validated by SystemConfig::builder)");
        let layout = MemLayout::for_config(&cfg);
        let f = &cfg.faults;
        let mut sim = Simulator::new();
        let cr = fabric::clock_reset(&mut sim);

        // ----- memory -----
        let main_mem = fabric::main_memory(
            &mut sim,
            cr,
            layout.mem_bytes,
            cfg.mem_wait_states,
            f.has(Bug::Hw1MemBurstWrap),
        );

        // ----- DCR register blocks -----
        let n = cfg.regions.len();
        let eng_regs: Vec<RegFile> = (0..n)
            .map(|i| RegFile::new(dcr_map::eng_base(i), 8))
            .collect();
        let icap_regs = RegFile::new(dcr_map::ICAPC, 8);
        let intc_regs = RegFile::new(dcr_map::INTC, 3);
        let sys_regs = RegFile::new(dcr_map::SYS, 4);
        let vin_regs = RegFile::new(dcr_map::VIN, 4);
        let vout_regs = RegFile::new(dcr_map::VOUT, 4);
        let sig_regs: Vec<RegFile> = (0..n)
            .map(|i| RegFile::new(dcr_map::sig_base(i), 1))
            .collect();

        // ----- per-region engine clusters and boundaries -----
        let names: Vec<RegionNames> = cfg
            .regions
            .iter()
            .enumerate()
            .map(|(i, r)| RegionNames::for_region(i, &r.boundary))
            .collect();
        let clusters: Vec<fabric::EngineCluster> = cfg
            .regions
            .iter()
            .zip(&names)
            .map(|(spec, nm)| fabric::engine_cluster(&mut sim, cr, nm, spec))
            .collect();
        let boundaries: Vec<RrBoundary> = cfg
            .regions
            .iter()
            .map(|r| RrBoundary::alloc(&mut sim, &r.boundary))
            .collect();

        // ----- reconfiguration backend -----
        let mut backend: Box<dyn ReconfigBackend> = match cfg.method {
            SimMethod::Resim => {
                let kind = cfg.error_source;
                let seed = cfg.seed;
                let mut first = true;
                Box::new(ResimBackend::new(
                    "icap_artifact",
                    IcapConfig {
                        fifo_depth: 16,
                        cfg_divider: cfg.cfg_divider,
                        swap_trigger: cfg.swap_trigger,
                        require_integrity: cfg.recovery.enabled,
                        tolerant: cfg.recovery.enabled,
                    },
                    resim::RegionOptions {
                        deselect_during_inject: !cfg.optimistic_region,
                    },
                    Box::new(move |rr| {
                        // The first region keeps the configured seed so
                        // single-region runs are unchanged; later
                        // regions derive theirs from the RR ID.
                        let s = if first {
                            seed
                        } else {
                            seed ^ ((rr as u64) << 32)
                        };
                        first = false;
                        match kind {
                            ErrorSourceKind::X => Box::new(XSource),
                            ErrorSourceKind::Silent => Box::new(resim::SilentSource),
                            ErrorSourceKind::Random => Box::new(resim::RandomSource::new(s)),
                        }
                    }),
                ))
            }
            SimMethod::Vmux => {
                let vmux_regions: Vec<VmuxRegion> = cfg
                    .regions
                    .iter()
                    .enumerate()
                    .map(|(idx, r)| {
                        let reset_signature = if idx == 0 && f.has(Bug::Hw2SignatureUninit) {
                            None
                        } else {
                            r.initial.map(u32::from)
                        };
                        VmuxRegion {
                            name: names[idx].vmux.clone(),
                            regs: sig_regs[idx].clone(),
                            config: VmuxConfig { reset_signature },
                        }
                    })
                    .collect();
                Box::new(VmuxBackend::new("icap_unused", vmux_regions))
            }
        };
        let plans: Vec<RegionPlan> = cfg
            .regions
            .iter()
            .enumerate()
            .map(|(idx, spec)| RegionPlan {
                rr_id: spec.id,
                name: names[idx].portal.clone(),
                modules: clusters[idx].modules.clone(),
                boundary: boundaries[idx],
                initial: spec.initial,
            })
            .collect();
        let handles = backend.instantiate(&mut sim, cr.clk, cr.rst, plans);

        // ----- isolation between each region boundary and the bus -----
        let isolations: Vec<fabric::RegionIsolation> = names
            .iter()
            .zip(&boundaries)
            .enumerate()
            .map(|(idx, (nm, b))| fabric::region_isolation(&mut sim, nm, *b, cfg.regions[idx].id))
            .collect();

        // ----- engine control blocks (static region) -----
        let mut eng_irqs = Vec::with_capacity(n);
        for (idx, (cluster, iso)) in clusters.iter().zip(&isolations).enumerate() {
            let irq = sim.signal_init(&*names[idx].eng_irq, 1, 0);
            EngineCtrl::instantiate(
                &mut sim,
                &names[idx].eng_ctrl,
                cr.clk,
                cr.rst,
                eng_regs[idx].clone(),
                cluster.params,
                cluster.go,
                cluster.ereset,
                iso.busy,
                iso.done,
                irq,
                cfg.regions[idx].id as u32,
            );
            eng_irqs.push(irq);
        }

        // ----- system control -----
        fabric::system_control(
            &mut sim,
            cr,
            sys_regs.clone(),
            isolations.iter().map(|i| i.isolate).collect(),
        );

        // ----- reconfiguration controller (shared by all regions) -----
        let icap_irq = sim.signal_init("irq.icap", 1, 0);
        let icapctrl_port = MasterPort::alloc(&mut sim, "icapctrl.plb");
        let recovery_stats = IcapCtrl::instantiate(
            &mut sim,
            "icapctrl",
            cr.clk,
            cr.rst,
            icap_regs.clone(),
            icapctrl_port,
            handles.icap,
            icap_irq,
            f,
            cfg.recovery,
        );

        // ----- video VIPs -----
        let golden = artifacts.map(|a| a.scene(&cfg));
        let input_frames: Vec<Frame> = match &golden {
            Some(sa) => sa.inputs.clone(),
            None => {
                let scene = Scene::new(cfg.width, cfg.height, cfg.scene_objects, cfg.seed);
                (0..cfg.n_frames).map(|t| scene.frame(t)).collect()
            }
        };
        let video = fabric::video_subsystem(
            &mut sim,
            cr,
            vin_regs.clone(),
            vout_regs.clone(),
            input_frames.clone(),
            cfg.width,
            cfg.height,
            f.has(Bug::Hw3VideoInShortDma),
        );

        // ----- interrupt fabric -----
        // Line order fixes the status bits the software sees: the legacy
        // four first, extra regions' engine lines appended.
        let mut irq_lines = vec![video.vin_irq, eng_irqs[0], icap_irq, video.vout_irq];
        irq_lines.extend(eng_irqs.iter().skip(1).copied());
        let cpu_irq = fabric::interrupt_fabric(
            &mut sim,
            cr,
            irq_lines,
            intc_regs.clone(),
            f.has(Bug::Hw4IrqPulse),
        );

        // ----- DCR daisy chain -----
        // Default order keeps the engine block early; the dpr.2 variant
        // moves region 0's *last* (nearest the return path) and marks it
        // as living inside the region, corrupted while the SimB streams.
        let mut chain = DcrChainBuilder::new(&mut sim, "dcr", cr.clk, cr.rst);
        let eng_in_rr = f.has(Bug::Dpr2DcrInRr) && backend.models_bitstream();
        if !eng_in_rr {
            chain.add_slave("eng", eng_regs[0].clone(), None);
        }
        for (idx, regs) in eng_regs.iter().enumerate().skip(1) {
            chain.add_slave(&names[idx].eng, regs.clone(), None);
        }
        chain.add_slave("icapctrl", icap_regs.clone(), None);
        chain.add_slave("intc", intc_regs.clone(), None);
        chain.add_slave("sys", sys_regs.clone(), None);
        chain.add_slave("videoin", vin_regs.clone(), None);
        chain.add_slave("videoout", vout_regs.clone(), None);
        if !backend.models_bitstream() {
            for (idx, regs) in sig_regs.iter().enumerate() {
                chain.add_slave(&names[idx].sig_slave, regs.clone(), None);
            }
        }
        if eng_in_rr {
            chain.add_slave("eng", eng_regs[0].clone(), handles.inject);
        }
        let dcr_handle = chain.finish();

        // ----- CPU -----
        let src = match scenario {
            Scenario::SingleRegion => software::generate(&SwConfig {
                method: cfg.method,
                faults: cfg.faults.clone(),
                width: cfg.width as u32,
                height: cfg.height as u32,
                n_frames: cfg.n_frames as u32,
                in0: layout.in0,
                cen0: layout.cen0,
                vecs: layout.vecs,
                simb_me: layout.simb_me,
                simb_cie: layout.simb_cie,
                isr_pad_loops: cfg.isr_pad_loops,
                fixed_wait_loops: cfg.fixed_wait_loops,
                recovery: cfg.recovery.enabled,
            }),
            Scenario::SplitPipeline => software::generate_split(&SplitSwConfig {
                method: cfg.method,
                width: cfg.width as u32,
                height: cfg.height as u32,
                n_frames: cfg.n_frames as u32,
                in0: layout.in0,
                cen0: layout.cen0,
                vecs: layout.vecs,
                simb_me: layout.simb_me,
                simb_cie: layout.simb_cie,
                isr_pad_loops: cfg.isr_pad_loops,
            }),
        };
        let cpu = match artifacts {
            Some(a) => fabric::cpu_subsystem_prebuilt(
                &mut sim,
                cr,
                cpu_irq,
                &main_mem.mem,
                dcr_handle,
                &a.program(&src),
            ),
            None => fabric::cpu_subsystem(&mut sim, cr, cpu_irq, &main_mem.mem, dcr_handle, &src),
        };

        // ----- bitstream "flash": SimBs in main memory -----
        for slot in &layout.simbs {
            if let Some(a) = artifacts {
                let words = a.simb(
                    slot.module,
                    slot.kind,
                    slot.rr_id,
                    cfg.payload_words,
                    cfg.seed,
                    cfg.recovery.enabled,
                );
                main_mem.mem.load_words(slot.addr, &words);
                continue;
            }
            let seed = cfg.seed
                ^ match slot.kind {
                    EngineKind::Matching => 0x4D45,
                    EngineKind::Census => 0x0C1E,
                };
            let simb_kind = SimbKind::Config {
                module: slot.module,
            };
            let words = if cfg.recovery.enabled {
                build_simb_integrity(simb_kind, slot.rr_id, cfg.payload_words, seed)
            } else {
                build_simb(simb_kind, slot.rr_id, cfg.payload_words, seed)
            };
            main_mem.mem.load_words(slot.addr, &words);
        }

        // ----- the shared PLB -----
        // Priority: video-in, video-out, engine regions, IcapCTRL, CPU.
        let mut masters: Vec<(String, MasterPort)> = vec![
            ("videoin".to_string(), video.vin_port),
            ("videoout".to_string(), video.vout_port),
        ];
        for (nm, iso) in names.iter().zip(&isolations) {
            masters.push((nm.bus_label.clone(), iso.port));
        }
        masters.push(("icapctrl".to_string(), icapctrl_port));
        masters.push(("cpu".to_string(), cpu.port));
        let bus_monitor = fabric::shared_bus(
            &mut sim,
            cr,
            masters,
            main_mem.port,
            layout.mem_bytes,
            cfg.arbitration,
        );

        // ----- execution mode -----
        // Dirty windows: the kernel suspends compiled-mode filtering
        // (falling back to full event-driven dispatch) while reset is
        // asserted, while any region is isolated or mid-swap, and while
        // the region boundary handshake carries X — exactly the unsteady
        // windows where the paper's methods disagree cycle-by-cycle.
        sim.set_exec_mode(cfg.exec_mode);
        sim.watch_dirty(cr.rst, DirtyWatch::TruthyOrUnknown);
        for iso in &isolations {
            sim.watch_dirty(iso.isolate, DirtyWatch::TruthyOrUnknown);
        }
        for &w in &handles.dirty_watches {
            sim.watch_dirty(w, DirtyWatch::TruthyOrUnknown);
        }
        for b in &boundaries {
            sim.watch_dirty(b.busy, DirtyWatch::Unknown);
            sim.watch_dirty(b.done, DirtyWatch::Unknown);
        }

        let probes = SystemProbes {
            cie_busy: clusters
                .iter()
                .find_map(|c| c.census_busy)
                .expect("every supported topology has a census engine"),
            me_busy: clusters
                .iter()
                .find_map(|c| c.matching_busy)
                .expect("every supported topology has a matching engine"),
            reconfiguring: handles.reconfiguring,
            inject: handles.inject,
            isolate: isolations[0].isolate,
            regions: isolations
                .iter()
                .map(|i| RegionProbes {
                    isolate: i.isolate,
                    busy: i.busy,
                    done: i.done,
                })
                .collect(),
        };
        AvSystem {
            sim,
            mem: main_mem.mem,
            captured: video.captured,
            captured_poison: video.captured_poison,
            cpu: cpu.stats,
            backend,
            bus_monitor,
            mem_faults: main_mem.faults,
            icap_faults: handles.icap_faults,
            recovery: recovery_stats,
            input_frames,
            golden,
            config: cfg,
            layout,
            probes,
        }
    }

    /// Snapshot the reconfiguration backend's statistics: ICAP artifact
    /// counters (ReSim only) plus per-region swap-machinery counters in
    /// [`RegionSpec`] order, one uniform shape for either method.
    pub fn backend_stats(&self) -> BackendStats {
        self.backend.stats()
    }

    /// Run until all frames are displayed, the CPU halts, or the cycle
    /// budget is exhausted. A kernel failure (delta overflow etc.) does
    /// not panic: it ends the run and is reported through
    /// [`RunOutcome::kernel_error`] so callers can classify it as a
    /// detected failure instead of tearing the whole process down.
    pub fn run(&mut self, budget_cycles: u64) -> RunOutcome {
        let start = self.sim.now();
        let chunk = 512 * CLK_PERIOD_PS;
        let outcome_at = |s: &Self, cycles: u64, hung: bool, err: Option<KernelError>| RunOutcome {
            frames_captured: s.captured.borrow().len(),
            halted: s.cpu.borrow().halted,
            hung,
            cycles,
            kernel_error: err,
        };
        loop {
            if let Err(e) = self.sim.run_for(chunk) {
                let cycles = (self.sim.now() - start) / CLK_PERIOD_PS;
                return outcome_at(self, cycles, false, Some(e));
            }
            let cycles = (self.sim.now() - start) / CLK_PERIOD_PS;
            let frames = self.captured.borrow().len();
            let halted = self.cpu.borrow().halted;
            if halted || frames >= self.config.n_frames {
                // Let in-flight display DMA finish.
                let err = self.sim.run_for(chunk).err();
                return outcome_at(self, cycles, false, err);
            }
            if cycles >= budget_cycles {
                return outcome_at(self, cycles, true, None);
            }
        }
    }

    /// Golden prediction of the displayed frames, replicating the
    /// hardware pipeline's buffer semantics (census ping-pong, matching
    /// against the previous census buffer, software vector markers).
    /// Both scenarios implement the same pipeline, so the prediction is
    /// topology-independent.
    pub fn golden_output(&self) -> Vec<Frame> {
        match &self.golden {
            Some(sa) => sa.golden.clone(),
            None => golden_output(&self.input_frames, self.config.width, self.config.height),
        }
    }
}

/// Pipeline-exact golden model of the displayed output frames.
pub fn golden_output(inputs: &[Frame], width: usize, height: usize) -> Vec<Frame> {
    let mut census_bufs = [Frame::new(width, height), Frame::new(width, height)];
    let params = video::MatchParams::default();
    let mut out = Vec::with_capacity(inputs.len());
    for (t, input) in inputs.iter().enumerate() {
        let cur = t & 1;
        census_bufs[cur] = video::census_transform(input);
        let prev = &census_bufs[cur ^ 1];
        let vectors = video::match_frames(prev, &census_bufs[cur], &params);
        let mut frame = input.clone();
        for v in &vectors {
            if v.dx == 0 && v.dy == 0 {
                continue;
            }
            frame.put(v.x as isize, v.y as isize, 255);
            frame.put(
                v.x as isize + v.dx as isize,
                v.y as isize + v.dy as isize,
                254,
            );
        }
        out.push(frame);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_regions_are_disjoint_and_aligned() {
        for payload in [64usize, 4096, 131072] {
            let cfg = SystemConfig {
                width: 320,
                height: 240,
                payload_words: payload,
                ..Default::default()
            };
            let l = MemLayout::for_config(&cfg);
            let fb = (cfg.width * cfg.height) as u32;
            // Ordered, non-overlapping regions.
            let regions = [
                (0x1000u32, 0x1000 + 0x8000), // program + data
                (l.in0, l.in0 + 2 * fb),      // input ping-pong
                (l.cen0, l.cen0 + 2 * fb),    // census ping-pong
                (l.vecs, l.vecs + 0x8000),    // vectors
                (l.simb_me.0, l.simb_me.0 + 4 * l.simb_me.1),
                (l.simb_cie.0, l.simb_cie.0 + 4 * l.simb_cie.1),
            ];
            for w in regions.windows(2) {
                assert!(w[0].1 <= w[1].0, "overlap: {:x?} vs {:x?}", w[0], w[1]);
            }
            assert!(regions.last().unwrap().1 as usize <= l.mem_bytes);
            // SimB length covers the whole stream (payload + framing).
            assert_eq!(l.simb_me.1, payload as u32 + 10);
            // Page-aligned buffer bases.
            for base in [l.in0, l.cen0, l.vecs, l.simb_me.0, l.simb_cie.0] {
                assert_eq!(base & 0xFFF, 0, "{base:#x} unaligned");
            }
        }
    }

    #[test]
    fn split_layout_matches_single_region_addresses() {
        let single = MemLayout::for_config(&SystemConfig::default());
        let split = MemLayout::for_config(&SystemConfig {
            regions: SystemConfig::split_regions(),
            ..Default::default()
        });
        // Same two images at the same addresses — only the ME image's
        // target region differs.
        assert_eq!(single.simb_me, split.simb_me);
        assert_eq!(single.simb_cie, split.simb_cie);
        assert_eq!(split.simbs.len(), 2);
        assert_eq!(split.simbs[0].rr_id, RR_ID_B);
        assert_eq!(split.simbs[0].module, MODULE_ME);
        assert_eq!(split.simbs[1].rr_id, RR_ID);
        assert_eq!(split.simbs[1].module, MODULE_CIE);
        assert_eq!(single.simbs[0].rr_id, RR_ID);
        assert_eq!(single.simbs[1].rr_id, RR_ID);
    }

    #[test]
    fn golden_output_draws_only_on_moving_scenes() {
        let w = 48;
        let h = 40;
        let scene = Scene::new(w, h, 3, 7);
        let inputs: Vec<Frame> = (0..3).map(|t| scene.frame(t)).collect();
        let out = golden_output(&inputs, w, h);
        assert_eq!(out.len(), 3);
        // Frame 0 matches against an empty census buffer: vectors are
        // high-cost garbage but only nonzero displacements draw.
        for (t, (o, i)) in out.iter().zip(&inputs).enumerate().skip(1) {
            assert!(
                o.differing_pixels(i) > 0,
                "frame {t} should carry vector markers"
            );
        }
    }
}

//! Reconfiguration backends: one trait, two simulation methods.
//!
//! A *backend* owns everything method-specific about module swapping —
//! the ICAP artifact, per-region portals and error injection for ReSim;
//! the signature-register wrapper for Virtual Multiplexing — behind a
//! single instantiate/stats/probe interface. The platform (clocking,
//! bus, isolation, controllers, software) is built once; which backend
//! populates the reconfigurable regions is a constructor argument, not
//! control flow scattered through the system assembly.
//!
//! Every backend consumes the same [`RegionPlan`] list, so a system
//! generalises from one region to N without either backend knowing how
//! many regions exist ahead of time: ReSim routes SimBs to regions by
//! the FAR's region ID through one shared ICAP; VMUX gives each region
//! its own `engine_signature` register.

use crate::icap::{IcapArtifact, IcapConfig, IcapFaultHandle, IcapPort, IcapStats};
use crate::portal::{instantiate_region_with, ErrorSource, PortalStats, RegionOptions, RrBoundary};
use crate::vmux::{instantiate_vmux, VmuxConfig};
use dcr::RegFile;
use engines::EngineIf;
use rtlsim::{SignalId, Simulator};
use std::cell::RefCell;
use std::rc::Rc;

/// Everything a backend needs to know about one reconfigurable region.
pub struct RegionPlan {
    /// Region ID carried in SimB frame addresses (ReSim routing key).
    pub rr_id: u8,
    /// Instance-name prefix for the region's swap machinery.
    pub name: String,
    /// Candidate modules: SimB module ID paired with the module's
    /// boundary interface. Under VMUX the module ID doubles as the
    /// signature value.
    pub modules: Vec<(u8, EngineIf)>,
    /// The region's output boundary (muxed from the active module).
    pub boundary: RrBoundary,
    /// Module present in the initial (full) configuration.
    pub initial: Option<u8>,
}

/// Handles a backend returns: the configuration port the IcapCTRL
/// drives, plus whatever probe signals the method actually models
/// (`None` where it models nothing — VMUX has no bitstream traffic, so
/// no injection window). Statistics are *not* handed out here: they stay
/// inside the backend and are snapshotted uniformly through
/// [`ReconfigBackend::stats`].
pub struct BackendHandles {
    /// Configuration port wired to the reconfiguration controller.
    /// Inert (always ready, never strobing) under VMUX.
    pub icap: IcapPort,
    /// ICAP transient-fault injection handle (ReSim only).
    pub icap_faults: Option<IcapFaultHandle>,
    /// High while a reconfiguration is in flight (ReSim only).
    pub reconfiguring: Option<SignalId>,
    /// High while the SimB payload streams and region outputs carry the
    /// error source (ReSim only).
    pub inject: Option<SignalId>,
}

/// Swap-machinery counters of one reconfigurable region, snapshotted by
/// [`ReconfigBackend::stats`]. Regions appear in [`RegionPlan`] order
/// under every method; a method that models no portal machinery (VMUX)
/// reports the region with all counters zero rather than omitting it, so
/// per-region indexing is method-independent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegionStats {
    /// Region ID carried in SimB frame addresses.
    pub rr_id: u8,
    /// Module swaps applied to this region.
    pub swaps: u64,
    /// GCAPTURE strobes addressed to this region.
    pub captures: u64,
    /// GRESTORE strobes addressed to this region.
    pub restores: u64,
    /// Swap strobes naming an unknown module ID.
    pub bad_module_ids: u64,
}

/// One uniform statistics snapshot for any reconfiguration backend —
/// the single shape callers consume instead of per-method getters.
#[derive(Debug, Clone, Default)]
pub struct BackendStats {
    /// ICAP artifact counters; `None` when the method models no
    /// bitstream (VMUX).
    pub icap: Option<IcapStats>,
    /// Per-region counters, in [`RegionPlan`] order.
    pub regions: Vec<RegionStats>,
}

impl BackendStats {
    /// Region-portal swaps summed over every region.
    pub fn total_swaps(&self) -> u64 {
        self.regions.iter().map(|r| r.swaps).sum()
    }

    /// The snapshot of region `rr_id`, if the backend built one.
    pub fn region(&self, rr_id: u8) -> Option<&RegionStats> {
        self.regions.iter().find(|r| r.rr_id == rr_id)
    }
}

/// A DPR simulation method, as a swappable component supplier.
///
/// `instantiate` is called exactly once, after the module interfaces and
/// region boundaries exist but before the isolation/controller layers
/// that only need the returned handles.
pub trait ReconfigBackend {
    /// Build the swap machinery for every region and return the shared
    /// handles.
    fn instantiate(
        &mut self,
        sim: &mut Simulator,
        clk: SignalId,
        rst: SignalId,
        regions: Vec<RegionPlan>,
    ) -> BackendHandles;

    /// Snapshot the backend's statistics. Valid after `instantiate`;
    /// before it, the snapshot is empty.
    fn stats(&self) -> BackendStats;
}

/// Factory for per-region error sources. Each region needs its own boxed
/// source (sources are stateful), keyed by the region's ID.
pub type ErrorSourceFactory = Box<dyn FnMut(u8) -> Box<dyn ErrorSource>>;

/// The ReSim method: one shared ICAP artifact feeding per-region
/// extended portals, with error injection during payload streaming.
pub struct ResimBackend {
    icap_name: String,
    config: IcapConfig,
    options: RegionOptions,
    source_factory: ErrorSourceFactory,
    /// Retained after `instantiate` so [`ReconfigBackend::stats`] can
    /// snapshot the live counters.
    icap_stats: Option<Rc<RefCell<IcapStats>>>,
    portals: Vec<(u8, Rc<RefCell<PortalStats>>)>,
}

impl ResimBackend {
    /// A backend instantiating the ICAP artifact under `icap_name` with
    /// `config`, and one portal+mux per region with `options` and an
    /// error source from `source_factory`.
    pub fn new(
        icap_name: impl Into<String>,
        config: IcapConfig,
        options: RegionOptions,
        source_factory: ErrorSourceFactory,
    ) -> ResimBackend {
        ResimBackend {
            icap_name: icap_name.into(),
            config,
            options,
            source_factory,
            icap_stats: None,
            portals: Vec::new(),
        }
    }
}

impl ReconfigBackend for ResimBackend {
    fn instantiate(
        &mut self,
        sim: &mut Simulator,
        clk: SignalId,
        rst: SignalId,
        regions: Vec<RegionPlan>,
    ) -> BackendHandles {
        let (icap, icap_stats, icap_faults) =
            IcapArtifact::instantiate_faulty(sim, &self.icap_name, clk, rst, self.config);
        self.icap_stats = Some(icap_stats);
        self.portals = Vec::with_capacity(regions.len());
        for r in regions {
            let source = (self.source_factory)(r.rr_id);
            let stats = instantiate_region_with(
                sim,
                &r.name,
                rst,
                r.rr_id,
                icap,
                r.modules,
                r.boundary,
                r.initial,
                source,
                self.options,
            );
            self.portals.push((r.rr_id, stats));
        }
        BackendHandles {
            icap,
            icap_faults: Some(icap_faults),
            reconfiguring: Some(icap.reconfiguring),
            inject: Some(icap.inject),
        }
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            icap: self.icap_stats.as_ref().map(|s| s.borrow().clone()),
            regions: self
                .portals
                .iter()
                .map(|(rr_id, p)| {
                    let p = p.borrow();
                    RegionStats {
                        rr_id: *rr_id,
                        swaps: p.swaps,
                        captures: p.captures,
                        restores: p.restores,
                        bad_module_ids: p.bad_module_ids,
                    }
                })
                .collect(),
        }
    }
}

/// Per-region configuration of the VMUX backend.
pub struct VmuxRegion {
    /// Instance-name prefix of the wrapper.
    pub name: String,
    /// The region's simulation-only `engine_signature` DCR register.
    pub regs: RegFile,
    /// Reset behaviour of the signature register.
    pub config: VmuxConfig,
}

/// The Virtual Multiplexing baseline: per-region signature registers,
/// zero-delay swaps, no bitstream and no error injection. The ICAP port
/// it returns is inert (always ready) so the unchanged IcapCTRL can be
/// instantiated against it.
pub struct VmuxBackend {
    icap_name: String,
    regions: Vec<VmuxRegion>,
    /// RR IDs recorded at `instantiate` so [`ReconfigBackend::stats`]
    /// reports one (all-zero) entry per region.
    rr_ids: Vec<u8>,
}

impl VmuxBackend {
    /// A backend allocating the inert ICAP port under `icap_name` and
    /// one signature-register wrapper per [`VmuxRegion`]. `regions` must
    /// pair up one-to-one with the [`RegionPlan`] list later passed to
    /// [`ReconfigBackend::instantiate`].
    pub fn new(icap_name: impl Into<String>, regions: Vec<VmuxRegion>) -> VmuxBackend {
        VmuxBackend {
            icap_name: icap_name.into(),
            regions,
            rr_ids: Vec::new(),
        }
    }
}

impl ReconfigBackend for VmuxBackend {
    fn instantiate(
        &mut self,
        sim: &mut Simulator,
        clk: SignalId,
        rst: SignalId,
        regions: Vec<RegionPlan>,
    ) -> BackendHandles {
        assert_eq!(
            regions.len(),
            self.regions.len(),
            "VmuxBackend configured for {} regions, asked to instantiate {}",
            self.regions.len(),
            regions.len()
        );
        let icap = IcapPort::alloc(sim, &self.icap_name);
        sim.poke_u64(icap.ready, 1);
        for (plan, vr) in regions.into_iter().zip(&self.regions) {
            self.rr_ids.push(plan.rr_id);
            let modules: Vec<(u32, EngineIf)> = plan
                .modules
                .into_iter()
                .map(|(id, e)| (id as u32, e))
                .collect();
            instantiate_vmux(
                sim,
                &vr.name,
                clk,
                rst,
                vr.regs.clone(),
                modules,
                plan.boundary,
                vr.config,
            );
        }
        BackendHandles {
            icap,
            icap_faults: None,
            reconfiguring: None,
            inject: None,
        }
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            icap: None,
            regions: self
                .rr_ids
                .iter()
                .map(|&rr_id| RegionStats {
                    rr_id,
                    ..RegionStats::default()
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portal::XSource;
    use crate::simb::{build_simb, SimbKind};
    use engines::EngineParamSignals;
    use rtlsim::{CompKind, Ctx};

    const PERIOD: u64 = 10_000;

    fn dummy(sim: &mut Simulator, name: &str, io: EngineIf, id: u64) {
        let clk = io.clk;
        sim.add_component(
            name,
            CompKind::UserReconf,
            Box::new(move |ctx: &mut Ctx<'_>| {
                if ctx.rose(clk) {
                    let sel = ctx.is_high(io.sel);
                    ctx.set_u64(io.plb.wdata, if sel { id } else { 0 });
                }
            }),
            &[clk],
        );
    }

    fn tb() -> (
        Simulator,
        SignalId,
        SignalId,
        Vec<RegionPlan>,
        Vec<RrBoundary>,
    ) {
        let mut sim = Simulator::new();
        let clk = sim.signal("clk", 1);
        let rst = sim.signal("rst", 1);
        sim.add_clock(clk, PERIOD);
        sim.add_reset(rst, 2 * PERIOD);
        let go = sim.signal_init("go", 1, 0);
        let er = sim.signal_init("er", 1, 0);
        let params = EngineParamSignals::alloc(&mut sim, "p");
        let mut plans = Vec::new();
        let mut boundaries = Vec::new();
        for (rr, ids) in [(1u8, [0x11u8, 0x12]), (2, [0x21, 0x22])] {
            let a = EngineIf::alloc(&mut sim, &format!("r{rr}a"), clk, rst, go, er, &params);
            let b = EngineIf::alloc(&mut sim, &format!("r{rr}b"), clk, rst, go, er, &params);
            dummy(&mut sim, &format!("r{rr}da"), a, ids[0] as u64);
            dummy(&mut sim, &format!("r{rr}db"), b, ids[1] as u64);
            let boundary = RrBoundary::alloc(&mut sim, &format!("rr{rr}"));
            boundaries.push(boundary);
            plans.push(RegionPlan {
                rr_id: rr,
                name: format!("region{rr}"),
                modules: vec![(ids[0], a), (ids[1], b)],
                boundary,
                initial: Some(ids[0]),
            });
        }
        (sim, clk, rst, plans, boundaries)
    }

    #[test]
    fn resim_backend_routes_simbs_per_region() {
        let (mut sim, clk, rst, plans, boundaries) = tb();
        let mut backend = ResimBackend::new(
            "icap",
            IcapConfig::default(),
            RegionOptions::default(),
            Box::new(|_| Box::new(XSource)),
        );
        let h = backend.instantiate(&mut sim, clk, rst, plans);
        let s = backend.stats();
        assert_eq!(s.regions.len(), 2);
        assert!(s.icap.is_some());
        sim.run_for(5 * PERIOD).unwrap();
        assert_eq!(sim.peek_u64(boundaries[0].plb.wdata), Some(0x11));
        assert_eq!(sim.peek_u64(boundaries[1].plb.wdata), Some(0x21));

        // Reconfigure region 2 only, through the shared ICAP.
        let simb = build_simb(SimbKind::Config { module: 0x22 }, 2, 32, 5);
        sim.poke_u64(h.icap.ce, 1);
        for w in &simb {
            let mut guard = 0;
            while sim.peek_u64(h.icap.ready) != Some(1) {
                sim.poke_u64(h.icap.cwrite, 0);
                sim.run_for(PERIOD).unwrap();
                guard += 1;
                assert!(guard < 10_000);
            }
            sim.poke_u64(h.icap.cdata, *w as u64);
            sim.poke_u64(h.icap.cwrite, 1);
            sim.run_for(PERIOD).unwrap();
        }
        sim.poke_u64(h.icap.cwrite, 0);
        sim.poke_u64(h.icap.ce, 0);
        sim.run_for(300 * PERIOD).unwrap();
        assert_eq!(sim.peek_u64(boundaries[1].plb.wdata), Some(0x22));
        assert_eq!(sim.peek_u64(boundaries[0].plb.wdata), Some(0x11));
        let s = backend.stats();
        assert_eq!(s.region(1).unwrap().swaps, 0);
        assert_eq!(s.region(2).unwrap().swaps, 1);
        assert_eq!(s.total_swaps(), 1);
        assert!(!sim.has_errors(), "{:?}", sim.messages());
    }

    #[test]
    fn vmux_backend_swaps_by_signature_per_region() {
        let (mut sim, clk, rst, plans, boundaries) = tb();
        let sig1 = RegFile::new(0x1F0, 1);
        let sig2 = RegFile::new(0x1F1, 1);
        let mut backend = VmuxBackend::new(
            "icap_unused",
            vec![
                VmuxRegion {
                    name: "vm1".into(),
                    regs: sig1.clone(),
                    config: VmuxConfig {
                        reset_signature: Some(0x11),
                    },
                },
                VmuxRegion {
                    name: "vm2".into(),
                    regs: sig2.clone(),
                    config: VmuxConfig {
                        reset_signature: Some(0x21),
                    },
                },
            ],
        );
        let h = backend.instantiate(&mut sim, clk, rst, plans);
        let s = backend.stats();
        assert!(s.icap.is_none());
        assert_eq!(s.regions.len(), 2, "one zeroed entry per region");
        assert_eq!(s.total_swaps(), 0);
        sim.run_for(5 * PERIOD).unwrap();
        assert_eq!(sim.peek_u64(boundaries[0].plb.wdata), Some(0x11));
        assert_eq!(sim.peek_u64(boundaries[1].plb.wdata), Some(0x21));
        // The inert ICAP port stays ready without ever strobing.
        assert_eq!(sim.peek_u64(h.icap.ready), Some(1));

        // Swap region 2 by writing its signature register; region 1 is
        // untouched.
        sig2.bus_write(0x1F1, 0x22);
        sim.run_for(3 * PERIOD).unwrap();
        assert_eq!(sim.peek_u64(boundaries[1].plb.wdata), Some(0x22));
        assert_eq!(sim.peek_u64(boundaries[0].plb.wdata), Some(0x11));
        assert!(!sim.has_errors(), "{:?}", sim.messages());
    }
}

//! The reconfiguration plane: one builder per simulation method.
//!
//! Everything method-specific about module swapping — the ICAP artifact,
//! per-region portals and error injection for ReSim; the
//! signature-register wrapper for Virtual Multiplexing — is built by
//! [`build_resim`] or [`build_vmux`]. The platform (clocking, bus,
//! isolation, controllers, software) is built once around the
//! [`Backend`] either returns, so the method is one `match` in the
//! system assembly, not control flow scattered through it.
//!
//! Both builders take one [`RegionPlan`] per region, so a system
//! generalises from one region to N: ReSim routes SimBs to regions by
//! the FAR's region ID through one shared ICAP; VMUX gives each region
//! its own `engine_signature` register.

use crate::icap::{IcapArtifact, IcapConfig, IcapFaultHandle, IcapPort, IcapStats};
use crate::portal::{instantiate_region, ErrorSource, PortalStats, RegionOptions, RrBoundary};
use crate::vmux::{instantiate_vmux, VmuxConfig};
use dcr::RegFile;
use engines::EngineIf;
use rtlsim::{SignalId, Simulator};
use std::cell::RefCell;
use std::rc::Rc;

/// Everything a builder needs to know about one reconfigurable region.
pub struct RegionPlan {
    /// Region ID carried in SimB frame addresses (ReSim routing key).
    pub rr_id: u8,
    /// Instance-name prefix for the region's swap machinery (the portal
    /// under ReSim, the wrapper under VMUX).
    pub name: String,
    /// Candidate modules: SimB module ID paired with the module's
    /// boundary interface. Under VMUX the module ID doubles as the
    /// signature value.
    pub modules: Vec<(u8, EngineIf)>,
    /// The region's output boundary (muxed from the active module).
    pub boundary: RrBoundary,
    /// Module present in the initial (full) configuration. VMUX reads
    /// its reset selection from [`VmuxRegion::config`] instead.
    pub initial: Option<u8>,
}

/// What VMUX adds to a region's [`RegionPlan`].
pub struct VmuxRegion {
    /// The region's simulation-only `engine_signature` DCR register.
    pub regs: RegFile,
    /// Reset behaviour of the signature register.
    pub config: VmuxConfig,
}

/// The built reconfiguration plane: the configuration port the IcapCTRL
/// drives, the fault handle and probe signals of what the method models
/// (`None` where it models nothing — VMUX has no bitstream traffic, so
/// no injection window), and the live counters behind
/// [`Backend::stats`].
pub struct Backend {
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
    icap_stats: Option<Rc<RefCell<IcapStats>>>,
    /// One entry per region, in [`RegionPlan`] order. VMUX models no
    /// portal machinery, so its entries stay at zero.
    regions: Vec<Rc<RefCell<PortalStats>>>,
}

/// One statistics snapshot of the reconfiguration plane, the same shape
/// under either method.
#[derive(Debug, Clone, Default)]
pub struct BackendStats {
    /// ICAP artifact counters; `None` when the method models no
    /// bitstream (VMUX).
    pub icap: Option<IcapStats>,
    /// Per-region counters, in [`RegionPlan`] order. Under VMUX every
    /// region is reported with all counters zero rather than omitted, so
    /// per-region indexing is method-independent.
    pub regions: Vec<PortalStats>,
}

impl BackendStats {
    /// Region-portal swaps summed over every region.
    pub fn total_swaps(&self) -> u64 {
        self.regions.iter().map(|r| r.swaps).sum()
    }

    /// The snapshot of region `rr_id`, if the plane has that region.
    pub fn region(&self, rr_id: u8) -> Option<&PortalStats> {
        self.regions.iter().find(|r| r.rr_id == rr_id)
    }
}

impl Backend {
    /// Snapshot the plane's counters.
    pub fn stats(&self) -> BackendStats {
        BackendStats {
            icap: self.icap_stats.as_ref().map(|s| s.borrow().clone()),
            regions: self.regions.iter().map(|r| r.borrow().clone()).collect(),
        }
    }
}

/// The ReSim method: one shared ICAP artifact (`icap_artifact`) with
/// `config`, feeding one extended portal and region mux per region with
/// `options`, each injecting its own error source while the payload
/// streams.
pub fn build_resim(
    sim: &mut Simulator,
    clk: SignalId,
    rst: SignalId,
    config: IcapConfig,
    options: RegionOptions,
    regions: Vec<(RegionPlan, Box<dyn ErrorSource>)>,
) -> Backend {
    let (icap, icap_stats, icap_faults) =
        IcapArtifact::instantiate(sim, "icap_artifact", clk, rst, config);
    let regions = regions
        .into_iter()
        .map(|(r, source)| {
            instantiate_region(
                sim, &r.name, rst, r.rr_id, icap, r.modules, r.boundary, r.initial, source, options,
            )
        })
        .collect();
    Backend {
        icap,
        icap_faults: Some(icap_faults),
        reconfiguring: Some(icap.reconfiguring),
        inject: Some(icap.inject),
        icap_stats: Some(icap_stats),
        regions,
    }
}

/// The Virtual Multiplexing baseline: one signature-register wrapper per
/// region, zero-delay swaps, no bitstream and no error injection. The
/// ICAP port it returns (`icap_unused`) is inert, always ready, so the
/// unchanged IcapCTRL can be instantiated against it.
pub fn build_vmux(
    sim: &mut Simulator,
    clk: SignalId,
    rst: SignalId,
    regions: Vec<(RegionPlan, VmuxRegion)>,
) -> Backend {
    let icap = IcapPort::alloc(sim, "icap_unused");
    sim.poke_u64(icap.ready, 1);
    let regions = regions
        .into_iter()
        .map(|(r, vr)| {
            let modules = r
                .modules
                .into_iter()
                .map(|(id, e)| (id as u32, e))
                .collect();
            instantiate_vmux(
                sim, &r.name, clk, rst, vr.regs, modules, r.boundary, vr.config,
            );
            Rc::new(RefCell::new(PortalStats {
                rr_id: r.rr_id,
                ..PortalStats::default()
            }))
        })
        .collect();
    Backend {
        icap,
        icap_faults: None,
        reconfiguring: None,
        inject: None,
        icap_stats: None,
        regions,
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
        let regions = plans
            .into_iter()
            .map(|p| (p, Box::new(XSource) as Box<dyn ErrorSource>))
            .collect();
        let backend = build_resim(
            &mut sim,
            clk,
            rst,
            IcapConfig::default(),
            RegionOptions::default(),
            regions,
        );
        let s = backend.stats();
        assert_eq!(s.regions.len(), 2);
        assert!(s.icap.is_some());
        assert!(backend.icap_faults.is_some());
        assert_eq!(backend.inject, Some(backend.icap.inject));
        sim.run_for(5 * PERIOD).unwrap();
        assert_eq!(sim.peek_u64(boundaries[0].plb.wdata), Some(0x11));
        assert_eq!(sim.peek_u64(boundaries[1].plb.wdata), Some(0x21));

        // Reconfigure region 2 only, through the shared ICAP.
        let icap = backend.icap;
        let simb = build_simb(SimbKind::Config { module: 0x22 }, 2, 32, 5);
        sim.poke_u64(icap.ce, 1);
        for w in &simb {
            let mut guard = 0;
            while sim.peek_u64(icap.ready) != Some(1) {
                sim.poke_u64(icap.cwrite, 0);
                sim.run_for(PERIOD).unwrap();
                guard += 1;
                assert!(guard < 10_000);
            }
            sim.poke_u64(icap.cdata, *w as u64);
            sim.poke_u64(icap.cwrite, 1);
            sim.run_for(PERIOD).unwrap();
        }
        sim.poke_u64(icap.cwrite, 0);
        sim.poke_u64(icap.ce, 0);
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
        let regions = plans
            .into_iter()
            .zip([(&sig1, 0x11), (&sig2, 0x21)])
            .map(|(p, (regs, reset))| {
                let config = VmuxConfig {
                    reset_signature: Some(reset),
                };
                (
                    p,
                    VmuxRegion {
                        regs: regs.clone(),
                        config,
                    },
                )
            })
            .collect();
        let backend = build_vmux(&mut sim, clk, rst, regions);
        let s = backend.stats();
        assert!(s.icap.is_none());
        assert!(backend.icap_faults.is_none() && backend.inject.is_none());
        assert_eq!(s.regions.len(), 2, "one zeroed entry per region");
        assert_eq!(s.region(2).map(|r| r.swaps), Some(0));
        assert_eq!(s.total_swaps(), 0);
        sim.run_for(5 * PERIOD).unwrap();
        assert_eq!(sim.peek_u64(boundaries[0].plb.wdata), Some(0x11));
        assert_eq!(sim.peek_u64(boundaries[1].plb.wdata), Some(0x21));
        // The inert ICAP port stays ready without ever strobing.
        assert_eq!(sim.peek_u64(backend.icap.ready), Some(1));

        // Swap region 2 by writing its signature register; region 1 is
        // untouched.
        sig2.bus_write(0x1F1, 0x22);
        sim.run_for(3 * PERIOD).unwrap();
        assert_eq!(sim.peek_u64(boundaries[1].plb.wdata), Some(0x22));
        assert_eq!(sim.peek_u64(boundaries[0].plb.wdata), Some(0x11));
        assert!(!sim.has_errors(), "{:?}", sim.messages());
    }
}

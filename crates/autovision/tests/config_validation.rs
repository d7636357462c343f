//! Builder validation — one test per [`ConfigError`] variant — and the
//! [`MemLayout::for_config`] boundary cases the system depends on.

use autovision::{
    Bug, ConfigError, EngineKind, FaultSet, MemLayout, ModuleSpec, RecoveryPolicy, RegionSpec,
    SystemConfig, MODULE_CIE, MODULE_ME, RR_ID, RR_ID_B,
};

fn region(id: u8, modules: Vec<ModuleSpec>, initial: Option<u8>) -> RegionSpec {
    RegionSpec {
        id,
        boundary: "rr".into(),
        modules,
        initial,
    }
}

#[test]
fn rejects_width_not_a_positive_multiple_of_4() {
    assert_eq!(
        SystemConfig::builder().width(30).build().unwrap_err(),
        ConfigError::WidthNotMultipleOf4 { width: 30 }
    );
    assert_eq!(
        SystemConfig::builder().width(0).build().unwrap_err(),
        ConfigError::WidthNotMultipleOf4 { width: 0 }
    );
}

#[test]
fn rejects_zero_height() {
    assert_eq!(
        SystemConfig::builder().height(0).build().unwrap_err(),
        ConfigError::ZeroHeight
    );
}

#[test]
fn rejects_zero_frames() {
    assert_eq!(
        SystemConfig::builder().n_frames(0).build().unwrap_err(),
        ConfigError::ZeroFrames
    );
}

#[test]
fn rejects_zero_cfg_divider() {
    assert_eq!(
        SystemConfig::builder().cfg_divider(0).build().unwrap_err(),
        ConfigError::ZeroDivider
    );
}

#[test]
fn rejects_zero_payload() {
    assert_eq!(
        SystemConfig::builder()
            .payload_words(0)
            .build()
            .unwrap_err(),
        ConfigError::ZeroPayload
    );
}

#[test]
fn rejects_an_empty_region_list() {
    assert_eq!(
        SystemConfig::builder().regions(vec![]).build().unwrap_err(),
        ConfigError::NoRegions
    );
}

#[test]
fn rejects_a_duplicated_region_id() {
    let regions = vec![
        region(RR_ID, vec![ModuleSpec::census(MODULE_CIE)], None),
        region(RR_ID, vec![ModuleSpec::matching(MODULE_ME)], None),
    ];
    assert_eq!(
        SystemConfig::builder()
            .regions(regions)
            .build()
            .unwrap_err(),
        ConfigError::DuplicateRegionId { id: RR_ID }
    );
}

#[test]
fn rejects_a_region_without_modules() {
    assert_eq!(
        SystemConfig::builder()
            .regions(vec![region(RR_ID, vec![], None)])
            .build()
            .unwrap_err(),
        ConfigError::EmptyRegion { id: RR_ID }
    );
}

#[test]
fn rejects_a_duplicated_module_id() {
    let modules = vec![
        ModuleSpec::census(MODULE_CIE),
        ModuleSpec::matching(MODULE_CIE),
    ];
    assert_eq!(
        SystemConfig::builder()
            .regions(vec![region(RR_ID, modules, None)])
            .build()
            .unwrap_err(),
        ConfigError::DuplicateModuleId {
            region: RR_ID,
            module: MODULE_CIE
        }
    );
}

#[test]
fn rejects_an_initial_module_outside_the_region() {
    let modules = vec![
        ModuleSpec::census(MODULE_CIE),
        ModuleSpec::matching(MODULE_ME),
    ];
    assert_eq!(
        SystemConfig::builder()
            .regions(vec![region(RR_ID, modules, Some(0x7F))])
            .build()
            .unwrap_err(),
        ConfigError::UnknownInitialModule {
            region: RR_ID,
            module: 0x7F
        }
    );
}

#[test]
fn rejects_a_topology_the_software_cannot_drive() {
    // A lone census-only region matches neither the time-shared single
    // region nor the census+matching split.
    assert_eq!(
        SystemConfig::builder()
            .regions(vec![region(
                RR_ID,
                vec![ModuleSpec::census(MODULE_CIE)],
                None
            )])
            .build()
            .unwrap_err(),
        ConfigError::UnsupportedTopology
    );
}

#[test]
fn rejects_split_features_the_software_does_not_implement() {
    assert_eq!(
        SystemConfig::builder()
            .regions(SystemConfig::split_regions())
            .faults(FaultSet::one(Bug::Dpr1NoIsolation))
            .build()
            .unwrap_err(),
        ConfigError::UnsupportedInSplit {
            feature: "injected bugs"
        }
    );
    assert_eq!(
        SystemConfig::builder()
            .regions(SystemConfig::split_regions())
            .recovery(RecoveryPolicy { enabled: true })
            .build()
            .unwrap_err(),
        ConfigError::UnsupportedInSplit {
            feature: "the recovery policy"
        }
    );
}

// --- MemLayout::for_config boundary cases -------------------------------

#[test]
fn layout_orders_buffers_without_overlap() {
    let cfg = SystemConfig::default();
    let l = MemLayout::for_config(&cfg);
    let fb = (cfg.width * cfg.height) as u32;
    assert!(l.in0 + 2 * fb <= l.cen0, "input buffers overlap census");
    assert!(l.cen0 + 2 * fb <= l.vecs, "census buffers overlap vectors");
    assert!(
        l.vecs + 0x8000 <= l.simbs[0].addr,
        "vector buffer overlaps the SimB flash"
    );
    for pair in l.simbs.windows(2) {
        assert!(
            pair[0].addr + 4 * pair[0].words <= pair[1].addr,
            "SimB images overlap: {pair:?}"
        );
    }
    let last = l.simbs.last().unwrap();
    assert!(l.mem_bytes as u32 >= last.addr + 4 * last.words);
}

#[test]
fn layout_keeps_the_memory_floor_for_tiny_frames() {
    let cfg = SystemConfig::builder()
        .width(4)
        .height(1)
        .n_frames(1)
        .payload_words(1)
        .build()
        .unwrap();
    let l = MemLayout::for_config(&cfg);
    assert_eq!(l.mem_bytes, 0x0020_0000, "minimum memory window");
    // Every address stays 4 KiB aligned even at degenerate sizes.
    for a in [l.in0, l.cen0, l.vecs, l.simbs[0].addr] {
        assert_eq!(a % 0x1000, 0, "{a:#x} is not page aligned");
    }
}

#[test]
fn layout_grows_past_the_floor_for_huge_payloads() {
    let cfg = SystemConfig::builder()
        .payload_words(300_000)
        .build()
        .unwrap();
    let l = MemLayout::for_config(&cfg);
    assert!(
        l.mem_bytes > 0x0020_0000,
        "two 300 K-word images must not fit the 2 MiB floor"
    );
    let last = l.simbs.last().unwrap();
    assert!(l.mem_bytes as u32 >= last.addr + 4 * last.words);
}

#[test]
fn layout_charges_the_integrity_packet_to_every_simb() {
    let plain = MemLayout::for_config(&SystemConfig::default());
    let cfg = SystemConfig {
        recovery: RecoveryPolicy { enabled: true },
        ..SystemConfig::default()
    };
    let checked = MemLayout::for_config(&cfg);
    for (p, c) in plain.simbs.iter().zip(&checked.simbs) {
        assert_eq!(c.words, p.words + 2, "integrity packet is two words");
    }
}

#[test]
fn split_layout_keeps_the_legacy_flash_order() {
    let cfg = SystemConfig {
        regions: SystemConfig::split_regions(),
        ..SystemConfig::default()
    };
    let l = MemLayout::for_config(&cfg);
    // ME image first, then CIE — the single-region flash order,
    // reproduced so the software's SimB table stays stable.
    assert_eq!(l.simbs.len(), 2);
    assert_eq!(l.simbs[0].kind, EngineKind::Matching);
    assert_eq!(l.simbs[0].rr_id, RR_ID_B);
    assert_eq!(l.simbs[1].kind, EngineKind::Census);
    assert_eq!(l.simbs[1].rr_id, RR_ID);
    assert_eq!(l.simb_me, (l.simbs[0].addr, l.simbs[0].words));
    assert_eq!(l.simb_cie, (l.simbs[1].addr, l.simbs[1].words));
}

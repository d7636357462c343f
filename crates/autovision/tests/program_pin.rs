//! The system program's source text, pinned per configuration.
//!
//! The generated text is the assembler's input and the `ArtifactCache`
//! program key, so a changed line moves cycle counts, the VCD and the
//! cache's hit counts. Each case pins the length and FNV-1a digest of
//! the text generated for one configuration, with the layout
//! `MemLayout::for_config` derives from it: both region topologies
//! under both methods and, for the single region, no fault, every
//! catalogued bug and transient fault with recovery off and on, and
//! non-default ISR padding, fixed wait, frame size and payload.

use autovision::{software, Bug, FaultSet, MemLayout, RecoveryPolicy, SimMethod, SystemConfig};

/// The program `AvSystem::build_with` assembles for `cfg`.
fn program(cfg: &SystemConfig) -> String {
    software::generate(cfg, &MemLayout::for_config(cfg))
}

/// FNV-1a over a byte stream, the pin format for whole files.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Every pinned configuration, labelled.
fn cases() -> Vec<(String, SystemConfig)> {
    let mut cases = Vec::new();
    for method in [SimMethod::Resim, SimMethod::Vmux] {
        let m = format!("{method:?}").to_lowercase();
        let base = SystemConfig {
            method,
            ..Default::default()
        };
        for recovery in [false, true] {
            let r = if recovery { "rec" } else { "plain" };
            let faults = std::iter::once(FaultSet::none())
                .chain(Bug::ALL.into_iter().map(FaultSet::one))
                .chain(Bug::TRANSIENTS.into_iter().map(FaultSet::one));
            for f in faults {
                let label = match f.bugs() {
                    [] => "clean",
                    [b] => b.id(),
                    _ => unreachable!("one fault per case"),
                };
                cases.push((
                    format!("single/{m}/{r}/{label}"),
                    SystemConfig {
                        faults: f,
                        recovery: RecoveryPolicy { enabled: recovery },
                        ..base.clone()
                    },
                ));
            }
        }
        let tuned = SystemConfig {
            width: 320,
            height: 240,
            n_frames: 3,
            payload_words: 4096,
            isr_pad_loops: 4400,
            fixed_wait_loops: 77,
            ..base.clone()
        };
        for f in [
            FaultSet::none(),
            FaultSet::one(Bug::Dpr5StaleSizeCalc),
            FaultSet::one(Bug::Dpr6aShortFixedWait),
        ] {
            let label = f.bugs().first().map_or("clean", |b| b.id());
            cases.push((
                format!("single/{m}/tuned/{label}"),
                SystemConfig {
                    faults: f,
                    ..tuned.clone()
                },
            ));
        }
        cases.push((
            format!("single/{m}/zero_loops"),
            SystemConfig {
                isr_pad_loops: 0,
                fixed_wait_loops: 0,
                ..base.clone()
            },
        ));
        let split = SystemConfig {
            regions: SystemConfig::split_regions(),
            ..base.clone()
        };
        cases.push((format!("split/{m}/clean"), split.clone()));
        cases.push((
            format!("split/{m}/tuned"),
            SystemConfig {
                width: 320,
                height: 240,
                n_frames: 3,
                payload_words: 4096,
                isr_pad_loops: 4400,
                ..split.clone()
            },
        ));
        cases.push((
            format!("split/{m}/zero_loops"),
            SystemConfig {
                isr_pad_loops: 0,
                ..split
            },
        ));
    }
    cases
}

/// `(label, text length, FNV-1a of the text)` for every case.
const PINS: &[(&str, usize, u64)] = &[
    ("single/resim/plain/clean", 6328, 0x16c35db49b200f05),
    ("single/resim/plain/bug.hw.1", 6343, 0xc945fe21c2a490fe),
    ("single/resim/plain/bug.hw.2", 6346, 0x2c2a32a53f2c9df9),
    ("single/resim/plain/bug.hw.3", 6346, 0x4cec34f580bb61af),
    ("single/resim/plain/bug.hw.4", 6339, 0x8d2318d8ec9c9f83),
    ("single/resim/plain/bug.sw.1", 6408, 0x89a0c3be5145659f),
    ("single/resim/plain/bug.sw.2", 6426, 0x441ab80499976704),
    ("single/resim/plain/bug.dpr.1", 6345, 0xa35737bb1d2783ab),
    ("single/resim/plain/bug.dpr.2", 6339, 0xfe6ae46f9418c035),
    ("single/resim/plain/bug.dpr.3", 6347, 0x130368b7ff8a459c),
    ("single/resim/plain/bug.dpr.4", 6346, 0xf635c0875526bc3f),
    ("single/resim/plain/bug.dpr.5", 6343, 0xaf788e7bc133df3f),
    ("single/resim/plain/bug.dpr.6a", 6179, 0xdbb0c5f9a903d709),
    ("single/resim/plain/bug.dpr.6b", 6075, 0xf6b31c521c718761),
    ("single/resim/plain/fault.trans.1", 6348, 0x1c0c389a5f2f904a),
    ("single/resim/plain/fault.trans.2", 6345, 0xb94ff6c346a57565),
    ("single/resim/plain/fault.trans.3", 6345, 0x84ee26b7d099a90d),
    ("single/resim/plain/fault.trans.4", 6350, 0xe039cb943104ef86),
    ("single/resim/rec/clean", 7367, 0x8e1a86c3812b23cd),
    ("single/resim/rec/bug.hw.1", 7382, 0xe5827863e0b8453c),
    ("single/resim/rec/bug.hw.2", 7385, 0x637643ad4f21e921),
    ("single/resim/rec/bug.hw.3", 7385, 0xcb84f86e0529b08b),
    ("single/resim/rec/bug.hw.4", 7378, 0xd9a59178ac41cf2f),
    ("single/resim/rec/bug.sw.1", 7447, 0x29597ca8492dc6cb),
    ("single/resim/rec/bug.sw.2", 7465, 0x5b32211aa9eb4d50),
    ("single/resim/rec/bug.dpr.1", 7384, 0xc18408673cc15bbb),
    ("single/resim/rec/bug.dpr.2", 7378, 0x159ff55c2da8db9d),
    ("single/resim/rec/bug.dpr.3", 7386, 0xbb4f1d225e2e1b86),
    ("single/resim/rec/bug.dpr.4", 7385, 0xf1c664f4502aa17b),
    ("single/resim/rec/bug.dpr.5", 7382, 0xf617079861e912b9),
    ("single/resim/rec/bug.dpr.6a", 6583, 0xc43622ec48e6f427),
    ("single/resim/rec/bug.dpr.6b", 6479, 0x9fa8038fe59ec58f),
    ("single/resim/rec/fault.trans.1", 7387, 0x3a48ee205056bc08),
    ("single/resim/rec/fault.trans.2", 7384, 0x2b57b9b5c437f2ed),
    ("single/resim/rec/fault.trans.3", 7384, 0x607a1e392d2d58a5),
    ("single/resim/rec/fault.trans.4", 7389, 0x570370e8f2236e34),
    ("single/resim/tuned/clean", 6336, 0x2aa5575989114aec),
    ("single/resim/tuned/bug.dpr.5", 6351, 0xac56de41c8182000),
    ("single/resim/tuned/bug.dpr.6a", 6187, 0xa2ab945e03a1fd00),
    ("single/resim/zero_loops", 6327, 0x7da56924fdabc94a),
    ("split/resim/clean", 7394, 0x69cfbc3fef4593cc),
    ("split/resim/tuned", 7402, 0xad6cd98146927ddc),
    ("split/resim/zero_loops", 7394, 0x7b02788441fddf19),
    ("single/vmux/plain/clean", 5782, 0x2402a245da30c997),
    ("single/vmux/plain/bug.hw.1", 5797, 0xf14662a737bee4d6),
    ("single/vmux/plain/bug.hw.2", 5838, 0x0f6b7bba35b627f8),
    ("single/vmux/plain/bug.hw.3", 5800, 0x3ac72b1dfb425611),
    ("single/vmux/plain/bug.hw.4", 5793, 0xa731a5797f0ca255),
    ("single/vmux/plain/bug.sw.1", 5862, 0x91e75b5893037b9d),
    ("single/vmux/plain/bug.sw.2", 5880, 0x5807442419187b86),
    ("single/vmux/plain/bug.dpr.1", 5797, 0x96093dcb1adc31ef),
    ("single/vmux/plain/bug.dpr.2", 5793, 0x5814876a402072f7),
    ("single/vmux/plain/bug.dpr.3", 5801, 0x659777f50cb75a74),
    ("single/vmux/plain/bug.dpr.4", 5800, 0x52b609ec13be44b1),
    ("single/vmux/plain/bug.dpr.5", 5797, 0xa6e0f98c4926ba11),
    ("single/vmux/plain/bug.dpr.6a", 5801, 0x1aeda5738f0f5723),
    ("single/vmux/plain/bug.dpr.6b", 5801, 0xb9084f37757596b0),
    ("single/vmux/plain/fault.trans.1", 5802, 0x7348390dfcd5edb2),
    ("single/vmux/plain/fault.trans.2", 5799, 0x19f1cdbec3d9ba67),
    ("single/vmux/plain/fault.trans.3", 5799, 0xb169e1780cc0358f),
    ("single/vmux/plain/fault.trans.4", 5804, 0x735d5326a31a6bbe),
    ("single/vmux/rec/clean", 6186, 0x0c8cb5ee5b4c18c7),
    ("single/vmux/rec/bug.hw.1", 6201, 0xb300c45f95232f7e),
    ("single/vmux/rec/bug.hw.2", 6242, 0x4872ce7ad3b3ba66),
    ("single/vmux/rec/bug.hw.3", 6204, 0x545c802eb4be9585),
    ("single/vmux/rec/bug.hw.4", 6197, 0x3541ee2e93c76d49),
    ("single/vmux/rec/bug.sw.1", 6266, 0xe5b9ee879c884bb1),
    ("single/vmux/rec/bug.sw.2", 6284, 0x09e578f4c3a92590),
    ("single/vmux/rec/bug.dpr.1", 6201, 0x75b689d1e7ce7d7f),
    ("single/vmux/rec/bug.dpr.2", 6197, 0x9e89801ccadbcba7),
    ("single/vmux/rec/bug.dpr.3", 6205, 0xb3c1e7b398debac0),
    ("single/vmux/rec/bug.dpr.4", 6204, 0xe4cc20a1642b02a5),
    ("single/vmux/rec/bug.dpr.5", 6201, 0xa96dd024470e6d63),
    ("single/vmux/rec/bug.dpr.6a", 6205, 0x25f783ed324276c3),
    ("single/vmux/rec/bug.dpr.6b", 6205, 0xa23b9d6f701a86cc),
    ("single/vmux/rec/fault.trans.1", 6206, 0x962ba003d39b3f3a),
    ("single/vmux/rec/fault.trans.2", 6203, 0x39262edfe20e7a97),
    ("single/vmux/rec/fault.trans.3", 6203, 0xe68f7de7a029061f),
    ("single/vmux/rec/fault.trans.4", 6208, 0xae58aa9bd96e2ba6),
    ("single/vmux/tuned/clean", 5790, 0x8849fd101664844c),
    ("single/vmux/tuned/bug.dpr.5", 5805, 0x08153c2bc3a03410),
    ("single/vmux/tuned/bug.dpr.6a", 5809, 0x81efea7152be1b70),
    ("single/vmux/zero_loops", 5781, 0x255a49c3079009da),
    ("split/vmux/clean", 5933, 0xde9e99e3c974fd95),
    ("split/vmux/tuned", 5941, 0x427b34be81cd2cb5),
    ("split/vmux/zero_loops", 5933, 0xb877cde2e6151188),
];

#[test]
fn every_program_text_is_pinned() {
    let got: Vec<(String, usize, u64)> = cases()
        .iter()
        .map(|(label, cfg)| {
            let src = program(cfg);
            (label.clone(), src.len(), fnv1a(src.as_bytes()))
        })
        .collect();
    let drift: Vec<String> = got
        .iter()
        .zip(PINS)
        .filter(|((l, n, d), (pl, pn, pd))| (l.as_str(), *n, *d) != (*pl, *pn, *pd))
        .map(|((l, n, d), _)| format!("{l}: {n} bytes, {d:#018x}"))
        .collect();
    assert_eq!(got.len(), PINS.len(), "case list and pins differ in length");
    assert!(
        drift.is_empty(),
        "program text drifted:\n{}",
        drift.join("\n")
    );
}

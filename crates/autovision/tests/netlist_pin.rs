//! The netlist each system configuration elaborates to, pinned.
//!
//! `AvSystem::build_with` allocates signals and registers components in
//! a fixed order, and that order fixes every `SignalId` and `CompId`:
//! the VCD's identifier codes, the kernel's dispatch order and so every
//! counter follow from it. Each case pins the signal count, the
//! component count and one FNV-1a digest over each signal's name and
//! width in `SignalId` order, the initial state (`state_digest`) and
//! each component's name and kind in `CompId` order. The cases are the
//! detection matrix's base under both methods, clean, with bug.hw.2,
//! with bug.dpr.2 and with the recovery policy on, plus the split
//! topology under both methods.

use autovision::{AvSystem, Bug, FaultSet, RecoveryPolicy, SimMethod, SystemConfig};

/// FNV-1a, fed field by field.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    /// A length-prefixed string, so adjacent names cannot run together.
    fn str(&mut self, s: &str) {
        self.bytes(&(s.len() as u64).to_le_bytes());
        self.bytes(s.as_bytes());
    }
}

/// `(signals, components, digest)` of the system `cfg` builds.
fn netlist(cfg: SystemConfig) -> (usize, usize, u64) {
    let sys = AvSystem::build(cfg);
    let sim = &sys.sim;
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let signals = sim.signals_with_prefix("");
    for &s in &signals {
        h.str(sim.signal_name(s));
        h.bytes(&[sim.peek(s).width()]);
    }
    h.bytes(&sim.state_digest().to_le_bytes());
    let comps = sim.eval_counts();
    for (name, kind, _) in &comps {
        h.str(name.as_str());
        h.str(&format!("{kind:?}"));
    }
    (signals.len(), comps.len(), h.0)
}

/// Every pinned configuration, labelled.
fn cases() -> Vec<(String, SystemConfig)> {
    // The detection matrix's base (`verif::MatrixConfig::default`).
    let base = SystemConfig {
        width: 32,
        height: 24,
        n_frames: 2,
        payload_words: 256,
        ..Default::default()
    };
    let mut cases = Vec::new();
    for method in [SimMethod::Resim, SimMethod::Vmux] {
        let m = format!("{method:?}").to_lowercase();
        let base = SystemConfig {
            method,
            ..base.clone()
        };
        cases.push((format!("single/{m}/clean"), base.clone()));
        for bug in [Bug::Hw2SignatureUninit, Bug::Dpr2DcrInRr] {
            cases.push((
                format!("single/{m}/{}", bug.id()),
                SystemConfig {
                    faults: FaultSet::one(bug),
                    ..base.clone()
                },
            ));
        }
        cases.push((
            format!("single/{m}/recovery"),
            SystemConfig {
                recovery: RecoveryPolicy { enabled: true },
                ..base.clone()
            },
        ));
        cases.push((
            format!("split/{m}/clean"),
            SystemConfig {
                regions: SystemConfig::split_regions(),
                ..base
            },
        ));
    }
    cases
}

/// `(label, signals, components, digest)` for every case.
const PINS: &[(&str, usize, usize, u64)] = &[
    ("single/resim/clean", 193, 25, 0x77001fd6a32fce67),
    ("single/resim/bug.hw.2", 193, 25, 0x77001fd6a32fce67),
    ("single/resim/bug.dpr.2", 193, 25, 0x1e2ba7500cbc90d9),
    ("single/resim/recovery", 193, 25, 0x77001fd6a32fce67),
    ("split/resim/clean", 238, 31, 0xb45bca46781fd465),
    ("single/vmux/clean", 195, 25, 0x6b74884a836d8abc),
    ("single/vmux/bug.hw.2", 195, 25, 0xf3ab9e2dcd26c6ad),
    ("single/vmux/bug.dpr.2", 195, 25, 0x6b74884a836d8abc),
    ("single/vmux/recovery", 195, 25, 0x6b74884a836d8abc),
    ("split/vmux/clean", 242, 32, 0x4348d6469ce38711),
];

#[test]
fn netlists_are_pinned() {
    let got: Vec<(String, usize, usize, u64)> = cases()
        .into_iter()
        .map(|(label, cfg)| {
            let (s, c, d) = netlist(cfg);
            (label, s, c, d)
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(l, s, c, d)| format!("    (\"{l}\", {s}, {c}, {d:#018x}),\n"))
        .collect();
    assert_eq!(got.len(), PINS.len(), "case list changed; now:\n{table}");
    for ((label, s, c, d), (pl, ps, pc, pd)) in got.iter().zip(PINS) {
        assert_eq!(label, pl, "case order changed; now:\n{table}");
        assert_eq!(
            (*s, *c, *d),
            (*ps, *pc, *pd),
            "{label}: netlist moved; now:\n{table}"
        );
    }
}

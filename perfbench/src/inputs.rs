//! Workload inputs, derived only from the `--seed` argument.

use autovision::{SimMethod, SystemConfig};
use verif::wire::CampaignSubmission;
use verif::{Campaign, FuzzSchedule, FuzzSpec, FuzzTopology, MatrixConfig, Scenario};

/// Frames each paper-scale system simulates.
pub const FRAMES_PER_SYSTEM: usize = 2;
/// Worker threads of the in-process campaign (the host has 2 cores).
pub const CAMPAIGN_THREADS: usize = 2;
/// Runs in each of the campaign's two recovery batches.
pub const RECOVERY_RUNS: usize = 16;
/// Fuzz schedules in one service document.
pub const FUZZ_PER_DOC: usize = 4;
/// Recovery runs appended to one service document.
pub const RECOVERY_PER_DOC: usize = 2;

/// splitmix64: a small, fully specified generator, so the inputs do not
/// depend on any library's RNG stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next_u64() % u64::from(hi - lo + 1)) as u32
    }
}

/// A seed for one named purpose, derived from the workload seed.
pub fn derive(seed: u64, purpose: &str) -> u64 {
    let mut h = seed;
    for b in purpose.bytes() {
        h = Rng::new(h ^ u64::from(b)).next_u64();
    }
    h
}

/// The paper-scale Table II system: 320×240, 4096-word SimB,
/// `cfg_divider` 1, `isr_pad_loops` 4400, ReSim; the scene comes from
/// the seed.
pub fn frame_config(seed: u64) -> SystemConfig {
    SystemConfig::builder()
        .method(SimMethod::Resim)
        .width(320)
        .height(240)
        .n_frames(FRAMES_PER_SYSTEM)
        .payload_words(4096)
        .cfg_divider(1)
        .isr_pad_loops(4400)
        .seed(derive(seed, "frame.scene"))
        .build()
        .expect("paper-scale config is valid")
}

/// The 47-scenario campaign in builder order: clean, every catalogued
/// bug, the split pipeline, then two 16-run recovery batches whose
/// seeds come from the workload seed.
pub fn campaign(seed: u64, spans: bool) -> Campaign {
    Campaign::builder()
        .threads(CAMPAIGN_THREADS)
        .seed(derive(seed, "campaign.recovery"))
        .spans(spans)
        .matrix()
        .split_clean()
        .recovery_campaign(RECOVERY_RUNS, false)
        .recovery_campaign(RECOVERY_RUNS, true)
        .build()
}

/// One fuzz schedule: one to three knob draws from the legal envelope
/// (`cfg_divider` ≤ 4, `isr_pad_loops` ≥ 4, no word-stream corruption),
/// applied to the matrix base's unmutated schedule. `exec_mode` keeps
/// its default.
fn fuzz_schedule(rng: &mut Rng) -> FuzzSchedule {
    let mut s = FuzzSchedule::baseline(&MatrixConfig::default().base);
    for _ in 0..rng.range(1, 3) {
        match rng.range(0, 6) {
            0 => s.warmup_cycles = rng.range(0, 8191),
            1 => s.isr_pad_loops = rng.range(4, 64),
            2 => s.cfg_divider = rng.range(1, 4),
            3 => s.mem_wait_states = rng.range(0, 4),
            4 => s.fixed_wait_loops = rng.range(1, 512),
            5 => s.round_robin = !s.round_robin,
            _ => {
                s.topology = match s.topology {
                    FuzzTopology::Single => FuzzTopology::Split,
                    FuzzTopology::Split => FuzzTopology::Single,
                }
            }
        }
    }
    s.sanitized()
}

/// Service document `index` of the seed's stream: fuzz schedules plus
/// a small recovery batch, run on one worker thread.
pub fn service_doc(seed: u64, index: u64) -> CampaignSubmission {
    let mut rng = Rng::new(derive(seed, "service.doc") ^ index.wrapping_mul(0xA076_1D64_78BD_642F));
    let scenarios = (0..FUZZ_PER_DOC)
        .map(|j| {
            Scenario::Fuzz(FuzzSpec {
                id: (index as usize * FUZZ_PER_DOC + j) as u32,
                schedule: fuzz_schedule(&mut rng),
            })
        })
        .collect();
    CampaignSubmission {
        scenarios,
        recovery_runs: RECOVERY_PER_DOC,
        recovery_on: true,
        seed: rng.next_u64(),
        threads: 1,
        ..CampaignSubmission::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A seed held out from tuning, for later claims.
    const HELD_OUT_SEED: u64 = 0x5EED_0002;

    fn docs(seed: u64) -> Vec<String> {
        (0..8).map(|i| service_doc(seed, i).to_json()).collect()
    }

    #[test]
    fn same_seed_gives_identical_documents() {
        assert_eq!(docs(1), docs(1));
        assert_eq!(
            campaign(1, false).scenarios(),
            campaign(1, false).scenarios()
        );
        assert_eq!(frame_config(1).seed, frame_config(1).seed);
    }

    #[test]
    fn held_out_seed_gives_different_documents() {
        assert_ne!(docs(1), docs(HELD_OUT_SEED));
        assert_ne!(
            campaign(1, false).scenarios(),
            campaign(HELD_OUT_SEED, false).scenarios()
        );
        assert_ne!(frame_config(1).seed, frame_config(HELD_OUT_SEED).seed);
    }

    #[test]
    fn documents_differ_within_a_stream() {
        let d = docs(1);
        for (i, a) in d.iter().enumerate() {
            assert!(d[i + 1..].iter().all(|b| a != b), "document {i} repeats");
        }
    }

    #[test]
    fn documents_parse_back_and_stay_in_the_envelope() {
        for doc in docs(7) {
            let sub = CampaignSubmission::from_json(&doc).expect("document parses");
            assert_eq!(sub.to_json(), doc);
            for s in &sub.scenarios {
                let Scenario::Fuzz(spec) = s else {
                    panic!("non-fuzz scenario {s:?}")
                };
                assert!(spec.schedule.cfg_divider <= 4);
                assert!(spec.schedule.isr_pad_loops >= 4);
                assert!(!spec.schedule.injects_fault());
            }
        }
    }

    #[test]
    fn campaign_has_47_scenarios() {
        let c = campaign(1, false);
        assert_eq!(c.scenarios().len(), 47);
        let recovery = c
            .scenarios()
            .iter()
            .filter(|s| matches!(s, Scenario::Recovery(_)))
            .count();
        assert_eq!(recovery, 2 * RECOVERY_RUNS);
    }
}

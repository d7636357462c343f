//! Randomized transient-fault injection campaign for the resilient
//! reconfiguration machinery.
//!
//! Each run builds the full Optical Flow Demonstrator under ReSim, arms
//! one seeded transient fault from [`Bug::TRANSIENTS`] against the
//! bitstream path (a SimB readout bit flip, a bounded DMA stall, a
//! spurious bus error, or a dropped ICAP `ready`), and classifies the
//! outcome against the golden pipeline model. Running the same campaign
//! with the recovery policy enabled and disabled yields the recovery
//! matrix: how many frames survive, how many are corrupted or hang, and
//! the retry/latency cost of recovering.
//!
//! Faults are armed through the injection handles the system exposes
//! ([`AvSystem::mem_faults`], [`AvSystem::icap_faults`]) with an address
//! window restricted to the SimB storage, so CPU instruction and frame
//! traffic are never disturbed — exactly the single-event-upset model
//! the recovery hardware is designed against.

use crate::executor::{RecoveryRow, RecoverySpec, ScenarioCtx};
use autovision::{
    AvSystem, Bug, RecoveryPolicy, SimMethod, SystemConfig, CLK_PERIOD_PS, WATCHDOG_CYCLES,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Classified outcome of one injection run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunClass {
    /// All frames delivered and byte-identical to the golden model.
    Survived,
    /// Frames delivered but at least one differs from the golden model
    /// (or carries X-poisoned words).
    Corrupted,
    /// The pipeline stopped making progress: budget exhausted, kernel
    /// error, or fewer frames than expected.
    Hung,
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Base system configuration (method is forced to ReSim; the
    /// recovery policy is set per campaign mode).
    pub base: SystemConfig,
    /// Injection runs per campaign (cycled over the four transient
    /// fault kinds).
    pub runs: usize,
    /// Master campaign seed.
    pub seed: u64,
    /// Hang budget per run, in cycles.
    pub budget_cycles: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            base: SystemConfig {
                width: 32,
                height: 24,
                n_frames: 2,
                payload_words: 256,
                ..Default::default()
            },
            runs: 16,
            seed: 0xFA_17,
            budget_cycles: 400_000,
        }
    }
}

/// Aggregated campaign results for one recovery mode.
#[derive(Debug, Clone, Default)]
pub struct CampaignSummary {
    /// Runs executed.
    pub runs: usize,
    /// Runs whose fault actually fired.
    pub fired: usize,
    /// Fired runs that survived with golden-identical output.
    pub survived: usize,
    /// Fired runs with corrupted output.
    pub corrupted: usize,
    /// Fired runs that hung.
    pub hung: usize,
    /// Total retry attempts.
    pub retries: u64,
    /// Total transfers recovered after retry.
    pub recovered: u64,
    /// Total transfers that exhausted the retry budget.
    pub exhausted: u64,
    /// Mean recovery latency over recovered transfers, in cycles.
    pub mean_recovery_cycles: f64,
    /// Worst recovery latency, in cycles.
    pub max_recovery_cycles: u64,
}

impl CampaignSummary {
    /// Fraction of fired runs that survived (1.0 when nothing fired).
    pub fn recovery_rate(&self) -> f64 {
        if self.fired == 0 {
            1.0
        } else {
            self.survived as f64 / self.fired as f64
        }
    }
}

/// Derive per-run fault parameters and arm them on a freshly built
/// system. Returns nothing; firing is read back from the handles.
fn arm_fault(sys: &mut AvSystem, fault: Bug, rng: &mut StdRng) {
    // Window covering both SimB images — only bitstream fetches are
    // eligible.
    let lo = sys.layout.simb_me.0;
    let hi = sys.layout.simb_cie.0 + 4 * sys.layout.simb_cie.1;
    let wd = WATCHDOG_CYCLES;
    let mut mem = sys.mem_faults.borrow_mut();
    mem.window = Some((lo, hi));
    match fault {
        Bug::TransientSimbBitFlip => {
            // Any beat of an early burst: hits SYNC/header words as well
            // as payload, exercising both the CRC and the drain watchdog.
            mem.flip_next_read = Some((rng.random_range(0u32..64), rng.random_range(0u32..32)));
        }
        Bug::TransientDmaStall => {
            // Longer than the watchdog so the stall is *detected*, short
            // enough that the slave always completes on its own.
            mem.stall_next_read = Some(rng.random_range(wd + 64..2 * wd));
        }
        Bug::TransientBusError => {
            mem.error_next_reads = rng.random_range(1u32..=2);
        }
        Bug::TransientIcapReadyDrop => {
            if let Some(icap) = &sys.icap_faults {
                icap.borrow_mut().drop_ready_for = rng.random_range(wd + 64..2 * wd);
            }
        }
        other => panic!("{other:?} is not a transient fault"),
    }
}

fn fault_fired(sys: &AvSystem, fault: Bug) -> bool {
    let mem = sys.mem_faults.borrow();
    match fault {
        Bug::TransientSimbBitFlip => mem.flips_fired > 0,
        Bug::TransientDmaStall => mem.stalls_fired > 0,
        Bug::TransientBusError => mem.errors_fired > 0,
        Bug::TransientIcapReadyDrop => sys
            .icap_faults
            .as_ref()
            .map(|h| h.borrow().drops_fired > 0)
            .unwrap_or(false),
        _ => false,
    }
}

/// Execute one injection run within an executor context: `spec` gives
/// the fault, seed and recovery mode; the base configuration, cycle
/// budget and shared artifact cache come from `ctx`.
pub fn run_one(ctx: &ScenarioCtx<'_>, spec: RecoverySpec) -> RecoveryRow {
    let RecoverySpec {
        fault,
        seed,
        recovery_on,
    } = spec;
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = SystemConfig {
        method: SimMethod::Resim,
        recovery: RecoveryPolicy {
            enabled: recovery_on,
        },
        ..ctx.base.clone()
    };
    let n_frames = cfg.n_frames;
    let mut sys = AvSystem::build_with(cfg, ctx.artifacts);
    arm_fault(&mut sys, fault, &mut rng);
    // Randomize the arrival phase of the fault relative to the frame
    // pipeline. The armed fault stays pending until its first eligible
    // event, so any warmup before the final reconfiguration still fires.
    let warmup_cycles: u64 = rng.random_range(0u64..4096);
    let _ = sys.sim.run_for(warmup_cycles * CLK_PERIOD_PS);
    let outcome = ctx.run(&mut sys);

    let golden = sys.golden_output();
    let captured = sys.captured.borrow();
    let poison = sys.captured_poison.borrow();
    let mut frames_ok = 0usize;
    let mut frames_bad = 0usize;
    for (i, (got, want)) in captured.iter().zip(&golden).enumerate() {
        let poisoned = poison.get(i).copied().unwrap_or(0) > 0;
        if got.differing_pixels(want) > 0 || poisoned {
            frames_bad += 1;
        } else {
            frames_ok += 1;
        }
    }
    let hung = outcome.hung || outcome.kernel_error.is_some() || outcome.frames_captured < n_frames;
    let class = if hung {
        RunClass::Hung
    } else if frames_bad > 0 {
        RunClass::Corrupted
    } else {
        RunClass::Survived
    };
    let r = sys.recovery.borrow();
    RecoveryRow {
        fault,
        seed,
        fired: fault_fired(&sys, fault),
        class,
        frames_ok,
        frames_bad,
        retries: r.retries,
        recovered: r.recovered,
        exhausted: r.exhausted,
        recovery_cycles_max: r.recovery_cycles_max,
        recovery_cycles_total: r.recovery_cycles_total,
    }
}

/// Aggregate run reports into a summary.
pub fn summarize(reports: &[RecoveryRow]) -> CampaignSummary {
    let mut s = CampaignSummary {
        runs: reports.len(),
        ..Default::default()
    };
    for r in reports {
        if !r.fired {
            continue;
        }
        s.fired += 1;
        match r.class {
            RunClass::Survived => s.survived += 1,
            RunClass::Corrupted => s.corrupted += 1,
            RunClass::Hung => s.hung += 1,
        }
        s.retries += r.retries;
        s.recovered += r.recovered;
        s.exhausted += r.exhausted;
        s.max_recovery_cycles = s.max_recovery_cycles.max(r.recovery_cycles_max);
        s.mean_recovery_cycles += r.recovery_cycles_total as f64;
    }
    if s.recovered > 0 {
        s.mean_recovery_cycles /= s.recovered as f64;
    } else {
        s.mean_recovery_cycles = 0.0;
    }
    s
}

/// Render one mode's campaign as an aligned per-fault table.
pub fn render_campaign(label: &str, reports: &[RecoveryRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{label}\n{:<14} {:<50} {:>5} {:>6} {:>9} {:>10} {:>5} {:>8}\n",
        "fault", "description", "runs", "fired", "survived", "corrupted", "hung", "retries"
    ));
    out.push_str(&"-".repeat(114));
    out.push('\n');
    for fault in Bug::TRANSIENTS {
        let rs: Vec<&RecoveryRow> = reports.iter().filter(|r| r.fault == fault).collect();
        if rs.is_empty() {
            continue;
        }
        let count = |c: RunClass| rs.iter().filter(|r| r.fired && r.class == c).count();
        out.push_str(&format!(
            "{:<14} {:<50} {:>5} {:>6} {:>9} {:>10} {:>5} {:>8}\n",
            fault.id(),
            fault.describe(),
            rs.len(),
            rs.iter().filter(|r| r.fired).count(),
            count(RunClass::Survived),
            count(RunClass::Corrupted),
            count(RunClass::Hung),
            rs.iter().map(|r| r.retries).sum::<u64>(),
        ));
    }
    let s = summarize(reports);
    out.push_str(&format!(
        "fired {} / {} runs: {} survived, {} corrupted, {} hung — recovery rate {:.0}%\n",
        s.fired,
        s.runs,
        s.survived,
        s.corrupted,
        s.hung,
        100.0 * s.recovery_rate()
    ));
    if s.recovered > 0 {
        out.push_str(&format!(
            "recovered {} transfer(s) in {} retr{}; recovery latency mean {:.0} / max {} cycles\n",
            s.recovered,
            s.retries,
            if s.retries == 1 { "y" } else { "ies" },
            s.mean_recovery_cycles,
            s.max_recovery_cycles
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Campaign;

    fn quick_campaign(threads: usize) -> Campaign {
        Campaign::builder()
            .threads(threads)
            .recovery_campaign(4, true)
            .build()
    }

    #[test]
    fn every_transient_fault_fires_and_recovers() {
        let reports = quick_campaign(4).run().recovery_rows();
        assert_eq!(reports.len(), 4);
        for r in &reports {
            assert!(r.fired, "{:?} (seed {:#x}) never fired", r.fault, r.seed);
            assert_eq!(
                r.class,
                RunClass::Survived,
                "{:?} (seed {:#x}) not recovered: {r:?}",
                r.fault,
                r.seed
            );
            assert_eq!(r.exhausted, 0);
        }
        // At least the detected faults (stall, bus error, ready drop,
        // and header-word flips) must have gone through a retry.
        assert!(reports.iter().map(|r| r.retries).sum::<u64>() >= 3);
        let s = summarize(&reports);
        assert_eq!(s.hung, 0);
        assert!(s.recovery_rate() >= 0.9);
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = quick_campaign(2).run().recovery_rows();
        let b = quick_campaign(4).run().recovery_rows();
        assert_eq!(a, b);
    }

    #[test]
    fn summarize_excludes_unfired_runs() {
        let mk = |fired: bool, class: RunClass| RecoveryRow {
            fault: Bug::TransientSimbBitFlip,
            seed: 0,
            fired,
            class,
            frames_ok: 2,
            frames_bad: 0,
            retries: 1,
            recovered: 1,
            exhausted: 0,
            recovery_cycles_max: 10,
            recovery_cycles_total: 10,
        };
        let s = summarize(&[mk(true, RunClass::Survived), mk(false, RunClass::Survived)]);
        assert_eq!(s.runs, 2);
        assert_eq!(s.fired, 1);
        assert_eq!(s.survived, 1);
        assert_eq!(s.recovered, 1);
        assert!((s.recovery_rate() - 1.0).abs() < 1e-9);
    }
}

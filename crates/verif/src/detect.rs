//! Running one verification experiment and classifying the outcome.
//!
//! A run is *detected* when any automated oracle fires: a checker/monitor
//! error, a scoreboard mismatch against the golden pipeline model,
//! X-poisoned display output, a CPU fault, or a hang (the frame pipeline
//! failing to deliver within the cycle budget). These are exactly the
//! signals a verification engineer watches in a regression; the paper's
//! bugs were found the same way (wrong pixels, stuck pipelines, protocol
//! violations in the waveform).

use autovision::{AvSystem, RunOutcome, SystemConfig};

/// One piece of evidence that a run misbehaved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Evidence {
    /// A kernel error diagnostic (protocol monitor, ICAP artifact, DCR
    /// master, engine checker...).
    CheckerError {
        /// Reporting component.
        component: String,
        /// Message text.
        text: String,
    },
    /// A displayed frame differs from the golden prediction.
    OutputMismatch {
        /// Frame index.
        frame: usize,
        /// Number of differing pixels.
        pixels: usize,
    },
    /// Display output contained X-poisoned words.
    PoisonedOutput {
        /// Frame index.
        frame: usize,
        /// Poisoned 32-bit words.
        words: usize,
    },
    /// Fewer frames than expected within the cycle budget.
    Hang {
        /// Frames that did arrive.
        frames_captured: usize,
        /// Frames expected.
        frames_expected: usize,
    },
    /// The CPU stopped on an architectural error.
    CpuError {
        /// The error text.
        text: String,
    },
    /// The simulation kernel itself failed (delta-cycle oscillation and
    /// friends) before the run could finish. Appended *after* every
    /// other oracle so the first-evidence strings of existing reports
    /// are unchanged.
    KernelError {
        /// The kernel error, rendered.
        text: String,
    },
}

/// The classified outcome of one experiment.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Did any oracle fire?
    pub detected: bool,
    /// Everything that fired.
    pub evidence: Vec<Evidence>,
    /// Clock cycles the run consumed.
    pub cycles: u64,
    /// Frames the display captured.
    pub frames: usize,
    /// Simulated time in nanoseconds.
    pub simulated_ns: u64,
    /// The kernel error text, when the kernel itself failed — also
    /// present as the trailing [`Evidence::KernelError`], surfaced here
    /// separately so reports can show it without walking the evidence.
    pub kernel_error: Option<String>,
}

/// Build the configured system, run it to completion or budget, and
/// classify. `budget_cycles` bounds hang detection.
pub fn run_experiment(cfg: SystemConfig, budget_cycles: u64) -> Verdict {
    let n_frames = cfg.n_frames;
    let mut sys = AvSystem::build(cfg);
    let outcome = sys.run(budget_cycles);
    classify(&sys, &outcome, n_frames)
}

/// Classify a finished run against every oracle. Shared by the one-shot
/// experiment paths and the schedule fuzzer (which builds and runs its
/// own system so it can arm faults and collect the trace).
pub fn classify(sys: &AvSystem, outcome: &RunOutcome, n_frames: usize) -> Verdict {
    let mut evidence = Vec::new();

    for m in sys.sim.messages() {
        if m.severity == rtlsim::Severity::Error {
            evidence.push(Evidence::CheckerError {
                component: m.component.to_string(),
                text: m.text.clone(),
            });
        }
    }
    if let Some(err) = &sys.cpu.borrow().error {
        evidence.push(Evidence::CpuError { text: err.clone() });
    }
    if outcome.frames_captured < n_frames {
        evidence.push(Evidence::Hang {
            frames_captured: outcome.frames_captured,
            frames_expected: n_frames,
        });
    }
    let golden = sys.golden_output();
    for (i, (got, want)) in sys.captured.borrow().iter().zip(&golden).enumerate() {
        let pixels = got.differing_pixels(want);
        if pixels > 0 {
            evidence.push(Evidence::OutputMismatch { frame: i, pixels });
        }
    }
    for (i, words) in sys.captured_poison.borrow().iter().enumerate() {
        if *words > 0 {
            evidence.push(Evidence::PoisonedOutput {
                frame: i,
                words: *words,
            });
        }
    }
    let kernel_error = outcome.kernel_error.as_ref().map(|e| format!("{e:?}"));
    if let Some(text) = &kernel_error {
        evidence.push(Evidence::KernelError { text: text.clone() });
    }

    // Keep evidence lists readable: checker errors can number in the
    // hundreds for an X storm.
    const MAX_EVIDENCE: usize = 16;
    let detected = !evidence.is_empty();
    evidence.truncate(MAX_EVIDENCE);
    Verdict {
        detected,
        evidence,
        cycles: outcome.cycles,
        frames: outcome.frames_captured,
        simulated_ns: sys.sim.now() / 1_000,
        kernel_error,
    }
}

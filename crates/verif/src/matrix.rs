//! The detection matrix: every catalogued bug under both simulation
//! methods — the machine-checkable core of the paper's Table III.

use crate::detect::Verdict;
use crate::executor::ScenarioCtx;
use autovision::{ArtifactCache, Bug, BugClass, FaultSet, SimMethod, SystemConfig};

/// Expected detection for (bug, method) per the paper's analysis. The
/// expectation depends only on what the method's backend *models*, not
/// on which enum variant names it.
pub fn expected_detection(bug: Bug, method: SimMethod) -> bool {
    let bitstream = method.models_bitstream();
    match bug.class() {
        // Static and software bugs do not involve the reconfiguration
        // process: both methods catch them.
        BugClass::Static | BugClass::Software => true,
        // The signature-register false alarm exists only in testbenches
        // that fake the swap instead of modelling the bitstream.
        BugClass::FalseAlarm => !bitstream,
        // DPR bugs need the bitstream traffic, injection and timing;
        // transient upsets corrupt the bitstream traffic itself. A
        // backend without a bitstream can exercise neither. (With
        // recovery enabled transients are *recovered*, not detected —
        // the recovery campaign, not this matrix, measures that.)
        BugClass::Dpr | BugClass::Transient => bitstream,
    }
}

/// One row of the matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixRow {
    /// Bug identifier (`bug.dpr.4` style); `"(none)"` for the clean run.
    pub bug: String,
    /// Bug description.
    pub description: String,
    /// Detection under Virtual Multiplexing.
    pub vmux_detected: bool,
    /// Detection under ReSim.
    pub resim_detected: bool,
    /// Expectation under VMUX.
    pub vmux_expected: bool,
    /// Expectation under ReSim.
    pub resim_expected: bool,
    /// First evidence string under ReSim (or VMUX for the false alarm).
    pub evidence: String,
}

impl MatrixRow {
    /// Row matches the paper's expectation for both methods.
    pub fn as_expected(&self) -> bool {
        self.vmux_detected == self.vmux_expected && self.resim_detected == self.resim_expected
    }
}

/// Configuration template for matrix runs; `build` customises per run.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Base system configuration (method/faults overwritten per run).
    pub base: SystemConfig,
    /// Hang budget per run, in cycles.
    pub budget_cycles: u64,
}

impl Default for MatrixConfig {
    fn default() -> Self {
        MatrixConfig {
            base: SystemConfig {
                width: 32,
                height: 24,
                n_frames: 2,
                payload_words: 256,
                ..Default::default()
            },
            budget_cycles: 400_000,
        }
    }
}

fn first_evidence(resim: &Verdict, vmux: &Verdict) -> String {
    resim
        .evidence
        .first()
        .or(vmux.evidence.first())
        .map(|e| format!("{e:?}"))
        .unwrap_or_default()
}

/// Run a single bug under both methods within an executor context.
pub fn run_bug_in(ctx: &ScenarioCtx<'_>, bug: Bug) -> MatrixRow {
    let vmux = ctx.experiment(SimMethod::Vmux, FaultSet::one(bug), None);
    let resim = ctx.experiment(SimMethod::Resim, FaultSet::one(bug), None);
    MatrixRow {
        bug: bug.id().to_string(),
        description: bug.describe().to_string(),
        vmux_detected: vmux.detected,
        resim_detected: resim.detected,
        vmux_expected: expected_detection(bug, SimMethod::Vmux),
        resim_expected: expected_detection(bug, SimMethod::Resim),
        evidence: first_evidence(&resim, &vmux),
    }
}

/// Run the clean (no-bug) configuration under both methods; both must be
/// silent, or every other row is meaningless.
pub fn run_clean_in(ctx: &ScenarioCtx<'_>) -> MatrixRow {
    let vmux = ctx.experiment(SimMethod::Vmux, FaultSet::none(), None);
    let resim = ctx.experiment(SimMethod::Resim, FaultSet::none(), None);
    MatrixRow {
        bug: "(none)".to_string(),
        description: "golden design".to_string(),
        vmux_detected: vmux.detected,
        resim_detected: resim.detected,
        vmux_expected: false,
        resim_expected: false,
        evidence: first_evidence(&resim, &vmux),
    }
}

/// Run the clean two-region split pipeline under both methods — the
/// multi-region analogue of [`run_clean_in`]. Bugs cannot be injected
/// into this topology (the builder rejects them), so the split scenario
/// contributes a single must-be-silent row rather than a full matrix.
pub fn run_split_clean_in(ctx: &ScenarioCtx<'_>) -> MatrixRow {
    let regions = SystemConfig::split_regions();
    let vmux = ctx.experiment(SimMethod::Vmux, FaultSet::none(), Some(regions.clone()));
    let resim = ctx.experiment(SimMethod::Resim, FaultSet::none(), Some(regions));
    MatrixRow {
        bug: "(split)".to_string(),
        description: "golden two-region pipeline".to_string(),
        vmux_detected: vmux.detected,
        resim_detected: resim.detected,
        vmux_expected: false,
        resim_expected: false,
        evidence: first_evidence(&resim, &vmux),
    }
}

fn one_off_ctx(mc: &MatrixConfig, f: impl FnOnce(&ScenarioCtx<'_>) -> MatrixRow) -> MatrixRow {
    let artifacts = ArtifactCache::new();
    let ctx = ScenarioCtx::new(&mc.base, mc.budget_cycles, &artifacts);
    f(&ctx)
}

/// Run a single bug under both methods (one-off variant of
/// [`run_bug_in`] with a private artifact cache).
pub fn run_bug(mc: &MatrixConfig, bug: Bug) -> MatrixRow {
    one_off_ctx(mc, |ctx| run_bug_in(ctx, bug))
}

/// One-off variant of [`run_clean_in`] with a private artifact cache.
pub fn run_clean(mc: &MatrixConfig) -> MatrixRow {
    one_off_ctx(mc, run_clean_in)
}

/// Render the matrix as an aligned text table (the Table III artifact).
pub fn render_matrix(rows: &[MatrixRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:<52} {:>6} {:>6}  {}\n",
        "bug", "description", "VMUX", "ReSim", "status"
    ));
    out.push_str(&"-".repeat(96));
    out.push('\n');
    for r in rows {
        let mark = |d: bool| if d { "FOUND" } else { "-" };
        let status = if r.as_expected() {
            "as paper"
        } else {
            "UNEXPECTED"
        };
        out.push_str(&format!(
            "{:<12} {:<52} {:>6} {:>6}  {}\n",
            r.bug,
            &r.description[..r.description.len().min(52)],
            mark(r.vmux_detected),
            mark(r.resim_detected),
            status
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(bug: &str, v: bool, r: bool, ev: bool, er: bool) -> MatrixRow {
        MatrixRow {
            bug: bug.into(),
            description: "d".into(),
            vmux_detected: v,
            resim_detected: r,
            vmux_expected: ev,
            resim_expected: er,
            evidence: String::new(),
        }
    }

    #[test]
    fn expectation_table_matches_the_paper() {
        use autovision::{Bug, SimMethod};
        // Spot-check the paper's Table III rows.
        assert!(expected_detection(Bug::Hw2SignatureUninit, SimMethod::Vmux));
        assert!(!expected_detection(
            Bug::Hw2SignatureUninit,
            SimMethod::Resim
        ));
        assert!(!expected_detection(
            Bug::Dpr4P2pOnSharedBus,
            SimMethod::Vmux
        ));
        assert!(expected_detection(
            Bug::Dpr4P2pOnSharedBus,
            SimMethod::Resim
        ));
        assert!(expected_detection(Bug::Hw1MemBurstWrap, SimMethod::Vmux));
        assert!(expected_detection(
            Bug::Sw1DrawWrongBuffer,
            SimMethod::Resim
        ));
    }

    #[test]
    fn split_clean_row_is_silent_under_both_methods() {
        let row = one_off_ctx(&MatrixConfig::default(), run_split_clean_in);
        assert!(
            row.as_expected() && !row.vmux_detected && !row.resim_detected,
            "split pipeline must run clean: {row:?}"
        );
    }

    #[test]
    fn render_marks_unexpected_rows() {
        let rows = vec![
            row("bug.x", true, true, true, true),
            row("bug.y", false, false, false, true),
        ];
        assert!(rows[0].as_expected());
        assert!(!rows[1].as_expected());
        let text = render_matrix(&rows);
        assert!(text.contains("as paper"));
        assert!(text.contains("UNEXPECTED"));
        assert!(text.contains("FOUND"));
    }
}

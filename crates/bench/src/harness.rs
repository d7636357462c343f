//! Shared plumbing for the experiment binaries.
//!
//! Every bin in `src/bin/` used to open with the same boilerplate: an
//! `available_parallelism` lookup, a hand-rolled argv scan, the
//! 32×24/two-frame experiment configuration spelled out field by field,
//! `Instant` bracketing, and the first-evidence `Debug` formatting.
//! This module is that boilerplate, written once. The helpers are
//! deliberately thin — the point is that the bins stay small enough to
//! read as experiment descriptions, not that this becomes a framework.

use autovision::{AvSystem, RunOutcome, SimMethod, SystemConfig, SystemConfigBuilder};
use obs::MetricsRegistry;
use rtlsim::{ExecMode, Simulator};
use std::path::PathBuf;
use std::time::Instant;
use verif::Verdict;

/// Worker threads for the fan-out harnesses: one per hardware thread,
/// falling back to serial when the host will not say.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The base configuration the ablations and matrices start from: the
/// small 32×24 two-frame ReSim system with a `payload_words`-word SimB.
/// Callers chain further knobs onto the returned builder. The shared
/// [`exec_mode`] flag is pre-applied, so every bin built on this base
/// honours `--exec-mode` without further plumbing.
pub fn experiment(payload_words: usize) -> SystemConfigBuilder {
    SystemConfig::builder()
        .method(SimMethod::Resim)
        .width(32)
        .height(24)
        .n_frames(2)
        .payload_words(payload_words)
        .exec_mode(exec_mode())
}

/// The kernel execution mode every bench bin shares, from
/// `--exec-mode {event|compiled}`. Absent flag means
/// [`ExecMode::default`], the compiled plane.
/// Exits with a usage message on an unknown spelling.
pub fn exec_mode() -> ExecMode {
    match flag_value("--exec-mode") {
        None => ExecMode::default(),
        Some(v) => v.parse().unwrap_or_else(|e: String| {
            eprintln!("{e}");
            std::process::exit(2);
        }),
    }
}

/// Positional command-line argument `n` (1-based, as in `args().nth`),
/// parsed; `None` when absent or unparsable.
pub fn parse_arg<T: std::str::FromStr>(n: usize) -> Option<T> {
    std::env::args().nth(n).and_then(|a| a.parse().ok())
}

/// Value of `--flag <value>` (or `--flag=<value>`) among the
/// command-line arguments; `None` when the flag is absent.
pub fn flag_value(flag: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
        if let Some(rest) = a.strip_prefix(flag) {
            if let Some(v) = rest.strip_prefix('=') {
                return Some(v.to_string());
            }
        }
    }
    None
}

/// Observability artifact destinations every bench bin understands:
/// `--trace-out <path>` requests a Chrome-trace/Perfetto JSON span dump
/// and `--metrics-out <path>` the stable-schema metrics snapshot
/// (`obs::METRICS_SCHEMA`). With neither flag present tracing stays
/// disabled and the bin's stdout is byte-identical to a build without
/// this machinery.
#[derive(Debug, Clone, Default)]
pub struct ObsArgs {
    /// Destination of the Perfetto trace, when requested.
    pub trace_out: Option<PathBuf>,
    /// Destination of the metrics snapshot, when requested.
    pub metrics_out: Option<PathBuf>,
}

impl ObsArgs {
    /// Parse both flags from the process arguments.
    pub fn from_env() -> ObsArgs {
        ObsArgs {
            trace_out: flag_value("--trace-out").map(PathBuf::from),
            metrics_out: flag_value("--metrics-out").map(PathBuf::from),
        }
    }

    /// True when any artifact was requested.
    pub fn active(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some()
    }

    /// Enable structured tracing on a freshly built simulator when a
    /// trace artifact was requested. Call before running.
    pub fn arm(&self, sim: &mut Simulator) {
        if self.trace_out.is_some() {
            sim.enable_trace();
        }
    }

    /// Write the requested artifacts: the simulator's event buffer as
    /// Perfetto JSON and `metrics` as the schema-versioned snapshot.
    /// Prints one confirmation line per file written.
    pub fn export(&self, sim: &Simulator, metrics: &MetricsRegistry) {
        if let Some(path) = &self.trace_out {
            let events = sim.trace_events();
            let trace = obs::perfetto::export(&events);
            std::fs::write(path, trace).expect("write trace artifact");
            println!(
                "wrote {} trace events ({} dropped) to {}",
                events.len(),
                sim.trace_dropped(),
                path.display()
            );
        }
        if let Some(path) = &self.metrics_out {
            std::fs::write(path, metrics.snapshot_json()).expect("write metrics artifact");
            println!("wrote metrics snapshot to {}", path.display());
        }
    }
}

/// Fold a finished run's kernel, backend, and recovery statistics into
/// a metrics registry — the standard contents of a bench bin's
/// `--metrics-out` snapshot. Bins layer experiment-specific series on
/// top of the returned registry before exporting.
pub fn system_metrics(sys: &AvSystem, outcome: &RunOutcome) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    obs::record_sim_stats(&mut reg, &sys.sim.stats());
    if let Some(cs) = sys.sim.compiled_stats() {
        obs::record_compiled_stats(&mut reg, &cs);
    }
    let stats = sys.backend_stats();
    reg.counter("backend.swaps", stats.total_swaps());
    for r in &stats.regions {
        reg.counter(&format!("backend.rr{}.swaps", r.rr_id), r.swaps);
        reg.counter(&format!("backend.rr{}.captures", r.rr_id), r.captures);
        reg.counter(&format!("backend.rr{}.restores", r.rr_id), r.restores);
    }
    if let Some(icap) = &stats.icap {
        reg.counter("backend.icap.swaps", icap.swaps);
        reg.counter("backend.icap.desyncs", icap.desyncs);
        reg.counter("backend.icap.words_accepted", icap.words_accepted);
        reg.counter("backend.icap.words_dropped", icap.words_dropped);
        reg.counter("backend.icap.backpressure_events", icap.backpressure_events);
        reg.counter("backend.icap.crc_ok", icap.crc_ok);
        reg.counter("backend.icap.crc_mismatches", icap.crc_mismatches);
        reg.counter("backend.icap.aborts", icap.aborts);
    }
    let rec = sys.recovery.borrow();
    reg.counter("recovery.retries", rec.retries);
    reg.counter("recovery.recovered", rec.recovered);
    reg.counter("recovery.exhausted", rec.exhausted);
    reg.counter("recovery.bus_errors", rec.bus_errors);
    reg.counter("recovery.watchdog_fires", rec.watchdog_fires);
    reg.counter("recovery.integrity_errors", rec.integrity_errors);
    reg.counter("run.frames", outcome.frames_captured as u64);
    reg.counter("run.cycles", outcome.cycles);
    if outcome.frames_captured > 0 {
        reg.gauge(
            "run.cycles_per_frame",
            outcome.cycles as f64 / outcome.frames_captured as f64,
        );
    }
    reg
}

/// Run a closure, returning its result and the wall-clock seconds it
/// took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Build a system and run it to completion, panicking on a hang or a
/// kernel error; returns the system (for post-run statistics), the
/// outcome, and the run's wall-clock seconds (build time excluded).
pub fn run_built(cfg: SystemConfig, budget_cycles: u64) -> (AvSystem, RunOutcome, f64) {
    let mut sys = AvSystem::build(cfg);
    let (outcome, wall_s) = timed(|| sys.run(budget_cycles));
    assert!(
        !outcome.hung,
        "run hung after {} cycles: {:?}",
        outcome.cycles,
        sys.sim.messages()
    );
    assert!(
        outcome.kernel_error.is_none(),
        "kernel error during run: {:?}",
        outcome.kernel_error
    );
    (sys, outcome, wall_s)
}

/// The first piece of evidence a verdict carries, `Debug`-formatted;
/// `fallback` when the run was silent.
pub fn evidence(v: &Verdict, fallback: &str) -> String {
    v.evidence
        .first()
        .map(|e| format!("{e:?}"))
        .unwrap_or_else(|| fallback.to_string())
}

/// A horizontal table rule, `width` columns wide.
pub fn rule(width: usize) -> String {
    "-".repeat(width)
}

/// Median of an f64 sample (upper median for even lengths — matches a
/// `len/2` index into the sorted sample).
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_builder_produces_the_matrix_base() {
        let cfg = experiment(256).build().unwrap();
        assert_eq!(
            (cfg.width, cfg.height, cfg.n_frames, cfg.payload_words),
            (32, 24, 2, 256)
        );
        assert_eq!(cfg.method, SimMethod::Resim);
    }

    #[test]
    fn median_takes_the_middle_sample() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0]), 4.0);
    }

    #[test]
    fn rule_is_a_dash_run() {
        assert_eq!(rule(4), "----");
    }
}

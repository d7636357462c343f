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

/// A bench bin's checked command line; see [`args`].
#[derive(Debug, Clone)]
pub struct Args {
    positionals: Vec<String>,
}

impl Args {
    /// Positional argument `i` (0-based, flags and their values not
    /// counted), parsed; `None` when absent. Exits 2 naming the
    /// argument when it does not parse.
    pub fn positional<T: std::str::FromStr>(&self, i: usize) -> Option<T> {
        self.positionals.get(i).map(|a| {
            a.parse().unwrap_or_else(|_| {
                eprintln!("{}: cannot parse argument \"{a}\"", bin_name());
                std::process::exit(2);
            })
        })
    }
}

/// Check the command line against a bin's usage; every bin calls this
/// once, before it simulates anything. `flags` are the flags the bin
/// reads, each taking a value (`--flag <value>` or `--flag=<value>`);
/// `positionals` names its optional positional arguments, in order.
/// The first argument the usage does not list, or a flag without its
/// value, exits 2 with a message naming it.
pub fn args(flags: &[&str], positionals: &[&str]) -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match check_args(&argv, flags, positionals.len()) {
        Ok(positionals) => Args { positionals },
        Err(bad) => {
            let usage: String = positionals
                .iter()
                .map(|p| format!(" [{p}]"))
                .chain(flags.iter().map(|f| format!(" [{f} <value>]")))
                .collect();
            let bin = bin_name();
            eprintln!("{bin}: unknown argument or missing value: \"{bad}\" (usage: {bin}{usage})");
            std::process::exit(2);
        }
    }
}

/// The positional arguments of `args`, or the first argument that is
/// neither one of `flags` (with its value) nor one of the first
/// `max_positionals` non-flag arguments.
fn check_args(
    args: &[String],
    flags: &[&str],
    max_positionals: usize,
) -> Result<Vec<String>, String> {
    let mut positionals = Vec::new();
    let mut tokens = args.iter();
    while let Some(a) = tokens.next() {
        let known = if flags.contains(&a.as_str()) {
            tokens.next().is_some()
        } else if a.starts_with('-') {
            flags
                .iter()
                .any(|f| a.strip_prefix(f).is_some_and(|v| v.starts_with('=')))
        } else if positionals.len() < max_positionals {
            positionals.push(a.clone());
            true
        } else {
            false
        };
        if !known {
            return Err(a.clone());
        }
    }
    Ok(positionals)
}

/// The running binary's file name, for messages.
fn bin_name() -> String {
    let argv0 = std::env::args().next().unwrap_or_default();
    std::path::Path::new(&argv0)
        .file_name()
        .map_or(argv0.clone(), |n| n.to_string_lossy().into_owned())
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

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|t| t.to_string()).collect()
    }

    #[test]
    fn check_args_admits_only_the_listed_arguments() {
        let flags = ["--exec-mode", "--trace-out"];
        let ok = |tokens: &[&str]| check_args(&argv(tokens), &flags, 1);
        assert_eq!(ok(&[]), Ok(vec![]));
        assert_eq!(
            ok(&["--exec-mode", "event", "64", "--trace-out=t.json"]),
            Ok(vec!["64".to_string()])
        );
        assert_eq!(
            ok(&["4", "--exec-mod", "event"]),
            Err("--exec-mod".to_string())
        );
        assert_eq!(
            ok(&["--trace-outt", "t.json"]),
            Err("--trace-outt".to_string())
        );
        assert_eq!(ok(&["--exec-mode=", "1"]), Ok(vec!["1".to_string()]));
        assert_eq!(ok(&["--exec-modes=x"]), Err("--exec-modes=x".to_string()));
        assert_eq!(ok(&["1", "2"]), Err("2".to_string()));
        assert_eq!(ok(&["1", "--exec-mode"]), Err("--exec-mode".to_string()));
        assert_eq!(check_args(&argv(&["1"]), &flags, 0), Err("1".to_string()));
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

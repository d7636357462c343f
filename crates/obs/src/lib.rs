//! # obs — the observability facade
//!
//! One place where the repository's scattered measurement machinery
//! converges: [`rtlsim`]'s structured trace events, the sampling
//! profiler, kernel statistics and subsystem stat structs all feed a
//! central [`MetricsRegistry`], and two exporters turn a finished run
//! into artifacts:
//!
//! * [`perfetto::export`] — Chrome-trace/Perfetto JSON of the recorded
//!   spans (`chrome://tracing` or <https://ui.perfetto.dev> render it as
//!   a per-subsystem timeline: SimB transfers per region, isolation
//!   windows, ISR activity, DMA bursts...).
//! * [`MetricsRegistry::snapshot_json`] — a stable-schema
//!   (`obs_metrics/v1`) JSON snapshot of counters, gauges and
//!   histograms, fit for diffing across runs and for CI schema checks.
//!
//! The crate is deliberately thin — plain data in, strings out — and
//! hand-rolls its JSON (the workspace has no serde; its external surface
//! is the three vendored shims).

pub mod json;
pub mod metrics;
pub mod perfetto;
pub mod span;

pub use metrics::{Histogram, MetricsRegistry, METRICS_SCHEMA};
pub use span::{span_durations, Span};

use rtlsim::profile::ProfileRow;
use rtlsim::{CompKind, CompiledStats, SimStats};

/// Fold kernel statistics into the registry under `kernel.*`.
pub fn record_sim_stats(reg: &mut MetricsRegistry, stats: &SimStats) {
    reg.counter("kernel.evals", stats.evals);
    reg.counter("kernel.deltas", stats.deltas);
    reg.counter("kernel.time_points", stats.time_points);
    reg.counter("kernel.toggles", stats.toggles);
    reg.counter("kernel.events", stats.events);
}

/// Fold compiled-plane statistics into the registry under `compiled.*`:
/// the dispatch filter's work avoidance (edge/parked skips, parks,
/// wakes) and the steady-state vs dirty-window fallback split. Every key
/// is written, so a registry that outlives one run never shows an
/// earlier run's value; `compiled.fallback_share` is 0 when no time
/// point ran.
pub fn record_compiled_stats(reg: &mut MetricsRegistry, stats: &CompiledStats) {
    reg.counter("compiled.skipped_edge", stats.skipped_edge);
    reg.counter("compiled.skipped_parked", stats.skipped_parked);
    reg.counter("compiled.parks", stats.parks);
    reg.counter("compiled.signal_wakes", stats.signal_wakes);
    reg.counter("compiled.doorbell_rings", stats.doorbell_rings);
    reg.counter("compiled.fallback_entries", stats.fallback_entries);
    reg.counter("compiled.fallback_exits", stats.fallback_exits);
    reg.counter("compiled.steady_points", stats.steady_points);
    reg.counter("compiled.fallback_points", stats.fallback_points);
    let total = stats.steady_points + stats.fallback_points;
    let share = if total > 0 {
        stats.fallback_points as f64 / total as f64
    } else {
        0.0
    };
    reg.gauge("compiled.fallback_share", share);
}

fn kind_label(kind: CompKind) -> &'static str {
    match kind {
        CompKind::UserStatic => "user_static",
        CompKind::UserReconf => "user_reconf",
        CompKind::Artifact => "artifact",
        CompKind::Vip => "vip",
    }
}

/// Fold a profiler report into the registry: per component kind, the
/// fraction of estimated eval time and the eval count — the §V overhead
/// profile as metrics instead of a printed table.
pub fn record_profile(reg: &mut MetricsRegistry, rows: &[ProfileRow]) {
    for kind in [
        CompKind::UserStatic,
        CompKind::UserReconf,
        CompKind::Artifact,
        CompKind::Vip,
    ] {
        let label = kind_label(kind);
        let of_kind: Vec<&ProfileRow> = rows.iter().filter(|r| r.kind == kind).collect();
        let evals: u64 = of_kind.iter().map(|r| r.evals).sum();
        let fraction: f64 = of_kind.iter().map(|r| r.fraction).sum();
        reg.counter(&format!("profile.{label}.evals"), evals);
        reg.gauge(&format!("profile.{label}.fraction"), fraction);
    }
}

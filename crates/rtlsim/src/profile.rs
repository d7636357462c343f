//! Per-component wall-clock profiling.
//!
//! The paper's §V uses ModelSim's profiler to show that the
//! simulation-only machinery is cheap: 1.4% of simulation time in the
//! engine-wrapper multiplexer and 0.3% in the other ReSim artifacts.
//!
//! The kernel reproduces that measurement with a *sampling* profiler:
//! roughly one evaluation in 2^[`SAMPLE_SHIFT`] (pseudo-random stride,
//! so the sampler cannot alias with the kernel's periodic evaluation
//! order) is timed individually. A component's total is then estimated
//! as its mean sampled duration times its exact eval count, after
//! subtracting the measurement floor — the cheapest mean observed across
//! all components, which for a kernel full of trivial guard-and-return
//! evals is an excellent estimate of the pure clock-read cost. Timing
//! every eval instead would cost more than a trivial eval itself and
//! drown the signal.

use crate::component::CompKind;
use crate::name::Name;
use crate::CompId;
use std::time::{Duration, Instant};

struct Entry {
    kind: CompKind,
    /// Sum of sampled eval durations (raw, including clock-read cost).
    time: Duration,
    /// Number of sampled (timed) evals.
    samples: u64,
    /// Total evals (exact).
    evals: u64,
}

/// Accumulates evaluation time per component.
///
/// Roughly 1 in 2^[`SAMPLE_SHIFT`] evaluations is timed; a component's
/// total is estimated as (mean sampled duration − the cheapest mean
/// observed across all components, which calibrates away the clock-read
/// floor) × its exact eval count.
pub struct Profiler {
    enabled: bool,
    entries: Vec<Entry>,
    tick: u64,
    /// Next tick to sample. Strides are pseudo-random (mean
    /// 2^[`SAMPLE_SHIFT`]) so the sampler cannot alias against the
    /// kernel's periodic evaluation order.
    next_sample: u64,
    lcg: u64,
}

/// log2 of the mean sampling interval.
pub const SAMPLE_SHIFT: u32 = 4;

/// One row of a profiling report.
#[derive(Debug, Clone)]
pub struct ProfileRow {
    /// Component name (interned handle; cloning is cheap).
    pub name: Name,
    /// Component classification.
    pub kind: CompKind,
    /// Cumulative eval wall time.
    pub time: Duration,
    /// Number of evaluations.
    pub evals: u64,
    /// Fraction of total eval time across all components (0..=1).
    pub fraction: f64,
}

impl Profiler {
    pub(crate) fn new() -> Profiler {
        Profiler {
            // Off by default: even sampled clock reads cost measurable
            // kernel throughput. `Simulator::set_profiling` opts in.
            enabled: false,
            entries: Vec::new(),
            tick: 0,
            next_sample: 1,
            lcg: 0x2545_F491_4F6C_DD1D,
        }
    }

    pub(crate) fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub(crate) fn register(&mut self, id: CompId, kind: CompKind) {
        debug_assert_eq!(id.0 as usize, self.entries.len());
        self.entries.push(Entry {
            kind,
            time: Duration::ZERO,
            samples: 0,
            evals: 0,
        });
    }

    #[inline]
    pub(crate) fn begin(&mut self) -> Option<Instant> {
        if !self.enabled {
            return None;
        }
        self.tick = self.tick.wrapping_add(1);
        if self.tick >= self.next_sample {
            // Pseudo-random stride in 1..=2^(SHIFT+1)-1, mean 2^SHIFT.
            self.lcg = self
                .lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let stride = 1 + ((self.lcg >> 33) & ((1 << (SAMPLE_SHIFT + 1)) - 2));
            self.next_sample = self.tick + stride;
            Some(Instant::now())
        } else {
            None
        }
    }

    #[inline]
    pub(crate) fn end(&mut self, id: CompId, t0: Option<Instant>) {
        let e = &mut self.entries[id.0 as usize];
        e.evals += 1;
        if let Some(t0) = t0 {
            e.time += t0.elapsed();
            e.samples += 1;
        }
    }

    /// The measurement floor: the cheapest mean sampled duration across
    /// all components (≈ the cost of the timing itself plus a trivial
    /// guard-and-return eval).
    fn floor_secs(&self) -> f64 {
        let m = self
            .entries
            .iter()
            .filter(|e| e.samples >= 8)
            .map(|e| e.time.as_secs_f64() / e.samples as f64)
            .fold(f64::INFINITY, f64::min);
        if m.is_finite() {
            m
        } else {
            0.0
        }
    }

    /// Estimated net eval time of one entry: (mean sample - floor) x
    /// exact eval count, clamped at zero.
    fn estimate_secs(&self, e: &Entry, floor: f64) -> f64 {
        if e.samples == 0 {
            return 0.0;
        }
        let mean = e.time.as_secs_f64() / e.samples as f64;
        ((mean - floor).max(0.0)) * e.evals as f64
    }

    /// Fraction of total eval time spent in components of `kind`.
    pub fn fraction_of_kind(&self, kind: CompKind) -> f64 {
        let floor = self.floor_secs();
        let total: f64 = self
            .entries
            .iter()
            .map(|e| self.estimate_secs(e, floor))
            .sum();
        if total == 0.0 {
            return 0.0;
        }
        let t: f64 = self
            .entries
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| self.estimate_secs(e, floor))
            .sum();
        t / total
    }

    /// Build a full report given component names (from the simulator),
    /// sorted by descending estimated time.
    pub fn report(&self, names: &[(Name, CompKind, u64)]) -> Vec<ProfileRow> {
        let floor = self.floor_secs();
        let total: f64 = self
            .entries
            .iter()
            .map(|e| self.estimate_secs(e, floor))
            .sum::<f64>()
            .max(f64::MIN_POSITIVE);
        let mut rows: Vec<ProfileRow> = self
            .entries
            .iter()
            .zip(names)
            .map(|(e, (name, kind, _))| {
                let est = self.estimate_secs(e, floor);
                ProfileRow {
                    name: name.clone(),
                    kind: *kind,
                    time: Duration::from_secs_f64(est),
                    evals: e.evals,
                    fraction: est / total,
                }
            })
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.time));
        rows
    }
}

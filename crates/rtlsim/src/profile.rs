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
//!
//! Because the mean is multiplied by the eval count, one sample the
//! host stalled (preempted, paged) would be charged about
//! 2^[`SAMPLE_SHIFT`] times over. So a component's mean is a median of
//! means: its samples are dealt round-robin into 8 groups, and the mean
//! is the median of the group means.

use crate::component::CompKind;
use crate::name::Name;
use crate::CompId;
use std::time::{Duration, Instant};

/// Groups a component's samples are dealt into (see the module doc).
const GROUPS: usize = 8;

#[derive(Default)]
struct Entry {
    /// Sampled eval durations (raw, including clock-read cost), summed
    /// per group: sample `k` lands in group `k % GROUPS`.
    time: [Duration; GROUPS],
    /// Number of sampled (timed) evals.
    samples: u64,
}

impl Entry {
    /// The median of the non-empty groups' mean durations, in seconds
    /// (`None` before the first sample).
    fn mean_secs(&self) -> Option<f64> {
        let groups = GROUPS as u64;
        let filled = self.samples.min(groups) as usize;
        let mut means = [0.0; GROUPS];
        for (g, mean) in means[..filled].iter_mut().enumerate() {
            let n = self.samples / groups + u64::from((g as u64) < self.samples % groups);
            *mean = self.time[g].as_secs_f64() / n as f64;
        }
        let means = &mut means[..filled];
        means.sort_by(f64::total_cmp);
        match filled {
            0 => None,
            n if n % 2 == 1 => Some(means[n / 2]),
            n => Some((means[n / 2 - 1] + means[n / 2]) / 2.0),
        }
    }
}

/// Accumulates evaluation time per component.
///
/// Roughly 1 in 2^[`SAMPLE_SHIFT`] evaluations is timed; a component's
/// total is estimated as (median-of-means sampled duration − the
/// cheapest such mean across all components, which calibrates away the
/// clock-read floor) × its exact eval count, which [`Profiler::report`]
/// takes from the simulator ([`crate::Simulator::eval_counts`]). The
/// counts cover every eval since the simulator was built, so turn
/// profiling on before the first run.
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

    pub(crate) fn register(&mut self, id: CompId) {
        debug_assert_eq!(id.0 as usize, self.entries.len());
        self.entries.push(Entry::default());
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
        if let Some(t0) = t0 {
            self.record(id, t0.elapsed());
        }
    }

    fn record(&mut self, id: CompId, dur: Duration) {
        let e = &mut self.entries[id.0 as usize];
        e.time[(e.samples % GROUPS as u64) as usize] += dur;
        e.samples += 1;
    }

    /// The measurement floor: the cheapest mean sampled duration across
    /// all components (≈ the cost of the timing itself plus a trivial
    /// guard-and-return eval).
    fn floor_secs(&self) -> f64 {
        let m = self
            .entries
            .iter()
            .filter(|e| e.samples >= GROUPS as u64)
            .filter_map(Entry::mean_secs)
            .fold(f64::INFINITY, f64::min);
        if m.is_finite() {
            m
        } else {
            0.0
        }
    }

    /// Build a full report given each component's name, kind and exact
    /// eval count ([`crate::Simulator::eval_counts`]), sorted by
    /// descending estimated time (net mean sample, clamped at zero, ×
    /// eval count).
    pub fn report(&self, names: &[(Name, CompKind, u64)]) -> Vec<ProfileRow> {
        let floor = self.floor_secs();
        let estimates: Vec<f64> = self
            .entries
            .iter()
            .zip(names)
            .map(|(e, &(_, _, evals))| {
                e.mean_secs()
                    .map_or(0.0, |mean| (mean - floor).max(0.0) * evals as f64)
            })
            .collect();
        let total = estimates.iter().sum::<f64>().max(f64::MIN_POSITIVE);
        let mut rows: Vec<ProfileRow> = estimates
            .iter()
            .zip(names)
            .map(|(&est, (name, kind, evals))| ProfileRow {
                name: name.clone(),
                kind: *kind,
                time: Duration::from_secs_f64(est),
                evals: *evals,
                fraction: est / total,
            })
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.time));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::NameArena;

    #[test]
    fn a_stalled_sample_is_not_charged_to_its_component() {
        // `a` and `b` cost the same per eval, but one of `a`'s samples
        // caught a 5 ms host stall; `c` sets the floor.
        let mut p = Profiler::new();
        let mut arena = NameArena::new();
        let mut names = Vec::new();
        for (i, n) in ["a", "b", "c"].into_iter().enumerate() {
            p.register(CompId(i as u32));
            let id = arena.intern(n);
            let name = arena.resolve(id).clone();
            names.push((name, CompKind::UserStatic, 1_000));
        }
        let us = Duration::from_micros;
        for _ in 0..64 {
            p.record(CompId(0), us(20));
            p.record(CompId(1), us(20));
            p.record(CompId(2), us(1));
        }
        p.record(CompId(0), us(5_000));
        let rows = p.report(&names);
        let share = |n: &str| rows.iter().find(|r| r.name == n).expect("row").fraction;
        assert!(
            (share("a") - share("b")).abs() < 0.1,
            "a {:.3} vs b {:.3}",
            share("a"),
            share("b")
        );
    }
}

//! The central metrics registry: named counters, gauges and log₂-bucket
//! histograms with a stable-schema JSON snapshot.
//!
//! Every producer — kernel stats, backend stats, the profiler, span
//! durations derived from the trace — folds into one registry, so a
//! bench bin's `--metrics-out` artifact is a single self-describing
//! document rather than one ad-hoc printout per subsystem.

use crate::json;
use std::collections::BTreeMap;

/// Schema identifier stamped into every snapshot. Bump on any breaking
/// change to the snapshot layout; CI validates it.
pub const METRICS_SCHEMA: &str = "obs_metrics/v1";

/// A log₂-bucket histogram of `u64` observations (durations in ps, queue
/// depths...). Bucket `i` counts observations with
/// `2^(i-1) < value <= 2^i` (bucket 0 counts zeros and ones).
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; 65],
        }
    }
}

impl Histogram {
    fn bucket_index(v: u64) -> usize {
        if v <= 1 {
            0
        } else {
            // ceil(log2(v)) = bit length of v-1.
            (64 - (v - 1).leading_zeros()) as usize
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        if self.count == 0 || v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.count += 1;
        self.sum += v;
        self.buckets[Self::bucket_index(v)] += 1;
    }

    /// Fold another histogram into this one, as if every observation of
    /// `other` had been recorded here too. Used to aggregate per-worker
    /// histograms into one campaign-wide distribution.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 || other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
        self.count += other.count;
        self.sum += other.sum;
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty buckets as `(upper_bound, count)` pairs in ascending
    /// bound order.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| {
                let bound = if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i).max(1)
                };
                (bound, *c)
            })
            .collect()
    }

    fn to_json(&self) -> String {
        let buckets: Vec<String> = self
            .buckets()
            .iter()
            .map(|(b, c)| format!("[{b},{c}]"))
            .collect();
        format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"buckets\":[{}]}}",
            self.count,
            self.sum,
            self.min,
            self.max,
            json::number(self.mean()),
            buckets.join(",")
        )
    }
}

/// Named counters, gauges and histograms. Names are free-form
/// dot-separated paths (`icap.swaps`, `region.1.isolation_pulses`);
/// ordered maps keep snapshots deterministic.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Set a counter to an absolute value (the common case here: stat
    /// structs already hold cumulative totals).
    pub fn counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Add to a counter (creates it at 0).
    pub fn add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Set a gauge.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Record one observation into the named histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Fold a pre-built histogram into the named histogram (see
    /// [`Histogram::merge`]). Lets producers that already aggregate
    /// per-worker distributions publish them under one name.
    pub fn merge_histogram(&mut self, name: &str, h: &Histogram) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(h);
    }

    /// Read a counter back (0 when absent).
    pub fn get_counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Read a histogram back.
    pub fn get_histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Serialize the registry as a `obs_metrics/v1` JSON document:
    ///
    /// ```json
    /// {"schema":"obs_metrics/v1",
    ///  "counters":{"icap.swaps":4},
    ///  "gauges":{"bench.wall_s":0.71},
    ///  "histograms":{"span.simb.transfer_ps":{"count":4,...}}}
    /// ```
    pub fn snapshot_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", json::escape(k), v))
            .collect();
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", json::escape(k), json::number(*v)))
            .collect();
        let hists: Vec<String> = self
            .histograms
            .iter()
            .map(|(k, h)| format!("\"{}\":{}", json::escape(k), h.to_json()))
            .collect();
        format!(
            "{{\n\"schema\":\"{}\",\n\"counters\":{{{}}},\n\"gauges\":{{{}}},\n\"histograms\":{{{}}}\n}}\n",
            METRICS_SCHEMA,
            counters.join(","),
            gauges.join(","),
            hists.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
        // zeros+ones -> bound 1; 2 -> 2; 3..4 -> 4; 1000 -> 1024.
        assert_eq!(h.buckets(), vec![(1, 2), (2, 1), (4, 2), (1024, 1)]);
    }

    #[test]
    fn merge_equals_recording_everything_in_one_histogram() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut whole = Histogram::default();
        for v in [0u64, 3, 17] {
            a.observe(v);
            whole.observe(v);
        }
        for v in [2u64, 4096] {
            b.observe(v);
            whole.observe(v);
        }
        a.merge(&b);
        assert_eq!((a.count, a.sum, a.min, a.max), (5, 4118, 0, 4096));
        assert_eq!(a.buckets(), whole.buckets());
        // Merging an empty histogram is a no-op either way.
        a.merge(&Histogram::default());
        assert_eq!(a.buckets(), whole.buckets());
        let mut empty = Histogram::default();
        empty.merge(&whole);
        assert_eq!(empty.buckets(), whole.buckets());
        assert_eq!(empty.min, 0);
    }

    #[test]
    fn snapshot_is_deterministic_and_tagged() {
        let mut r = MetricsRegistry::new();
        r.counter("b", 2);
        r.counter("a", 1);
        r.gauge("g", 0.5);
        r.observe("h", 7);
        let s1 = r.snapshot_json();
        let s2 = r.clone().snapshot_json();
        assert_eq!(s1, s2);
        assert!(s1.contains("\"schema\":\"obs_metrics/v1\""));
        // BTreeMap ordering: "a" serializes before "b".
        assert!(s1.find("\"a\":1").unwrap() < s1.find("\"b\":2").unwrap());
    }
}

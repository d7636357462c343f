//! Summary statistics and the benchmark's own rules: the tail
//! percentile, the layer-sum tolerance and the metric-name grammar.

/// Percentiles the tail rule may report, highest last.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The fastest of several identical repetitions. On a host whose
/// speed swings with other tenants' memory traffic, the fastest
/// repetition is the steady estimate of the work's own cost.
pub fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The highest percentile of [`LADDER`] with at least [`TAIL_BEYOND`]
/// samples strictly beyond its nearest-rank position, as
/// `(percentile, value)`; `None` when there are too few samples for
/// even the median to qualify.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    LADDER.iter().rev().find_map(|&p| {
        // Nearest rank: the smallest rank r with r/n >= p/100.
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= TAIL_BEYOND).then(|| (p, s[rank - 1]))
    })
}

/// A timing as the benchmark reports it: median, the tail percentile
/// rule, and the sample count.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub median: f64,
    pub tail: Option<(f64, f64)>,
    pub n: usize,
}

impl Timing {
    pub fn of(v: &[f64]) -> Timing {
        Timing {
            median: median(v),
            tail: tail(v),
            n: v.len(),
        }
    }

    /// `median 1.234 ms, p75 1.5 ms (n=40)` in the given unit.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("p{p} {v:.4} {unit}"),
            None => format!("no tail (needs {} samples)", 2 * TAIL_BEYOND),
        };
        format!("median {:.4} {unit}, {tail} (n={})", self.median, self.n)
    }
}

/// Length of the union of `[start, end)` intervals: the wall time that
/// at least one timed call covers, counting overlaps (concurrent or
/// nested calls) once.
pub fn covered(intervals: &[(f64, f64)]) -> f64 {
    let mut v = intervals.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in v {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0.0, |(s, e)| e - s)
}

/// Share of `total` wall time that `covered` seconds of timed calls
/// leave unattributed.
pub fn unattributed_share(covered: f64, total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    ((total - covered) / total).max(0.0)
}

/// Do `covered` seconds of timed calls account for `total` within
/// `tolerance` (a share of `total`), without exceeding it?
pub fn layers_cover(covered: f64, total: f64, tolerance: f64) -> bool {
    total > 0.0 && covered <= total * (1.0 + 1e-9) && (total - covered) <= tolerance * total
}

/// A metric name: starts with a letter or digit, at most 64 letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(fastest(&[]), f64::INFINITY);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: the median's rank is 10, leaving only 9 beyond.
        assert_eq!(tail(&ramp(19)), None);
        // 20 samples: rank 10 leaves exactly 10 beyond.
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        // 40 samples: p75 has rank 30 and 10 beyond; p90 only 4.
        assert_eq!(tail(&ramp(40)), Some((75.0, 30.0)));
        // 100 samples: p90 has 10 beyond, p95 only 5.
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        // 1000 samples: p99 has 10 beyond, p99.9 only 1.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v = ramp(40);
        v.reverse();
        assert_eq!(tail(&v), Some((75.0, 30.0)));
    }

    #[test]
    fn covered_counts_overlaps_once() {
        assert_eq!(covered(&[]), 0.0);
        assert_eq!(covered(&[(0.0, 1.0), (2.0, 3.0)]), 2.0);
        // Nested and concurrent calls.
        assert_eq!(covered(&[(0.0, 4.0), (1.0, 2.0), (3.0, 5.0)]), 5.0);
        assert_eq!(covered(&[(3.0, 5.0), (0.0, 1.0), (0.5, 1.5)]), 3.5);
    }

    #[test]
    fn layer_sum_tolerance() {
        assert!(layers_cover(0.95, 1.0, 0.10));
        assert!(!layers_cover(0.8, 1.0, 0.10), "20% unattributed");
        assert!(!layers_cover(1.1, 1.0, 0.10), "over-coverage");
        assert!(!layers_cover(0.0, 0.0, 0.10), "empty wall");
        assert!((unattributed_share(0.8, 1.0) - 0.2).abs() < 1e-12);
        assert_eq!(unattributed_share(1.1, 1.0), 0.0);
    }

    #[test]
    fn metric_name_grammar() {
        for good in [
            "op_ms",
            "kernel.evals",
            "eval.resim_share",
            "9lives",
            "a-b.c_d",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".dot",
            "space name",
            "slash/name",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["ms", "s", "1/s", "count", "%", "MB", "share"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "per second", "seventeen_chars_x"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}

//! Sample statistics: the latency sample, the tail-percentile rule, medians and
//! geometric means.

/// The percentiles the tail rule chooses from, ascending.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile before it may be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Op latencies of one timed phase. A failed op stays in the sample as an
/// infinite latency, so it counts as over any latency limit and can never be
/// dropped from the percentiles.
#[derive(Debug, Default, Clone)]
pub struct LatencySample {
    ms: Vec<f64>,
    failed: u64,
}

/// A percentile chosen by [`LatencySample::tail`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub percentile: f64,
    /// The latency at that percentile, milliseconds (infinite when a failed op
    /// lands there).
    pub ms: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

impl LatencySample {
    /// Records one op: its measured latency, or a failure.
    pub fn record(&mut self, ms: f64, ok: bool) {
        if ok {
            self.ms.push(ms);
        } else {
            self.failed += 1;
            self.ms.push(f64::INFINITY);
        }
    }

    /// Appends every op of another sample.
    pub fn extend(&mut self, other: &LatencySample) {
        self.ms.extend_from_slice(&other.ms);
        self.failed += other.failed;
    }

    /// Ops recorded, failed ones included.
    pub fn attempted(&self) -> u64 {
        self.ms.len() as u64
    }

    /// Failed ops recorded.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.ms.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    /// Nearest-rank percentile; `None` on an empty sample.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let sorted = self.sorted();
        let rank = nearest_rank(sorted.len(), p)?;
        Some(sorted[rank - 1])
    }

    /// The highest percentile of the ladder that has at least
    /// [`TAIL_MIN_BEYOND`] samples beyond its rank; `None` when even the median
    /// has fewer.
    pub fn tail(&self) -> Option<Tail> {
        let sorted = self.sorted();
        TAIL_LADDER.iter().rev().find_map(|&p| {
            let rank = nearest_rank(sorted.len(), p)?;
            let beyond = sorted.len() - rank;
            (beyond >= TAIL_MIN_BEYOND).then(|| Tail {
                percentile: p,
                ms: sorted[rank - 1],
                beyond,
            })
        })
    }
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// Median of a non-empty list (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values; `NaN` for an empty list.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> LatencySample {
        let mut sample = LatencySample::default();
        for i in 1..=n {
            sample.record(i as f64, true);
        }
        sample
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
        let tail = sample(1000).tail().expect("enough samples");
        assert_eq!(tail.percentile, 99.0);
        assert_eq!(tail.beyond, 10);
        assert_eq!(tail.ms, 990.0);
        // One sample fewer and p99 has only 9 beyond it: p95 is reported.
        let tail = sample(999).tail().expect("enough samples");
        assert_eq!(tail.percentile, 95.0);
        assert!(tail.beyond >= TAIL_MIN_BEYOND);
        // 100 samples: p90 leaves exactly 10.
        assert_eq!(sample(100).tail().map(|t| t.percentile), Some(90.0));
        assert_eq!(sample(40).tail().map(|t| t.percentile), Some(75.0));
        assert_eq!(sample(20).tail().map(|t| t.percentile), Some(50.0));
        assert_eq!(sample(19).tail(), None);
    }

    #[test]
    fn failed_ops_are_counted_and_stay_in_the_latency_sample() {
        let mut sample = sample(99);
        sample.record(0.5, false);
        assert_eq!(sample.attempted(), 100);
        assert_eq!(sample.failed(), 1);
        // The failure sorts above every real latency: it is the maximum, and the
        // median moved up by half a rank compared to dropping it.
        assert_eq!(sample.percentile(100.0), Some(f64::INFINITY));
        assert_eq!(sample.percentile(50.0), Some(50.0));
        // Sixteen failures reach down to the p90 rank, so the tail reads infinite.
        for _ in 0..15 {
            sample.record(0.5, false);
        }
        let tail = sample.tail().expect("enough samples");
        assert_eq!(tail.percentile, 90.0);
        assert!(tail.ms.is_infinite());
    }

    #[test]
    fn medians_and_geomeans() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}

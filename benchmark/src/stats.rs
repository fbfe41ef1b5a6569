//! Order statistics over the benchmark's own samples.

/// Median of unsorted samples (mean of the two middle ones for an even count).
pub fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// Latency samples in nanoseconds, sorted once.
#[derive(Debug, Clone)]
pub struct Latencies {
    sorted_ns: Vec<u64>,
    sum_ns: u64,
}

impl Latencies {
    pub fn new(mut samples_ns: Vec<u64>) -> Self {
        samples_ns.sort_unstable();
        let sum_ns = samples_ns.iter().sum();
        Latencies {
            sorted_ns: samples_ns,
            sum_ns,
        }
    }

    pub fn count(&self) -> usize {
        self.sorted_ns.len()
    }

    pub fn sum_secs(&self) -> f64 {
        self.sum_ns as f64 / 1e9
    }

    pub fn p50_us(&self) -> f64 {
        self.at(self.sorted_ns.len() / 2)
    }

    /// The 99th percentile, or below 1 100 samples the highest percentile that
    /// still has ten samples beyond it.  Returns (percentile, microseconds).
    pub fn tail_us(&self) -> (f64, f64) {
        let n = self.sorted_ns.len();
        let p99 = (n * 99).div_ceil(100).saturating_sub(1);
        let index = p99.min(n.saturating_sub(11));
        (100.0 * (index + 1) as f64 / n as f64, self.at(index))
    }

    fn at(&self, index: usize) -> f64 {
        self.sorted_ns[index] as f64 / 1e3
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let m = n + 1;
    std::array::from_fn(|q| {
        let i = q + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// Distance between the first and third quartile as a share of the median.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let few = Latencies::new((1..=100u64).map(|i| i * 1000).collect());
        assert_eq!(few.tail_us(), (90.0, 90.0));
        let many = Latencies::new((1..=2000u64).map(|i| i * 1000).collect());
        assert_eq!(many.tail_us(), (99.0, 1980.0));
        assert_eq!(many.p50_us(), 1001.0);
    }
}

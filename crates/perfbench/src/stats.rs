//! Order statistics over timed blocks or requests.

/// Median of an unsorted sample (mean of the two middle values when the
/// count is even). Panics on an empty sample: every caller times at least
/// one block.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile (`pct` in 1..=100) of an ascending sample.
pub fn percentile(sorted: &[f64], pct: u32) -> f64 {
    assert!(!sorted.is_empty() && (1..=100).contains(&pct));
    let rank = (sorted.len() * pct as usize).div_ceil(100);
    sorted[rank.max(1) - 1]
}

/// The highest of p99/p95/p90/p75 that still has at least ten samples
/// beyond it, or `None` when even p75 does not (n < 40): a tail read off
/// fewer than ten samples is one slow block, not a percentile.
pub fn tail_percentile(n: usize) -> Option<u32> {
    [99u32, 95, 90, 75]
        .into_iter()
        .find(|&p| n - (n * p as usize).div_ceil(100) >= 10)
}

/// What the ledger stores for one timed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub min: f64,
    /// Nearest-rank 25th and 75th percentiles.
    pub q1: f64,
    pub q3: f64,
    pub max: f64,
    /// `(percentile, value)` per [`tail_percentile`].
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Self {
            n: v.len(),
            median: median(&v),
            min: v[0],
            q1: percentile(&v, 25),
            q3: percentile(&v, 75),
            max: v[v.len() - 1],
            tail: tail_percentile(v.len()).map(|p| (p, percentile(&v, p))),
        }
    }

    /// A single derived number (a rate, a peak): no spread of its own.
    pub fn single(value: f64) -> Self {
        Self {
            n: 1,
            median: value,
            min: value,
            q1: value,
            q3: value,
            max: value,
            tail: None,
        }
    }

    /// `self` with every value multiplied by `k > 0` (unit conversion).
    pub fn scaled(&self, k: f64) -> Self {
        Self {
            n: self.n,
            median: self.median * k,
            min: self.min * k,
            q1: self.q1 * k,
            q3: self.q3 * k,
            max: self.max * k,
            tail: self.tail.map(|(p, v)| (p, v * k)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[5.0, 9.0], 1), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(24), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(999), Some(95));
        assert_eq!(tail_percentile(1000), Some(99));
    }

    #[test]
    fn summary_carries_extremes_and_tail() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.n, s.min, s.max), (1000, 1.0, 1000.0));
        assert_eq!((s.q1, s.q3), (250.0, 750.0));
        assert_eq!(s.median, 500.5);
        assert_eq!(s.tail, Some((99, 990.0)));
        assert_eq!(Summary::single(2.0).tail, None);
        assert_eq!(
            Summary::of(&[2.0, 4.0]).scaled(0.5),
            Summary::of(&[1.0, 2.0])
        );
    }
}

//! Order statistics for timing samples.
//!
//! Quantiles use the "exclusive" interpolation of Python's
//! `statistics.quantiles` (the default method), so spreads printed here
//! match the ones computed from the benchmark's JSON lines with Python.

/// The `p`-th percentile (`0 < p < 100`) of an ascending slice, by
/// Python's exclusive method: rank `p/100 · (n+1)`, interpolated between
/// its neighbours. Ranks outside `[1, n]` are clamped to the sample range
/// where Python extrapolates; for quartiles that only happens below three
/// samples.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    let rank = (p / 100.0 * (n + 1) as f64).clamp(1.0, n as f64);
    let j = rank.floor() as usize;
    let below = sorted[j - 1];
    let above = sorted[j.min(n - 1)];
    below + (above - below) * (rank - j as f64)
}

/// Median of unsorted samples (mean of the two middle values for an even
/// count).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Sample summary: median, quartiles, and the highest percentile that
/// still has at least ten samples beyond it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(percentile, value)` of the highest of p90/p99/p99.9 with at
    /// least ten samples beyond it; `None` below 100 samples.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Interquartile range as a share of the median (0 for a zero median).
    #[must_use]
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

/// Summarises unsorted samples.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn summary(values: &[f64]) -> Summary {
    let sorted = sorted(values);
    let n = sorted.len();
    let tail = [99.9, 99.0, 90.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .map(|p| (p, percentile(&sorted, p)));
    Summary {
        n,
        median: percentile(&sorted, 50.0),
        q1: percentile(&sorted, 25.0),
        q3: percentile(&sorted, 75.0),
        tail,
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let s = summary(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(s.n, 10);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = summary(&[1.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // Python extrapolates two samples to [0.75, 1.5, 2.25]; ranks are
        // clamped to the samples here.
        let s = summary(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 1.5, 2.0));
        assert_eq!(percentile(&[1.0, 2.0], 90.0), 2.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = summary(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert!((s.spread() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(summary(&[0.0, 0.0]).spread(), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let few: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(summary(&few).tail, None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, value) = summary(&hundred).tail.expect("p90 has 10 beyond");
        assert_eq!(p, 90.0);
        // statistics.quantiles(range(1, 101), n=10)[-1] == 90.9
        assert!((value - 90.9).abs() < 1e-9);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(summary(&thousand).tail.map(|t| t.0), Some(99.0));
    }
}

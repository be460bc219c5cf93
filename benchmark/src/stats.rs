//! The one percentile routine of the benchmark.
//!
//! A median is always defined (one sample is its own median). Any higher
//! percentile is emitted only when at least [`MIN_BEYOND`] samples lie
//! beyond it, so a tail figure is never read off a handful of samples —
//! and never silently equals the median because both were read off the
//! same one sample.

/// Samples that must lie strictly beyond a percentile for it to be emitted.
pub const MIN_BEYOND: usize = 10;

/// A sorted sample set.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
        Samples { sorted: values }
    }

    /// Sample count — printed beside every timing.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// The median (mean of the two middle samples when `n` is even), or
    /// `None` without samples.
    pub fn median(&self) -> Option<f64> {
        let n = self.sorted.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(self.sorted[n / 2]),
            _ => Some((self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0),
        }
    }

    /// Nearest-rank percentile `p` in (50, 100), or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it (p95 needs 200 samples).
    pub fn tail(&self, p: f64) -> Option<f64> {
        assert!(
            p > 50.0 && p < 100.0,
            "tail() is for percentiles above the median"
        );
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let idx = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
        (n - 1 - idx >= MIN_BEYOND).then(|| self.sorted[idx])
    }
}

/// Median of a slice, 0 when empty (for per-layer figures, where an
/// absent layer reads as zero work).
pub fn median_or_zero(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median().unwrap_or(0.0)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (exclusive method), for `compare`'s spread: needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let s = Samples::new(values.to_vec()).sorted;
    let n = s.len();
    if n < 2 {
        return None;
    }
    let q = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + frac * (s[j] - s[j - 1])
    };
    Some((q(1), q(2), q(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_sample_gives_a_median_and_no_tail() {
        // The PR 11 case: a batch workload that timed one op printed
        // p95 == p50. One sample has a median and nothing else.
        let s = Samples::new(vec![42.0]);
        assert_eq!(s.n(), 1);
        assert_eq!(s.median(), Some(42.0));
        assert_eq!(s.tail(95.0), None);
        assert_eq!(s.tail(75.0), None);
    }

    #[test]
    fn no_samples_give_nothing() {
        let s = Samples::new(Vec::new());
        assert_eq!(s.median(), None);
        assert_eq!(s.tail(95.0), None);
    }

    #[test]
    fn p95_needs_two_hundred_samples() {
        let v = |n: usize| Samples::new((1..=n).map(|x| x as f64).collect());
        assert_eq!(v(199).tail(95.0), None);
        assert_eq!(v(200).tail(95.0), Some(190.0));
        assert_eq!(v(1000).tail(95.0), Some(950.0));
        // p75 needs 40+ samples, so a 12-op batch run never prints one.
        assert_eq!(v(12).tail(75.0), None);
        assert_eq!(v(44).tail(75.0), Some(33.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(Samples::new(vec![3.0, 1.0, 2.0]).median(), Some(2.0));
        assert_eq!(Samples::new(vec![4.0, 1.0, 3.0, 2.0]).median(), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        let (q1, q2, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, _, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }
}

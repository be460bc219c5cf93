//! Fixed-bucket histograms with lock-free observation.
//!
//! Buckets are chosen at registration and never change, so `observe` is a
//! binary search plus two atomic adds — safe to call from worker threads
//! on every job. Quantiles (p50/p90/p99) are estimated at read time by
//! linear interpolation within the owning bucket, the same estimate
//! Prometheus' `histogram_quantile` computes from the exposition; the
//! error is bounded by the bucket width, which is the deal fixed-bucket
//! histograms make for a lock-free hot path.
//!
//! Edge cases are defined, not accidental:
//! - **zero samples** — every quantile is 0, `sum` is 0;
//! - **out-of-range values** — samples above the last bound land in the
//!   implicit `+Inf` bucket (quantiles then report the last finite bound:
//!   the histogram honestly can't resolve further); negative samples
//!   clamp into the first bucket;
//! - **non-finite values** — NaN/±Inf are counted (the event happened)
//!   but contribute 0 to the sum so one poisoned sample cannot destroy
//!   the aggregate;
//! - **saturating counts** — bucket counts pin at `u64::MAX` like
//!   [`Counter`](crate::registry::Counter).

use std::sync::atomic::{AtomicU64, Ordering};

pub struct Histogram {
    /// Finite upper bounds, strictly increasing. An implicit `+Inf`
    /// bucket follows the last.
    bounds: Vec<f64>,
    /// `bounds.len() + 1` buckets; `buckets[i]` counts samples with
    /// `value <= bounds[i]` (last bucket: everything else).
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of finite samples, stored as f64 bits and CAS-added.
    sum_bits: AtomicU64,
}

fn saturating_inc(a: &AtomicU64) {
    let mut cur = a.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_add(1);
        match a.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

impl Histogram {
    /// `bounds` must be finite, strictly increasing, and non-empty.
    pub fn new(bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        for w in bounds.windows(2) {
            assert!(w[0] < w[1], "bounds must be strictly increasing");
        }
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "bounds must be finite (the +Inf bucket is implicit)"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Standard latency bounds in milliseconds: 0.1 ms … ~100 s in
    /// roughly ×3 steps.
    pub fn latency_ms_bounds() -> Vec<f64> {
        vec![
            0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1_000.0, 3_000.0, 10_000.0, 30_000.0,
            100_000.0,
        ]
    }

    pub fn observe(&self, value: f64) {
        let idx = if value.is_nan() {
            // The event happened; count it where it can't skew quantiles
            // downward (the overflow bucket).
            self.buckets.len() - 1
        } else {
            self.bounds.partition_point(|&b| b < value)
        };
        saturating_inc(&self.buckets[idx]);
        saturating_inc(&self.count);
        if value.is_finite() {
            let mut cur = self.sum_bits.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(cur) + value).to_bits();
                match self.sum_bits.compare_exchange_weak(
                    cur,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Upper bounds (finite part) and per-bucket counts, cumulative form
    /// left to the caller. Used by the Prometheus renderer.
    pub fn snapshot(&self) -> (Vec<f64>, Vec<u64>) {
        (
            self.bounds.clone(),
            self.buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        )
    }

    /// Estimate the `q`-quantile (0 ≤ q ≤ 1) by interpolating within the
    /// owning bucket. Zero samples → 0. Samples beyond the last finite
    /// bound report that bound.
    pub fn quantile(&self, q: f64) -> f64 {
        let (bounds, counts) = self.snapshot();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based, at least 1.
        let rank = ((total as f64 * q).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            let prev_seen = seen;
            seen = seen.saturating_add(c);
            if seen >= rank {
                if i >= bounds.len() {
                    // +Inf bucket: the honest answer is "at least the
                    // last finite bound".
                    return *bounds.last().unwrap();
                }
                let lo = if i == 0 { 0.0 } else { bounds[i - 1] };
                let hi = bounds[i];
                if c == 0 {
                    return hi;
                }
                let frac = (rank - prev_seen) as f64 / c as f64;
                return lo + (hi - lo) * frac.clamp(0.0, 1.0);
            }
        }
        *bounds.last().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_samples_are_all_zero() {
        let h = Histogram::new(&[1.0, 10.0]);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.quantile(0.99), 0.0);
        let (bounds, counts) = h.snapshot();
        assert_eq!(bounds, vec![1.0, 10.0]);
        assert_eq!(counts, vec![0, 0, 0]);
    }

    #[test]
    fn samples_land_in_the_right_buckets() {
        let h = Histogram::new(&[1.0, 10.0, 100.0]);
        for v in [0.5, 1.0, 5.0, 50.0, 500.0] {
            h.observe(v);
        }
        let (_, counts) = h.snapshot();
        // 0.5 and 1.0 (≤ 1.0) | 5.0 | 50.0 | 500.0 overflow
        assert_eq!(counts, vec![2, 1, 1, 1]);
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 556.5).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_values_clamp_not_crash() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.observe(-5.0); // below range → first bucket
        h.observe(1e300); // far above → +Inf bucket
        let (_, counts) = h.snapshot();
        assert_eq!(counts, vec![1, 0, 1]);
        // Quantiles can't resolve past the last finite bound.
        assert_eq!(h.quantile(0.99), 2.0);
        // The negative sample still contributes to the sum (finite).
        assert!((h.sum() - (1e300 - 5.0)).abs() < 1e285);
    }

    #[test]
    fn non_finite_samples_count_but_do_not_poison_the_sum() {
        let h = Histogram::new(&[1.0]);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(0.5);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 0.5, "NaN/Inf must not reach the sum");
        let (_, counts) = h.snapshot();
        assert_eq!(counts, vec![1, 2], "NaN and +Inf land in the last bucket");
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::new(&[10.0, 20.0, 30.0]);
        // 10 samples in (10, 20].
        for _ in 0..10 {
            h.observe(15.0);
        }
        let p50 = h.quantile(0.5);
        assert!((10.0..=20.0).contains(&p50), "p50 {p50}");
        assert_eq!(h.quantile(1.0), 20.0);
        // Add 90 samples in (20, 30] → p50 moves into the third bucket.
        for _ in 0..90 {
            h.observe(25.0);
        }
        let p50 = h.quantile(0.5);
        assert!((20.0..=30.0).contains(&p50), "p50 {p50}");
        let (p90, p99) = (h.quantile(0.9), h.quantile(0.99));
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
    }

    #[test]
    fn saturating_counts_pin_at_max() {
        let h = Histogram::new(&[1.0]);
        // Force the count to the brink, then step over it.
        h.count.store(u64::MAX - 1, Ordering::Relaxed);
        h.buckets[0].store(u64::MAX - 1, Ordering::Relaxed);
        h.observe(0.5);
        h.observe(0.5);
        assert_eq!(h.count(), u64::MAX);
        let (_, counts) = h.snapshot();
        assert_eq!(counts[0], u64::MAX);
        // Quantiles still answer (no overflow panic in the scan).
        assert!(h.quantile(0.5) <= 1.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_are_rejected() {
        Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "at least one bound")]
    fn empty_bounds_are_rejected() {
        Histogram::new(&[]);
    }
}

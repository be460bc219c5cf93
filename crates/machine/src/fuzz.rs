//! Deterministic-simulation-testing hooks: schedule fuzzing and timing
//! perturbation for [`Machine`](crate::Machine).
//!
//! The SPMD algorithms in this workspace must produce bit-identical results
//! under *any* rank schedule: the simulated clocks are charged in rank
//! order regardless of host execution order. A [`Schedule`] installed on a
//! machine permutes the host-side execution order of `compute` closures
//! from a single `u64` seed, so any failure replays exactly. Exchanges
//! carry no data (see [`CostOnly`](crate::CostOnly)), so there is no
//! arrival order to shuffle.
//!
//! A [`Perturbation`] models the paper's tolerated timing nondeterminism:
//! per-rank compute skew (some ranks are slower) and extra latency on
//! every collective. Perturbations change *simulated time* but must never
//! change *data*: the pipeline's outputs are required to stay bit-identical
//! under any perturbation, and sp-verify asserts exactly that.

use sp_trace::fnv::splitmix64;

/// A seeded source of schedule decisions. Install with
/// [`Machine::set_schedule`](crate::Machine::set_schedule); the machine
/// then draws from it on every superstep. Two runs with the
/// same seed make identical decisions.
#[derive(Clone, Debug)]
pub struct Schedule {
    state: u64,
    pub seed: u64,
}

impl Schedule {
    pub fn seeded(seed: u64) -> Self {
        Schedule {
            // Avoid the all-zero state producing a low-entropy first draw.
            state: seed ^ 0xD1B5_4A32_D192_ED03,
            seed,
        }
    }

    #[inline]
    fn next(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// A random permutation of `0..n` (Fisher–Yates): `perm[i]` is the
    /// i-th item to run.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        perm
    }
}

/// Timing-only perturbation of the simulated machine.
///
/// * `compute_skew` — amplitude `a ≥ 0`: each rank's compute charges are
///   scaled by a seed-derived factor in `[1, 1+a]`, modelling slow ranks /
///   OS jitter. Skew never *discounts* work, so perturbed elapsed time is
///   always ≥ the unperturbed run's.
/// * `collective_delay` — extra simulated seconds added to the completion
///   time of every collective (a congested or late allreduce).
///
/// Neither knob touches data: what the ranks compute is exactly what the
/// unperturbed machine's ranks compute.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Perturbation {
    pub compute_skew: f64,
    pub collective_delay: f64,
    pub seed: u64,
}

impl Perturbation {
    /// Per-rank compute-slowdown factors in `[1, 1 + compute_skew]`.
    pub fn skew_factors(&self, p: usize) -> Vec<f64> {
        assert!(
            self.compute_skew >= 0.0,
            "skew must not discount work (got {})",
            self.compute_skew
        );
        (0..p as u64)
            .map(|r| {
                let mut s = self.seed ^ r.wrapping_mul(0xA24B_AED4_963E_E407);
                let unit = (splitmix64(&mut s) >> 11) as f64 / (1u64 << 53) as f64;
                1.0 + self.compute_skew * unit
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_replays_from_seed() {
        let mut a = Schedule::seeded(42);
        let mut b = Schedule::seeded(42);
        for n in [1usize, 2, 7, 64] {
            assert_eq!(a.permutation(n), b.permutation(n));
        }
        let mut c = Schedule::seeded(43);
        let pa: Vec<_> = (0..4).map(|_| a.permutation(16)).collect();
        let pc: Vec<_> = (0..4).map(|_| c.permutation(16)).collect();
        assert_ne!(pa, pc, "different seeds should diverge");
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut s = Schedule::seeded(7);
        for n in [0usize, 1, 2, 33] {
            let mut p = s.permutation(n);
            p.sort_unstable();
            assert_eq!(p, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn skew_factors_bounded_and_deterministic() {
        let pert = Perturbation {
            compute_skew: 0.5,
            collective_delay: 0.0,
            seed: 9,
        };
        let f = pert.skew_factors(64);
        assert_eq!(f, pert.skew_factors(64));
        assert!(f.iter().all(|&x| (1.0..=1.5).contains(&x)));
        // Non-degenerate: ranks actually differ.
        assert!(f.iter().any(|&x| (x - f[0]).abs() > 1e-6));
    }

    #[test]
    fn zero_skew_is_identity() {
        let pert = Perturbation::default();
        assert!(pert.skew_factors(8).iter().all(|&x| x == 1.0));
    }
}

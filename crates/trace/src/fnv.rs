//! Incremental FNV-1a (64-bit) fingerprinting, and the splitmix64 step.
//!
//! Hand-rolled and dependency-free so fingerprints are stable across
//! platforms, `rand` versions, and compiler releases: cache keys, verify
//! replay reports, and the `fingerprint` field echoed in sp-serve
//! responses must mean the same bits everywhere. Lives in sp-trace (the
//! workspace's dependency-free leaf) so the graph store, the machine, the
//! serving layer and the verification harness share one definition
//! without a dependency cycle; sp-verify re-exports both.

/// One splitmix64 step: advances `state` and returns the next word. The
/// schedule fuzzer, the hash ring and the verify harness draw from it
/// where they must not depend on `rand`.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Incremental FNV-1a (64-bit) over explicit words/bytes.
pub struct Fingerprint {
    h: u64,
}

impl Fingerprint {
    pub fn new() -> Self {
        Fingerprint {
            h: 0xCBF2_9CE4_8422_2325,
        }
    }

    #[inline]
    pub fn byte(&mut self, b: u8) {
        self.h ^= b as u64;
        self.h = self.h.wrapping_mul(0x100_0000_01B3);
    }

    #[inline]
    pub fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }

    #[inline]
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.byte(b);
        }
    }

    #[inline]
    pub fn f64_bits(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.h
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn matches_reference_fnv1a() {
        // Independent straight-line FNV-1a over the same bytes, so the
        // incremental accumulator cannot drift from the standard constants.
        let data = b"scalapart";
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for &b in data {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01B3);
        }
        let mut f = Fingerprint::new();
        f.bytes(data);
        assert_eq!(f.finish(), h);
    }

    #[test]
    fn splitmix64_matches_the_reference_words() {
        // Vigna's splitmix64 from state 0.
        let mut state = 0;
        let words: Vec<u64> = (0..3).map(|_| splitmix64(&mut state)).collect();
        assert_eq!(
            words,
            [
                0xe220_a839_7b1d_cdaf,
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f
            ]
        );
    }
}

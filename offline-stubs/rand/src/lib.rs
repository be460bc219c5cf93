//! The workspace's own `rand`: the `rand` 0.9 API surface the ScalaPart
//! workspace uses, over one deterministic splitmix64 stream. It is a
//! different stream from the crates.io crate's, and the one every recorded
//! number here comes from (see offline-stubs/README.md).

use std::ops::{Range, RangeInclusive};

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Sampling from a range type, mirroring `rand::distr::uniform::SampleRange`.
pub trait SampleRange<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

pub trait Random: Sized {
    fn random_from<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

pub trait Rng: RngCore {
    fn random<T: Random>(&mut self) -> T {
        T::random_from(self)
    }

    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    fn random_bool(&mut self, p: f64) -> bool {
        f64::random_from(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

fn to_unit_f64(x: u64) -> f64 {
    // 53 high bits -> [0, 1).
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl Random for u64 {
    fn random_from<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Random for u32 {
    fn random_from<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Random for f64 {
    fn random_from<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        to_unit_f64(rng.next_u64())
    }
}

impl Random for bool {
    fn random_from<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128) % span;
                (self.start as i128 + off as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let off = (rng.next_u64() as u128) % span;
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}

int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                self.start + (self.end - self.start) * (to_unit_f64(rng.next_u64()) as $t)
            }
        }
    )*};
}

float_range!(f32, f64);

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// splitmix64 — a decent small deterministic generator.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut r = StdRng {
                state: seed ^ 0x5DEE_CE66_D1CE_4E5B,
            };
            // Warm up so small seeds diverge.
            let _ = r.next_u64();
            r
        }
    }
}

pub mod seq {
    use super::Rng;

    pub trait SliceRandom {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            // Fisher–Yates.
            for i in (1..self.len()).rev() {
                let j = rng.random_range(0..=i);
                self.swap(i, j);
            }
        }
    }
}

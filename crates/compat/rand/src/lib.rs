//! Offline stand-in for the `rand` crate.
//!
//! Provides the subset of the `rand 0.8` API this workspace uses — the
//! [`RngCore`] / [`Rng`] / [`SeedableRng`] traits and [`rngs::StdRng`] —
//! backed by xoshiro256++ seeded through splitmix64. Not cryptographically
//! secure (neither determinism-seeded simulation RNGs nor test RNGs need to
//! be); statistically solid and fully deterministic from the seed.

use std::ops::Range;

/// Low-level uniform bit generation.
pub trait RngCore {
    /// Next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

/// Types that can be sampled uniformly over their whole domain (the `Standard`
/// distribution of real rand).
pub trait Standard: Sized {
    /// Draws a uniform sample from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty => $via:ident),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.$via() as $t
            }
        }
    )*};
}

impl_standard_int!(u8 => next_u32, u16 => next_u32, u32 => next_u32, u64 => next_u64,
                   usize => next_u64, i8 => next_u32, i16 => next_u32, i32 => next_u32,
                   i64 => next_u64, isize => next_u64);

impl Standard for u128 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 / (1u32 << 24) as f32
    }
}

impl<const N: usize> Standard for [u8; N] {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        let mut out = [0u8; N];
        rng.fill_bytes(&mut out);
        out
    }
}

/// Ranges that can be sampled (the `SampleRange` of real rand).
pub trait SampleRange<T> {
    /// Draws a uniform sample from the range. Panics on an empty range,
    /// matching real rand.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

impl_sample_range_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                self.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )*};
}

impl_sample_range_int!(i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let unit = f64::sample(rng);
        let v = self.start + (self.end - self.start) * unit;
        // Guard against landing exactly on `end` through rounding, and keep
        // the result at or above `start` (matters for MIN_POSITIVE bounds).
        if v >= self.end {
            self.start
                .max(self.end - (self.end - self.start) * f64::EPSILON)
        } else {
            v.max(self.start)
        }
    }
}

impl SampleRange<f32> for Range<f32> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "cannot sample empty range");
        let unit = f32::sample(rng);
        (self.start + (self.end - self.start) * unit).clamp(self.start, self.end - f32::EPSILON)
    }
}

/// Convenience sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample over the full domain of `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Uniform sample from a range.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Bernoulli trial with success probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Deterministic construction from seeds.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // splitmix64 expansion, the reference seeding procedure for
            // xoshiro generators.
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.gen_range(3u64..17);
            assert!((3..17).contains(&v));
            let f = rng.gen_range(f64::MIN_POSITIVE..1.0);
            assert!(f > 0.0 && f < 1.0);
            let i = rng.gen_range(-10i64..1000);
            assert!((-10..1000).contains(&i));
        }
    }

    #[test]
    fn gen_bool_respects_probability() {
        let mut rng = StdRng::seed_from_u64(2);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate was {rate}");
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}

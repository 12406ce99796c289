//! Offline stand-in for the subset of `rand` 0.8 this repository uses.
//!
//! `SmallRng` is xoshiro256++ as in rand 0.8 on 64-bit targets, seeded
//! through SplitMix64. `gen::<f64>()` is 53 random bits in `[0, 1)`, as in
//! rand; the streams are not rand's bit for bit, and nothing here relies
//! on them being so: every oracle is computed from the generated data.

use std::ops::{Range, RangeInclusive};

/// The core of a random number generator.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
}

/// A generator that can be built from a seed.
pub trait SeedableRng: Sized {
    type Seed: Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    /// SplitMix64 fills the seed, as rand_core does (PCG32 there; the
    /// stream differs, the contract — a pure function of `state` — holds).
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let bytes = z.to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

pub mod distributions {
    use super::Rng;

    /// Types that can produce values of `T` from a generator.
    pub trait Distribution<T> {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// The "natural" distribution of a type: full range for integers,
    /// `[0, 1)` for floats, a fair coin for `bool`.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Standard;

    macro_rules! standard_int {
        ($($t:ty => $via:ident),*) => {$(
            impl Distribution<$t> for Standard {
                #[inline]
                fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> $t {
                    rng.$via() as $t
                }
            }
        )*};
    }
    standard_int!(u32 => next_u32, u64 => next_u64);

    impl Distribution<f64> for Standard {
        #[inline]
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
    impl Distribution<f32> for Standard {
        #[inline]
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
            (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
        }
    }
    impl Distribution<bool> for Standard {
        #[inline]
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
            (rng.next_u32() as i32) < 0
        }
    }
}

use distributions::{Distribution, Standard};

/// A range a value can be drawn from uniformly.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
    fn is_empty(&self) -> bool;
}

macro_rules! float_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let scale = self.end - self.start;
                loop {
                    let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                    let v = self.start + scale * unit as $t;
                    if v < self.end {
                        return v;
                    }
                }
            }
            fn is_empty(&self) -> bool {
                !(self.start < self.end)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let unit = (rng.next_u64() >> 11) as f64 * (1.0 / ((1u64 << 53) - 1) as f64);
                (lo + (hi - lo) * unit as $t).min(hi)
            }
            fn is_empty(&self) -> bool {
                !(self.start() <= self.end())
            }
        }
    )*};
}
float_range!(f32, f64);

/// User-level sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    #[inline]
    fn gen<T>(&mut self) -> T
    where
        Standard: Distribution<T>,
    {
        Standard.sample(self)
    }

    #[inline]
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is outside range [0.0, 1.0]");
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> Self {
            if seed.iter().all(|&b| b == 0) {
                return Self::seed_from_u64(0);
            }
            let mut s = [0u64; 4];
            for (word, chunk) in s.iter_mut().zip(seed.chunks_exact(8)) {
                *word = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        #[inline]
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        #[inline]
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

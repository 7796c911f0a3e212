//! # soc-rng
//!
//! A small, deterministic pseudo-random number generator for the whole
//! workspace: [SplitMix64] expands a 64-bit seed into the state of a
//! [xoshiro256**] generator. Both algorithms are public-domain
//! (Blackman & Vigna, <https://prng.di.unimi.it/>), pass BigCrush, and fit
//! the repository's all-from-scratch design — the workspace has **zero**
//! external runtime dependencies and builds with `cargo build --offline`.
//!
//! The generator is *not* cryptographically secure; it exists for workload
//! generation, random-walk mining, and property tests, all of which only
//! need speed and reproducibility. Every consumer seeds explicitly
//! ([`StdRng::seed_from_u64`]), so runs are deterministic given the seed.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c
//! [xoshiro256**]: https://prng.di.unimi.it/xoshiro256starstar.c

#![warn(missing_docs)]
#![warn(clippy::all)]

use std::ops::{Range, RangeInclusive};

/// The workspace's standard generator: xoshiro256** seeded via SplitMix64.
///
/// The name mirrors the generator the workspace previously pulled from the
/// external `rand` crate, keeping call sites short.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

/// One step of SplitMix64: the recommended seeder for the xoshiro family
/// (consecutive outputs of a counter-based mix are decorrelated even for
/// adjacent seeds such as 0 and 1).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl StdRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        // SplitMix64 never yields an all-zero 256-bit state (each output
        // is a bijection of a distinct counter value), so xoshiro's "not
        // everywhere zero" requirement holds for every seed.
        Self {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The generator for one stream of a seed-split family:
    /// `stream(seed, 0), stream(seed, 1), …` are decorrelated,
    /// reproducible generators derived from a single seed. Concurrent
    /// consumers (e.g. a benchmark's client connections) give each one
    /// its own stream index so results depend only on the seed — never
    /// on scheduling.
    pub fn stream(seed: u64, stream_index: u64) -> Self {
        // Run the index through one SplitMix64 step before XOR-ing into
        // the seed: adjacent stream indices land on decorrelated seeds,
        // and seed_from_u64 then decorrelates the four state words.
        let mut sm = stream_index;
        Self::seed_from_u64(seed ^ splitmix64(&mut sm))
    }

    /// The next 64 uniformly distributed bits (xoshiro256**).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform sample of type `T` (`f64` in `[0, 1)`, integers over
    /// their whole domain, `bool` fair).
    #[inline]
    pub fn random<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform sample from a (half-open or inclusive) range.
    ///
    /// # Panics
    /// Panics if the range is empty.
    #[inline]
    pub fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    /// Panics unless `0.0 <= p <= 1.0`.
    #[inline]
    pub fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        self.random::<f64>() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.random_range(0..i + 1);
            slice.swap(i, j);
        }
    }

    /// A uniform `u64` below `bound` (Lemire's multiply-shift with
    /// rejection — unbiased).
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    fn u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        // Rejection zone: the low `2^64 mod bound` part of the multiply
        // lattice is oversampled; resample while we land in it.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let wide = u128::from(x) * u128::from(bound);
            if (wide as u64) >= threshold {
                return (wide >> 64) as u64;
            }
        }
    }
}

/// Types [`StdRng::random`] can produce.
pub trait Sample {
    /// Draws one uniform value.
    fn sample(rng: &mut StdRng) -> Self;
}

impl Sample for u64 {
    #[inline]
    fn sample(rng: &mut StdRng) -> u64 {
        rng.next_u64()
    }
}

impl Sample for u32 {
    #[inline]
    fn sample(rng: &mut StdRng) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Sample for bool {
    #[inline]
    fn sample(rng: &mut StdRng) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

impl Sample for f64 {
    /// Uniform in `[0, 1)` with the full 53 bits of mantissa.
    #[inline]
    fn sample(rng: &mut StdRng) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges [`StdRng::random_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one uniform value from the range.
    fn sample(self, rng: &mut StdRng) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.u64_below(span) as i128) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range");
                let span = (end as i128 - start as i128) as u64;
                if span == u64::MAX {
                    return (rng.next_u64() as i128 + start as i128) as $t;
                }
                (start as i128 + rng.u64_below(span + 1) as i128) as $t
            }
        }
    )*};
}

impl_int_range!(usize, u64, u32, i64, i32);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample(self, rng: &mut StdRng) -> f64 {
        assert!(self.start < self.end, "empty range");
        let x = self.start + rng.random::<f64>() * (self.end - self.start);
        // Guard against rounding up to the excluded endpoint.
        if x < self.end {
            x
        } else {
            self.start
        }
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    #[inline]
    fn sample(self, rng: &mut StdRng) -> f64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "empty range");
        start + rng.random::<f64>() * (end - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn matches_reference_vectors() {
        // xoshiro256** seeded with SplitMix64(0): first outputs of the
        // reference C implementations chained exactly as we chain them.
        let mut sm = 0u64;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // SplitMix64 reference outputs for state starting at 0.
        assert_eq!(s[0], 0xE220_A839_7B1D_CDAF);
        assert_eq!(s[1], 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(s[2], 0x06C4_5D18_8009_454F);
        assert_eq!(s[3], 0xF88B_B8A8_724C_81EC);
        let rng = StdRng::seed_from_u64(0);
        assert_eq!(rng.s, s);
    }

    #[test]
    fn streams_are_deterministic_and_distinct() {
        for j in 0..8u64 {
            assert_eq!(StdRng::stream(42, j), StdRng::stream(42, j));
        }
        let firsts: Vec<u64> = (0..8u64)
            .map(|j| StdRng::stream(42, j).next_u64())
            .collect();
        let mut unique = firsts.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), firsts.len(), "stream collision: {firsts:?}");
        assert_ne!(StdRng::stream(42, 0), StdRng::stream(43, 0));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        assert!(
            (sum / 10_000.0 - 0.5).abs() < 0.02,
            "mean {}",
            sum / 10_000.0
        );
    }

    #[test]
    fn ranges_hit_all_values_and_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            let v = rng.random_range(0..5usize);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..1_000 {
            let v = rng.random_range(2..=4usize);
            assert!((2..=4).contains(&v));
            let f = rng.random_range(-1.5..2.5f64);
            assert!((-1.5..2.5).contains(&f));
            let i = rng.random_range(-3..6i32);
            assert!((-3..6).contains(&i));
        }
    }

    #[test]
    fn range_is_unbiased_enough() {
        // 3 does not divide 2^64; Lemire rejection must keep cells even.
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[rng.random_range(0..3usize)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 / 10_000.0 - 1.0).abs() < 0.05, "{counts:?}");
        }
    }

    #[test]
    fn bool_probability() {
        let mut rng = StdRng::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| rng.random_bool(0.25)).count();
        assert!((hits as f64 / 10_000.0 - 0.25).abs() < 0.02, "{hits}");
        assert!(!(0..100).any(|_| rng.random_bool(0.0)));
        assert!((0..100).all(|_| rng.random_bool(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        // Overwhelmingly likely to differ from identity.
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = rng.random_range(3..3usize);
    }
}

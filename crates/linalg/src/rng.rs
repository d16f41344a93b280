//! In-tree deterministic randomness for the whole workspace.
//!
//! Every stochastic subsystem (data generation, k-means initialisation,
//! model weight init, random node selection, query workloads) receives
//! its own derived seed so that changing one subsystem's consumption
//! pattern does not perturb the others.
//!
//! The generator is a from-scratch xoshiro256++ (Blackman & Vigna)
//! seeded through the SplitMix64 finaliser — no external crates, fully
//! reproducible across platforms, and fast enough for every hot path in
//! the workspace. The [`Rng`] trait and [`SliceRandom`] extension mirror
//! the small slice of the `rand` API the workspace actually uses, so
//! call sites read identically while the default build needs no
//! registry access.

/// Derives a child seed from a parent seed and a stream label.
///
/// Uses the SplitMix64 finaliser, which is a bijective avalanche mix — two
/// different `(seed, stream)` pairs essentially never collide in practice.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SplitMix64 step: advances the state and returns the mixed output.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The uniform-sampling surface the workspace relies on.
///
/// Mirrors the (tiny) subset of `rand::Rng` that the crates use:
/// [`Rng::gen`], [`Rng::gen_range`] and [`Rng::gen_bool`], all derived
/// from [`Rng::next_u64`].
pub trait Rng {
    /// The next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// A sample of `T` from its standard distribution (`f64`/`f32` are
    /// uniform in `[0, 1)`; integers are uniform over the full range).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// A uniform sample from `range` (half-open or inclusive).
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.gen::<f64>() < p
    }
}

/// Types samplable from their "standard" distribution (see [`Rng::gen`]).
pub trait Standard {
    /// Draws one sample.
    fn sample<R: Rng>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for f64 {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        // 53 high bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample<R: Rng>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws a uniform sample from `self`.
    fn sample_from<R: Rng>(self, rng: &mut R) -> T;
}

/// Unbiased-enough uniform integer in `[0, n)` via 128-bit
/// multiply-shift (Lemire). `n` must be positive.
fn uniform_u64<R: Rng>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0);
    ((rng.next_u64() as u128 * n as u128) >> 64) as u64
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end - self.start) as u64;
                self.start + uniform_u64(rng, span) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_from<R: Rng>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range in gen_range");
                let span = (hi - lo) as u64 + 1;
                lo + uniform_u64(rng, span) as $t
            }
        }
    )*};
}

int_range!(usize, u64, u32, i64);

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample_from<R: Rng>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range in gen_range");
        self.start + rng.gen::<f64>() * (self.end - self.start)
    }
}

impl SampleRange<f64> for std::ops::RangeInclusive<f64> {
    fn sample_from<R: Rng>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range in gen_range");
        lo + rng.gen::<f64>() * (hi - lo)
    }
}

/// Slice helpers mirroring `rand::seq::SliceRandom`.
pub trait SliceRandom {
    /// Element type.
    type Item;
    /// Fisher–Yates shuffle in place.
    fn shuffle<R: Rng>(&mut self, rng: &mut R);
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn shuffle<R: Rng>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = uniform_u64(rng, i as u64 + 1) as usize;
            self.swap(i, j);
        }
    }
}

/// The workspace's deterministic generator: xoshiro256++.
///
/// 256 bits of state, period `2^256 - 1`, and sub-nanosecond steps;
/// statistically robust for simulation workloads (this is not a
/// cryptographic generator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QensRng {
    s: [u64; 4],
}

impl QensRng {
    /// Seeds the full 256-bit state from `seed` via SplitMix64, as the
    /// xoshiro authors recommend.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }
}

impl Rng for QensRng {
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
}

/// Builds a deterministic RNG for a `(seed, stream)` pair.
pub fn rng_for(seed: u64, stream: u64) -> QensRng {
    QensRng::seed_from_u64(derive_seed(seed, stream))
}

/// Fills `out` with standard-normal samples (Box–Muller transform).
pub fn fill_standard_normal(rng: &mut impl Rng, out: &mut [f64]) {
    let mut i = 0;
    while i < out.len() {
        // Draw u1 in (0,1] to keep ln() finite.
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        out[i] = r * theta.cos();
        i += 1;
        if i < out.len() {
            out[i] = r * theta.sin();
            i += 1;
        }
    }
}

/// A single standard-normal sample.
pub fn standard_normal(rng: &mut impl Rng) -> f64 {
    let mut buf = [0.0];
    fill_standard_normal(rng, &mut buf);
    buf[0]
}

/// A normal sample with the given mean and standard deviation.
pub fn normal(rng: &mut impl Rng, mean: f64, std_dev: f64) -> f64 {
    mean + std_dev * standard_normal(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn derive_seed_is_deterministic_and_stream_sensitive() {
        assert_eq!(derive_seed(42, 1), derive_seed(42, 1));
        assert_ne!(derive_seed(42, 1), derive_seed(42, 2));
        assert_ne!(derive_seed(42, 1), derive_seed(43, 1));
    }

    #[test]
    fn rng_streams_are_reproducible() {
        let mut a = rng_for(7, 3);
        let mut b = rng_for(7, 3);
        let xa: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let xb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_eq!(xa, xb);
    }

    #[test]
    fn distinct_streams_diverge() {
        let mut a = rng_for(7, 3);
        let mut b = rng_for(7, 4);
        let xa: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let xb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(xa, xb);
    }

    #[test]
    fn gen_f64_is_in_unit_interval() {
        let mut rng = rng_for(11, 0);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x), "sample {x} outside [0,1)");
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = rng_for(2, 2);
        for _ in 0..10_000 {
            let i = rng.gen_range(3..17usize);
            assert!((3..17).contains(&i));
            let j = rng.gen_range(5..=9u64);
            assert!((5..=9).contains(&j));
            let x = rng.gen_range(-2.5..4.0);
            assert!((-2.5..4.0).contains(&x));
            let y = rng.gen_range(0.0..=1.0);
            assert!((0.0..=1.0).contains(&y));
        }
    }

    #[test]
    fn gen_range_covers_every_bucket() {
        let mut rng = rng_for(3, 3);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            seen[rng.gen_range(0..10usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "some buckets never hit: {seen:?}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = rng_for(9, 9);
        let mut xs: Vec<usize> = (0..50).collect();
        xs.shuffle(&mut rng);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, sorted, "50 elements staying sorted is ~impossible");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = rng_for(6, 6);
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.25)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn standard_normal_moments_are_plausible() {
        let mut rng = rng_for(123, 0);
        let mut xs = vec![0.0; 20_000];
        fill_standard_normal(&mut rng, &mut xs);
        assert!(stats::mean(&xs).abs() < 0.03, "mean {}", stats::mean(&xs));
        assert!(
            (stats::std_dev(&xs) - 1.0).abs() < 0.03,
            "std {}",
            stats::std_dev(&xs)
        );
    }

    #[test]
    fn fill_standard_normal_handles_odd_lengths() {
        let mut rng = rng_for(1, 1);
        let mut xs = vec![0.0; 7];
        fill_standard_normal(&mut rng, &mut xs);
        assert!(xs.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn normal_shifts_and_scales() {
        let mut rng = rng_for(5, 5);
        let xs: Vec<f64> = (0..20_000).map(|_| normal(&mut rng, 10.0, 2.0)).collect();
        assert!((stats::mean(&xs) - 10.0).abs() < 0.1);
        assert!((stats::std_dev(&xs) - 2.0).abs() < 0.1);
    }
}

//! # postopc-rng
//!
//! A small, dependency-free pseudo-random number generator for the
//! postopc workspace: xoshiro256++ state seeded through SplitMix64.
//!
//! The API mirrors the subset of the external `rand` crate the workspace
//! used ([`SeedableRng::seed_from_u64`], [`RngExt::random_range`],
//! `rngs::StdRng`), so call sites port with an import swap — which is the
//! point: the build must resolve with no network access (see the offline
//! tier-1 requirement in `ROADMAP.md`).
//!
//! Streams are stable across platforms and releases: experiment tables and
//! test expectations may rely on exact draws for a given seed.
//!
//! # Example
//!
//! ```
//! use postopc_rng::rngs::StdRng;
//! use postopc_rng::{RngExt, SeedableRng};
//! let mut rng = StdRng::seed_from_u64(7);
//! let u: f64 = rng.random_range(0.0..1.0);
//! assert!((0.0..1.0).contains(&u));
//! let k = rng.random_range(0..=5usize);
//! assert!(k <= 5);
//! ```

#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Construction of a generator from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Sampling methods shared by all generators.
pub trait RngExt {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform sample from `range`.
    ///
    /// Supported ranges: half-open and inclusive ranges of `f64` and of
    /// the integer types the workspace draws (`i32`, `i64`, `u32`, `u64`,
    /// `usize`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty (mirroring `rand`).
    fn random_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample(self)
    }
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    /// The workspace's standard generator: xoshiro256++.
    ///
    /// Not cryptographic — it backs deterministic test-case generation,
    /// placement gap insertion and Monte Carlo sampling.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        pub(crate) s: [u64; 4],
    }
}

pub use rngs::StdRng;

/// One step of the SplitMix64 sequence; also usable standalone as a
/// cheap integer mixer.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent child seed from a base seed and a stream index.
///
/// Used to give each Monte Carlo sample (or any other parallel work item)
/// its own generator whose stream does not depend on execution order —
/// the determinism keystone of the parallel analysis loops.
#[must_use]
pub fn split_seed(seed: u64, index: u64) -> u64 {
    let mut s = seed ^ index.wrapping_mul(0xA076_1D64_78BD_642F);
    // Two rounds decorrelate adjacent indices for any base seed.
    let first = splitmix64(&mut s);
    s ^= first;
    splitmix64(&mut s)
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> StdRng {
        // Expand the seed through SplitMix64 per the xoshiro authors'
        // recommendation; guarantees a non-zero state.
        let mut sm = seed;
        StdRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }
}

impl RngExt for StdRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        // xoshiro256++ by Blackman & Vigna (public domain reference).
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

/// `N` independent xoshiro256++ streams stepped in lockstep, state held
/// structure-of-arrays so one step's add/xor/rotate lattice runs as
/// straight-line `N`-wide lane loops (autovectorized in release builds).
///
/// Lane `l` replays exactly the stream of
/// `StdRng::seed_from_u64(seeds[l])` — the Monte Carlo batch sampler
/// relies on that equivalence for its scalar/batched bit-parity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneRng<const N: usize> {
    s: [[u64; N]; 4],
}

impl<const N: usize> LaneRng<N> {
    /// Builds the lockstep streams of `seeds`, each expanded through
    /// SplitMix64 exactly as [`SeedableRng::seed_from_u64`] expands one.
    #[must_use]
    pub fn seed_from(seeds: [u64; N]) -> Self {
        let mut s = [[0u64; N]; 4];
        for (l, &seed) in seeds.iter().enumerate() {
            let mut sm = seed;
            for word in &mut s {
                word[l] = splitmix64(&mut sm);
            }
        }
        LaneRng { s }
    }

    /// Steps every stream once; lane `l` of the result is the draw the
    /// scalar generator seeded with `seeds[l]` would produce at this
    /// position of its stream.
    #[inline]
    pub fn next_u64s(&mut self) -> [u64; N] {
        let [s0, s1, s2, s3] = &mut self.s;
        let mut out = [0u64; N];
        for l in 0..N {
            out[l] = s0[l]
                .wrapping_add(s3[l])
                .rotate_left(23)
                .wrapping_add(s0[l]);
        }
        for l in 0..N {
            let t = s1[l] << 17;
            s2[l] ^= s0[l];
            s3[l] ^= s1[l];
            s1[l] ^= s2[l];
            s0[l] ^= s3[l];
            s2[l] ^= t;
            s3[l] = s3[l].rotate_left(45);
        }
        out
    }
}

/// A range that [`RngExt::random_range`] can sample from.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draws one uniform sample using `rng`.
    fn sample<G: RngExt>(self, rng: &mut G) -> Self::Output;
}

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample<G: RngExt>(self, rng: &mut G) -> f64 {
        assert!(self.start < self.end, "empty range {:?}", self);
        unit_range_f64(rng.next_u64(), self.start, self.end)
    }
}

/// Maps 64 raw uniform bits onto `[start, end)`: the top 53 bits as a
/// uniform in `[0, 1)`, lerped onto the range, with the pathological
/// round-up-to-`end` case folded back to `start`.
///
/// This is the sampling kernel of [`RngExt::random_range`] over
/// `Range<f64>`, exposed so lane-parallel fills over [`LaneRng`] draws
/// run the identical float ops — and so produce the identical bits — as
/// the scalar path.
#[inline]
#[must_use]
pub fn unit_range_f64(raw: u64, start: f64, end: f64) -> f64 {
    let u = (raw >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let v = start + u * (end - start);
    if v < end {
        v
    } else {
        start
    }
}

impl SampleRange for RangeInclusive<f64> {
    type Output = f64;
    fn sample<G: RngExt>(self, rng: &mut G) -> f64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "empty range {:?}", self);
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        start + u * (end - start)
    }
}

/// Uniform integer in `[0, span)` via Lemire's widening-multiply map;
/// bias is at most 2⁻⁶⁴·span — immaterial for simulation workloads.
#[inline]
fn bounded<G: RngExt>(rng: &mut G, span: u64) -> u64 {
    ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample<G: RngExt>(self, rng: &mut G) -> $t {
                assert!(self.start < self.end, "empty range {:?}", self);
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + bounded(rng, span) as i128) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample<G: RngExt>(self, rng: &mut G) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range {:?}", self);
                let span = (end as i128 - start as i128) as u128 + 1;
                if span > u128::from(u64::MAX) {
                    // Full-width range: every bit pattern is valid.
                    return rng.next_u64() as $t;
                }
                (start as i128 + bounded(rng, span as u64) as i128) as $t
            }
        }
    )*};
}

impl_int_range!(i32, i64, u32, u64, usize);

/// Tail boundary of [`normal_quantile`]: uniforms outside
/// `NORMAL_QUANTILE_P_LOW ..= 1 − NORMAL_QUANTILE_P_LOW` take the tail
/// branches, everything else the vectorizable central branch
/// ([`normal_quantile_central`]).
pub const NORMAL_QUANTILE_P_LOW: f64 = 0.02425;

/// Acklam coefficients: central-region numerator (`A`) / denominator
/// (`B`), tail numerator (`C`) / denominator (`D`). Shared by the scalar
/// quantile and lane-parallel fills so both produce identical bits.
const A: [f64; 6] = [
    -3.969_683_028_665_376e1,
    2.209_460_984_245_205e2,
    -2.759_285_104_469_687e2,
    1.383_577_518_672_69e2,
    -3.066_479_806_614_716e1,
    2.506_628_277_459_239,
];
const B: [f64; 5] = [
    -5.447_609_879_822_406e1,
    1.615_858_368_580_409e2,
    -1.556_989_798_598_866e2,
    6.680_131_188_771_972e1,
    -1.328_068_155_288_572e1,
];
const C: [f64; 6] = [
    -7.784_894_002_430_293e-3,
    -3.223_964_580_411_365e-1,
    -2.400_758_277_161_838,
    -2.549_732_539_343_734,
    4.374_664_141_464_968,
    2.938_163_982_698_783,
];
const D: [f64; 4] = [
    7.784_695_709_041_462e-3,
    3.224_671_290_700_398e-1,
    2.445_134_137_142_996,
    3.754_408_661_907_416,
];

/// Standard-normal quantile (inverse CDF), Acklam's rational
/// approximation: relative error below `1.2e-9` over the open unit
/// interval, far cheaper than a Box–Muller transform (one uniform, no
/// trigonometry). This is the inverse-CDF kernel behind every Monte Carlo
/// sampling scheme in the workspace — plain and antithetic draws invert an
/// unconstrained uniform, and importance-sampled (tilted) streams shift
/// its output by a per-gate mean and replay the identical bits when
/// reweighting.
#[must_use]
pub fn normal_quantile(p: f64) -> f64 {
    if p < NORMAL_QUANTILE_P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p > 1.0 - NORMAL_QUANTILE_P_LOW {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else {
        normal_quantile_central(p)
    }
}

/// The central branch of [`normal_quantile`]
/// (`NORMAL_QUANTILE_P_LOW ..= 1 − NORMAL_QUANTILE_P_LOW`): pure
/// straight-line rational arithmetic, so a loop applying it to a whole
/// buffer autovectorizes. Outside the central region its value is
/// meaningless — callers must overwrite through the tail branches.
#[inline]
#[must_use]
pub fn normal_quantile_central(p: f64) -> f64 {
    let q = p - 0.5;
    let r = q * q;
    (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
        / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn lane_rng_replays_scalar_streams() {
        // The lockstep generator's whole contract: lane l IS the stream
        // of StdRng::seed_from_u64(seeds[l]), draw for draw.
        let seeds = [7u64, 0, 42, u64::MAX, 1, 2, 3, 0xDEAD_BEEF];
        let mut lanes = LaneRng::seed_from(seeds);
        let mut scalars: Vec<StdRng> = seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
        for _ in 0..256 {
            let step = lanes.next_u64s();
            for (l, rng) in scalars.iter_mut().enumerate() {
                assert_eq!(step[l], rng.next_u64(), "lane {l}");
            }
        }
    }

    #[test]
    fn unit_range_f64_matches_random_range() {
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            let direct = a.random_range(0.25..0.75);
            let via_raw = unit_range_f64(b.next_u64(), 0.25, 0.75);
            assert_eq!(direct.to_bits(), via_raw.to_bits());
        }
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_ne!(rng.s, [0; 4]);
        let draws: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert!(draws.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn float_range_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let v = rng.random_range(2.0..3.0);
            assert!((2.0..3.0).contains(&v));
        }
        let v = rng.random_range(5.0..=5.0);
        assert_eq!(v, 5.0);
    }

    #[test]
    fn int_range_bounds_and_coverage() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = rng.random_range(0..10);
            seen[usize::try_from(v).expect("in range")] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
        for _ in 0..1_000 {
            let v = rng.random_range(-5i64..=5);
            assert!((-5..=5).contains(&v));
        }
        assert_eq!(rng.random_range(7usize..8), 7);
        assert_eq!(rng.random_range(3u32..=3), 3);
    }

    #[test]
    fn float_range_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.random_range(0.0..1.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn split_seed_decorrelates_indices() {
        let seeds: Vec<u64> = (0..100).map(|i| split_seed(1, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        // Different base seeds give different families.
        assert_ne!(split_seed(1, 0), split_seed(2, 0));
        // And child streams actually differ.
        let mut a = StdRng::seed_from_u64(split_seed(1, 0));
        let mut b = StdRng::seed_from_u64(split_seed(1, 1));
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = rng.random_range(3..3);
    }

    #[test]
    fn normal_quantile_matches_tables_and_is_odd() {
        // Φ⁻¹ spot checks (values from standard tables).
        assert!((normal_quantile(0.5) - 0.0).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.959_963_985).abs() < 1e-6);
        assert!((normal_quantile(0.025) + 1.959_963_985).abs() < 1e-6);
        assert!((normal_quantile(0.841_344_746) - 1.0).abs() < 1e-6);
        // Tail branches (beyond the 0.02425 split) stay sane and odd.
        assert!((normal_quantile(0.001) + 3.090_232_306).abs() < 1e-6);
        assert!((normal_quantile(0.999) - 3.090_232_306).abs() < 1e-6);
        // Central branch agrees with the dispatcher inside its region.
        for p in [0.05, 0.25, 0.5, 0.75, 0.95] {
            assert_eq!(
                normal_quantile(p).to_bits(),
                normal_quantile_central(p).to_bits()
            );
        }
    }
}

//! # ssq-rng
//!
//! A small, deterministic, portable PRNG shared by the whole workspace.
//!
//! The experiment harness must generate byte-identical datasets across
//! platforms and library versions so that paper-reproduction runs are
//! comparable; external generators explicitly reserve the right to change
//! their algorithm between versions. We therefore use our own xoshiro256**
//! generator (Blackman & Vigna), seeded through SplitMix64 — the standard
//! pairing — which is `Clone`, tiny and stable forever.
//!
//! The crate has **no dependencies** so even the leaf crates (`ssq-geom`,
//! `ssq-rtree`, `ssq-delaunay`) can use it in their randomized test
//! suites without pulling anything from a registry; `ssq-workload`
//! re-exports it as `ssq_workload::rng` for backwards compatibility.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::all)]

/// xoshiro256** seeded via SplitMix64.
#[derive(Clone, Debug)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator from a 64-bit seed (expanded via SplitMix64).
    pub fn seed_from_u64(seed: u64) -> Xoshiro256 {
        let mut sm = seed;
        let mut next_sm = move || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        Xoshiro256 {
            s: [next_sm(), next_sm(), next_sm(), next_sm()],
        }
    }

    /// Next raw 64-bit output.
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

    /// Uniform `f64` in `[0, 1)` (53 random bits).
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.f64() * (hi - lo)
    }

    /// Uniform `usize` in `[0, n)`. Panics when `n == 0`.
    pub fn range_usize(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        // Multiply-shift (Lemire); the tiny modulo bias of the plain
        // approach is irrelevant for workload generation, but this is
        // unbiased anyway for n << 2^64.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// A pair of independent standard-normal variates (Box–Muller).
    pub fn gaussian_pair(&mut self) -> (f64, f64) {
        let u1 = self.f64().max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        (r * theta.cos(), r * theta.sin())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256::seed_from_u64(1);
        let mut b = Xoshiro256::seed_from_u64(1);
        let mut c = Xoshiro256::seed_from_u64(2);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn f64_is_in_unit_interval() {
        let mut r = Xoshiro256::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_half() {
        let mut r = Xoshiro256::seed_from_u64(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn range_usize_covers_all_values() {
        let mut r = Xoshiro256::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[r.range_usize(10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gaussian_moments() {
        let mut r = Xoshiro256::seed_from_u64(5);
        let n = 50_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let (a, b) = r.gaussian_pair();
            sum += a + b;
            sum_sq += a * a + b * b;
        }
        let mean = sum / (2 * n) as f64;
        let var = sum_sq / (2 * n) as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "variance {var}");
    }

    #[test]
    fn clone_forks_the_stream() {
        let mut a = Xoshiro256::seed_from_u64(9);
        a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }
}

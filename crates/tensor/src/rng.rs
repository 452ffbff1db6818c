//! Seeded random number generation.
//!
//! Every stochastic component in the workspace (weight init, dropout,
//! stochastic rounding, graph generation) draws from a [`Rng`] seeded
//! explicitly, so experiments are reproducible run-to-run.

use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

/// A seeded random number generator.
///
/// Thin wrapper over [`rand::rngs::StdRng`] that adds the couple of sampling
/// helpers the workspace needs and makes deterministic seeding the only way
/// to construct one.
///
/// # Example
///
/// ```
/// use tensor::Rng;
///
/// let mut a = Rng::seed_from(42);
/// let mut b = Rng::seed_from(42);
/// assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    inner: StdRng,
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        Self {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        Uniform::new(lo, hi).sample(&mut self.inner)
    }

    /// Standard-normal sample via Box-Muller.
    pub fn normal(&mut self) -> f32 {
        let u1: f32 = self.inner.gen_range(f32::EPSILON..1.0);
        let u2: f32 = self.inner.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Uniform sample in `[0, 1)`.
    pub fn unit(&mut self) -> f32 {
        self.inner.gen_range(0.0..1.0)
    }

    /// Raw 64-bit sample; used to seed fast inline generators in hot
    /// kernels (e.g. stochastic rounding).
    pub fn next_u64(&mut self) -> u64 {
        self.inner.gen()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        self.inner.gen_range(0..n)
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.inner.gen_bool(p.clamp(0.0, 1.0))
    }

    /// Fisher-Yates shuffles a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            xs.swap(i, j);
        }
    }

    /// Picks one element uniformly; `None` when empty.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.below(xs.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from(7);
        let mut b = Rng::seed_from(7);
        for _ in 0..32 {
            assert_eq!(a.unit(), b.unit());
        }
    }

    #[test]
    fn uniform_range_respected() {
        let mut r = Rng::seed_from(1);
        for _ in 0..1000 {
            let v = r.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&v));
        }
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut r = Rng::seed_from(99);
        let n = 20_000;
        let xs: Vec<f32> = (0..n).map(|_| r.normal()).collect();
        let mean = xs.iter().sum::<f32>() / n as f32;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::seed_from(3);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_on_empty_is_none() {
        let mut r = Rng::seed_from(3);
        assert!(r.choose::<u8>(&[]).is_none());
    }
}

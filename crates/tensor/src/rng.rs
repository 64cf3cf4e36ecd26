//! Deterministic random sampling helpers.
//!
//! The workspace's offline dependency set includes `rand` but not
//! `rand_distr`, so normal sampling is implemented here via the Box–Muller
//! transform. All experiment code takes explicit seeds so every figure the
//! `figures` binary prints is reproducible bit-for-bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates the workspace-standard seeded RNG.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Draws one sample from `N(mean, std²)` using Box–Muller.
pub fn normal<R: Rng>(rng: &mut R, mean: f32, std: f32) -> f32 {
    // Draw u1 in (0, 1] to avoid ln(0).
    let u1: f32 = 1.0 - rng.gen::<f32>();
    let u2: f32 = rng.gen();
    let mag = (-2.0 * u1.ln()).sqrt();
    mean + std * mag * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Fills a slice with `N(mean, std²)` samples.
pub fn fill_normal<R: Rng>(rng: &mut R, out: &mut [f32], mean: f32, std: f32) {
    for v in out {
        *v = normal(rng, mean, std);
    }
}

/// Returns a vector of `n` samples from `N(mean, std²)`.
pub fn normal_vec<R: Rng>(rng: &mut R, n: usize, mean: f32, std: f32) -> Vec<f32> {
    (0..n).map(|_| normal(rng, mean, std)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let a = normal_vec(&mut seeded(42), 100, 0.0, 1.0);
        let b = normal_vec(&mut seeded(42), 100, 0.0, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = normal_vec(&mut seeded(1), 10, 0.0, 1.0);
        let b = normal_vec(&mut seeded(2), 10, 0.0, 1.0);
        assert_ne!(a, b);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let xs = normal_vec(&mut seeded(7), 50_000, 3.0, 2.0);
        let mean: f32 = xs.iter().sum::<f32>() / xs.len() as f32;
        let var: f32 = xs.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / xs.len() as f32;
        assert!((mean - 3.0).abs() < 0.05, "mean was {mean}");
        assert!((var - 4.0).abs() < 0.15, "var was {var}");
    }

    #[test]
    fn samples_are_finite() {
        let xs = normal_vec(&mut seeded(9), 10_000, 0.0, 1.0);
        assert!(xs.iter().all(|v| v.is_finite()));
    }
}

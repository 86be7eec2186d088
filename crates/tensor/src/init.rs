//! Weight initialisers.
//!
//! All initialisers draw from an explicit [`rand::Rng`] so that every model
//! in the workspace is reproducible from a single `u64` seed.

use crate::matrix::Matrix;
use rand::Rng;

/// Glorot/Xavier uniform initialisation: `U(-a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`.
///
/// This is the default initialiser used by PyTorch-Geometric's GCN/GAT
/// layers, which the paper builds on.
pub fn glorot_uniform(rng: &mut impl Rng, fan_in: usize, fan_out: usize) -> Matrix {
    let a = (6.0 / (fan_in + fan_out).max(1) as f32).sqrt();
    Matrix::from_fn(fan_in, fan_out, |_, _| rng.gen_range(-a..=a))
}

/// Orthogonal-ish scaled normal initialisation used for PPO policy heads.
///
/// Stable-Baselines3 initialises policy output layers with a small gain so
/// the initial policy is near-uniform; `N(0, gain / sqrt(fan_in))`
/// reproduces that behaviour closely without a full QR decomposition.
pub fn scaled_normal(rng: &mut impl Rng, fan_in: usize, fan_out: usize, gain: f32) -> Matrix {
    let std = gain / (fan_in.max(1) as f32).sqrt();
    Matrix::from_fn(fan_in, fan_out, |_, _| sample_normal(rng) * std)
}

/// Standard-normal sample via Box–Muller.
pub fn sample_normal(rng: &mut impl Rng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

/// A matrix of i.i.d. `N(0, std^2)` entries.
pub fn normal(rng: &mut impl Rng, rows: usize, cols: usize, std: f32) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| sample_normal(rng) * std)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn glorot_bounds() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = glorot_uniform(&mut rng, 100, 50);
        let a = (6.0 / 150.0_f32).sqrt();
        assert_eq!(m.shape(), (100, 50));
        assert!(m.max() <= a && m.min() >= -a);
        // Not degenerate: values should spread over the interval.
        assert!(m.max() > a * 0.5 && m.min() < -a * 0.5);
    }

    #[test]
    fn normal_moments_roughly_match() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = normal(&mut rng, 200, 200, 2.0);
        let mean = m.mean();
        let var = m.as_slice().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / m.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn deterministic_from_seed() {
        let a = glorot_uniform(&mut StdRng::seed_from_u64(7), 10, 10);
        let b = glorot_uniform(&mut StdRng::seed_from_u64(7), 10, 10);
        assert_eq!(a, b);
    }
}

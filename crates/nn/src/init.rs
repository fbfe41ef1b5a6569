//! Weight initialization.
//!
//! DeepMapping trains small multi-layer perceptrons from scratch many times during the
//! MHAS search, so initialization quality matters for how much of the table a sampled
//! model can memorize within a fixed number of epochs.  [`Dense::new`] draws a ReLU
//! layer's weights He/Kaiming uniform and every other layer's Xavier/Glorot uniform.
//!
//! [`Dense::new`]: crate::layer::Dense::new

use crate::tensor::Matrix;
use rand::Rng;

/// Deterministic Xavier/Glorot uniform initialization for a `fan_in × fan_out` weight
/// matrix: samples from `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_uniform<R: Rng>(rng: &mut R, fan_in: usize, fan_out: usize) -> Matrix {
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    let mut m = Matrix::zeros(fan_in, fan_out);
    for v in m.as_mut_slice() {
        *v = rng.gen_range(-a..=a);
    }
    m
}

/// Deterministic He/Kaiming uniform initialization for a `fan_in × fan_out` weight
/// matrix feeding a ReLU: samples from `U(-a, a)` with `a = sqrt(6 / fan_in)`.
///
/// ReLU halves the variance of its input, so Xavier's `fan_in + fan_out` scaling
/// systematically under-scales deep ReLU stacks; with unlucky seeds whole layers die
/// (all-negative pre-activations) and training stalls at a high loss.  He scaling
/// compensates for the halving and makes convergence robust across seeds.
pub fn he_uniform<R: Rng>(rng: &mut R, fan_in: usize, fan_out: usize) -> Matrix {
    let a = (6.0 / fan_in.max(1) as f32).sqrt();
    let mut m = Matrix::zeros(fan_in, fan_out);
    for v in m.as_mut_slice() {
        *v = rng.gen_range(-a..=a);
    }
    m
}

/// Zero-initialized bias vector of width `cols`.
pub fn zero_bias(cols: usize) -> Matrix {
    Matrix::zeros(1, cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_values_stay_within_bound() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = xavier_uniform(&mut rng, 50, 70);
        let a = (6.0f32 / 120.0).sqrt();
        assert!(m.as_slice().iter().all(|&v| v >= -a && v <= a));
        // Not all values identical (sanity that the RNG was used).
        let first = m.as_slice()[0];
        assert!(m.as_slice().iter().any(|&v| v != first));
    }

    #[test]
    fn same_seed_gives_same_weights() {
        let a = xavier_uniform(&mut StdRng::seed_from_u64(42), 10, 10);
        let b = xavier_uniform(&mut StdRng::seed_from_u64(42), 10, 10);
        assert_eq!(a, b);
    }
}

//! Quantization-variance formulas from Theorems 1 and 3.
//!
//! These closed forms drive the Adaptive Bit-width Assigner: the `beta_k`
//! coefficient of Sec. 4.2 measures how much gradient variance a message
//! contributes per unit of `1 / (2^b - 1)^2`, so the assigner can trade
//! variance (Eqn. 11) against predicted communication time (Eqn. 10).

use crate::BitWidth;

/// Theorem 1 variance of a de-quantized message:
/// `Var[h_hat] = D * S^2 / 6` for dimension `D` and scale `S`.
pub fn message_variance(dim: usize, scale: f32) -> f64 {
    dim as f64 * (scale as f64) * (scale as f64) / 6.0
}

/// Scale factor `S = (max - min) / (2^b - 1)` for a message with value range
/// `range = max - min`.
pub fn scale_for(range: f32, width: BitWidth) -> f32 {
    if range <= 0.0 {
        0.0
    } else {
        range / width.max_code() as f32
    }
}

/// The `beta_k` sensitivity coefficient of Sec. 4.2:
/// `beta_k = sum_alpha_sq * D_k * (max - min)^2 / 6`,
/// where `sum_alpha_sq` is the sum of squared aggregation coefficients the
/// message's neighbors on the target device apply to it.
pub fn beta(sum_alpha_sq: f64, dim: usize, range: f32) -> f64 {
    sum_alpha_sq * dim as f64 * (range as f64) * (range as f64) / 6.0
}

/// Variance contribution of a message with coefficient `beta` quantized at
/// `width`: `beta / (2^b - 1)^2` (the Eqn. 11 objective term).
pub fn variance_at_width(beta: f64, width: BitWidth) -> f64 {
    let denom = width.max_code() as f64;
    beta / (denom * denom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::Rng;

    #[test]
    fn message_variance_formula() {
        assert_eq!(message_variance(6, 1.0), 1.0);
        assert_eq!(message_variance(0, 5.0), 0.0);
        assert_eq!(message_variance(12, 0.5), 0.5);
    }

    #[test]
    fn scale_decreases_with_bits() {
        let r = 10.0;
        let s2 = scale_for(r, BitWidth::B2);
        let s4 = scale_for(r, BitWidth::B4);
        let s8 = scale_for(r, BitWidth::B8);
        assert!(s2 > s4 && s4 > s8);
        assert!((s2 - 10.0 / 3.0).abs() < 1e-6);
        assert_eq!(scale_for(0.0, BitWidth::B8), 0.0);
        assert_eq!(scale_for(-1.0, BitWidth::B8), 0.0);
    }

    #[test]
    fn beta_scales_quadratically_with_range() {
        let b1 = beta(1.0, 8, 1.0);
        let b2 = beta(1.0, 8, 2.0);
        assert!((b2 / b1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn variance_at_width_matches_theorem1() {
        // For sum_alpha_sq = 1, beta/(2^b-1)^2 must equal D * S^2 / 6.
        let dim = 16;
        let range = 3.0f32;
        for w in BitWidth::ALL {
            let via_beta = variance_at_width(beta(1.0, dim, range), w);
            let via_scale = message_variance(dim, scale_for(range, w));
            assert!(
                (via_beta - via_scale).abs() < 1e-6 * via_beta.max(1e-12),
                "{via_beta} vs {via_scale}"
            );
        }
    }

    #[test]
    fn empirical_variance_below_theorem1_bound() {
        // Quantize a random message many times and check the sample variance
        // of each element stays below S^2 / 4 (elementwise Bernoulli variance
        // is at most S^2/4; the S^2/6 constant is the *average* under the
        // uniform-fraction assumption). The *sum* over the vector must stay
        // near D*S^2/6 for a generic (non-adversarial) message.
        let mut rng = Rng::seed_from(42);
        let dim = 64;
        let msg: Vec<f32> = (0..dim).map(|_| rng.uniform(-2.0, 2.0)).collect();
        let width = BitWidth::B2;
        let trials = 3000;
        let mut sums = vec![0.0f64; dim];
        let mut sq_sums = vec![0.0f64; dim];
        let mut scale = 0.0f32;
        for _ in 0..trials {
            let q = crate::quantize(&msg, width, &mut rng);
            scale = q.params.scale;
            let d = crate::dequantize(&q);
            for ((s, ss), v) in sums.iter_mut().zip(sq_sums.iter_mut()).zip(d) {
                *s += v as f64;
                *ss += (v as f64) * (v as f64);
            }
        }
        let mut total_var = 0.0f64;
        for i in 0..dim {
            let mean = sums[i] / trials as f64;
            let var = sq_sums[i] / trials as f64 - mean * mean;
            // Elementwise bound: p(1-p) * S^2 <= S^2/4.
            assert!(
                var <= (scale as f64) * (scale as f64) / 4.0 + 1e-6,
                "element {i} variance {var} exceeds S^2/4"
            );
            total_var += var;
        }
        let bound = message_variance(dim, scale);
        // Generic uniform message: total empirical variance should be within
        // ~2x of the D*S^2/6 value (it concentrates near it).
        assert!(
            total_var < 2.0 * bound,
            "total {total_var} far above theorem bound {bound}"
        );
        assert!(total_var > 0.2 * bound, "suspiciously low variance");
    }
}

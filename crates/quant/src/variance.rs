//! The quantization-variance coefficient of Theorem 3.
//!
//! This closed form drives the Adaptive Bit-width Assigner: the `beta_k`
//! coefficient of Sec. 4.2 measures how much gradient variance a message
//! contributes per unit of `1 / (2^b - 1)^2`, so the assigner can trade
//! variance (Eqn. 11) against predicted communication time (Eqn. 10).

/// The `beta_k` sensitivity coefficient of Sec. 4.2:
/// `beta_k = sum_alpha_sq * D_k * (max - min)^2 / 6`,
/// where `sum_alpha_sq` is the sum of squared aggregation coefficients the
/// message's neighbors on the target device apply to it.
pub fn beta(sum_alpha_sq: f64, dim: usize, range: f32) -> f64 {
    sum_alpha_sq * dim as f64 * (range as f64) * (range as f64) / 6.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beta_scales_quadratically_with_range() {
        let b1 = beta(1.0, 8, 1.0);
        let b2 = beta(1.0, 8, 2.0);
        assert!((b2 / b1 - 4.0).abs() < 1e-9);
    }
}

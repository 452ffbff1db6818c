//! Stochastic quantization and deterministic de-quantization (Eqn. 4-5).

use crate::{kernels, BitWidth};
use serde::{Deserialize, Serialize};
use tensor::Rng;

/// Per-message quantization parameters transmitted alongside the codes.
///
/// `zero_point` is `min(h)` and `scale` is `(max(h) - min(h)) / (2^b - 1)`
/// (Eqn. 4). A constant message has `scale == 0` and decodes exactly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantParams {
    /// Minimum of the original vector (`Z_v^l`).
    pub zero_point: f32,
    /// Scale factor (`S_{v_b}^l`).
    pub scale: f32,
}

/// A quantized message: integer codes plus the parameters to invert them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedMessage {
    /// Bit-width used.
    pub width: BitWidth,
    /// Quantization parameters.
    pub params: QuantParams,
    /// One unpacked code per element (each `<= width.max_code()`).
    pub codes: Vec<u8>,
}

impl QuantizedMessage {
    /// Number of elements in the original message.
    pub fn dim(&self) -> usize {
        self.codes.len()
    }
}

/// Stochastically quantizes one message vector to `width`-bit integers.
///
/// Uses stochastic rounding: a value at fractional position `p` between two
/// adjacent codes rounds up with probability `p`, making the de-quantized
/// estimate unbiased (Theorem 1).
pub fn quantize(message: &[f32], width: BitWidth, rng: &mut Rng) -> QuantizedMessage {
    let mut codes = Vec::new();
    let params = quantize_into(message, width, rng, &mut codes);
    QuantizedMessage {
        width,
        params,
        codes,
    }
}

/// [`quantize`] into a caller-provided code buffer (hot send path: the
/// halo-exchange inner loop reuses one buffer per peer instead of allocating
/// per message).
///
/// The min/max reduction fixes the scale, then one fused pass computes the
/// rounding coin, the shifted value and the clamped code per element
/// (`floor(x + u)` with `u ~ U[0,1)` *is* stochastic rounding — it rounds up
/// with probability `frac(x)` — so one add and one truncation replace the
/// separate floor / coin / compare sequence). `codes` is cleared and resized
/// to `message.len()`.
pub fn quantize_into(
    message: &[f32],
    width: BitWidth,
    rng: &mut Rng,
    codes: &mut Vec<u8>,
) -> QuantParams {
    let (min, max) = kernels::min_max(message);
    // lint:allow(lossy-cast): max_code <= 255, exactly representable in f32
    let levels = width.max_code() as f32;
    let scale = if max > min { (max - min) / levels } else { 0.0 };
    codes.clear();
    codes.resize(message.len(), 0);
    if scale != 0.0 {
        // Hot kernel: use a fast inline xorshift stream (seeded from the
        // caller's RNG) for the rounding coin flips instead of paying the
        // full RNG per element.
        let mut state = rng.next_u64() | 1;
        let inv_scale = 1.0 / scale;
        let max_code = width.max_code();
        for (c, &v) in codes.iter_mut().zip(message) {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // lint:allow(lossy-cast): 24-bit uniform sample is exactly representable in f32
            let coin = (state >> 40) as f32 * (1.0 / 16_777_216.0);
            // x >= 0 by construction (v >= min), so `as u32` truncation is
            // floor; min() clamps the row maximum, where x reaches
            // max_code + coin.
            let x = (v - min) * inv_scale + coin;
            // lint:allow(lossy-cast): clamped to max_code <= 255 before the narrowing
            *c = (x as u32).min(max_code) as u8;
        }
    }
    QuantParams {
        zero_point: min,
        scale,
    }
}

/// Fused quantize + bit-pack into a caller-provided wire buffer: computes
/// the same codes as [`quantize_into`] (same coin stream — byte-identical
/// output) but assembles one packed wire byte per outer iteration instead of
/// materializing one byte per element and re-reading it through
/// [`crate::bitpack::pack_into`]. `out` is cleared and resized to exactly
/// `width.packed_len(message.len())` bytes.
pub fn quantize_packed_into(
    message: &[f32],
    width: BitWidth,
    rng: &mut Rng,
    out: &mut Vec<u8>,
) -> QuantParams {
    let (min, max) = kernels::min_max(message);
    // lint:allow(lossy-cast): max_code <= 255, exactly representable in f32
    let levels = width.max_code() as f32;
    let scale = if max > min { (max - min) / levels } else { 0.0 };
    out.clear();
    out.resize(width.packed_len(message.len()), 0);
    if scale != 0.0 {
        // Same xorshift coin stream as quantize_into (one RNG draw seeds
        // it), so the packed bytes equal pack_into(quantize_into(..)).
        let mut state = rng.next_u64() | 1;
        let inv_scale = 1.0 / scale;
        let max_code = width.max_code();
        let bits = width.bits();
        let per_byte = (8 / bits) as usize;
        for (b, byte) in out.iter_mut().enumerate() {
            let s = b * per_byte;
            let e = (s + per_byte).min(message.len());
            let mut acc = 0u8;
            for (k, &v) in message[s..e].iter().enumerate() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                // lint:allow(lossy-cast): 24-bit uniform sample is exactly representable in f32
                let coin = (state >> 40) as f32 * (1.0 / 16_777_216.0);
                let x = (v - min) * inv_scale + coin;
                // lint:allow(lossy-cast): clamped to max_code <= 255 before the narrowing
                let code = (x as u32).min(max_code) as u8;
                acc |= code << (k as u32 * bits);
            }
            *byte = acc;
        }
    }
    QuantParams {
        zero_point: min,
        scale,
    }
}

/// Deterministically de-quantizes a message (Eqn. 5):
/// `h_hat = code * S + Z`.
pub fn dequantize(q: &QuantizedMessage) -> Vec<f32> {
    q.codes
        .iter()
        // lint:allow(lossy-cast): u8 code widens exactly to f32
        .map(|&c| c as f32 * q.params.scale + q.params.zero_point)
        .collect()
}

/// De-quantizes straight into a destination slice (avoids allocation on the
/// hot receive path).
///
/// Long messages de-quantize in parallel over fixed element chunks; each
/// element is independent, so the result is byte-identical at any thread
/// count.
///
/// # Panics
///
/// Panics if `dst.len() != q.dim()`.
pub fn dequantize_into(q: &QuantizedMessage, dst: &mut [f32]) {
    assert_eq!(dst.len(), q.dim(), "dequantize_into size mismatch");
    let scale = q.params.scale;
    let zero = q.params.zero_point;
    let n = dst.len();
    tensor::par::par_chunks_deterministic(dst, n, crate::PAR_MIN_ELEMS, n, |s, e, chunk| {
        for (d, &c) in chunk.iter_mut().zip(&q.codes[s..e]) {
            // lint:allow(lossy-cast): u8 code widens exactly to f32
            *d = c as f32 * scale + zero;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_within_range() {
        let mut rng = Rng::seed_from(1);
        let msg: Vec<f32> = (0..100).map(|i| (i as f32 * 0.37).sin() * 5.0).collect();
        for w in BitWidth::ALL {
            let q = quantize(&msg, w, &mut rng);
            assert!(q.codes.iter().all(|&c| (c as u32) <= w.max_code()));
        }
    }

    #[test]
    fn endpoints_are_exact() {
        let mut rng = Rng::seed_from(2);
        let msg = vec![-3.0, 7.0];
        for w in BitWidth::ALL {
            let q = quantize(&msg, w, &mut rng);
            let d = dequantize(&q);
            assert!((d[0] + 3.0).abs() < 1e-6, "min must be exact at {w}");
            assert!((d[1] - 7.0).abs() < 1e-6, "max must be exact at {w}");
        }
    }

    #[test]
    fn constant_message_roundtrips_exactly() {
        let mut rng = Rng::seed_from(3);
        let msg = vec![2.5; 16];
        let q = quantize(&msg, BitWidth::B2, &mut rng);
        assert_eq!(q.params.scale, 0.0);
        assert_eq!(dequantize(&q), msg);
    }

    #[test]
    fn empty_message_ok() {
        let mut rng = Rng::seed_from(4);
        let q = quantize(&[], BitWidth::B4, &mut rng);
        assert_eq!(q.dim(), 0);
        assert_eq!(dequantize(&q), Vec::<f32>::new());
    }

    #[test]
    fn grid_values_roundtrip_exactly_at_8bit() {
        // Values exactly on the 8-bit grid survive quantization unchanged.
        let mut rng = Rng::seed_from(5);
        let scale = 0.5f32;
        let msg: Vec<f32> = (0..=255).map(|i| i as f32 * scale).collect();
        let q = quantize(&msg, BitWidth::B8, &mut rng);
        let d = dequantize(&q);
        for (a, b) in msg.iter().zip(&d) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn dequantized_estimate_is_unbiased() {
        // Theorem 1: E[dq(q(h))] = h. Average many independent quantizations.
        let mut rng = Rng::seed_from(6);
        let msg = vec![0.1, 0.333, 0.5, 0.789, 0.9];
        let trials = 4000;
        let mut sums = vec![0.0f64; msg.len()];
        for _ in 0..trials {
            let q = quantize(&msg, BitWidth::B2, &mut rng);
            for (s, v) in sums.iter_mut().zip(dequantize(&q)) {
                *s += v as f64;
            }
        }
        for (s, &m) in sums.iter().zip(&msg) {
            let mean = s / trials as f64;
            assert!(
                (mean - m as f64).abs() < 0.01,
                "biased estimate: {mean} vs {m}"
            );
        }
    }

    #[test]
    fn error_bounded_by_scale() {
        let mut rng = Rng::seed_from(7);
        let msg: Vec<f32> = (0..64).map(|i| (i as f32).cos() * 3.0).collect();
        for w in BitWidth::ALL {
            let q = quantize(&msg, w, &mut rng);
            let d = dequantize(&q);
            for (a, b) in msg.iter().zip(&d) {
                assert!(
                    (a - b).abs() <= q.params.scale + 1e-6,
                    "error beyond one quantization step at {w}"
                );
            }
        }
    }

    #[test]
    fn higher_bitwidth_means_lower_error() {
        let mut rng = Rng::seed_from(8);
        let msg: Vec<f32> = (0..256).map(|i| ((i * 37) % 101) as f32 * 0.11).collect();
        let mut errs = Vec::new();
        for w in BitWidth::ALL {
            // Average over repetitions to smooth stochastic rounding noise.
            let mut total = 0.0f64;
            for _ in 0..20 {
                let q = quantize(&msg, w, &mut rng);
                let d = dequantize(&q);
                total += msg
                    .iter()
                    .zip(&d)
                    .map(|(a, b)| ((a - b) as f64).powi(2))
                    .sum::<f64>();
            }
            errs.push(total);
        }
        assert!(errs[0] > errs[1] && errs[1] > errs[2], "errors {errs:?}");
    }

    #[test]
    fn quantize_into_matches_quantize() {
        let msg: Vec<f32> = (0..50).map(|i| (i as f32 * 0.91).cos() * 2.0).collect();
        for w in BitWidth::ALL {
            let mut rng_a = Rng::seed_from(11);
            let mut rng_b = Rng::seed_from(11);
            let q = quantize(&msg, w, &mut rng_a);
            let mut codes = vec![0xFFu8; 3]; // stale contents must be cleared
            let params = quantize_into(&msg, w, &mut rng_b, &mut codes);
            assert_eq!(params, q.params);
            assert_eq!(codes, q.codes);
        }
    }

    #[test]
    fn quantize_packed_into_matches_quantize_then_pack() {
        for n in [0usize, 1, 3, 4, 5, 7, 8, 50, 129] {
            let msg: Vec<f32> = (0..n).map(|i| (i as f32 * 0.91).cos() * 2.0).collect();
            for w in BitWidth::ALL {
                let mut rng_a = Rng::seed_from(13);
                let mut rng_b = Rng::seed_from(13);
                let mut codes = Vec::new();
                let params_a = quantize_into(&msg, w, &mut rng_a, &mut codes);
                let packed_ref = crate::bitpack::pack(&codes, w);
                let mut packed = vec![0xFFu8; 2]; // stale contents must be cleared
                let params_b = quantize_packed_into(&msg, w, &mut rng_b, &mut packed);
                assert_eq!(params_a, params_b, "params differ at {w} n {n}");
                assert_eq!(packed, packed_ref, "wire bytes differ at {w} n {n}");
                // Both paths must leave the caller RNG in the same state.
                assert_eq!(rng_a.next_u64(), rng_b.next_u64());
            }
        }
    }

    #[test]
    fn dequantize_into_matches_dequantize() {
        let mut rng = Rng::seed_from(9);
        let msg = vec![1.0, -2.0, 0.5, 3.25];
        let q = quantize(&msg, BitWidth::B4, &mut rng);
        let a = dequantize(&q);
        let mut b = vec![0.0; 4];
        dequantize_into(&q, &mut b);
        assert_eq!(a, b);
    }
}

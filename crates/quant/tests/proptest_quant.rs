#![allow(clippy::needless_range_loop)]
//! Property-based tests for quantization invariants.

use proptest::prelude::*;
use quant::{
    decode_block, decode_rows, encode_block, encode_block_with_stats, encode_rows_into,
    predicted_wire_len, BitWidth, DecodeError, EncodedBlock,
};
use tensor::{Matrix, Rng};

proptest! {
    #[test]
    fn codec_roundtrip_bounded_error(
        rows in 1usize..12,
        dim in 1usize..24,
        seed in 0u64..10_000,
    ) {
        let mut rng = Rng::seed_from(seed);
        let msgs = Matrix::from_fn(rows, dim, |_, _| rng.uniform(-5.0, 5.0));
        let widths: Vec<BitWidth> = (0..rows).map(|_| BitWidth::ALL[rng.below(3)]).collect();
        let block = encode_block(&msgs, &widths, &mut rng);
        let decoded = decode_block(&block).expect("well-formed block");
        prop_assert_eq!(decoded.shape(), (rows, dim));
        for i in 0..rows {
            let mn = msgs.row(i).iter().copied().fold(f32::INFINITY, f32::min);
            let mx = msgs.row(i).iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let step = (mx - mn) / widths[i].max_code() as f32;
            for (a, b) in msgs.row(i).iter().zip(decoded.row(i)) {
                prop_assert!((a - b).abs() <= step + 1e-4);
                // Decoded values stay in the row's range, and the row
                // minimum (code 0 whatever its coin) decodes exactly.
                prop_assert!(mn <= *b && *b <= mx + 1e-4, "{} outside [{}, {}]", b, mn, mx);
                prop_assert!(*a != mn || *b == mn, "minimum {} decoded as {}", mn, b);
            }
        }
    }

    #[test]
    fn codec_block_byte_identical_across_thread_counts(
        rows in 1usize..40,
        dim in 1usize..24,
        seed in 0u64..10_000,
    ) {
        let mut seed_rng = Rng::seed_from(seed);
        let msgs = Matrix::from_fn(rows, dim, |_, _| seed_rng.uniform(-5.0, 5.0));
        let widths: Vec<BitWidth> = (0..rows).map(|_| BitWidth::ALL[seed_rng.below(3)]).collect();
        let mut reference: Option<(Vec<u8>, Vec<f32>)> = None;
        for t in [1usize, 2, 8] {
            tensor::par::set_threads(t);
            let mut rng = Rng::seed_from(seed ^ 0xABCD);
            let block = encode_block(&msgs, &widths, &mut rng);
            let decoded = decode_block(&block).expect("well-formed block");
            let wire: Vec<u8> = block.bytes.as_ref().to_vec();
            match &reference {
                None => reference = Some((wire, decoded.as_slice().to_vec())),
                Some((w0, d0)) => {
                    prop_assert_eq!(&wire, w0, "wire bytes differ at {} threads", t);
                    prop_assert_eq!(decoded.as_slice(), &d0[..], "decode differs at {} threads", t);
                }
            }
        }
        tensor::par::set_threads(0);
    }

    #[test]
    fn wire_size_monotone_in_bits(rows in 1usize..50, dim in 1usize..100) {
        let sizes: Vec<usize> = BitWidth::ALL
            .iter()
            .map(|&w| quant::codec::predicted_wire_len(dim, &vec![w; rows]))
            .collect();
        prop_assert!(sizes[0] <= sizes[1] && sizes[1] <= sizes[2]);
        prop_assert!(sizes[2] <= quant::codec::fp32_wire_len(rows, dim) + rows * quant::codec::ROW_OVERHEAD_BYTES);
    }

    #[test]
    fn stochastic_rounding_mean_converges(
        value in 0.0f32..1.0,
        seed in 0u64..1000,
    ) {
        // Encode the row [0, value, 1] at 2-bit; the decoded middle
        // element's expectation (Theorem 1: unbiased) should approach its
        // true value.
        let mut rng = Rng::seed_from(seed);
        let msg = Matrix::from_fn(1, 3, |_, j| [0.0, value, 1.0][j]);
        let trials = 600;
        let mut acc = 0.0f64;
        for _ in 0..trials {
            let block = encode_block(&msg, &[BitWidth::B2], &mut rng);
            acc += decode_block(&block).expect("well-formed block").row(0)[1] as f64;
        }
        let mean = acc / trials as f64;
        // Standard error of a bounded variable over 600 trials.
        prop_assert!((mean - value as f64).abs() < 0.06, "mean {mean} vs {value}");
    }
}

/// Independent two-pass reference codec, retained to pin the fused
/// single-pass kernels in `quant::codec` / `quant::kernels`.
///
/// This module re-implements the documented wire contract from scratch —
/// sequential min/max pass, then a separate quantize pass through the
/// historical `(x as u32).min(max_code)` saturating cast, then LSB-first
/// packing into a scratch buffer — with none of the fused kernels' blocking,
/// SWAR byte assembly, or branch-free floor tricks. The proptests below
/// require the production encoder to match it byte-for-byte (wire bytes,
/// per-row `(zero_point, scale)` params, and `EncodeStats`) at 1/2/8
/// runtime threads, so any divergence introduced by future kernel work is
/// caught against a spec-level implementation rather than a refactor twin.
/// Run under `ADAQP_SAN=1` (scripts/regress.sh does) to also exercise the
/// sanitizer's adversarial parallel schedules.
mod reference {
    use quant::codec::{EncodeStats, HEADER_BYTES, ROW_OVERHEAD_BYTES};
    use quant::{BitWidth, PAR_MIN_ELEMS};
    use tensor::Matrix;

    const PHI32: u32 = 0x9E37_79B9;

    fn splitmix64(seed: u64) -> u64 {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn coin(c32: u32) -> f32 {
        let mut z = c32 ^ (c32 >> 16);
        z = z.wrapping_mul(0x85EB_CA6B);
        z ^= z >> 13;
        (z >> 8) as f32 * (1.0 / 16_777_216.0)
    }

    /// Two-pass reference encode: returns the full wire buffer and the
    /// per-width statistics. `base` is the block's single RNG draw (the
    /// production encoder takes it as `rng.next_u64()`).
    pub fn encode_block(
        messages: &Matrix,
        widths: &[BitWidth],
        base: u64,
    ) -> (Vec<u8>, EncodeStats) {
        let rows = messages.rows();
        let dim = messages.cols();
        let code_bytes: usize = widths.iter().map(|w| w.packed_len(dim)).sum();
        let mut buf = vec![0u8; HEADER_BYTES + rows * ROW_OVERHEAD_BYTES + code_bytes];
        buf[0..4].copy_from_slice(&(rows as u32).to_le_bytes());
        buf[4..8].copy_from_slice(&(dim as u32).to_le_bytes());
        // Statistics accumulate per parallel chunk and fold in chunk order;
        // the chunk boundaries are a pure function of (rows, dim), so the
        // reference reproduces the same f64 association.
        let ranges = tensor::par::chunk_ranges(rows, PAR_MIN_ELEMS.div_ceil(dim.max(1)));
        let mut stats = EncodeStats::default();
        let sq_coef = dim as f64 / 6.0;
        let mut code_at = HEADER_BYTES + rows * ROW_OVERHEAD_BYTES;
        for &(cs, ce) in &ranges {
            let mut chunk = EncodeStats::default();
            for i in cs..ce {
                let w = widths[i];
                let row = messages.row(i);
                // Pass 1: sequential min/max fold.
                let mut mn = f32::INFINITY;
                let mut mx = f32::NEG_INFINITY;
                for &v in row {
                    mn = mn.min(v);
                    mx = mx.max(v);
                }
                let scale = if mx > mn {
                    (mx - mn) / w.max_code() as f32
                } else {
                    0.0
                };
                let ws = &mut chunk.per_width[w.index()];
                ws.rows += 1;
                ws.elements += dim as u64;
                ws.sum_range += if mx > mn { f64::from(mx - mn) } else { 0.0 };
                ws.sum_sq_err += sq_coef * f64::from(scale) * f64::from(scale);
                let h = HEADER_BYTES + i * ROW_OVERHEAD_BYTES;
                buf[h] = w.bits() as u8;
                buf[h + 1..h + 5].copy_from_slice(&mn.to_le_bytes());
                buf[h + 5..h + 9].copy_from_slice(&scale.to_le_bytes());
                if scale != 0.0 {
                    // Pass 2: stochastic round every element through the
                    // historical saturating-cast expression, into a scratch
                    // code buffer.
                    let inv_scale = 1.0 / scale;
                    let seed = splitmix64(base ^ (i as u64)) as u32;
                    let mut codes = Vec::with_capacity(dim);
                    for (j, &v) in row.iter().enumerate() {
                        let c32 = seed.wrapping_add((j as u32).wrapping_add(1).wrapping_mul(PHI32));
                        let x = (v - mn) * inv_scale + coin(c32);
                        codes.push((x as u32).min(w.max_code()) as u8);
                    }
                    // Separate pack pass, LSB-first within each byte.
                    let bits = w.bits() as usize;
                    for (b, byte) in buf[code_at..code_at + w.packed_len(dim)]
                        .iter_mut()
                        .enumerate()
                    {
                        let mut acc = 0u8;
                        for (k, &c) in codes.iter().skip(b * (8 / bits)).take(8 / bits).enumerate()
                        {
                            acc |= c << (k * bits);
                        }
                        *byte = acc;
                    }
                }
                code_at += w.packed_len(dim);
            }
            stats.merge(&chunk);
        }
        (buf, stats)
    }

    /// Scalar reference decode: per-element shift/mask unpack and the
    /// historical `code * scale + zero` reconstruction — no LUT expansion.
    pub fn decode_block(bytes: &[u8]) -> Vec<f32> {
        let rows = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let dim = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
        let mut out = Vec::with_capacity(rows * dim);
        let mut code_at = HEADER_BYTES + rows * ROW_OVERHEAD_BYTES;
        for i in 0..rows {
            let h = HEADER_BYTES + i * ROW_OVERHEAD_BYTES;
            let bits = bytes[h] as usize;
            let zero = f32::from_le_bytes(bytes[h + 1..h + 5].try_into().unwrap());
            let scale = f32::from_le_bytes(bytes[h + 5..h + 9].try_into().unwrap());
            for j in 0..dim {
                let bit = j * bits;
                let code = (bytes[code_at + bit / 8] >> (bit % 8)) & ((1u16 << bits) - 1) as u8;
                out.push(code as f32 * scale + zero);
            }
            code_at += (dim * bits).div_ceil(8);
        }
        out
    }
}

/// Shared body for the fused-vs-reference pinning tests: encodes `msgs`
/// with the production codec at 1/2/8 runtime threads and asserts wire
/// bytes, per-row params, and statistics all match the reference exactly.
fn assert_matches_reference(msgs: &Matrix, widths: &[BitWidth], seed: u64) {
    let base = Rng::seed_from(seed).next_u64();
    let (want_bytes, want_stats) = reference::encode_block(msgs, widths, base);
    for t in [1usize, 2, 8] {
        tensor::par::set_threads(t);
        let mut rng = Rng::seed_from(seed);
        let (block, stats) = quant::encode_block_with_stats(msgs, widths, &mut rng);
        prop_assert_eq!(
            block.bytes.as_ref(),
            &want_bytes[..],
            "fused wire bytes differ from two-pass reference at {} threads",
            t
        );
        prop_assert_eq!(
            stats,
            want_stats,
            "stats differ from reference at {} threads",
            t
        );
        // Redundant with full-buffer equality, but states the row-params
        // contract explicitly: row i's (zero_point, scale) live at a fixed
        // header offset and must be bit-equal to the reference's pass-1 result.
        for i in 0..msgs.rows() {
            let h = quant::codec::HEADER_BYTES + i * quant::codec::ROW_OVERHEAD_BYTES;
            prop_assert_eq!(&block.bytes.as_ref()[h..h + 9], &want_bytes[h..h + 9]);
        }
    }
    tensor::par::set_threads(0);
}

proptest! {
    #[test]
    fn fused_encode_matches_two_pass_reference(
        rows in 1usize..40,
        dim in 1usize..33,
        seed in 0u64..10_000,
    ) {
        let mut data_rng = Rng::seed_from(seed.wrapping_mul(0x5DEE_CE66));
        // Every seventh row is flat to exercise the scale == 0 path.
        let msgs = Matrix::from_fn(rows, dim, |i, _| {
            if i % 7 == 3 { 2.5 } else { data_rng.uniform(-50.0, 50.0) }
        });
        let widths: Vec<BitWidth> = (0..rows).map(|_| BitWidth::ALL[data_rng.below(3)]).collect();
        assert_matches_reference(&msgs, &widths, seed);
    }

    #[test]
    fn lut_decode_matches_scalar_reference(
        rows in 1usize..24,
        dim in 1usize..40,
        seed in 0u64..10_000,
    ) {
        let mut data_rng = Rng::seed_from(seed ^ 0x00C0_FFEE);
        let msgs = Matrix::from_fn(rows, dim, |_, _| data_rng.uniform(-8.0, 8.0));
        let widths: Vec<BitWidth> = (0..rows).map(|_| BitWidth::ALL[data_rng.below(3)]).collect();
        let mut rng = Rng::seed_from(seed);
        let block = encode_block(&msgs, &widths, &mut rng);
        let want = reference::decode_block(block.bytes.as_ref());
        let got = decode_block(&block).expect("well-formed block");
        prop_assert_eq!(got.shape(), (rows, dim));
        for (k, (a, b)) in got.as_slice().iter().zip(&want).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "element {} differs from scalar decode", k);
        }
    }
}

#[test]
fn fused_encode_matches_reference_multi_chunk() {
    // Large enough that par_min_rows splits the block into multiple
    // parallel chunks (1200 rows x 33 dim > PAR_MIN_ELEMS), with a dim
    // that is not a multiple of the 32-element kernel block — exercises
    // chunked stats folding and the scalar tail in one shot.
    let mut data_rng = Rng::seed_from(77);
    let msgs = Matrix::from_fn(1200, 33, |i, _| {
        if i % 11 == 5 {
            -1.25
        } else {
            data_rng.uniform(-300.0, 300.0)
        }
    });
    let widths: Vec<BitWidth> = (0..1200)
        .map(|_| BitWidth::ALL[data_rng.below(3)])
        .collect();
    assert_matches_reference(&msgs, &widths, 0xFEED_5EED);
}

/// The in-place pair against the block entry points at 1/2/8 threads: the
/// rows `idx` of `src` encoded straight into a dirty span equal
/// `encode_block_with_stats` over the gathered matrix in bytes, statistics
/// and the generator's next draw, and `decode_rows` hands the sink the rows
/// `decode_block` returns, bit for bit.
fn assert_in_place_matches_block(src: &Matrix, idx: &[usize], widths: &[BitWidth], seed: u64) {
    let dim = src.cols();
    let gathered = src.gather_rows(idx);
    for t in [1usize, 2, 8] {
        tensor::par::set_threads(t);
        let mut want_rng = Rng::seed_from(seed);
        let (block, want_stats) = encode_block_with_stats(&gathered, widths, &mut want_rng);
        let mut rng = Rng::seed_from(seed);
        // Not zeroed: a span of a shared buffer is whatever was there.
        let mut buf = vec![0xA5u8; predicted_wire_len(dim, widths)];
        let row_of = |i: usize| src.row(idx[i]);
        let stats = encode_rows_into(&mut buf, row_of, idx.len(), dim, widths, &mut rng);
        assert_eq!(&buf[..], block.bytes.as_ref(), "wire bytes at {t} threads");
        assert_eq!(stats, want_stats, "statistics at {t} threads");
        assert_eq!(
            rng.next_u64(),
            want_rng.next_u64(),
            "generator at {t} threads"
        );

        let want = decode_block(&block).expect("well-formed block");
        let mut seen = 0;
        decode_rows(&buf, idx.len(), dim, |k, row| {
            assert_eq!(k, seen, "rows arrive in order");
            seen += 1;
            let bits = |r: &[f32]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(row), bits(want.row(k)), "row {k} at {t} threads");
        })
        .expect("well-formed block");
        assert_eq!(seen, idx.len());
    }
    tensor::par::set_threads(0);
}

proptest! {
    #[test]
    fn in_place_codec_matches_the_block_entry_points(
        src_rows in 1usize..40,
        picks in 0usize..60,
        dim in 1usize..40,
        seed in 0u64..10_000,
    ) {
        let mut data_rng = Rng::seed_from(seed ^ 0x1D5_7A11);
        // Flat, NaN-holding and infinite rows ride along with ordinary ones.
        let src = Matrix::from_fn(src_rows, dim, |i, j| match i % 9 {
            4 => 2.5,
            6 if j == 0 => f32::NAN,
            8 if j == 0 => f32::INFINITY,
            _ => data_rng.uniform(-50.0, 50.0),
        });
        let idx: Vec<usize> = (0..picks).map(|_| data_rng.below(src_rows)).collect();
        let widths: Vec<BitWidth> = (0..picks).map(|_| BitWidth::ALL[data_rng.below(3)]).collect();
        assert_in_place_matches_block(&src, &idx, &widths, seed);
    }
}

#[test]
fn in_place_codec_matches_the_block_entry_points_multi_chunk() {
    // 1300 picks x 33 columns: several parallel chunks, and a width that is
    // not a multiple of the 32-element kernel block.
    let mut data_rng = Rng::seed_from(78);
    let src = Matrix::from_fn(200, 33, |i, _| {
        if i % 11 == 5 {
            -1.25
        } else {
            data_rng.uniform(-300.0, 300.0)
        }
    });
    let idx: Vec<usize> = (0..1300).map(|_| data_rng.below(200)).collect();
    let widths: Vec<BitWidth> = (0..1300)
        .map(|_| BitWidth::ALL[data_rng.below(3)])
        .collect();
    assert_in_place_matches_block(&src, &idx, &widths, 0xFEED_5EEE);
}

#[test]
fn decode_rows_rejects_every_truncation_and_survives_every_bit_flip() {
    // A valid mixed-width block, then every prefix of it and every
    // single-bit corruption: each either fails before the sink has seen a
    // row, or delivers exactly `rows` rows of `dim` floats. Never a panic,
    // never a half-landed block.
    let (rows, dim) = (7usize, 13usize);
    let mut data_rng = Rng::seed_from(79);
    let msgs = Matrix::from_fn(rows, dim, |_, _| data_rng.uniform(-4.0, 4.0));
    let widths: Vec<BitWidth> = (0..rows).map(|i| BitWidth::ALL[i % 3]).collect();
    let valid = encode_block(&msgs, &widths, &mut Rng::seed_from(80))
        .bytes
        .to_vec();

    let check = |raw: &[u8], what: &str| -> Result<(), DecodeError> {
        let mut landed = 0usize;
        let outcome = decode_rows(raw, rows, dim, |k, row| {
            assert_eq!((k, row.len()), (landed, dim), "{what}: row shape");
            landed += 1;
        });
        match outcome {
            Ok(()) => assert_eq!(landed, rows, "{what}: decoded but short"),
            Err(_) => assert_eq!(landed, 0, "{what}: failed after landing rows"),
        }
        // The matrix entry point must not panic on the same bytes either.
        let bytes = bytes::Bytes::from(raw.to_vec());
        let _ = decode_block(&EncodedBlock { bytes, rows, dim });
        outcome
    };

    check(&valid, "valid block").expect("the valid block decodes");
    for cut in 0..valid.len() {
        let outcome = check(&valid[..cut], &format!("cut at {cut}"));
        assert!(outcome.is_err(), "a {cut}-byte prefix decoded");
    }
    let mut longer = valid.clone();
    longer.push(0);
    assert_eq!(
        check(&longer, "one trailing byte"),
        Err(DecodeError::Length {
            expected: valid.len(),
            found: valid.len() + 1
        })
    );
    let mut flipped = valid.clone();
    for byte in 0..valid.len() {
        for bit in 0..8 {
            flipped[byte] ^= 1 << bit;
            let outcome = check(&flipped, &format!("bit {bit} of byte {byte}"));
            if byte < 8 {
                // Any change to the declared shape is caught as such.
                assert!(
                    outcome.is_err(),
                    "header flip at byte {byte} bit {bit} decoded"
                );
            }
            flipped[byte] ^= 1 << bit;
        }
    }
}

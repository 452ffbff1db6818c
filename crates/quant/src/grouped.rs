//! Group-major wire codec — the paper's exact serialization strategy.
//!
//! Sec. 5: *"we first group messages according to their assigned bit-width,
//! perform single bit-width quantization to each group and then concatenate
//! all groups into a byte array for transmission."*
//!
//! Compared to the row-major codec in [`crate::codec`], the group-major
//! layout packs all of a width's codes contiguously (no per-row byte
//! padding), saves the per-row width byte, and lets a receiver de-quantize
//! each group with a single-width kernel. Row membership is *not* on the
//! wire: the receiver reconstructs it from the same bit-width assignment
//! the Adaptive Bit-width Assigner scattered to both sides — the paper's
//! "bit-retrieval index set". Layout:
//!
//! ```text
//! u32 rows | u32 dim
//! per width w in {2,4,8}:
//!     u32 count        (cross-checked against the receiver's assignment)
//!     count x (f32 zero, f32 scale)     in ascending row order
//!     contiguous packed codes (count * dim codes, byte aligned per group)
//! ```

use crate::{kernels, BitWidth, EncodedBlock};
use bytes::{BufMut, BytesMut};
use tensor::{Matrix, Rng};

/// Encodes one width group's contiguous code stream (rows are *not* byte
/// aligned inside a group). Element `g` of the stream draws its coin from
/// counter `c32_start + (g+1)*φ32`, matching the historical one-add-per-
/// element recurrence. Rows enter the fused [`kernels::encode_span`] for
/// their byte-aligned middle; the carried partial byte at each row boundary
/// is handled by short scalar head/tail loops.
fn encode_group_codes<const BITS: u32>(
    messages: &Matrix,
    members: &[usize],
    params: &[(f32, f32)],
    c32_start: u32,
    out: &mut [u8],
) {
    let per_byte = (8 / BITS) as usize;
    let max_code = (1u32 << BITS) - 1;
    let mut g = 0usize; // global element index within the group stream
    let mut byte_idx = 0usize;
    let mut acc = 0u8;
    let mut fill = 0u32;
    for (k, &i) in members.iter().enumerate() {
        let (zero, scale) = params[k];
        // For flat rows (scale == 0) the historical path forced code 0; with
        // inv_scale = 0 the fused expression yields floor(coin) = 0 for the
        // same elements (NaN inputs truncate to 0 on both paths), so the
        // bytes — and the counter advance — are identical.
        let inv_scale = if scale > 0.0 { 1.0 / scale } else { 0.0 };
        let row = messages.row(i);
        let mut j = 0usize;
        // Head: finish the partial byte carried across the row boundary.
        while fill != 0 && j < row.len() {
            let c32 = kernels::counter_at(c32_start, g + j);
            let x = (row[j] - zero) * inv_scale + kernels::coin(c32);
            // lint:allow(lossy-cast): clamped to max_code <= 255 before the narrowing
            let code = (x as u32).min(max_code) as u8;
            acc |= code << fill;
            fill += BITS;
            if fill == 8 {
                out[byte_idx] = acc;
                byte_idx += 1;
                acc = 0;
                fill = 0;
            }
            j += 1;
        }
        // Byte-aligned middle: the fused word-at-a-time kernel.
        let mid = (row.len() - j) / per_byte * per_byte;
        if mid > 0 {
            // Shift the span seed so span element 0 maps to stream element
            // g + j: seed' + 1*φ32 == c32_start + (g+j+1)*φ32.
            let seed = c32_start.wrapping_add(((g + j) as u32).wrapping_mul(kernels::PHI32));
            let span = &mut out[byte_idx..byte_idx + mid / per_byte];
            // Normal scale -> bounded clamp (see encode_span's EXACT
            // contract); flat rows (scale 0) and degenerate scales take the
            // full-domain kernel. Identical bytes either way.
            if scale.is_normal() {
                kernels::encode_span::<BITS, false>(&row[j..j + mid], zero, inv_scale, seed, span);
            } else {
                kernels::encode_span::<BITS, true>(&row[j..j + mid], zero, inv_scale, seed, span);
            }
            byte_idx += mid / per_byte;
            j += mid;
        }
        // Tail: start the next partial byte (< per_byte elements).
        while j < row.len() {
            let c32 = kernels::counter_at(c32_start, g + j);
            let x = (row[j] - zero) * inv_scale + kernels::coin(c32);
            // lint:allow(lossy-cast): clamped to max_code <= 255 before the narrowing
            let code = (x as u32).min(max_code) as u8;
            acc |= code << fill;
            fill += BITS;
            if fill == 8 {
                out[byte_idx] = acc;
                byte_idx += 1;
                acc = 0;
                fill = 0;
            }
            j += 1;
        }
        g += row.len();
    }
    if fill != 0 {
        out[byte_idx] = acc;
    }
}

/// Group-major wire size for a block (exact).
pub fn grouped_wire_len(dim: usize, widths: &[BitWidth]) -> usize {
    let mut len = 8; // rows + dim
    for w in BitWidth::ALL {
        let count = widths.iter().filter(|&&x| x == w).count();
        len += 4 + count * 8 + w.packed_len(count * dim);
    }
    len
}

/// Encodes a block in group-major order.
///
/// # Panics
///
/// Panics if `widths.len() != messages.rows()`.
pub fn encode_block_grouped(messages: &Matrix, widths: &[BitWidth], rng: &mut Rng) -> EncodedBlock {
    assert_eq!(widths.len(), messages.rows(), "one width per message row");
    let rows = messages.rows();
    let dim = messages.cols();
    let mut buf = BytesMut::with_capacity(grouped_wire_len(dim, widths));
    buf.put_u32_le(rows as u32);
    buf.put_u32_le(dim as u32);
    let mut counter = rng.next_u64();
    for w in BitWidth::ALL {
        let members: Vec<usize> = (0..rows).filter(|&i| widths[i] == w).collect();
        buf.put_u32_le(members.len() as u32);
        // Params (ascending row order; membership itself is derived from
        // the shared width assignment on the receiving side).
        let mut params = Vec::with_capacity(members.len());
        for &i in &members {
            let (mn, mx) = kernels::min_max(messages.row(i));
            let scale = if mx > mn {
                // lint:allow(lossy-cast): max_code <= 255, exactly representable in f32
                (mx - mn) / w.max_code() as f32
            } else {
                0.0
            };
            buf.put_f32_le(mn);
            buf.put_f32_le(scale);
            params.push((mn, scale));
        }
        // One contiguous code stream for the whole group, written by the
        // fused round+pack kernels.
        let c32_start = counter as u32;
        let total = members.len() * dim;
        let mut codes = vec![0u8; w.packed_len(total)];
        match w {
            BitWidth::B2 => {
                encode_group_codes::<2>(messages, &members, &params, c32_start, &mut codes);
            }
            BitWidth::B4 => {
                encode_group_codes::<4>(messages, &members, &params, c32_start, &mut codes);
            }
            BitWidth::B8 => {
                encode_group_codes::<8>(messages, &members, &params, c32_start, &mut codes);
            }
        }
        buf.put_slice(&codes);
        // The per-element recurrence ends at c32_start + total*φ32 (mod 2^32);
        // compute it directly so the LCG advance below sees the same value
        // the historical one-add-per-element loop produced.
        let c32 = c32_start.wrapping_add((total as u32).wrapping_mul(kernels::PHI32));
        // LCG-style advance: never collapses to a fixed point (the previous
        // self-XOR variant zeroed the low bits after an empty group, making
        // the next group's coins deterministic).
        counter = counter
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(u64::from(c32) | 1);
    }
    EncodedBlock {
        bytes: buf.freeze(),
        rows,
        dim,
    }
}

/// Decodes a group-major block back into row order.
///
/// `widths` must be the same assignment the sender encoded with (both sides
/// hold it — the assigner scatters it to every device).
///
/// # Errors
///
/// Returns [`crate::codec::DecodeError`] on truncated input or a group count
/// that contradicts `widths`.
pub fn decode_block_grouped(
    block: &EncodedBlock,
    widths: &[BitWidth],
) -> Result<Matrix, crate::codec::DecodeError> {
    use crate::codec::DecodeError;
    let raw: &[u8] = &block.bytes;
    let need = |pos: usize, n: usize| -> Result<(), DecodeError> {
        if raw.len() < pos + n {
            Err(DecodeError::Truncated)
        } else {
            Ok(())
        }
    };
    need(0, 8)?;
    let rows = u32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]) as usize;
    let dim = u32::from_le_bytes([raw[4], raw[5], raw[6], raw[7]]) as usize;
    if widths.len() != rows {
        return Err(DecodeError::Truncated);
    }
    let mut out = Matrix::zeros(rows, dim);
    let mut pos = 8usize;
    let mut seen = 0usize;
    for w in BitWidth::ALL {
        need(pos, 4)?;
        let count =
            u32::from_le_bytes([raw[pos], raw[pos + 1], raw[pos + 2], raw[pos + 3]]) as usize;
        pos += 4;
        let members: Vec<usize> = (0..rows).filter(|&i| widths[i] == w).collect();
        if count != members.len() {
            return Err(DecodeError::Truncated);
        }
        need(pos, count * 8)?;
        let mut params = Vec::with_capacity(count);
        for k in 0..count {
            let b = &raw[pos + 8 * k..pos + 8 * k + 8];
            let zero = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            let scale = f32::from_le_bytes([b[4], b[5], b[6], b[7]]);
            params.push((zero, scale));
        }
        pos += count * 8;
        let plen = w.packed_len(count * dim);
        need(pos, plen)?;
        let packed = &raw[pos..pos + plen];
        pos += plen;
        // Table-driven de-quantize: rows are contiguous code spans (not byte
        // aligned), so each row passes its stream offset to the span kernel.
        let mut code_idx = 0usize;
        for (k, &i) in members.iter().enumerate() {
            let (zero, scale) = params[k];
            let row = out.row_mut(i);
            kernels::dequant_row(w, packed, code_idx, scale, zero, row);
            code_idx += dim;
        }
        seen += count;
    }
    if seen != rows {
        return Err(DecodeError::Truncated);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode_block, predicted_wire_len};

    fn sample(rows: usize, dim: usize) -> Matrix {
        Matrix::from_fn(rows, dim, |i, j| ((i * dim + j) as f32 * 0.311).sin() * 3.0)
    }

    fn mixed_widths(rows: usize) -> Vec<BitWidth> {
        (0..rows).map(|i| BitWidth::ALL[i % 3]).collect()
    }

    #[test]
    fn roundtrip_mixed_widths() {
        let msgs = sample(13, 19);
        let widths = mixed_widths(13);
        let mut rng = Rng::seed_from(1);
        let block = encode_block_grouped(&msgs, &widths, &mut rng);
        let decoded = decode_block_grouped(&block, &widths).expect("decodes");
        assert_eq!(decoded.shape(), (13, 19));
        for i in 0..13 {
            let mn = msgs.row(i).iter().copied().fold(f32::INFINITY, f32::min);
            let mx = msgs
                .row(i)
                .iter()
                .copied()
                .fold(f32::NEG_INFINITY, f32::max);
            let step = (mx - mn) / widths[i].max_code() as f32;
            for (a, b) in msgs.row(i).iter().zip(decoded.row(i)) {
                assert!((a - b).abs() <= step + 1e-4, "row {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn wire_len_matches_prediction() {
        let msgs = sample(9, 17);
        let widths = mixed_widths(9);
        let mut rng = Rng::seed_from(2);
        let block = encode_block_grouped(&msgs, &widths, &mut rng);
        assert_eq!(block.wire_len(), grouped_wire_len(17, &widths));
    }

    #[test]
    fn grouped_saves_padding_for_odd_dims() {
        // dim = 17 at 2-bit: row-major pads each row to 5 bytes (40 bits for
        // 34), group-major packs contiguously.
        let rows = 40;
        let dim = 17;
        let widths = vec![BitWidth::B2; rows];
        let grouped = grouped_wire_len(dim, &widths);
        let row_major = predicted_wire_len(dim, &widths);
        assert!(
            grouped < row_major,
            "grouped {grouped} should beat row-major {row_major}"
        );
    }

    #[test]
    fn agrees_with_row_major_statistically() {
        // Both codecs must yield unbiased reconstructions of the same data.
        let msgs = sample(6, 32);
        let widths = vec![BitWidth::B4; 6];
        let mut rng = Rng::seed_from(3);
        let trials = 600;
        let mut sum_g = Matrix::zeros(6, 32);
        let mut sum_r = Matrix::zeros(6, 32);
        for _ in 0..trials {
            let g = decode_block_grouped(&encode_block_grouped(&msgs, &widths, &mut rng), &widths)
                .expect("grouped decodes");
            let r = crate::decode_block(&encode_block(&msgs, &widths, &mut rng))
                .expect("row-major decodes");
            sum_g.add_assign(&g);
            sum_r.add_assign(&r);
        }
        for ((g, r), t) in sum_g
            .as_slice()
            .iter()
            .zip(sum_r.as_slice())
            .zip(msgs.as_slice())
        {
            assert!((g / trials as f32 - t).abs() < 0.05, "grouped biased");
            assert!((r / trials as f32 - t).abs() < 0.05, "row-major biased");
        }
    }

    #[test]
    fn empty_block() {
        let msgs = Matrix::zeros(0, 8);
        let mut rng = Rng::seed_from(4);
        let block = encode_block_grouped(&msgs, &[], &mut rng);
        let decoded = decode_block_grouped(&block, &[]).expect("decodes");
        assert_eq!(decoded.shape(), (0, 8));
    }

    #[test]
    fn truncated_grouped_block_rejected() {
        let msgs = sample(5, 8);
        let widths = mixed_widths(5);
        let mut rng = Rng::seed_from(5);
        let block = encode_block_grouped(&msgs, &widths, &mut rng);
        let cut = EncodedBlock {
            bytes: block.bytes.slice(0..block.bytes.len() - 3),
            rows: 5,
            dim: 8,
        };
        assert!(decode_block_grouped(&cut, &widths).is_err());
    }

    #[test]
    fn single_width_groups_preserve_order() {
        let msgs = sample(7, 4);
        let widths = vec![BitWidth::B8; 7];
        let mut rng = Rng::seed_from(6);
        let block = encode_block_grouped(&msgs, &widths, &mut rng);
        let decoded = decode_block_grouped(&block, &widths).expect("decodes");
        // 8-bit on a small range: rows must map back to their own slots.
        for i in 0..7 {
            let err: f32 = msgs
                .row(i)
                .iter()
                .zip(decoded.row(i))
                .map(|(a, b)| (a - b).abs())
                .sum();
            assert!(err < 0.5, "row {i} landed in the wrong slot");
        }
    }
}

//! Packing sub-byte quantization codes into uniform byte streams.
//!
//! The paper (following EXACT, Liu et al. 2021) merges all 2-/4-bit codes
//! into 8-bit byte streams before transmission. Codes are packed LSB-first:
//! the first code occupies the lowest bits of the first byte.

use crate::{kernels, BitWidth};

/// Packs `codes` (each `<= width.max_code()`) into a byte stream.
///
/// # Panics
///
/// Panics (debug) if any code exceeds the representable range.
pub fn pack(codes: &[u8], width: BitWidth) -> Vec<u8> {
    let mut out = Vec::new();
    pack_into(codes, width, &mut out);
    out
}

/// Packs into a caller-provided buffer (hot send path: the halo-exchange
/// inner loop reuses one buffer per peer instead of allocating per message).
///
/// The buffer is cleared and resized to exactly `width.packed_len(n)` bytes.
///
/// # Panics
///
/// Panics (debug) if any code exceeds the representable range.
pub fn pack_into(codes: &[u8], width: BitWidth, out: &mut Vec<u8>) {
    let bits = width.bits() as usize;
    out.clear();
    out.resize(width.packed_len(codes.len()), 0);
    for (i, &c) in codes.iter().enumerate() {
        debug_assert!(
            (c as u32) <= width.max_code(),
            "code {c} exceeds {width} range"
        );
        let bit_pos = i * bits;
        let byte = bit_pos / 8;
        let shift = bit_pos % 8;
        out[byte] |= c << shift;
        // 2- and 4-bit codes never straddle byte boundaries (8 % bits == 0),
        // so a single write suffices.
    }
}

/// Unpacks `n` codes of the given width from a byte stream.
///
/// # Panics
///
/// Panics if `bytes` is shorter than `width.packed_len(n)`.
pub fn unpack(bytes: &[u8], width: BitWidth, n: usize) -> Vec<u8> {
    let bits = width.bits() as usize;
    assert!(
        bytes.len() >= width.packed_len(n),
        "byte stream too short: {} < {}",
        bytes.len(),
        width.packed_len(n)
    );
    #[expect(clippy::cast_possible_truncation, reason = "max_code <= 255")]
    let mask = width.max_code() as u8;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let bit_pos = i * bits;
        let byte = bit_pos / 8;
        let shift = bit_pos % 8;
        out.push((bytes[byte] >> shift) & mask);
    }
    out
}

/// Unpacks into an existing buffer (hot receive path).
///
/// Table-driven: a 256-entry LUT expands each packed byte into its four
/// 2-bit or two 4-bit codes per lookup (8-bit streams copy directly). Long
/// streams unpack in parallel over fixed element chunks of at least
/// [`crate::PAR_MIN_ELEMS`] codes — every destination code depends only on
/// its own bit position, so the output is byte-identical at any thread
/// count and short messages never pay pool dispatch.
///
/// # Panics
///
/// Panics if `bytes` is too short for `dst.len()` codes.
pub fn unpack_into(bytes: &[u8], width: BitWidth, dst: &mut [u8]) {
    assert!(
        bytes.len() >= width.packed_len(dst.len()),
        "byte stream too short"
    );
    let n = dst.len();
    tensor::par::par_chunks_deterministic(
        dst,
        n,
        crate::PAR_MIN_ELEMS,
        n,
        |s, e, chunk| match width {
            BitWidth::B2 => kernels::unpack_span2(bytes, s, chunk),
            BitWidth::B4 => kernels::unpack_span4(bytes, s, chunk),
            BitWidth::B8 => chunk.copy_from_slice(&bytes[s..e]),
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_2bit_known_layout() {
        // Codes 0,1,2,3 -> bits 00 01 10 11 LSB-first -> 0b11_10_01_00 = 0xE4.
        let packed = pack(&[0, 1, 2, 3], BitWidth::B2);
        assert_eq!(packed, vec![0xE4]);
    }

    #[test]
    fn pack_4bit_known_layout() {
        // Codes 0xA, 0xB -> byte 0xBA.
        let packed = pack(&[0x0A, 0x0B], BitWidth::B4);
        assert_eq!(packed, vec![0xBA]);
    }

    #[test]
    fn pack_8bit_is_identity() {
        let codes = vec![0u8, 17, 255, 128];
        assert_eq!(pack(&codes, BitWidth::B8), codes);
    }

    #[test]
    fn roundtrip_all_widths() {
        for w in BitWidth::ALL {
            let codes: Vec<u8> = (0..97).map(|i| (i % (w.max_code() + 1)) as u8).collect();
            let packed = pack(&codes, w);
            assert_eq!(packed.len(), w.packed_len(codes.len()));
            assert_eq!(unpack(&packed, w, codes.len()), codes);
        }
    }

    #[test]
    fn roundtrip_odd_lengths() {
        for w in BitWidth::ALL {
            for n in [0usize, 1, 3, 7, 8, 9] {
                let codes: Vec<u8> = (0..n)
                    .map(|i| (i as u32 % (w.max_code() + 1)) as u8)
                    .collect();
                assert_eq!(unpack(&pack(&codes, w), w, n), codes, "width {w} n {n}");
            }
        }
    }

    #[test]
    fn unpack_into_matches_unpack() {
        let codes: Vec<u8> = (0..33).map(|i| (i % 4) as u8).collect();
        let packed = pack(&codes, BitWidth::B2);
        let a = unpack(&packed, BitWidth::B2, 33);
        let mut b = vec![0u8; 33];
        unpack_into(&packed, BitWidth::B2, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn pack_into_reuses_buffer() {
        let mut buf = vec![0xFFu8; 3]; // stale contents must be cleared
        pack_into(&[0, 1, 2, 3], BitWidth::B2, &mut buf);
        assert_eq!(buf, vec![0xE4]);
        pack_into(&[0x0A, 0x0B], BitWidth::B4, &mut buf);
        assert_eq!(buf, vec![0xBA]);
        assert_eq!(pack(&[0x0A, 0x0B], BitWidth::B4), buf);
    }

    #[test]
    fn compression_ratio() {
        let codes = vec![1u8; 1024];
        assert_eq!(pack(&codes, BitWidth::B2).len(), 256);
        assert_eq!(pack(&codes, BitWidth::B4).len(), 512);
        assert_eq!(pack(&codes, BitWidth::B8).len(), 1024);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn unpack_validates_length() {
        let _ = unpack(&[0u8], BitWidth::B8, 2);
    }
}

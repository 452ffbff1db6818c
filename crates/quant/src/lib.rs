//! Stochastic integer quantization for GNN messages.
//!
//! Implements Sec. 2.3 / Sec. 3.2 of the AdaQP paper:
//!
//! * [`quantize`]/[`dequantize`] — the stochastic integer quantization of
//!   Eqn. (4) and the deterministic de-quantization of Eqn. (5), with the
//!   zero-point/scale parameterization `q = round_st((h - Z) / S)`,
//!   `S = (max - min) / (2^b - 1)`;
//! * [`bitpack`] — merging 2-/4-bit codes into uniform byte streams (the
//!   paper follows EXACT (Liu et al. 2021) here);
//! * [`codec`] — the grouped wire format: messages grouped by assigned
//!   bit-width, quantized per group, concatenated into one byte array for
//!   transmission, plus per-message `(zero_point, scale)` parameters;
//! * [`variance`] — the Theorem-1 variance value `D * S^2 / 6` and the
//!   `beta_k` sensitivity coefficients of Sec. 4.2 used by the bit-width
//!   assigner.
//!
//! # Example
//!
//! ```
//! use quant::{quantize, dequantize, BitWidth};
//! use tensor::Rng;
//!
//! let mut rng = Rng::seed_from(0);
//! let msg = vec![0.0, 0.25, 0.5, 0.75, 1.0];
//! let q = quantize(&msg, BitWidth::B8, &mut rng);
//! let back = dequantize(&q);
//! for (a, b) in msg.iter().zip(&back) {
//!     assert!((a - b).abs() < 0.01);
//! }
//! ```

// Library code returns errors, stays silent and narrows only on purpose
// (DESIGN.md §7); `#[cfg(test)]` code, bins and tests are exempt.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::cast_possible_truncation
    )
)]
#![warn(missing_docs)]
// Indexed loops here typically walk several parallel arrays at once;
// explicit indices read better than zipped iterator chains in those spots.
#![allow(clippy::needless_range_loop)]

pub mod bitpack;
pub mod codec;
pub mod grouped;
mod kernels;
mod quantize;
pub mod variance;

/// Minimum number of *elements* (codes) a parallel chunk must cover before
/// the quant kernels pay pool dispatch. Shared by [`quantize_into`] /
/// [`dequantize_into`], [`bitpack`], and the block codecs (which convert it
/// to a row count via `PAR_MIN_ELEMS.div_ceil(dim)`), so a short message is
/// always one chunk and runs inline on the caller's thread.
pub const PAR_MIN_ELEMS: usize = 32 * 1024;

pub use codec::{
    decode_block, decode_rows, encode_block, encode_block_streamed, encode_block_with_stats,
    encode_rows_into, predicted_wire_len, DecodeError, EncodeStats, EncodedBlock, StreamChunk,
    StreamProfile, WidthStats,
};
pub use grouped::{decode_block_grouped, encode_block_grouped};
pub use kernels::min_max;
pub use quantize::{
    dequantize, dequantize_into, quantize, quantize_into, quantize_packed_into, QuantParams,
    QuantizedMessage,
};

use serde::{Deserialize, Serialize};

/// Candidate quantization bit-widths (`B = {2, 4, 8}` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum BitWidth {
    /// 2-bit quantization (4 levels) — most aggressive compression.
    B2,
    /// 4-bit quantization (16 levels).
    B4,
    /// 8-bit quantization (256 levels) — least lossy.
    B8,
}

impl BitWidth {
    /// All candidate bit-widths, ascending.
    pub const ALL: [BitWidth; 3] = [BitWidth::B2, BitWidth::B4, BitWidth::B8];

    /// Number of bits.
    #[inline]
    pub fn bits(self) -> u32 {
        match self {
            BitWidth::B2 => 2,
            BitWidth::B4 => 4,
            BitWidth::B8 => 8,
        }
    }

    /// Quantization levels minus one (`2^b - 1`), the scale denominator.
    #[inline]
    pub fn max_code(self) -> u32 {
        (1u32 << self.bits()) - 1
    }

    /// Parses a bit count.
    ///
    /// Returns `None` for anything other than 2, 4 or 8.
    pub fn from_bits(bits: u32) -> Option<Self> {
        match bits {
            2 => Some(BitWidth::B2),
            4 => Some(BitWidth::B4),
            8 => Some(BitWidth::B8),
            _ => None,
        }
    }

    /// Bytes needed to pack `n` codes of this width.
    #[inline]
    pub fn packed_len(self, n: usize) -> usize {
        (n * self.bits() as usize).div_ceil(8)
    }

    /// Position of this width in [`BitWidth::ALL`] (used to index per-width
    /// accumulator arrays, e.g. [`codec::EncodeStats`]).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            BitWidth::B2 => 0,
            BitWidth::B4 => 1,
            BitWidth::B8 => 2,
        }
    }
}

impl std::fmt::Display for BitWidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-bit", self.bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_and_levels() {
        assert_eq!(BitWidth::B2.bits(), 2);
        assert_eq!(BitWidth::B2.max_code(), 3);
        assert_eq!(BitWidth::B4.max_code(), 15);
        assert_eq!(BitWidth::B8.max_code(), 255);
    }

    #[test]
    fn from_bits_roundtrip() {
        for b in BitWidth::ALL {
            assert_eq!(BitWidth::from_bits(b.bits()), Some(b));
        }
        assert_eq!(BitWidth::from_bits(3), None);
        assert_eq!(BitWidth::from_bits(16), None);
    }

    #[test]
    fn packed_len_rounds_up() {
        assert_eq!(BitWidth::B2.packed_len(3), 1);
        assert_eq!(BitWidth::B2.packed_len(4), 1);
        assert_eq!(BitWidth::B2.packed_len(5), 2);
        assert_eq!(BitWidth::B4.packed_len(3), 2);
        assert_eq!(BitWidth::B8.packed_len(3), 3);
        assert_eq!(BitWidth::B8.packed_len(0), 0);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(BitWidth::B4.to_string(), "4-bit");
    }
}

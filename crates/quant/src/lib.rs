//! Stochastic integer quantization for GNN messages.
//!
//! Implements Sec. 2.3 / Sec. 3.2 of the AdaQP paper:
//!
//! * [`codec`] — the crate's one quantizer and its wire format: every
//!   message row is stochastically rounded (Eqn. 4) at its own assigned
//!   bit-width with `q = floor((h - Z) / S + u)`, `u ~ U[0, 1)`,
//!   `S = (max - min) / (2^b - 1)`, its 2-/4-/8-bit codes packed into whole
//!   bytes (the paper follows EXACT (Liu et al. 2021) here), its width and
//!   `(zero_point, scale)` in a per-row header, and all rows concatenated
//!   into one byte array for transmission; decoding is the deterministic
//!   de-quantization `h = q * S + Z` of Eqn. (5);
//! * [`variance`] — the `beta_k` sensitivity coefficients of Sec. 4.2 used
//!   by the bit-width assigner; the codec reports the matching Theorem-1
//!   variance `D * S^2 / 6` per row as [`WidthStats::sum_sq_err`].
//!
//! # Example
//!
//! ```
//! use quant::{decode_block, encode_block, BitWidth};
//! use tensor::{Matrix, Rng};
//!
//! let mut rng = Rng::seed_from(0);
//! let msgs = Matrix::from_fn(2, 5, |i, j| (i + j) as f32 * 0.25);
//! let block = encode_block(&msgs, &[BitWidth::B8, BitWidth::B2], &mut rng);
//! let back = decode_block(&block).expect("a block the codec wrote");
//! // Each value lands within one quantization step of the original.
//! for (i, step) in [(0, 1.0 / 255.0), (1, 1.0 / 3.0)] {
//!     for (a, b) in msgs.row(i).iter().zip(back.row(i)) {
//!         assert!((a - b).abs() <= step + 1e-6);
//!     }
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

pub mod codec;
mod kernels;
pub mod variance;

/// Minimum number of *elements* (codes) a parallel chunk must cover before
/// the codec pays pool dispatch. The block encoder and decoder convert it
/// to a row count via `PAR_MIN_ELEMS.div_ceil(dim)`, so a short block is
/// always one chunk and runs inline on the caller's thread.
pub const PAR_MIN_ELEMS: usize = 32 * 1024;

pub use codec::{
    decode_block, decode_rows, encode_block, encode_block_with_stats, encode_rows_into,
    predicted_wire_len, DecodeError, EncodeStats, EncodedBlock, WidthStats,
};
pub use kernels::min_max;

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

//! Wire codec for blocks of quantized messages.
//!
//! A *block* is the set of messages one device sends to one peer in one
//! communication round: a `rows x dim` matrix where every row is one node's
//! message, quantized with its own assigned bit-width and concatenated into
//! one byte array for transmission (Sec. 5). Every row header carries the
//! row's width, so the block is self-describing: the receiver decodes it
//! without the paper's bit-retrieval index set.
//!
//! Wire layout (little endian):
//!
//! ```text
//! u32 rows | u32 dim
//! per row: u8 bits | f32 zero_point | f32 scale
//! per row: packed codes (byte aligned)
//! ```

use crate::{kernels, BitWidth};
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use tensor::{Matrix, Rng};

/// Per-row metadata overhead on the wire: bits byte + two f32 params.
pub const ROW_OVERHEAD_BYTES: usize = 1 + 4 + 4;

/// Row-granularity parallel-chunk threshold for a block of `dim`-wide
/// messages: chunks cover at least [`crate::PAR_MIN_ELEMS`] elements each,
/// so short blocks stay on the caller's thread and never pay pool dispatch.
#[inline]
fn par_min_rows(dim: usize) -> usize {
    crate::PAR_MIN_ELEMS.div_ceil(dim.max(1))
}

/// SplitMix64 finalizer: turns a per-row counter into an independent,
/// well-mixed stream key so parallel rows need no serial RNG dependency.
#[inline]
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fixed block header size.
pub const HEADER_BYTES: usize = 8;

/// Quantization statistics for the rows of one bit-width.
///
/// `sum_sq_err` is the *expected* squared quantization error under
/// stochastic rounding (`dim * S^2 / 6` per row, the Theorem-1 variance),
/// not a sampled error — so it is a pure function of the input data and
/// width assignment and stays byte-identical at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct WidthStats {
    /// Rows encoded at this width.
    pub rows: u64,
    /// Elements (rows * dim) encoded at this width.
    pub elements: u64,
    /// Sum over rows of the dynamic range `max - min` (0 for flat rows).
    pub sum_range: f64,
    /// Sum over rows of the expected squared error `dim * S^2 / 6`.
    pub sum_sq_err: f64,
}

impl WidthStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &WidthStats) {
        self.rows += other.rows;
        self.elements += other.elements;
        self.sum_range += other.sum_range;
        self.sum_sq_err += other.sum_sq_err;
    }
}

/// Per-width quantization statistics for one encoded block (or any number
/// of blocks folded together with [`EncodeStats::merge`]).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EncodeStats {
    /// One accumulator per candidate width, in [`BitWidth::ALL`] order.
    pub per_width: [WidthStats; 3],
}

impl EncodeStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &EncodeStats) {
        for (mine, theirs) in self.per_width.iter_mut().zip(&other.per_width) {
            mine.merge(theirs);
        }
    }

    /// The accumulator for `width`.
    pub fn for_width(&self, width: BitWidth) -> &WidthStats {
        &self.per_width[width.index()]
    }

    /// Total rows across all widths.
    pub fn total_rows(&self) -> u64 {
        self.per_width.iter().map(|w| w.rows).sum()
    }
}

/// An encoded block ready for transmission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedBlock {
    /// Serialized bytes (the unit the cost model charges for).
    pub bytes: Bytes,
    /// Number of messages in the block.
    pub rows: usize,
    /// Message dimension.
    pub dim: usize,
}

impl EncodedBlock {
    /// Total wire size in bytes.
    pub fn wire_len(&self) -> usize {
        self.bytes.len()
    }
}

/// Errors produced while decoding a block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the declared content.
    Truncated,
    /// A row header declared an unsupported bit-width.
    BadBitWidth(u8),
    /// The block header declares another `(rows, dim)` than the receiver
    /// expects.
    Shape {
        /// The `(rows, dim)` the receiver expects.
        expected: (usize, usize),
        /// The `(rows, dim)` the header declares.
        found: (usize, usize),
    },
    /// The payload is not exactly as long as its content.
    Length {
        /// Bytes the content needs.
        expected: usize,
        /// Bytes in the payload.
        found: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "encoded block is truncated"),
            DecodeError::BadBitWidth(b) => write!(f, "unsupported bit-width {b}"),
            DecodeError::Shape { expected, found } => write!(
                f,
                "block header declares {} x {}, expected {} x {}",
                found.0, found.1, expected.0, expected.1
            ),
            DecodeError::Length { expected, found } => {
                write!(f, "payload is {found} bytes, its content needs {expected}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Quantizes and serializes a block of messages.
///
/// `widths[i]` is the bit-width assigned to row `i` of `messages` (by the
/// Adaptive Bit-width Assigner, or a fixed width for the naive scheme).
///
/// Rows are independent: each row's wire offset follows from a prefix sum of
/// the packed lengths, and its rounding coins come from a counter keyed on
/// `(block seed, row index)`, so row chunks encode in parallel on the shared
/// runtime with byte-identical output at any thread count.
///
/// # Panics
///
/// Panics if `widths.len() != messages.rows()`.
pub fn encode_block(messages: &Matrix, widths: &[BitWidth], rng: &mut Rng) -> EncodedBlock {
    // `STATS = false`: the caller is discarding the statistics, so the
    // monomorphized core skips the per-row f64 accumulation entirely.
    encode_matrix::<false>(messages, widths, rng).0
}

/// Allocates the block's buffer and encodes `messages` into it.
fn encode_matrix<const STATS: bool>(
    messages: &Matrix,
    widths: &[BitWidth],
    rng: &mut Rng,
) -> (EncodedBlock, EncodeStats) {
    let (rows, dim) = messages.shape();
    let mut buf = vec![0u8; predicted_wire_len(dim, widths)];
    let row_of = |i| messages.row(i);
    let stats = encode_block_core::<STATS, _>(&mut buf, row_of, rows, dim, widths, rng);
    let bytes = Bytes::from(buf);
    (EncodedBlock { bytes, rows, dim }, stats)
}

/// [`encode_block_with_stats`] without the message matrix or the block's
/// own buffer: row `i` of the block is `row_of(i)` (`dim` floats) and the
/// wire bytes are written into `buf`, which the caller sized with
/// [`predicted_wire_len`]`(dim, widths)` — typically a span of a buffer
/// several blocks share. Bytes, statistics and the generator's next draw are
/// those of `encode_block_with_stats` over the matrix of the same rows.
///
/// # Panics
///
/// Panics if `widths.len() != rows`, if `buf` is not exactly the predicted
/// length, or if `row_of` yields a row that is not `dim` long.
pub fn encode_rows_into<'a, R>(
    buf: &mut [u8],
    row_of: R,
    rows: usize,
    dim: usize,
    widths: &[BitWidth],
    rng: &mut Rng,
) -> EncodeStats
where
    R: Fn(usize) -> &'a [f32] + Sync,
{
    encode_block_core::<true, R>(buf, row_of, rows, dim, widths, rng)
}

/// [`encode_block`], additionally returning per-width quantization
/// statistics ([`EncodeStats`]).
///
/// Each parallel chunk accumulates into its own disjoint [`EncodeStats`]
/// slot; the slots are folded in chunk order afterwards, so the statistics
/// (like the wire bytes) are identical at any thread count.
///
/// # Panics
///
/// Panics if `widths.len() != messages.rows()`.
pub fn encode_block_with_stats(
    messages: &Matrix,
    widths: &[BitWidth],
    rng: &mut Rng,
) -> (EncodedBlock, EncodeStats) {
    encode_matrix::<true>(messages, widths, rng)
}

/// Shared body of the block encoders: writes the block whose row `i` is
/// `row_of(i)` into `buf` and returns the per-width statistics.
/// `STATS = false` skips the statistics accumulation (the returned
/// [`EncodeStats`] stays default) for callers that drop it — the wire bytes
/// are identical either way. `buf` need not be zeroed.
#[expect(
    clippy::cast_possible_truncation,
    reason = "rows are graph nodes (u32 ids), dim a layer width, bits <= 8; seeds keep the low half"
)]
fn encode_block_core<'a, const STATS: bool, R>(
    buf: &mut [u8],
    row_of: R,
    rows: usize,
    dim: usize,
    widths: &[BitWidth],
    rng: &mut Rng,
) -> EncodeStats
where
    R: Fn(usize) -> &'a [f32] + Sync,
{
    assert_eq!(widths.len(), rows, "one width per message row");
    assert_eq!(
        buf.len(),
        predicted_wire_len(dim, widths),
        "block buffer is the predicted wire length"
    );
    buf[0..4].copy_from_slice(&(rows as u32).to_le_bytes());
    buf[4..8].copy_from_slice(&(dim as u32).to_le_bytes());
    let (hdr_region, code_region) = buf[HEADER_BYTES..].split_at_mut(rows * ROW_OVERHEAD_BYTES);
    // One base draw per block keys every row's coin stream.
    let base = rng.next_u64();
    // Expected squared error of stochastic rounding is `dim * S^2 / 6` per
    // row; the `dim / 6` factor is row-independent, so hoist it out of the
    // loop (f64 division is the slowest scalar op in the row prologue).
    let sq_coef = dim as f64 / 6.0;
    // Encodes rows `s..e` into their header and code spans; `stat` is the
    // chunk's own statistics slot.
    type Spans<'s> = (&'s mut [u8], &'s mut [u8], &'s mut EncodeStats);
    let encode_rows = |s: usize, e: usize, (hdr, codes, stat): Spans<'_>| {
        let mut code_at = 0usize;
        for (i, h) in (s..e).zip(hdr.chunks_exact_mut(ROW_OVERHEAD_BYTES)) {
            let w = widths[i];
            let row = row_of(i);
            assert_eq!(row.len(), dim, "message row width");
            let out = &mut codes[code_at..code_at + w.packed_len(dim)];
            code_at += out.len();
            let (mn, mx) = kernels::min_max(row);
            let scale = if mx > mn {
                (mx - mn) / w.max_code() as f32
            } else {
                0.0
            };
            if STATS {
                let ws = &mut stat.per_width[w.index()];
                ws.rows += 1;
                ws.elements += dim as u64;
                ws.sum_range += if mx > mn { f64::from(mx - mn) } else { 0.0 };
                ws.sum_sq_err += sq_coef * f64::from(scale) * f64::from(scale);
            }
            h[0] = w.bits() as u8;
            h[1..5].copy_from_slice(&mn.to_le_bytes());
            h[5..9].copy_from_slice(&scale.to_le_bytes());
            if scale == 0.0 {
                // A flat row's codes are all zero.
                out.fill(0);
                continue;
            }
            // Fused stochastic round + pack straight into the wire buffer:
            // `floor(x + u)` with `u ~ U[0,1)` *is* stochastic rounding,
            // the coins come from a murmur-style counter hash keyed per
            // row, and the kernel assembles one wire byte per iteration
            // (kernels::encode_span) — no per-element fill branch, no
            // intermediate code buffer.
            let inv_scale = 1.0 / scale;
            // Truncating the mixed 64-bit key to its low 32 bits is the draw itself.
            let seed = splitmix64(base ^ (i as u64)) as u32;
            // A normal scale bounds (x - mn)/scale by max_code·(1+3ε),
            // unlocking the cheaper bounded clamp (see encode_span's
            // EXACT contract); subnormal/inf/NaN scales take the
            // full-domain kernel. Identical bytes either way.
            if scale.is_normal() {
                match w {
                    BitWidth::B2 => kernels::encode_span::<2, false>(row, mn, inv_scale, seed, out),
                    BitWidth::B4 => kernels::encode_span::<4, false>(row, mn, inv_scale, seed, out),
                    BitWidth::B8 => kernels::encode_span::<8, false>(row, mn, inv_scale, seed, out),
                }
            } else {
                match w {
                    BitWidth::B2 => kernels::encode_span::<2, true>(row, mn, inv_scale, seed, out),
                    BitWidth::B4 => kernels::encode_span::<4, true>(row, mn, inv_scale, seed, out),
                    BitWidth::B8 => kernels::encode_span::<8, true>(row, mn, inv_scale, seed, out),
                }
            }
        }
    };
    let min_rows = par_min_rows(dim);
    if rows <= tensor::par::chunk_len(rows, min_rows) {
        // One chunk (every halo-sized block): nothing to split, schedule or
        // fold, so nothing is allocated either.
        let mut stats = EncodeStats::default();
        encode_rows(0, rows, (hdr_region, code_region, &mut stats));
        return stats;
    }
    // Cut the header and code regions at the same fixed row-chunk boundaries;
    // each task owns one disjoint piece of both.
    let ranges = tensor::par::chunk_ranges(rows, min_rows);
    // One disjoint statistics slot per chunk, folded in chunk order below.
    let mut chunk_stats = vec![EncodeStats::default(); ranges.len()];
    let mut tasks = Vec::with_capacity(ranges.len());
    let mut hdr_rest = hdr_region;
    let mut code_rest = code_region;
    let mut stat_rest = chunk_stats.as_mut_slice();
    for &(s, e) in &ranges {
        let code_len: usize = widths[s..e].iter().map(|w| w.packed_len(dim)).sum();
        let (hdr, hdr_tail) = hdr_rest.split_at_mut((e - s) * ROW_OVERHEAD_BYTES);
        let (codes, code_tail) = code_rest.split_at_mut(code_len);
        let (stat, stat_tail) = stat_rest.split_at_mut(1);
        tasks.push(((s, e), (hdr, codes, &mut stat[0])));
        hdr_rest = hdr_tail;
        code_rest = code_tail;
        stat_rest = stat_tail;
    }
    tensor::par::run_range_tasks("quant::encode_block", rows, rows * dim, tasks, encode_rows);
    let mut stats = EncodeStats::default();
    for s in &chunk_stats {
        stats.merge(s);
    }
    stats
}

/// One row's wire header: its width (`Err` holds a byte that is not one),
/// zero point and scale.
#[inline]
fn row_header(raw: &[u8], row: usize) -> (Result<BitWidth, u8>, f32, f32) {
    let at = HEADER_BYTES + row * ROW_OVERHEAD_BYTES;
    let h = &raw[at..at + ROW_OVERHEAD_BYTES];
    (
        BitWidth::from_bits(u32::from(h[0])).ok_or(h[0]),
        f32::from_le_bytes([h[1], h[2], h[3], h[4]]),
        f32::from_le_bytes([h[5], h[6], h[7], h[8]]),
    )
}

/// Checks everything about `raw` a decoder relies on — the block header,
/// every row header's width, and that the buffer holds every row's codes —
/// and returns the declared `(rows, dim)` and the content's length. After
/// this, [`row_header`] and the code spans cannot run off the buffer.
fn validate_block(raw: &[u8]) -> Result<(usize, usize, usize), DecodeError> {
    if raw.len() < HEADER_BYTES {
        return Err(DecodeError::Truncated);
    }
    let rows = u32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]) as usize;
    let dim = u32::from_le_bytes([raw[4], raw[5], raw[6], raw[7]]) as usize;
    let code_base = HEADER_BYTES + rows * ROW_OVERHEAD_BYTES;
    if raw.len() < code_base {
        return Err(DecodeError::Truncated);
    }
    let mut codes = 0usize;
    for row in 0..rows {
        let width = row_header(raw, row).0.map_err(DecodeError::BadBitWidth)?;
        codes += width.packed_len(dim);
    }
    if raw.len() < code_base + codes {
        return Err(DecodeError::Truncated);
    }
    Ok((rows, dim, code_base + codes))
}

/// De-quantizes row `row` of a validated block, whose codes start at
/// `code_at`, into `out` (`dim` floats); returns where the next row's codes
/// start. Every code is shifted and masked out of its packed word and
/// reconstructed as `code * scale + zero` (kernels::dequant_row),
/// byte-identical to the scalar bit-extract.
#[inline]
fn decode_row(raw: &[u8], row: usize, code_at: usize, out: &mut [f32]) -> usize {
    let (width, zero, scale) = row_header(raw, row);
    // `validate_block` accepted every width byte.
    let width = width.unwrap_or(BitWidth::B8);
    let end = code_at + width.packed_len(out.len());
    kernels::dequant_row(width, &raw[code_at..end], scale, zero, out);
    end
}

/// Decodes a block back into a dense de-quantized matrix.
///
/// Headers parse serially; the unpack + de-quantize work runs row-parallel
/// on the shared runtime with byte-identical output at any thread count.
///
/// # Errors
///
/// Returns [`DecodeError`] if the buffer is truncated or a row header is
/// invalid.
pub fn decode_block(block: &EncodedBlock) -> Result<Matrix, DecodeError> {
    let raw: &[u8] = &block.bytes;
    let (rows, dim, _) = validate_block(raw)?;
    // The prefix sum of code lengths makes the rows independently
    // addressable.
    let mut code_at = Vec::with_capacity(rows);
    let mut at = HEADER_BYTES + rows * ROW_OVERHEAD_BYTES;
    for row in 0..rows {
        code_at.push(at);
        at += row_header(raw, row).0.map_or(0, |w| w.packed_len(dim));
    }
    // Unpack + de-quantize row chunks in parallel: every row reads its own
    // packed span and writes its own output row.
    let mut out = Matrix::zeros(rows, dim);
    let min_rows = par_min_rows(dim);
    tensor::par::par_chunks_deterministic(
        out.as_mut_slice(),
        rows,
        min_rows,
        rows * dim,
        |s, e, chunk| {
            for i in s..e {
                decode_row(
                    raw,
                    i,
                    code_at[i],
                    &mut chunk[(i - s) * dim..(i - s + 1) * dim],
                );
            }
        },
    );
    Ok(out)
}

/// Decodes the `rows x dim` block in `raw` row by row, without a decoded
/// matrix: `sink(k, row)` is handed row `k`'s `dim` de-quantized floats, in
/// row order — the values [`decode_block`] would put in row `k`.
///
/// The shape, every row header and the total length are checked **before
/// the first row reaches `sink`**: on `Err` the sink has not been called, so
/// a bad block cannot be half landed.
///
/// # Errors
///
/// [`DecodeError::Shape`] if the header declares another shape than
/// `rows x dim`, [`DecodeError::Length`] if `raw` is longer than its
/// content, and [`decode_block`]'s errors otherwise.
pub fn decode_rows(
    raw: &[u8],
    rows: usize,
    dim: usize,
    mut sink: impl FnMut(usize, &[f32]),
) -> Result<(), DecodeError> {
    let (found_rows, found_dim, expected) = validate_block(raw)?;
    if (found_rows, found_dim) != (rows, dim) {
        return Err(DecodeError::Shape {
            expected: (rows, dim),
            found: (found_rows, found_dim),
        });
    }
    if raw.len() != expected {
        let found = raw.len();
        return Err(DecodeError::Length { expected, found });
    }
    // One row of scratch, on the stack at the widths halo messages have: a
    // two-row block then allocates nothing (an allocation a message was
    // 4 % of the 256-device workload's epoch).
    let mut stack = [0.0f32; 64];
    let mut heap = Vec::new();
    let scratch: &mut [f32] = if dim <= stack.len() {
        &mut stack[..dim]
    } else {
        heap.resize(dim, 0.0f32);
        &mut heap
    };
    let mut code_at = HEADER_BYTES + rows * ROW_OVERHEAD_BYTES;
    for k in 0..rows {
        code_at = decode_row(raw, k, code_at, scratch);
        sink(k, scratch);
    }
    Ok(())
}

/// Wire size a block *would* have, without encoding it. Used by the cost
/// model and the bit-width assigner's time objective.
pub fn predicted_wire_len(dim: usize, widths: &[BitWidth]) -> usize {
    HEADER_BYTES
        + widths.len() * ROW_OVERHEAD_BYTES
        + widths.iter().map(|w| w.packed_len(dim)).sum::<usize>()
}

/// Wire size of the same block sent at full precision (f32), including the
/// block header; the Vanilla baseline's traffic.
pub fn fp32_wire_len(rows: usize, dim: usize) -> usize {
    HEADER_BYTES + rows * dim * 4
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages(rows: usize, dim: usize) -> Matrix {
        Matrix::from_fn(rows, dim, |i, j| ((i * dim + j) as f32 * 0.731).sin() * 4.0)
    }

    #[test]
    fn roundtrip_uniform_8bit_is_accurate() {
        let mut rng = Rng::seed_from(1);
        let msgs = sample_messages(10, 32);
        let widths = vec![BitWidth::B8; 10];
        let block = encode_block(&msgs, &widths, &mut rng);
        let decoded = decode_block(&block).expect("valid block");
        for i in 0..10 {
            for (a, b) in msgs.row(i).iter().zip(decoded.row(i)) {
                assert!((a - b).abs() < 0.05, "{a} vs {b}");
            }
        }
        // Values on the 8-bit grid of their row survive unchanged.
        let grid = Matrix::from_fn(1, 256, |_, j| j as f32 * 0.5);
        let block = encode_block(&grid, &[BitWidth::B8], &mut rng);
        let decoded = decode_block(&block).expect("valid block");
        assert_eq!(decoded.as_slice(), grid.as_slice());
    }

    #[test]
    fn mixed_widths_roundtrip() {
        let mut rng = Rng::seed_from(2);
        let msgs = sample_messages(9, 16);
        let widths: Vec<BitWidth> = (0..9).map(|i| BitWidth::ALL[i % 3]).collect();
        let block = encode_block(&msgs, &widths, &mut rng);
        let decoded = decode_block(&block).expect("valid block");
        assert_eq!(decoded.shape(), (9, 16));
        // Error bounded by each row's scale.
        for i in 0..9 {
            let range = msgs
                .row(i)
                .iter()
                .copied()
                .fold(f32::NEG_INFINITY, f32::max)
                - msgs.row(i).iter().copied().fold(f32::INFINITY, f32::min);
            let step = range / widths[i].max_code() as f32;
            for (a, b) in msgs.row(i).iter().zip(decoded.row(i)) {
                assert!((a - b).abs() <= step + 1e-5);
            }
        }
    }

    #[test]
    fn wire_len_matches_prediction() {
        let mut rng = Rng::seed_from(3);
        let msgs = sample_messages(7, 24);
        let widths: Vec<BitWidth> = (0..7).map(|i| BitWidth::ALL[(i * 2) % 3]).collect();
        let block = encode_block(&msgs, &widths, &mut rng);
        assert_eq!(block.wire_len(), predicted_wire_len(24, &widths));
    }

    #[test]
    fn lower_bits_smaller_wire() {
        let dim = 64;
        let w2 = predicted_wire_len(dim, &[BitWidth::B2; 100]);
        let w4 = predicted_wire_len(dim, &[BitWidth::B4; 100]);
        let w8 = predicted_wire_len(dim, &[BitWidth::B8; 100]);
        let fp = fp32_wire_len(100, dim);
        assert!(w2 < w4 && w4 < w8 && w8 < fp);
        // Asymptotic ratios: 2-bit ~16x smaller than fp32 for wide messages.
        assert!((fp as f64 / w2 as f64) > 10.0);
    }

    #[test]
    fn empty_block_roundtrips() {
        let mut rng = Rng::seed_from(4);
        let msgs = Matrix::zeros(0, 8);
        let block = encode_block(&msgs, &[], &mut rng);
        let decoded = decode_block(&block).expect("valid block");
        assert_eq!(decoded.shape(), (0, 8));
        // A constant row has scale 0 and round-trips exactly at every width.
        let flat = Matrix::from_fn(3, 16, |_, _| 2.5);
        let block = encode_block(&flat, &BitWidth::ALL, &mut rng);
        assert_eq!(decode_block(&block).expect("valid block"), flat);
    }

    #[test]
    fn empirical_variance_below_theorem1_bound() {
        // Encode one row many times and check the sample variance of each
        // decoded element stays below S^2 / 4 (elementwise Bernoulli
        // variance is at most S^2/4; the S^2/6 constant is the *average*
        // under the uniform-fraction assumption). The *sum* over the row
        // must stay near the `dim * S^2 / 6` the encoder reports as
        // `sum_sq_err` for a generic (non-adversarial) row.
        let mut rng = Rng::seed_from(42);
        let dim = 64;
        let msg = Matrix::from_fn(1, dim, |_, _| rng.uniform(-2.0, 2.0));
        let width = [BitWidth::B2];
        let trials = 3000;
        let mut sums = vec![0.0f64; dim];
        let mut sq_sums = vec![0.0f64; dim];
        let mut reported = EncodeStats::default();
        for _ in 0..trials {
            let (block, stats) = encode_block_with_stats(&msg, &width, &mut rng);
            reported = stats;
            let d = decode_block(&block).expect("valid block");
            for ((s, ss), &v) in sums.iter_mut().zip(sq_sums.iter_mut()).zip(d.row(0)) {
                *s += v as f64;
                *ss += (v as f64) * (v as f64);
            }
        }
        let (mn, mx) = kernels::min_max(msg.row(0));
        let scale = ((mx - mn) / width[0].max_code() as f32) as f64;
        let mut total_var = 0.0f64;
        for i in 0..dim {
            let mean = sums[i] / trials as f64;
            let var = sq_sums[i] / trials as f64 - mean * mean;
            // Elementwise bound: p(1-p) * S^2 <= S^2/4.
            assert!(
                var <= scale * scale / 4.0 + 1e-6,
                "element {i} variance {var} exceeds S^2/4"
            );
            total_var += var;
        }
        let bound = reported.for_width(BitWidth::B2).sum_sq_err;
        assert!(
            total_var < 2.0 * bound,
            "total {total_var} far above the reported {bound}"
        );
        assert!(total_var > 0.2 * bound, "suspiciously low variance");
    }

    #[test]
    fn truncated_block_is_rejected() {
        let mut rng = Rng::seed_from(5);
        let msgs = sample_messages(4, 8);
        let block = encode_block(&msgs, &[BitWidth::B8; 4], &mut rng);
        let cut = EncodedBlock {
            bytes: block.bytes.slice(0..block.bytes.len() - 5),
            rows: 4,
            dim: 8,
        };
        assert_eq!(decode_block(&cut), Err(DecodeError::Truncated));
    }

    #[test]
    fn encode_stats_count_rows_and_expected_error() {
        let mut rng = Rng::seed_from(7);
        let dim = 16;
        let msgs = sample_messages(9, dim);
        let widths: Vec<BitWidth> = (0..9).map(|i| BitWidth::ALL[i % 3]).collect();
        let (block, stats) = encode_block_with_stats(&msgs, &widths, &mut rng);
        assert_eq!(block.rows, 9);
        assert_eq!(stats.total_rows(), 9);
        for w in BitWidth::ALL {
            let ws = stats.for_width(w);
            assert_eq!(ws.rows, 3);
            assert_eq!(ws.elements, 3 * dim as u64);
            assert!(ws.sum_range > 0.0);
            assert!(ws.sum_sq_err > 0.0);
        }
        // Coarser widths have a larger scale, hence larger expected error.
        assert!(
            stats.for_width(BitWidth::B2).sum_sq_err > stats.for_width(BitWidth::B8).sum_sq_err
        );
        // A flat row contributes range 0 and error 0.
        let flat = Matrix::from_fn(1, dim, |_, _| 2.5);
        let (_, fs) = encode_block_with_stats(&flat, &[BitWidth::B4], &mut rng);
        assert_eq!(fs.for_width(BitWidth::B4).sum_range, 0.0);
        assert_eq!(fs.for_width(BitWidth::B4).sum_sq_err, 0.0);
    }

    #[test]
    fn encode_stats_merge_adds_componentwise() {
        let mut rng = Rng::seed_from(8);
        let msgs = sample_messages(6, 8);
        let widths = vec![BitWidth::B4; 6];
        let (_, a) = encode_block_with_stats(&msgs, &widths, &mut rng);
        let mut total = a;
        total.merge(&a);
        assert_eq!(total.for_width(BitWidth::B4).rows, 12);
        assert_eq!(
            total.for_width(BitWidth::B4).sum_range,
            2.0 * a.for_width(BitWidth::B4).sum_range
        );
    }

    #[test]
    fn encode_stats_are_thread_count_invariant() {
        // Enough rows to split into several parallel chunks.
        let msgs = sample_messages(257, 12);
        let widths: Vec<BitWidth> = (0..257).map(|i| BitWidth::ALL[(i * 7) % 3]).collect();
        let baseline = tensor::par::current_threads();
        let mut reference = None;
        for threads in [1usize, 2, 8] {
            tensor::par::set_threads(threads);
            let mut rng = Rng::seed_from(9);
            let (block, stats) = encode_block_with_stats(&msgs, &widths, &mut rng);
            match &reference {
                None => reference = Some((block, stats)),
                Some((b0, s0)) => {
                    assert_eq!(&block, b0, "wire bytes differ at {threads} threads");
                    assert_eq!(&stats, s0, "stats differ at {threads} threads");
                }
            }
        }
        tensor::par::set_threads(baseline);
    }

    #[test]
    fn corrupt_bitwidth_is_rejected() {
        let mut rng = Rng::seed_from(6);
        let msgs = sample_messages(1, 4);
        let block = encode_block(&msgs, &[BitWidth::B8], &mut rng);
        let mut raw = block.bytes.to_vec();
        raw[HEADER_BYTES] = 7; // invalid bits field of row 0
        let bad = EncodedBlock {
            bytes: Bytes::from(raw),
            rows: 1,
            dim: 4,
        };
        assert_eq!(decode_block(&bad), Err(DecodeError::BadBitWidth(7)));
    }
}

//! Halo exchange: moving boundary messages between devices, at full
//! precision (Vanilla) or quantized (AdaQP), with byte and time accounting.
//!
//! There is one routine, [`halo_exchange`] (and [`halo_exchange_with`], the
//! same routine making its destination late): a payload per peer that has
//! rows to get, round the ring, land what came back: two halves around one
//! `ring_exchange(..).await` (a blocking ring for the harness's closure
//! devices). [`Direction`] picks the rows read and the rows written;
//! [`Wire`] is the only place a codec and its accounting differ. Peers are
//! visited in ascending rank to send, then in ascending rank to receive: the
//! [`Rng`] stream and the `f64` adds into [`ExchangeStats::quant_ops`]
//! follow that order, and both reach results.
//!
//! The routine costs what the bytes cost, not what the messages cost
//! (DESIGN.md §18): rows are encoded straight from the source matrix into
//! spans of a few shared buffers, only non-empty payloads enter the ring,
//! and received rows are decoded straight into their destination rows.

use crate::decompose::DevicePartition;
use bytes::Bytes;
use comm::timing::measure;
use comm::{AsyncDevice, CostModel, DeviceHandle};
use quant::grouped::grouped_wire_len;
use quant::{
    decode_block_grouped, decode_rows, encode_block_grouped, encode_rows_into, predicted_wire_len,
    BitWidth, DecodeError, EncodedBlock, StreamProfile,
};
use std::borrow::BorrowMut;
use tensor::{Matrix, Rng};

/// Consecutive payloads of one exchange share buffers of at most this many
/// bytes; a larger payload gets a buffer to itself. Small enough that the
/// allocator serves a buffer from its arenas (one buffer per exchange
/// crossed the `mmap` threshold on the 8-device workload and cost 2-5 % of
/// its epoch) and that a receiver still holding one payload pins at most
/// this much of its sender's memory.
const POOL_BYTES: usize = 64 * 1024;

/// A peer's payload did not decode: corrupt or truncated bytes, or a block
/// of another shape than this device's partition expects from that peer.
/// Nothing of that payload was landed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeError {
    /// Rank whose payload was rejected.
    pub peer: usize,
    /// What was wrong with it.
    pub cause: DecodeError,
}

impl std::fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "malformed halo block from device {}: {}",
            self.peer, self.cause
        )
    }
}

impl std::error::Error for ExchangeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.cause)
    }
}

/// Operations per element of the quantization encoder (hash coin + scale +
/// truncate + pack), calibrated against the measured kernel throughput.
pub const ENCODE_OPS_PER_ELEMENT: f64 = 15.0;

/// Operations per element of the de-quantization decoder (unpack + fma).
pub const DECODE_OPS_PER_ELEMENT: f64 = 4.0;

/// Byte and kernel accounting for one exchange.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExchangeStats {
    /// Bytes sent to each destination rank.
    pub sent_bytes: Vec<usize>,
    /// Bytes received from each source rank.
    pub recv_bytes: Vec<usize>,
    /// Measured CPU seconds in quantize/de-quantize kernels (diagnostic; the
    /// clock charges `quant_ops`, so the simulation is immune to host load).
    pub quant_cpu_seconds: f64,
    /// Elements quantized (encoder side, including error-feedback
    /// self-decodes at decoder cost).
    pub quant_ops: f64,
    /// Per-width quantization statistics (rows, ranges, expected squared
    /// error) from the row-major quantized wires; zero for fp32 and
    /// group-major wires.
    pub encode_stats: quant::EncodeStats,
    /// Pipelined quantize+send seconds per destination, filled by
    /// [`Wire::Streamed`]: chunk `k`'s transfer starts once its rows are
    /// encoded and the previous chunk has left the NIC, so this time
    /// *includes* both the encode compute and the transfer. Zero entries
    /// mean the destination was not streamed and
    /// [`ExchangeStats::ring_seconds`] falls back to the plain transfer
    /// model (with encode charged separately via `quant_ops`).
    pub streamed_send: Vec<f64>,
}

impl ExchangeStats {
    fn new(n: usize) -> Self {
        Self {
            sent_bytes: vec![0; n],
            recv_bytes: vec![0; n],
            streamed_send: vec![0.0; n],
            ..Self::default()
        }
    }

    /// Total bytes sent.
    pub fn total_sent(&self) -> usize {
        self.sent_bytes.iter().sum()
    }

    /// Simulated communication seconds for this device under the
    /// unsynchronized ring schedule ([`CostModel::ring_seconds`]), a
    /// streamed destination's send never shorter than its pipeline.
    pub fn ring_seconds(&self, cost: &CostModel, rank: usize) -> f64 {
        cost.ring_seconds(
            rank,
            &self.sent_bytes,
            &self.recv_bytes,
            &self.streamed_send,
        )
    }

    /// Simulated communication seconds under SANCUS's sequential-broadcast
    /// schedule: devices take turns, and a broadcasting device pushes a
    /// separate unicast copy to every peer through its single NIC, so each
    /// turn costs the *sum* of its point-to-point transfers. Peers observe a
    /// broadcaster's full turn (they wait for the round to finish), which
    /// each rank reconstructs from the bytes it received (a broadcast sends
    /// the same payload to every destination).
    pub fn sequential_seconds(&self, cost: &CostModel, rank: usize) -> f64 {
        let n = cost.num_devices();
        let mut total = 0.0;
        for turn in 0..n {
            let mut t: f64 = 0.0;
            if turn == rank {
                for (dst, &b) in self.sent_bytes.iter().enumerate() {
                    if dst != rank {
                        t += cost.transfer_time(rank, dst, b);
                    }
                }
            } else {
                let b = self.recv_bytes[turn];
                for dst in 0..n {
                    if dst != turn {
                        t += cost.transfer_time(turn, dst, b);
                    }
                }
            }
            total += t;
        }
        total
    }
}

/// Writes `row` into `dst` (four bytes per element) as little-endian `f32`s.
fn write_row_le(dst: &mut [u8], row: &[f32]) {
    for (d, v) in dst.chunks_exact_mut(4).zip(row) {
        d.copy_from_slice(&v.to_le_bytes());
    }
}

/// The `f32` values of a little-endian payload, in order.
fn floats_le(src: &[u8]) -> impl Iterator<Item = f32> + '_ {
    src.chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
}

/// Lands one received row in its destination row: assigned going forward
/// (halo slots), added going backward (gradients).
fn land_row(dir: Direction, into: &mut [f32], row: impl Iterator<Item = f32>) {
    let into = into.iter_mut();
    match dir {
        Direction::Forward => into.zip(row).for_each(|(v, f)| *v = f),
        Direction::Backward => into.zip(row).for_each(|(v, f)| *v += f),
    }
}

/// Serializes a row-major matrix to little-endian `f32` bytes.
pub fn matrix_to_bytes(m: &Matrix) -> Bytes {
    let mut raw = vec![0u8; m.len() * 4];
    write_row_le(&mut raw, m.as_slice());
    Bytes::from(raw)
}

/// Deserializes little-endian `f32` bytes into a `rows x cols` matrix.
///
/// # Panics
///
/// Panics if the byte length is not `rows * cols * 4`.
#[expect(clippy::expect_used, reason = "the length is asserted first")]
pub fn bytes_to_matrix(bytes: &Bytes, rows: usize, cols: usize) -> Matrix {
    assert_eq!(bytes.len(), rows * cols * 4, "fp32 payload size mismatch");
    // Collecting the exact-size iterator fills the buffer in one pass;
    // zeroing a matrix first and overwriting it measured 1.4-2x slower.
    let data: Vec<f32> = floats_le(bytes).collect();
    Matrix::from_vec(rows, cols, data).expect("sized by construction")
}

/// Pipelined quantize+send seconds for one destination under the streamed
/// exchange: the encoder produces the block chunk by chunk (the codec's
/// fixed parallel ranges), and chunk `k` enters the wire as soon as both
/// its rows are encoded (the CPU prefix) and chunk `k-1` has left the NIC.
/// Chunks after the first ride the same message, so they do not re-pay the
/// link setup latency `gamma`.
///
/// Two bounds follow directly from the recurrence and pin the model's
/// sanity: the result is at least the bare transfer time of the whole
/// block, and at most the serial `encode + transfer` total the
/// non-streamed path charges.
pub fn streamed_send_seconds(
    cost: &CostModel,
    src: usize,
    dst: usize,
    profile: &StreamProfile,
) -> f64 {
    let (_, gamma) = cost.link_params(src, dst);
    let mut cpu = 0.0_f64;
    let mut nic = 0.0_f64;
    for (k, chunk) in profile.chunks.iter().enumerate() {
        cpu += cost.ops_time_for(src, chunk.elements as f64 * ENCODE_OPS_PER_ELEMENT);
        let mut wire = cost.transfer_time(src, dst, chunk.wire_bytes);
        if k > 0 {
            wire = (wire - gamma).max(0.0);
        }
        nic = nic.max(cpu) + wire;
    }
    nic
}

/// Which way boundary data flows in one exchange.
///
/// | | rows read from `src` for peer `q` | `src` rows | received rows land in `dst` at | `dst` rows | by |
/// |---|---|---|---|---|---|
/// | `Forward` | `send_sets[q]` | `num_local` | `recv_slots[q]` | `num_halo` | assignment |
/// | `Backward` | `num_local + recv_slots[q]` | `num_ext` | `send_sets[q]` | `num_local` | addition |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Owners ship boundary embeddings to the peers holding them as halo.
    Forward,
    /// Halo gradients return to their owners and accumulate there.
    Backward,
}

/// How messages are encoded on the wire. Width tables are per peer:
/// `widths[q]` has one entry per row sent to `q`.
#[derive(Debug)]
pub enum Wire<'a> {
    /// Little-endian `f32` rows, no codec: the bytes of [`matrix_to_bytes`]
    /// over the gathered rows. Adds nothing but byte counts to the stats.
    Fp32,
    /// Row-major quantized blocks. Charges encode and decode to
    /// `quant_ops` and fills `encode_stats`. `residuals` (one matrix per
    /// peer, aligned with the rows sent) turn on error feedback (Wu et al.
    /// 2018, beyond the paper): last round's quantization error joins each
    /// message before quantizing and the new error — message minus what the
    /// receiver decodes, a self-decode charged to `quant_ops` — is stored.
    Rows {
        /// Widths of the rows sent to each peer.
        widths: &'a [Vec<BitWidth>],
        /// Error-feedback residuals per peer, updated in place.
        residuals: Option<&'a mut Vec<Matrix>>,
    },
    /// [`Wire::Rows`] bytes, statistics and RNG stream with the
    /// quantize+send pipeline: each block is encoded chunk by chunk and the
    /// chunks enter the wire as they finish, so encode time is folded into
    /// `streamed_send` ([`streamed_send_seconds`]) instead of `quant_ops`.
    Streamed {
        /// Widths of the rows sent to each peer.
        widths: &'a [Vec<BitWidth>],
        /// Prices the encode/transfer pipeline.
        cost: &'a CostModel,
    },
    /// The paper's group-major serialization: one contiguous code stream
    /// per bit-width, no per-row width bytes — so the receiver needs the
    /// tables the assigner scatters. Charges `quant_ops`; no `encode_stats`.
    Grouped {
        /// Widths of the rows sent to each peer.
        send_widths: &'a [Vec<BitWidth>],
        /// Widths of the rows received from each peer (the sender's table).
        recv_widths: &'a [Vec<BitWidth>],
    },
}

impl Wire<'_> {
    /// Wire bytes of the `rows`-row payload for peer `q`, known before a row
    /// is encoded.
    fn payload_len(&self, q: usize, rows: usize, dim: usize) -> usize {
        match self {
            Wire::Fp32 => rows * dim * 4,
            Wire::Rows { widths, .. } | Wire::Streamed { widths, .. } => {
                predicted_wire_len(dim, &widths[q])
            }
            Wire::Grouped { send_widths, .. } => grouped_wire_len(dim, &send_widths[q]),
        }
    }

    /// Writes the payload for peer `q` — rows `offset + idx[k]` of `src`,
    /// encoded — into `span`, which is [`Wire::payload_len`] long.
    fn encode_into(
        &mut self,
        span: &mut [u8],
        src: &Matrix,
        (offset, idx): (usize, &[u32]),
        (rank, q): (usize, usize),
        rng: &mut Rng,
        stats: &mut ExchangeStats,
    ) {
        let (rows, dim) = (idx.len(), src.cols());
        let encode_ops = (rows * dim) as f64 * ENCODE_OPS_PER_ELEMENT;
        let row_of = |k: usize| src.row(offset + idx[k] as usize);
        // The message matrix, for the wires that need one to work on.
        let gathered = || {
            let rows: Vec<usize> = idx.iter().map(|&i| offset + i as usize).collect();
            src.gather_rows(&rows)
        };
        match self {
            Wire::Fp32 => {
                // `max(1)`: zero-width rows make an empty payload, not a zero chunk size.
                for (k, out) in span.chunks_exact_mut((dim * 4).max(1)).enumerate() {
                    write_row_le(out, row_of(k));
                }
            }
            Wire::Rows {
                widths,
                residuals: None,
            } => {
                let enc = encode_rows_into(span, row_of, rows, dim, &widths[q], rng);
                stats.quant_ops += encode_ops;
                stats.encode_stats.merge(&enc);
            }
            Wire::Rows {
                widths,
                residuals: Some(res),
            } => {
                let mut msgs = gathered();
                msgs.add_assign(&res[q]);
                let enc = encode_rows_into(span, |k| msgs.row(k), rows, dim, &widths[q], rng);
                stats.quant_ops += encode_ops;
                stats.encode_stats.merge(&enc);
                // The new residual: message minus what the receiver decodes.
                #[expect(clippy::expect_used, reason = "decodes the block encoded above")]
                decode_rows(span, rows, dim, |k, row| {
                    for (m, d) in msgs.row_mut(k).iter_mut().zip(row) {
                        *m -= d;
                    }
                })
                .expect("own block decodes");
                stats.quant_ops += msgs.len() as f64 * (DECODE_OPS_PER_ELEMENT + 2.0);
                res[q] = msgs;
            }
            Wire::Streamed { widths, cost } => {
                let enc = encode_rows_into(span, row_of, rows, dim, &widths[q], rng);
                stats.encode_stats.merge(&enc);
                let profile = StreamProfile::for_block(dim, &widths[q]);
                stats.streamed_send[q] = streamed_send_seconds(cost, rank, q, &profile);
            }
            Wire::Grouped { send_widths, .. } => {
                let block = encode_block_grouped(&gathered(), &send_widths[q], rng);
                span.copy_from_slice(&block.bytes);
                stats.quant_ops += encode_ops;
            }
        }
    }

    /// Decodes peer `q`'s non-empty `payload` of `idx.len()` rows into rows
    /// `idx[k]` of `dst`. The whole payload is checked before the first row
    /// is landed: on `Err`, `dst` is as it was.
    fn land(
        &self,
        payload: Bytes,
        dir: Direction,
        dst: &mut Matrix,
        (q, idx): (usize, &[u32]),
        stats: &mut ExchangeStats,
    ) -> Result<(), DecodeError> {
        let (rows, dim) = (idx.len(), dst.cols());
        match self {
            Wire::Fp32 => {
                let (expected, found) = (rows * dim * 4, payload.len());
                if found != expected {
                    return Err(DecodeError::Length { expected, found });
                }
                for (row, &i) in payload.chunks_exact(dim * 4).zip(idx) {
                    land_row(dir, dst.row_mut(i as usize), floats_le(row));
                }
                return Ok(());
            }
            Wire::Grouped { recv_widths, .. } => {
                let block = EncodedBlock {
                    bytes: payload,
                    rows,
                    dim,
                };
                let decoded = decode_block_grouped(&block, &recv_widths[q])?;
                if decoded.shape() != (rows, dim) {
                    return Err(DecodeError::Shape {
                        expected: (rows, dim),
                        found: decoded.shape(),
                    });
                }
                for (k, &i) in idx.iter().enumerate() {
                    land_row(dir, dst.row_mut(i as usize), decoded.row(k).iter().copied());
                }
            }
            Wire::Rows { .. } | Wire::Streamed { .. } => {
                decode_rows(&payload, rows, dim, |k, row| {
                    land_row(dir, dst.row_mut(idx[k] as usize), row.iter().copied());
                })?;
            }
        }
        stats.quant_ops += (rows * dim) as f64 * DECODE_OPS_PER_ELEMENT;
        Ok(())
    }
}

/// The halo exchange (Sec. 3.2, Fig. 8): ships boundary rows of `src` to
/// every peer over `wire` and lands the rows received from peers in `dst`;
/// [`Direction`] says which rows and how. `src = None` sends nothing (a
/// SANCUS device skipping its broadcast turn) but still receives.
///
/// The caller owns `dst`: rows no peer sent are left as they were, so fresh
/// zeros give a plain halo, a stale cache keeps its stale rows, and a
/// gradient matrix accumulates.
///
/// # Errors
///
/// [`ExchangeError`] if a peer's payload does not decode; rows of the peers
/// before it (in ascending rank) have been landed, none of its own.
///
/// # Panics
///
/// Panics if a shape or width table disagrees with the partition.
pub async fn halo_exchange(
    dev: &mut AsyncDevice,
    part: &DevicePartition,
    dir: Direction,
    src: Option<&Matrix>,
    dst: &mut Matrix,
    wire: Wire<'_>,
    rng: &mut Rng,
) -> Result<ExchangeStats, ExchangeError> {
    let dim = dst.cols();
    let exchange = halo_exchange_with(dev, part, dir, src, dim, || dst, wire, rng);
    exchange.await.map(|(_, stats)| stats)
}

/// [`halo_exchange`] with the `dim`-column destination made by `make_dst`
/// *after* the ring wait, and handed back: a matrix zeroed before the wait
/// has left the cache by the time rows land in it (measured: +23 % on the
/// fp32 forward exchange), so a fresh halo matrix is created here, between
/// the two halves. A caller-owned destination is `|| dst`.
///
/// # Errors
///
/// As [`halo_exchange`].
///
/// # Panics
///
/// As [`halo_exchange`].
#[allow(clippy::too_many_arguments)]
pub async fn halo_exchange_with<D: BorrowMut<Matrix>>(
    dev: &mut AsyncDevice,
    part: &DevicePartition,
    dir: Direction,
    src: Option<&Matrix>,
    dim: usize,
    make_dst: impl FnOnce() -> D,
    mut wire: Wire<'_>,
    rng: &mut Rng,
) -> Result<(D, ExchangeStats), ExchangeError> {
    let (sends, stats) = post(part, dir, src, dim, &mut wire, rng);
    let received = dev.ring_exchange(sends).await;
    land(part, (dir, dim), received, make_dst, &wire, stats)
}

/// The half of an exchange before the ring: sizes every payload, then
/// encodes consecutive payloads into shared buffers and returns views of
/// them, with the stats so far. Peers with no rows are not listed.
fn post(
    part: &DevicePartition,
    dir: Direction,
    src: Option<&Matrix>,
    dim: usize,
    wire: &mut Wire<'_>,
    rng: &mut Rng,
) -> (Vec<(u32, Bytes)>, ExchangeStats) {
    let n = part.num_parts;
    let (offset, src_rows, send_idx) = match dir {
        Direction::Forward => (0, part.num_local(), &part.send_sets),
        Direction::Backward => (part.num_local(), part.num_ext(), &part.recv_slots),
    };
    let mut stats = ExchangeStats::new(n);
    let mut sends: Vec<(u32, Bytes)> = Vec::new();
    if let Some(src) = src {
        assert_eq!(src.shape(), (src_rows, dim), "{dir:?} src shape");
        let lens: Vec<usize> = (0..n)
            .map(|q| match send_idx[q].len() {
                rows if q != part.rank && rows > 0 => wire.payload_len(q, rows, dim),
                _ => 0,
            })
            .collect();
        let ((), secs) = measure(|| {
            let mut q = 0;
            while q < n {
                let first = q;
                let mut total = 0;
                while q < n && (total == 0 || total + lens[q] <= POOL_BYTES) {
                    total += lens[q];
                    q += 1;
                }
                let mut buf = vec![0u8; total];
                let mut rest = buf.as_mut_slice();
                for p in (first..q).filter(|&p| lens[p] > 0) {
                    let (span, tail) = std::mem::take(&mut rest).split_at_mut(lens[p]);
                    rest = tail;
                    let rows = (offset, send_idx[p].as_slice());
                    wire.encode_into(span, src, rows, (part.rank, p), rng, &mut stats);
                }
                let buf = Bytes::from(buf);
                let mut at = 0;
                for p in (first..q).filter(|&p| lens[p] > 0) {
                    // Device counts are far below 2^32.
                    sends.push((p as u32, buf.slice(at..at + lens[p])));
                    at += lens[p];
                }
            }
        });
        stats.sent_bytes = lens;
        if !matches!(wire, Wire::Fp32) {
            stats.quant_cpu_seconds += secs;
        }
    }
    (sends, stats)
}

/// The half of an exchange after the ring: makes the destination and lands
/// every received payload in it.
fn land<D: BorrowMut<Matrix>>(
    part: &DevicePartition,
    (dir, dim): (Direction, usize),
    received: Vec<(u32, Bytes)>,
    make_dst: impl FnOnce() -> D,
    wire: &Wire<'_>,
    mut stats: ExchangeStats,
) -> Result<(D, ExchangeStats), ExchangeError> {
    let (dst_rows, recv_idx) = match dir {
        Direction::Forward => (part.num_halo(), &part.recv_slots),
        Direction::Backward => (part.num_local(), &part.send_sets),
    };
    let mut made = make_dst();
    let dst: &mut Matrix = made.borrow_mut();
    assert_eq!(dst.shape(), (dst_rows, dim), "{dir:?} dst shape");
    let (landed, secs) = measure(|| {
        for (q, payload) in received {
            let q = q as usize;
            stats.recv_bytes[q] = payload.len();
            if !payload.is_empty() {
                wire.land(payload, dir, dst, (q, &recv_idx[q]), &mut stats)
                    .map_err(|cause| ExchangeError { peer: q, cause })?;
            }
        }
        Ok(())
    });
    landed?;
    if !matches!(wire, Wire::Fp32) {
        stats.quant_cpu_seconds += secs;
    }
    Ok((made, stats))
}

/// A forward exchange of `x` into a fresh halo matrix through the closure
/// handle, for the two entry points whose signatures the benchmark harness
/// pins: the same [`post`] and [`land`] around a blocking ring. Those
/// signatures are infallible, and every peer of a probe cluster runs this
/// same routine, so a block that fails to decode is a bug in it.
#[expect(clippy::expect_used, reason = "signatures pinned by the harness")]
fn fresh_forward_halo(
    dev: &mut DeviceHandle,
    part: &DevicePartition,
    x: &Matrix,
    mut wire: Wire<'_>,
    rng: &mut Rng,
) -> (Matrix, ExchangeStats) {
    let (dir, dim) = (Direction::Forward, x.cols());
    let (sends, stats) = post(part, dir, Some(x), dim, &mut wire, rng);
    let received = dev.ring_exchange(sends);
    let zeros = || Matrix::zeros(part.num_halo(), dim);
    land(part, (dir, dim), received, zeros, &wire, stats).expect("peer block decodes")
}

/// Full-precision forward [`halo_exchange`] of `x` (`num_local` rows) into a
/// fresh halo matrix (`num_halo x dim`), on a closure device.
///
/// # Panics
///
/// Panics if a peer's payload does not decode.
pub fn exchange_forward_fp32(
    dev: &mut DeviceHandle,
    part: &DevicePartition,
    x: &Matrix,
) -> (Matrix, ExchangeStats) {
    // Fp32 draws nothing from the generator.
    fresh_forward_halo(dev, part, x, Wire::Fp32, &mut Rng::seed_from(0))
}

/// Quantized forward [`halo_exchange`] into a fresh halo matrix, on a
/// closure device. `widths[q]` gives the bit-width of each message to peer
/// `q`, aligned with `part.send_sets[q]`.
///
/// # Panics
///
/// Panics if a peer's payload does not decode.
pub fn exchange_forward_quant(
    dev: &mut DeviceHandle,
    part: &DevicePartition,
    x: &Matrix,
    widths: &[Vec<BitWidth>],
    rng: &mut Rng,
) -> (Matrix, ExchangeStats) {
    let residuals = None;
    fresh_forward_halo(dev, part, x, Wire::Rows { widths, residuals }, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quant::{decode_block, encode_block_streamed};
    use std::future::Future;
    use Direction::{Backward, Forward};

    /// Runs the `async` body `f` builds per rank on an uncosted cluster.
    fn run_async<Fut: Future>(n: usize, f: impl FnMut(AsyncDevice) -> Fut) -> Vec<Fut::Output> {
        let run = comm::Cluster::try_run_async(n, None, None, f);
        run.expect("no device panicked or stalled").outputs
    }

    /// The payloads of a dense per-peer table that carry bytes, as the
    /// ring's `(dst, payload)` list.
    fn listed(payloads: &[Bytes]) -> Vec<(u32, Bytes)> {
        let non_empty = payloads.iter().enumerate().filter(|(_, p)| !p.is_empty());
        non_empty.map(|(q, p)| (q as u32, p.clone())).collect()
    }

    #[test]
    fn matrix_bytes_roundtrip() {
        let m = Matrix::from_rows(&[&[1.5, -2.25], &[0.0, 1e-7]]);
        let b = matrix_to_bytes(&m);
        assert_eq!(b.len(), 16);
        assert_eq!(bytes_to_matrix(&b, 2, 2), m);
    }

    /// Three tiny GCN partitions, so every device has two peers.
    fn three_parts() -> Vec<DevicePartition> {
        let ds = graph::DatasetSpec::tiny().generate(23);
        let mut rng = Rng::seed_from(24);
        let assignment = graph::partition::metis_like(&ds.graph, 3, &mut rng);
        crate::decompose::build_partitions(&ds, &assignment, gnn::ConvKind::Gcn)
    }

    /// Rows of `src` a device sends to peer `q` and rows of `dst` it lands
    /// peer `q`'s data in, as the `usize` index lists the `tensor`
    /// primitives take.
    fn peer_rows(part: &DevicePartition, dir: Direction, q: usize) -> (Vec<usize>, Vec<usize>) {
        let wide = |v: &[u32], offset: usize| v.iter().map(|&i| offset + i as usize).collect();
        match dir {
            Forward => (wide(&part.send_sets[q], 0), wide(&part.recv_slots[q], 0)),
            Backward => (
                wide(&part.recv_slots[q], part.num_local()),
                wide(&part.send_sets[q], 0),
            ),
        }
    }

    fn random_matrix(rows: usize, cols: usize, rng: &mut Rng) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| rng.uniform(-1.0, 1.0))
    }

    /// Source and (pre-filled) destination operands of one `dim`-column
    /// exchange.
    fn operands(
        part: &DevicePartition,
        dir: Direction,
        dim: usize,
        rng: &mut Rng,
    ) -> (Matrix, Matrix) {
        let (src_rows, dst_rows) = match dir {
            Forward => (part.num_local(), part.num_halo()),
            Backward => (part.num_ext(), part.num_local()),
        };
        (
            random_matrix(src_rows, dim, rng),
            random_matrix(dst_rows, dim, rng),
        )
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The fp32 exchange as it was before rows moved straight between
    /// matrix and wire buffer: gather into a message matrix, serialize,
    /// ring, deserialize, copy / scatter-add. Returns the payloads sent.
    async fn composed_fp32_exchange(
        dev: &mut AsyncDevice,
        part: &DevicePartition,
        dir: Direction,
        src: &Matrix,
        dst: &mut Matrix,
    ) -> Vec<Bytes> {
        let sent: Vec<Bytes> = (0..part.num_parts)
            .map(|q| match peer_rows(part, dir, q).0 {
                idx if q == part.rank || idx.is_empty() => Bytes::new(),
                _ if dir == Forward => matrix_to_bytes(&part.gather_send_rows(src, q)),
                idx => matrix_to_bytes(&src.gather_rows(&idx)),
            })
            .collect();
        for (q, payload) in dev.ring_exchange(listed(&sent)).await {
            let idx = peer_rows(part, dir, q as usize).1;
            let m = bytes_to_matrix(&payload, idx.len(), src.cols());
            match dir {
                Forward => {
                    for (r, &slot) in idx.iter().enumerate() {
                        dst.row_mut(slot).copy_from_slice(m.row(r));
                    }
                }
                Backward => dst.scatter_add_rows(&idx, &m),
            }
        }
        sent
    }

    /// Both directions of the fp32 exchange on `parts`, `dim` columns wide,
    /// through the routine and through [`composed_fp32_exchange`]: bit-equal
    /// `dst` and equal payload lengths.
    fn fp32_matches_composition(parts: &[DevicePartition], dim: usize) {
        let forward_x = |rank: usize| {
            let rng = &mut Rng::seed_from(26 + rank as u64);
            random_matrix(parts[rank].num_local(), dim, rng)
        };
        let outputs = run_async(parts.len(), |mut dev| async move {
            let part = &parts[dev.rank()];
            let mut rng = Rng::seed_from(25 + dev.rank() as u64);
            let mut total = 0;
            for dir in [Forward, Backward] {
                let (src, seed) = operands(part, dir, dim, &mut rng);
                let mut want = seed.clone();
                let sent = composed_fp32_exchange(&mut dev, part, dir, &src, &mut want).await;
                let mut dst = seed;
                let wire = Wire::Fp32;
                let exchange =
                    halo_exchange(&mut dev, part, dir, Some(&src), &mut dst, wire, &mut rng);
                let stats = exchange.await.expect("peer blocks decode");
                let lens: Vec<usize> = sent.iter().map(Bytes::len).collect();
                assert_eq!(stats.sent_bytes, lens, "{dir:?} payload lengths");
                assert_eq!(stats.quant_ops, 0.0);
                assert_eq!(bits(&dst), bits(&want), "{dir:?} dst");
                total += stats.total_sent();
            }
            let x = forward_x(dev.rank());
            let mut want = Matrix::zeros(part.num_halo(), dim);
            composed_fp32_exchange(&mut dev, part, Forward, &x, &mut want).await;
            (total, want)
        });
        // The kept closure-device entry point is the routine over fresh zeros.
        let kept = comm::Cluster::run_fn(parts.len(), |mut dev| {
            let rank = dev.rank();
            exchange_forward_fp32(&mut dev, &parts[rank], &forward_x(rank)).0
        });
        for ((total, want), got) in outputs.into_iter().zip(kept) {
            assert!(total > 0, "every device has a peer");
            assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn fused_fp32_exchange_matches_the_gather_serialize_composition() {
        fp32_matches_composition(&three_parts(), 5);
    }

    #[test]
    fn skipped_sancus_turn_sends_nothing_and_keeps_stale_rows() {
        let parts = &three_parts();
        run_async(3, |mut dev| async move {
            let me = dev.rank();
            let part = &parts[me];
            // Row `i` of rank `r` holds `100 r + i` in every column.
            let x = Matrix::from_fn(part.num_local(), 4, |i, _| (100 * me + i) as f32);
            let mut cache = Matrix::from_fn(part.num_halo(), 4, |_, _| -1.0);
            // Rank 1 skips its broadcast turn.
            let src = (me != 1).then_some(&x);
            let rng = &mut Rng::seed_from(0);
            let exchange = halo_exchange(&mut dev, part, Forward, src, &mut cache, Wire::Fp32, rng);
            let stats = exchange.await.expect("peer blocks decode");
            if me == 1 {
                assert_eq!(stats.total_sent(), 0);
            }
            assert_eq!(stats.recv_bytes[1], 0);
            for q in (0..3).filter(|&q| q != me) {
                assert!(!part.recv_slots[q].is_empty(), "tiny cuts every pair");
                for (k, &slot) in part.recv_slots[q].iter().enumerate() {
                    let want = if q == 1 {
                        -1.0 // stale
                    } else {
                        (100 * q + parts[q].send_sets[me][k] as usize) as f32
                    };
                    assert_eq!(cache.row(slot as usize), [want; 4], "slot {slot} from {q}");
                }
            }
        });
    }

    /// The quantized wires under test.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Kind {
        Rows,
        ErrorFeedback,
        Streamed,
        Grouped,
    }

    /// What one exchange leaves behind besides `dst`.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        sent: Vec<usize>,
        quant_ops_bits: u64,
        streamed_send: Vec<f64>,
    }

    /// The exchange composed, in the test, from the primitives the routine
    /// is built on: `gather_send_rows` / `gather_rows` -> `quant::encode_*`
    /// -> ring -> `quant::decode_*` -> row copy / `scatter_add_rows`.
    #[allow(clippy::too_many_arguments)]
    async fn reference_exchange(
        dev: &mut AsyncDevice,
        part: &DevicePartition,
        dir: Direction,
        kind: Kind,
        src: &Matrix,
        dst: &mut Matrix,
        (send_widths, recv_widths): (&[Vec<BitWidth>], &[Vec<BitWidth>]),
        residuals: &mut [Matrix],
        rng: &mut Rng,
        cost: &CostModel,
    ) -> Outcome {
        let n = part.num_parts;
        let mut ops = 0.0_f64;
        let mut streamed_send = vec![0.0; n];
        let mut payloads = Vec::with_capacity(n);
        for q in 0..n {
            let idx = peer_rows(part, dir, q).0;
            if q == part.rank || idx.is_empty() {
                payloads.push(Bytes::new());
                continue;
            }
            let mut msgs = match dir {
                Forward => part.gather_send_rows(src, q),
                Backward => src.gather_rows(&idx),
            };
            let encode_ops = msgs.len() as f64 * ENCODE_OPS_PER_ELEMENT;
            let widths = &send_widths[q];
            let block = match kind {
                Kind::Rows => {
                    ops += encode_ops;
                    quant::encode_block(&msgs, widths, rng)
                }
                Kind::ErrorFeedback => {
                    msgs.add_assign(&residuals[q]);
                    let block = quant::encode_block(&msgs, widths, rng);
                    ops += encode_ops;
                    ops += msgs.len() as f64 * (DECODE_OPS_PER_ELEMENT + 2.0);
                    msgs.sub_assign(&decode_block(&block).expect("own block"));
                    residuals[q] = msgs;
                    block
                }
                Kind::Streamed => {
                    let (block, _, profile) = encode_block_streamed(&msgs, widths, rng);
                    streamed_send[q] = streamed_send_seconds(cost, part.rank, q, &profile);
                    block
                }
                Kind::Grouped => {
                    ops += encode_ops;
                    encode_block_grouped(&msgs, widths, rng)
                }
            };
            payloads.push(block.bytes);
        }
        let sent = payloads.iter().map(Bytes::len).collect();
        for (q, bytes) in dev.ring_exchange(listed(&payloads)).await {
            let q = q as usize;
            let idx = peer_rows(part, dir, q).1;
            let (rows, dim) = (idx.len(), dst.cols());
            let block = EncodedBlock { bytes, rows, dim };
            let decoded = match kind {
                Kind::Grouped => decode_block_grouped(&block, &recv_widths[q]),
                _ => decode_block(&block),
            }
            .expect("peer block decodes");
            ops += (rows * dim) as f64 * DECODE_OPS_PER_ELEMENT;
            match dir {
                Forward => {
                    for (r, &slot) in idx.iter().enumerate() {
                        dst.row_mut(slot).copy_from_slice(decoded.row(r));
                    }
                }
                Backward => dst.scatter_add_rows(&idx, &decoded),
            }
        }
        Outcome {
            sent,
            quant_ops_bits: ops.to_bits(),
            streamed_send,
        }
    }

    /// Runs two rounds of `kind` x `dir`, `dim` columns wide, on `parts`
    /// through the routine and through [`reference_exchange`] with a cloned
    /// generator, and demands bit-equal `dst`, payload lengths, `quant_ops`,
    /// streamed charges, residuals and generator state.
    fn routine_matches_reference_on(
        parts: &[DevicePartition],
        dim: usize,
        kind: Kind,
        dir: Direction,
    ) {
        let n = parts.len();
        let cost = &CostModel::homogeneous(n, 1e8, 5e-6);
        // Mixed widths both ends of a pair derive alike: row `k` of the
        // block from `s` to `r`.
        let width = |s: usize, r: usize, k: usize| BitWidth::ALL[(s + 2 * r + k) % 3];
        run_async(n, |mut dev| async move {
            let me = dev.rank();
            let part = &parts[me];
            let lens = |q: usize| peer_rows(part, dir, q);
            let send_widths: Vec<Vec<BitWidth>> = (0..n)
                .map(|q| (0..lens(q).0.len()).map(|k| width(me, q, k)).collect())
                .collect();
            let recv_widths: Vec<Vec<BitWidth>> = (0..n)
                .map(|q| (0..lens(q).1.len()).map(|k| width(q, me, k)).collect())
                .collect();
            let mut residuals: Vec<Matrix> = (0..n)
                .map(|q| Matrix::zeros(lens(q).0.len(), dim))
                .collect();
            let mut want_residuals = residuals.clone();
            let mut rng = Rng::seed_from(77 + me as u64);
            let mut want_rng = rng.clone();
            let mut data_rng = Rng::seed_from(99 + me as u64);
            for round in 0..2 {
                let (src, seed) = operands(part, dir, dim, &mut data_rng);
                let mut want = seed.clone();
                let want_outcome = reference_exchange(
                    &mut dev,
                    part,
                    dir,
                    kind,
                    &src,
                    &mut want,
                    (&send_widths, &recv_widths),
                    &mut want_residuals,
                    &mut want_rng,
                    cost,
                )
                .await;
                let wire = match kind {
                    Kind::Rows | Kind::ErrorFeedback => Wire::Rows {
                        widths: &send_widths,
                        residuals: (kind == Kind::ErrorFeedback).then_some(&mut residuals),
                    },
                    Kind::Streamed => Wire::Streamed {
                        widths: &send_widths,
                        cost,
                    },
                    Kind::Grouped => Wire::Grouped {
                        send_widths: &send_widths,
                        recv_widths: &recv_widths,
                    },
                };
                let mut dst = seed;
                let exchange =
                    halo_exchange(&mut dev, part, dir, Some(&src), &mut dst, wire, &mut rng);
                let stats = exchange.await.expect("peer blocks decode");
                let outcome = Outcome {
                    sent: stats.sent_bytes.clone(),
                    quant_ops_bits: stats.quant_ops.to_bits(),
                    streamed_send: stats.streamed_send.clone(),
                };
                assert_eq!(outcome, want_outcome, "{kind:?} {dir:?} round {round}");
                assert_eq!(bits(&dst), bits(&want), "{kind:?} {dir:?} round {round}");
                assert_eq!(residuals, want_residuals);
                assert!(stats.total_sent() > 0, "every device has a peer");
                let has_stats = stats.encode_stats.total_rows() > 0;
                assert_eq!(has_stats, kind != Kind::Grouped);
            }
            assert_eq!(rng.next_u64(), want_rng.next_u64(), "generator streams");
        });
    }

    fn routine_matches_reference(kind: Kind, dir: Direction) {
        routine_matches_reference_on(&three_parts(), 5, kind, dir);
    }

    #[test]
    fn rows_wire_forward_matches_reference() {
        routine_matches_reference(Kind::Rows, Forward);
    }

    #[test]
    fn rows_wire_backward_matches_reference() {
        routine_matches_reference(Kind::Rows, Backward);
    }

    #[test]
    fn error_feedback_wire_forward_matches_reference() {
        routine_matches_reference(Kind::ErrorFeedback, Forward);
    }

    #[test]
    fn error_feedback_wire_backward_matches_reference() {
        routine_matches_reference(Kind::ErrorFeedback, Backward);
    }

    #[test]
    fn streamed_wire_forward_matches_reference() {
        routine_matches_reference(Kind::Streamed, Forward);
    }

    #[test]
    fn streamed_wire_backward_matches_reference() {
        routine_matches_reference(Kind::Streamed, Backward);
    }

    #[test]
    fn grouped_wire_forward_matches_reference() {
        routine_matches_reference(Kind::Grouped, Forward);
    }

    #[test]
    fn grouped_wire_backward_matches_reference() {
        routine_matches_reference(Kind::Grouped, Backward);
    }

    /// A hand-made partition of `n` devices in which every device sends
    /// `rows(me, q)` of its `local` rows to peer `q` (rows `q + k` modulo
    /// `local`, so sets overlap) and owns one halo slot per row received.
    /// Only the fields an exchange reads are meaningful.
    fn synthetic_parts(
        n: usize,
        local: usize,
        rows: impl Fn(usize, usize) -> usize,
    ) -> Vec<DevicePartition> {
        let template = three_parts().swap_remove(0);
        (0..n)
            .map(|me| {
                let send_sets: Vec<Vec<u32>> = (0..n)
                    .map(|q| match q == me {
                        true => Vec::new(),
                        false => (0..rows(me, q)).map(|k| ((q + k) % local) as u32).collect(),
                    })
                    .collect();
                let mut next = 0u32;
                let recv_slots: Vec<Vec<u32>> = (0..n)
                    .map(|q| {
                        let from = next;
                        next += if q == me { 0 } else { rows(q, me) as u32 };
                        (from..next).collect()
                    })
                    .collect();
                DevicePartition {
                    rank: me,
                    num_parts: n,
                    local_nodes: (0..local as u32).collect(),
                    halo_nodes: (0..next).collect(),
                    send_sets,
                    recv_slots,
                    ..template.clone()
                }
            })
            .collect()
    }

    #[test]
    fn payloads_straddling_the_pool_cap_match_the_composed_reference() {
        // 40 columns: peers alternate between 3- and 4-row payloads (480 /
        // 640 B of fp32, pooled with their neighbours) and, between devices
        // 0 and 2, one of 500 rows: 80 000 B of fp32, over the cap and in a
        // buffer of its own; quantized it fits and shares one.
        let rows = |s: usize, q: usize| {
            if (s, q) == (0, 2) {
                500
            } else {
                3 + (s + q) % 2
            }
        };
        let parts = synthetic_parts(5, 600, rows);
        assert!(parts[0].send_sets[2].len() * 40 * 4 > POOL_BYTES);
        assert!(parts[1].messages_per_layer() * 40 * 4 < POOL_BYTES);
        fp32_matches_composition(&parts, 40);
        for dir in [Forward, Backward] {
            routine_matches_reference_on(&parts, 40, Kind::Rows, dir);
        }
    }

    #[test]
    fn one_row_per_peer_shares_one_buffer_across_all_peers() {
        // What a device hands the ring when every peer gets one 8-column
        // row: consecutive views of a single allocation.
        let n = 9;
        let parts = &synthetic_parts(n, 12, |_, _| 1);
        comm::Cluster::run_fn(n, move |mut dev| {
            let me = dev.rank();
            let x = Matrix::from_fn(parts[me].num_local(), 8, |i, j| {
                (me * 100 + i * 8 + j) as f32
            });
            let (halo, stats) = exchange_forward_fp32(&mut dev, &parts[me], &x);
            assert_eq!(stats.total_sent(), (n - 1) * 32);
            // Received payloads are views too: the rows of peer `q` arrive
            // in one piece, and all eight peers' rows landed.
            for q in (0..n).filter(|&q| q != me) {
                let slot = parts[me].recv_slots[q][0] as usize;
                let row = parts[q].send_sets[me][0] as usize;
                assert_eq!(halo.at(slot, 3), (q * 100 + row * 8 + 3) as f32);
            }
        });
        // The sender side, observed at the ring: device 0's eight payloads
        // are back to back in memory.
        let seen = comm::Cluster::run_fn(n, move |mut dev| {
            let me = dev.rank();
            if me == 0 {
                let x = Matrix::zeros(parts[0].num_local(), 8);
                exchange_forward_fp32(&mut dev, &parts[0], &x);
                Vec::new()
            } else {
                let from_zero = dev.ring_exchange(Vec::new());
                assert_eq!(from_zero.len(), 1, "only device 0 sends");
                let payload = &from_zero[0].1;
                vec![(payload.as_ptr() as usize, payload.len())]
            }
        });
        let spans: Vec<(usize, usize)> = seen.into_iter().flatten().collect();
        assert_eq!(spans.len(), n - 1);
        for pair in spans.windows(2) {
            assert_eq!(pair[0].0 + pair[0].1, pair[1].0, "payloads are contiguous");
        }
    }

    #[test]
    fn a_malformed_peer_block_is_a_typed_error_and_lands_nothing() {
        // Device 1 bypasses the routine and ships device 0 a block with a
        // flipped width byte, a truncated block, and an fp32 payload one
        // float short; device 0 reports the peer and leaves `dst` alone.
        let parts = &three_parts();
        let dim = 5;
        for (corruption, quantized) in [(0usize, true), (1, true), (2, false)] {
            let outcomes = run_async(3, |mut dev| async move {
                let me = dev.rank();
                let part = &parts[me];
                let mut rng = Rng::seed_from(500 + me as u64);
                let x = random_matrix(part.num_local(), dim, &mut rng);
                let widths: Vec<Vec<BitWidth>> = part
                    .send_sets
                    .iter()
                    .map(|s| vec![BitWidth::B4; s.len()])
                    .collect();
                let wire = |quantized: bool| match quantized {
                    true => Wire::Rows {
                        widths: &widths,
                        residuals: None,
                    },
                    false => Wire::Fp32,
                };
                if me != 1 {
                    let mut halo = Matrix::from_fn(part.num_halo(), dim, |_, _| -7.0);
                    let got = halo_exchange(
                        &mut dev,
                        part,
                        Forward,
                        Some(&x),
                        &mut halo,
                        wire(quantized),
                        &mut rng,
                    )
                    .await;
                    let untouched = part.recv_slots[1]
                        .iter()
                        .all(|&slot| halo.row(slot as usize) == [-7.0; 5]);
                    return Some((got.map(|_| ()), untouched));
                }
                // Device 1: the payloads the routine would send, corrupted
                // on their way to device 0.
                let sends = (0u32..3)
                    .filter(|&q| q != 1)
                    .map(|q| {
                        let msgs = part.gather_send_rows(&x, q as usize);
                        let mut raw = match quantized {
                            true => quant::encode_block(&msgs, &widths[q as usize], &mut rng)
                                .bytes
                                .to_vec(),
                            false => matrix_to_bytes(&msgs).to_vec(),
                        };
                        if q == 0 {
                            match corruption {
                                0 => raw[quant::codec::HEADER_BYTES] = 7,
                                1 => raw.truncate(raw.len() - 1),
                                _ => raw.truncate(raw.len() - 4),
                            }
                        }
                        (q, Bytes::from(raw))
                    })
                    .collect();
                dev.ring_exchange(sends).await;
                None
            });
            let (got, untouched) = outcomes[0].clone().expect("device 0 reports");
            let error = got.expect_err("device 0 rejects the block");
            assert_eq!(error.peer, 1, "corruption {corruption}");
            match corruption {
                0 => assert_eq!(error.cause, DecodeError::BadBitWidth(7)),
                1 => assert_eq!(error.cause, DecodeError::Truncated),
                _ => assert!(matches!(error.cause, DecodeError::Length { .. })),
            }
            assert!(
                untouched,
                "corruption {corruption}: rows of the bad block landed"
            );
            // Device 2's block from device 1 was fine.
            assert_eq!(outcomes[2], Some((Ok(()), false)));
        }
    }

    #[test]
    fn ring_seconds_counts_rounds() {
        let cost = CostModel::homogeneous(3, 1e6, 0.0);
        let stats = ExchangeStats {
            sent_bytes: vec![0, 1000, 2000],
            recv_bytes: vec![0, 500, 4000],
            quant_cpu_seconds: 0.0,
            quant_ops: 0.0,
            encode_stats: quant::EncodeStats::default(),
            streamed_send: vec![0.0; 3],
        };
        // rank 0: round 1 -> send to 1 (1ms) / recv from 2 (4ms) => 4ms;
        //         round 2 -> send to 2 (2ms) / recv from 1 (0.5ms) => 2ms.
        let t = stats.ring_seconds(&cost, 0);
        assert!((t - 6e-3).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn streamed_send_bounds_hold() {
        // Pipelined time is sandwiched between the bare transfer and the
        // serial encode + transfer total, for every chunking.
        let cost = CostModel::homogeneous(2, 1e6, 5e-6);
        let profile = StreamProfile {
            chunks: vec![
                quant::StreamChunk {
                    rows: 512,
                    elements: 512 * 64,
                    wire_bytes: 9000,
                },
                quant::StreamChunk {
                    rows: 512,
                    elements: 512 * 64,
                    wire_bytes: 8992,
                },
            ],
        };
        let streamed = streamed_send_seconds(&cost, 0, 1, &profile);
        let total_bytes = profile.total_bytes();
        let bare = cost.transfer_time(0, 1, total_bytes);
        let encode = cost.ops_time_for(0, profile.total_elements() as f64 * ENCODE_OPS_PER_ELEMENT);
        assert!(streamed >= bare, "streamed {streamed} < transfer {bare}");
        assert!(
            streamed <= bare + encode + 1e-12,
            "streamed {streamed} > serial {}",
            bare + encode
        );
    }

    #[test]
    fn streamed_send_single_chunk_is_serial() {
        // One chunk cannot overlap anything: encode then transfer.
        let cost = CostModel::homogeneous(2, 1e6, 5e-6);
        let profile = StreamProfile {
            chunks: vec![quant::StreamChunk {
                rows: 16,
                elements: 16 * 8,
                wire_bytes: 200,
            }],
        };
        let streamed = streamed_send_seconds(&cost, 0, 1, &profile);
        let serial =
            cost.ops_time_for(0, 128.0 * ENCODE_OPS_PER_ELEMENT) + cost.transfer_time(0, 1, 200);
        assert!((streamed - serial).abs() < 1e-15, "{streamed} vs {serial}");
    }

    #[test]
    fn ring_seconds_uses_streamed_send_when_larger() {
        let cost = CostModel::homogeneous(2, 1e6, 0.0);
        let mut stats = ExchangeStats::new(2);
        stats.sent_bytes[1] = 1000; // 1 ms bare transfer
        stats.recv_bytes[1] = 500;
        let bare = stats.ring_seconds(&cost, 0);
        assert!((bare - 1e-3).abs() < 1e-12);
        stats.streamed_send[1] = 4e-3; // pipeline stalled on encode
        let streamed = stats.ring_seconds(&cost, 0);
        assert!((streamed - 4e-3).abs() < 1e-12);
    }

    #[test]
    fn sequential_seconds_serializes_unicast_copies() {
        let cost = CostModel::homogeneous(3, 1e6, 0.0);
        let stats = ExchangeStats {
            sent_bytes: vec![0, 3000, 1000],
            recv_bytes: vec![0, 2000, 2000],
            quant_cpu_seconds: 0.0,
            quant_ops: 0.0,
            encode_stats: quant::EncodeStats::default(),
            streamed_send: vec![0.0; 3],
        };
        // rank 0's view: own turn = 3ms + 1ms = 4ms; turn 1 broadcast 2000B
        // to 2 peers = 4ms; turn 2 likewise = 4ms.
        let t = stats.sequential_seconds(&cost, 0);
        assert!((t - 12e-3).abs() < 1e-9, "t = {t}");
    }
}

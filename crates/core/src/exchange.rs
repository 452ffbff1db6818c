//! Halo exchange: moving boundary messages between devices, at full
//! precision (Vanilla) or quantized (AdaQP), with byte and time accounting.

use crate::decompose::DevicePartition;
use bytes::Bytes;
use comm::{CostModel, DeviceHandle};
use quant::{
    decode_block, encode_block_streamed, encode_block_with_stats, BitWidth, EncodedBlock,
    StreamProfile,
};
use tensor::{Matrix, Rng};

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
    /// Measured CPU seconds spent in quantize/de-quantize kernels
    /// (diagnostic only; the clock charges `quant_ops` instead so the
    /// simulation is immune to host load).
    pub quant_cpu_seconds: f64,
    /// Elements quantized (encoder side, including error-feedback
    /// self-decodes at decoder cost).
    pub quant_ops: f64,
    /// Per-width quantization statistics (rows, ranges, expected squared
    /// error) from the row-major quantized exchanges; zero for fp32 and
    /// group-major paths.
    pub encode_stats: quant::EncodeStats,
    /// Pipelined quantize+send seconds per destination, filled by the
    /// streamed exchanges ([`exchange_forward_quant_streamed`]): chunk `k`'s
    /// transfer starts once its rows are encoded and the previous chunk has
    /// left the NIC, so this time *includes* both the encode compute and the
    /// transfer for that destination. Zero entries mean the destination was
    /// not streamed and [`ExchangeStats::ring_seconds`] falls back to the
    /// plain transfer model (with encode charged separately via
    /// `quant_ops`).
    pub streamed_send: Vec<f64>,
}

impl ExchangeStats {
    fn new(n: usize) -> Self {
        Self {
            sent_bytes: vec![0; n],
            recv_bytes: vec![0; n],
            quant_cpu_seconds: 0.0,
            quant_ops: 0.0,
            encode_stats: quant::EncodeStats::default(),
            streamed_send: vec![0.0; n],
        }
    }

    /// Total bytes sent.
    pub fn total_sent(&self) -> usize {
        self.sent_bytes.iter().sum()
    }

    /// Merges another exchange's accounting into this one.
    pub fn merge(&mut self, other: &ExchangeStats) {
        for (a, b) in self.sent_bytes.iter_mut().zip(&other.sent_bytes) {
            *a += b;
        }
        for (a, b) in self.recv_bytes.iter_mut().zip(&other.recv_bytes) {
            *a += b;
        }
        self.quant_cpu_seconds += other.quant_cpu_seconds;
        self.quant_ops += other.quant_ops;
        self.encode_stats.merge(&other.encode_stats);
        for (a, b) in self.streamed_send.iter_mut().zip(&other.streamed_send) {
            *a += b;
        }
    }

    /// Simulated communication seconds for this device under the
    /// unsynchronized ring schedule: in round `r` the device waits for the
    /// longer of its own send and its own receive.
    pub fn ring_seconds(&self, cost: &CostModel, rank: usize) -> f64 {
        let n = cost.num_devices();
        let mut t = 0.0;
        for round in 1..n {
            let dst = (rank + round) % n;
            let src = (rank + n - round) % n;
            // A streamed destination's send time already folds the encode
            // pipeline in (and is never less than the bare transfer), so the
            // max picks it up without double-charging the non-streamed case.
            let send = cost
                .transfer_time(rank, dst, self.sent_bytes[dst])
                .max(self.streamed_send.get(dst).copied().unwrap_or(0.0));
            let recv = cost.transfer_time(src, rank, self.recv_bytes[src]);
            t += send.max(recv);
        }
        t
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

/// Writes `row` into `dst` as little-endian `f32` bytes (`dst` holds four
/// bytes per element).
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

/// The fp32 payload for one peer: the rows of `x` at `offset + idx[k]`, in
/// order, serialized straight into the wire buffer.
fn rows_to_bytes(x: &Matrix, offset: usize, idx: &[u32]) -> Bytes {
    let row_bytes = x.cols() * 4;
    let mut raw = vec![0u8; idx.len() * row_bytes];
    // `max(1)`: zero-width rows make an empty payload, not a zero chunk size.
    for (dst, &i) in raw.chunks_exact_mut(row_bytes.max(1)).zip(idx) {
        write_row_le(dst, x.row(offset + i as usize));
    }
    Bytes::from(raw)
}

/// Reads an fp32 payload of `idx.len()` rows into `m`: row `k` of the
/// payload is combined into row `idx[k]` of `m`, element by element.
///
/// # Panics
///
/// Panics if the byte length is not `idx.len() * m.cols() * 4`.
fn read_rows(payload: &[u8], m: &mut Matrix, idx: &[u32], combine: impl Fn(&mut f32, f32)) {
    let row_bytes = m.cols() * 4;
    assert_eq!(
        payload.len(),
        idx.len() * row_bytes,
        "fp32 payload size mismatch"
    );
    for (src, &i) in payload.chunks_exact(row_bytes.max(1)).zip(idx) {
        for (v, f) in m.row_mut(i as usize).iter_mut().zip(floats_le(src)) {
            combine(v, f);
        }
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
pub fn bytes_to_matrix(bytes: &Bytes, rows: usize, cols: usize) -> Matrix {
    assert_eq!(bytes.len(), rows * cols * 4, "fp32 payload size mismatch");
    // Collecting the exact-size iterator fills the buffer in one pass;
    // zeroing a matrix first and overwriting it measured 1.4-2x slower.
    let data: Vec<f32> = floats_le(bytes).collect();
    // lint:allow(no-panic): length asserted four lines up; from_vec can only reject a size mismatch
    Matrix::from_vec(rows, cols, data).expect("sized by construction")
}

/// Full-precision forward halo exchange: sends boundary rows of `x` to every
/// peer and returns the filled halo matrix (`num_halo x dim`).
///
/// Send rows go from `x` straight into the payload and received rows from
/// the payload straight into their halo slots; the bytes on the wire are
/// those of [`matrix_to_bytes`] over [`DevicePartition::gather_send_rows`].
///
/// # Panics
///
/// Panics if `x.rows() != part.num_local()`.
pub fn exchange_forward_fp32(
    dev: &mut DeviceHandle,
    part: &DevicePartition,
    x: &Matrix,
) -> (Matrix, ExchangeStats) {
    let n = part.num_parts;
    let dim = x.cols();
    assert_eq!(x.rows(), part.num_local(), "x must cover local nodes");
    let mut stats = ExchangeStats::new(n);
    let mut payloads: Vec<Bytes> = Vec::with_capacity(n);
    for q in 0..n {
        if q == part.rank || part.send_sets[q].is_empty() {
            payloads.push(Bytes::new());
            continue;
        }
        let b = rows_to_bytes(x, 0, &part.send_sets[q]);
        stats.sent_bytes[q] = b.len();
        payloads.push(b);
    }
    let received = dev.ring_all2all(payloads);
    let mut halo = Matrix::zeros(part.num_halo(), dim);
    for (q, payload) in received.into_iter().enumerate() {
        let Some(payload) = payload else { continue };
        stats.recv_bytes[q] = payload.len();
        if payload.is_empty() {
            continue;
        }
        read_rows(&payload, &mut halo, &part.recv_slots[q], |v, f| *v = f);
    }
    (halo, stats)
}

/// Quantized forward halo exchange. `widths[q]` gives the bit-width of each
/// message to peer `q`, aligned with `part.send_sets[q]`.
///
/// # Panics
///
/// Panics if a width vector's length disagrees with its send set.
pub fn exchange_forward_quant(
    dev: &mut DeviceHandle,
    part: &DevicePartition,
    x: &Matrix,
    widths: &[Vec<BitWidth>],
    rng: &mut Rng,
) -> (Matrix, ExchangeStats) {
    exchange_forward_quant_ef(dev, part, x, widths, None, rng)
}

/// [`exchange_forward_quant`] with optional error feedback: when `residuals`
/// is provided (one matrix per peer, aligned with the send sets), the last
/// round's quantization error is added to each outgoing message before
/// quantizing and the new error is stored back — the classic
/// error-compensated compression scheme (Wu et al. 2018), offered as an
/// extension beyond the paper.
///
/// # Panics
///
/// Panics if widths or residual shapes disagree with the send sets.
pub fn exchange_forward_quant_ef(
    dev: &mut DeviceHandle,
    part: &DevicePartition,
    x: &Matrix,
    widths: &[Vec<BitWidth>],
    mut residuals: Option<&mut Vec<Matrix>>,
    rng: &mut Rng,
) -> (Matrix, ExchangeStats) {
    let n = part.num_parts;
    let dim = x.cols();
    let mut stats = ExchangeStats::new(n);
    let mut payloads: Vec<Bytes> = Vec::with_capacity(n);
    for q in 0..n {
        if q == part.rank || part.send_sets[q].is_empty() {
            payloads.push(Bytes::new());
            continue;
        }
        assert_eq!(
            widths[q].len(),
            part.send_sets[q].len(),
            "one width per message to peer {q}"
        );
        let mut msgs = part.gather_send_rows(x, q);
        if let Some(res) = residuals.as_deref_mut() {
            assert_eq!(res[q].shape(), msgs.shape(), "residual shape for peer {q}");
            msgs.add_assign(&res[q]);
        }
        let ((block, enc_stats), secs) =
            comm::timing::measure(|| encode_block_with_stats(&msgs, &widths[q], rng));
        stats.quant_cpu_seconds += secs;
        stats.quant_ops += msgs.len() as f64 * ENCODE_OPS_PER_ELEMENT;
        stats.encode_stats.merge(&enc_stats);
        if let Some(res) = residuals.as_deref_mut() {
            // New residual = compensated message - what the receiver decodes.
            let (decoded, dsecs) =
                // lint:allow(no-panic): decoding the block this function encoded two lines up
                comm::timing::measure(|| decode_block(&block).expect("own block decodes"));
            stats.quant_cpu_seconds += dsecs;
            stats.quant_ops += msgs.len() as f64 * (DECODE_OPS_PER_ELEMENT + 2.0);
            let mut r = msgs;
            r.sub_assign(&decoded);
            res[q] = r;
        }
        stats.sent_bytes[q] = block.wire_len();
        payloads.push(block.bytes);
    }
    let received = dev.ring_all2all(payloads);
    let mut halo = Matrix::zeros(part.num_halo(), dim);
    for (q, payload) in received.into_iter().enumerate() {
        let Some(payload) = payload else { continue };
        stats.recv_bytes[q] = payload.len();
        if payload.is_empty() {
            continue;
        }
        let rows = part.recv_slots[q].len();
        let block = EncodedBlock {
            bytes: payload,
            rows,
            dim,
        };
        let (decoded, secs) =
            // lint:allow(no-panic): peers run this same codec; a malformed block is a codec bug, not runtime state
            comm::timing::measure(|| decode_block(&block).expect("peer sent a well-formed block"));
        stats.quant_cpu_seconds += secs;
        stats.quant_ops += (rows * dim) as f64 * DECODE_OPS_PER_ELEMENT;
        for (r, &slot) in part.recv_slots[q].iter().enumerate() {
            halo.row_mut(slot as usize).copy_from_slice(decoded.row(r));
        }
    }
    (halo, stats)
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

/// [`exchange_forward_quant`] with the quantize+send pipeline: each peer's
/// block is encoded chunk by chunk and the chunks are charged to the wire
/// as they finish, overlapping encode compute with the transfer
/// ([`streamed_send_seconds`]). Wire bytes, decoded halos, statistics, and
/// the RNG stream are byte-identical to the non-streamed exchange — only
/// the time accounting changes: encode work is folded into
/// `streamed_send` instead of `quant_ops`.
///
/// # Panics
///
/// Panics if a width vector's length disagrees with its send set.
pub fn exchange_forward_quant_streamed(
    dev: &mut DeviceHandle,
    part: &DevicePartition,
    x: &Matrix,
    widths: &[Vec<BitWidth>],
    rng: &mut Rng,
    cost: &CostModel,
) -> (Matrix, ExchangeStats) {
    let n = part.num_parts;
    let dim = x.cols();
    let mut stats = ExchangeStats::new(n);
    let mut payloads: Vec<Bytes> = Vec::with_capacity(n);
    for q in 0..n {
        if q == part.rank || part.send_sets[q].is_empty() {
            payloads.push(Bytes::new());
            continue;
        }
        assert_eq!(
            widths[q].len(),
            part.send_sets[q].len(),
            "one width per message to peer {q}"
        );
        let msgs = part.gather_send_rows(x, q);
        let ((block, enc_stats, profile), secs) =
            comm::timing::measure(|| encode_block_streamed(&msgs, &widths[q], rng));
        stats.quant_cpu_seconds += secs;
        stats.encode_stats.merge(&enc_stats);
        stats.streamed_send[q] = streamed_send_seconds(cost, part.rank, q, &profile);
        stats.sent_bytes[q] = block.wire_len();
        payloads.push(block.bytes);
    }
    let received = dev.ring_all2all(payloads);
    let mut halo = Matrix::zeros(part.num_halo(), dim);
    for (q, payload) in received.into_iter().enumerate() {
        let Some(payload) = payload else { continue };
        stats.recv_bytes[q] = payload.len();
        if payload.is_empty() {
            continue;
        }
        let rows = part.recv_slots[q].len();
        let block = EncodedBlock {
            bytes: payload,
            rows,
            dim,
        };
        let (decoded, secs) =
            // lint:allow(no-panic): peers run this same codec; a malformed block is a codec bug, not runtime state
            comm::timing::measure(|| decode_block(&block).expect("peer sent a well-formed block"));
        stats.quant_cpu_seconds += secs;
        stats.quant_ops += (rows * dim) as f64 * DECODE_OPS_PER_ELEMENT;
        for (r, &slot) in part.recv_slots[q].iter().enumerate() {
            halo.row_mut(slot as usize).copy_from_slice(decoded.row(r));
        }
    }
    (halo, stats)
}

/// Gathers the halo-gradient rows destined for peer `q` (aligned with
/// `recv_slots[q]`) out of an extended gradient matrix.
fn gather_halo_grads(part: &DevicePartition, grad_ext: &Matrix, q: usize) -> Matrix {
    let idx: Vec<usize> = part.recv_slots[q]
        .iter()
        .map(|&slot| part.num_local() + slot as usize)
        .collect();
    grad_ext.gather_rows(&idx)
}

/// Accumulates gradient rows received from peer `q` (aligned with
/// `send_sets[q]`) into the local gradient matrix.
fn scatter_grads(part: &DevicePartition, grad_local: &mut Matrix, q: usize, m: &Matrix) {
    let idx: Vec<usize> = part.send_sets[q].iter().map(|&li| li as usize).collect();
    grad_local.scatter_add_rows(&idx, m);
}

/// Full-precision backward exchange: ships the halo rows of `grad_ext` back
/// to their owners and accumulates the rows received from peers into
/// `grad_local` (the embedding-gradient "error" flow of the backward pass).
/// Like [`exchange_forward_fp32`] it copies each row once per side, between
/// the matrix and the wire buffer.
///
/// # Panics
///
/// Panics if matrix shapes disagree with the partition.
pub fn exchange_backward_fp32(
    dev: &mut DeviceHandle,
    part: &DevicePartition,
    grad_ext: &Matrix,
    grad_local: &mut Matrix,
) -> ExchangeStats {
    let n = part.num_parts;
    assert_eq!(grad_ext.rows(), part.num_ext(), "grad_ext shape");
    assert_eq!(grad_local.rows(), part.num_local(), "grad_local shape");
    let mut stats = ExchangeStats::new(n);
    let mut payloads: Vec<Bytes> = Vec::with_capacity(n);
    for q in 0..n {
        if q == part.rank || part.recv_slots[q].is_empty() {
            payloads.push(Bytes::new());
            continue;
        }
        let b = rows_to_bytes(grad_ext, part.num_local(), &part.recv_slots[q]);
        stats.sent_bytes[q] = b.len();
        payloads.push(b);
    }
    let received = dev.ring_all2all(payloads);
    for (q, payload) in received.into_iter().enumerate() {
        let Some(payload) = payload else { continue };
        stats.recv_bytes[q] = payload.len();
        if payload.is_empty() {
            continue;
        }
        read_rows(&payload, grad_local, &part.send_sets[q], |v, f| *v += f);
    }
    stats
}

/// Quantized backward exchange; `widths[q]` is aligned with
/// `part.recv_slots[q]` (the messages we send back to owner `q`).
///
/// # Panics
///
/// Panics if shapes or width vectors disagree with the partition.
pub fn exchange_backward_quant(
    dev: &mut DeviceHandle,
    part: &DevicePartition,
    grad_ext: &Matrix,
    grad_local: &mut Matrix,
    widths: &[Vec<BitWidth>],
    rng: &mut Rng,
) -> ExchangeStats {
    exchange_backward_quant_ef(dev, part, grad_ext, grad_local, widths, None, rng)
}

/// [`exchange_backward_quant`] with optional error feedback (see
/// [`exchange_forward_quant_ef`]).
///
/// # Panics
///
/// Panics if shapes, widths or residuals disagree with the partition.
pub fn exchange_backward_quant_ef(
    dev: &mut DeviceHandle,
    part: &DevicePartition,
    grad_ext: &Matrix,
    grad_local: &mut Matrix,
    widths: &[Vec<BitWidth>],
    mut residuals: Option<&mut Vec<Matrix>>,
    rng: &mut Rng,
) -> ExchangeStats {
    let n = part.num_parts;
    let dim = grad_ext.cols();
    assert_eq!(grad_ext.rows(), part.num_ext(), "grad_ext shape");
    let mut stats = ExchangeStats::new(n);
    let mut payloads: Vec<Bytes> = Vec::with_capacity(n);
    for q in 0..n {
        if q == part.rank || part.recv_slots[q].is_empty() {
            payloads.push(Bytes::new());
            continue;
        }
        assert_eq!(
            widths[q].len(),
            part.recv_slots[q].len(),
            "one width per gradient message to peer {q}"
        );
        let mut msgs = gather_halo_grads(part, grad_ext, q);
        if let Some(res) = residuals.as_deref_mut() {
            assert_eq!(res[q].shape(), msgs.shape(), "residual shape for peer {q}");
            msgs.add_assign(&res[q]);
        }
        let ((block, enc_stats), secs) =
            comm::timing::measure(|| encode_block_with_stats(&msgs, &widths[q], rng));
        stats.quant_cpu_seconds += secs;
        stats.quant_ops += msgs.len() as f64 * ENCODE_OPS_PER_ELEMENT;
        stats.encode_stats.merge(&enc_stats);
        if let Some(res) = residuals.as_deref_mut() {
            let (decoded, dsecs) =
                // lint:allow(no-panic): decoding the block this function encoded two lines up
                comm::timing::measure(|| decode_block(&block).expect("own block decodes"));
            stats.quant_cpu_seconds += dsecs;
            stats.quant_ops += msgs.len() as f64 * (DECODE_OPS_PER_ELEMENT + 2.0);
            let mut r = msgs;
            r.sub_assign(&decoded);
            res[q] = r;
        }
        stats.sent_bytes[q] = block.wire_len();
        payloads.push(block.bytes);
    }
    let received = dev.ring_all2all(payloads);
    for (q, payload) in received.into_iter().enumerate() {
        let Some(payload) = payload else { continue };
        stats.recv_bytes[q] = payload.len();
        if payload.is_empty() {
            continue;
        }
        let rows = part.send_sets[q].len();
        let block = EncodedBlock {
            bytes: payload,
            rows,
            dim,
        };
        let (decoded, secs) =
            // lint:allow(no-panic): peers run this same codec; a malformed block is a codec bug, not runtime state
            comm::timing::measure(|| decode_block(&block).expect("peer sent a well-formed block"));
        stats.quant_cpu_seconds += secs;
        stats.quant_ops += (rows * dim) as f64 * DECODE_OPS_PER_ELEMENT;
        scatter_grads(part, grad_local, q, &decoded);
    }
    stats
}

/// Backward counterpart of [`exchange_forward_quant_streamed`]: ships halo
/// gradients back to their owners with the quantize+send pipeline.
/// `widths[q]` aligns with `part.recv_slots[q]`.
///
/// # Panics
///
/// Panics if shapes or width vectors disagree with the partition.
pub fn exchange_backward_quant_streamed(
    dev: &mut DeviceHandle,
    part: &DevicePartition,
    grad_ext: &Matrix,
    grad_local: &mut Matrix,
    widths: &[Vec<BitWidth>],
    rng: &mut Rng,
    cost: &CostModel,
) -> ExchangeStats {
    let n = part.num_parts;
    let dim = grad_ext.cols();
    assert_eq!(grad_ext.rows(), part.num_ext(), "grad_ext shape");
    let mut stats = ExchangeStats::new(n);
    let mut payloads: Vec<Bytes> = Vec::with_capacity(n);
    for q in 0..n {
        if q == part.rank || part.recv_slots[q].is_empty() {
            payloads.push(Bytes::new());
            continue;
        }
        assert_eq!(
            widths[q].len(),
            part.recv_slots[q].len(),
            "one width per gradient message to peer {q}"
        );
        let msgs = gather_halo_grads(part, grad_ext, q);
        let ((block, enc_stats, profile), secs) =
            comm::timing::measure(|| encode_block_streamed(&msgs, &widths[q], rng));
        stats.quant_cpu_seconds += secs;
        stats.encode_stats.merge(&enc_stats);
        stats.streamed_send[q] = streamed_send_seconds(cost, part.rank, q, &profile);
        stats.sent_bytes[q] = block.wire_len();
        payloads.push(block.bytes);
    }
    let received = dev.ring_all2all(payloads);
    for (q, payload) in received.into_iter().enumerate() {
        let Some(payload) = payload else { continue };
        stats.recv_bytes[q] = payload.len();
        if payload.is_empty() {
            continue;
        }
        let rows = part.send_sets[q].len();
        let block = EncodedBlock {
            bytes: payload,
            rows,
            dim,
        };
        let (decoded, secs) =
            // lint:allow(no-panic): peers run this same codec; a malformed block is a codec bug, not runtime state
            comm::timing::measure(|| decode_block(&block).expect("peer sent a well-formed block"));
        stats.quant_cpu_seconds += secs;
        stats.quant_ops += (rows * dim) as f64 * DECODE_OPS_PER_ELEMENT;
        scatter_grads(part, grad_local, q, &decoded);
    }
    stats
}

/// Quantized forward exchange over the *group-major* wire format (the
/// paper's exact serialization: messages grouped by bit-width, one
/// contiguous code stream per group, no per-row width bytes). Requires the
/// receive-side width tables the Adaptive Bit-width Assigner scatters
/// (`recv_widths[src]` aligned with `part.recv_slots[src]`).
///
/// # Panics
///
/// Panics if width tables disagree with the partition.
pub fn exchange_forward_grouped(
    dev: &mut DeviceHandle,
    part: &DevicePartition,
    x: &Matrix,
    send_widths: &[Vec<BitWidth>],
    recv_widths: &[Vec<BitWidth>],
    rng: &mut Rng,
) -> (Matrix, ExchangeStats) {
    let n = part.num_parts;
    let dim = x.cols();
    let mut stats = ExchangeStats::new(n);
    let mut payloads: Vec<Bytes> = Vec::with_capacity(n);
    for q in 0..n {
        if q == part.rank || part.send_sets[q].is_empty() {
            payloads.push(Bytes::new());
            continue;
        }
        assert_eq!(
            send_widths[q].len(),
            part.send_sets[q].len(),
            "one width per message to peer {q}"
        );
        let msgs = part.gather_send_rows(x, q);
        let block = quant::encode_block_grouped(&msgs, &send_widths[q], rng);
        stats.quant_ops += msgs.len() as f64 * ENCODE_OPS_PER_ELEMENT;
        stats.sent_bytes[q] = block.wire_len();
        payloads.push(block.bytes);
    }
    let received = dev.ring_all2all(payloads);
    let mut halo = Matrix::zeros(part.num_halo(), dim);
    for (q, payload) in received.into_iter().enumerate() {
        let Some(payload) = payload else { continue };
        stats.recv_bytes[q] = payload.len();
        if payload.is_empty() {
            continue;
        }
        let rows = part.recv_slots[q].len();
        assert_eq!(
            recv_widths[q].len(),
            rows,
            "one recv width per message from peer {q}"
        );
        let block = EncodedBlock {
            bytes: payload,
            rows,
            dim,
        };
        let decoded = quant::decode_block_grouped(&block, &recv_widths[q])
            // lint:allow(no-panic): peers run this same codec; a malformed block is a codec bug, not runtime state
            .expect("peer sent a well-formed grouped block");
        stats.quant_ops += (rows * dim) as f64 * DECODE_OPS_PER_ELEMENT;
        for (r, &slot) in part.recv_slots[q].iter().enumerate() {
            halo.row_mut(slot as usize).copy_from_slice(decoded.row(r));
        }
    }
    (halo, stats)
}

/// Backward counterpart of [`exchange_forward_grouped`]: ships halo
/// gradients back to owners in the group-major format. `send_widths[q]`
/// aligns with `part.recv_slots[q]`; `recv_widths[q]` aligns with
/// `part.send_sets[q]`.
///
/// # Panics
///
/// Panics if shapes or width tables disagree with the partition.
pub fn exchange_backward_grouped(
    dev: &mut DeviceHandle,
    part: &DevicePartition,
    grad_ext: &Matrix,
    grad_local: &mut Matrix,
    send_widths: &[Vec<BitWidth>],
    recv_widths: &[Vec<BitWidth>],
    rng: &mut Rng,
) -> ExchangeStats {
    let n = part.num_parts;
    let dim = grad_ext.cols();
    assert_eq!(grad_ext.rows(), part.num_ext(), "grad_ext shape");
    let mut stats = ExchangeStats::new(n);
    let mut payloads: Vec<Bytes> = Vec::with_capacity(n);
    for q in 0..n {
        if q == part.rank || part.recv_slots[q].is_empty() {
            payloads.push(Bytes::new());
            continue;
        }
        assert_eq!(
            send_widths[q].len(),
            part.recv_slots[q].len(),
            "one width per gradient message to peer {q}"
        );
        let msgs = gather_halo_grads(part, grad_ext, q);
        let block = quant::encode_block_grouped(&msgs, &send_widths[q], rng);
        stats.quant_ops += msgs.len() as f64 * ENCODE_OPS_PER_ELEMENT;
        stats.sent_bytes[q] = block.wire_len();
        payloads.push(block.bytes);
    }
    let received = dev.ring_all2all(payloads);
    for (q, payload) in received.into_iter().enumerate() {
        let Some(payload) = payload else { continue };
        stats.recv_bytes[q] = payload.len();
        if payload.is_empty() {
            continue;
        }
        let rows = part.send_sets[q].len();
        assert_eq!(
            recv_widths[q].len(),
            rows,
            "one recv width per gradient message from peer {q}"
        );
        let block = EncodedBlock {
            bytes: payload,
            rows,
            dim,
        };
        let decoded = quant::decode_block_grouped(&block, &recv_widths[q])
            // lint:allow(no-panic): peers run this same codec; a malformed block is a codec bug, not runtime state
            .expect("peer sent a well-formed grouped block");
        stats.quant_ops += (rows * dim) as f64 * DECODE_OPS_PER_ELEMENT;
        scatter_grads(part, grad_local, q, &decoded);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_bytes_roundtrip() {
        let m = Matrix::from_rows(&[&[1.5, -2.25], &[0.0, 1e-7]]);
        let b = matrix_to_bytes(&m);
        assert_eq!(b.len(), 16);
        assert_eq!(bytes_to_matrix(&b, 2, 2), m);
    }

    /// The fp32 exchanges as they were before rows moved straight between
    /// matrix and wire buffer: gather into a message matrix, serialize,
    /// ring, deserialize, copy / scatter-add.
    fn composed_fp32_exchanges(
        dev: &mut DeviceHandle,
        part: &DevicePartition,
        x: &Matrix,
        grad_ext: &Matrix,
        grad_local: &mut Matrix,
    ) -> (Vec<Bytes>, Matrix, Vec<Bytes>) {
        let n = part.num_parts;
        let peers = |sets: &[Vec<u32>], q: usize| q != part.rank && !sets[q].is_empty();
        let fwd: Vec<Bytes> = (0..n)
            .map(|q| {
                if peers(&part.send_sets, q) {
                    matrix_to_bytes(&part.gather_send_rows(x, q))
                } else {
                    Bytes::new()
                }
            })
            .collect();
        let mut halo = Matrix::zeros(part.num_halo(), x.cols());
        for (q, payload) in dev.ring_all2all(fwd.clone()).into_iter().enumerate() {
            let Some(payload) = payload.filter(|p| !p.is_empty()) else {
                continue;
            };
            let m = bytes_to_matrix(&payload, part.recv_slots[q].len(), x.cols());
            for (r, &slot) in part.recv_slots[q].iter().enumerate() {
                halo.row_mut(slot as usize).copy_from_slice(m.row(r));
            }
        }
        let bwd: Vec<Bytes> = (0..n)
            .map(|q| {
                if peers(&part.recv_slots, q) {
                    matrix_to_bytes(&gather_halo_grads(part, grad_ext, q))
                } else {
                    Bytes::new()
                }
            })
            .collect();
        for (q, payload) in dev.ring_all2all(bwd.clone()).into_iter().enumerate() {
            let Some(payload) = payload.filter(|p| !p.is_empty()) else {
                continue;
            };
            let m = bytes_to_matrix(&payload, part.send_sets[q].len(), grad_ext.cols());
            scatter_grads(part, grad_local, q, &m);
        }
        (fwd, halo, bwd)
    }

    #[test]
    fn fused_fp32_exchange_matches_the_gather_serialize_composition() {
        let ds = graph::DatasetSpec::tiny().generate(23);
        let mut rng = Rng::seed_from(24);
        let assignment = graph::partition::metis_like(&ds.graph, 3, &mut rng);
        let parts = crate::decompose::build_partitions(&ds, &assignment, gnn::ConvKind::Gcn);
        let parts = &parts;
        let outputs = comm::Cluster::run_fn(3, move |mut dev| {
            let part = &parts[dev.rank()];
            let mut rng = Rng::seed_from(25 + dev.rank() as u64);
            let x = Matrix::from_fn(part.num_local(), 5, |_, _| rng.uniform(-1.0, 1.0));
            let grad_ext = Matrix::from_fn(part.num_ext(), 5, |_, _| rng.uniform(-1.0, 1.0));
            let grad_seed = Matrix::from_fn(part.num_local(), 5, |_, _| rng.uniform(-1.0, 1.0));

            let mut want_grad = grad_seed.clone();
            let (fwd, want_halo, bwd) =
                composed_fp32_exchanges(&mut dev, part, &x, &grad_ext, &mut want_grad);
            let (halo, fwd_stats) = exchange_forward_fp32(&mut dev, part, &x);
            let mut grad_local = grad_seed;
            let bwd_stats = exchange_backward_fp32(&mut dev, part, &grad_ext, &mut grad_local);

            for q in 0..part.num_parts {
                let sent = rows_to_bytes(&x, 0, &part.send_sets[q]);
                let back = rows_to_bytes(&grad_ext, part.num_local(), &part.recv_slots[q]);
                if q != part.rank {
                    assert_eq!(sent.as_ref(), fwd[q].as_ref(), "forward payload to {q}");
                    assert_eq!(back.as_ref(), bwd[q].as_ref(), "backward payload to {q}");
                    assert_eq!(fwd_stats.sent_bytes[q], fwd[q].len());
                    assert_eq!(bwd_stats.sent_bytes[q], bwd[q].len());
                }
            }
            assert_eq!(halo, want_halo);
            assert_eq!(grad_local, want_grad);
            fwd_stats.total_sent() + bwd_stats.total_sent()
        });
        assert!(outputs.iter().all(|&b| b > 0), "every device has a peer");
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = ExchangeStats {
            sent_bytes: vec![1, 2],
            recv_bytes: vec![3, 4],
            quant_cpu_seconds: 0.5,
            quant_ops: 100.0,
            encode_stats: quant::EncodeStats::default(),
            streamed_send: vec![0.0; 2],
        };
        let b = ExchangeStats {
            sent_bytes: vec![10, 20],
            recv_bytes: vec![30, 40],
            quant_cpu_seconds: 0.25,
            quant_ops: 50.0,
            encode_stats: quant::EncodeStats::default(),
            streamed_send: vec![0.5, 0.25],
        };
        a.merge(&b);
        assert_eq!(a.sent_bytes, vec![11, 22]);
        assert_eq!(a.recv_bytes, vec![33, 44]);
        assert!((a.quant_cpu_seconds - 0.75).abs() < 1e-12);
        assert_eq!(a.quant_ops, 150.0);
        assert_eq!(a.total_sent(), 33);
        assert_eq!(a.streamed_send, vec![0.5, 0.25]);
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

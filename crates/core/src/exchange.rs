//! Halo exchange: moving boundary messages between devices, at full
//! precision (Vanilla) or quantized (AdaQP), with byte and time accounting.
//!
//! There is one routine, [`halo_exchange`]: a payload per peer, round the
//! ring, land what came back. [`Direction`] picks the rows read and the rows
//! written; [`Wire`] is the only place a codec and its accounting differ.
//! Peers are visited in ascending rank to send, then in ascending rank to
//! receive: the [`Rng`] stream and the `f64` adds into
//! [`ExchangeStats::quant_ops`] follow that order, and both reach results.

use crate::decompose::DevicePartition;
use bytes::Bytes;
use comm::timing::measure;
use comm::{CostModel, DeviceHandle};
use quant::{
    decode_block, decode_block_grouped, encode_block_grouped, encode_block_streamed,
    encode_block_with_stats, BitWidth, EncodedBlock, StreamProfile,
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

/// The fp32 payload for one peer: the rows of `x` at `offset + idx[k]`,
/// serialized straight into the wire buffer.
fn rows_to_bytes(x: &Matrix, offset: usize, idx: &[u32]) -> Bytes {
    let row_bytes = x.cols() * 4;
    let mut raw = vec![0u8; idx.len() * row_bytes];
    // `max(1)`: zero-width rows make an empty payload, not a zero chunk size.
    for (dst, &i) in raw.chunks_exact_mut(row_bytes.max(1)).zip(idx) {
        write_row_le(dst, x.row(offset + i as usize));
    }
    Bytes::from(raw)
}

/// The message matrix for one peer: the rows of `x` at `offset + idx[k]`.
fn gather(x: &Matrix, offset: usize, idx: &[u32]) -> Matrix {
    let mut out = Matrix::zeros(idx.len(), x.cols());
    for (k, &i) in idx.iter().enumerate() {
        out.row_mut(k).copy_from_slice(x.row(offset + i as usize));
    }
    out
}

/// Lands received rows: row `k` of `rows` is assigned to row `idx[k]` of
/// `dst` going forward (halo slots), added to it going backward (gradients).
fn land<R>(dir: Direction, dst: &mut Matrix, idx: &[u32], rows: impl Iterator<Item = R>)
where
    R: Iterator<Item = f32>,
{
    for (row, &i) in rows.zip(idx) {
        let into = dst.row_mut(i as usize).iter_mut();
        match dir {
            Direction::Forward => into.zip(row).for_each(|(v, f)| *v = f),
            Direction::Backward => into.zip(row).for_each(|(v, f)| *v += f),
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
    /// The payload for peer `q`: rows `offset + idx[k]` of `src`, encoded.
    fn encode(
        &mut self,
        src: &Matrix,
        (offset, idx): (usize, &[u32]),
        (rank, q): (usize, usize),
        rng: &mut Rng,
        stats: &mut ExchangeStats,
    ) -> Bytes {
        let encode_ops = (idx.len() * src.cols()) as f64 * ENCODE_OPS_PER_ELEMENT;
        match self {
            Wire::Fp32 => rows_to_bytes(src, offset, idx),
            Wire::Rows { widths, residuals } => {
                let mut msgs = gather(src, offset, idx);
                if let Some(res) = residuals {
                    msgs.add_assign(&res[q]);
                }
                let ((block, enc_stats), secs) =
                    measure(|| encode_block_with_stats(&msgs, &widths[q], rng));
                stats.quant_cpu_seconds += secs;
                stats.quant_ops += encode_ops;
                stats.encode_stats.merge(&enc_stats);
                if let Some(res) = residuals {
                    let (decoded, secs) =
                        // lint:allow(no-panic): decoding the block this function encoded five lines up
                        measure(|| decode_block(&block).expect("own block decodes"));
                    stats.quant_cpu_seconds += secs;
                    stats.quant_ops += msgs.len() as f64 * (DECODE_OPS_PER_ELEMENT + 2.0);
                    msgs.sub_assign(&decoded);
                    res[q] = msgs;
                }
                block.bytes
            }
            Wire::Streamed { widths, cost } => {
                let msgs = gather(src, offset, idx);
                let ((block, enc_stats, profile), secs) =
                    measure(|| encode_block_streamed(&msgs, &widths[q], rng));
                stats.quant_cpu_seconds += secs;
                stats.encode_stats.merge(&enc_stats);
                stats.streamed_send[q] = streamed_send_seconds(cost, rank, q, &profile);
                block.bytes
            }
            Wire::Grouped { send_widths, .. } => {
                let msgs = gather(src, offset, idx);
                let (block, secs) = measure(|| encode_block_grouped(&msgs, &send_widths[q], rng));
                stats.quant_cpu_seconds += secs;
                stats.quant_ops += encode_ops;
                block.bytes
            }
        }
    }

    /// Decodes peer `q`'s non-empty `payload` of `idx.len()` rows into `dst`.
    fn decode(
        &self,
        payload: Bytes,
        dir: Direction,
        dst: &mut Matrix,
        (q, idx): (usize, &[u32]),
        stats: &mut ExchangeStats,
    ) {
        let dim = dst.cols();
        if let Wire::Fp32 = self {
            assert_eq!(payload.len(), idx.len() * dim * 4, "fp32 payload size");
            return land(dir, dst, idx, payload.chunks_exact(dim * 4).map(floats_le));
        }
        let (bytes, rows) = (payload, idx.len());
        let block = EncodedBlock { bytes, rows, dim };
        let (decoded, secs) = measure(|| match self {
            Wire::Grouped { recv_widths, .. } => decode_block_grouped(&block, &recv_widths[q]),
            _ => decode_block(&block),
        });
        // lint:allow(no-panic): peers run this same codec; a malformed block is a codec bug, not runtime state
        let decoded = decoded.expect("peer sent a well-formed block");
        stats.quant_cpu_seconds += secs;
        stats.quant_ops += (rows * dim) as f64 * DECODE_OPS_PER_ELEMENT;
        land(
            dir,
            dst,
            idx,
            (0..rows).map(|r| decoded.row(r).iter().copied()),
        );
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
/// # Panics
///
/// Panics if a shape or width table disagrees with the partition, or if a
/// peer's payload does not decode.
pub fn halo_exchange(
    dev: &mut DeviceHandle,
    part: &DevicePartition,
    dir: Direction,
    src: Option<&Matrix>,
    dst: &mut Matrix,
    mut wire: Wire<'_>,
    rng: &mut Rng,
) -> ExchangeStats {
    let n = part.num_parts;
    let (local, owned, halo) = (part.num_local(), &part.send_sets, &part.recv_slots);
    let (offset, src_rows, send_idx, dst_rows, recv_idx) = match dir {
        Direction::Forward => (0, local, owned, part.num_halo(), halo),
        Direction::Backward => (local, part.num_ext(), halo, local, owned),
    };
    assert_eq!(dst.rows(), dst_rows, "{dir:?} dst rows");
    if let Some(src) = src {
        assert_eq!(src.shape(), (src_rows, dst.cols()), "{dir:?} src shape");
    }
    let mut stats = ExchangeStats::new(n);
    let mut payloads: Vec<Bytes> = Vec::with_capacity(n);
    for (q, idx) in send_idx.iter().enumerate() {
        let payload = match src {
            Some(src) if q != part.rank && !idx.is_empty() => {
                wire.encode(src, (offset, idx), (part.rank, q), rng, &mut stats)
            }
            _ => Bytes::new(),
        };
        stats.sent_bytes[q] = payload.len();
        payloads.push(payload);
    }
    let received = dev.ring_all2all(payloads);
    for (q, payload) in received.into_iter().enumerate() {
        let Some(payload) = payload else { continue };
        stats.recv_bytes[q] = payload.len();
        if !payload.is_empty() {
            wire.decode(payload, dir, dst, (q, &recv_idx[q]), &mut stats);
        }
    }
    stats
}

/// Full-precision forward [`halo_exchange`] of `x` (`num_local` rows) into a
/// fresh halo matrix (`num_halo x dim`).
pub fn exchange_forward_fp32(
    dev: &mut DeviceHandle,
    part: &DevicePartition,
    x: &Matrix,
) -> (Matrix, ExchangeStats) {
    // Fp32 draws nothing from the generator.
    let (wire, rng) = (Wire::Fp32, &mut Rng::seed_from(0));
    let mut halo = Matrix::zeros(part.num_halo(), x.cols());
    let stats = halo_exchange(dev, part, Direction::Forward, Some(x), &mut halo, wire, rng);
    (halo, stats)
}

/// Quantized forward [`halo_exchange`] into a fresh halo matrix. `widths[q]`
/// gives the bit-width of each message to peer `q`, aligned with
/// `part.send_sets[q]`.
pub fn exchange_forward_quant(
    dev: &mut DeviceHandle,
    part: &DevicePartition,
    x: &Matrix,
    widths: &[Vec<BitWidth>],
    rng: &mut Rng,
) -> (Matrix, ExchangeStats) {
    let residuals = None;
    let wire = Wire::Rows { widths, residuals };
    let mut halo = Matrix::zeros(part.num_halo(), x.cols());
    let stats = halo_exchange(dev, part, Direction::Forward, Some(x), &mut halo, wire, rng);
    (halo, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use Direction::{Backward, Forward};

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

    /// Source and (pre-filled) destination operands of one exchange.
    fn operands(part: &DevicePartition, dir: Direction, rng: &mut Rng) -> (Matrix, Matrix) {
        let (src_rows, dst_rows) = match dir {
            Forward => (part.num_local(), part.num_halo()),
            Backward => (part.num_ext(), part.num_local()),
        };
        (
            random_matrix(src_rows, 5, rng),
            random_matrix(dst_rows, 5, rng),
        )
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The fp32 exchange as it was before rows moved straight between
    /// matrix and wire buffer: gather into a message matrix, serialize,
    /// ring, deserialize, copy / scatter-add. Returns the payloads sent.
    fn composed_fp32_exchange(
        dev: &mut DeviceHandle,
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
        for (q, payload) in dev.ring_all2all(sent.clone()).into_iter().enumerate() {
            let Some(payload) = payload.filter(|p| !p.is_empty()) else {
                continue;
            };
            let idx = peer_rows(part, dir, q).1;
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

    #[test]
    fn fused_fp32_exchange_matches_the_gather_serialize_composition() {
        let parts = &three_parts();
        let outputs = comm::Cluster::run_fn(3, move |mut dev| {
            let part = &parts[dev.rank()];
            let mut rng = Rng::seed_from(25 + dev.rank() as u64);
            let mut total = 0;
            for dir in [Forward, Backward] {
                let (src, seed) = operands(part, dir, &mut rng);
                let mut want = seed.clone();
                let sent = composed_fp32_exchange(&mut dev, part, dir, &src, &mut want);
                let mut dst = seed;
                let stats = halo_exchange(
                    &mut dev,
                    part,
                    dir,
                    Some(&src),
                    &mut dst,
                    Wire::Fp32,
                    &mut rng,
                );
                let lens: Vec<usize> = sent.iter().map(Bytes::len).collect();
                assert_eq!(stats.sent_bytes, lens, "{dir:?} payload lengths");
                assert_eq!(stats.quant_ops, 0.0);
                assert_eq!(bits(&dst), bits(&want), "{dir:?} dst");
                total += stats.total_sent();
            }
            // The kept forward entry point is the routine over fresh zeros.
            let x = random_matrix(part.num_local(), 5, &mut rng);
            let mut want = Matrix::zeros(part.num_halo(), 5);
            composed_fp32_exchange(&mut dev, part, Forward, &x, &mut want);
            assert_eq!(exchange_forward_fp32(&mut dev, part, &x).0, want);
            total
        });
        assert!(outputs.iter().all(|&b| b > 0), "every device has a peer");
    }

    #[test]
    fn skipped_sancus_turn_sends_nothing_and_keeps_stale_rows() {
        let parts = &three_parts();
        comm::Cluster::run_fn(3, move |mut dev| {
            let me = dev.rank();
            let part = &parts[me];
            // Row `i` of rank `r` holds `100 r + i` in every column.
            let x = Matrix::from_fn(part.num_local(), 4, |i, _| (100 * me + i) as f32);
            let mut cache = Matrix::from_fn(part.num_halo(), 4, |_, _| -1.0);
            // Rank 1 skips its broadcast turn.
            let src = (me != 1).then_some(&x);
            let rng = &mut Rng::seed_from(0);
            let stats = halo_exchange(&mut dev, part, Forward, src, &mut cache, Wire::Fp32, rng);
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
    fn reference_exchange(
        dev: &mut DeviceHandle,
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
        for (q, payload) in dev.ring_all2all(payloads).into_iter().enumerate() {
            let Some(bytes) = payload.filter(|p| !p.is_empty()) else {
                continue;
            };
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

    /// Runs two rounds of `kind` x `dir` on three devices through the
    /// routine and through [`reference_exchange`] with a cloned generator,
    /// and demands bit-equal `dst`, payload lengths, `quant_ops`, streamed
    /// charges, residuals and generator state.
    fn routine_matches_reference(kind: Kind, dir: Direction) {
        let parts = &three_parts();
        let cost = &CostModel::homogeneous(3, 1e8, 5e-6);
        // Mixed widths both ends of a pair derive alike: row `k` of the
        // block from `s` to `r`.
        let width = |s: usize, r: usize, k: usize| BitWidth::ALL[(s + 2 * r + k) % 3];
        comm::Cluster::run_fn(3, move |mut dev| {
            let me = dev.rank();
            let part = &parts[me];
            let lens = |q: usize| peer_rows(part, dir, q);
            let send_widths: Vec<Vec<BitWidth>> = (0..3)
                .map(|q| (0..lens(q).0.len()).map(|k| width(me, q, k)).collect())
                .collect();
            let recv_widths: Vec<Vec<BitWidth>> = (0..3)
                .map(|q| (0..lens(q).1.len()).map(|k| width(q, me, k)).collect())
                .collect();
            let mut residuals: Vec<Matrix> =
                (0..3).map(|q| Matrix::zeros(lens(q).0.len(), 5)).collect();
            let mut want_residuals = residuals.clone();
            let mut rng = Rng::seed_from(77 + me as u64);
            let mut want_rng = rng.clone();
            let mut data_rng = Rng::seed_from(99 + me as u64);
            for round in 0..2 {
                let (src, seed) = operands(part, dir, &mut data_rng);
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
                );
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
                let stats =
                    halo_exchange(&mut dev, part, dir, Some(&src), &mut dst, wire, &mut rng);
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

//! Device-side training loops for AdaQP and every baseline.
//!
//! One [`DeviceTrainer`] runs on each simulated device. All methods
//! share the same distributed forward/backward engine — per layer: halo
//! exchange, split central/marginal aggregation, dense transform — and
//! differ only in *how halo data is obtained* (fresh fp32, quantized, stale
//! cache) and how their epoch time composes (see
//! [`crate::metrics::schedule_for`]).

use crate::assigner::{reassign, AssignMode, Trace, WidthAssignment};
use crate::config::{Method, TrainingConfig};
use crate::decompose::{DevicePartition, LocalLabels};
use crate::error::DeviceError;
use crate::exchange::{halo_exchange, halo_exchange_with, Direction, ExchangeError, Wire};
use crate::metrics::{DeviceEpochRecord, DeviceTallies, MetricParts};
use comm::{AsyncDevice, CostModel, TimeBreakdown};
use gnn::{Adam, Gnn};
use obs::time::{EventDetail, EventKind, Span};
use quant::BitWidth;
use std::borrow::BorrowMut;
use tensor::{sigmoid_bce_weighted, softmax_cross_entropy, Matrix, Rng};

/// The per-device training driver, an `async` program ([`comm::AsyncDevice`]).
pub struct DeviceTrainer<'a> {
    dev: AsyncDevice,
    part: &'a DevicePartition,
    cfg: &'a TrainingConfig,
    method: Method,
    /// The cluster's cost model: two dense `n x n` tables, shared by every
    /// device of the run.
    cost: &'a CostModel,
    model: Gnn,
    adam: Adam,
    rng: Rng,
    dims: Vec<usize>,
    assignment: WidthAssignment,
    trace: Trace,
    /// Per-layer stale halo caches (PipeGCN / SANCUS).
    halo_cache: Vec<Matrix>,
    /// Per-layer one-epoch-stale remote gradient contributions (PipeGCN).
    stale_grads: Vec<Matrix>,
    /// SANCUS: snapshot of local embeddings at each layer's last broadcast,
    /// for the staleness check.
    sancus_snapshot: Vec<Option<Matrix>>,
    /// SANCUS: epoch of each layer's last broadcast.
    sancus_last: Vec<usize>,
    /// Error-feedback residuals for forward messages, `[layer][peer]`
    /// (empty unless `cfg.error_feedback`).
    ef_fwd: Vec<Vec<Matrix>>,
    /// Error-feedback residuals for backward messages, `[layer][peer]`.
    ef_bwd: Vec<Vec<Matrix>>,
    central_frac: f64,
    /// Epoch currently being trained, tagged onto every charge.
    cur_epoch: usize,
    /// Layer currently being computed, tagged onto every charge (`None`
    /// between the layer loops).
    cur_layer: Option<u32>,
    /// Simulated seconds charged so far this epoch; written only by
    /// [`DeviceTrainer::charge_volumes`].
    tb: TimeBreakdown,
    /// Halo bytes sent so far this epoch; written only by
    /// [`DeviceTrainer::charge_comm`].
    bytes: usize,
    /// Evaluation's aggregated first-layer input `Â·[X; halo(X)]`, kept
    /// from the first [`DeviceTrainer::evaluate`]: features never change and
    /// evaluation exchanges them at full precision, so every later epoch
    /// would recompute these exact bits.
    eval_z0: Option<Matrix>,
    /// What this device counts towards the run's metric snapshot (`None`
    /// unless `cfg.metrics`).
    tallies: Option<DeviceTallies>,
    /// Aggregation entries of the central and of the marginal rows: the op
    /// counts behind the two aggregate charges, per feature column.
    agg_entries: (usize, usize),
}

/// What one device returns from a run: per-epoch records and its tallies
/// (`None` unless `cfg.metrics`).
pub type DeviceOutput = (Vec<DeviceEpochRecord>, Option<DeviceTallies>);

/// SANCUS broadcasts again when local embeddings drift more than this
/// relative Frobenius distance from the last broadcast snapshot.
const SANCUS_DRIFT_THRESHOLD: f32 = 0.25;

/// The non-zero entries of a per-peer byte table, as `(peer, bytes)`.
fn sparse(volumes: &[usize]) -> Vec<(u32, u64)> {
    let listed = volumes.iter().enumerate().filter(|(_, &b)| b > 0);
    // Device counts are far below 2^32.
    listed.map(|(q, &b)| (q as u32, b as u64)).collect()
}

/// The single bit-width shared by every message group in a per-peer
/// assignment, or `None` when groups mix widths (adaptive assignments).
fn uniform_bits(widths: &[Vec<BitWidth>]) -> Option<u8> {
    let mut it = widths.iter().flatten();
    let first = *it.next()?;
    if it.all(|w| *w == first) {
        Some(first.bits() as u8)
    } else {
        None
    }
}

impl<'a> DeviceTrainer<'a> {
    /// Builds the trainer; model initialization is seeded identically on
    /// every rank so replicas start (and stay, via gradient allreduce) in
    /// sync.
    pub fn new(
        mut dev: AsyncDevice,
        part: &'a DevicePartition,
        cfg: &'a TrainingConfig,
        method: Method,
        cost: &'a CostModel,
        seed: u64,
    ) -> Self {
        if cfg.metrics {
            dev.count_sends();
        }
        let dims = cfg.dims(part.features.cols(), part.global.num_classes);
        let mut init_rng = Rng::seed_from(seed);
        let model = Gnn::with_dropout(cfg.conv_kind(), &dims, cfg.dropout, &mut init_rng);
        let adam = Adam::new(model.param_count(), cfg.lr);
        // Per-device stream for dropout / stochastic rounding.
        let rng = Rng::seed_from(seed ^ (0x9E37_79B9 + dev.rank() as u64));
        let num_layers = dims.len() - 1;
        let layer_in_dims: Vec<usize> = dims[..num_layers].to_vec();
        let trace = Trace::new(part, &layer_in_dims);
        let assignment = WidthAssignment::fixed(part, num_layers, BitWidth::B8);
        let halo_cache = layer_in_dims
            .iter()
            .map(|&d| Matrix::zeros(part.num_halo(), d))
            .collect();
        let stale_grads = layer_in_dims
            .iter()
            .map(|&d| Matrix::zeros(part.num_local(), d))
            .collect();

        let central_frac = if part.num_local() == 0 {
            0.0
        } else {
            part.central.len() as f64 / part.num_local() as f64
        };
        // Error-feedback residual buffers (zero-sized when disabled).
        let (ef_fwd, ef_bwd) = if cfg.error_feedback {
            let fwd = layer_in_dims
                .iter()
                .map(|&d| {
                    part.send_sets
                        .iter()
                        .map(|s| Matrix::zeros(s.len(), d))
                        .collect()
                })
                .collect();
            let bwd = layer_in_dims
                .iter()
                .map(|&d| {
                    part.recv_slots
                        .iter()
                        .map(|s| Matrix::zeros(s.len(), d))
                        .collect()
                })
                .collect();
            (fwd, bwd)
        } else {
            (Vec::new(), Vec::new())
        };
        Self {
            dev,
            part,
            cfg,
            method,
            cost,
            model,
            adam,
            rng,
            dims,
            assignment,
            trace,
            halo_cache,
            stale_grads,
            sancus_snapshot: vec![None; num_layers],
            sancus_last: vec![0; num_layers],
            ef_fwd,
            ef_bwd,
            central_frac,
            cur_epoch: 0,
            cur_layer: None,
            tb: TimeBreakdown::new(),
            bytes: 0,
            eval_z0: None,
            tallies: cfg.metrics.then(DeviceTallies::default),
            agg_entries: (
                part.agg.entries_for(&part.central),
                part.agg.entries_for(&part.marginal),
            ),
        }
    }

    /// The one place simulated time is charged: `secs` to the epoch's
    /// [`TimeBreakdown`] bucket `kind` belongs to and — in a recorded run,
    /// which is [`AsyncDevice::charge`]'s to know — the same charge to the
    /// run's flight log with the span describing it, so every view derived
    /// from the log sees exactly the charges the breakdown accumulates, in
    /// the same order, with the same values. `sent` / `recv` are the
    /// per-peer byte tables of a halo exchange, empty for any other charge.
    fn charge_volumes(
        &mut self,
        kind: EventKind,
        secs: f64,
        detail: EventDetail,
        sent: &[usize],
        recv: &[usize],
    ) {
        self.tb.charge(kind.category(), secs);
        let layer = self.cur_layer;
        self.dev.charge(self.cur_epoch, secs, || Span {
            kind,
            layer,
            detail,
            sent: sparse(sent),
            recv: sparse(recv),
        });
    }

    /// Charges `secs` of `kind` carrying `detail`.
    fn charge(&mut self, kind: EventKind, secs: f64, detail: EventDetail) {
        self.charge_volumes(kind, secs, detail, &[], &[]);
    }

    /// Charges one halo exchange: `secs` to the comm bucket in one piece,
    /// `sent` to the epoch's byte count, and the per-peer volumes on the
    /// span, from which the telemetry view splits the charge into per-peer
    /// send/recv spans.
    fn charge_comm(&mut self, secs: f64, sent: &[usize], recv: &[usize], width_bits: Option<u8>) {
        self.bytes += sent.iter().sum::<usize>();
        let detail = EventDetail {
            width_bits,
            ..EventDetail::default()
        };
        self.charge_volumes(EventKind::HaloSend, secs, detail, sent, recv);
    }

    fn num_layers(&self) -> usize {
        self.dims.len() - 1
    }

    /// Runs all configured epochs.
    ///
    /// # Errors
    ///
    /// [`DeviceError`] as soon as a peer's halo block or a reassignment
    /// message does not decode; the device stops there, so its peers stall
    /// at their next collective.
    pub async fn run(mut self) -> Result<DeviceOutput, DeviceError> {
        let mut records = Vec::with_capacity(self.cfg.epochs);
        for e in 0..self.cfg.epochs {
            records.push(self.run_epoch(e).await?);
        }
        if let Some(tallies) = &mut self.tallies {
            tallies.sent = self.dev.take_sent();
        }
        Ok((records, self.tallies))
    }

    /// Whether this epoch's messages are traced and followed by a
    /// reassignment (AdaQP/Uniform only).
    fn is_assign_epoch(&self, epoch: usize) -> bool {
        matches!(self.method, Method::AdaQp | Method::AdaQpUniform)
            && (epoch == 0 || (epoch + 1).is_multiple_of(self.cfg.reassign_period.max(1)))
    }

    /// One training epoch: forward, loss, backward, allreduce, step,
    /// optional reassignment, evaluation.
    ///
    /// # Errors
    ///
    /// [`DeviceError`] if a peer's halo block or a reassignment message
    /// does not decode.
    pub async fn run_epoch(&mut self, epoch: usize) -> Result<DeviceEpochRecord, DeviceError> {
        self.cur_epoch = epoch;
        self.cur_layer = None;
        self.tb = TimeBreakdown::new();
        self.bytes = 0;
        let trace_now = self.is_assign_epoch(epoch);
        self.model.zero_grads();

        // ---- Forward ----
        let num_layers = self.num_layers();
        let part = self.part;
        let mut h = self
            .forward_layer(0, &part.features, epoch, trace_now)
            .await?;
        for l in 1..num_layers {
            h = self.forward_layer(l, &h, epoch, trace_now).await?;
        }
        let logits = h;
        self.cur_layer = None;

        // ---- Loss ----
        let (loss_sum, grad_logits) = self.loss_and_grad(&logits);

        // ---- Backward ----
        let mut grad_h = grad_logits;
        for l in (0..num_layers).rev() {
            self.cur_layer = Some(l as u32);
            let grad_lin = self.model.layers_mut()[l].backward_params(&grad_h);
            self.charge_split_ops(self.dense_ops(self.part.num_local(), l, 2.0));
            if l == 0 {
                // Features are not trainable: no input gradients to compute,
                // propagate or exchange.
                break;
            }
            let (grad_agg, grad_self) = self.model.layers()[l].backward_inputs(&grad_lin);
            let grad_ext = self.part.agg.backward(&grad_agg);
            let agg_ops = self.part.agg.num_entries() as f64 * self.dims[l] as f64 * 2.0;
            self.charge_split_ops(agg_ops);
            if trace_now {
                self.trace.record_bwd(self.part, l, &grad_ext);
            }
            let mut grad_local = grad_ext.top_rows(self.part.num_local());
            if let Some(gs) = grad_self {
                grad_local.add_assign(&gs);
            }
            self.backward_exchange(l, &grad_ext, &mut grad_local, epoch)
                .await?;
            grad_h = grad_local;
        }

        // ---- Gradient allreduce + optimizer step ----
        self.cur_layer = None;
        let mut grads = self.model.grads_flat();
        self.dev.allreduce_sum_f32(&mut grads).await;
        let allreduce_secs = self.allreduce_seconds(grads.len() * 4);
        self.charge(
            EventKind::AllReduce,
            allreduce_secs,
            EventDetail {
                bytes: (grads.len() * 4) as u64,
                width_bits: Some(32),
                ..EventDetail::default()
            },
        );
        let grad_norm = grads
            .iter()
            .map(|&g| f64::from(g) * f64::from(g))
            .sum::<f64>()
            .sqrt();
        let mut params = self.model.params_flat();
        self.adam.step(&mut params, &grads);
        // Adam: ~10 scalar ops per parameter.
        let adam_secs = self
            .cost
            .ops_time_for(self.part.rank, params.len() as f64 * 10.0);
        self.charge(
            EventKind::MarginalCompute,
            adam_secs,
            EventDetail::default(),
        );
        self.model.set_params_flat(&params);

        // ---- Periodic bit-width reassignment ----
        if self.is_assign_epoch(epoch) {
            let mode = if self.method == Method::AdaQp {
                AssignMode::Adaptive
            } else {
                AssignMode::UniformRandom
            };
            let solve = reassign(
                &mut self.dev,
                self.part,
                self.cost,
                &self.trace,
                self.cfg,
                mode,
                &mut self.rng,
                &mut self.assignment,
            )
            .await?;
            self.charge(EventKind::AssignerSolve, solve.secs, EventDetail::default());
            // SolveStats are identical on every rank (the master broadcasts
            // them); the master alone counts them, so the fold over ranks
            // does not multiply the counts.
            if let Some(tallies) = self.tallies.as_mut().filter(|_| self.part.rank == 0) {
                tallies.count_solve(&solve);
            }
        }

        // ---- Evaluation (not charged to simulated time) ----
        let metric = self.evaluate().await?;

        Ok(DeviceEpochRecord {
            breakdown: self.tb,
            loss_sum,
            metric,
            bytes_sent: self.bytes,
            grad_norm,
        })
    }

    /// Training forward pass of layer `l` on its input `x`: halo exchange,
    /// split aggregation, dense transform.
    async fn forward_layer(
        &mut self,
        l: usize,
        x: &Matrix,
        epoch: usize,
        trace_now: bool,
    ) -> Result<Matrix, ExchangeError> {
        self.cur_layer = Some(l as u32);
        if trace_now {
            self.trace.record_fwd(self.part, l, x);
        }
        let fresh = self.forward_halo(l, x, epoch).await?;
        // SANCUS aggregates straight from its stale cache.
        let halo = fresh.as_ref().unwrap_or(&self.halo_cache[l]);
        let agg = &self.part.agg;
        let (z, host_seconds) = comm::timing::measure(|| agg.aggregate_with_halo(x, halo));
        self.charge_aggregate(x.cols(), host_seconds);
        let x_self = self.model.kind().uses_self_path().then_some(x);
        let out = self.model.layers_mut()[l].forward_dense(z, x_self, &mut self.rng);
        let ops = self.dense_ops(self.part.num_local(), l, 1.0);
        self.charge_split_ops(ops);
        Ok(out)
    }

    /// Whether this epoch's exchanges are quantized: AdaQP and its uniform
    /// ablation, after a first epoch at full precision while tracing.
    fn quantized(&self, epoch: usize) -> bool {
        matches!(self.method, Method::AdaQp | Method::AdaQpUniform) && epoch > 0
    }

    /// One ring-scheduled halo exchange of layer `l` from `src` into the
    /// destination `make_dst` yields once the ring wait is over
    /// ([`halo_exchange_with`]), with its comm and quantization charges:
    /// fp32, or — when `quantized` — over the wire the config selects (the
    /// same choice for both directions).
    async fn charged_exchange<D: BorrowMut<Matrix>>(
        &mut self,
        l: usize,
        dir: Direction,
        quantized: bool,
        src: &Matrix,
        make_dst: impl FnOnce() -> D,
    ) -> Result<D, ExchangeError> {
        let a = &self.assignment;
        // The residual buffers exist only under `cfg.error_feedback`.
        let (widths, recv_widths, residuals) = match dir {
            Direction::Forward => (&a.fwd[l], &a.fwd_recv[l], self.ef_fwd.get_mut(l)),
            Direction::Backward => (&a.bwd[l], &a.bwd_recv[l], self.ef_bwd.get_mut(l)),
        };
        let bits = if quantized {
            uniform_bits(widths)
        } else {
            Some(32)
        };
        let wire = if !quantized {
            Wire::Fp32
        } else if self.cfg.grouped_wire && self.method == Method::AdaQp {
            Wire::Grouped {
                send_widths: widths,
                recv_widths,
            }
        } else if self.cfg.stream_quant {
            let cost = self.cost;
            Wire::Streamed { widths, cost }
        } else {
            Wire::Rows { widths, residuals }
        };
        let (dev, rng, dim) = (&mut self.dev, &mut self.rng, src.cols());
        let exchange = halo_exchange_with(dev, self.part, dir, Some(src), dim, make_dst, wire, rng);
        let (dst, stats) = exchange.await?;
        let comm_secs = stats.ring_seconds(self.cost, self.part.rank);
        let quant_secs = self.cost.ops_time_for(self.part.rank, stats.quant_ops);
        self.charge_comm(comm_secs, &stats.sent_bytes, &stats.recv_bytes, bits);
        self.charge(
            EventKind::QuantEncode,
            quant_secs,
            EventDetail {
                host_seconds: stats.quant_cpu_seconds,
                threads: Some(tensor::par::current_threads() as u32),
                ..EventDetail::default()
            },
        );
        if let Some(tallies) = &mut self.tallies {
            // Pure functions of the exchanged data, so the snapshot is
            // byte-identical at any worker-thread count.
            tallies.count_exchange(bits, &stats.sent_bytes, &stats.encode_stats);
        }
        Ok(dst)
    }

    /// Produces the halo matrix for layer `l`'s aggregation — `None` when
    /// it is `halo_cache[l]` itself (SANCUS) — charging
    /// communication/quantization time according to the method.
    async fn forward_halo(
        &mut self,
        l: usize,
        h: &Matrix,
        epoch: usize,
    ) -> Result<Option<Matrix>, ExchangeError> {
        if self.method == Method::Sancus {
            self.sancus_refresh(l, h, epoch).await?;
            return Ok(None);
        }
        let quantized = self.quantized(epoch);
        let zeros = || Matrix::zeros(self.part.num_halo(), h.cols());
        let exchange = self.charged_exchange(l, Direction::Forward, quantized, h, zeros);
        let mut halo = exchange.await?;
        if self.method == Method::PipeGcn {
            // Use last epoch's halo; the fresh one refreshes the cache
            // concurrently (pipelined).
            if epoch == 0 {
                self.halo_cache[l] = halo.clone();
            } else {
                std::mem::swap(&mut self.halo_cache[l], &mut halo);
            }
        }
        Ok(Some(halo))
    }

    /// SANCUS's staleness-aware skip-broadcast (Peng et al. 2022): each
    /// device broadcasts its *whole partition's* embeddings sequentially —
    /// SANCUS is decentralized, every worker keeps historical embeddings for
    /// the full graph — but skips its turn while its embeddings have drifted
    /// little since the last broadcast (bounded by `sancus_staleness`
    /// epochs). Functionally only the halo rows matter, so only those move;
    /// the byte/time accounting uses the full-partition broadcast volume
    /// over the serialized sequential schedule the paper critiques.
    async fn sancus_refresh(
        &mut self,
        l: usize,
        h: &Matrix,
        epoch: usize,
    ) -> Result<(), ExchangeError> {
        let part = self.part;
        // Sender-side refresh decision.
        let drifted = match &self.sancus_snapshot[l] {
            None => true,
            Some(snap) => {
                let moved = h.as_slice().iter().zip(snap.as_slice());
                let drift = moved.map(|(a, b)| (a - b) * (a - b)).sum::<f32>().sqrt();
                drift > SANCUS_DRIFT_THRESHOLD * (snap.frobenius_norm() + 1e-12)
            }
        };
        let stale_for = epoch.saturating_sub(self.sancus_last[l]);
        let broadcast = epoch == 0 || drifted || stale_for >= self.cfg.sancus_staleness.max(1);

        // Move boundary rows (or nothing) to every peer, into the stale
        // cache: rows of a peer that skipped its broadcast stay as they were.
        let (src, cache) = (broadcast.then_some(h), &mut self.halo_cache[l]);
        let (dev, rng) = (&mut self.dev, &mut self.rng);
        let exchange = halo_exchange(dev, part, Direction::Forward, src, cache, Wire::Fp32, rng);
        let mut stats = exchange.await?;
        // Full-partition broadcast volume, not just the halo.
        let row_bytes = h.cols() * 4;
        for q in 0..part.num_parts {
            let sends = broadcast && q != part.rank;
            stats.sent_bytes[q] = if sends {
                part.num_local() * row_bytes
            } else {
                0
            };
            if stats.recv_bytes[q] > 0 {
                stats.recv_bytes[q] = part.part_sizes[q] * row_bytes;
            }
        }
        if broadcast {
            self.sancus_snapshot[l] = Some(h.clone());
            self.sancus_last[l] = epoch;
        }
        let comm_secs = stats.sequential_seconds(self.cost, part.rank);
        self.charge_comm(comm_secs, &stats.sent_bytes, &stats.recv_bytes, Some(32));
        Ok(())
    }

    /// Backward halo-gradient exchange per method.
    async fn backward_exchange(
        &mut self,
        l: usize,
        grad_ext: &Matrix,
        grad_local: &mut Matrix,
        epoch: usize,
    ) -> Result<(), ExchangeError> {
        let dir = Direction::Backward;
        match self.method {
            // Communication-avoiding: remote gradient contributions are
            // skipped entirely.
            Method::Sancus => {}
            Method::PipeGcn => {
                // Remote gradient contributions arrive one epoch late. The
                // warm-up epoch applies the fresh ones synchronously and
                // leaves the stale buffer zeroed so nothing double-counts.
                let mut grads = Matrix::zeros(grad_local.rows(), grad_local.cols());
                self.charged_exchange(l, dir, false, grad_ext, || &mut grads)
                    .await?;
                if epoch > 0 {
                    std::mem::swap(&mut self.stale_grads[l], &mut grads);
                }
                grad_local.add_assign(&grads);
            }
            Method::Vanilla | Method::AdaQp | Method::AdaQpUniform => {
                let quantized = self.quantized(epoch);
                self.charged_exchange(l, dir, quantized, grad_ext, || grad_local)
                    .await?;
            }
        }
        Ok(())
    }

    /// Charges one aggregation of `cols`-wide rows into the local targets,
    /// central and marginal rows each to its own bucket (analytically: 2 ops
    /// per aggregation entry per feature column). The measured host
    /// wall-clock of the one parallel aggregation kernel rides along on the
    /// marginal span as a diagnostic, so fig10/table5 breakdowns can report
    /// real kernel time per thread count.
    fn charge_aggregate(&mut self, cols: usize, host_seconds: f64) {
        let dim = cols as f64;
        let (central, marginal) = self.agg_entries;
        let central_secs = self
            .cost
            .ops_time_for(self.part.rank, central as f64 * dim * 2.0);
        self.charge(
            EventKind::CentralCompute,
            central_secs,
            EventDetail::default(),
        );
        let marginal_secs = self
            .cost
            .ops_time_for(self.part.rank, marginal as f64 * dim * 2.0);
        self.charge(
            EventKind::MarginalCompute,
            marginal_secs,
            EventDetail {
                host_seconds,
                threads: Some(tensor::par::current_threads() as u32),
                ..EventDetail::default()
            },
        );
    }

    /// Splits an analytic dense-kernel cost between the central and marginal
    /// buckets proportionally to node counts (the kernels are row-wise).
    fn charge_split_ops(&mut self, ops: f64) {
        let sim = self.cost.ops_time_for(self.part.rank, ops);
        self.charge(
            EventKind::CentralCompute,
            sim * self.central_frac,
            EventDetail::default(),
        );
        self.charge(
            EventKind::MarginalCompute,
            sim * (1.0 - self.central_frac),
            EventDetail::default(),
        );
    }

    /// Operation count of one dense layer application on `rows` nodes:
    /// the neighbor matmul, the optional self-path matmul, and the
    /// LayerNorm/ReLU/dropout tail. `factor` is 1 for forward, ~2 for
    /// backward (two transposed matmuls per weight).
    fn dense_ops(&self, rows: usize, l: usize, factor: f64) -> f64 {
        let din = self.dims[l] as f64;
        let dout = self.dims[l + 1] as f64;
        let paths = if self.model.kind().uses_self_path() {
            2.0
        } else {
            1.0
        };
        let matmul = rows as f64 * din * dout * 2.0 * paths * factor;
        let tail = rows as f64 * dout * 8.0;
        matmul + tail
    }

    /// Modeled seconds of the gather+broadcast gradient allreduce.
    fn allreduce_seconds(&self, bytes: usize) -> f64 {
        let n = self.cost.num_devices();
        let mut up: f64 = 0.0;
        let mut down: f64 = 0.0;
        for r in 1..n {
            up = up.max(self.cost.transfer_time(r, 0, bytes));
            down = down.max(self.cost.transfer_time(0, r, bytes));
        }
        up + down
    }

    /// Local loss sum over training nodes plus the globally scaled logits
    /// gradient.
    fn loss_and_grad(&self, logits: &Matrix) -> (f64, Matrix) {
        let mask = &self.part.train_mask;
        let local_cnt = mask.iter().filter(|&&b| b).count();
        let global_cnt = self.part.global.num_train.max(1);
        let scale = local_cnt as f32 / global_cnt as f32;
        let (loss, mut grad) = match &self.part.labels {
            LocalLabels::Single(labels) => softmax_cross_entropy(logits, labels, mask),
            LocalLabels::Multi(targets) => {
                sigmoid_bce_weighted(logits, targets, mask, self.part.global.pos_weight)
            }
        };
        grad.scale(scale);
        (loss as f64 * local_cnt as f64, grad)
    }

    /// Evaluation forward pass (full precision, eval mode); returns local
    /// metric accumulators. Not charged to simulated time: the paper's
    /// throughput numbers measure training epochs only.
    async fn evaluate(&mut self) -> Result<MetricParts, ExchangeError> {
        let part = self.part;
        let z0 = match self.eval_z0.take() {
            Some(z0) => z0,
            None => self.eval_aggregate(&part.features).await?,
        };
        let mut h = self.eval_dense(0, &z0, &part.features);
        self.eval_z0 = Some(z0);
        for l in 1..self.num_layers() {
            let z = self.eval_aggregate(&h).await?;
            h = self.eval_dense(l, &z, &h);
        }
        Ok(self.local_metrics(&h))
    }

    /// Evaluation's aggregated layer input `Â·[x; halo(x)]`, the halo
    /// exchanged at full precision.
    async fn eval_aggregate(&mut self, x: &Matrix) -> Result<Matrix, ExchangeError> {
        let (dev, rng, dim) = (&mut self.dev, &mut self.rng, x.cols());
        let zeros = || Matrix::zeros(self.part.num_halo(), dim);
        let (dir, wire) = (Direction::Forward, Wire::Fp32);
        let exchange = halo_exchange_with(dev, self.part, dir, Some(x), dim, zeros, wire, rng);
        let (halo, _) = exchange.await?;
        Ok(self.part.agg.aggregate_with_halo(x, &halo))
    }

    /// Evaluation's dense transform of layer `l` on aggregated input `z`.
    fn eval_dense(&self, l: usize, z: &Matrix, x: &Matrix) -> Matrix {
        let x_self = self.model.kind().uses_self_path().then_some(x);
        self.model.layers()[l].infer_dense(z, x_self)
    }

    fn local_metrics(&self, logits: &Matrix) -> MetricParts {
        let mut parts = MetricParts::default();
        match &self.part.labels {
            LocalLabels::Single(labels) => {
                for i in 0..logits.rows() {
                    let on_val = self.part.val_mask[i];
                    let on_test = self.part.test_mask[i];
                    if !on_val && !on_test {
                        continue;
                    }
                    let row = logits.row(i);
                    let mut best = 0usize;
                    let mut best_v = f32::NEG_INFINITY;
                    for (j, &v) in row.iter().enumerate() {
                        if v > best_v {
                            best_v = v;
                            best = j;
                        }
                    }
                    let hit = f64::from(best == labels[i]);
                    if on_val {
                        parts.val[0] += hit;
                        parts.val[1] += 1.0;
                    }
                    if on_test {
                        parts.test[0] += hit;
                        parts.test[1] += 1.0;
                    }
                }
            }
            LocalLabels::Multi(targets) => {
                for i in 0..logits.rows() {
                    let on_val = self.part.val_mask[i];
                    let on_test = self.part.test_mask[i];
                    if !on_val && !on_test {
                        continue;
                    }
                    let mut tp = 0.0;
                    let mut fp = 0.0;
                    let mut fn_ = 0.0;
                    for (&z, &y) in logits.row(i).iter().zip(targets.row(i)) {
                        match (z > 0.0, y > 0.5) {
                            (true, true) => tp += 1.0,
                            (true, false) => fp += 1.0,
                            (false, true) => fn_ += 1.0,
                            (false, false) => {}
                        }
                    }
                    if on_val {
                        parts.val[0] += tp;
                        parts.val[1] += fp;
                        parts.val[2] += fn_;
                    }
                    if on_test {
                        parts.test[0] += tp;
                        parts.test[1] += fp;
                        parts.test[2] += fn_;
                    }
                }
            }
        }
        parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::build_partitions;
    use graph::DatasetSpec;

    /// Runs `f` on a single-device cluster with a real trainer.
    fn with_single_device_trainer<T>(
        cfg: TrainingConfig,
        method: Method,
        f: impl AsyncFnOnce(&mut DeviceTrainer) -> T,
    ) -> T {
        let ds = DatasetSpec::tiny().generate(17);
        let mut rng = Rng::seed_from(18);
        let part = graph::partition::metis_like(&ds.graph, 1, &mut rng);
        let parts = build_partitions(&ds, &part, cfg.conv_kind());
        let cost = comm::CostModel::homogeneous(1, 1e9, 1e-5);
        let mut f = Some(f);
        let run = comm::Cluster::try_run_async(1, None, None, |dev| {
            let mut t = DeviceTrainer::new(dev, &parts[0], &cfg, method, &cost, 17);
            let f = f.take().expect("one device");
            async move { f(&mut t).await }
        });
        run.expect("one device ran")
            .outputs
            .pop()
            .expect("one output")
    }

    fn quick_cfg() -> TrainingConfig {
        TrainingConfig {
            epochs: 2,
            hidden: 8,
            num_layers: 2,
            dropout: 0.0,
            ..TrainingConfig::default()
        }
    }

    #[test]
    fn loss_and_grad_respects_global_scaling() {
        let record = with_single_device_trainer(quick_cfg(), Method::Vanilla, async |t| {
            let logits = Matrix::from_fn(t.part.num_local(), t.part.global.num_classes, |i, j| {
                ((i + j) as f32 * 0.7).sin()
            });
            let (loss_sum, grad) = t.loss_and_grad(&logits);
            (loss_sum, grad, t.part.global.num_train)
        });
        let (loss_sum, grad, n_train) = record;
        assert!(loss_sum.is_finite() && loss_sum > 0.0);
        // All nodes are local on one device, so loss_sum / n_train is the
        // global mean loss and grads already carry the 1/n_train scale.
        assert!(grad.frobenius_norm() > 0.0);
        assert!(n_train > 0);
    }

    #[test]
    fn assign_epoch_schedule() {
        let cfg = TrainingConfig {
            reassign_period: 5,
            ..quick_cfg()
        };
        let flags = with_single_device_trainer(cfg, Method::AdaQp, async |t| {
            (0..12).map(|e| t.is_assign_epoch(e)).collect::<Vec<_>>()
        });
        assert!(flags[0], "epoch 0 always assigns");
        assert!(flags[4] && flags[9], "period boundaries assign");
        assert!(!flags[1] && !flags[2] && !flags[6]);
        // Vanilla never assigns.
        let none = with_single_device_trainer(quick_cfg(), Method::Vanilla, async |t| {
            (0..6).any(|e| t.is_assign_epoch(e))
        });
        assert!(!none);
    }

    #[test]
    fn epoch_record_has_consistent_accounting() {
        let rec = with_single_device_trainer(quick_cfg(), Method::Vanilla, async |t| {
            t.run_epoch(0).await
        })
        .expect("one device has no peer blocks to reject");
        // Single device: no halo, no bytes.
        assert_eq!(rec.bytes_sent, 0);
        assert!(rec.loss_sum.is_finite());
        assert!(rec.breakdown.total_comp() > 0.0, "compute must be charged");
        assert!(rec.breakdown.comm >= 0.0);
    }
}

//! Layer probes: each crate's public functions timed from outside, on inputs
//! built from the workload's own dataset and device partitions.
//!
//! Every `_s` probe is one *epoch-equivalent*: the calls one training epoch
//! makes into that layer, summed over all devices, so probe x epochs is
//! comparable with `host_run_s - setup_s`. The call inventory mirrors
//! `adaqp::trainers::DeviceTrainer::run_epoch` (training forward, backward,
//! then the uncharged evaluation forward).

use crate::e2e::Setup;
use crate::stats::{median, summarize, Summary};
use adaqp::exchange::{
    bytes_to_matrix, exchange_forward_fp32, exchange_forward_quant, matrix_to_bytes,
};
use adaqp::{DevicePartition, ExperimentConfig, Method};
use bytes::Bytes;
use comm::{Cluster, CostModel};
use quant::codec::{HEADER_BYTES, ROW_OVERHEAD_BYTES};
use quant::{decode_block, encode_block_with_stats, BitWidth};
use solver::{BiObjectiveProblem, GroupSpec, PairSpec};
use std::hint::black_box;
use std::time::Instant;
use tensor::{layer_norm_backward, layer_norm_forward, Matrix, Rng};

/// Repetitions per probe; the median is reported.
pub const PROBE_REPS: usize = 5;
/// `ring_all2all` rounds per `comm.ring_round_s` repetition.
const RING_ROUNDS: usize = 20;
/// Payload each device sends each peer in the ring probe: all scheduler and
/// adapter, no data.
const RING_PAYLOAD_BYTES: usize = 64;

/// Layer widths and dense paths of the workload's model.
pub struct EpochShape {
    /// `[in, hidden, ..., classes]`.
    pub dims: Vec<usize>,
    /// Dense transforms per layer: 1 for GCN, 2 for GraphSAGE (self path).
    pub paths: usize,
}

impl EpochShape {
    pub fn of(cfg: &ExperimentConfig, setup: &Setup) -> Self {
        EpochShape {
            dims: cfg
                .training
                .dims(setup.dataset.feature_dim(), setup.dataset.num_classes),
            paths: if cfg.training.conv_kind().uses_self_path() {
                2
            } else {
                1
            },
        }
    }

    pub fn layers(&self) -> usize {
        self.dims.len() - 1
    }

    /// Layer index of every halo exchange a training step makes: forward
    /// into each layer, then backward out of every layer but the first
    /// (features take no gradient). Both directions of layer `l` move
    /// `dims[l]`-wide rows.
    pub fn train_exchange_layers(&self) -> Vec<usize> {
        (0..self.layers()).chain(1..self.layers()).collect()
    }

    /// The evaluation pass exchanges forward into each layer, always fp32.
    pub fn eval_exchange_layers(&self) -> Vec<usize> {
        (0..self.layers()).collect()
    }

    /// Sum over layers of `dims[l] * dims[l + 1]`.
    #[cfg(test)]
    fn weight_elements(&self) -> usize {
        self.dims.windows(2).map(|d| d[0] * d[1]).sum()
    }
}

/// Dense matmul calls per (device, layer) per epoch and path: training
/// forward, evaluation forward, and the two transposed products of the
/// backward pass.
const MATMUL_CALLS: usize = 4;

/// Matmul FLOPs of one epoch, counted call by call as the probe issues
/// them.
pub fn matmul_flops_per_epoch(shape: &EpochShape, parts: &[DevicePartition]) -> f64 {
    let mut flops = 0.0;
    for part in parts {
        for d in shape.dims.windows(2) {
            let per_call = 2.0 * part.num_local() as f64 * d[0] as f64 * d[1] as f64;
            flops += per_call * (MATMUL_CALLS * shape.paths) as f64;
        }
    }
    flops
}

/// The same count in closed form: rows sum to the node count, so an epoch
/// is `8 * paths * nodes * sum_l d_l * d_{l+1}` FLOPs.
#[cfg(test)]
fn matmul_flops_closed_form(shape: &EpochShape, num_nodes: usize) -> f64 {
    8.0 * shape.paths as f64 * num_nodes as f64 * shape.weight_elements() as f64
}

/// Rows crossing the cut per exchange: every device's send sets.
pub fn halo_rows(parts: &[DevicePartition]) -> usize {
    parts.iter().map(DevicePartition::messages_per_layer).sum()
}

/// Bytes one Vanilla training epoch puts on the wire (evaluation traffic is
/// not charged by the trainer).
#[cfg(test)]
pub fn vanilla_wire_bytes_per_epoch(cfg: &ExperimentConfig, setup: &Setup) -> usize {
    let shape = EpochShape::of(cfg, setup);
    let row_floats: usize = shape
        .train_exchange_layers()
        .iter()
        .map(|&l| shape.dims[l])
        .sum();
    halo_rows(&setup.parts) * row_floats * 4
}

/// Epochs after which an AdaQP run re-solves its bit-widths; none for fp32
/// methods.
pub fn assign_rounds(cfg: &ExperimentConfig) -> usize {
    if !matches!(cfg.method, Method::AdaQp | Method::AdaQpUniform) {
        return 0;
    }
    let period = cfg.training.reassign_period.max(1);
    (0..cfg.training.epochs)
        .filter(|e| *e == 0 || (e + 1) % period == 0)
        .count()
}

fn random_matrix(rows: usize, cols: usize, rng: &mut Rng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.uniform(-1.0, 1.0))
}

/// One device's stand-ins for a training step's tensors, shaped by its
/// partition: layer inputs (`x[0]` is the real feature block), weights,
/// layer-output gradients and extended (local + halo) aggregation inputs.
struct DeviceOperands {
    /// `num_local x dims[l]`.
    x: Vec<Matrix>,
    /// `dims[l] x dims[l + 1]`.
    w: Vec<Matrix>,
    /// `num_local x dims[l + 1]`.
    g: Vec<Matrix>,
    /// `num_ext x dims[l]`.
    xe: Vec<Matrix>,
}

fn device_operands(shape: &EpochShape, part: &DevicePartition, rng: &mut Rng) -> DeviceOperands {
    let layers = shape.layers();
    let rows = part.num_local();
    DeviceOperands {
        x: (0..layers)
            .map(|l| match l {
                0 => part.features.clone(),
                _ => random_matrix(rows, shape.dims[l], rng),
            })
            .collect(),
        w: (0..layers)
            .map(|l| random_matrix(shape.dims[l], shape.dims[l + 1], rng))
            .collect(),
        g: (0..layers)
            .map(|l| random_matrix(rows, shape.dims[l + 1], rng))
            .collect(),
        xe: (0..layers)
            .map(|l| random_matrix(part.num_ext(), shape.dims[l], rng))
            .collect(),
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

#[derive(Default, Clone, Copy)]
struct DenseTimes {
    nn_s: f64,
    tn_s: f64,
    nt_s: f64,
    layernorm_s: f64,
}

/// One epoch's dense kernels: per (device, layer, path) two forward
/// products (training + evaluation), `a^T g` for the weight gradient and
/// `g w^T` for the input gradient; per hidden layer two layer-norm forwards
/// and one backward.
fn dense_epoch(shape: &EpochShape, operands: &[DeviceOperands]) -> DenseTimes {
    let mut t = DenseTimes::default();
    let hidden_layers = shape.layers() - 1;
    for ops in operands {
        for l in 0..shape.layers() {
            let (x, w, g) = (&ops.x[l], &ops.w[l], &ops.g[l]);
            for _ in 0..shape.paths {
                t.nn_s += timed(|| x.matmul(w)) + timed(|| x.matmul(w));
                t.tn_s += timed(|| x.matmul_tn(g));
                t.nt_s += timed(|| g.matmul_nt(w));
            }
            if l < hidden_layers {
                let gamma = vec![1.0f32; g.cols()];
                let beta = vec![0.0f32; g.cols()];
                let start = Instant::now();
                let (_, cache) = black_box(layer_norm_forward(g, &gamma, &beta));
                black_box(layer_norm_forward(g, &gamma, &beta));
                black_box(layer_norm_backward(g, &cache, &gamma));
                t.layernorm_s += start.elapsed().as_secs_f64();
            }
        }
    }
    t
}

/// One epoch's sparse aggregation: forward is the split central/marginal
/// pass of training plus the whole-graph pass of evaluation; backward is
/// the transposed gather out of every layer but the first. Returns
/// `(fwd_s, bwd_s)`.
fn aggregate_epoch(
    shape: &EpochShape,
    parts: &[DevicePartition],
    operands: &[DeviceOperands],
) -> (f64, f64) {
    let (mut fwd, mut bwd) = (0.0, 0.0);
    for (part, ops) in parts.iter().zip(operands) {
        for l in 0..shape.layers() {
            let xe = &ops.xe[l];
            fwd += timed(|| part.agg.aggregate_rows(xe, &part.central));
            fwd += timed(|| part.agg.aggregate_rows(xe, &part.marginal));
            fwd += timed(|| part.agg.aggregate(xe));
            if l > 0 {
                bwd += timed(|| part.agg.backward(&ops.x[l]));
            }
        }
    }
    (fwd, bwd)
}

/// Bytes the aggregation kernels stream per epoch: one `f32` per entry per
/// feature column per pass (two forward passes, one backward pass past
/// layer 0).
fn aggregate_bytes_per_epoch(shape: &EpochShape, parts: &[DevicePartition]) -> f64 {
    let entries: usize = parts.iter().map(|p| p.agg.num_entries()).sum();
    let passes: usize = (0..shape.layers())
        .map(|l| shape.dims[l] * if l > 0 { 3 } else { 2 })
        .sum();
    entries as f64 * passes as f64 * 4.0
}

/// Row widths cycling 2/4/8 bit, so every probe run exercises all three
/// codec kernels in equal shares whatever the assigner would pick.
fn cycling_widths(rows: usize) -> Vec<BitWidth> {
    (0..rows).map(|k| BitWidth::ALL[k % 3]).collect()
}

/// Every block one epoch's training exchanges encode: per communicating
/// (device, peer) pair, the peer's rows of each exchanged layer input.
fn codec_blocks(
    shape: &EpochShape,
    parts: &[DevicePartition],
    operands: &[DeviceOperands],
) -> Vec<Matrix> {
    let mut blocks = Vec::new();
    for (part, ops) in parts.iter().zip(operands) {
        for q in 0..part.num_parts {
            if q == part.rank || part.send_sets[q].is_empty() {
                continue;
            }
            for l in shape.train_exchange_layers() {
                blocks.push(part.gather_send_rows(&ops.x[l], q));
            }
        }
    }
    blocks
}

struct CodecTimes {
    encode_s: f64,
    decode_s: f64,
    fp32_s: f64,
    wire_bytes: usize,
}

fn codec_epoch(blocks: &[Matrix]) -> CodecTimes {
    let mut t = CodecTimes {
        encode_s: 0.0,
        decode_s: 0.0,
        fp32_s: 0.0,
        wire_bytes: 0,
    };
    let mut rng = Rng::seed_from(0xC0DEC);
    for block in blocks {
        let widths = cycling_widths(block.rows());
        let start = Instant::now();
        let (encoded, _) = black_box(encode_block_with_stats(block, &widths, &mut rng));
        t.encode_s += start.elapsed().as_secs_f64();
        t.wire_bytes += encoded.wire_len();
        t.decode_s += timed(|| decode_block(&encoded).expect("a block this probe just encoded"));
        t.fp32_s += timed(|| {
            let raw = matrix_to_bytes(block);
            bytes_to_matrix(&raw, block.rows(), block.cols())
        });
    }
    t
}

fn cluster_wall<T: Send>(
    n: usize,
    f: impl Fn(comm::DeviceHandle) -> T + Sync,
) -> Result<f64, String> {
    let start = Instant::now();
    let out = Cluster::try_run_fn(n, f).map_err(|e| format!("probe cluster run failed: {e}"))?;
    let secs = start.elapsed().as_secs_f64();
    black_box(out);
    Ok(secs)
}

/// One epoch's halo exchanges on the real cluster core, all `n` devices:
/// the training exchanges quantised (`quantised`) or fp32, then the
/// evaluation exchanges, which are always fp32. Wall seconds of the whole
/// cluster run, thread spawn included.
fn exchange_epoch(
    shape: &EpochShape,
    parts: &[DevicePartition],
    operands: &[DeviceOperands],
    quantised: bool,
) -> Result<f64, String> {
    let train = shape.train_exchange_layers();
    let eval = shape.eval_exchange_layers();
    cluster_wall(parts.len(), |mut dev| {
        let part = &parts[dev.rank()];
        let ops = &operands[dev.rank()];
        let widths: Vec<Vec<BitWidth>> = part
            .send_sets
            .iter()
            .map(|s| cycling_widths(s.len()))
            .collect();
        let mut rng = Rng::seed_from(0xE8C4 + dev.rank() as u64);
        for &l in &train {
            if quantised {
                black_box(exchange_forward_quant(
                    &mut dev, part, &ops.x[l], &widths, &mut rng,
                ));
            } else {
                black_box(exchange_forward_fp32(&mut dev, part, &ops.x[l]));
            }
        }
        for &l in &eval {
            black_box(exchange_forward_fp32(&mut dev, part, &ops.x[l]));
        }
    })
}

fn ring_payloads(n: usize, rank: usize) -> Vec<Bytes> {
    (0..n)
        .map(|q| {
            if q == rank {
                Bytes::new()
            } else {
                Bytes::from(vec![0u8; RING_PAYLOAD_BYTES])
            }
        })
        .collect()
}

/// The bi-objective problems of one reassignment round, shaped like
/// `adaqp::assigner`'s: one problem per (layer, direction), one pair per
/// communicating device pair, messages sorted by `beta` and chunked into
/// groups of `group_size`. Value ranges are seeded stand-ins for traced
/// ones; `theta`/`gamma` come from the workload's cost model.
pub fn solver_problems(
    cfg: &ExperimentConfig,
    setup: &Setup,
    shape: &EpochShape,
    cost: &CostModel,
) -> Vec<BiObjectiveProblem> {
    let group_size = cfg.training.group_size.max(1);
    let mut rng = Rng::seed_from(cfg.seed ^ 0x50_1FE);
    let mut problems = Vec::with_capacity(2 * shape.layers());
    for l in 0..shape.layers() {
        let dim = shape.dims[l];
        for backward in [false, true] {
            let mut pairs = Vec::new();
            for part in &setup.parts {
                for dst in 0..part.num_parts {
                    let rows = if backward {
                        part.recv_slots[dst].len()
                    } else {
                        part.send_sets[dst].len()
                    };
                    if rows == 0 {
                        continue;
                    }
                    let mut betas: Vec<f64> = (0..rows)
                        .map(|k| {
                            let alpha_sq = if backward {
                                1.0
                            } else {
                                part.send_alpha_sq[dst][k]
                            };
                            quant::variance::beta(alpha_sq, dim, rng.uniform(0.05, 2.0))
                        })
                        .collect();
                    betas.sort_by(|a, b| b.partial_cmp(a).expect("betas are finite"));
                    let groups = betas
                        .chunks(group_size)
                        .map(|chunk| GroupSpec {
                            beta: chunk.iter().sum(),
                            bytes_per_bit: chunk.len() as f64 * dim as f64 / 8.0,
                        })
                        .collect();
                    let (theta, gamma) = cost.link_params(part.rank, dst);
                    let overhead = HEADER_BYTES + rows * ROW_OVERHEAD_BYTES;
                    pairs.push(PairSpec {
                        theta,
                        gamma: gamma + theta * overhead as f64,
                        groups,
                    });
                }
            }
            problems.push(BiObjectiveProblem::new(pairs, cfg.training.lambda));
        }
    }
    problems
}

/// Probe results: the metrics, plus the epoch-equivalent host seconds they
/// attribute, from which `core.unattributed_share` is formed.
pub struct ProbeReport {
    pub metrics: Vec<(&'static str, Summary)>,
    /// Probe seconds standing for the whole run: per-epoch layers x epochs,
    /// one solve per reassignment round, one device spawn.
    pub attributed_run_s: f64,
}

fn summarize_by<T>(reps: &[T], f: impl Fn(&T) -> f64) -> Summary {
    summarize(&reps.iter().map(f).collect::<Vec<_>>())
}

/// Runs every layer probe on `setup`, `reps` repetitions each.
pub fn run(cfg: &ExperimentConfig, setup: &Setup, reps: usize) -> Result<ProbeReport, String> {
    let shape = EpochShape::of(cfg, setup);
    let parts = &setup.parts;
    let n = parts.len();
    let cost = cfg.cost_model();
    let mut metrics: Vec<(&'static str, Summary)> = Vec::new();

    // graph + decompose: exact shape of the cut.
    let graph = &setup.dataset.graph;
    let edges = graph.edges().count();
    let cut = graph::stats::edge_cut(graph, &setup.partition);
    metrics.push((
        "graph.edge_cut_share",
        Summary::exact(cut as f64 / edges.max(1) as f64),
    ));
    metrics.push((
        "graph.imbalance",
        Summary::exact(setup.partition.imbalance()),
    ));
    metrics.push((
        "decompose.halo_rows",
        Summary::exact(halo_rows(parts) as f64),
    ));
    let marginal: usize = parts.iter().map(|p| p.marginal.len()).sum();
    metrics.push((
        "decompose.marginal_share",
        Summary::exact(marginal as f64 / setup.dataset.num_nodes() as f64),
    ));

    let mut rng = Rng::seed_from(cfg.seed ^ 0x0B5E);
    let operands: Vec<DeviceOperands> = parts
        .iter()
        .map(|p| device_operands(&shape, p, &mut rng))
        .collect();

    // tensor.
    let dense: Vec<DenseTimes> = (0..reps).map(|_| dense_epoch(&shape, &operands)).collect();
    let matmul_s = summarize_by(&dense, |t| t.nn_s + t.tn_s + t.nt_s);
    let flops = matmul_flops_per_epoch(&shape, parts);
    metrics.push(("tensor.matmul_s", matmul_s));
    metrics.push((
        "tensor.matmul_gflops",
        summarize_by(&dense, |t| flops / (t.nn_s + t.tn_s + t.nt_s) / 1e9),
    ));
    metrics.push((
        "tensor.matmul_nt_over_tn",
        summarize_by(&dense, |t| t.nt_s / t.tn_s),
    ));
    let layernorm_s = summarize_by(&dense, |t| t.layernorm_s);
    metrics.push(("tensor.layernorm_s", layernorm_s));

    // gnn.
    let agg: Vec<(f64, f64)> = (0..reps)
        .map(|_| aggregate_epoch(&shape, parts, &operands))
        .collect();
    let agg_fwd_s = summarize_by(&agg, |t| t.0);
    let agg_bwd_s = summarize_by(&agg, |t| t.1);
    let agg_bytes = aggregate_bytes_per_epoch(&shape, parts);
    metrics.push(("gnn.aggregate_fwd_s", agg_fwd_s));
    metrics.push(("gnn.aggregate_bwd_s", agg_bwd_s));
    metrics.push((
        "gnn.aggregate_gbps",
        summarize_by(&agg, |t| agg_bytes / (t.0 + t.1) / 1e9),
    ));

    // quant.
    let blocks = codec_blocks(&shape, parts, &operands);
    let fp32_bytes: usize = blocks.iter().map(|b| b.len() * 4).sum();
    let codec: Vec<CodecTimes> = (0..reps).map(|_| codec_epoch(&blocks)).collect();
    let fp32_mb = fp32_bytes as f64 / 1e6;
    metrics.push(("quant.encode_s", summarize_by(&codec, |t| t.encode_s)));
    metrics.push(("quant.decode_s", summarize_by(&codec, |t| t.decode_s)));
    metrics.push((
        "quant.encode_mb_per_s",
        summarize_by(&codec, |t| fp32_mb / t.encode_s),
    ));
    metrics.push((
        "quant.decode_mb_per_s",
        summarize_by(&codec, |t| fp32_mb / t.decode_s),
    ));
    metrics.push((
        "quant.wire_ratio",
        Summary::exact(codec[0].wire_bytes as f64 / fp32_bytes.max(1) as f64),
    ));
    metrics.push(("quant.fp32_serialize_s", summarize_by(&codec, |t| t.fp32_s)));
    drop(blocks);

    // comm: spawn first, so the cluster probes below can subtract it.
    let mut spawn = Vec::with_capacity(reps);
    for _ in 0..reps {
        spawn.push(cluster_wall(n, |dev| dev.rank())?);
    }
    let spawn_s = median(&spawn);
    // A probe that ran inside a cluster, net of bringing the cluster up;
    // floored just above zero so derived rates stay finite.
    let net = |wall: f64| (wall - spawn_s).max(1e-9);
    metrics.push(("comm.spawn_s", summarize(&spawn)));

    // core::exchange.
    let mut fp32_x = Vec::with_capacity(reps);
    let mut quant_x = Vec::with_capacity(reps);
    for _ in 0..reps {
        fp32_x.push(net(exchange_epoch(&shape, parts, &operands, false)?));
        quant_x.push(net(exchange_epoch(&shape, parts, &operands, true)?));
    }
    metrics.push(("exchange.fwd_fp32_s", summarize(&fp32_x)));
    metrics.push(("exchange.fwd_quant_s", summarize(&quant_x)));

    // comm: scheduler hops and collectives with no payload work.
    let mut ring = Vec::with_capacity(reps);
    let mut allreduce = Vec::with_capacity(reps);
    let params = gnn::Gnn::with_dropout(
        cfg.training.conv_kind(),
        &shape.dims,
        cfg.training.dropout,
        &mut Rng::seed_from(cfg.seed),
    )
    .param_count();
    for _ in 0..reps {
        ring.push(net(cluster_wall(n, |mut dev| {
            for _ in 0..RING_ROUNDS {
                black_box(dev.ring_all2all(ring_payloads(n, dev.rank())));
            }
        })?));
        allreduce.push(net(cluster_wall(n, |mut dev| {
            let mut grads = vec![1.0f32; params];
            dev.allreduce_sum_f32(&mut grads);
            grads[0]
        })?));
    }
    let messages = (RING_ROUNDS * n * n.saturating_sub(1)) as f64;
    metrics.push((
        "comm.ring_round_s",
        summarize_by(&ring, |t| t / RING_ROUNDS as f64),
    ));
    metrics.push(("comm.msgs_per_s", summarize_by(&ring, |t| messages / t)));
    let allreduce_s = summarize(&allreduce);
    metrics.push(("comm.allreduce_s", allreduce_s));
    let sim_ring = Cluster::try_run_fn_with(n, Some(&cost), |mut dev| {
        black_box(dev.ring_all2all(ring_payloads(n, dev.rank())));
    })
    .map_err(|e| format!("probe cluster run failed: {e}"))?;
    metrics.push(("comm.sim_ring_round_s", Summary::exact(sim_ring.makespan())));

    // solver.
    let problems = solver_problems(cfg, setup, &shape, &cost);
    let mut solve_s = Vec::with_capacity(reps);
    let mut objective = 0.0;
    for _ in 0..reps {
        let start = Instant::now();
        objective = problems
            .iter()
            .map(|p| black_box(solver::solve(p)).objective)
            .sum();
        solve_s.push(start.elapsed().as_secs_f64());
    }
    let solve_s = summarize(&solve_s);
    metrics.push(("solver.solve_s", solve_s));
    metrics.push((
        "solver.pairs",
        Summary::exact(problems.first().map_or(0, |p| p.pairs.len()) as f64),
    ));
    let groups: usize = problems
        .iter()
        .flat_map(|p| &p.pairs)
        .map(|pair| pair.groups.len())
        .sum();
    metrics.push(("solver.groups", Summary::exact(groups as f64)));
    metrics.push(("solver.objective", Summary::exact(objective)));

    // What the probes account for. The codec and ring probes are nested
    // inside the exchange probe, so only the exchange the method uses is
    // added; the others would count the same host time twice.
    let exchange_s = match cfg.method {
        Method::AdaQp | Method::AdaQpUniform => median(&quant_x),
        _ => median(&fp32_x),
    };
    let per_epoch = matmul_s.median
        + layernorm_s.median
        + agg_fwd_s.median
        + agg_bwd_s.median
        + exchange_s
        + allreduce_s.median;
    let attributed_run_s = per_epoch * cfg.training.epochs as f64
        + solve_s.median * assign_rounds(cfg) as f64
        + spawn_s;
    Ok(ProbeReport {
        metrics,
        attributed_run_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::e2e::build_setup;
    use crate::workloads;

    #[test]
    fn dense8_matmul_flops_agree_two_ways() {
        let cfg = workloads::find("dense8_vanilla")
            .unwrap()
            .config(4242, false);
        let (setup, _) = build_setup(&cfg).expect("dense8 set-up");
        let shape = EpochShape::of(&cfg, &setup);
        assert_eq!(shape.dims[1..3], [128, 128]);
        assert_eq!(shape.paths, 1);
        let counted = matmul_flops_per_epoch(&shape, &setup.parts);
        let closed = matmul_flops_closed_form(&shape, setup.dataset.num_nodes());
        assert_eq!(counted, closed);
        assert!(
            counted > 1e9,
            "dense8 is the matmul-heavy workload: {counted}"
        );
    }

    #[test]
    fn dense8_halo_rows_agree_two_ways() {
        // Rows sent equal rows received: every halo slot is some peer's
        // send-set entry.
        let cfg = workloads::find("dense8_vanilla")
            .unwrap()
            .config(4242, false);
        let (setup, _) = build_setup(&cfg).expect("dense8 set-up");
        let received: usize = setup.parts.iter().map(DevicePartition::num_halo).sum();
        assert_eq!(halo_rows(&setup.parts), received);
        let slots: usize = setup
            .parts
            .iter()
            .flat_map(|p| &p.recv_slots)
            .map(Vec::len)
            .sum();
        assert_eq!(halo_rows(&setup.parts), slots);
    }

    #[test]
    fn exchange_inventory_matches_a_three_layer_model() {
        let shape = EpochShape {
            dims: vec![96, 128, 128, 41],
            paths: 1,
        };
        assert_eq!(shape.train_exchange_layers(), [0, 1, 2, 1, 2]);
        assert_eq!(shape.eval_exchange_layers(), [0, 1, 2]);
        assert_eq!(shape.weight_elements(), 96 * 128 + 128 * 128 + 128 * 41);
    }

    #[test]
    fn assign_rounds_follow_the_trainer_schedule() {
        let mut cfg = workloads::find("halo32_adaqp").unwrap().config(1, false);
        // 20 epochs, period 5: epoch 0 and epochs 4, 9, 14, 19.
        assert_eq!(assign_rounds(&cfg), 5);
        cfg.method = Method::Vanilla;
        assert_eq!(assign_rounds(&cfg), 0);
        let fleet = workloads::find("fleet256_adaqp").unwrap().config(1, false);
        assert_eq!(assign_rounds(&fleet), 3);
    }

    #[test]
    fn solver_problems_cover_every_communicating_pair() {
        let cfg = workloads::find("halo32_adaqp").unwrap().config(9, true);
        let (setup, _) = build_setup(&cfg).expect("halo32 set-up");
        let shape = EpochShape::of(&cfg, &setup);
        let problems = solver_problems(&cfg, &setup, &shape, &cfg.cost_model());
        assert_eq!(problems.len(), 2 * shape.layers());
        let communicating: usize = setup
            .parts
            .iter()
            .map(|p| p.send_sets.iter().filter(|s| !s.is_empty()).count())
            .sum();
        let group_size = cfg.training.group_size;
        let groups: usize = setup
            .parts
            .iter()
            .flat_map(|p| &p.send_sets)
            .map(|s| s.len().div_ceil(group_size))
            .sum();
        for p in &problems {
            assert_eq!(p.pairs.len(), communicating);
            assert_eq!(
                p.pairs.iter().map(|x| x.groups.len()).sum::<usize>(),
                groups
            );
        }
    }

    #[test]
    fn probes_report_every_metric_once_on_a_small_cluster() {
        let mut cfg = workloads::find("halo32_adaqp").unwrap().config(5, true);
        cfg.dataset = graph::DatasetSpec::tiny();
        cfg.machines = 1;
        let (setup, _) = build_setup(&cfg).expect("tiny set-up");
        let report = run(&cfg, &setup, 2).expect("probes run");
        let mut names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
        let reported = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reported, "a probe metric was reported twice");
        for (name, s) in &report.metrics {
            assert!(
                crate::spec::find(crate::spec::PER_LAYER, name).is_some(),
                "{name}"
            );
            assert!(
                s.median.is_finite() && s.median >= 0.0,
                "{name} = {}",
                s.median
            );
        }
        assert!(report.attributed_run_s > 0.0);
        let ratio = report
            .metrics
            .iter()
            .find(|m| m.0 == "quant.wire_ratio")
            .unwrap()
            .1;
        assert!(
            ratio.median > 0.0 && ratio.median < 1.0,
            "codec must compress: {}",
            ratio.median
        );
    }
}

//! Integration: the Adaptive Bit-width Assigner end-to-end on a live
//! cluster — trace, gather, solve, scatter — and the structure of what it
//! returns.

use adaqp::assigner::{
    encode_trace, reassign, AssignMode, Gathered, SolveStats, Trace, WidthAssignment,
};
use adaqp::exchange::Direction::{Backward, Forward};
use adaqp::{build_partitions, ExperimentConfig, Method, TopologySpec, TrainingConfig};
use comm::{AsyncDevice, Cluster, CostModel};
use gnn::ConvKind;
use graph::DatasetSpec;
use quant::BitWidth;
use std::future::Future;
use tensor::{Matrix, Rng};

/// Runs the `async` body `f` builds per rank on an uncosted cluster.
fn run_async<Fut: Future>(n: usize, f: impl FnMut(AsyncDevice) -> Fut) -> Vec<Fut::Output> {
    let run = Cluster::try_run_async(n, None, f);
    run.expect("no device panicked or stalled").outputs
}

fn setup(k: usize, seed: u64) -> Vec<adaqp::DevicePartition> {
    let ds = DatasetSpec::tiny().scaled(1.5).generate(seed);
    let mut rng = Rng::seed_from(seed + 1);
    let p = graph::partition::metis_like(&ds.graph, k, &mut rng);
    build_partitions(&ds, &p, ConvKind::Gcn)
}

fn run_assign(
    parts: &[adaqp::DevicePartition],
    cfg: &TrainingConfig,
    cost: &CostModel,
    mode: AssignMode,
) -> Vec<WidthAssignment> {
    let k = parts.len();
    run_async(k, |mut dev| async move {
        let part = &parts[dev.rank()];
        let dims = [16usize, 24];
        let mut trace = Trace::new(part, &dims);
        let x = Matrix::from_fn(part.num_local(), 16, |i, j| {
            ((i * 13 + j * 7 + dev.rank()) % 17) as f32 * 0.25
        });
        trace.record_fwd(part, 0, &x);
        trace.record_fwd(
            part,
            1,
            &x.gather_rows(&(0..part.num_local()).collect::<Vec<_>>()),
        );
        let mut rng = Rng::seed_from(900 + dev.rank() as u64);
        let mut assign = WidthAssignment::fixed(part, dims.len(), BitWidth::B8);
        reassign(
            &mut dev,
            part,
            cost,
            &trace,
            cfg,
            mode,
            &mut rng,
            &mut assign,
        )
        .await
        .expect("well-formed round");
        assign
    })
}

#[test]
fn adaptive_assignment_has_correct_shape_everywhere() {
    let parts = setup(3, 41);
    let cfg = TrainingConfig {
        group_size: 8,
        lambda: 0.5,
        ..TrainingConfig::default()
    };
    let cost = CostModel::homogeneous(3, 1e6, 1e-5);
    let out = run_assign(&parts, &cfg, &cost, AssignMode::Adaptive);
    for (rank, assign) in out.iter().enumerate() {
        assert_eq!(assign.table(Forward).num_layers(), 2);
        assert_eq!(assign.table(Backward).num_layers(), 2);
        for l in 0..2 {
            for (q, s) in parts[rank].send_sets.iter().enumerate() {
                assert_eq!(
                    assign.fwd(l, q).len(),
                    s.len(),
                    "rank {rank} layer {l} -> {q}"
                );
            }
            for (q, s) in parts[rank].recv_slots.iter().enumerate() {
                assert_eq!(assign.bwd(l, q).len(), s.len());
            }
        }
    }
}

#[test]
fn lambda_one_yields_full_precision_lambda_zero_compresses_bottleneck() {
    let parts = setup(2, 43);
    let cost = CostModel::homogeneous(2, 1e6, 1e-5);
    let full = run_assign(
        &parts,
        &TrainingConfig {
            lambda: 1.0,
            group_size: 8,
            ..TrainingConfig::default()
        },
        &cost,
        AssignMode::Adaptive,
    );
    for a in &full {
        let (h2, h4, _h8) = a.histogram();
        assert_eq!(h2 + h4, 0, "lambda=1 must assign 8-bit everywhere");
    }
    let fast = run_assign(
        &parts,
        &TrainingConfig {
            lambda: 0.0,
            group_size: 8,
            ..TrainingConfig::default()
        },
        &cost,
        AssignMode::Adaptive,
    );
    let total2: usize = fast.iter().map(|a| a.histogram().0).sum();
    assert!(
        total2 > 0,
        "lambda=0 should drive bottleneck messages to 2-bit"
    );
}

#[test]
fn uniform_mode_produces_varied_widths() {
    let parts = setup(2, 47);
    let cfg = TrainingConfig {
        group_size: 4,
        ..TrainingConfig::default()
    };
    let cost = CostModel::homogeneous(2, 1e6, 1e-5);
    let out = run_assign(&parts, &cfg, &cost, AssignMode::UniformRandom);
    // With enough groups, all three widths should appear somewhere.
    let mut h = (0, 0, 0);
    for a in &out {
        let (a2, a4, a8) = a.histogram();
        h = (h.0 + a2, h.1 + a4, h.2 + a8);
    }
    assert!(h.0 > 0 && h.1 > 0 && h.2 > 0, "histogram {h:?}");
}

#[test]
fn assignment_widths_are_group_contiguous_for_uniform() {
    let parts = setup(2, 53);
    let cfg = TrainingConfig {
        group_size: 4,
        ..TrainingConfig::default()
    };
    let cost = CostModel::homogeneous(2, 1e6, 1e-5);
    let out = run_assign(&parts, &cfg, &cost, AssignMode::UniformRandom);
    for a in &out {
        for l in 0..a.num_layers() {
            for (_, per_peer) in a.table(Forward).peers(l) {
                for chunk in per_peer.chunks(4) {
                    assert!(chunk.iter().all(|&w| w == chunk[0]), "group not uniform");
                }
            }
        }
    }
}

#[test]
fn fixed_assignment_histogram_counts_every_message() {
    let parts = setup(3, 59);
    for part in &parts {
        let a = WidthAssignment::fixed(part, 3, BitWidth::B2);
        let (h2, h4, h8) = a.histogram();
        let fwd_msgs: usize = part.send_sets.iter().map(Vec::len).sum::<usize>() * 3;
        let bwd_msgs: usize = part.recv_slots.iter().map(Vec::len).sum::<usize>() * 3;
        assert_eq!(h2, fwd_msgs + bwd_msgs);
        assert_eq!(h4 + h8, 0);
    }
}

/// FNV-1a over every table of an assignment on an `n`-device cluster: layer
/// count, then per layer the peer count `n`, then per peer (listed or not)
/// the message count and each width's bit count.
fn assignment_digest(a: &WidthAssignment, n: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for dir in [Forward, Backward] {
        let table = a.table(dir);
        eat(table.num_layers() as u64);
        for l in 0..table.num_layers() {
            eat(n as u64);
            for q in 0..n {
                let peer = table.get(l, q);
                eat(peer.len() as u64);
                for w in peer {
                    eat(u64::from(w.bits()));
                }
            }
        }
    }
    h
}

#[test]
fn golden_assignment_digests_on_four_devices() {
    // Digests of `[fwd, bwd]` computed at the commit before the replies
    // lost their receive-side blocks. Those tables were pinned, inside a
    // four-table digest, since the JSON control plane and the
    // candidate-major solver sweep: the binary wire format, the pair-major
    // sweep and the send-only reply must hand every rank the very same
    // tables.
    let parts = setup(4, 71);
    let cfg = TrainingConfig {
        group_size: 4,
        lambda: 0.5,
        ..TrainingConfig::default()
    };
    let cost = CostModel::homogeneous(4, 1e6, 1e-5);
    let (parts_ref, cfg_ref, cost_ref) = (&parts, &cfg, &cost);
    let out = run_async(4, |mut dev| async move {
        let part = &parts_ref[dev.rank()];
        let rank = dev.rank();
        let mut trace = Trace::new(part, &[16, 24]);
        for (l, dim) in [16usize, 24].into_iter().enumerate() {
            let x = Matrix::from_fn(part.num_local(), dim, |i, j| {
                ((i * 13 + j * 7 + rank + l) % 17) as f32 * 0.25
            });
            trace.record_fwd(part, l, &x);
            let g = Matrix::from_fn(part.num_local() + part.num_halo(), dim, |i, j| {
                ((i * 5 + j * 11 + 3 * rank + l) % 23) as f32 * 0.125 - 1.0
            });
            trace.record_bwd(part, l, &g);
        }
        let mut rng = Rng::seed_from(900 + rank as u64);
        let mode = AssignMode::Adaptive;
        let mut assign = WidthAssignment::fixed(part, 2, BitWidth::B8);
        reassign(
            &mut dev,
            part,
            cost_ref,
            &trace,
            cfg_ref,
            mode,
            &mut rng,
            &mut assign,
        )
        .await
        .expect("well-formed round");
        (
            assignment_digest(&assign, part.num_parts),
            assign.histogram(),
        )
    });
    // The fixture is only worth pinning while the solver mixes widths on it.
    let (h2, h4, h8) = out
        .iter()
        .fold((0, 0, 0), |h, (_, r)| (h.0 + r.0, h.1 + r.1, h.2 + r.2));
    assert!(h2 > 0 && h4 > 0 && h8 > 0, "histogram ({h2}, {h4}, {h8})");
    let digests: Vec<u64> = out.iter().map(|(d, _)| *d).collect();
    assert_eq!(digests, GOLDEN_DIGESTS, "got {digests:#018x?}");
}

const GOLDEN_DIGESTS: [u64; 4] = [
    0x9b0c_9415_0713_6725,
    0x7f99_1ec9_23f5_52af,
    0x2c7a_f042_ebe4_7be5,
    0xed6a_1c36_c8f4_f8e5,
];

#[test]
fn reply_size_follows_the_ranks_own_cut_not_the_fleet() {
    // 64 devices, ~75 nodes each: every device talks to some of the others.
    // The reply lists only those, so its length is a function of the rank's
    // own send/recv sets (DESIGN.md, assigner control plane). Only the
    // widths the rank sends are listed, forward then backward:
    //   4 + layers * (block(send_sets) + block(recv_slots)),
    //   block(sets) = 4 + sum over non-empty sets of (8 + len).
    let ds = DatasetSpec::tiny().scaled(16.0).generate(83);
    let mut rng = Rng::seed_from(84);
    let p = graph::partition::metis_like(&ds.graph, 64, &mut rng);
    let parts = build_partitions(&ds, &p, ConvKind::Gcn);
    let cfg = TrainingConfig::default();
    let cost = CostModel::homogeneous(64, 1e6, 1e-5);
    let (parts_ref, cfg_ref, cost_ref) = (&parts, &cfg, &cost);
    let layers = 2;
    let master = run_async(64, |mut dev| async move {
        dev.count_sends();
        let part = &parts_ref[dev.rank()];
        let trace = Trace::new(part, &[16, 24]);
        let mut rng = Rng::seed_from(900);
        let mode = AssignMode::Adaptive;
        let mut assign = WidthAssignment::fixed(part, layers, BitWidth::B8);
        reassign(
            &mut dev,
            part,
            cost_ref,
            &trace,
            cfg_ref,
            mode,
            &mut rng,
            &mut assign,
        )
        .await
        .expect("well-formed round");
        dev.take_sent()
    })
    .swap_remove(0);
    let block = |sets: &[Vec<u32>]| -> usize {
        4 + sets
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| 8 + s.len())
            .sum::<usize>()
    };
    let mut peers = Vec::new();
    for (rank, part) in parts.iter().enumerate().skip(1) {
        let reply = 4 + layers * (block(&part.send_sets) + block(&part.recv_slots));
        let (sent, messages) = master[&rank];
        assert!(messages > 0, "master sent to every rank");
        // The scattered reply plus the 89-byte solve-stats broadcast (a
        // version byte and eleven 8-byte fields).
        assert_eq!(sent, (reply + 89) as u64, "rank {rank}");
        peers.push(part.send_sets.iter().filter(|s| !s.is_empty()).count());
    }
    // Ranks differ in how many of the 63 possible peers they list, so no
    // function of n alone could have produced those lengths.
    let (min, max) = (peers.iter().min(), peers.iter().max());
    assert!(min < max && max < Some(&63), "peers per rank: {peers:?}");
}

#[test]
fn golden_widths_on_a_racked_64_device_fleet() {
    // The scalability smoke's shape (16 machines x 4 devices, racks of two
    // machines under a 4x oversubscribed spine, hidden 8) at the fleet
    // recipe's ~75 nodes per device. Every section lists far more than 32
    // pairs, so the sweep runs on the uniform Z grid, and most pairs keep
    // 8 bits under every candidate. Digests recorded before the master's
    // round went from trace bytes to reply bytes in one pass.
    let ds = DatasetSpec::tiny().scaled(16.0).generate(4242);
    let mut rng = Rng::seed_from(4243);
    let p = graph::partition::metis_like(&ds.graph, 64, &mut rng);
    let parts = build_partitions(&ds, &p, ConvKind::Gcn);
    let mut training = TrainingConfig {
        hidden: 8,
        ..TrainingConfig::default()
    };
    let mut topology = TopologySpec::from_training(&training);
    topology.machines_per_rack = Some(2);
    training.topology = Some(topology.oversubscription(4.0));
    let exp = ExperimentConfig {
        dataset: DatasetSpec::tiny().scaled(16.0),
        machines: 16,
        devices_per_machine: 4,
        method: Method::AdaQp,
        training,
        seed: 4242,
    };
    let cost = exp.cost_model();
    let (parts_ref, cfg_ref, cost_ref) = (&parts, &exp.training, &cost);
    let out = run_async(64, |mut dev| async move {
        let part = &parts_ref[dev.rank()];
        let rank = dev.rank();
        let dims = [16usize, 8];
        let mut trace = Trace::new(part, &dims);
        for (l, dim) in dims.into_iter().enumerate() {
            let x = Matrix::from_fn(part.num_local(), dim, |i, j| {
                ((i * 13 + j * 7 + rank + l) % 17) as f32 * 0.25
            });
            trace.record_fwd(part, l, &x);
            let g = Matrix::from_fn(part.num_local() + part.num_halo(), dim, |i, j| {
                ((i * 5 + j * 11 + 3 * rank + l) % 23) as f32 * 0.125 - 1.0
            });
            trace.record_bwd(part, l, &g);
        }
        let mut rng = Rng::seed_from(900 + rank as u64);
        let mode = AssignMode::Adaptive;
        let mut assign = WidthAssignment::fixed(part, dims.len(), BitWidth::B8);
        let stats = reassign(
            &mut dev,
            part,
            cost_ref,
            &trace,
            cfg_ref,
            mode,
            &mut rng,
            &mut assign,
        )
        .await
        .expect("well-formed round");
        (
            assignment_digest(&assign, part.num_parts),
            assign.histogram(),
            (stats.iterations, stats.objective_sum.to_bits()),
            [
                stats.pairs_read,
                stats.pairs_sorted,
                stats.pairs_scheduled,
                stats.moves,
                stats.evaluations,
                stats.trace_bytes,
                stats.reply_bytes,
            ],
        )
    });
    let (h2, h4, h8) = out.iter().fold((0, 0, 0), |h, (_, r, _, _)| {
        (h.0 + r.0, h.1 + r.1, h.2 + r.2)
    });
    // Mostly static, yet some pairs move: both halves of the sweep count.
    assert!(
        h2 + h4 > 0 && h8 > 4 * (h2 + h4),
        "histogram ({h2}, {h4}, {h8})"
    );
    let fleet = out
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, (d, _, _, _)| {
            (h ^ d).wrapping_mul(0x0000_0100_0000_01b3)
        });
    assert_eq!(fleet, GOLDEN_FLEET_DIGEST, "got {fleet:#018x}");
    assert_eq!(out[0].2, GOLDEN_FLEET_STATS, "got {:#x?}", out[0].2);
    // The round's work counts, recorded when the master began to count
    // them: pair-sections read, sorted, scheduled; moves; sweep
    // evaluations; trace and reply bytes. Every
    // rank reads the master's broadcast.
    for (_, _, _, counts) in &out {
        assert_eq!(*counts, GOLDEN_FLEET_COUNTS, "got {counts:?}");
    }
}

const GOLDEN_FLEET_DIGEST: u64 = 0x0b5d_7ced_317f_b2dd;
const GOLDEN_FLEET_STATS: (u64, u64) = (212, 0x3ffa_bae2_a984_319d);
const GOLDEN_FLEET_COUNTS: [u64; 7] = [11_600, 700, 528, 1_056, 7_144, 554_656, 151_588];

#[test]
fn only_the_pairs_that_can_move_are_scheduled_on_the_256_device_fleet() {
    // The `fleet256_adaqp` recipe, as `assigner_round` benches it: ~75
    // nodes per device, racks of 8 machines under a 4x oversubscribed
    // spine, GraphSAGE, hidden 8, traced ranges seeded in [0.05, 2).
    let mut training = TrainingConfig {
        use_sage: true,
        hidden: 8,
        ..TrainingConfig::default()
    };
    let mut topology = TopologySpec::from_training(&training);
    topology.machines_per_rack = Some(8);
    training.topology = Some(topology.oversubscription(4.0));
    let exp = ExperimentConfig {
        dataset: DatasetSpec::tiny().scaled(64.0),
        machines: 64,
        devices_per_machine: 4,
        method: Method::AdaQp,
        training,
        seed: 4242,
    };
    let ds = exp.dataset.generate(exp.seed);
    let partition = adaqp::partition_graph(&ds.graph, 256, exp.seed).expect("a node per device");
    let parts = build_partitions(&ds, &partition, exp.training.conv_kind());
    let dims = exp.training.dims(ds.features.cols(), ds.num_classes);
    let dims = &dims[..dims.len() - 1];
    let mut rng = Rng::seed_from(exp.seed);
    let traces: Vec<Vec<u8>> = parts
        .iter()
        .map(|part| {
            let mut trace = Trace::new(part, dims);
            for dir in [Forward, Backward] {
                for r in trace.table_mut(dir).values_mut() {
                    *r = rng.uniform(0.05, 2.0);
                }
            }
            encode_trace(&part.send_alpha_sq, &trace)
        })
        .collect();
    let cost = exp.cost_model();
    let gathered = Gathered::check(&traces).expect("valid traces");

    // Which pairs can move, from sizes and links alone: a pair of `count`
    // messages moves `count * dim / 8` bytes per bit in groups of
    // `group_size`, plus its wire overhead at its link's rate, and it can
    // move when its all-8-bit bytes overshoot what fits the section's Z
    // floor, the slowest all-2-bit time.
    let group_size = exp.training.group_size;
    let (mut read, mut movable, mut held) = (0u64, 0u64, 0u64);
    for &dim in dims {
        for dir in [Forward, Backward] {
            let pairs: Vec<(f64, f64, [f64; 2])> = parts
                .iter()
                .enumerate()
                .flat_map(|(src, part)| {
                    let sets = match dir {
                        Forward => &part.send_sets,
                        Backward => &part.recv_slots,
                    };
                    let cost = &cost;
                    sets.iter()
                        .enumerate()
                        .filter(|(_, s)| !s.is_empty())
                        .map(move |(dst, s)| {
                            let (theta, gamma) = cost.link_params(src, dst);
                            let overhead = quant::codec::HEADER_BYTES
                                + s.len() * quant::codec::ROW_OVERHEAD_BYTES;
                            let lens = (0..s.len())
                                .step_by(group_size)
                                .map(|at| (s.len() - at).min(group_size));
                            let bytes = |bits: f64| {
                                lens.clone().fold(-0.0, |sum, len| {
                                    sum + len as f64 * dim as f64 / 8.0 * bits
                                })
                            };
                            (
                                theta,
                                gamma + theta * overhead as f64,
                                [bytes(2.0), bytes(8.0)],
                            )
                        })
                })
                .collect();
            let time2 = |&(theta, gamma, bytes): &(f64, f64, [f64; 2])| theta * bytes[0] + gamma;
            let needs_move = |&(theta, gamma, bytes): &(f64, f64, [f64; 2]), floor: f64| {
                bytes[1] - (floor - gamma) / theta > 0.0
            };
            let z_floor = pairs.iter().map(time2).fold(0.0f64, f64::max);
            read += pairs.len() as u64;
            movable += pairs.iter().filter(|p| needs_move(p, z_floor)).count() as u64;
            // Sorted into a message order: the pairs that could still move
            // when read, against the slowest all-2-bit time so far.
            let mut floor = 0.0f64;
            for p in &pairs {
                floor = floor.max(time2(p));
                held += u64::from(needs_move(p, floor));
            }
        }
    }
    assert!(
        read > 100_000 && movable > 0 && movable * 100 < read,
        "{movable} of {read}"
    );
    assert!(
        held >= movable && held * 100 < read,
        "{held} held of {read}"
    );

    let mut rounds = Vec::new();
    for threads in [1, 8] {
        tensor::par::set_threads(threads);
        rounds.push(gathered.round(&cost, &exp.training));
    }
    tensor::par::set_threads(0);
    let (replies, stats) = &rounds[0];
    assert_eq!(
        (stats.pairs_read, stats.pairs_sorted, stats.pairs_scheduled),
        (read, held, movable)
    );
    // The same replies and every count at 8 threads; only the objective
    // sum is a float.
    let (replies_8, stats_8) = &rounds[1];
    assert_eq!(replies, replies_8);
    assert_eq!(
        stats.objective_sum.to_bits(),
        stats_8.objective_sum.to_bits()
    );
    assert_eq!(
        SolveStats {
            objective_sum: 0.0,
            ..*stats
        },
        SolveStats {
            objective_sum: 0.0,
            ..*stats_8
        }
    );
}

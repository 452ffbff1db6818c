//! Integration: the Adaptive Bit-width Assigner end-to-end on a live
//! cluster — trace, gather, solve, scatter — and the structure of what it
//! returns.

use adaqp::assigner::{reassign, AssignMode, Trace, WidthAssignment};
use adaqp::{build_partitions, TrainingConfig};
use comm::{AsyncDevice, Cluster, CostModel};
use gnn::ConvKind;
use graph::DatasetSpec;
use quant::BitWidth;
use std::future::Future;
use tensor::{Matrix, Rng};

/// Runs the `async` body `f` builds per rank on an uncosted cluster.
fn run_async<Fut: Future>(n: usize, f: impl FnMut(AsyncDevice) -> Fut) -> Vec<Fut::Output> {
    let run = Cluster::try_run_async(n, None, None, f);
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
        assert_eq!(assign.fwd.len(), 2);
        assert_eq!(assign.bwd.len(), 2);
        for l in 0..2 {
            for (q, s) in parts[rank].send_sets.iter().enumerate() {
                assert_eq!(
                    assign.fwd[l][q].len(),
                    s.len(),
                    "rank {rank} layer {l} -> {q}"
                );
            }
            for (q, s) in parts[rank].recv_slots.iter().enumerate() {
                assert_eq!(assign.bwd[l][q].len(), s.len());
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
        for layer in &a.fwd {
            for per_peer in layer {
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

#[test]
fn receive_tables_mirror_send_tables_exactly() {
    // Every device's fwd_recv[l][src] must equal src's fwd[l][me] (and the
    // same for bwd) — this is the "bit-retrieval index set" contract the
    // group-major wire format depends on.
    let parts = setup(3, 67);
    let cfg = TrainingConfig {
        group_size: 8,
        lambda: 0.5,
        ..TrainingConfig::default()
    };
    let cost = CostModel::homogeneous(3, 1e6, 1e-5);
    let assignments = run_assign(&parts, &cfg, &cost, AssignMode::Adaptive);
    let layers = assignments[0].fwd.len();
    for me in 0..3 {
        for src in 0..3 {
            if src == me {
                continue;
            }
            for l in 0..layers {
                assert_eq!(
                    assignments[me].fwd_recv[l][src], assignments[src].fwd[l][me],
                    "fwd mirror broken for {src} -> {me} layer {l}"
                );
                assert_eq!(
                    assignments[me].bwd_recv[l][src], assignments[src].bwd[l][me],
                    "bwd mirror broken for {src} -> {me} layer {l}"
                );
            }
        }
    }
}

/// FNV-1a over every table of an assignment: layer count, then per layer the
/// peer count, then per peer the message count and each width's bit count.
fn assignment_digest(a: &WidthAssignment) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for table in [&a.fwd, &a.bwd, &a.fwd_recv, &a.bwd_recv] {
        eat(table.len() as u64);
        for layer in table {
            eat(layer.len() as u64);
            for peer in layer {
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
    // Recorded with the JSON control plane and the candidate-major solver
    // sweep, before either was replaced: the binary wire format and the
    // pair-major sweep must hand every rank the very same tables.
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
        (assignment_digest(&assign), assign.histogram())
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
    0x652a_db20_6efa_ffa5,
    0xe1d5_2f2e_6263_842f,
    0x7a92_fced_78d7_a8a3,
    0x5231_8b33_7ab6_e029,
];

#[test]
fn reply_size_follows_the_ranks_own_cut_not_the_fleet() {
    // 64 devices, ~75 nodes each: every device talks to some of the others.
    // The reply lists only those, so its length is a function of the rank's
    // own send/recv sets (DESIGN.md, assigner control plane):
    //   4 + layers * 2 * (block(send_sets) + block(recv_slots)),
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
        let reply = 4 + layers * 2 * (block(&part.send_sets) + block(&part.recv_slots));
        let (sent, messages) = master[rank];
        assert!(messages > 0, "master sent to every rank");
        // The scattered reply plus the 32-byte solve-stats broadcast.
        assert_eq!(sent, (reply + 32) as u64, "rank {rank}");
        peers.push(part.send_sets.iter().filter(|s| !s.is_empty()).count());
    }
    // Ranks differ in how many of the 63 possible peers they list, so no
    // function of n alone could have produced those lengths.
    let (min, max) = (peers.iter().min(), peers.iter().max());
    assert!(min < max && max < Some(&63), "peers per rank: {peers:?}");
}

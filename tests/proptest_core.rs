#![allow(clippy::needless_range_loop)]
//! Property-based tests over the distributed decomposition and exchange:
//! on random community graphs, the partitioned machinery must exactly
//! reproduce single-graph semantics. The last property holds
//! `ExperimentConfig::validate` to what `run_experiment` does with hostile
//! config values.

use adaqp::build_partitions;
use gnn::{AggGraph, ConvKind};
use graph::generators::{sbm_with_gateways, skewed_communities};
use graph::{CsrGraph, Partition};
use proptest::prelude::*;
use tensor::{Matrix, Rng};

/// Builds a random community graph plus a valid partition from a seed.
fn setup(seed: u64, n: usize, k: usize) -> (graph::Dataset, Partition) {
    let mut rng = Rng::seed_from(seed);
    let blocks = skewed_communities(n, 4, &mut rng);
    let g = sbm_with_gateways(&blocks, 6.0, 2.0, 0.5, &mut rng);
    let ds = graph::Dataset {
        name: "prop".into(),
        features: Matrix::from_fn(n, 6, |_, _| rng.uniform(-1.0, 1.0)),
        labels: graph::Labels::Single(blocks.clone()),
        num_classes: 4,
        task: graph::Task::SingleLabel,
        train_mask: vec![true; n],
        val_mask: vec![false; n],
        test_mask: vec![false; n],
        graph: g,
    };
    let part = graph::partition::metis_like(&ds.graph, k, &mut rng);
    (ds, part)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn decomposition_covers_nodes_exactly_once(
        seed in 0u64..500,
        k in 2usize..5,
    ) {
        let (ds, part) = setup(seed, 160, k);
        let parts = build_partitions(&ds, &part, ConvKind::Gcn);
        let total: usize = parts.iter().map(|p| p.num_local()).sum();
        prop_assert_eq!(total, ds.num_nodes());
        let mut seen = vec![false; ds.num_nodes()];
        for p in &parts {
            for &g in &p.local_nodes {
                prop_assert!(!seen[g as usize], "node owned twice");
                seen[g as usize] = true;
            }
        }
    }

    #[test]
    fn distributed_aggregation_equals_full_graph(
        seed in 0u64..500,
        k in 2usize..5,
    ) {
        let (ds, part) = setup(seed, 140, k);
        let parts = build_partitions(&ds, &part, ConvKind::Gcn);
        let g = ds.graph.with_self_loops();
        let full = AggGraph::full_graph_gcn(&g);
        let mut rng = Rng::seed_from(seed ^ 77);
        let x = Matrix::from_fn(ds.num_nodes(), 5, |_, _| rng.uniform(-2.0, 2.0));
        let z_full = full.aggregate(&x);
        for p in &parts {
            let mut xe = Matrix::zeros(p.num_ext(), 5);
            for (li, &gid) in p.local_nodes.iter().enumerate() {
                xe.row_mut(li).copy_from_slice(x.row(gid as usize));
            }
            for (h, &gid) in p.halo_nodes.iter().enumerate() {
                xe.row_mut(p.num_local() + h).copy_from_slice(x.row(gid as usize));
            }
            let z = p.agg.aggregate(&xe);
            for (li, &gid) in p.local_nodes.iter().enumerate() {
                for j in 0..5 {
                    prop_assert!(
                        (z.at(li, j) - z_full.at(gid as usize, j)).abs() < 1e-4,
                        "rank {} node {gid}",
                        p.rank
                    );
                }
            }
        }
    }

    #[test]
    fn send_recv_sets_are_mutually_consistent(
        seed in 0u64..500,
        k in 2usize..6,
    ) {
        let (ds, part) = setup(seed, 150, k);
        let parts = build_partitions(&ds, &part, ConvKind::Sage);
        for p in &parts {
            for q in 0..k {
                if q == p.rank { continue; }
                let sent: Vec<u32> = parts[q].send_sets[p.rank]
                    .iter()
                    .map(|&li| parts[q].local_nodes[li as usize])
                    .collect();
                let received: Vec<u32> = p.recv_slots[q]
                    .iter()
                    .map(|&h| p.halo_nodes[h as usize])
                    .collect();
                prop_assert_eq!(sent, received, "pair ({}, {})", p.rank, q);
            }
        }
    }

    #[test]
    fn central_nodes_have_no_remote_neighbors(
        seed in 0u64..500,
        k in 2usize..5,
    ) {
        let (ds, part) = setup(seed, 120, k);
        let parts = build_partitions(&ds, &part, ConvKind::Gcn);
        let g = ds.graph.with_self_loops();
        for p in &parts {
            for &li in &p.central {
                let gid = p.local_nodes[li as usize] as usize;
                for &u in g.neighbors(gid) {
                    prop_assert_eq!(
                        part.assignment[u as usize],
                        p.rank,
                        "central node {} has remote neighbor {}",
                        gid,
                        u
                    );
                }
            }
        }
    }

    #[test]
    fn partition_stays_balanced(
        seed in 0u64..500,
        k in 2usize..6,
    ) {
        let mut rng = Rng::seed_from(seed);
        let blocks = skewed_communities(400, 5, &mut rng);
        let g = sbm_with_gateways(&blocks, 8.0, 2.0, 0.4, &mut rng);
        let p = graph::partition::metis_like(&g, k, &mut rng);
        prop_assert!(p.imbalance() < 1.25, "imbalance {}", p.imbalance());
        prop_assert!(p.part_sizes().iter().all(|&s| s > 0), "empty part");
    }

    #[test]
    fn empty_and_degenerate_graphs_partition(
        k in 1usize..4,
    ) {
        let g = CsrGraph::from_edges(k, &[]);
        let mut rng = Rng::seed_from(1);
        let p = graph::partition::metis_like(&g, k, &mut rng);
        prop_assert_eq!(p.assignment.len(), k);
    }
}

/// A valid value followed by the values a typo, a bad sweep or a hostile
/// config file would put in an `f64` field.
fn f64_table(valid: f64) -> [f64; 6] {
    [valid, 0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
}

/// Entry `i` of `table`, or its first (valid) entry when `i` runs past the
/// end. Drawing `i` from `0..6 * table.len()` keeps each field at its valid
/// value five times in six, so a fair share of cases pass `validate` and
/// train.
fn pick<T: Clone>(table: &[T], i: usize) -> T {
    table.get(i).unwrap_or(&table[0]).clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `validate` is the whole contract of `run_experiment`: a config it
    /// accepts trains or fails with a typed error that is not a cluster
    /// failure (no device panics, stalls or enters a collective its peers do
    /// not), and one it rejects is rejected by the run with the same
    /// `InvalidConfig`.
    #[test]
    fn validate_decides_whether_a_run_can_panic(
        method in 0usize..5,
        (inter, intra, latency, speedup) in (0usize..36, 0usize..36, 0usize..36, 0usize..36),
        (dropout, lambda, group) in (0usize..36, 0usize..36, 0usize..12),
        (scales, racks, spine) in (0usize..48, 0usize..18, 0usize..42),
        (nodes, classes, features, in_deg) in (0usize..18, 0usize..12, 0usize..12, 0usize..36),
        (out_deg, gateway, homophily) in (0usize..36, 0usize..36, 0usize..36),
        (train_frac, val_frac) in (0usize..36, 0usize..36),
    ) {
        use adaqp::{Error, ExperimentConfig, Method, TopologySpec, TrainingConfig};
        use comm::costmodel::{
            DEFAULT_COMPUTE_SPEEDUP, DEFAULT_INTER_BW, DEFAULT_INTRA_BW, DEFAULT_LATENCY,
        };
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let training = TrainingConfig {
            epochs: 1,
            hidden: 8,
            num_layers: 2,
            reassign_period: 1,
            compute_speedup: pick(&f64_table(DEFAULT_COMPUTE_SPEEDUP), speedup),
            dropout: pick(&[0.5, 0.0, -1.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY], dropout),
            lambda: pick(&f64_table(0.5), lambda),
            group_size: pick(&[8, 0], group),
            device_scales: pick(
                &[
                    None,
                    Some(vec![1.0, 0.5]),
                    Some(vec![1.0, 0.0]),
                    Some(vec![-1.0, 1.0]),
                    Some(vec![nan, 1.0]),
                    Some(vec![1.0, inf]),
                    Some(vec![-inf, 1.0]),
                    Some(vec![1.0]),
                ],
                scales,
            ),
            topology: Some(TopologySpec {
                machines_per_rack: pick(&[None, Some(1), Some(0)], racks),
                intra_bw: Some(pick(&f64_table(DEFAULT_INTRA_BW), intra)),
                inter_bw: Some(pick(&f64_table(DEFAULT_INTER_BW), inter)),
                spine_bw: pick(
                    &[None, Some(DEFAULT_INTER_BW / 4.0), Some(0.0), Some(-1.0), Some(nan), Some(inf), Some(-inf)],
                    spine,
                ),
                latency: Some(pick(&f64_table(DEFAULT_LATENCY), latency)),
            }),
            ..TrainingConfig::default()
        };
        let tiny = graph::DatasetSpec::tiny();
        let dataset = graph::DatasetSpec {
            num_nodes: pick(&[tiny.num_nodes, 0, 1], nodes),
            num_classes: pick(&[tiny.num_classes, 0], classes),
            feature_dim: pick(&[tiny.feature_dim, 0], features),
            avg_in_degree: pick(&f64_table(tiny.avg_in_degree), in_deg),
            avg_out_degree: pick(&f64_table(tiny.avg_out_degree), out_deg),
            gateway_frac: pick(&f64_table(tiny.gateway_frac), gateway),
            class_homophily: pick(&f64_table(tiny.class_homophily), homophily),
            train_frac: pick(&f64_table(tiny.train_frac), train_frac),
            val_frac: pick(&f64_table(tiny.val_frac), val_frac),
            ..tiny
        };
        let cfg = ExperimentConfig {
            dataset,
            machines: 2,
            devices_per_machine: 1,
            method: Method::ALL[method],
            training,
            seed: 11,
        };
        let run = adaqp::run_experiment(&cfg);
        match cfg.validate() {
            Ok(()) => prop_assert!(
                !matches!(run, Err(Error::Cluster(_))),
                "accepted config ended in a cluster failure: {cfg:?}"
            ),
            Err(rejected) => prop_assert!(
                matches!(run, Err(Error::InvalidConfig(_))),
                "validate rejected ({rejected}) but the run returned {:?}",
                run.map(|_| ())
            ),
        }
    }
}

/// Every protocol path a run takes, each run end to end on the event core:
/// every method, reassigning every epoch and every other, with and without
/// error feedback and overlap, on one to eight devices. The degenerate
/// shapes are one node per device, a graph with no edges (every send set
/// empty), and more devices than nodes (refused by a typed partition
/// error). Every other run trains: a rank that skipped, reordered,
/// re-rooted or repeated a collective on any path would end it in a
/// `ClusterError`.
#[test]
fn every_protocol_path_runs_without_a_cluster_error() {
    use adaqp::{Error, ExperimentConfig, Method, TrainingConfig};
    let nodes = |num_nodes| graph::DatasetSpec {
        num_nodes,
        ..graph::DatasetSpec::tiny()
    };
    let edgeless = graph::DatasetSpec {
        avg_in_degree: 0.0,
        avg_out_degree: 0.0,
        ..nodes(48)
    };
    // (machines, devices per machine, dataset)
    let shapes = [
        (1, 1, nodes(48)),
        (1, 2, nodes(48)),
        (3, 1, nodes(48)),
        (2, 2, nodes(48)),
        (2, 2, nodes(4)),
        (2, 2, edgeless),
        (4, 2, nodes(5)),
    ];
    for (machines, devices_per_machine, dataset) in shapes {
        for method in Method::ALL {
            for reassign_period in [1, 2] {
                for (error_feedback, disable_overlap) in
                    [(false, false), (false, true), (true, false), (true, true)]
                {
                    let cfg = ExperimentConfig {
                        dataset: dataset.clone(),
                        machines,
                        devices_per_machine,
                        method,
                        training: TrainingConfig {
                            epochs: 3,
                            hidden: 8,
                            reassign_period,
                            sancus_staleness: reassign_period,
                            error_feedback,
                            disable_overlap,
                            ..TrainingConfig::default()
                        },
                        seed: 5,
                    };
                    assert!(cfg.validate().is_ok(), "{cfg:?}");
                    match adaqp::run_experiment(&cfg) {
                        Ok(_) => assert!(cfg.num_devices() <= cfg.dataset.num_nodes),
                        Err(Error::Partition(_)) if cfg.num_devices() > cfg.dataset.num_nodes => {}
                        Err(err) => panic!("{err}: {cfg:?}"),
                    }
                }
            }
        }
    }
}

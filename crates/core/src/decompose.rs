//! Partition decomposition: per-device local graphs, halo structure,
//! send/receive sets and the central/marginal split (Sec. 3.1).

use gnn::{AggGraph, AggGraphBuilder, ConvKind};
use graph::{CsrGraph, Dataset, Labels, Partition};
use tensor::Matrix;

/// Node labels restricted to one device's local nodes.
#[derive(Debug, Clone)]
pub enum LocalLabels {
    /// Class per local node.
    Single(Vec<usize>),
    /// 0/1 target matrix over local nodes.
    Multi(Matrix),
}

/// Global quantities every device needs for consistent loss/metric scaling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalInfo {
    /// Total nodes in the full graph.
    pub num_nodes: usize,
    /// Global training-node count.
    pub num_train: usize,
    /// Global validation-node count.
    pub num_val: usize,
    /// Global test-node count.
    pub num_test: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Positive-class weight for multi-label BCE (1.0 for single-label):
    /// roughly #negatives / #positives, capped for stability.
    pub pos_weight: f32,
}

/// Everything one device owns: its local nodes, features and labels, the
/// halo structure for cross-device aggregation, and the central/marginal
/// decomposition that enables computation-communication overlap.
///
/// Index spaces:
/// * *local index* `0..num_local` — positions in `local_nodes`;
/// * *halo index* `0..num_halo` — positions in `halo_nodes`;
/// * *extended index* `0..num_local+num_halo` — local indices followed by
///   halo indices; this is the input space of `agg`.
#[derive(Debug, Clone)]
pub struct DevicePartition {
    /// This device's rank.
    pub rank: usize,
    /// Number of partitions.
    pub num_parts: usize,
    /// Global ids of owned nodes, ascending.
    pub local_nodes: Vec<u32>,
    /// Global ids of remote 1-hop neighbors, ascending.
    pub halo_nodes: Vec<u32>,
    /// `send_sets[q]`: local indices of nodes with a neighbor on device `q`
    /// (their messages travel to `q` every layer), ascending.
    pub send_sets: Vec<Vec<u32>>,
    /// `recv_slots[q]`: halo indices the rows received from `q` land in,
    /// aligned with `q`'s `send_sets[rank]` order.
    pub recv_slots: Vec<Vec<u32>>,
    /// `send_alpha_sq[q][k]`: the receiver-side sum of squared aggregation
    /// coefficients applied to message `send_sets[q][k]` — the
    /// `sum_{v in N_T(k)} alpha_{k,v}^2` factor of `beta_k` (Sec. 4.2).
    pub send_alpha_sq: Vec<Vec<f64>>,
    /// Local aggregation operator over the extended space.
    pub agg: AggGraph,
    /// Local indices of central nodes (no remote neighbors).
    pub central: Vec<u32>,
    /// Local indices of marginal nodes (at least one remote neighbor).
    pub marginal: Vec<u32>,
    /// Features of local nodes.
    pub features: Matrix,
    /// Labels of local nodes.
    pub labels: LocalLabels,
    /// Per-local-node masks.
    pub train_mask: Vec<bool>,
    /// Validation mask.
    pub val_mask: Vec<bool>,
    /// Test mask.
    pub test_mask: Vec<bool>,
    /// Global quantities for loss scaling.
    pub global: GlobalInfo,
    /// Owned node count of every partition (`part_sizes[rank] ==
    /// num_local()` for the local rank); used to model full-partition
    /// broadcast volumes.
    pub part_sizes: Vec<usize>,
}

impl DevicePartition {
    /// Owned node count.
    pub fn num_local(&self) -> usize {
        self.local_nodes.len()
    }

    /// Halo slot count.
    pub fn num_halo(&self) -> usize {
        self.halo_nodes.len()
    }

    /// Extended space size.
    pub fn num_ext(&self) -> usize {
        self.num_local() + self.num_halo()
    }

    /// Total messages sent per layer (sum of send-set sizes).
    pub fn messages_per_layer(&self) -> usize {
        self.send_sets.iter().map(Vec::len).sum()
    }

    /// Builds the `rows x dim` message matrix for destination `q` from the
    /// current local embedding matrix.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != num_local()`.
    pub fn gather_send_rows(&self, x: &Matrix, q: usize) -> Matrix {
        assert_eq!(x.rows(), self.num_local(), "x must cover local nodes");
        let idx: Vec<usize> = self.send_sets[q].iter().map(|&i| i as usize).collect();
        x.gather_rows(&idx)
    }

    /// Single-label classes of local nodes.
    ///
    /// # Panics
    ///
    /// Panics on a multi-label partition.
    #[expect(clippy::panic, reason = "documented accessor contract")]
    pub fn single_labels(&self) -> &[usize] {
        match &self.labels {
            LocalLabels::Single(v) => v,
            LocalLabels::Multi(_) => panic!("partition holds multi-label targets"),
        }
    }

    /// Multi-label targets of local nodes.
    ///
    /// # Panics
    ///
    /// Panics on a single-label partition.
    #[expect(clippy::panic, reason = "documented accessor contract")]
    pub fn multi_targets(&self) -> &Matrix {
        match &self.labels {
            LocalLabels::Multi(m) => m,
            LocalLabels::Single(_) => panic!("partition holds single-label classes"),
        }
    }
}

/// Builds all device partitions for a dataset under a node partition.
///
/// The aggregation graph follows the model family: GCN aggregates over the
/// self-loop-augmented graph with symmetric normalization; GraphSAGE-mean
/// aggregates plain neighbors with `1/deg` (its self path needs no halo).
///
/// # Panics
///
/// Panics if the partition does not cover the dataset's node count.
pub fn build_partitions(
    dataset: &Dataset,
    partition: &Partition,
    kind: ConvKind,
) -> Vec<DevicePartition> {
    assert_eq!(
        partition.assignment.len(),
        dataset.num_nodes(),
        "partition/dataset size mismatch"
    );
    let k = partition.k;
    let graph: CsrGraph = match kind {
        ConvKind::Gcn => dataset.graph.with_self_loops(),
        ConvKind::Sage | ConvKind::Gin => dataset.graph.clone(),
    };
    let coeff = |u: usize, v: usize| -> f32 {
        match kind {
            ConvKind::Gcn => graph.gcn_coeff(u, v),
            ConvKind::Sage => graph.mean_coeff(v),
            ConvKind::Gin => 1.0,
        }
    };
    let assignment = &partition.assignment;
    let pos_weight = match &dataset.labels {
        Labels::Single(_) => 1.0,
        Labels::Multi(m) => {
            let total = m.len() as f32;
            let pos: f32 = m.as_slice().iter().sum();
            ((total - pos) / pos.max(1.0)).clamp(1.0, 25.0)
        }
    };
    let global = GlobalInfo {
        num_nodes: dataset.num_nodes(),
        num_train: dataset.train_mask.iter().filter(|&&b| b).count(),
        num_val: dataset.val_mask.iter().filter(|&&b| b).count(),
        num_test: dataset.test_mask.iter().filter(|&&b| b).count(),
        num_classes: dataset.num_classes,
        pos_weight,
    };

    // Owned nodes per part, ascending by global id.
    let mut owned: Vec<Vec<u32>> = vec![Vec::new(); k];
    for (v, &p) in assignment.iter().enumerate() {
        owned[p].push(v as u32);
    }
    // Global -> local index within owner.
    let mut local_index = vec![0u32; dataset.num_nodes()];
    for nodes in &owned {
        for (i, &g) in nodes.iter().enumerate() {
            local_index[g as usize] = i as u32;
        }
    }

    let mut parts = Vec::with_capacity(k);
    for rank in 0..k {
        let local_nodes = owned[rank].clone();
        let num_local = local_nodes.len();

        // Halo = remote aggregation neighbors, sorted ascending.
        let mut halo: Vec<u32> = Vec::new();
        for &g in &local_nodes {
            for &u in graph.neighbors(g as usize) {
                if assignment[u as usize] != rank {
                    halo.push(u);
                }
            }
        }
        halo.sort_unstable();
        halo.dedup();
        #[expect(clippy::expect_used, reason = "the same neighbor scan built halo")]
        let halo_pos =
            |g: u32| -> u32 { halo.binary_search(&g).expect("halo node present") as u32 };

        // Send sets: local indices of nodes adjacent to each remote part.
        // `last[q]` is the last local node listed for `q`, so each node is
        // listed once per peer however many neighbors it has there.
        let mut send_sets: Vec<Vec<u32>> = vec![Vec::new(); k];
        let mut last = vec![u32::MAX; k];
        for (li, &g) in local_nodes.iter().enumerate() {
            let li = li as u32;
            for &u in graph.neighbors(g as usize) {
                let q = assignment[u as usize];
                if q != rank && last[q] != li {
                    last[q] = li;
                    send_sets[q].push(li);
                }
            }
        }

        // Receive slots: for each source q, the halo slots of q's send set
        // to us, in q's (ascending-global-id) send order. We receive exactly
        // the q-owned nodes of our halo, and the halo is ascending too.
        let mut recv_slots: Vec<Vec<u32>> = vec![Vec::new(); k];
        for (pos, &g) in halo.iter().enumerate() {
            recv_slots[assignment[g as usize]].push(pos as u32);
        }

        // Aggregation structure over the extended space + central/marginal
        // split, streamed straight into CSR form (no per-row Vec churn).
        let local_entries: usize = local_nodes
            .iter()
            .map(|&g| graph.neighbors(g as usize).len())
            .sum();
        let mut builder =
            AggGraphBuilder::with_capacity(num_local + halo.len(), num_local, local_entries);
        let mut central = Vec::new();
        let mut marginal = Vec::new();
        for (li, &g) in local_nodes.iter().enumerate() {
            let mut has_remote = false;
            for &u in graph.neighbors(g as usize) {
                let c = coeff(u as usize, g as usize);
                if assignment[u as usize] == rank {
                    builder.push_entry(local_index[u as usize], c);
                } else {
                    has_remote = true;
                    builder.push_entry(num_local as u32 + halo_pos(u), c);
                }
            }
            builder.finish_row();
            if has_remote {
                marginal.push(li as u32);
            } else {
                central.push(li as u32);
            }
        }
        let agg = builder.build();

        // Receiver-side sum of squared coefficients for each sent message.
        // For message (local node g -> device q): sum over q's local nodes v
        // adjacent to g of coeff(g, v)^2.
        let mut send_alpha_sq: Vec<Vec<f64>> = vec![Vec::new(); k];
        for q in 0..k {
            for &li in &send_sets[q] {
                let g = local_nodes[li as usize] as usize;
                let mut s = 0.0f64;
                for &v in graph.neighbors(g) {
                    if assignment[v as usize] == q {
                        let c = coeff(g, v as usize) as f64;
                        s += c * c;
                    }
                }
                send_alpha_sq[q].push(s);
            }
        }

        // Local features / labels / masks.
        let idx: Vec<usize> = local_nodes.iter().map(|&g| g as usize).collect();
        let features = dataset.features.gather_rows(&idx);
        let labels = match &dataset.labels {
            Labels::Single(v) => LocalLabels::Single(idx.iter().map(|&g| v[g]).collect()),
            Labels::Multi(m) => LocalLabels::Multi(m.gather_rows(&idx)),
        };
        let pick = |mask: &[bool]| -> Vec<bool> { idx.iter().map(|&g| mask[g]).collect() };

        parts.push(DevicePartition {
            rank,
            num_parts: k,
            local_nodes,
            halo_nodes: halo,
            send_sets,
            recv_slots,
            send_alpha_sq,
            agg,
            central,
            marginal,
            features,
            train_mask: pick(&dataset.train_mask),
            val_mask: pick(&dataset.val_mask),
            test_mask: pick(&dataset.test_mask),
            labels,
            global,
            part_sizes: owned.iter().map(Vec::len).collect(),
        });
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::DatasetSpec;
    use tensor::Rng;

    fn tiny_setup(k: usize) -> (Dataset, Partition, Vec<DevicePartition>) {
        let ds = DatasetSpec::tiny().generate(11);
        let mut rng = Rng::seed_from(12);
        let part = graph::partition::metis_like(&ds.graph, k, &mut rng);
        let parts = build_partitions(&ds, &part, ConvKind::Gcn);
        (ds, part, parts)
    }

    #[test]
    fn partitions_cover_all_nodes() {
        let (ds, _, parts) = tiny_setup(3);
        let total: usize = parts.iter().map(DevicePartition::num_local).sum();
        assert_eq!(total, ds.num_nodes());
        // Every global node appears exactly once as a local node.
        let mut seen = vec![false; ds.num_nodes()];
        for p in &parts {
            for &g in &p.local_nodes {
                assert!(!seen[g as usize], "node {g} owned twice");
                seen[g as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn send_and_recv_sets_are_consistent() {
        let (_, _, parts) = tiny_setup(3);
        for p in &parts {
            for q in 0..parts.len() {
                if q == p.rank {
                    assert!(p.send_sets[q].is_empty());
                    assert!(p.recv_slots[q].is_empty());
                    continue;
                }
                // p receives from q exactly what q sends to p.
                let sent: Vec<u32> = parts[q].send_sets[p.rank]
                    .iter()
                    .map(|&li| parts[q].local_nodes[li as usize])
                    .collect();
                let received: Vec<u32> = p.recv_slots[q]
                    .iter()
                    .map(|&h| p.halo_nodes[h as usize])
                    .collect();
                assert_eq!(sent, received, "pair ({}, {q})", p.rank);
            }
        }
    }

    #[test]
    fn halo_is_union_of_incoming() {
        let (_, _, parts) = tiny_setup(4);
        for p in &parts {
            let mut incoming: Vec<u32> = (0..parts.len())
                .filter(|&q| q != p.rank)
                .flat_map(|q| {
                    p.recv_slots[q]
                        .iter()
                        .map(|&h| p.halo_nodes[h as usize])
                        .collect::<Vec<_>>()
                })
                .collect();
            incoming.sort_unstable();
            assert_eq!(incoming, p.halo_nodes, "rank {}", p.rank);
        }
    }

    #[test]
    fn central_marginal_partition_local_space() {
        let (_, _, parts) = tiny_setup(3);
        for p in &parts {
            let mut all: Vec<u32> = p.central.iter().chain(&p.marginal).copied().collect();
            all.sort_unstable();
            let expect: Vec<u32> = (0..p.num_local() as u32).collect();
            assert_eq!(all, expect);
        }
    }

    #[test]
    fn central_nodes_reference_only_local_slots() {
        let (_, _, parts) = tiny_setup(3);
        for p in &parts {
            // Aggregating an extended matrix whose halo rows are poisoned
            // must not change central rows.
            let mut x = Matrix::zeros(p.num_ext(), 4);
            for i in 0..p.num_local() {
                for j in 0..4 {
                    x.set(i, j, (i + j) as f32);
                }
            }
            let clean = p.agg.aggregate_rows(&x, &p.central);
            for h in p.num_local()..p.num_ext() {
                for j in 0..4 {
                    x.set(h, j, 1e9);
                }
            }
            let poisoned = p.agg.aggregate_rows(&x, &p.central);
            assert_eq!(clean, poisoned, "central rows touched halo slots");
        }
    }

    #[test]
    fn distributed_aggregation_matches_full_graph() {
        // Fill halos with true values and compare against the single-graph
        // aggregation: the distributed decomposition must be exact.
        let (ds, part, parts) = tiny_setup(3);
        let g = ds.graph.with_self_loops();
        let full_agg = AggGraph::full_graph_gcn(&g);
        let mut rng = Rng::seed_from(99);
        let x = Matrix::from_fn(ds.num_nodes(), 5, |_, _| rng.uniform(-1.0, 1.0));
        let z_full = full_agg.aggregate(&x);
        for p in &parts {
            // Build the extended input from global data.
            let mut xe = Matrix::zeros(p.num_ext(), 5);
            for (li, &gid) in p.local_nodes.iter().enumerate() {
                xe.row_mut(li).copy_from_slice(x.row(gid as usize));
            }
            for (h, &gid) in p.halo_nodes.iter().enumerate() {
                xe.row_mut(p.num_local() + h)
                    .copy_from_slice(x.row(gid as usize));
            }
            let z_local = p.agg.aggregate(&xe);
            for (li, &gid) in p.local_nodes.iter().enumerate() {
                for j in 0..5 {
                    assert!(
                        (z_local.at(li, j) - z_full.at(gid as usize, j)).abs() < 1e-4,
                        "rank {} node {gid} dim {j}",
                        p.rank
                    );
                }
            }
        }
        let _ = part;
    }

    #[test]
    fn send_alpha_sq_positive_and_aligned() {
        let (_, _, parts) = tiny_setup(3);
        for p in &parts {
            for q in 0..parts.len() {
                assert_eq!(p.send_alpha_sq[q].len(), p.send_sets[q].len());
                for &s in &p.send_alpha_sq[q] {
                    assert!(s > 0.0, "sent message must have a receiver coefficient");
                }
            }
        }
    }

    #[test]
    fn gather_send_rows_extracts_boundary_messages() {
        let (_, _, parts) = tiny_setup(2);
        let p = &parts[0];
        let x = Matrix::from_fn(p.num_local(), 3, |i, j| (i * 3 + j) as f32);
        let q = 1;
        let msgs = p.gather_send_rows(&x, q);
        assert_eq!(msgs.rows(), p.send_sets[q].len());
        for (k, &li) in p.send_sets[q].iter().enumerate() {
            assert_eq!(msgs.row(k), x.row(li as usize));
        }
    }

    #[test]
    fn sage_partitions_use_plain_graph() {
        let ds = DatasetSpec::tiny().generate(13);
        let mut rng = Rng::seed_from(14);
        let part = graph::partition::metis_like(&ds.graph, 2, &mut rng);
        let sage = build_partitions(&ds, &part, ConvKind::Sage);
        let gcn = build_partitions(&ds, &part, ConvKind::Gcn);
        // GCN adds self loops => at least as many aggregation entries.
        for (s, g) in sage.iter().zip(&gcn) {
            assert!(g.agg.num_entries() >= s.agg.num_entries() + s.num_local());
        }
    }

    #[test]
    fn global_info_counts() {
        let (ds, _, parts) = tiny_setup(2);
        let gi = parts[0].global;
        assert_eq!(gi.num_nodes, ds.num_nodes());
        assert_eq!(gi.num_train, ds.train_mask.iter().filter(|&&b| b).count());
        let local_train: usize = parts
            .iter()
            .map(|p| p.train_mask.iter().filter(|&&b| b).count())
            .sum();
        assert_eq!(local_train, gi.num_train);
    }
}

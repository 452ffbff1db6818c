//! Partition-quality and communication-volume statistics.
//!
//! These measurements drive Table 1 (communication cost and remote-neighbor
//! ratio) and Fig. 2 (per-device-pair data volume) of the paper.

use crate::{CsrGraph, Partition};
use serde::Serialize;

/// Number of undirected edges whose endpoints lie in different parts.
///
/// # Panics
///
/// Panics if `partition.assignment.len() != graph.num_nodes()`.
pub fn edge_cut(graph: &CsrGraph, partition: &Partition) -> usize {
    assert_eq!(
        partition.assignment.len(),
        graph.num_nodes(),
        "partition size mismatch"
    );
    graph
        .edges()
        .filter(|&(u, v)| partition.assignment[u as usize] != partition.assignment[v as usize])
        .count()
}

/// Per-partition boundary structure: which local nodes must be sent where,
/// and which remote nodes must be received from where.
///
/// `send_sets[p][q]` lists nodes owned by `p` that have at least one neighbor
/// in `q` (their messages travel `p -> q` each layer); by symmetry of the
/// undirected graph this equals the set of nodes `q` must receive from `p`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct BoundaryInfo {
    /// Parts count.
    pub k: usize,
    /// `send_sets[p][q]`: sorted node ids owned by `p` with a neighbor in `q`.
    pub send_sets: Vec<Vec<Vec<u32>>>,
}

impl BoundaryInfo {
    /// Computes boundary sets for a graph/partition pair.
    ///
    /// # Panics
    ///
    /// Panics if sizes disagree.
    pub fn build(graph: &CsrGraph, partition: &Partition) -> Self {
        assert_eq!(
            partition.assignment.len(),
            graph.num_nodes(),
            "partition size mismatch"
        );
        let k = partition.k;
        let mut send_sets: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); k]; k];
        for v in 0..graph.num_nodes() {
            let pv = partition.assignment[v];
            let mut touched = vec![false; k];
            for &u in graph.neighbors(v) {
                let pu = partition.assignment[u as usize];
                if pu != pv && !touched[pu] {
                    touched[pu] = true;
                    send_sets[pv][pu].push(v as u32);
                }
            }
        }
        Self { k, send_sets }
    }

    /// Number of messages (boundary nodes) sent from `p` to `q` per layer.
    pub fn count(&self, p: usize, q: usize) -> usize {
        self.send_sets[p][q].len()
    }

    /// Marginal nodes of part `p`: local nodes with at least one remote
    /// neighbor (union over destinations of the send sets).
    pub fn marginal_nodes(&self, p: usize) -> Vec<u32> {
        let mut all: Vec<u32> = self.send_sets[p].iter().flatten().copied().collect();
        all.sort_unstable();
        all.dedup();
        all
    }
}

/// Remote-neighbor statistics, as reported in Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemoteNeighborStats {
    /// Average over partitions of (#distinct remote 1-hop neighbors) /
    /// (#local nodes).
    pub remote_neighbor_ratio: f64,
    /// Average over partitions of the fraction of local nodes that are
    /// marginal (have at least one remote neighbor).
    pub marginal_node_fraction: f64,
}

/// Computes remote-neighbor statistics for a partition.
///
/// # Panics
///
/// Panics if sizes disagree.
pub fn remote_neighbor_stats(graph: &CsrGraph, partition: &Partition) -> RemoteNeighborStats {
    assert_eq!(
        partition.assignment.len(),
        graph.num_nodes(),
        "partition size mismatch"
    );
    let k = partition.k;
    let mut local_counts = vec![0usize; k];
    let mut marginal_counts = vec![0usize; k];
    // BTreeSet: only `.len()` is read today, but stats feed Table 1 numbers,
    // so keep every container here deterministically ordered.
    let mut remote_sets: Vec<std::collections::BTreeSet<u32>> =
        vec![std::collections::BTreeSet::new(); k];
    for v in 0..graph.num_nodes() {
        let pv = partition.assignment[v];
        local_counts[pv] += 1;
        let mut marginal = false;
        for &u in graph.neighbors(v) {
            if partition.assignment[u as usize] != pv {
                remote_sets[pv].insert(u);
                marginal = true;
            }
        }
        if marginal {
            marginal_counts[pv] += 1;
        }
    }
    let mut ratio_sum = 0.0;
    let mut marg_sum = 0.0;
    let mut parts = 0usize;
    for p in 0..k {
        if local_counts[p] == 0 {
            continue;
        }
        parts += 1;
        ratio_sum += remote_sets[p].len() as f64 / local_counts[p] as f64;
        marg_sum += marginal_counts[p] as f64 / local_counts[p] as f64;
    }
    let parts = parts.max(1) as f64;
    RemoteNeighborStats {
        remote_neighbor_ratio: ratio_sum / parts,
        marginal_node_fraction: marg_sum / parts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::block_partition;

    /// 6-node path split into two halves: single cut edge 2-3.
    fn path_graph() -> (CsrGraph, Partition) {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let p = Partition::new(2, vec![0, 0, 0, 1, 1, 1]);
        (g, p)
    }

    #[test]
    fn edge_cut_counts_cross_edges() {
        let (g, p) = path_graph();
        assert_eq!(edge_cut(&g, &p), 1);
    }

    #[test]
    fn edge_cut_zero_for_single_part() {
        let (g, _) = path_graph();
        let p = Partition::new(1, vec![0; 6]);
        assert_eq!(edge_cut(&g, &p), 0);
    }

    #[test]
    fn boundary_sets_are_symmetric_in_counts() {
        let (g, p) = path_graph();
        let b = BoundaryInfo::build(&g, &p);
        assert_eq!(b.send_sets[0][1], vec![2]);
        assert_eq!(b.send_sets[1][0], vec![3]);
        assert_eq!(b.count(0, 1), 1);
    }

    #[test]
    fn marginal_nodes_union() {
        // Star: center 0 in part 0; leaves in parts 0/1/2.
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let p = Partition::new(3, vec![0, 0, 1, 2]);
        let b = BoundaryInfo::build(&g, &p);
        // Node 0 is sent to both parts 1 and 2 but appears once as marginal.
        assert_eq!(b.marginal_nodes(0), vec![0]);
        assert_eq!(b.count(0, 1), 1);
        assert_eq!(b.count(0, 2), 1);
    }

    #[test]
    fn remote_ratio_on_path() {
        let (g, p) = path_graph();
        let s = remote_neighbor_stats(&g, &p);
        // Each half: 1 remote neighbor / 3 local nodes; 1 of 3 nodes marginal.
        assert!((s.remote_neighbor_ratio - 1.0 / 3.0).abs() < 1e-9);
        assert!((s.marginal_node_fraction - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn remote_ratio_grows_with_partitions() {
        // Dense-ish random community graph: more parts => higher ratio.
        let mut rng = tensor::Rng::seed_from(20);
        let blocks = crate::generators::skewed_communities(800, 8, &mut rng);
        let g = crate::generators::sbm(&blocks, 8.0, 2.0, &mut rng);
        let p2 = crate::partition::metis_like(&g, 2, &mut rng);
        let p8 = crate::partition::metis_like(&g, 8, &mut rng);
        let r2 = remote_neighbor_stats(&g, &p2).remote_neighbor_ratio;
        let r8 = remote_neighbor_stats(&g, &p8).remote_neighbor_ratio;
        assert!(r8 > r2, "ratio should grow with k: {r2} vs {r8}");
    }

    #[test]
    fn block_partition_boundary_small_on_path() {
        let g = CsrGraph::from_edges(
            9,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 8),
            ],
        );
        let p = block_partition(&g, 3);
        let b = BoundaryInfo::build(&g, &p);
        // Chain of blocks: 0<->1 and 1<->2 only.
        assert_eq!(b.count(0, 2), 0);
        assert_eq!(b.count(0, 1), 1);
        assert_eq!(b.count(1, 2), 1);
    }
}

//! A from-scratch multilevel graph partitioner in the spirit of METIS.
//!
//! The paper partitions input graphs with DGL's built-in METIS. METIS is not
//! available here, so this module implements the same three-phase multilevel
//! scheme (Karypis & Kumar 1997):
//!
//! 1. **Coarsening** — repeated heavy-edge matching merges matched node pairs
//!    until the graph is small;
//! 2. **Initial partitioning** — greedy region growing on the coarsest graph,
//!    balanced by (merged) node weight;
//! 3. **Uncoarsening + refinement** — the assignment is projected back level
//!    by level, running boundary Kernighan–Lin-style gain moves at each
//!    level subject to a balance constraint.
//!
//! Random and block partitioners are provided as baselines for tests and
//! ablations.

use crate::CsrGraph;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use tensor::Rng;

/// Why a partition could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// `k == 0` was requested.
    ZeroParts,
    /// More parts than nodes: some part would be empty.
    TooManyParts {
        /// Requested part count.
        k: usize,
        /// Node count of the graph.
        n: usize,
    },
    /// An explicit assignment names a part `>= k`.
    AssignmentOutOfRange {
        /// Offending node id.
        node: usize,
        /// Its (invalid) part.
        part: usize,
        /// The declared part count.
        k: usize,
    },
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::ZeroParts => write!(f, "k must be positive"),
            PartitionError::TooManyParts { k, n } => {
                write!(f, "cannot cut {n} nodes into {k} parts")
            }
            PartitionError::AssignmentOutOfRange { node, part, k } => {
                write!(f, "node {node} assigned to part {part}, but k = {k}")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// Maximum allowed part weight as a multiple of the average.
const BALANCE_SLACK: f64 = 1.05;

/// Stop coarsening below this many nodes (scaled by k).
const COARSEN_TARGET_PER_PART: usize = 30;

/// Refinement passes per level.
const REFINE_PASSES: usize = 8;

/// A k-way node partition of a graph.
///
/// # Example
///
/// ```
/// use graph::{CsrGraph, Partition};
///
/// let p = Partition::new(2, vec![0, 0, 1, 1]);
/// assert_eq!(p.part_sizes(), vec![2, 2]);
/// assert_eq!(p.nodes_of(1), vec![2, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    /// Number of parts.
    pub k: usize,
    /// `assignment[v]` is the part of node `v`.
    pub assignment: Vec<usize>,
}

impl Partition {
    /// Creates a partition from an explicit assignment.
    ///
    /// # Panics
    ///
    /// Panics if any entry is `>= k`. Use [`Partition::try_new`] to get a
    /// typed error instead.
    pub fn new(k: usize, assignment: Vec<usize>) -> Self {
        assert!(assignment.iter().all(|&p| p < k), "assignment out of range");
        Self { k, assignment }
    }

    /// Creates a partition from an explicit assignment, validating it.
    ///
    /// # Errors
    ///
    /// [`PartitionError::AssignmentOutOfRange`] if any entry is `>= k`.
    pub fn try_new(k: usize, assignment: Vec<usize>) -> Result<Self, PartitionError> {
        if let Some((node, &part)) = assignment.iter().enumerate().find(|&(_, &p)| p >= k) {
            return Err(PartitionError::AssignmentOutOfRange { node, part, k });
        }
        Ok(Self { k, assignment })
    }

    /// Node count per part.
    pub fn part_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k];
        for &p in &self.assignment {
            sizes[p] += 1;
        }
        sizes
    }

    /// Node ids in part `p`, ascending.
    pub fn nodes_of(&self, p: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|&(_, &q)| q == p)
            .map(|(v, _)| v)
            .collect()
    }

    /// Ratio of the largest part to the average part size (1.0 = perfectly
    /// balanced).
    pub fn imbalance(&self) -> f64 {
        let sizes = self.part_sizes();
        let max = *sizes.iter().max().unwrap_or(&0) as f64;
        let avg = self.assignment.len() as f64 / self.k as f64;
        if avg == 0.0 {
            1.0
        } else {
            max / avg
        }
    }
}

/// Weighted graph used internally during coarsening.
#[derive(Debug, Clone)]
struct WeightedGraph {
    node_w: Vec<u64>,
    /// Sorted, deduplicated `(neighbor, edge_weight)` lists; no self loops.
    adj: Vec<Vec<(u32, u64)>>,
}

impl WeightedGraph {
    fn from_csr(g: &CsrGraph) -> Self {
        let n = g.num_nodes();
        let mut adj = Vec::with_capacity(n);
        for v in 0..n {
            let nbrs: Vec<(u32, u64)> = g
                .neighbors(v)
                .iter()
                .filter(|&&u| u as usize != v)
                .map(|&u| (u, 1u64))
                .collect();
            adj.push(nbrs);
        }
        Self {
            node_w: vec![1; n],
            adj,
        }
    }

    fn num_nodes(&self) -> usize {
        self.node_w.len()
    }
}

/// Partitions `graph` into `k` parts with the multilevel heuristic.
///
/// Produces balanced parts (max/avg below ~1.05 for non-degenerate inputs)
/// with low edge cut on community-structured graphs. Deterministic given the
/// RNG seed.
///
/// # Panics
///
/// Panics if `k == 0` or `k > graph.num_nodes()` (for non-empty graphs).
/// Use [`try_metis_like`] to get a typed error instead.
#[expect(clippy::panic, reason = "documented panicking wrapper")]
pub fn metis_like(graph: &CsrGraph, k: usize, rng: &mut Rng) -> Partition {
    match try_metis_like(graph, k, rng) {
        Ok(p) => p,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible variant of [`metis_like`].
///
/// # Errors
///
/// [`PartitionError::ZeroParts`] when `k == 0`;
/// [`PartitionError::TooManyParts`] when a non-empty graph has fewer nodes
/// than requested parts.
pub fn try_metis_like(
    graph: &CsrGraph,
    k: usize,
    rng: &mut Rng,
) -> Result<Partition, PartitionError> {
    if k == 0 {
        return Err(PartitionError::ZeroParts);
    }
    let n = graph.num_nodes();
    if n == 0 {
        return Ok(Partition {
            k,
            assignment: Vec::new(),
        });
    }
    if k > n {
        return Err(PartitionError::TooManyParts { k, n });
    }
    if k == 1 {
        return Ok(Partition {
            k: 1,
            assignment: vec![0; n],
        });
    }

    // Phase 1: coarsen. `current` is always the coarsest graph built so far;
    // `levels[i]` is the finer graph that `maps[i]` projects onto it.
    let mut current = WeightedGraph::from_csr(graph);
    let mut levels: Vec<WeightedGraph> = Vec::new();
    let mut maps: Vec<Vec<u32>> = Vec::new(); // fine node -> coarse node
    let target = (COARSEN_TARGET_PER_PART * k).max(2 * k);
    while current.num_nodes() > target {
        let (coarse, map) = coarsen_once(&current, rng);
        // Matching degenerated (e.g. star graphs): stop to avoid looping.
        if coarse.num_nodes() as f64 > current.num_nodes() as f64 * 0.95 {
            break;
        }
        levels.push(std::mem::replace(&mut current, coarse));
        maps.push(map);
    }

    // Phase 2: initial partition of the coarsest level.
    let mut assignment = grow_initial(&current, k, rng);
    refine(&current, k, &mut assignment, rng);

    // Phase 3: project back and refine.
    for li in (0..maps.len()).rev() {
        let fine = &levels[li];
        let map = &maps[li];
        let mut fine_assignment = vec![0usize; fine.num_nodes()];
        for v in 0..fine.num_nodes() {
            fine_assignment[v] = assignment[map[v] as usize];
        }
        assignment = fine_assignment;
        refine(fine, k, &mut assignment, rng);
    }

    Partition::try_new(k, assignment)
}

/// One round of heavy-edge matching; returns the coarse graph and the
/// fine-to-coarse map.
fn coarsen_once(g: &WeightedGraph, rng: &mut Rng) -> (WeightedGraph, Vec<u32>) {
    let n = g.num_nodes();
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let mut mate = vec![u32::MAX; n];
    for &v in &order {
        if mate[v] != u32::MAX {
            continue;
        }
        // Heaviest unmatched neighbor.
        let mut best: Option<(u32, u64)> = None;
        for &(u, w) in &g.adj[v] {
            if mate[u as usize] == u32::MAX && best.is_none_or(|(_, bw)| w > bw) {
                best = Some((u, w));
            }
        }
        match best {
            Some((u, _)) => {
                mate[v] = u;
                mate[u as usize] = v as u32;
            }
            None => mate[v] = v as u32, // matched with itself
        }
    }
    // Assign coarse ids.
    let mut coarse_of = vec![u32::MAX; n];
    let mut next = 0u32;
    for v in 0..n {
        if coarse_of[v] != u32::MAX {
            continue;
        }
        let m = mate[v] as usize;
        coarse_of[v] = next;
        coarse_of[m] = next;
        next += 1;
    }
    let cn = next as usize;
    // Build coarse graph.
    let mut node_w = vec![0u64; cn];
    for v in 0..n {
        node_w[coarse_of[v] as usize] += g.node_w[v];
    }
    // BTreeMap keeps the accumulated neighbor lists in sorted (and therefore
    // deterministic) order — no post-hoc sort, no iteration-order hazard.
    let mut adj_maps: Vec<BTreeMap<u32, u64>> = vec![BTreeMap::new(); cn];
    for v in 0..n {
        let cv = coarse_of[v];
        for &(u, w) in &g.adj[v] {
            let cu = coarse_of[u as usize];
            if cu != cv {
                *adj_maps[cv as usize].entry(cu).or_insert(0) += w;
            }
        }
    }
    let adj: Vec<Vec<(u32, u64)>> = adj_maps
        .into_iter()
        .map(|m| {
            // Each undirected edge visited from both endpoints: halve.
            m.into_iter()
                .map(|(u, w)| (u, w.div_ceil(2).max(1)))
                .collect()
        })
        .collect();
    (WeightedGraph { node_w, adj }, coarse_of)
}

/// Greedy region growing for the initial partition of the coarsest graph.
fn grow_initial(g: &WeightedGraph, k: usize, rng: &mut Rng) -> Vec<usize> {
    let n = g.num_nodes();
    let total_w: u64 = g.node_w.iter().sum();
    let target_w = total_w as f64 / k as f64;
    let mut assignment = vec![usize::MAX; n];
    let mut part_w = vec![0u64; k];

    // Seeds: random distinct nodes.
    let mut seeds: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut seeds);
    let mut frontiers: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (p, &s) in seeds.iter().take(k).enumerate() {
        assignment[s] = p;
        part_w[p] += g.node_w[s];
        frontiers[p].extend(g.adj[s].iter().map(|&(u, _)| u as usize));
    }
    let mut remaining: usize = assignment.iter().filter(|&&a| a == usize::MAX).count();
    let mut spare: Vec<usize> = seeds[k..].to_vec();
    while remaining > 0 {
        // Grow the lightest part (k >= 1, so the min always exists).
        let p = (0..k).min_by_key(|&p| part_w[p]).unwrap_or(0);
        // Pick the unassigned frontier node most connected to part `p`
        // (gain-based growing; the coarsest graph is small enough to scan).
        let mut picked = None;
        {
            frontiers[p].retain(|&v| assignment[v] == usize::MAX);
            let mut best_idx = usize::MAX;
            let mut best_conn = 0u64;
            for (idx, &v) in frontiers[p].iter().enumerate() {
                let conn: u64 = g.adj[v]
                    .iter()
                    .filter(|&&(u, _)| assignment[u as usize] == p)
                    .map(|&(_, w)| w)
                    .sum();
                if best_idx == usize::MAX || conn > best_conn {
                    best_idx = idx;
                    best_conn = conn;
                }
            }
            if best_idx != usize::MAX {
                picked = Some(frontiers[p].swap_remove(best_idx));
            }
        }
        // Frontier exhausted: steal any unassigned node.
        if picked.is_none() {
            while let Some(v) = spare.pop() {
                if assignment[v] == usize::MAX {
                    picked = Some(v);
                    break;
                }
            }
        }
        let Some(v) = picked else {
            // All spare consumed; sweep linearly.
            if let Some(v) = (0..n).find(|&v| assignment[v] == usize::MAX) {
                assignment[v] = p;
                part_w[p] += g.node_w[v];
                remaining -= 1;
                continue;
            }
            break;
        };
        assignment[v] = p;
        part_w[p] += g.node_w[v];
        remaining -= 1;
        if (part_w[p] as f64) < target_w * BALANCE_SLACK {
            frontiers[p].extend(g.adj[v].iter().map(|&(u, _)| u as usize));
        }
    }
    assignment
}

/// Boundary refinement: greedy gain moves subject to balance.
fn refine(g: &WeightedGraph, k: usize, assignment: &mut [usize], rng: &mut Rng) {
    let n = g.num_nodes();
    let total_w: u64 = g.node_w.iter().sum();
    let max_w = ((total_w as f64 / k as f64) * BALANCE_SLACK).ceil() as u64;
    let min_w = (((total_w as f64 / k as f64) / BALANCE_SLACK).floor() as u64).max(1);
    let mut part_w = vec![0u64; k];
    for v in 0..n {
        part_w[assignment[v]] += g.node_w[v];
    }
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..REFINE_PASSES {
        rng.shuffle(&mut order);
        let mut moved = 0usize;
        for &v in &order {
            let from = assignment[v];
            // Connectivity to each part.
            let mut conn = vec![0u64; k];
            let mut is_boundary = false;
            for &(u, w) in &g.adj[v] {
                let pu = assignment[u as usize];
                conn[pu] += w;
                if pu != from {
                    is_boundary = true;
                }
            }
            if !is_boundary || part_w[from] < min_w + g.node_w[v] {
                continue;
            }
            // Best destination by gain.
            let mut best_to = from;
            let mut best_gain = 0i64;
            for to in 0..k {
                if to == from || part_w[to] + g.node_w[v] > max_w {
                    continue;
                }
                let gain = conn[to] as i64 - conn[from] as i64;
                if gain > best_gain {
                    best_gain = gain;
                    best_to = to;
                }
            }
            if best_to != from {
                assignment[v] = best_to;
                part_w[from] -= g.node_w[v];
                part_w[best_to] += g.node_w[v];
                moved += 1;
            }
        }
        if moved == 0 {
            break;
        }
    }
}

/// Uniform random partition baseline.
pub fn random_partition(graph: &CsrGraph, k: usize, rng: &mut Rng) -> Partition {
    assert!(k > 0, "k must be positive");
    let assignment = (0..graph.num_nodes()).map(|_| rng.below(k)).collect();
    Partition::new(k, assignment)
}

/// Contiguous block partition baseline (`v -> v * k / n`).
pub fn block_partition(graph: &CsrGraph, k: usize) -> Partition {
    assert!(k > 0, "k must be positive");
    let n = graph.num_nodes();
    let assignment = (0..n).map(|v| (v * k / n.max(1)).min(k - 1)).collect();
    Partition::new(k, assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{sbm, skewed_communities};
    use crate::stats::edge_cut;

    fn community_graph(n: usize, classes: usize, seed: u64) -> (CsrGraph, Vec<usize>) {
        let mut rng = Rng::seed_from(seed);
        let blocks = skewed_communities(n, classes, &mut rng);
        let g = sbm(&blocks, 10.0, 1.5, &mut rng);
        (g, blocks)
    }

    #[test]
    fn partition_assigns_every_node() {
        let (g, _) = community_graph(1000, 8, 1);
        let mut rng = Rng::seed_from(2);
        let p = metis_like(&g, 4, &mut rng);
        assert_eq!(p.assignment.len(), 1000);
        assert!(p.assignment.iter().all(|&q| q < 4));
    }

    #[test]
    fn partition_is_balanced() {
        let (g, _) = community_graph(2000, 8, 3);
        let mut rng = Rng::seed_from(4);
        let p = metis_like(&g, 4, &mut rng);
        assert!(p.imbalance() < 1.10, "imbalance {}", p.imbalance());
    }

    #[test]
    fn beats_random_partition_on_cut() {
        let (g, _) = community_graph(1500, 8, 5);
        let mut rng = Rng::seed_from(6);
        let ours = metis_like(&g, 4, &mut rng);
        let rand = random_partition(&g, 4, &mut rng);
        let cut_ours = edge_cut(&g, &ours);
        let cut_rand = edge_cut(&g, &rand);
        assert!(
            (cut_ours as f64) < 0.6 * cut_rand as f64,
            "ours {cut_ours} vs random {cut_rand}"
        );
    }

    #[test]
    fn respects_community_structure_when_k_matches() {
        // 4 well-separated communities, k=4: cut should be near the number of
        // inter-community edges.
        let mut rng = Rng::seed_from(7);
        let blocks: Vec<usize> = (0..800).map(|v| v / 200).collect();
        let g = sbm(&blocks, 12.0, 0.5, &mut rng);
        let p = metis_like(&g, 4, &mut rng);
        let inter = g
            .edges()
            .filter(|&(u, v)| blocks[u as usize] != blocks[v as usize])
            .count();
        let cut = edge_cut(&g, &p);
        assert!(
            cut <= inter * 3 + 50,
            "cut {cut} should be close to intrinsic inter-community edges {inter}"
        );
    }

    #[test]
    fn k_equals_one() {
        let (g, _) = community_graph(100, 4, 8);
        let mut rng = Rng::seed_from(9);
        let p = metis_like(&g, 1, &mut rng);
        assert!(p.assignment.iter().all(|&q| q == 0));
        assert_eq!(edge_cut(&g, &p), 0);
    }

    #[test]
    fn empty_graph_partition() {
        let g = CsrGraph::from_edges(0, &[]);
        let mut rng = Rng::seed_from(10);
        let p = metis_like(&g, 4, &mut rng);
        assert!(p.assignment.is_empty());
    }

    #[test]
    fn small_graph_each_node_own_part() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut rng = Rng::seed_from(11);
        let p = metis_like(&g, 4, &mut rng);
        let mut sizes = p.part_sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 1, 1, 1]);
    }

    #[test]
    fn deterministic_given_seed() {
        let (g, _) = community_graph(600, 6, 12);
        let p1 = metis_like(&g, 3, &mut Rng::seed_from(42));
        let p2 = metis_like(&g, 3, &mut Rng::seed_from(42));
        assert_eq!(p1, p2);
    }

    #[test]
    fn disconnected_graph_handled() {
        // Two cliques with no connection.
        let mut edges = Vec::new();
        for u in 0..10u32 {
            for v in (u + 1)..10 {
                edges.push((u, v));
                edges.push((u + 10, v + 10));
            }
        }
        let g = CsrGraph::from_edges(20, &edges);
        let mut rng = Rng::seed_from(13);
        let p = metis_like(&g, 2, &mut rng);
        assert_eq!(
            edge_cut(&g, &p),
            0,
            "perfect split exists and should be found"
        );
    }

    #[test]
    fn block_partition_is_contiguous() {
        let g = CsrGraph::from_edges(10, &[]);
        let p = block_partition(&g, 3);
        for w in p.assignment.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(p.part_sizes().iter().sum::<usize>(), 10);
    }

    #[test]
    fn random_partition_covers_all_parts() {
        let g = CsrGraph::from_edges(1000, &[]);
        let mut rng = Rng::seed_from(14);
        let p = random_partition(&g, 8, &mut rng);
        assert!(p.part_sizes().iter().all(|&s| s > 0));
    }

    #[test]
    #[should_panic(expected = "assignment out of range")]
    fn partition_new_validates() {
        let _ = Partition::new(2, vec![0, 2]);
    }
}

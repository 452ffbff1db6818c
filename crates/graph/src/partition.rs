//! A from-scratch multilevel graph partitioner in the spirit of METIS.
//!
//! The paper partitions input graphs with DGL's built-in METIS. METIS is not
//! available here, so this module implements the same three-phase multilevel
//! scheme (Karypis & Kumar 1997):
//!
//! 1. **Coarsening** — repeated heavy-edge matching merges matched node pairs
//!    until the graph has about 30 nodes per part; O(n + m) per level, plus
//!    sorting each coarse node's neighbor list;
//! 2. **Initial partitioning** — greedy region growing on the coarsest graph,
//!    balanced by (merged) node weight. The coarsest graph is not small (22
//!    700 nodes at k = 1024), so nothing here scans all parts per node: a
//!    heap finds the lightest part, and node-to-part connectivity is kept as
//!    nodes are assigned;
//! 3. **Uncoarsening + refinement** — the assignment is projected back level
//!    by level, running boundary Kernighan–Lin-style gain moves at each
//!    level subject to a balance constraint; O(n + m) per pass, since a node
//!    reads only the parts its neighbors are in.
//!
//! Each phase picks exactly what a dense scan over all `k` parts would
//! (DESIGN.md, "Set-up in time linear in edges"); a test-only copy of the
//! dense phases (`partition/oracle.rs`) is the oracle that checks it.
//!
//! Random and block partitioners are provided as baselines for tests and
//! ablations.

use crate::CsrGraph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// Symmetric, as [`CsrGraph`] is, and every edge weight is at least 1.
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
        assignment = maps[li].iter().map(|&c| assignment[c as usize]).collect();
        refine(&levels[li], k, &mut assignment, rng);
    }

    Partition::try_new(k, assignment)
}

/// One round of heavy-edge matching; returns the coarse graph and the
/// fine-to-coarse map.
///
/// Costs O(n + m) plus a sort of each coarse node's neighbor list: each
/// coarse node's list is accumulated from its representative's and its
/// mate's lists into a dense per-coarse-node accumulator, and only the
/// entries touched are read back and reset.
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
    // Assign coarse ids; `reps[c]` is the lower-numbered node of pair `c`.
    let mut coarse_of = vec![u32::MAX; n];
    let mut reps: Vec<usize> = Vec::new();
    for v in 0..n {
        if coarse_of[v] != u32::MAX {
            continue;
        }
        let c = reps.len() as u32;
        coarse_of[v] = c;
        coarse_of[mate[v] as usize] = c;
        reps.push(v);
    }
    // Build coarse graph. Edge weights are at least 1, so a zero in `acc`
    // marks a coarse neighbor not yet touched by the current coarse node.
    let mut node_w = Vec::with_capacity(reps.len());
    let mut adj = Vec::with_capacity(reps.len());
    let mut acc = vec![0u64; reps.len()];
    let mut touched: Vec<u32> = Vec::new();
    for (c, &v) in reps.iter().enumerate() {
        let m = mate[v] as usize;
        let members: &[usize] = if m == v { &[v] } else { &[v, m] };
        node_w.push(members.iter().map(|&x| g.node_w[x]).sum::<u64>());
        for &x in members {
            for &(u, w) in &g.adj[x] {
                let cu = coarse_of[u as usize];
                if cu as usize != c {
                    if acc[cu as usize] == 0 {
                        touched.push(cu);
                    }
                    acc[cu as usize] += w;
                }
            }
        }
        touched.sort_unstable();
        // Each undirected edge visited from both endpoints: halve.
        adj.push(
            touched
                .iter()
                .map(|&cu| (cu, std::mem::take(&mut acc[cu as usize]).div_ceil(2).max(1)))
                .collect::<Vec<_>>(),
        );
        touched.clear();
    }
    (WeightedGraph { node_w, adj }, coarse_of)
}

/// Greedy region growing for the initial partition of the coarsest graph.
///
/// The lightest part (lowest-numbered on ties) takes the unassigned node of
/// its frontier most connected to it (earliest in the frontier on ties), or
/// the next spare node once its frontier runs dry. A `(weight, part)` heap
/// finds that part in O(log k), and each unassigned node keeps its
/// connectivity to the parts around it up to date as its neighbors are
/// assigned (O(m · parts per node) in all), so a pick costs one pass over
/// the part's frontier with a lookup in a short list per entry.
fn grow_initial(g: &WeightedGraph, k: usize, rng: &mut Rng) -> Vec<usize> {
    let n = g.num_nodes();
    let total_w: u64 = g.node_w.iter().sum();
    let target_w = total_w as f64 / k as f64;
    let mut grow = Growth {
        assignment: vec![usize::MAX; n],
        part_w: vec![0u64; k],
        conn: vec![Vec::new(); n],
    };

    // Seeds: random distinct nodes.
    let mut seeds: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut seeds);
    let mut frontiers: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (p, &s) in seeds.iter().take(k).enumerate() {
        grow.join(g, s, p);
        frontiers[p].extend(g.adj[s].iter().map(|&(u, _)| u as usize));
    }
    // `(weight, part)` order pops the lowest-numbered of the lightest parts.
    let mut lightest: BinaryHeap<Reverse<(u64, usize)>> =
        grow.part_w.iter().copied().zip(0..).map(Reverse).collect();
    // Every non-seed node, and so every node still unassigned: nodes leave
    // it only when popped, and a popped node is skipped only if assigned.
    let mut spare = seeds.split_off(k);
    for _ in k..n {
        let Some(Reverse((_, p))) = lightest.pop() else {
            break;
        };
        frontiers[p].retain(|&v| grow.assignment[v] == usize::MAX);
        let mut best: Option<(usize, u64)> = None;
        for (idx, &v) in frontiers[p].iter().enumerate() {
            let c = grow.conn[v]
                .iter()
                .find(|&&(q, _)| q == p)
                .map_or(0, |&(_, w)| w);
            if best.is_none_or(|(_, bc)| c > bc) {
                best = Some((idx, c));
            }
        }
        let picked = match best {
            Some((idx, _)) => Some(frontiers[p].swap_remove(idx)),
            // Frontier exhausted: steal any unassigned node.
            None => std::iter::from_fn(|| spare.pop()).find(|&v| grow.assignment[v] == usize::MAX),
        };
        let Some(v) = picked else {
            break;
        };
        grow.join(g, v, p);
        lightest.push(Reverse((grow.part_w[p], p)));
        if (grow.part_w[p] as f64) < target_w * BALANCE_SLACK {
            frontiers[p].extend(g.adj[v].iter().map(|&(u, _)| u as usize));
        }
    }
    grow.assignment
}

/// Region-growing state.
struct Growth {
    assignment: Vec<usize>,
    part_w: Vec<u64>,
    /// For each unassigned node, `(part, weight of its edges into part)`
    /// for every part that holds a neighbor of it.
    conn: Vec<Vec<(usize, u64)>>,
}

impl Growth {
    /// Assigns `v` to part `p` and credits `v`'s edges to its unassigned
    /// neighbors. The adjacency is symmetric, so this is the connectivity
    /// each neighbor would read off its own list.
    fn join(&mut self, g: &WeightedGraph, v: usize, p: usize) {
        self.assignment[v] = p;
        self.part_w[p] += g.node_w[v];
        self.conn[v] = Vec::new();
        for &(u, w) in &g.adj[v] {
            let u = u as usize;
            if self.assignment[u] != usize::MAX {
                continue;
            }
            match self.conn[u].iter_mut().find(|(q, _)| *q == p) {
                Some((_, cw)) => *cw += w,
                None => self.conn[u].push((p, w)),
            }
        }
    }
}

/// Boundary refinement: greedy gain moves subject to balance.
///
/// A pass costs O(n + m): a node its part cannot spare is skipped in O(1),
/// an interior node after reading its list up to the first outside
/// neighbor, and a boundary node accumulates its connectivity into one
/// reused array and reads back and resets only the parts it touched.
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
    // Connectivity to each part; zero outside `touched` between nodes.
    // Edge weights are at least 1, so zero also means "not touched yet".
    let mut conn = vec![0u64; k];
    let mut touched: Vec<usize> = Vec::new();
    for _ in 0..REFINE_PASSES {
        rng.shuffle(&mut order);
        let mut moved = 0usize;
        for &v in &order {
            let from = assignment[v];
            let w_v = g.node_w[v];
            if part_w[from] < min_w + w_v
                || g.adj[v]
                    .iter()
                    .all(|&(u, _)| assignment[u as usize] == from)
            {
                continue;
            }
            for &(u, w) in &g.adj[v] {
                let pu = assignment[u as usize];
                if conn[pu] == 0 {
                    touched.push(pu);
                }
                conn[pu] += w;
            }
            // Best destination: the lowest-numbered part of maximal
            // positive gain, whatever the order of `touched`. A positive
            // gain needs a neighbor in the destination, so no untouched
            // part can win.
            let mut best_to = from;
            let mut best_gain = 0i64;
            for &to in &touched {
                if to == from || part_w[to] + w_v > max_w {
                    continue;
                }
                let gain = conn[to] as i64 - conn[from] as i64;
                if gain > best_gain || (gain == best_gain && gain > 0 && to < best_to) {
                    best_gain = gain;
                    best_to = to;
                }
            }
            for &p in &touched {
                conn[p] = 0;
            }
            touched.clear();
            if best_to != from {
                assignment[v] = best_to;
                part_w[from] -= w_v;
                part_w[best_to] += w_v;
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
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{sbm, skewed_communities};
    use crate::stats::edge_cut;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The linear-time phases pick exactly what the dense ones picked:
        /// the same matchings, seeds, growth order and refinement moves.
        #[test]
        fn sparse_phases_match_the_dense_oracle(
            shape in 0usize..3,
            n in 40usize..2500,
            k in 2usize..65,
            seed in 0u64..1_000_000,
        ) {
            let n = n.max(k);
            let mut rng = Rng::seed_from(seed);
            let g = match shape {
                // Community graph: coarsens for every k below n / 30.
                0 => {
                    let classes = 2 + rng.below(12).min(n - 2);
                    let blocks = skewed_communities(n, classes, &mut rng);
                    sbm(&blocks, 2.0 + rng.below(12) as f64, rng.below(4) as f64, &mut rng)
                }
                // Star: heavy-edge matching degenerates after one round.
                1 => {
                    let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (0, v)).collect();
                    CsrGraph::from_edges(n, &edges)
                }
                // Disconnected: communities with no edge between them, and
                // isolated nodes, so growth runs out of frontier.
                _ => {
                    let blocks = skewed_communities(n, 2 + rng.below(6).min(n - 2), &mut rng);
                    let g = sbm(&blocks, 1.0 + rng.below(6) as f64, 0.0, &mut rng);
                    let edges: Vec<(u32, u32)> = g
                        .edges()
                        .filter(|&(u, v)| u % 7 != 0 && v % 7 != 0)
                        .collect();
                    CsrGraph::from_edges(n, &edges)
                }
            };
            let got = try_metis_like(&g, k, &mut Rng::seed_from(seed ^ 1)).expect("k <= n");
            let want = oracle::metis_like(&g, k, &mut Rng::seed_from(seed ^ 1));
            prop_assert_eq!(got.assignment, want);
        }
    }

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

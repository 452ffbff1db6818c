//! Compressed-sparse-row graph storage.

use serde::{Deserialize, Serialize};

/// An undirected graph in CSR form.
///
/// Edges are stored symmetrically: if `(u, v)` is an edge then `v` appears in
/// `neighbors(u)` and `u` in `neighbors(v)`. Self loops are allowed (GCN adds
/// them explicitly via [`CsrGraph::with_self_loops`]). Neighbor lists are
/// sorted and deduplicated.
///
/// # Example
///
/// ```
/// use graph::CsrGraph;
///
/// let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.num_directed_edges(), 4); // each edge stored both ways
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl CsrGraph {
    /// Builds a graph from an undirected edge list.
    ///
    /// Duplicate edges and both orientations of the same edge are collapsed;
    /// self loops in the input are kept (once).
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_nodes`.
    pub fn from_edges(num_nodes: usize, edges: &[(u32, u32)]) -> Self {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); num_nodes];
        for &(u, v) in edges {
            let (u, v) = (u as usize, v as usize);
            assert!(
                u < num_nodes && v < num_nodes,
                "edge ({u},{v}) out of range"
            );
            adj[u].push(v as u32);
            if u != v {
                adj[v].push(u as u32);
            }
        }
        Self::from_adjacency(adj)
    }

    /// Builds a graph from per-node neighbor lists (will be sorted/deduped).
    pub fn from_adjacency(mut adj: Vec<Vec<u32>>) -> Self {
        let n = adj.len();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut targets = Vec::new();
        for nbrs in &mut adj {
            nbrs.sort_unstable();
            nbrs.dedup();
            targets.extend_from_slice(nbrs);
            offsets.push(targets.len());
        }
        Self { offsets, targets }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed adjacency entries (twice the undirected edge count
    /// for loop-free graphs; self loops count once).
    #[inline]
    pub fn num_directed_edges(&self) -> usize {
        self.targets.len()
    }

    /// Sorted neighbor list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_nodes()`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of `v` (number of adjacency entries, self loop counts once).
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// True if `(u, v)` is an edge.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.neighbors(u).binary_search(&(v as u32)).is_ok()
    }

    /// Returns a copy with a self loop added at every node (the `A + I`
    /// augmentation GCN uses).
    pub fn with_self_loops(&self) -> CsrGraph {
        let n = self.num_nodes();
        let mut adj: Vec<Vec<u32>> = Vec::with_capacity(n);
        for v in 0..n {
            let mut nbrs = self.neighbors(v).to_vec();
            if !self.has_edge(v, v) {
                nbrs.push(v as u32);
            }
            adj.push(nbrs);
        }
        CsrGraph::from_adjacency(adj)
    }

    /// Symmetric GCN normalization coefficient
    /// `alpha_{u,v} = 1 / sqrt(deg(u) * deg(v))` for this graph's degrees.
    ///
    /// Call on a graph that already includes self loops to reproduce the
    /// standard `D^-1/2 (A+I) D^-1/2` propagation.
    #[inline]
    pub fn gcn_coeff(&self, u: usize, v: usize) -> f32 {
        let du = self.degree(u).max(1) as f32;
        let dv = self.degree(v).max(1) as f32;
        1.0 / (du * dv).sqrt()
    }

    /// Mean-aggregation coefficient `1 / deg(v)` (GraphSAGE-mean).
    #[inline]
    pub fn mean_coeff(&self, v: usize) -> f32 {
        1.0 / self.degree(v).max(1) as f32
    }

    /// Iterator over all undirected edges `(u, v)` with `u <= v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.num_nodes()).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&v| v as usize >= u)
                .map(move |&v| (u as u32, v))
        })
    }

    /// Average degree.
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.num_directed_edges() as f64 / self.num_nodes() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_symmetrizes_and_dedupes() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 0), (0, 1), (2, 3)]);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.num_directed_edges(), 4);
    }

    #[test]
    fn self_loop_in_input_kept_once() {
        let g = CsrGraph::from_edges(2, &[(0, 0), (0, 1)]);
        assert_eq!(g.neighbors(0), &[0, 1]);
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn with_self_loops_adds_exactly_one_per_node() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]);
        let sl = g.with_self_loops();
        for v in 0..3 {
            assert!(sl.has_edge(v, v));
        }
        assert_eq!(sl.num_directed_edges(), g.num_directed_edges() + 3);
        // Idempotent.
        assert_eq!(sl.with_self_loops(), sl);
    }

    #[test]
    fn gcn_coeff_matches_formula() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]).with_self_loops();
        // deg(0)=2, deg(1)=3 after self loops.
        let c = g.gcn_coeff(0, 1);
        assert!((c - 1.0 / (2.0f32 * 3.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn mean_coeff_is_inverse_degree() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(g.mean_coeff(0), 1.0 / 3.0);
        assert_eq!(g.mean_coeff(1), 1.0);
    }

    #[test]
    fn edges_iterator_counts_undirected_edges() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        assert_eq!(g.edges().count(), 5);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn isolated_nodes_have_empty_neighbor_lists() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]);
        assert_eq!(g.neighbors(2), &[] as &[u32]);
        assert_eq!(g.degree(2), 0);
    }
}

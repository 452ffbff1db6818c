//! Sparse neighborhood aggregation over an extended (local + halo) index
//! space.

use graph::CsrGraph;
use tensor::Matrix;

/// Minimum target rows per parallel chunk; sparse rows are cheap, so chunks
/// stay reasonably coarse and the queue balances out degree skew.
const AGG_MIN_CHUNK: usize = 128;

/// Adds one target row's weighted `entries` into `orow`, in stored order
/// (the summation order every digest hangs off); `x_row` maps an extended
/// index to its feature row.
///
/// Column-tiled: each tile of output columns is loaded once, summed over
/// all of the row's entries in registers, and stored once, instead of
/// moving the whole row through L1 per entry. Tiles are 64 columns (eight
/// 256-bit registers), then 32, 16 and 8, then a scalar tail. Every output
/// element still starts from `orow`'s value and adds `c * x` in entry order,
/// and Rust never contracts to FMA, so the bits do not depend on the tile
/// width, the thread count or the target ISA.
///
/// Kept out of line, re-measured (DESIGN.md §19): inlined into its callers
/// it runs up to 6 % slower, and the call is paid once per target row.
#[inline(never)]
fn accumulate<'x>(orow: &mut [f32], entries: &[(u32, f32)], x_row: impl Fn(usize) -> &'x [f32]) {
    let mut j = accumulate_tiles::<64>(orow, 0, entries, &x_row);
    j = accumulate_tiles::<32>(orow, j, entries, &x_row);
    j = accumulate_tiles::<16>(orow, j, entries, &x_row);
    j = accumulate_tiles::<8>(orow, j, entries, &x_row);
    if j == orow.len() {
        return;
    }
    let tail = &mut orow[j..];
    for &(u, c) in entries {
        for (o, &xv) in tail.iter_mut().zip(&x_row(u as usize)[j..]) {
            *o += c * xv;
        }
    }
}

/// [`accumulate`]'s `W`-column tiles from column `j` on, while a whole tile
/// fits; returns the first column left over.
#[inline(always)]
fn accumulate_tiles<'x, const W: usize>(
    orow: &mut [f32],
    mut j: usize,
    entries: &[(u32, f32)],
    x_row: &impl Fn(usize) -> &'x [f32],
) -> usize {
    while let Some(out) = orow.get_mut(j..j + W) {
        let mut acc = [0.0f32; W];
        acc.copy_from_slice(out);
        for &(u, c) in entries {
            for (a, &xv) in acc.iter_mut().zip(&x_row(u as usize)[j..j + W]) {
                *a += c * xv;
            }
        }
        out.copy_from_slice(&acc);
        j += W;
    }
    j
}

/// A weighted aggregation operator `Z = A X`, where `A` is
/// `num_target x num_ext` sparse with explicit per-edge coefficients.
///
/// For a full graph, `num_target == num_ext == |V|`. For a device-local
/// partition, targets are the local nodes and the extended space appends
/// halo slots holding remote neighbors' messages.
///
/// The same triples run the backward pass: `grad_X = A^T grad_Z`, which
/// yields gradient rows for halo slots — exactly the embedding gradients
/// ("errors") the backward pass must ship back to owner devices.
#[derive(Debug, Clone, PartialEq)]
pub struct AggGraph {
    num_target: usize,
    num_ext: usize,
    offsets: Vec<usize>,
    /// `(extended index, coefficient)` per entry, grouped by target row.
    entries: Vec<(u32, f32)>,
    /// Transposed CSR: offsets into [`AggGraph::t_entries`] per extended slot.
    t_offsets: Vec<usize>,
    /// `(target row, coefficient)` per entry, grouped by extended slot with
    /// targets ascending — the exact fold order of the serial scatter, which
    /// lets [`AggGraph::backward`] run as an order-stable parallel gather.
    t_entries: Vec<(u32, f32)>,
}

/// Streaming constructor for [`AggGraph`]: entries are appended row by row
/// directly into the CSR arrays, with no intermediate per-row `Vec`s.
///
/// # Example
///
/// ```
/// use gnn::AggGraphBuilder;
///
/// let mut b = AggGraphBuilder::new(3);
/// b.push_entry(0, 1.0);
/// b.push_entry(2, 0.5);
/// b.finish_row(); // target 0 aggregates slots 0 and 2
/// b.finish_row(); // target 1 aggregates nothing
/// let agg = b.build();
/// assert_eq!(agg.num_target(), 2);
/// assert_eq!(agg.num_entries(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct AggGraphBuilder {
    num_ext: usize,
    offsets: Vec<usize>,
    entries: Vec<(u32, f32)>,
}

impl AggGraphBuilder {
    /// Starts a builder over an extended space of `num_ext` slots.
    pub fn new(num_ext: usize) -> Self {
        Self::with_capacity(num_ext, 0, 0)
    }

    /// Like [`AggGraphBuilder::new`] with pre-sized target/entry capacity.
    pub fn with_capacity(num_ext: usize, targets_hint: usize, entries_hint: usize) -> Self {
        let mut offsets = Vec::with_capacity(targets_hint + 1);
        offsets.push(0);
        Self {
            num_ext,
            offsets,
            entries: Vec::with_capacity(entries_hint),
        }
    }

    /// Appends one weighted entry to the current target row.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= num_ext`.
    #[inline]
    pub fn push_entry(&mut self, idx: u32, coeff: f32) {
        assert!(
            (idx as usize) < self.num_ext,
            "entry {idx} out of range {}",
            self.num_ext
        );
        self.entries.push((idx, coeff));
    }

    /// Closes the current target row and starts the next one.
    #[inline]
    pub fn finish_row(&mut self) {
        self.offsets.push(self.entries.len());
    }

    /// Finalizes the CSR arrays (and the transpose) into an [`AggGraph`].
    pub fn build(self) -> AggGraph {
        let num_target = self.offsets.len() - 1;
        let (t_offsets, t_entries) =
            transpose_csr(num_target, self.num_ext, &self.offsets, &self.entries);
        AggGraph {
            num_target,
            num_ext: self.num_ext,
            offsets: self.offsets,
            entries: self.entries,
            t_offsets,
            t_entries,
        }
    }
}

/// Builds the transposed CSR by counting sort: for each extended slot `u`,
/// the `(target, coeff)` pairs appear with targets ascending, matching the
/// serial scatter's accumulation order exactly.
fn transpose_csr(
    num_target: usize,
    num_ext: usize,
    offsets: &[usize],
    entries: &[(u32, f32)],
) -> (Vec<usize>, Vec<(u32, f32)>) {
    let mut t_offsets = vec![0usize; num_ext + 1];
    for &(u, _) in entries {
        t_offsets[u as usize + 1] += 1;
    }
    for i in 1..t_offsets.len() {
        t_offsets[i] += t_offsets[i - 1];
    }
    let mut cursor = t_offsets.clone();
    let mut t_entries = vec![(0u32, 0.0f32); entries.len()];
    for v in 0..num_target {
        for &(u, c) in &entries[offsets[v]..offsets[v + 1]] {
            let slot = cursor[u as usize];
            t_entries[slot] = (v as u32, c);
            cursor[u as usize] += 1;
        }
    }
    (t_offsets, t_entries)
}

impl AggGraph {
    /// Builds from per-target neighbor lists.
    ///
    /// # Panics
    ///
    /// Panics if any entry index is `>= num_ext`.
    pub fn from_rows(num_ext: usize, rows: Vec<Vec<(u32, f32)>>) -> Self {
        let entries_hint = rows.iter().map(Vec::len).sum();
        let mut b = AggGraphBuilder::with_capacity(num_ext, rows.len(), entries_hint);
        for row in rows {
            for (idx, c) in row {
                b.push_entry(idx, c);
            }
            b.finish_row();
        }
        b.build()
    }

    /// Builds a full-graph operator straight from CSR adjacency, one target
    /// row per node, with `coeff(u, v)` supplying the weight of source `u`
    /// into target `v`. No intermediate per-row allocations.
    pub fn from_csr_with(graph: &CsrGraph, mut coeff: impl FnMut(u32, usize) -> f32) -> Self {
        let n = graph.num_nodes();
        let mut b = AggGraphBuilder::with_capacity(n, n, graph.num_directed_edges());
        for v in 0..n {
            for &u in graph.neighbors(v) {
                b.push_entry(u, coeff(u, v));
            }
            b.finish_row();
        }
        b.build()
    }

    /// GCN aggregation for a whole graph: `alpha_{u,v} = 1/sqrt(d_u d_v)`
    /// over `graph` (which should already contain self loops).
    pub fn full_graph_gcn(graph: &CsrGraph) -> Self {
        Self::from_csr_with(graph, |u, v| graph.gcn_coeff(u as usize, v))
    }

    /// Number of target rows produced by [`AggGraph::aggregate`].
    pub fn num_target(&self) -> usize {
        self.num_target
    }

    /// Size of the extended input index space.
    pub fn num_ext(&self) -> usize {
        self.num_ext
    }

    /// Number of weighted edges.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// Number of weighted edges feeding the given target rows (the exact
    /// multiply-add count of [`AggGraph::aggregate_rows`] per feature
    /// column). Used by the simulated clock's analytic compute model.
    ///
    /// # Panics
    ///
    /// Panics if a target is out of range.
    pub fn entries_for(&self, targets: &[u32]) -> usize {
        targets
            .iter()
            .map(|&t| {
                let v = t as usize;
                assert!(v < self.num_target, "target {v} out of range");
                self.offsets[v + 1] - self.offsets[v]
            })
            .sum()
    }

    /// The one forward loop: output row `k` is target row `target(k)`'s
    /// weighted entries, added in stored order (the summation order every
    /// digest hangs off), with `x_row` mapping an extended index to its
    /// feature row.
    fn fold_rows<'x>(
        &self,
        (rows, cols): (usize, usize),
        target: impl Fn(usize) -> usize + Sync,
        x_row: impl Fn(usize) -> &'x [f32] + Sync,
    ) -> Matrix {
        let mut out = Matrix::zeros(rows, cols);
        // Multiply-adds: `rows` targets of average degree.
        let work = self.entries.len() * cols / self.num_target.max(1) * rows;
        tensor::par::par_chunks_deterministic(
            out.as_mut_slice(),
            rows,
            AGG_MIN_CHUNK,
            work,
            |s, e, chunk| {
                for (local, k) in (s..e).enumerate() {
                    let v = target(k);
                    let orow = &mut chunk[local * cols..(local + 1) * cols];
                    let entries = &self.entries[self.offsets[v]..self.offsets[v + 1]];
                    accumulate(orow, entries, &x_row);
                }
            },
        );
        out
    }

    /// Forward aggregation `Z = A X`.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != num_ext()`.
    pub fn aggregate(&self, x: &Matrix) -> Matrix {
        assert_eq!(
            x.rows(),
            self.num_ext,
            "input rows must cover extended space"
        );
        self.fold_rows((self.num_target, x.cols()), |v| v, |u| x.row(u))
    }

    /// Forward aggregation `Z = A [local; halo]` without stacking the two:
    /// extended index `u` reads `local.row(u)` when `u < local.rows()`, else
    /// `halo.row(u - local.rows())`.
    ///
    /// # Panics
    ///
    /// Panics if the two blocks' widths differ or their rows do not add up
    /// to `num_ext()`.
    pub fn aggregate_with_halo(&self, local: &Matrix, halo: &Matrix) -> Matrix {
        let (num_local, cols) = local.shape();
        assert_eq!(halo.cols(), cols, "local and halo widths differ");
        assert_eq!(
            num_local + halo.rows(),
            self.num_ext,
            "input rows must cover extended space"
        );
        // Which block a neighbor sits in is a coin flip on a cut-heavy
        // partition, so it is selected rather than branched on.
        let (local_rows, halo_rows) = (local.as_slice(), halo.as_slice());
        let x_row = |u: usize| {
            let in_halo = u >= num_local;
            let block = std::hint::select_unpredictable(in_halo, halo_rows, local_rows);
            let row = std::hint::select_unpredictable(in_halo, u.wrapping_sub(num_local), u);
            &block[row * cols..(row + 1) * cols]
        };
        self.fold_rows((self.num_target, cols), |v| v, x_row)
    }

    /// Forward aggregation restricted to the target rows in `targets`;
    /// returns a `targets.len() x cols` matrix in the given order. Used to
    /// compute the central graph while marginal messages are still in
    /// flight.
    ///
    /// # Panics
    ///
    /// Panics if any target is out of range or `x.rows() != num_ext()`.
    pub fn aggregate_rows(&self, x: &Matrix, targets: &[u32]) -> Matrix {
        assert_eq!(
            x.rows(),
            self.num_ext,
            "input rows must cover extended space"
        );
        let target = |k: usize| {
            let v = targets[k] as usize;
            assert!(v < self.num_target, "target {v} out of range");
            v
        };
        self.fold_rows((targets.len(), x.cols()), target, |u| x.row(u))
    }

    /// Backward pass `grad_X = A^T grad_Z` over the full extended space.
    ///
    /// Runs as a row-parallel gather over the precomputed transpose; each
    /// extended slot sums its incoming terms in ascending-target order, the
    /// same fold order as a serial scatter, so the result is bitwise stable
    /// at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `grad.rows() != num_target()`.
    pub fn backward(&self, grad: &Matrix) -> Matrix {
        assert_eq!(grad.rows(), self.num_target, "grad rows must match targets");
        let cols = grad.cols();
        let mut out = Matrix::zeros(self.num_ext, cols);
        tensor::par::par_chunks_deterministic(
            out.as_mut_slice(),
            self.num_ext,
            AGG_MIN_CHUNK,
            self.t_entries.len() * cols,
            |s, e, chunk| {
                for (local, u) in (s..e).enumerate() {
                    let orow = &mut chunk[local * cols..(local + 1) * cols];
                    let incoming = &self.t_entries[self.t_offsets[u]..self.t_offsets[u + 1]];
                    accumulate(orow, incoming, |v| grad.row(v));
                }
            },
        );
        out
    }

    /// Sum of squared coefficients applied to extended slot `u` across all
    /// targets — the `sum_alpha_sq` factor of `beta_k` (Sec. 4.2).
    pub fn sum_alpha_sq(&self) -> Vec<f64> {
        let mut sums = vec![0.0f64; self.num_ext];
        for &(u, c) in &self.entries {
            sums[u as usize] += (c as f64) * (c as f64);
        }
        sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::CsrGraph;

    fn path3() -> CsrGraph {
        CsrGraph::from_edges(3, &[(0, 1), (1, 2)]).with_self_loops()
    }

    #[test]
    fn full_graph_gcn_matches_dense_reference() {
        let g = path3();
        let agg = AggGraph::full_graph_gcn(&g);
        // Dense normalized adjacency.
        let mut a = Matrix::zeros(3, 3);
        for v in 0..3 {
            for &u in g.neighbors(v) {
                a.set(v, u as usize, g.gcn_coeff(u as usize, v));
            }
        }
        let x = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f32 * 0.3 - 1.0);
        let fast = agg.aggregate(&x);
        let dense = a.matmul(&x);
        for (p, q) in fast.as_slice().iter().zip(dense.as_slice()) {
            assert!((p - q).abs() < 1e-5);
        }
    }

    #[test]
    fn mean_aggregation_averages_neighbors() {
        // SAGE-mean's coefficients, as `adaqp::build_partitions` writes them.
        let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2)]);
        let agg = AggGraph::from_csr_with(&g, |_, v| g.mean_coeff(v));
        let x = Matrix::from_rows(&[&[0.0], &[2.0], &[4.0]]);
        let z = agg.aggregate(&x);
        assert!((z.at(0, 0) - 3.0).abs() < 1e-6); // mean(2, 4)
        assert!((z.at(1, 0) - 0.0).abs() < 1e-6); // mean(0)
    }

    #[test]
    fn backward_is_transpose_of_forward() {
        // <A x, y> == <x, A^T y> for random x, y.
        let g = path3();
        let agg = AggGraph::full_graph_gcn(&g);
        let mut rng = tensor::Rng::seed_from(3);
        let x = Matrix::from_fn(3, 5, |_, _| rng.uniform(-1.0, 1.0));
        let y = Matrix::from_fn(3, 5, |_, _| rng.uniform(-1.0, 1.0));
        let ax = agg.aggregate(&x);
        let aty = agg.backward(&y);
        let lhs: f32 = ax
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let rhs: f32 = x
            .as_slice()
            .iter()
            .zip(aty.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-4, "{lhs} vs {rhs}");
    }

    #[test]
    fn aggregate_rows_subset_matches_full() {
        let g = path3();
        let agg = AggGraph::full_graph_gcn(&g);
        let x = Matrix::from_fn(3, 2, |i, j| (i + j) as f32);
        let full = agg.aggregate(&x);
        let sub = agg.aggregate_rows(&x, &[2, 0]);
        assert_eq!(sub.row(0), full.row(2));
        assert_eq!(sub.row(1), full.row(0));
    }

    #[test]
    fn halo_extended_space() {
        // 2 local targets, 3 extended slots (slot 2 is a halo copy).
        let agg = AggGraph::from_rows(3, vec![vec![(0, 1.0), (2, 0.5)], vec![(1, 1.0)]]);
        assert_eq!(agg.num_target(), 2);
        assert_eq!(agg.num_ext(), 3);
        let x = Matrix::from_rows(&[&[1.0], &[2.0], &[4.0]]);
        let z = agg.aggregate(&x);
        assert_eq!(z.at(0, 0), 3.0); // 1 + 0.5*4
        assert_eq!(z.at(1, 0), 2.0);
        // Backward produces a gradient row for the halo slot.
        let grad = Matrix::from_rows(&[&[1.0], &[1.0]]);
        let gx = agg.backward(&grad);
        assert_eq!(gx.at(2, 0), 0.5);
    }

    #[test]
    fn sum_alpha_sq_accumulates() {
        let agg = AggGraph::from_rows(2, vec![vec![(0, 2.0), (1, 1.0)], vec![(1, 3.0)]]);
        let s = agg.sum_alpha_sq();
        assert_eq!(s, vec![4.0, 10.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_rows_validates_indices() {
        let _ = AggGraph::from_rows(1, vec![vec![(1, 1.0)]]);
    }

    #[test]
    fn empty_targets() {
        let agg = AggGraph::from_rows(4, vec![]);
        let x = Matrix::zeros(4, 3);
        assert_eq!(agg.aggregate(&x).shape(), (0, 3));
        assert_eq!(agg.backward(&Matrix::zeros(0, 3)).shape(), (4, 3));
    }
}

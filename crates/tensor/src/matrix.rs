//! Row-major dense `f32` matrix.

use crate::ShapeError;

/// Number of rows of the left operand below which matmul stays single
/// threaded; parallelism only pays off for the large feature matrices that
/// full-graph training produces.
const PAR_ROW_THRESHOLD: usize = 256;

/// Output rows per register tile of the product kernel.
const TILE_ROWS: usize = 2;

/// `k` steps a tile's accumulators stay in registers before they are stored.
const TILE_K: usize = 4;

/// Rows of the operands `matmul_tn` transposes into scratch at a time:
/// 32 x 128 columns is 16 KB, so the packed block and the matching block of
/// the right operand both stay in L1 while the kernel sweeps the output.
const TN_BLOCK: usize = 32;

/// A dense row-major `f32` matrix.
///
/// This is the workhorse value type of the workspace: node feature tables,
/// layer weights, embeddings and embedding gradients are all `Matrix` values.
///
/// # Example
///
/// ```
/// use tensor::Matrix;
///
/// let m = Matrix::zeros(2, 3);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// assert_eq!(m.row(1), &[0.0, 0.0, 0.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data buffer.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> crate::Result<Self> {
        if data.len() != rows * cols {
            return Err(ShapeError {
                op: "Matrix::from_vec",
                expected: (rows, cols),
                found: (data.len(), 1),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from explicit row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows` or `j >= cols`.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.cols + j]
    }

    /// Sets element `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows` or `j >= cols`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        self.data[i * self.cols + j] = v;
    }

    /// Immutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns a new matrix holding the selected rows, in order.
    ///
    /// This is the gather primitive used to build message payloads for remote
    /// neighbors.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Returns a new matrix holding the first `n` rows.
    ///
    /// # Panics
    ///
    /// Panics if `n > rows`.
    pub fn top_rows(&self, n: usize) -> Matrix {
        Matrix {
            rows: n,
            cols: self.cols,
            data: self.data[..n * self.cols].to_vec(),
        }
    }

    /// Adds each row of `src` into the row of `self` selected by `indices`
    /// (`self[indices[k]] += src[k]`). The scatter-add primitive used when
    /// accumulating received remote embedding gradients.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree or any index is out of bounds.
    pub fn scatter_add_rows(&mut self, indices: &[usize], src: &Matrix) {
        assert_eq!(indices.len(), src.rows(), "index/row count mismatch");
        assert_eq!(self.cols, src.cols(), "column mismatch");
        for (k, &dst) in indices.iter().enumerate() {
            let row = self.row_mut(dst);
            for (r, s) in row.iter_mut().zip(src.row(k)) {
                *r += s;
            }
        }
    }

    /// Matrix product `self * rhs`.
    ///
    /// Every output element is the `f32` sum of its `self.cols()` products
    /// in ascending `k`, starting from `+0.0`; all three products share one
    /// kernel and this order. No term is skipped, so non-finite values
    /// propagate as IEEE-754 says: `0 * inf` and `0 * NaN` are `NaN`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: lhs is {}x{}, rhs is {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        if self.rows >= PAR_ROW_THRESHOLD && rhs.cols > 0 {
            // Output rows are independent, so the row-chunked parallel run
            // is bitwise identical to the serial one.
            crate::par::par_chunks_deterministic(
                &mut out.data,
                self.rows,
                PAR_ROW_THRESHOLD / 4,
                self.rows * self.cols * rhs.cols,
                |s, e, chunk| {
                    gemm_acc(
                        &self.data[s * self.cols..e * self.cols],
                        self.cols,
                        &rhs.data,
                        rhs.cols,
                        chunk,
                    );
                },
            );
        } else {
            gemm_acc(&self.data, self.cols, &rhs.data, rhs.cols, &mut out.data);
        }
        out
    }

    /// Matrix product `self^T * rhs` without materializing the transpose.
    ///
    /// Each output element sums its products in ascending row order (see
    /// [`Matrix::matmul`]); from 256 rows up it does so per fixed 64-row
    /// chunk and adds the chunk sums in chunk order, at any thread count.
    /// Non-finite values propagate: `0 * inf` and `0 * NaN` are `NaN`.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn: lhs is {}x{}, rhs is {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        // out[c1][c2] = sum_r lhs[r][c1] * rhs[r][c2]
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        if self.rows >= PAR_ROW_THRESHOLD && self.cols * rhs.cols > 0 {
            // Row reduction: each fixed row chunk accumulates into its own
            // partial buffer and the partials are merged serially in chunk
            // order, so the result depends only on the problem-size-derived
            // boundaries, never on the thread count. This path is taken even
            // at one thread to keep the bytes identical across thread counts.
            let ranges = crate::par::chunk_ranges(self.rows, PAR_ROW_THRESHOLD / 4);
            let mut partials = vec![vec![0.0f32; self.cols * rhs.cols]; ranges.len()];
            let tasks: Vec<((usize, usize), &mut Vec<f32>)> =
                ranges.iter().copied().zip(partials.iter_mut()).collect();
            let work = self.rows * self.cols * rhs.cols;
            crate::par::run_range_tasks(
                "tensor::matmul_tn",
                self.rows,
                work,
                tasks,
                |s, e, buf| {
                    gemm_tn_acc(
                        &self.data[s * self.cols..e * self.cols],
                        self.cols,
                        &rhs.data[s * rhs.cols..e * rhs.cols],
                        rhs.cols,
                        buf,
                    );
                },
            );
            for buf in &partials {
                for (o, v) in out.data.iter_mut().zip(buf) {
                    *o += v;
                }
            }
            return out;
        }
        gemm_tn_acc(&self.data, self.cols, &rhs.data, rhs.cols, &mut out.data);
        out
    }

    /// Matrix product `self * rhs^T`.
    ///
    /// Packs `rhs^T` once per call (a weight matrix: small next to the
    /// product) and runs [`Matrix::matmul`] on it, so the summation order
    /// and the propagation of non-finite values (`0 * inf` and `0 * NaN`
    /// are `NaN`) are that method's.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt: lhs is {}x{}, rhs is {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        self.matmul(&rhs.transpose())
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Elementwise in-place addition.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Elementwise in-place subtraction.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "sub_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }

    /// Multiplies every element by `s` in place.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map(&self, mut f: impl FnMut(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Adds `bias` (a length-`cols` vector) to every row.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != cols`.
    pub fn add_row_vector(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for row in self.data.chunks_mut(self.cols) {
            for (a, b) in row.iter_mut().zip(bias) {
                *a += b;
            }
        }
    }

    /// Sum over rows: returns a length-`cols` vector.
    pub fn column_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0; self.cols];
        for row in self.data.chunks(self.cols.max(1)) {
            for (s, v) in sums.iter_mut().zip(row) {
                *s += v;
            }
        }
        sums
    }

    /// Minimum element; `None` when empty.
    pub fn min(&self) -> Option<f32> {
        self.data.iter().copied().reduce(f32::min)
    }

    /// Maximum element; `None` when empty.
    pub fn max(&self) -> Option<f32> {
        self.data.iter().copied().reduce(f32::max)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Mean of all elements (0 when empty).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }

    /// Stacks matrices vertically.
    ///
    /// # Panics
    ///
    /// Panics if column counts differ.
    pub fn vstack(parts: &[&Matrix]) -> Matrix {
        if parts.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = parts[0].cols;
        let rows = parts.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for m in parts {
            assert_eq!(m.cols, cols, "vstack column mismatch");
            data.extend_from_slice(&m.data);
        }
        Matrix { rows, cols, data }
    }
}

/// The product kernel behind [`Matrix::matmul`], [`Matrix::matmul_tn`] and
/// [`Matrix::matmul_nt`]: `out[i][j] += sum_k a[i][k] * b[k][j]` for
/// row-major `a` (`ca` columns), `b` (`ca x cb`) and `out` (`cb` columns).
///
/// Each output element takes its products in strictly ascending `k`, one
/// `f32` add per product and none skipped: the order is the contract (losses,
/// traced ranges, assigned widths and wire bytes all hang off these bits),
/// the tiling below only decides how often an accumulator is loaded and
/// stored.
fn gemm_acc(a: &[f32], ca: usize, b: &[f32], cb: usize, out: &mut [f32]) {
    if ca == 0 || cb == 0 {
        return;
    }
    let mut a_tiles = a.chunks_exact(TILE_ROWS * ca);
    let mut out_tiles = out.chunks_exact_mut(TILE_ROWS * cb);
    for (a_tile, out_tile) in (&mut a_tiles).zip(&mut out_tiles) {
        tile_acc::<TILE_ROWS>(a_tile, ca, b, cb, out_tile);
    }
    let a_rest = a_tiles.remainder().chunks_exact(ca);
    let out_rest = out_tiles.into_remainder().chunks_exact_mut(cb);
    for (a_row, out_row) in a_rest.zip(out_rest) {
        tile_acc::<1>(a_row, ca, b, cb, out_row);
    }
}

/// [`gemm_acc`] on exactly `MR` rows of `a` and `out`: per [`TILE_K`] steps
/// of `k`, each vector of output columns is loaded once, takes its `TILE_K`
/// products in order and is stored once, and each vector of `b` is loaded
/// once for all `MR` rows. The fixed-size arrays are what lets the compiler
/// keep the coefficients in registers and vectorise the column loop with no
/// bounds checks.
#[inline(always)]
fn tile_acc<const MR: usize>(a: &[f32], ca: usize, b: &[f32], cb: usize, out: &mut [f32]) {
    debug_assert_eq!((a.len(), out.len()), (MR * ca, MR * cb));
    let a_rows: [&[f32]; MR] = split_rows(a, ca);
    let mut rest = out;
    let out_rows: [&mut [f32]; MR] = std::array::from_fn(|_| {
        let (row, tail) = std::mem::take(&mut rest).split_at_mut(cb);
        rest = tail;
        row
    });
    let mut b_steps = b.chunks_exact(TILE_K * cb);
    let mut k = 0;
    for b_step in &mut b_steps {
        let b_rows: [&[f32]; TILE_K] = split_rows(b_step, cb);
        let coef: [[f32; TILE_K]; MR] =
            std::array::from_fn(|r| std::array::from_fn(|t| a_rows[r][k + t]));
        for j in 0..cb {
            let x: [f32; TILE_K] = std::array::from_fn(|t| b_rows[t][j]);
            for r in 0..MR {
                let mut acc = out_rows[r][j];
                for t in 0..TILE_K {
                    acc += coef[r][t] * x[t];
                }
                out_rows[r][j] = acc;
            }
        }
        k += TILE_K;
    }
    for b_row in b_steps.remainder().chunks_exact(cb) {
        for r in 0..MR {
            let av = a_rows[r][k];
            for (o, &x) in out_rows[r].iter_mut().zip(b_row) {
                *o += av * x;
            }
        }
        k += 1;
    }
}

/// The first `N` rows of `width` elements each.
#[inline(always)]
fn split_rows<const N: usize>(mut rows: &[f32], width: usize) -> [&[f32]; N] {
    std::array::from_fn(|_| {
        let (row, tail) = rows.split_at(width);
        rows = tail;
        row
    })
}

/// Transposed-lhs accumulation `out += a^T * b` for `a` (`ca` columns) and
/// `b` (`cb` columns) with equally many rows; `out` is `ca x cb`.
///
/// Walks the rows in blocks of [`TN_BLOCK`]: a block of `a` is transposed
/// into scratch and handed to [`gemm_acc`] with the same block of `b`, so
/// every output element still takes its rows in ascending order.
fn gemm_tn_acc(a: &[f32], ca: usize, b: &[f32], cb: usize, out: &mut [f32]) {
    if ca == 0 || cb == 0 {
        return;
    }
    let mut a_t = vec![0.0f32; ca * TN_BLOCK];
    for (a_blk, b_blk) in a.chunks(TN_BLOCK * ca).zip(b.chunks(TN_BLOCK * cb)) {
        let n = a_blk.len() / ca;
        let a_t = &mut a_t[..ca * n];
        for (r, a_row) in a_blk.chunks_exact(ca).enumerate() {
            for (c, &v) in a_row.iter().enumerate() {
                a_t[c * n + r] = v;
            }
        }
        gemm_acc(a_t, n, b_blk, cb, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn approx_eq(a: &Matrix, b: &Matrix, tol: f32) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn zeros_and_full() {
        let z = Matrix::zeros(3, 2);
        assert_eq!(z.shape(), (3, 2));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let f = Matrix::full(2, 2, 7.5);
        assert!(f.as_slice().iter().all(|&v| v == 7.5));
    }

    #[test]
    fn from_vec_shape_error() {
        let err = Matrix::from_vec(2, 3, vec![0.0; 5]).unwrap_err();
        assert_eq!(err.op, "Matrix::from_vec");
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let c = a.matmul(&Matrix::eye(3));
        assert_eq!(c, a);
    }

    #[test]
    fn small_matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_fn(7, 4, |i, j| (i * 4 + j) as f32 * 0.1);
        let b = Matrix::from_fn(7, 3, |i, j| (i + j) as f32 * 0.3 - 1.0);
        let expect = a.transpose().matmul(&b);
        assert!(approx_eq(&a.matmul_tn(&b), &expect, 1e-5));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_fn(5, 6, |i, j| (i as f32 - j as f32) * 0.2);
        let b = Matrix::from_fn(4, 6, |i, j| (i * j) as f32 * 0.05 + 0.5);
        let expect = a.matmul(&b.transpose());
        assert!(approx_eq(&a.matmul_nt(&b), &expect, 1e-5));
    }

    /// The three product loops this crate shipped before the shared tiled
    /// kernel, kept as the reference for its summation order: on finite
    /// inputs the public products must reproduce these bit for bit.
    mod oracle {
        use super::super::{Matrix, PAR_ROW_THRESHOLD};

        /// Cache-blocked i-k-j loop that skips zero left-hand entries.
        pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
            const BLOCK: usize = 64;
            let (ca, cb) = (a.cols(), b.cols());
            let mut out = Matrix::zeros(a.rows(), cb);
            for kb in (0..ca).step_by(BLOCK) {
                let kend = (kb + BLOCK).min(ca);
                for i in 0..a.rows() {
                    for k in kb..kend {
                        let av = a.at(i, k);
                        if av == 0.0 {
                            continue;
                        }
                        for (o, &bv) in out.row_mut(i).iter_mut().zip(b.row(k)) {
                            *o += av * bv;
                        }
                    }
                }
            }
            out
        }

        fn tn_rows(a: &Matrix, b: &Matrix, rows: (usize, usize), out: &mut [f32]) {
            let cb = b.cols();
            for r in rows.0..rows.1 {
                for (c1, &lv) in a.row(r).iter().enumerate() {
                    if lv == 0.0 {
                        continue;
                    }
                    for (o, &rv) in out[c1 * cb..(c1 + 1) * cb].iter_mut().zip(b.row(r)) {
                        *o += lv * rv;
                    }
                }
            }
        }

        /// Row-at-a-time rank-1 updates that skip zero left-hand entries;
        /// tall operands reduce per fixed row chunk, merged in chunk order.
        pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
            let mut out = Matrix::zeros(a.cols(), b.cols());
            if a.rows() >= PAR_ROW_THRESHOLD && !out.is_empty() {
                for range in crate::par::chunk_ranges(a.rows(), PAR_ROW_THRESHOLD / 4) {
                    let mut partial = vec![0.0f32; out.len()];
                    tn_rows(a, b, range, &mut partial);
                    for (o, v) in out.as_mut_slice().iter_mut().zip(&partial) {
                        *o += v;
                    }
                }
            } else {
                tn_rows(a, b, (0, a.rows()), out.as_mut_slice());
            }
            out
        }

        /// One scalar dot product per output element.
        pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
            Matrix::from_fn(a.rows(), b.rows(), |i, j| {
                let mut acc = 0.0;
                for (x, y) in a.row(i).iter().zip(b.row(j)) {
                    acc += x * y;
                }
                acc
            })
        }
    }

    fn assert_bits_eq(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
        }
    }

    /// Uniform values salted with the exact zeros ReLU and dropout leave
    /// behind, of both signs.
    fn salted_matrix(rows: usize, cols: usize, rng: &mut crate::Rng) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| match rng.below(10) {
            0 | 1 => 0.0,
            2 => -0.0,
            _ => rng.uniform(-2.0, 2.0),
        })
    }

    proptest! {
        // Enough draws to meet every (row band, thread count) pair.
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn products_keep_the_oracle_summation_order(
            // Empty, shorter than one tile, odd trailing rows, and both
            // sides of a TN_BLOCK, of a row chunk and of PAR_ROW_THRESHOLD.
            rows in prop_oneof![
                0usize..9, 30usize..35, 62usize..67, 254usize..259, 319usize..322
            ],
            // Multiples of TILE_K and of the vector width, and neither.
            inner in prop_oneof![0usize..14, 30usize..35],
            cols in prop_oneof![0usize..11, 15usize..18],
            threads in prop_oneof![Just(1usize), Just(2usize), Just(8usize)],
            seed in 0u64..1_000_000,
        ) {
            let mut rng = crate::Rng::seed_from(seed);
            let a = salted_matrix(rows, inner, &mut rng);
            let w = salted_matrix(inner, cols, &mut rng);
            let g = salted_matrix(rows, cols, &mut rng);
            crate::par::set_threads(threads);
            let (nn, tn, nt) = (a.matmul(&w), a.matmul_tn(&g), g.matmul_nt(&w));
            crate::par::set_threads(0);
            assert_bits_eq(&nn, &oracle::matmul(&a, &w), "matmul");
            assert_bits_eq(&tn, &oracle::matmul_tn(&a, &g), "matmul_tn");
            assert_bits_eq(&nt, &oracle::matmul_nt(&g, &w), "matmul_nt");
        }
    }

    #[test]
    fn products_propagate_non_finite_values_past_zero_factors() {
        // The left operand's zero meets the right operand's inf/NaN in
        // every product; before the shared kernel matmul and matmul_tn
        // skipped the term and returned a finite value.
        for poison in [f32::INFINITY, f32::NAN] {
            let row = Matrix::from_rows(&[&[0.0, 1.0]]);
            let col = Matrix::from_rows(&[&[0.0], &[1.0]]);
            let poisoned_col = Matrix::from_rows(&[&[poison], &[2.0]]);
            let poisoned_row = Matrix::from_rows(&[&[poison, 2.0]]);
            assert!(
                row.matmul(&poisoned_col).at(0, 0).is_nan(),
                "matmul, {poison}"
            );
            assert!(
                col.matmul_tn(&poisoned_col).at(0, 0).is_nan(),
                "matmul_tn, {poison}"
            );
            assert!(
                row.matmul_nt(&poisoned_row).at(0, 0).is_nan(),
                "matmul_nt, {poison}"
            );
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(4, 7, |i, j| (i * 7 + j) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn gather_then_scatter_add_roundtrip() {
        let base = Matrix::from_fn(6, 3, |i, j| (i * 3 + j) as f32);
        let idx = [4, 1, 5];
        let gathered = base.gather_rows(&idx);
        assert_eq!(base.top_rows(2), base.gather_rows(&[0, 1]));
        assert_eq!(gathered.row(0), base.row(4));
        assert_eq!(gathered.row(2), base.row(5));

        let mut acc = Matrix::zeros(6, 3);
        acc.scatter_add_rows(&idx, &gathered);
        for i in 0..6 {
            if idx.contains(&i) {
                assert_eq!(acc.row(i), base.row(i));
            } else {
                assert!(acc.row(i).iter().all(|&v| v == 0.0));
            }
        }
    }

    #[test]
    fn scatter_add_accumulates_duplicates() {
        let src = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]);
        let mut acc = Matrix::zeros(3, 2);
        acc.scatter_add_rows(&[1, 1], &src);
        assert_eq!(acc.row(1), &[3.0, 3.0]);
    }

    #[test]
    fn elementwise_ops() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[0.5, 0.5], &[0.5, 0.5]]);
        a.add_assign(&b);
        assert_eq!(a.at(0, 0), 1.5);
        a.sub_assign(&b);
        assert_eq!(a.at(0, 0), 1.0);
        a.scale(0.0);
        assert_eq!(a.frobenius_norm(), 0.0);
    }

    #[test]
    fn add_row_vector_broadcasts() {
        let mut a = Matrix::zeros(3, 2);
        a.add_row_vector(&[1.0, -1.0]);
        for i in 0..3 {
            assert_eq!(a.row(i), &[1.0, -1.0]);
        }
    }

    #[test]
    fn column_sums_and_mean() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.column_sums(), vec![4.0, 6.0]);
        assert_eq!(a.mean(), 2.5);
    }

    #[test]
    fn min_max() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 0.5]]);
        assert_eq!(a.min(), Some(-2.0));
        assert_eq!(a.max(), Some(3.0));
        assert_eq!(Matrix::zeros(0, 0).min(), None);
    }

    #[test]
    fn vstack_concatenates() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let s = Matrix::vstack(&[&a, &b]);
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn empty_matrix_is_handled() {
        let e = Matrix::zeros(0, 4);
        assert!(e.is_empty());
        assert_eq!(e.column_sums(), vec![0.0; 4]);
        let g = e.gather_rows(&[]);
        assert_eq!(g.shape(), (0, 4));
    }
}

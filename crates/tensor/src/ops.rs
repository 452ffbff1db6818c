//! Neural-network kernels: layer norm, the hidden layer's fused tail
//! (`LayerNorm -> ReLU -> dropout`, one kernel forward and one backward) and
//! losses.
//!
//! All backward functions take exactly the caches their forward counterparts
//! return, mirroring the manual-autograd style used by the `gnn` crate.

use crate::{par, Matrix, Rng};

/// Numerical-stability epsilon for layer norm.
const LN_EPS: f32 = 1e-5;

/// Minimum rows per chunk for row-wise kernels (layer norm, softmax).
const ROW_MIN_CHUNK: usize = 64;

/// [`TailCache`] mask bit: the element survived dropout. Bit 0, as
/// [`dropout_draw`]'s contract spells out.
const KEEP: u8 = 0b01;
/// [`TailCache`] mask bit: ReLU lets the element's gradient through (its
/// layer-norm output was not `<= 0`).
const PASS: u8 = 0b10;

/// Per-row statistics cached by [`layer_norm_forward`] for the backward pass.
#[derive(Debug, Clone)]
pub struct LayerNormCache {
    /// Normalized activations `(x - mean) / std`, one row per input row.
    pub x_hat: Matrix,
    /// Per-row `1 / std`.
    pub inv_std: Vec<f32>,
}

/// What [`tail_forward`] keeps for [`tail_backward`].
#[derive(Debug, Clone)]
pub struct TailCache {
    /// The layer-norm stage's statistics.
    pub ln: LayerNormCache,
    /// One byte per element, [`KEEP`] and [`PASS`]: the gradient flows where
    /// both are set, so neither ReLU's input nor a `bool` per element is
    /// kept.
    mask: Vec<u8>,
    /// Dropout's survivor scale `1 / (1 - p)`.
    scale: f32,
}

/// Mean and `1 / std` of each of `R` rows of `d` values: the statistics
/// every layer-norm kernel shares, bit for bit.
///
/// Each row's two sums run serially in ascending column order from `-0.0`,
/// as `Iterator::sum` does, so a row's statistics do not depend on the rows
/// beside it. A lone row's sums are one chain of dependent adds; walking
/// four rows in step lets four chains overlap.
#[inline(always)]
fn row_stats<const R: usize>(rows: [&[f32]; R], d: usize) -> [(f32, f32); R] {
    let rows = rows.map(|r| &r[..d]);
    let mut sum = [-0.0f32; R];
    for j in 0..d {
        for (s, row) in sum.iter_mut().zip(&rows) {
            *s += row[j];
        }
    }
    let mean = sum.map(|s| s / d as f32);
    let mut sq = [-0.0f32; R];
    for j in 0..d {
        for ((s, row), &m) in sq.iter_mut().zip(&rows).zip(&mean) {
            *s += (row[j] - m) * (row[j] - m);
        }
    }
    std::array::from_fn(|r| (mean[r], 1.0 / (sq[r] / d as f32 + LN_EPS).sqrt()))
}

/// Rows per [`row_stats`] call on the row-wise kernels' main path; four
/// measured faster than one and than eight (DESIGN.md §19).
const STAT_ROWS: usize = 4;

/// [`row_stats`] of the `count <= STAT_ROWS` rows of width `d` that start at
/// row `first` of `buf`; entries past `count` are unused.
#[inline]
fn stats_at(buf: &[f32], d: usize, first: usize, count: usize) -> [(f32, f32); STAT_ROWS] {
    let row = |i: usize| &buf[(first + i) * d..(first + i + 1) * d];
    if count == STAT_ROWS {
        return row_stats(std::array::from_fn(row), d);
    }
    let mut stats = [(0.0, 0.0); STAT_ROWS];
    for (i, s) in stats.iter_mut().enumerate().take(count) {
        [*s] = row_stats([row(i)], d);
    }
    stats
}

/// Splits a row-major buffer of `width`-wide rows at `ranges`' fixed row
/// boundaries, one disjoint sub-slice per range.
fn split_rows<'a, T>(
    mut rest: &'a mut [T],
    ranges: &[(usize, usize)],
    width: usize,
) -> Vec<&'a mut [T]> {
    let mut parts = Vec::with_capacity(ranges.len());
    for &(s, e) in ranges {
        let (head, tail) = rest.split_at_mut((e - s) * width);
        parts.push(head);
        rest = tail;
    }
    parts
}

/// Layer normalization over the last dimension (per row), with affine
/// parameters `gamma` and `beta` of length `x.cols()`.
///
/// # Panics
///
/// Panics if `gamma`/`beta` lengths differ from `x.cols()`.
pub fn layer_norm_forward(x: &Matrix, gamma: &[f32], beta: &[f32]) -> (Matrix, LayerNormCache) {
    let (n, d) = x.shape();
    assert_eq!(gamma.len(), d, "gamma length mismatch");
    assert_eq!(beta.len(), d, "beta length mismatch");
    let mut out = Matrix::zeros(n, d);
    let mut x_hat = Matrix::zeros(n, d);
    let mut inv_std = vec![0.0f32; n];
    // Three output buffers share the same fixed row-chunk boundaries; each
    // task owns one disjoint chunk of all three, so the parallel run is
    // bitwise identical to the serial one.
    let ranges = par::chunk_ranges(n, ROW_MIN_CHUNK);
    let outs = split_rows(out.as_mut_slice(), &ranges, d);
    let x_hats = split_rows(x_hat.as_mut_slice(), &ranges, d);
    let inv_stds = split_rows(&mut inv_std, &ranges, 1);
    let tasks = (ranges.iter().copied())
        .zip(outs.into_iter().zip(x_hats).zip(inv_stds))
        .collect();
    par::run_range_tasks(
        "tensor::layer_norm_forward",
        n,
        n * d,
        tasks,
        |s, e, ((o, xh), ist)| {
            for g in (0..e - s).step_by(STAT_ROWS) {
                let count = STAT_ROWS.min(e - s - g);
                let stats = stats_at(x.as_slice(), d, s + g, count);
                for (local, &(mean, istd)) in (g..).zip(&stats[..count]) {
                    let row = x.row(s + local);
                    ist[local] = istd;
                    let xh_row = &mut xh[local * d..(local + 1) * d];
                    let o_row = &mut o[local * d..(local + 1) * d];
                    for j in 0..d {
                        let h = (row[j] - mean) * istd;
                        xh_row[j] = h;
                        o_row[j] = gamma[j] * h + beta[j];
                    }
                }
            }
        },
    );
    (out, LayerNormCache { x_hat, inv_std })
}

/// Layer-norm backward.
///
/// Returns `(grad_input, grad_gamma, grad_beta)`.
///
/// # Panics
///
/// Panics if shapes are inconsistent with the cache.
pub fn layer_norm_backward(
    grad_out: &Matrix,
    cache: &LayerNormCache,
    gamma: &[f32],
) -> (Matrix, Vec<f32>, Vec<f32>) {
    ln_backward_in_place(grad_out.clone(), cache, gamma)
}

/// The layer-norm backward on a gradient it owns: `grad` arrives holding
/// `dL/d(ln output)` and leaves holding `dL/d(ln input)`.
fn ln_backward_in_place(
    mut grad: Matrix,
    cache: &LayerNormCache,
    gamma: &[f32],
) -> (Matrix, Vec<f32>, Vec<f32>) {
    let (n, d) = grad.shape();
    assert_eq!(
        cache.x_hat.shape(),
        (n, d),
        "layer_norm cache shape mismatch"
    );
    assert_eq!(gamma.len(), d, "gamma length mismatch");
    let mut grad_gamma = vec![0.0; d];
    let mut grad_beta = vec![0.0; d];
    if d == 0 {
        return (grad, grad_gamma, grad_beta);
    }
    // Parameter gradients reduce over rows; keep that a serial pass in
    // ascending-row order so the sums stay bitwise stable.
    let x_hat_rows = cache.x_hat.as_slice().chunks_exact(d);
    for (dy, xh) in grad.as_slice().chunks_exact(d).zip(x_hat_rows) {
        for j in 0..d {
            grad_gamma[j] += dy[j] * xh[j];
            grad_beta[j] += dy[j];
        }
    }
    // The input gradient is per-row independent: parallel over fixed chunks,
    // each row rewritten from its own contents.
    par::par_chunks_deterministic(
        grad.as_mut_slice(),
        n,
        ROW_MIN_CHUNK,
        n * d,
        |s, _e, chunk| {
            let inv_d = 1.0 / d as f32;
            for (local, gi) in chunk.chunks_exact_mut(d).enumerate() {
                let i = s + local;
                let xh = cache.x_hat.row(i);
                let istd = cache.inv_std[i];
                let mut sum_dxhat = 0.0;
                let mut sum_dxhat_xhat = 0.0;
                for j in 0..d {
                    let dxhat = gi[j] * gamma[j];
                    sum_dxhat += dxhat;
                    sum_dxhat_xhat += dxhat * xh[j];
                }
                for j in 0..d {
                    let dxhat = gi[j] * gamma[j];
                    gi[j] = istd * (dxhat - inv_d * sum_dxhat - xh[j] * inv_d * sum_dxhat_xhat);
                }
            }
        },
    );
    (grad, grad_gamma, grad_beta)
}

/// Dropout's draw: clears the keep flag (bit 0) of each `mask` byte whose
/// element drops, one `rng.unit() < p` per element in order, and leaves the
/// other bits alone. The loop touches nothing but the generator and the
/// mask — carrying the generator's state through a loop that also streams
/// activations is what made the one-loop form four times slower (DESIGN.md,
/// "The layer's data path").
pub fn dropout_draw(mask: &mut [u8], p: f32, rng: &mut Rng) {
    for m in mask {
        *m &= !(KEEP * u8::from(rng.unit() < p));
    }
}

/// Inverted dropout in place, as two loops: [`dropout_draw`] decides, then a
/// generator-free pass zeroes each dropped element of `x` and scales the
/// survivors by the returned `1 / (1 - p)`, so the expected activation is
/// unchanged. `mask` must arrive with every byte's keep flag (bit 0) set.
/// With `p == 0` nothing is drawn and nothing changes.
///
/// Serial: the draw consumes the generator's stream one element at a time,
/// so splitting it across workers would change which elements drop.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1)` or the lengths differ.
pub fn dropout_in_place(x: &mut [f32], mask: &mut [u8], p: f32, rng: &mut Rng) -> f32 {
    assert!(
        (0.0..1.0).contains(&p),
        "dropout p must be in [0,1), got {p}"
    );
    assert_eq!(x.len(), mask.len(), "dropout mask size mismatch");
    let scale = 1.0 / (1.0 - p);
    if p > 0.0 {
        dropout_draw(mask, p, rng);
        for (v, &m) in x.iter_mut().zip(mask.iter()) {
            *v = if m & KEEP == 0 { 0.0 } else { *v * scale };
        }
    }
    scale
}

/// The hidden layer's forward tail, `LayerNorm -> ReLU -> dropout`, on a
/// `lin` it owns: each row is read once and rewritten in place while its
/// `x_hat`, `inv_std` and ReLU sign are recorded, then
/// [`dropout_in_place`] draws and applies the keep mask.
///
/// # Panics
///
/// Panics if `gamma`/`beta` lengths differ from `lin.cols()` or `p` is not
/// in `[0, 1)`.
pub fn tail_forward(
    mut lin: Matrix,
    gamma: &[f32],
    beta: &[f32],
    p: f32,
    rng: &mut Rng,
) -> (Matrix, TailCache) {
    let (n, d) = lin.shape();
    assert_eq!(gamma.len(), d, "gamma length mismatch");
    assert_eq!(beta.len(), d, "beta length mismatch");
    let mut x_hat = Matrix::zeros(n, d);
    let mut inv_std = vec![0.0f32; n];
    let mut mask = vec![0u8; n * d];
    // As in `layer_norm_forward`: every task owns one disjoint row chunk of
    // all four buffers.
    let ranges = par::chunk_ranges(n, ROW_MIN_CHUNK);
    let acts = split_rows(lin.as_mut_slice(), &ranges, d);
    let x_hats = split_rows(x_hat.as_mut_slice(), &ranges, d);
    let inv_stds = split_rows(&mut inv_std, &ranges, 1);
    let masks = split_rows(&mut mask, &ranges, d);
    let tasks = (ranges.iter().copied())
        .zip(acts.into_iter().zip(x_hats).zip(inv_stds).zip(masks))
        .collect();
    par::run_range_tasks(
        "tensor::tail_forward",
        n,
        n * d,
        tasks,
        |s, e, (((act, xh), ist), ms)| {
            for g in (0..e - s).step_by(STAT_ROWS) {
                let count = STAT_ROWS.min(e - s - g);
                let stats = stats_at(act, d, g, count);
                for (local, &(mean, istd)) in (g..).zip(&stats[..count]) {
                    let row = &mut act[local * d..(local + 1) * d];
                    ist[local] = istd;
                    let xh_row = &mut xh[local * d..(local + 1) * d];
                    let m_row = &mut ms[local * d..(local + 1) * d];
                    for j in 0..d {
                        let h = (row[j] - mean) * istd;
                        xh_row[j] = h;
                        let o = gamma[j] * h + beta[j];
                        // ReLU's backward blocks `o <= 0`: a NaN passes its gradient on.
                        m_row[j] = KEEP | (PASS * u8::from(o > 0.0 || o.is_nan()));
                        row[j] = o.max(0.0);
                    }
                }
            }
        },
    );
    let scale = dropout_in_place(lin.as_mut_slice(), &mut mask, p, rng);
    let ln = LayerNormCache { x_hat, inv_std };
    (lin, TailCache { ln, mask, scale })
}

/// The hidden layer's tail at inference, `LayerNorm -> ReLU` in place:
/// nothing is cached and nothing is drawn.
///
/// # Panics
///
/// Panics if `gamma`/`beta` lengths differ from `lin.cols()`.
pub fn tail_infer(mut lin: Matrix, gamma: &[f32], beta: &[f32]) -> Matrix {
    let (n, d) = lin.shape();
    assert_eq!(gamma.len(), d, "gamma length mismatch");
    assert_eq!(beta.len(), d, "beta length mismatch");
    if d == 0 {
        return lin;
    }
    par::par_chunks_deterministic(
        lin.as_mut_slice(),
        n,
        ROW_MIN_CHUNK,
        n * d,
        |s, e, chunk| {
            for g in (0..e - s).step_by(STAT_ROWS) {
                let count = STAT_ROWS.min(e - s - g);
                let stats = stats_at(chunk, d, g, count);
                let rows = chunk[g * d..(g + count) * d].chunks_exact_mut(d);
                for (row, &(mean, istd)) in rows.zip(&stats) {
                    for j in 0..d {
                        row[j] = (gamma[j] * ((row[j] - mean) * istd) + beta[j]).max(0.0);
                    }
                }
            }
        },
    );
    lin
}

/// Backward of [`tail_forward`]: gates `grad_out` by the cached mask (zero
/// where dropout or ReLU stopped the element, scaled where it survived)
/// into the one matrix the layer-norm backward then rewrites in place.
///
/// Returns `(grad_lin, grad_gamma, grad_beta)`.
///
/// # Panics
///
/// Panics if shapes are inconsistent with the cache.
pub fn tail_backward(
    grad_out: &Matrix,
    cache: &TailCache,
    gamma: &[f32],
) -> (Matrix, Vec<f32>, Vec<f32>) {
    let (n, d) = grad_out.shape();
    assert_eq!(cache.mask.len(), n * d, "tail mask size mismatch");
    let mut grad = Matrix::zeros(n, d);
    let gated = grad.as_mut_slice().iter_mut();
    for ((dy, &g), &m) in gated.zip(grad_out.as_slice()).zip(&cache.mask) {
        // All-ones where the gradient flows, else zero: a select the
        // vectorizer takes without a branch per element.
        let flows = 0u32.wrapping_sub(u32::from(m == KEEP | PASS));
        *dy = f32::from_bits((g * cache.scale).to_bits() & flows);
    }
    ln_backward_in_place(grad, &cache.ln, gamma)
}

/// Row-wise log-softmax, computed stably via the max trick.
pub fn log_softmax(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    let (n, d) = out.shape();
    if d == 0 {
        return out;
    }
    par::par_chunks_deterministic(
        out.as_mut_slice(),
        n,
        ROW_MIN_CHUNK,
        n * d,
        |_, _, chunk| {
            for row in chunk.chunks_mut(d) {
                let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let lse = row.iter().map(|v| (v - max).exp()).sum::<f32>().ln() + max;
                for v in row.iter_mut() {
                    *v -= lse;
                }
            }
        },
    );
    out
}

/// Mean softmax cross-entropy loss over the rows selected by `mask`, and its
/// gradient with respect to the logits, from one [`log_softmax`].
///
/// `labels[i]` is the class index of row `i`; rows where `mask` is false are
/// ignored and receive zero gradient (the standard
/// transductive-node-classification setup: loss only on training nodes). The
/// loss is 0 when the mask selects no rows.
///
/// # Panics
///
/// Panics if `labels`/`mask` lengths differ from `logits.rows()`.
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[usize], mask: &[bool]) -> (f32, Matrix) {
    assert_eq!(labels.len(), logits.rows(), "labels length mismatch");
    assert_eq!(mask.len(), logits.rows(), "mask length mismatch");
    let selected = mask.iter().filter(|&&m| m).count();
    let count = selected.max(1) as f32;
    // Row by row the log-probabilities turn into the gradient.
    let mut grad = log_softmax(logits);
    let mut loss = 0.0;
    for i in 0..logits.rows() {
        let g = grad.row_mut(i);
        if !mask[i] {
            g.fill(0.0);
            continue;
        }
        loss -= g[labels[i]];
        for v in g.iter_mut() {
            *v = v.exp() / count;
        }
        g[labels[i]] -= 1.0 / count;
    }
    let loss = if selected == 0 { 0.0 } else { loss / count };
    (loss, grad)
}

/// Elementwise logistic sigmoid.
pub fn sigmoid(x: &Matrix) -> Matrix {
    x.map(|v| 1.0 / (1.0 + (-v).exp()))
}

/// Mean binary cross-entropy-with-logits loss over the rows selected by
/// `mask`, and its gradient with respect to the logits, for multi-label
/// classification (Yelp / AmazonProducts tasks).
///
/// `targets` holds 0/1 values with the same shape as `logits`. Each positive
/// label's term is multiplied by `pos_weight`, counteracting the heavy
/// negative imbalance of many-class multi-label tasks (a node carries 1-3 of
/// ~100 labels, so the unweighted loss is dominated by "predict nothing").
/// Uses the numerically stable formulation
/// `max(z,0) - z*y + ln(1 + exp(-|z|))`. The loss is 0 when the mask is
/// empty.
///
/// # Panics
///
/// Panics if shapes disagree or `pos_weight <= 0`.
pub fn sigmoid_bce_weighted(
    logits: &Matrix,
    targets: &Matrix,
    mask: &[bool],
    pos_weight: f32,
) -> (f32, Matrix) {
    assert_eq!(logits.shape(), targets.shape(), "bce shape mismatch");
    assert_eq!(mask.len(), logits.rows(), "mask length mismatch");
    assert!(pos_weight > 0.0, "pos_weight must be positive");
    let selected = mask.iter().filter(|&&m| m).count();
    let denom = selected.max(1) as f32 * logits.cols() as f32;
    let mut grad = Matrix::zeros(logits.rows(), logits.cols());
    let mut loss = 0.0;
    for i in 0..logits.rows() {
        if !mask[i] {
            continue;
        }
        let g = grad.row_mut(i);
        for (j, (&z, &y)) in logits.row(i).iter().zip(targets.row(i)).enumerate() {
            // softplus(z) = ln(1 + e^z), stable form.
            let softplus_neg = (1.0 + (-z.abs()).exp()).ln() + (-z).max(0.0); // softplus(-z)
            let softplus_pos = (1.0 + (-z.abs()).exp()).ln() + z.max(0.0); // softplus(z)
            loss += pos_weight * y * softplus_neg + (1.0 - y) * softplus_pos;
            let p = 1.0 / (1.0 + (-z).exp());
            g[j] = (pos_weight * y * (p - 1.0) + (1.0 - y) * p) / denom;
        }
    }
    let loss = if selected == 0 { 0.0 } else { loss / denom };
    (loss, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff_loss(
        logits: &Matrix,
        labels: &[usize],
        mask: &[bool],
        i: usize,
        j: usize,
        eps: f32,
    ) -> f32 {
        let mut plus = logits.clone();
        plus.set(i, j, plus.at(i, j) + eps);
        let mut minus = logits.clone();
        minus.set(i, j, minus.at(i, j) - eps);
        (softmax_cross_entropy(&plus, labels, mask).0
            - softmax_cross_entropy(&minus, labels, mask).0)
            / (2.0 * eps)
    }

    /// The tail of a fixed 16 x 8 input with `gamma = 1`, `beta = 0` (so the
    /// layer-norm output is `x_hat` itself) at dropout `p`, checked both
    /// ways: the output is `x_hat * scale` where the gradient flows and zero
    /// elsewhere, and the backward is the layer-norm backward of the
    /// upstream gradient gated and scaled the same way. Returns the mask.
    fn checked_tail(p: f32) -> Vec<u8> {
        let mut rng = Rng::seed_from(6);
        let lin = Matrix::from_fn(16, 8, |i, j| ((i * 8 + j) as f32 * 0.37).sin());
        let gamma = vec![1.0; 8];
        let (y, cache) = tail_forward(lin, &gamma, &[0.0; 8], p, &mut rng);
        let scale = 1.0 / (1.0 - p);
        let flows: Vec<bool> = cache.mask.iter().map(|&m| m == KEEP | PASS).collect();
        for ((&yv, &xh), (&m, &f)) in
            (y.as_slice().iter().zip(cache.ln.x_hat.as_slice())).zip(cache.mask.iter().zip(&flows))
        {
            assert_eq!(m & PASS != 0, xh > 0.0);
            assert_eq!(yv, if f { xh * scale } else { 0.0 });
        }
        let gated = Matrix::from_fn(16, 8, |i, j| if flows[i * 8 + j] { scale } else { 0.0 });
        let got = tail_backward(&Matrix::full(16, 8, 1.0), &cache, &gamma);
        assert_eq!(got, layer_norm_backward(&gated, &cache.ln, &gamma));
        cache.mask
    }

    #[test]
    fn relu_clamps_and_gates() {
        let mask = checked_tail(0.0);
        assert!(mask.contains(&KEEP), "nothing clamped");
        assert!(mask.iter().all(|&m| m & KEEP != 0), "p = 0 drops nothing");
    }

    #[test]
    fn dropout_backward_matches_mask() {
        let mask = checked_tail(0.5);
        assert!(mask.contains(&PASS), "nothing dropped");
    }

    #[test]
    fn dropout_zero_p_is_identity() {
        let mut rng = Rng::seed_from(5);
        let mut x = [1.0, 2.0, 3.0];
        let mut mask = vec![KEEP; 3];
        let scale = dropout_in_place(&mut x, &mut mask, 0.0, &mut rng);
        assert_eq!((x, scale), ([1.0, 2.0, 3.0], 1.0));
        assert_eq!(mask, vec![KEEP; 3]);
        // Nothing was drawn.
        assert_eq!(rng.next_u64(), Rng::seed_from(5).next_u64());
    }

    #[test]
    fn dropout_scales_survivors() {
        let mut rng = Rng::seed_from(5);
        let mut x = vec![1.0f32; 1000];
        let mut mask = vec![KEEP; 1000];
        let scale = dropout_in_place(&mut x, &mut mask, 0.5, &mut rng);
        assert_eq!(scale, 2.0);
        for (&v, &m) in x.iter().zip(&mask) {
            assert_eq!(v, if m == KEEP { 2.0 } else { 0.0 });
        }
        // Empirical keep rate near 0.5, so the expected value is preserved.
        let mean = x.iter().sum::<f32>() / 1000.0;
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn layer_norm_rows_are_normalized() {
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0], &[-5.0, 0.0, 5.0, 10.0]]);
        let gamma = vec![1.0; 4];
        let beta = vec![0.0; 4];
        let (y, _) = layer_norm_forward(&x, &gamma, &beta);
        for i in 0..2 {
            let row = y.row(i);
            let mean = row.iter().sum::<f32>() / 4.0;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn layer_norm_affine_applied() {
        let x = Matrix::from_rows(&[&[2.0, 4.0]]);
        let (y, _) = layer_norm_forward(&x, &[3.0, 3.0], &[1.0, 1.0]);
        // x_hat = [-1, 1] approx, y = 3*x_hat + 1 = [-2, 4]
        assert!((y.at(0, 0) + 2.0).abs() < 1e-2);
        assert!((y.at(0, 1) - 4.0).abs() < 1e-2);
    }

    #[test]
    fn layer_norm_backward_finite_difference() {
        let x = Matrix::from_rows(&[&[0.5, -1.2, 2.0], &[1.0, 1.5, -0.3]]);
        let gamma = vec![1.2, 0.8, 1.0];
        let beta = vec![0.1, -0.2, 0.0];
        // Scalar objective: sum of outputs.
        let (_, cache) = layer_norm_forward(&x, &gamma, &beta);
        let grad_out = Matrix::full(2, 3, 1.0);
        let (gin, ggamma, gbeta) = layer_norm_backward(&grad_out, &cache, &gamma);
        let eps = 1e-3;
        for i in 0..2 {
            for j in 0..3 {
                let mut xp = x.clone();
                xp.set(i, j, xp.at(i, j) + eps);
                let mut xm = x.clone();
                xm.set(i, j, xm.at(i, j) - eps);
                let (yp, _) = layer_norm_forward(&xp, &gamma, &beta);
                let (ym, _) = layer_norm_forward(&xm, &gamma, &beta);
                let num: f32 = (yp.as_slice().iter().sum::<f32>()
                    - ym.as_slice().iter().sum::<f32>())
                    / (2.0 * eps);
                assert!(
                    (num - gin.at(i, j)).abs() < 2e-2,
                    "dx[{i}][{j}] numeric {num} vs analytic {}",
                    gin.at(i, j)
                );
            }
        }
        // grad_beta for sum objective is just the row count.
        for g in gbeta {
            assert!((g - 2.0).abs() < 1e-5);
        }
        // grad_gamma equals column sums of x_hat.
        let xh_sums = cache.x_hat.column_sums();
        for (g, s) in ggamma.iter().zip(xh_sums) {
            assert!((g - s).abs() < 1e-4);
        }
    }

    #[test]
    fn log_softmax_rows_sum_to_one() {
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[100.0, 100.0, 100.0]]);
        let lp = log_softmax(&x);
        for i in 0..2 {
            let s: f32 = lp.row(i).iter().map(|v| v.exp()).sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn log_softmax_is_shift_invariant() {
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let shifted = x.map(|v| v + 1000.0);
        let a = log_softmax(&x);
        let b = log_softmax(&shifted);
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((u - v).abs() < 1e-4);
        }
    }

    #[test]
    fn cross_entropy_perfect_prediction_is_small() {
        let logits = Matrix::from_rows(&[&[20.0, 0.0], &[0.0, 20.0]]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 1], &[true, true]);
        assert!(loss < 1e-6);
    }

    #[test]
    fn cross_entropy_masked_rows_ignored() {
        let logits = Matrix::from_rows(&[&[20.0, 0.0], &[20.0, 0.0]]);
        // Second row is wrong but masked out.
        let (loss, grad) = softmax_cross_entropy(&logits, &[0, 1], &[true, false]);
        assert!(loss < 1e-6);
        assert!(grad.row(1).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn cross_entropy_empty_mask_is_zero() {
        let logits = Matrix::from_rows(&[&[1.0, 2.0]]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0], &[false]);
        assert_eq!(loss, 0.0);
        assert_eq!(grad, Matrix::zeros(1, 2));
    }

    #[test]
    fn cross_entropy_gradient_finite_difference() {
        let logits = Matrix::from_rows(&[&[0.3, -0.7, 1.1], &[0.0, 0.5, -0.5]]);
        let labels = [2, 0];
        let mask = [true, true];
        let (_, grad) = softmax_cross_entropy(&logits, &labels, &mask);
        for i in 0..2 {
            for j in 0..3 {
                let num = finite_diff_loss(&logits, &labels, &mask, i, j, 1e-3);
                assert!(
                    (num - grad.at(i, j)).abs() < 1e-3,
                    "grad[{i}][{j}] numeric {num} vs analytic {}",
                    grad.at(i, j)
                );
            }
        }
    }

    #[test]
    fn cross_entropy_grad_rows_sum_to_zero() {
        let logits = Matrix::from_rows(&[&[0.3, -0.7, 1.1]]);
        let (_, grad) = softmax_cross_entropy(&logits, &[1], &[true]);
        let s: f32 = grad.row(0).iter().sum();
        assert!(s.abs() < 1e-6);
    }

    #[test]
    fn bce_perfect_prediction_is_small() {
        let logits = Matrix::from_rows(&[&[20.0, -20.0]]);
        let targets = Matrix::from_rows(&[&[1.0, 0.0]]);
        assert!(sigmoid_bce_weighted(&logits, &targets, &[true], 1.0).0 < 1e-6);
    }

    #[test]
    fn bce_gradient_finite_difference() {
        let logits = Matrix::from_rows(&[&[0.2, -0.9], &[1.5, 0.1]]);
        let targets = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let mask = [true, true];
        let (_, grad) = sigmoid_bce_weighted(&logits, &targets, &mask, 1.0);
        let eps = 1e-3;
        for i in 0..2 {
            for j in 0..2 {
                let mut lp = logits.clone();
                lp.set(i, j, lp.at(i, j) + eps);
                let mut lm = logits.clone();
                lm.set(i, j, lm.at(i, j) - eps);
                let num = (sigmoid_bce_weighted(&lp, &targets, &mask, 1.0).0
                    - sigmoid_bce_weighted(&lm, &targets, &mask, 1.0).0)
                    / (2.0 * eps);
                assert!(
                    (num - grad.at(i, j)).abs() < 1e-3,
                    "bce grad[{i}][{j}] numeric {num} vs analytic {}",
                    grad.at(i, j)
                );
            }
        }
    }

    #[test]
    fn sigmoid_range() {
        let x = Matrix::from_rows(&[&[-100.0, 0.0, 100.0]]);
        let s = sigmoid(&x);
        assert!(s.at(0, 0) < 1e-6);
        assert!((s.at(0, 1) - 0.5).abs() < 1e-6);
        assert!(s.at(0, 2) > 1.0 - 1e-6);
    }
}

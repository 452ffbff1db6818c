//! Property-based tests for the tensor crate.

// The reference kernels below are kept index for index as the crate wrote
// them (see its own `needless_range_loop` allowance).
#![allow(clippy::needless_range_loop)]

use proptest::prelude::*;
use tensor::{log_softmax, LayerNormCache, Matrix, Rng};

fn arb_matrix(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).expect("sized by construction"))
    })
}

/// The hidden layer's tail as the five separate steps it was before
/// `tail_forward` / `tail_backward` / `tail_infer` fused them: serial, one
/// clone per step, dropout drawing and storing in one loop. The fused
/// kernels (and `layer_norm_*`, which share their row code) are held to
/// these bits.
mod composed {
    use super::*;

    const LN_EPS: f32 = 1e-5;

    pub fn layer_norm_forward(x: &Matrix, gamma: &[f32], beta: &[f32]) -> (Matrix, LayerNormCache) {
        let (n, d) = x.shape();
        let mut out = Matrix::zeros(n, d);
        let mut x_hat = Matrix::zeros(n, d);
        let mut inv_std = vec![0.0f32; n];
        for i in 0..n {
            let row = x.row(i);
            let mean = row.iter().sum::<f32>() / d as f32;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let istd = 1.0 / (var + LN_EPS).sqrt();
            inv_std[i] = istd;
            for j in 0..d {
                let h = (row[j] - mean) * istd;
                x_hat.set(i, j, h);
                out.set(i, j, gamma[j] * h + beta[j]);
            }
        }
        (out, LayerNormCache { x_hat, inv_std })
    }

    pub fn layer_norm_backward(
        grad_out: &Matrix,
        cache: &LayerNormCache,
        gamma: &[f32],
    ) -> (Matrix, Vec<f32>, Vec<f32>) {
        let (n, d) = grad_out.shape();
        let mut grad_in = Matrix::zeros(n, d);
        let mut grad_gamma = vec![0.0; d];
        let mut grad_beta = vec![0.0; d];
        for i in 0..n {
            let dy = grad_out.row(i);
            let xh = cache.x_hat.row(i);
            for j in 0..d {
                grad_gamma[j] += dy[j] * xh[j];
                grad_beta[j] += dy[j];
            }
        }
        for i in 0..n {
            let dy = grad_out.row(i);
            let xh = cache.x_hat.row(i);
            let istd = cache.inv_std[i];
            let mut sum_dxhat = 0.0;
            let mut sum_dxhat_xhat = 0.0;
            for j in 0..d {
                let dxhat = dy[j] * gamma[j];
                sum_dxhat += dxhat;
                sum_dxhat_xhat += dxhat * xh[j];
            }
            let inv_d = 1.0 / d as f32;
            for j in 0..d {
                let dxhat = dy[j] * gamma[j];
                let g = istd * (dxhat - inv_d * sum_dxhat - xh[j] * inv_d * sum_dxhat_xhat);
                grad_in.set(i, j, g);
            }
        }
        (grad_in, grad_gamma, grad_beta)
    }

    pub fn relu_forward(x: &Matrix) -> Matrix {
        x.map(|v| v.max(0.0))
    }

    pub fn relu_backward(grad_out: &Matrix, input: &Matrix) -> Matrix {
        let mut g = grad_out.clone();
        for (gv, &xv) in g.as_mut_slice().iter_mut().zip(input.as_slice()) {
            if xv <= 0.0 {
                *gv = 0.0;
            }
        }
        g
    }

    pub struct DropoutMask {
        keep: Vec<bool>,
        scale: f32,
    }

    pub fn dropout_forward(x: &Matrix, p: f32, rng: &mut Rng) -> (Matrix, DropoutMask) {
        let scale = 1.0 / (1.0 - p);
        let mut out = x.clone();
        let mut keep = vec![true; x.len()];
        if p > 0.0 {
            for (v, k) in out.as_mut_slice().iter_mut().zip(keep.iter_mut()) {
                if rng.unit() < p {
                    *v = 0.0;
                    *k = false;
                } else {
                    *v *= scale;
                }
            }
        }
        (out, DropoutMask { keep, scale })
    }

    pub fn dropout_backward(grad_out: &Matrix, mask: &DropoutMask) -> Matrix {
        let mut g = grad_out.clone();
        for (gv, &k) in g.as_mut_slice().iter_mut().zip(&mask.keep) {
            *gv = if k { *gv * mask.scale } else { 0.0 };
        }
        g
    }

    /// What the training forward produced and kept.
    pub struct Tail {
        pub out: Matrix,
        pub ln: LayerNormCache,
        relu_in: Matrix,
        dropout: Option<DropoutMask>,
    }

    pub fn tail_forward(lin: &Matrix, gamma: &[f32], beta: &[f32], p: f32, rng: &mut Rng) -> Tail {
        let (relu_in, ln) = layer_norm_forward(lin, gamma, beta);
        let act = relu_forward(&relu_in);
        let (out, dropout) = if p > 0.0 {
            let (dropped, mask) = dropout_forward(&act, p, rng);
            (dropped, Some(mask))
        } else {
            (act, None)
        };
        Tail {
            out,
            ln,
            relu_in,
            dropout,
        }
    }

    pub fn tail_backward(
        grad_out: &Matrix,
        tail: &Tail,
        gamma: &[f32],
    ) -> (Matrix, Vec<f32>, Vec<f32>) {
        let undropped = tail.dropout.as_ref().map(|m| dropout_backward(grad_out, m));
        let grad = relu_backward(undropped.as_ref().unwrap_or(grad_out), &tail.relu_in);
        layer_norm_backward(&grad, &tail.ln, gamma)
    }
}

/// Bit equality, except that any NaN equals any NaN: which payload an
/// operation on two NaNs forwards is the compiler's operand order, not the
/// kernel's arithmetic.
fn same_bits(got: &[f32], want: &[f32]) -> bool {
    let same = |(a, b): (&f32, &f32)| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
    got.len() == want.len() && got.iter().zip(want).all(same)
}

/// Inputs for one tail case: `rows x cols` activations and upstream
/// gradient plus affine parameters, optionally salted with signed zeros,
/// NaN and infinities.
struct TailCase {
    lin: Matrix,
    grad_out: Matrix,
    gamma: Vec<f32>,
    beta: Vec<f32>,
}

fn tail_case(seed: u64, rows: usize, cols: usize, salted: bool) -> TailCase {
    const SALT: [f32; 5] = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    let mut rng = Rng::seed_from(seed);
    let mut draw = |lo: f32, hi: f32| {
        if salted && rng.below(16) == 0 {
            SALT[rng.below(SALT.len())]
        } else {
            rng.uniform(lo, hi)
        }
    };
    let lin = Matrix::from_fn(rows, cols, |_, _| draw(-3.0, 3.0));
    let grad_out = Matrix::from_fn(rows, cols, |_, _| draw(-1.0, 1.0));
    let gamma = (0..cols).map(|_| draw(-1.5, 1.5)).collect();
    let beta = (0..cols).map(|_| draw(-0.5, 0.5)).collect();
    TailCase {
        lin,
        grad_out,
        gamma,
        beta,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_tail_matches_the_composed_five_steps_bit_for_bit(
        seed in 0u64..10_000,
        // 0 rows, one chunk, and several 64-row chunks; 1 column and odd widths.
        rows in 0usize..200,
        cols in 1usize..10,
        p_index in 0usize..4,
        salted in 0usize..2,
    ) {
        let p = [0.0f32, 0.1, 0.5, 0.9][p_index];
        let c = tail_case(seed, rows, cols, salted == 1);
        let mut want_rng = Rng::seed_from(seed ^ 0xD80);
        let want = composed::tail_forward(&c.lin, &c.gamma, &c.beta, p, &mut want_rng);
        let want_grads = composed::tail_backward(&c.grad_out, &want, &c.gamma);
        let want_next = want_rng.next_u64();
        let infer_ln = composed::layer_norm_forward(&c.lin, &c.gamma, &c.beta).0;
        let want_infer = composed::relu_forward(&infer_ln);
        for t in [1usize, 2, 8] {
            tensor::par::set_threads(t);
            let mut rng = Rng::seed_from(seed ^ 0xD80);
            let (out, cache) = tensor::tail_forward(c.lin.clone(), &c.gamma, &c.beta, p, &mut rng);
            prop_assert!(same_bits(out.as_slice(), want.out.as_slice()), "forward, threads {t}");
            prop_assert!(same_bits(cache.ln.x_hat.as_slice(), want.ln.x_hat.as_slice()));
            prop_assert!(same_bits(&cache.ln.inv_std, &want.ln.inv_std));
            // The generator stands exactly where the one-loop dropout left it.
            prop_assert_eq!(rng.next_u64(), want_next, "generator, threads {}", t);

            let (g_lin, g_gamma, g_beta) = tensor::tail_backward(&c.grad_out, &cache, &c.gamma);
            prop_assert!(same_bits(g_lin.as_slice(), want_grads.0.as_slice()), "grad_lin, threads {t}");
            prop_assert!(same_bits(&g_gamma, &want_grads.1), "grad_gamma, threads {t}");
            prop_assert!(same_bits(&g_beta, &want_grads.2), "grad_beta, threads {t}");

            let infer = tensor::tail_infer(c.lin.clone(), &c.gamma, &c.beta);
            prop_assert!(same_bits(infer.as_slice(), want_infer.as_slice()), "infer, threads {t}");
        }
        tensor::par::set_threads(0);
    }

    #[test]
    fn layer_norm_matches_its_serial_reference_bit_for_bit(
        seed in 0u64..10_000,
        rows in 0usize..200,
        cols in 1usize..10,
        salted in 0usize..2,
    ) {
        let c = tail_case(seed, rows, cols, salted == 1);
        let (want_out, want_cache) = composed::layer_norm_forward(&c.lin, &c.gamma, &c.beta);
        let want_grads = composed::layer_norm_backward(&c.grad_out, &want_cache, &c.gamma);
        for t in [1usize, 2, 8] {
            tensor::par::set_threads(t);
            let (out, cache) = tensor::layer_norm_forward(&c.lin, &c.gamma, &c.beta);
            prop_assert!(same_bits(out.as_slice(), want_out.as_slice()), "threads {t}");
            prop_assert!(same_bits(cache.x_hat.as_slice(), want_cache.x_hat.as_slice()));
            prop_assert!(same_bits(&cache.inv_std, &want_cache.inv_std));
            let (g_in, g_gamma, g_beta) = tensor::layer_norm_backward(&c.grad_out, &cache, &c.gamma);
            prop_assert!(same_bits(g_in.as_slice(), want_grads.0.as_slice()), "threads {t}");
            prop_assert!(same_bits(&g_gamma, &want_grads.1));
            prop_assert!(same_bits(&g_beta, &want_grads.2));
        }
        tensor::par::set_threads(0);
    }

    #[test]
    fn fused_losses_match_their_two_pass_forms_bit_for_bit(
        seed in 0u64..10_000,
        rows in 0usize..40,
        cols in 1usize..8,
    ) {
        let mut rng = Rng::seed_from(seed);
        let logits = Matrix::from_fn(rows, cols, |_, _| rng.uniform(-4.0, 4.0));
        let labels: Vec<usize> = (0..rows).map(|_| rng.below(cols)).collect();
        let mask: Vec<bool> = (0..rows).map(|_| rng.below(3) > 0).collect();
        let count = mask.iter().filter(|&&m| m).count();

        // Cross-entropy: loss and gradient each from a log-softmax of its own.
        let log_p = log_softmax(&logits);
        let mut want_loss = 0.0f32;
        let mut want_grad = Matrix::zeros(rows, cols);
        for i in (0..rows).filter(|&i| mask[i]) {
            want_loss -= log_p.at(i, labels[i]);
            for j in 0..cols {
                want_grad.set(i, j, log_p.at(i, j).exp() / count as f32);
            }
            want_grad.set(i, labels[i], want_grad.at(i, labels[i]) - 1.0 / count as f32);
        }
        if count > 0 {
            want_loss /= count as f32;
        }
        let (loss, grad) = tensor::softmax_cross_entropy(&logits, &labels, &mask);
        prop_assert_eq!(loss.to_bits(), want_loss.to_bits());
        prop_assert!(same_bits(grad.as_slice(), want_grad.as_slice()));

        // Weighted BCE: the loss pass, then the gradient pass.
        let targets = Matrix::from_fn(rows, cols, |_, _| rng.below(2) as f32);
        let w = 1.0 + rng.unit() * 3.0;
        let denom = count.max(1) as f32 * cols as f32;
        let mut want_loss = 0.0f32;
        let mut want_grad = Matrix::zeros(rows, cols);
        for i in (0..rows).filter(|&i| mask[i]) {
            for (&z, &y) in logits.row(i).iter().zip(targets.row(i)) {
                let softplus_neg = (1.0 + (-z.abs()).exp()).ln() + (-z).max(0.0);
                let softplus_pos = (1.0 + (-z.abs()).exp()).ln() + z.max(0.0);
                want_loss += w * y * softplus_neg + (1.0 - y) * softplus_pos;
            }
        }
        for i in (0..rows).filter(|&i| mask[i]) {
            for j in 0..cols {
                let (z, y) = (logits.at(i, j), targets.at(i, j));
                let p = 1.0 / (1.0 + (-z).exp());
                want_grad.set(i, j, (w * y * (p - 1.0) + (1.0 - y) * p) / denom);
            }
        }
        if count > 0 {
            want_loss /= denom;
        }
        let (loss, grad) = tensor::sigmoid_bce_weighted(&logits, &targets, &mask, w);
        prop_assert_eq!(loss.to_bits(), want_loss.to_bits());
        prop_assert!(same_bits(grad.as_slice(), want_grad.as_slice()));
    }
}

proptest! {
    #[test]
    fn matmul_identity_left(m in arb_matrix(12, 12)) {
        let i = Matrix::eye(m.rows());
        let p = i.matmul(&m);
        prop_assert_eq!(p, m);
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in arb_matrix(6, 5),
        seed in 0u64..1000,
    ) {
        // Build b, c with shapes compatible with a.
        let mut rng = tensor::Rng::seed_from(seed);
        let b = Matrix::from_fn(a.cols(), 4, |_, _| rng.uniform(-1.0, 1.0));
        let c = Matrix::from_fn(a.cols(), 4, |_, _| rng.uniform(-1.0, 1.0));
        let mut bc = b.clone();
        bc.add_assign(&c);
        let lhs = a.matmul(&bc);
        let mut rhs = a.matmul(&b);
        rhs.add_assign(&a.matmul(&c));
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn transpose_preserves_frobenius_norm(m in arb_matrix(10, 10)) {
        let n1 = m.frobenius_norm();
        let n2 = m.transpose().frobenius_norm();
        prop_assert!((n1 - n2).abs() <= 1e-3 * n1.max(1.0));
    }

    #[test]
    fn matmul_tn_agrees_with_transpose(m in arb_matrix(8, 6), seed in 0u64..1000) {
        let mut rng = tensor::Rng::seed_from(seed);
        let b = Matrix::from_fn(m.rows(), 3, |_, _| rng.uniform(-1.0, 1.0));
        let fast = m.matmul_tn(&b);
        let slow = m.transpose().matmul(&b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn log_softmax_probabilities_normalize(m in arb_matrix(8, 8)) {
        let lp = log_softmax(&m);
        for i in 0..lp.rows() {
            let s: f32 = lp.row(i).iter().map(|v| v.exp()).sum();
            prop_assert!((s - 1.0).abs() < 1e-4, "row {i} sums to {s}");
        }
    }

    #[test]
    fn gather_rows_preserves_content(m in arb_matrix(10, 6), seed in 0u64..1000) {
        let mut rng = tensor::Rng::seed_from(seed);
        let idx: Vec<usize> = (0..5).map(|_| rng.below(m.rows())).collect();
        let g = m.gather_rows(&idx);
        for (k, &i) in idx.iter().enumerate() {
            prop_assert_eq!(g.row(k), m.row(i));
        }
    }

    #[test]
    fn parallel_matmul_is_byte_identical_across_thread_counts(
        seed in 0u64..1000,
        rows in 250usize..300,
        inner in 1usize..6,
        cols in 1usize..6,
    ) {
        // Rows straddle the parallel threshold, so both the serial and the
        // chunked paths are exercised; the determinism contract says every
        // thread count yields the same bytes.
        let mut rng = tensor::Rng::seed_from(seed);
        let a = Matrix::from_fn(rows, inner, |_, _| rng.uniform(-1.0, 1.0));
        let b = Matrix::from_fn(inner, cols, |_, _| rng.uniform(-1.0, 1.0));
        let g = Matrix::from_fn(rows, cols, |_, _| rng.uniform(-1.0, 1.0));
        let mut results = Vec::new();
        for t in [1usize, 2, 8] {
            tensor::par::set_threads(t);
            results.push((a.matmul(&b), a.matmul_tn(&g), g.matmul_nt(&b)));
        }
        tensor::par::set_threads(0);
        for (mm, tn, nt) in &results[1..] {
            prop_assert_eq!(mm.as_slice(), results[0].0.as_slice());
            prop_assert_eq!(tn.as_slice(), results[0].1.as_slice());
            prop_assert_eq!(nt.as_slice(), results[0].2.as_slice());
        }
    }

    #[test]
    fn scale_scales_norm(m in arb_matrix(8, 8), s in -3.0f32..3.0) {
        let before = m.frobenius_norm();
        let mut scaled = m.clone();
        scaled.scale(s);
        let after = scaled.frobenius_norm();
        prop_assert!((after - s.abs() * before).abs() <= 1e-2 * (1.0 + before));
    }
}

//! One GNN layer: dense transform + LayerNorm + ReLU + dropout, with manual
//! forward/backward and explicit caches.

use tensor::{tail_backward, tail_forward, tail_infer, xavier_uniform, Matrix, Rng, TailCache};

/// Convolution family: decides how aggregation output enters the dense
/// transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvKind {
    /// GCN (Kipf & Welling): `h = act(LN(W * agg))`, self handled via the
    /// graph's self loops.
    Gcn,
    /// GraphSAGE-mean (Hamilton et al.): `h = act(LN(W_self * x + W_neigh *
    /// mean(neighbors)))`.
    Sage,
    /// GIN (Xu et al.): sum aggregation with a learnable self path,
    /// `h = act(LN(W_self * x + W_neigh * sum(neighbors)))` — the
    /// `(1 + eps)` self-scaling of the original formulation is subsumed by
    /// the learnable `W_self`.
    Gin,
}

impl ConvKind {
    /// Whether the layer consumes the nodes' own features through a separate
    /// learnable path (GCN routes self-information through its self loops
    /// instead).
    pub fn uses_self_path(self) -> bool {
        matches!(self, ConvKind::Sage | ConvKind::Gin)
    }
}

/// A single GNN layer with its parameters, gradients and forward caches.
///
/// Hidden layers apply `LayerNorm -> ReLU -> dropout` after the linear
/// transform (the paper's configuration, Table 8); the output layer emits
/// raw logits.
#[derive(Debug, Clone)]
pub struct GnnLayer {
    kind: ConvKind,
    in_dim: usize,
    out_dim: usize,
    is_output: bool,
    dropout: f32,

    w_neigh: Matrix,
    w_self: Option<Matrix>,
    bias: Vec<f32>,
    ln_gamma: Vec<f32>,
    ln_beta: Vec<f32>,

    gw_neigh: Matrix,
    gw_self: Option<Matrix>,
    gbias: Vec<f32>,
    gln_gamma: Vec<f32>,
    gln_beta: Vec<f32>,

    cache_agg: Option<Matrix>,
    cache_self: Option<Matrix>,
    cache_tail: Option<TailCache>,
}

impl GnnLayer {
    /// Creates a layer with Xavier-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero or `dropout` is outside `[0, 1)`.
    pub fn new(
        kind: ConvKind,
        in_dim: usize,
        out_dim: usize,
        is_output: bool,
        dropout: f32,
        rng: &mut Rng,
    ) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "zero layer dimension");
        assert!((0.0..1.0).contains(&dropout), "dropout must be in [0,1)");
        let w_neigh = xavier_uniform(in_dim, out_dim, rng);
        let w_self = if kind.uses_self_path() {
            Some(xavier_uniform(in_dim, out_dim, rng))
        } else {
            None
        };
        Self {
            kind,
            in_dim,
            out_dim,
            is_output,
            dropout,
            gw_neigh: Matrix::zeros(in_dim, out_dim),
            gw_self: w_self.as_ref().map(|_| Matrix::zeros(in_dim, out_dim)),
            w_neigh,
            w_self,
            bias: vec![0.0; out_dim],
            ln_gamma: vec![1.0; out_dim],
            ln_beta: vec![0.0; out_dim],
            gbias: vec![0.0; out_dim],
            gln_gamma: vec![0.0; out_dim],
            gln_beta: vec![0.0; out_dim],
            cache_agg: None,
            cache_self: None,
            cache_tail: None,
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Convolution family.
    pub fn kind(&self) -> ConvKind {
        self.kind
    }

    /// Whether this layer produces raw logits.
    pub fn is_output(&self) -> bool {
        self.is_output
    }

    /// The linear transform `agg * W_neigh (+ x_self * W_self) + bias`.
    fn linear(&self, agg: &Matrix, x_self: Option<&Matrix>) -> Matrix {
        assert_eq!(agg.cols(), self.in_dim, "agg feature dim mismatch");
        let mut lin = agg.matmul(&self.w_neigh);
        if let Some(ws) = &self.w_self {
            #[expect(clippy::expect_used, reason = "documented: a self path needs x_self")]
            let xs = x_self.expect("this layer kind requires x_self");
            assert_eq!(xs.shape(), agg.shape(), "x_self shape mismatch");
            lin.add_assign(&xs.matmul(ws));
        }
        lin.add_row_vector(&self.bias);
        lin
    }

    /// Dense part of the training forward pass; keeps what
    /// [`Self::backward_params`] needs, `agg` itself included.
    ///
    /// `agg` is the aggregated neighborhood (`num_nodes x in_dim`); for SAGE
    /// `x_self` must be the nodes' own features; GCN ignores it.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, or if SAGE is missing `x_self`.
    pub fn forward_dense(&mut self, agg: Matrix, x_self: Option<&Matrix>, rng: &mut Rng) -> Matrix {
        let lin = self.linear(&agg, x_self);
        self.cache_self = self.w_self.as_ref().and(x_self).cloned();
        self.cache_agg = Some(agg);
        if self.is_output {
            return lin;
        }
        let (out, cache) = tail_forward(lin, &self.ln_gamma, &self.ln_beta, self.dropout, rng);
        self.cache_tail = Some(cache);
        out
    }

    /// Dense part of the inference forward pass: [`Self::forward_dense`]
    /// without dropout, caching nothing, so it may run between a training
    /// forward and its backward.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, or if SAGE is missing `x_self`.
    pub fn infer_dense(&self, agg: &Matrix, x_self: Option<&Matrix>) -> Matrix {
        let lin = self.linear(agg, x_self);
        if self.is_output {
            lin
        } else {
            tail_infer(lin, &self.ln_gamma, &self.ln_beta)
        }
    }

    /// Dense part of the backward pass: [`Self::backward_params`] followed by
    /// [`Self::backward_inputs`]. Accumulates parameter gradients and
    /// returns `(grad_agg, grad_self)` (the latter `None` for GCN).
    ///
    /// # Panics
    ///
    /// Panics if called before `forward_dense` or on shape mismatch.
    pub fn backward_dense(&mut self, grad_out: &Matrix) -> (Matrix, Option<Matrix>) {
        let grad_lin = self.backward_params(grad_out);
        self.backward_inputs(&grad_lin)
    }

    /// Parameter half of the backward pass: consumes the forward caches,
    /// accumulates the weight, bias and LayerNorm gradients and returns the
    /// gradient with respect to the linear transform's output, which
    /// [`Self::backward_inputs`] turns into input gradients. A caller that
    /// reads no input gradient (the first layer: features are not trained)
    /// stops here and saves one `grad * W^T` per weight matrix.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward_dense` or on shape mismatch.
    #[expect(
        clippy::expect_used,
        reason = "documented: backward needs a prior forward, which fills both caches"
    )]
    pub fn backward_params(&mut self, grad_out: &Matrix) -> Matrix {
        let agg = self
            .cache_agg
            .take()
            .expect("backward_dense before forward_dense");
        let grad = if self.is_output {
            grad_out.clone()
        } else {
            let cache = self.cache_tail.take().expect("missing tail cache");
            let (grad, ggamma, gbeta) = tail_backward(grad_out, &cache, &self.ln_gamma);
            for (a, b) in self.gln_gamma.iter_mut().zip(ggamma) {
                *a += b;
            }
            for (a, b) in self.gln_beta.iter_mut().zip(gbeta) {
                *a += b;
            }
            grad
        };
        self.gw_neigh.add_assign(&agg.matmul_tn(&grad));
        for (b, s) in self.gbias.iter_mut().zip(grad.column_sums()) {
            *b += s;
        }
        if let (Some(gw_self), Some(xs)) = (&mut self.gw_self, self.cache_self.take()) {
            gw_self.add_assign(&xs.matmul_tn(&grad));
        }
        grad
    }

    /// Input half of the backward pass: `(grad_agg, grad_self)` from the
    /// linear-output gradient [`Self::backward_params`] returned (`grad_self`
    /// is `None` for GCN).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn backward_inputs(&self, grad_lin: &Matrix) -> (Matrix, Option<Matrix>) {
        let grad_agg = grad_lin.matmul_nt(&self.w_neigh);
        let grad_self = self.w_self.as_ref().map(|ws| grad_lin.matmul_nt(ws));
        (grad_agg, grad_self)
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.gw_neigh.scale(0.0);
        if let Some(g) = &mut self.gw_self {
            g.scale(0.0);
        }
        self.gbias.iter_mut().for_each(|v| *v = 0.0);
        self.gln_gamma.iter_mut().for_each(|v| *v = 0.0);
        self.gln_beta.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Number of scalar parameters.
    pub fn param_count(&self) -> usize {
        let mut n = self.w_neigh.len() + self.bias.len() + self.ln_gamma.len() + self.ln_beta.len();
        if let Some(ws) = &self.w_self {
            n += ws.len();
        }
        n
    }

    /// Appends parameters to `out` in a fixed order.
    pub fn write_params(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.w_neigh.as_slice());
        if let Some(ws) = &self.w_self {
            out.extend_from_slice(ws.as_slice());
        }
        out.extend_from_slice(&self.bias);
        out.extend_from_slice(&self.ln_gamma);
        out.extend_from_slice(&self.ln_beta);
    }

    /// Appends gradients to `out` in the same order as [`Self::write_params`].
    pub fn write_grads(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.gw_neigh.as_slice());
        if let Some(gs) = &self.gw_self {
            out.extend_from_slice(gs.as_slice());
        }
        out.extend_from_slice(&self.gbias);
        out.extend_from_slice(&self.gln_gamma);
        out.extend_from_slice(&self.gln_beta);
    }

    /// Loads parameters from `src` starting at `offset`; returns the new
    /// offset.
    ///
    /// # Panics
    ///
    /// Panics if `src` is too short.
    pub fn read_params(&mut self, src: &[f32], mut offset: usize) -> usize {
        let take = |buf: &mut [f32], src: &[f32], off: usize| {
            buf.copy_from_slice(&src[off..off + buf.len()]);
            off + buf.len()
        };
        offset = take(self.w_neigh.as_mut_slice(), src, offset);
        if let Some(ws) = &mut self.w_self {
            offset = take(ws.as_mut_slice(), src, offset);
        }
        offset = take(&mut self.bias, src, offset);
        offset = take(&mut self.ln_gamma, src, offset);
        take(&mut self.ln_beta, src, offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcn_layer_shapes() {
        let mut rng = Rng::seed_from(1);
        let mut layer = GnnLayer::new(ConvKind::Gcn, 8, 4, false, 0.0, &mut rng);
        let agg = Matrix::from_fn(5, 8, |_, _| rng.uniform(-1.0, 1.0));
        let y = layer.forward_dense(agg, None, &mut rng);
        assert_eq!(y.shape(), (5, 4));
        let (ga, gs) = layer.backward_dense(&Matrix::full(5, 4, 1.0));
        assert_eq!(ga.shape(), (5, 8));
        assert!(gs.is_none());
    }

    #[test]
    fn sage_layer_uses_self_path() {
        let mut rng = Rng::seed_from(2);
        let mut layer = GnnLayer::new(ConvKind::Sage, 6, 3, true, 0.0, &mut rng);
        let agg = Matrix::zeros(4, 6);
        let xs = Matrix::from_fn(4, 6, |_, _| rng.uniform(-1.0, 1.0));
        // With zero aggregation, output depends only on the self path.
        let y = layer.infer_dense(&agg, Some(&xs));
        let y0 = layer.forward_dense(agg, Some(&Matrix::zeros(4, 6)), &mut rng);
        assert!(y.as_slice().iter().any(|&v| v.abs() > 1e-4));
        // Zero input + zero agg = bias only (zero-initialized).
        assert!(y0.as_slice().iter().all(|&v| v.abs() < 1e-6));
        let (_, gs) = layer.backward_dense(&Matrix::full(4, 3, 1.0));
        assert!(gs.is_some());
    }

    #[test]
    #[should_panic(expected = "requires x_self")]
    fn sage_without_self_panics() {
        let mut rng = Rng::seed_from(3);
        let mut layer = GnnLayer::new(ConvKind::Sage, 4, 2, false, 0.0, &mut rng);
        let agg = Matrix::zeros(2, 4);
        let _ = layer.forward_dense(agg, None, &mut rng);
    }

    #[test]
    fn output_layer_skips_norm_and_activation() {
        let mut rng = Rng::seed_from(4);
        let mut layer = GnnLayer::new(ConvKind::Gcn, 4, 2, true, 0.5, &mut rng);
        let agg = Matrix::from_fn(3, 4, |_, _| -1.0);
        let y = layer.forward_dense(agg.clone(), None, &mut rng);
        // Logits may be negative (no ReLU) and dropout must not apply.
        let y2 = layer.forward_dense(agg, None, &mut rng);
        assert_eq!(y, y2, "output layer must be deterministic");
    }

    #[test]
    fn param_roundtrip() {
        let mut rng = Rng::seed_from(5);
        let layer = GnnLayer::new(ConvKind::Sage, 4, 3, false, 0.1, &mut rng);
        let mut params = Vec::new();
        layer.write_params(&mut params);
        assert_eq!(params.len(), layer.param_count());
        // Perturb then restore.
        let saved = params.clone();
        let mut layer2 = layer.clone();
        let zeros = vec![0.5f32; params.len()];
        layer2.read_params(&zeros, 0);
        let mut after = Vec::new();
        layer2.write_params(&mut after);
        assert!(after.iter().all(|&v| v == 0.5));
        layer2.read_params(&saved, 0);
        let mut restored = Vec::new();
        layer2.write_params(&mut restored);
        assert_eq!(restored, saved);
    }

    #[test]
    fn gradient_check_gcn_hidden_layer() {
        // Finite differences through lin + LN + ReLU wrt weights and input.
        let mut rng = Rng::seed_from(6);
        let mut layer = GnnLayer::new(ConvKind::Gcn, 3, 4, false, 0.0, &mut rng);
        let agg = Matrix::from_fn(5, 3, |_, _| rng.uniform(-1.0, 1.0));
        let loss = |layer: &GnnLayer, agg: &Matrix| -> f32 {
            let y = layer.infer_dense(agg, None);
            // Smooth-ish scalar objective.
            y.as_slice().iter().map(|v| v * v).sum::<f32>() * 0.5
        };
        // Analytic grads.
        layer.zero_grads();
        let y = layer.forward_dense(agg.clone(), None, &mut rng);
        let (grad_agg, _) = layer.backward_dense(&y);
        let mut analytic = Vec::new();
        layer.write_grads(&mut analytic);
        // Numeric wrt first few weight entries.
        let mut params = Vec::new();
        layer.write_params(&mut params);
        let eps = 1e-2;
        for idx in [0usize, 3, 7, 11] {
            let mut pp = params.clone();
            pp[idx] += eps;
            layer.read_params(&pp, 0);
            let lp = loss(&layer, &agg);
            pp[idx] -= 2.0 * eps;
            layer.read_params(&pp, 0);
            let lm = loss(&layer, &agg);
            layer.read_params(&params, 0);
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - analytic[idx]).abs() < 3e-2 * (1.0 + num.abs()),
                "param {idx}: numeric {num} vs analytic {}",
                analytic[idx]
            );
        }
        // Numeric wrt one input entry.
        let (i, j) = (2, 1);
        let mut ap = agg.clone();
        ap.set(i, j, ap.at(i, j) + eps);
        let lp = loss(&layer, &ap);
        ap.set(i, j, ap.at(i, j) - 2.0 * eps);
        let lm = loss(&layer, &ap);
        let num = (lp - lm) / (2.0 * eps);
        assert!(
            (num - grad_agg.at(i, j)).abs() < 3e-2 * (1.0 + num.abs()),
            "input grad: numeric {num} vs analytic {}",
            grad_agg.at(i, j)
        );
    }

    #[test]
    fn skipping_the_input_gradients_leaves_parameter_gradients_bit_equal() {
        for kind in [ConvKind::Gcn, ConvKind::Sage] {
            for is_output in [false, true] {
                let mut rng = Rng::seed_from(8);
                let mut full = GnnLayer::new(kind, 6, 5, is_output, 0.3, &mut rng);
                let agg = Matrix::from_fn(9, 6, |_, _| rng.uniform(-1.0, 1.0));
                let xs = Matrix::from_fn(9, 6, |_, _| rng.uniform(-1.0, 1.0));
                let x_self = kind.uses_self_path().then_some(&xs);
                let grad_out = Matrix::from_fn(9, 5, |_, _| rng.uniform(-1.0, 1.0));
                let mut params_only = full.clone();
                // Same dropout mask on both copies.
                let mut fwd_rng = rng.clone();
                let _ = full.forward_dense(agg.clone(), x_self, &mut fwd_rng);
                let _ = params_only.forward_dense(agg, x_self, &mut rng);

                let (grad_agg, grad_self) = full.backward_dense(&grad_out);
                let grad_lin = params_only.backward_params(&grad_out);

                let (mut want, mut got) = (Vec::new(), Vec::new());
                full.write_grads(&mut want);
                params_only.write_grads(&mut got);
                assert!(want.iter().any(|&g| g != 0.0));
                assert_eq!(bits(&got), bits(&want), "{kind:?}, output {is_output}");
                // The deferred half reproduces what the full call returned.
                let (late_agg, late_self) = params_only.backward_inputs(&grad_lin);
                assert_eq!(late_agg, grad_agg);
                assert_eq!(late_self, grad_self);
                assert_eq!(grad_self.is_some(), kind.uses_self_path());
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|g| g.to_bits()).collect()
    }

    #[test]
    fn inference_between_forward_and_backward_leaves_gradients_bit_equal() {
        for kind in [ConvKind::Gcn, ConvKind::Sage] {
            for is_output in [false, true] {
                let mut rng = Rng::seed_from(9);
                let mut plain = GnnLayer::new(kind, 6, 5, is_output, 0.3, &mut rng);
                let agg = Matrix::from_fn(9, 6, |_, _| rng.uniform(-1.0, 1.0));
                let xs = Matrix::from_fn(9, 6, |_, _| rng.uniform(-1.0, 1.0));
                let x_self = kind.uses_self_path().then_some(&xs);
                let grad_out = Matrix::from_fn(9, 5, |_, _| rng.uniform(-1.0, 1.0));
                let mut evaluated = plain.clone();
                let _ = plain.forward_dense(agg.clone(), x_self, &mut rng.clone());
                let _ = evaluated.forward_dense(agg, x_self, &mut rng);
                // An evaluation on other activations, mid-step.
                let other = Matrix::from_fn(4, 6, |_, _| rng.uniform(-3.0, 3.0));
                let _ = evaluated.infer_dense(&other, kind.uses_self_path().then_some(&other));

                let want_lin = plain.backward_params(&grad_out);
                let got_lin = evaluated.backward_params(&grad_out);
                assert_eq!(bits(got_lin.as_slice()), bits(want_lin.as_slice()));
                let (mut want, mut got) = (Vec::new(), Vec::new());
                plain.write_grads(&mut want);
                evaluated.write_grads(&mut got);
                assert_eq!(bits(&got), bits(&want), "{kind:?}, output {is_output}");
            }
        }
    }

    #[test]
    fn infer_dense_is_the_composed_eval_forward_bit_for_bit() {
        for kind in [ConvKind::Gcn, ConvKind::Sage] {
            for is_output in [false, true] {
                let mut rng = Rng::seed_from(10);
                let mut layer = GnnLayer::new(kind, 7, 5, is_output, 0.5, &mut rng);
                // Non-trivial affine parameters, as after a few optimizer steps.
                let mut params = Vec::new();
                layer.write_params(&mut params);
                params.iter_mut().for_each(|v| *v += rng.uniform(-0.5, 0.5));
                layer.read_params(&params, 0);
                let agg = Matrix::from_fn(11, 7, |_, _| rng.uniform(-2.0, 2.0));
                let xs = Matrix::from_fn(11, 7, |_, _| rng.uniform(-2.0, 2.0));
                let x_self = kind.uses_self_path().then_some(&xs);

                // matmul, bias, LayerNorm, ReLU, one step at a time.
                let mut want = agg.matmul(&layer.w_neigh);
                if let Some(ws) = &layer.w_self {
                    want.add_assign(&xs.matmul(ws));
                }
                want.add_row_vector(&layer.bias);
                if !is_output {
                    let (ln, _) =
                        tensor::layer_norm_forward(&want, &layer.ln_gamma, &layer.ln_beta);
                    want = ln.map(|v| v.max(0.0));
                }
                let got = layer.infer_dense(&agg, x_self);
                assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{kind:?}");
            }
        }
    }

    #[test]
    fn zero_grads_clears_accumulation() {
        let mut rng = Rng::seed_from(7);
        let mut layer = GnnLayer::new(ConvKind::Gcn, 3, 2, true, 0.0, &mut rng);
        let agg = Matrix::full(2, 3, 1.0);
        let _ = layer.forward_dense(agg, None, &mut rng);
        let _ = layer.backward_dense(&Matrix::full(2, 2, 1.0));
        let mut grads = Vec::new();
        layer.write_grads(&mut grads);
        assert!(grads.iter().any(|&g| g != 0.0));
        layer.zero_grads();
        grads.clear();
        layer.write_grads(&mut grads);
        assert!(grads.iter().all(|&g| g == 0.0));
    }
}

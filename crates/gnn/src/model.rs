//! Multi-layer GNN models (GCN and full-batch GraphSAGE).

use crate::agg::AggGraph;
use crate::layer::{ConvKind, GnnLayer};
use std::borrow::Cow;
use tensor::{Matrix, Rng};

/// Default dropout used by the paper on most datasets (Table 8).
pub const DEFAULT_DROPOUT: f32 = 0.5;

fn assert_square(agg: &AggGraph) {
    assert_eq!(
        agg.num_ext(),
        agg.num_target(),
        "full-graph forward needs a square aggregation operator"
    );
}

/// A stack of [`GnnLayer`]s sharing one convolution family.
///
/// `forward`/`backward`/`infer` run the whole model against a single
/// [`AggGraph`] (the single-device / full-graph case used by tests and the
/// quickstart example). The distributed trainers in the `adaqp` crate
/// instead drive [`Gnn::layers_mut`] layer by layer, through the same
/// [`GnnLayer::forward_dense`] / [`GnnLayer::infer_dense`], inserting halo
/// communication between layers.
#[derive(Debug, Clone)]
pub struct Gnn {
    kind: ConvKind,
    layers: Vec<GnnLayer>,
}

impl Gnn {
    /// Builds a model with layer dimensions `dims` (`dims[0]` = input
    /// features, `dims.last()` = classes) and the default dropout.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() < 2`.
    pub fn new(kind: ConvKind, dims: &[usize], rng: &mut Rng) -> Self {
        Self::with_dropout(kind, dims, DEFAULT_DROPOUT, rng)
    }

    /// Builds a model with explicit dropout.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() < 2`.
    pub fn with_dropout(kind: ConvKind, dims: &[usize], dropout: f32, rng: &mut Rng) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let n_layers = dims.len() - 1;
        let layers = (0..n_layers)
            .map(|l| GnnLayer::new(kind, dims[l], dims[l + 1], l == n_layers - 1, dropout, rng))
            .collect();
        Self { kind, layers }
    }

    /// Convolution family.
    pub fn kind(&self) -> ConvKind {
        self.kind
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Immutable layer access.
    pub fn layers(&self) -> &[GnnLayer] {
        &self.layers
    }

    /// Mutable layer access (used by the distributed trainers to interleave
    /// communication with per-layer compute).
    pub fn layers_mut(&mut self) -> &mut [GnnLayer] {
        &mut self.layers
    }

    /// Full-graph training forward pass (dropout on, caches kept for
    /// [`Gnn::backward`]): every layer aggregates with the same `agg`
    /// operator (whose extended space must equal its target space).
    ///
    /// # Panics
    ///
    /// Panics if `agg` is not square (`num_ext != num_target`) or shapes
    /// mismatch.
    pub fn forward(&mut self, agg: &AggGraph, x: &Matrix, rng: &mut Rng) -> Matrix {
        assert_square(agg);
        let self_path = self.kind.uses_self_path();
        let mut h = Cow::Borrowed(x);
        for layer in &mut self.layers {
            let out = layer.forward_dense(agg.aggregate(&h), self_path.then_some(&*h), rng);
            h = Cow::Owned(out);
        }
        h.into_owned()
    }

    /// Full-graph inference pass: [`Gnn::forward`] without dropout, caching
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if `agg` is not square (`num_ext != num_target`) or shapes
    /// mismatch.
    pub fn infer(&self, agg: &AggGraph, x: &Matrix) -> Matrix {
        assert_square(agg);
        let self_path = self.kind.uses_self_path();
        let mut h = Cow::Borrowed(x);
        for layer in &self.layers {
            h = Cow::Owned(layer.infer_dense(&agg.aggregate(&h), self_path.then_some(&*h)));
        }
        h.into_owned()
    }

    /// Full-graph backward pass from logits gradient; accumulates parameter
    /// gradients and returns the gradient with respect to the input
    /// features.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Gnn::forward`].
    pub fn backward(&mut self, agg: &AggGraph, grad_logits: &Matrix) -> Matrix {
        let mut grad = grad_logits.clone();
        for layer in self.layers.iter_mut().rev() {
            let (grad_agg, grad_self) = layer.backward_dense(&grad);
            grad = agg.backward(&grad_agg);
            if let Some(gs) = grad_self {
                grad.add_assign(&gs);
            }
        }
        grad
    }

    /// Zeroes every layer's gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(GnnLayer::param_count).sum()
    }

    /// Flattened copy of all parameters.
    pub fn params_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            layer.write_params(&mut out);
        }
        out
    }

    /// Flattened copy of all gradients (same ordering as
    /// [`Gnn::params_flat`]).
    pub fn grads_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            layer.write_grads(&mut out);
        }
        out
    }

    /// Loads parameters from a flattened buffer.
    ///
    /// # Panics
    ///
    /// Panics if `src.len() != param_count()`.
    pub fn set_params_flat(&mut self, src: &[f32]) {
        assert_eq!(src.len(), self.param_count(), "parameter buffer size");
        let mut offset = 0;
        for layer in &mut self.layers {
            offset = layer.read_params(src, offset);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::CsrGraph;
    use tensor::{accuracy, softmax_cross_entropy};

    fn ring_graph(n: usize) -> CsrGraph {
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        CsrGraph::from_edges(n, &edges).with_self_loops()
    }

    #[test]
    fn forward_shapes() {
        let g = ring_graph(10);
        let agg = AggGraph::full_graph_gcn(&g);
        let mut rng = Rng::seed_from(1);
        let model = Gnn::new(ConvKind::Gcn, &[6, 12, 3], &mut rng);
        let x = Matrix::from_fn(10, 6, |_, _| rng.uniform(-1.0, 1.0));
        let y = model.infer(&agg, &x);
        assert_eq!(y.shape(), (10, 3));
        assert_eq!(model.num_layers(), 2);
    }

    #[test]
    fn param_flat_roundtrip() {
        let mut rng = Rng::seed_from(2);
        let mut model = Gnn::new(ConvKind::Sage, &[4, 8, 3], &mut rng);
        let p = model.params_flat();
        assert_eq!(p.len(), model.param_count());
        let doubled: Vec<f32> = p.iter().map(|v| v * 2.0).collect();
        model.set_params_flat(&doubled);
        let q = model.params_flat();
        for (a, b) in p.iter().zip(&q) {
            assert!((b - a * 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn gradients_flow_to_all_layers() {
        let g = ring_graph(8);
        let agg = AggGraph::full_graph_gcn(&g);
        let mut rng = Rng::seed_from(3);
        let mut model = Gnn::with_dropout(ConvKind::Gcn, &[5, 7, 4], 0.0, &mut rng);
        let x = Matrix::from_fn(8, 5, |_, _| rng.uniform(-1.0, 1.0));
        let labels = vec![0usize, 1, 2, 3, 0, 1, 2, 3];
        let mask = vec![true; 8];
        model.zero_grads();
        let logits = model.forward(&agg, &x, &mut rng);
        let (_, grad) = softmax_cross_entropy(&logits, &labels, &mask);
        let _ = model.backward(&agg, &grad);
        let grads = model.grads_flat();
        // Count nonzero grads per layer by splitting at layer boundaries.
        let l0 = model.layers()[0].param_count();
        assert!(
            grads[..l0].iter().any(|&g| g != 0.0),
            "layer 0 got no gradient"
        );
        assert!(
            grads[l0..].iter().any(|&g| g != 0.0),
            "layer 1 got no gradient"
        );
    }

    #[test]
    fn model_gradient_check_end_to_end() {
        let g = ring_graph(6);
        let agg = AggGraph::full_graph_gcn(&g);
        let mut rng = Rng::seed_from(4);
        let mut model = Gnn::with_dropout(ConvKind::Gcn, &[3, 5, 2], 0.0, &mut rng);
        let x = Matrix::from_fn(6, 3, |_, _| rng.uniform(-1.0, 1.0));
        let labels = vec![0usize, 1, 0, 1, 0, 1];
        let mask = vec![true; 6];
        model.zero_grads();
        let logits = model.forward(&agg, &x, &mut rng);
        let (_, grad_logits) = softmax_cross_entropy(&logits, &labels, &mask);
        let _ = model.backward(&agg, &grad_logits);
        let analytic = model.grads_flat();
        let params = model.params_flat();
        let eps = 1e-2;
        for idx in [0usize, 5, 16, params.len() - 1, params.len() / 2] {
            let mut p = params.clone();
            p[idx] += eps;
            model.set_params_flat(&p);
            let lp = softmax_cross_entropy(&model.infer(&agg, &x), &labels, &mask).0;
            p[idx] -= 2.0 * eps;
            model.set_params_flat(&p);
            let lm = softmax_cross_entropy(&model.infer(&agg, &x), &labels, &mask).0;
            model.set_params_flat(&params);
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - analytic[idx]).abs() < 5e-2 * (1.0 + num.abs()),
                "param {idx}: numeric {num} vs analytic {}",
                analytic[idx]
            );
        }
    }

    #[test]
    fn single_device_training_learns_communities() {
        // Two dense communities with distinct features: the model should
        // reach high train accuracy within a few epochs.
        let mut rng = Rng::seed_from(5);
        let blocks: Vec<usize> = (0..120).map(|v| v / 60).collect();
        let g = graph::generators::sbm(&blocks, 10.0, 0.5, &mut rng).with_self_loops();
        let x = graph::generators::class_features(&blocks, 8, 1.5, 0.3, &mut rng);
        let agg = AggGraph::full_graph_gcn(&g);
        let mut model = Gnn::with_dropout(ConvKind::Gcn, &[8, 16, 2], 0.0, &mut rng);
        let mut adam = crate::Adam::new(model.param_count(), 0.01);
        let mask = vec![true; 120];
        for _ in 0..30 {
            model.zero_grads();
            let logits = model.forward(&agg, &x, &mut rng);
            let (_, grad) = softmax_cross_entropy(&logits, &blocks, &mask);
            let _ = model.backward(&agg, &grad);
            let mut params = model.params_flat();
            adam.step(&mut params, &model.grads_flat());
            model.set_params_flat(&params);
        }
        let logits = model.infer(&agg, &x);
        let acc = accuracy(&logits, &blocks, &mask);
        assert!(acc > 0.95, "model failed to learn: accuracy {acc}");
    }

    #[test]
    fn sage_training_also_learns() {
        let mut rng = Rng::seed_from(6);
        let blocks: Vec<usize> = (0..120).map(|v| v / 40).collect();
        let g = graph::generators::sbm(&blocks, 8.0, 0.5, &mut rng);
        let x = graph::generators::class_features(&blocks, 8, 1.5, 0.3, &mut rng);
        let agg = AggGraph::full_graph_mean(&g);
        let mut model = Gnn::with_dropout(ConvKind::Sage, &[8, 16, 3], 0.0, &mut rng);
        let mut adam = crate::Adam::new(model.param_count(), 0.01);
        let mask = vec![true; 120];
        for _ in 0..40 {
            model.zero_grads();
            let logits = model.forward(&agg, &x, &mut rng);
            let (_, grad) = softmax_cross_entropy(&logits, &blocks, &mask);
            let _ = model.backward(&agg, &grad);
            let mut params = model.params_flat();
            adam.step(&mut params, &model.grads_flat());
            model.set_params_flat(&params);
        }
        let logits = model.infer(&agg, &x);
        let acc = accuracy(&logits, &blocks, &mask);
        assert!(acc > 0.9, "SAGE failed to learn: accuracy {acc}");
    }
}

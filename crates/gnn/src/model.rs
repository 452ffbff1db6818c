//! Multi-layer GNN models (GCN and full-batch GraphSAGE).

use crate::layer::{ConvKind, GnnLayer};
use tensor::Rng;

/// A stack of [`GnnLayer`]s sharing one convolution family, and the flat
/// parameter and gradient buffers the optimizer and the gradient all-reduce
/// work on.
///
/// The model has no forward or backward of its own: the distributed trainer
/// in the `adaqp` crate drives [`Gnn::layers_mut`] layer by layer, through
/// [`GnnLayer::forward_dense`], [`GnnLayer::backward_params`] and
/// [`GnnLayer::backward_inputs`], with a halo exchange around each
/// aggregation. A one-device run of that trainer is the single-device
/// reference.
#[derive(Debug, Clone)]
pub struct Gnn {
    kind: ConvKind,
    layers: Vec<GnnLayer>,
}

impl Gnn {
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
    use crate::{Adam, AggGraph};
    use graph::CsrGraph;
    use tensor::{softmax_cross_entropy, Matrix};

    fn ring_graph(n: usize) -> CsrGraph {
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        CsrGraph::from_edges(n, &edges)
    }

    /// The one-device aggregation operator the trainer builds for `kind`
    /// (`adaqp::build_partitions`): GCN over the self-loop-augmented graph,
    /// SAGE-mean over plain neighbors.
    fn operator(kind: ConvKind, g: &CsrGraph) -> AggGraph {
        match kind {
            ConvKind::Gcn => AggGraph::full_graph_gcn(&g.with_self_loops()),
            ConvKind::Sage => AggGraph::from_csr_with(g, |_, v| g.mean_coeff(v)),
        }
    }

    /// `DeviceTrainer::forward_layer` on one device (no halo): aggregate,
    /// then the layer's dense part, SAGE also reading the layer input.
    fn forward(model: &mut Gnn, agg: &AggGraph, x: &Matrix, rng: &mut Rng) -> Matrix {
        let self_path = model.kind().uses_self_path();
        let mut h = x.clone();
        for layer in model.layers_mut() {
            h = layer.forward_dense(agg.aggregate(&h), self_path.then_some(&h), rng);
        }
        h
    }

    /// `DeviceTrainer::evaluate` on one device.
    fn infer(model: &Gnn, agg: &AggGraph, x: &Matrix) -> Matrix {
        let self_path = model.kind().uses_self_path();
        let mut h = x.clone();
        for layer in model.layers() {
            h = layer.infer_dense(&agg.aggregate(&h), self_path.then_some(&h));
        }
        h
    }

    /// `DeviceTrainer::run_epoch`'s backward on one device: parameter
    /// gradients for every layer, input gradients for every layer above the
    /// first, routed back through the aggregation's transpose.
    fn backward(model: &mut Gnn, agg: &AggGraph, grad_logits: Matrix) {
        let mut grad = grad_logits;
        for l in (0..model.num_layers()).rev() {
            let grad_lin = model.layers_mut()[l].backward_params(&grad);
            if l == 0 {
                break;
            }
            let (grad_agg, grad_self) = model.layers()[l].backward_inputs(&grad_lin);
            grad = agg.backward(&grad_agg);
            if let Some(gs) = grad_self {
                grad.add_assign(&gs);
            }
        }
    }

    #[test]
    fn forward_shapes() {
        for kind in [ConvKind::Gcn, ConvKind::Sage] {
            let agg = operator(kind, &ring_graph(10));
            let mut rng = Rng::seed_from(1);
            let mut model = Gnn::with_dropout(kind, &[6, 12, 3], 0.5, &mut rng);
            let x = Matrix::from_fn(10, 6, |_, _| rng.uniform(-1.0, 1.0));
            assert_eq!(infer(&model, &agg, &x).shape(), (10, 3));
            assert_eq!(forward(&mut model, &agg, &x, &mut rng).shape(), (10, 3));
            assert_eq!(model.num_layers(), 2);
        }
    }

    #[test]
    fn param_flat_roundtrip() {
        let mut rng = Rng::seed_from(2);
        let mut model = Gnn::with_dropout(ConvKind::Sage, &[4, 8, 3], 0.5, &mut rng);
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
        for kind in [ConvKind::Gcn, ConvKind::Sage] {
            let agg = operator(kind, &ring_graph(8));
            let mut rng = Rng::seed_from(3);
            let mut model = Gnn::with_dropout(kind, &[5, 7, 6, 4], 0.0, &mut rng);
            let x = Matrix::from_fn(8, 5, |_, _| rng.uniform(-1.0, 1.0));
            let labels = vec![0usize, 1, 2, 3, 0, 1, 2, 3];
            let mask = vec![true; 8];
            model.zero_grads();
            let logits = forward(&mut model, &agg, &x, &mut rng);
            let (_, grad) = softmax_cross_entropy(&logits, &labels, &mask);
            backward(&mut model, &agg, grad);
            let grads = model.grads_flat();
            let mut start = 0;
            for (l, layer) in model.layers().iter().enumerate() {
                let end = start + layer.param_count();
                assert!(
                    grads[start..end].iter().any(|&g| g != 0.0),
                    "{kind:?}: layer {l} got no gradient"
                );
                start = end;
            }
        }
    }

    #[test]
    fn model_gradient_check_end_to_end() {
        // Three layers, so the check crosses a hidden layer's input gradient
        // as well as the first layer's parameters-only backward.
        for kind in [ConvKind::Gcn, ConvKind::Sage] {
            let agg = operator(kind, &ring_graph(6));
            let mut rng = Rng::seed_from(4);
            let mut model = Gnn::with_dropout(kind, &[3, 5, 4, 2], 0.0, &mut rng);
            let x = Matrix::from_fn(6, 3, |_, _| rng.uniform(-1.0, 1.0));
            let labels = vec![0usize, 1, 0, 1, 0, 1];
            let mask = vec![true; 6];
            model.zero_grads();
            let logits = forward(&mut model, &agg, &x, &mut rng);
            let (_, grad_logits) = softmax_cross_entropy(&logits, &labels, &mask);
            backward(&mut model, &agg, grad_logits);
            let analytic = model.grads_flat();
            let params = model.params_flat();
            let loss =
                |model: &Gnn| softmax_cross_entropy(&infer(model, &agg, &x), &labels, &mask).0;
            let eps = 1e-2;
            let n = params.len();
            for idx in [0usize, 5, 16, n / 3, n / 2, 2 * n / 3, n - 1] {
                let mut p = params.clone();
                p[idx] += eps;
                model.set_params_flat(&p);
                let lp = loss(&model);
                p[idx] -= 2.0 * eps;
                model.set_params_flat(&p);
                let lm = loss(&model);
                model.set_params_flat(&params);
                let num = (lp - lm) / (2.0 * eps);
                assert!(
                    (num - analytic[idx]).abs() < 5e-2 * (1.0 + num.abs()),
                    "{kind:?} param {idx}: numeric {num} vs analytic {}",
                    analytic[idx]
                );
            }
        }
    }

    #[test]
    fn single_device_training_learns_communities() {
        // Two dense communities with distinct features: the model should
        // reach high train accuracy within a few epochs.
        let mut rng = Rng::seed_from(5);
        let blocks: Vec<usize> = (0..120).map(|v| v / 60).collect();
        let g = graph::generators::sbm(&blocks, 10.0, 0.5, &mut rng);
        let x = graph::generators::class_features(&blocks, 8, 1.5, 0.3, &mut rng);
        let agg = operator(ConvKind::Gcn, &g);
        let mut model = Gnn::with_dropout(ConvKind::Gcn, &[8, 16, 2], 0.0, &mut rng);
        let mut adam = Adam::new(model.param_count(), 0.01);
        let mask = vec![true; 120];
        for _ in 0..30 {
            model.zero_grads();
            let logits = forward(&mut model, &agg, &x, &mut rng);
            let (_, grad) = softmax_cross_entropy(&logits, &blocks, &mask);
            backward(&mut model, &agg, grad);
            let mut params = model.params_flat();
            adam.step(&mut params, &model.grads_flat());
            model.set_params_flat(&params);
        }
        let logits = infer(&model, &agg, &x);
        let correct = (0..120)
            .filter(|&i| {
                let row = logits.row(i);
                let best = (0..row.len()).fold(0, |b, j| if row[j] > row[b] { j } else { b });
                best == blocks[i]
            })
            .count();
        assert!(correct > 114, "model failed to learn: {correct} of 120");
    }
}

//! High-level single-device training loop with early stopping.
//!
//! The distributed trainers live in the `adaqp` crate; this module covers
//! the plain full-graph case (one device, no communication) that users
//! reach for first — and that the reproduction uses as its numerical
//! reference.

use crate::{Adam, AggGraph, Gnn};
use tensor::{accuracy, micro_f1, sigmoid_bce_weighted, softmax_cross_entropy, Matrix, Rng};

/// Labels for [`fit`].
#[derive(Debug, Clone)]
pub enum FitLabels<'a> {
    /// Single-label classification: class index per node.
    Single(&'a [usize]),
    /// Multi-label classification: 0/1 target matrix and a positive-class
    /// weight for the BCE loss.
    Multi(&'a Matrix, f32),
}

/// Options for [`fit`].
#[derive(Debug, Clone)]
pub struct FitOptions {
    /// Maximum epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Stop after this many epochs without validation improvement
    /// (`None` disables early stopping).
    pub patience: Option<usize>,
    /// RNG seed for dropout.
    pub seed: u64,
}

impl Default for FitOptions {
    fn default() -> Self {
        Self {
            epochs: 100,
            lr: 0.01,
            patience: Some(20),
            seed: 0,
        }
    }
}

/// One epoch's record in the fit history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitEpoch {
    /// Epoch index.
    pub epoch: usize,
    /// Training loss.
    pub loss: f32,
    /// Validation score (accuracy or micro-F1).
    pub val_score: f64,
    /// L2 norm of the flattened parameter gradients before the Adam step.
    pub grad_norm: f64,
}

/// Result of [`fit`].
#[derive(Debug, Clone)]
pub struct FitHistory {
    /// Per-epoch records (ends early if patience ran out).
    pub epochs: Vec<FitEpoch>,
    /// Best validation score seen.
    pub best_val: f64,
    /// Epoch of the best validation score.
    pub best_epoch: usize,
}

/// Trains `model` on a full graph with Adam, evaluating on `val_mask` every
/// epoch and stopping early when validation stops improving.
///
/// Returns the history; `model` is left with its final (not necessarily
/// best) parameters.
///
/// # Panics
///
/// Panics if mask/label lengths disagree with the feature matrix.
pub fn fit(
    model: &mut Gnn,
    agg: &AggGraph,
    features: &Matrix,
    labels: &FitLabels<'_>,
    train_mask: &[bool],
    val_mask: &[bool],
    options: &FitOptions,
) -> FitHistory {
    let n = features.rows();
    assert_eq!(train_mask.len(), n, "train mask length");
    assert_eq!(val_mask.len(), n, "val mask length");
    let mut adam = Adam::new(model.param_count(), options.lr);
    let mut rng = Rng::seed_from(options.seed);
    let mut history = FitHistory {
        epochs: Vec::new(),
        best_val: f64::NEG_INFINITY,
        best_epoch: 0,
    };
    let mut since_best = 0usize;
    for epoch in 0..options.epochs {
        model.zero_grads();
        let logits = model.forward(agg, features, &mut rng);
        let (loss, grad) = match labels {
            FitLabels::Single(classes) => softmax_cross_entropy(&logits, classes, train_mask),
            FitLabels::Multi(targets, w) => sigmoid_bce_weighted(&logits, targets, train_mask, *w),
        };
        let _ = model.backward(agg, &grad);
        let mut params = model.params_flat();
        let grads = model.grads_flat();
        let grad_norm = grads
            .iter()
            .map(|&g| f64::from(g) * f64::from(g))
            .sum::<f64>()
            .sqrt();
        adam.step(&mut params, &grads);
        model.set_params_flat(&params);

        // Evaluation pass (no dropout).
        let eval_logits = model.infer(agg, features);
        let val_score = match labels {
            FitLabels::Single(classes) => accuracy(&eval_logits, classes, val_mask),
            FitLabels::Multi(targets, _) => micro_f1(&eval_logits, targets, val_mask),
        };
        history.epochs.push(FitEpoch {
            epoch,
            loss,
            val_score,
            grad_norm,
        });
        if val_score > history.best_val {
            history.best_val = val_score;
            history.best_epoch = epoch;
            since_best = 0;
        } else {
            since_best += 1;
            if let Some(patience) = options.patience {
                if since_best >= patience {
                    break;
                }
            }
        }
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConvKind;
    use graph::generators::{class_features, sbm};

    fn setup() -> (AggGraph, Matrix, Vec<usize>, Vec<bool>, Vec<bool>) {
        let mut rng = Rng::seed_from(3);
        let blocks: Vec<usize> = (0..150).map(|v| v / 50).collect();
        let g = sbm(&blocks, 8.0, 0.5, &mut rng).with_self_loops();
        let x = class_features(&blocks, 8, 1.5, 0.3, &mut rng);
        let agg = AggGraph::full_graph_gcn(&g);
        let train: Vec<bool> = (0..150).map(|i| i % 2 == 0).collect();
        let val: Vec<bool> = (0..150).map(|i| i % 2 == 1).collect();
        (agg, x, blocks, train, val)
    }

    #[test]
    fn fit_learns_and_records_history() {
        let (agg, x, blocks, train, val) = setup();
        let mut rng = Rng::seed_from(4);
        let mut model = Gnn::with_dropout(ConvKind::Gcn, &[8, 16, 3], 0.0, &mut rng);
        let history = fit(
            &mut model,
            &agg,
            &x,
            &FitLabels::Single(&blocks),
            &train,
            &val,
            &FitOptions {
                epochs: 40,
                patience: None,
                ..FitOptions::default()
            },
        );
        assert_eq!(history.epochs.len(), 40);
        assert!(history.best_val > 0.9, "val {}", history.best_val);
        // Loss decreased.
        assert!(history.epochs.last().expect("epochs").loss < history.epochs[0].loss);
        // Gradients flowed every epoch.
        assert!(history.epochs.iter().all(|e| e.grad_norm > 0.0));
    }

    #[test]
    fn early_stopping_cuts_the_run_short() {
        let (agg, x, blocks, train, val) = setup();
        let mut rng = Rng::seed_from(5);
        let mut model = Gnn::with_dropout(ConvKind::Gcn, &[8, 16, 3], 0.0, &mut rng);
        let history = fit(
            &mut model,
            &agg,
            &x,
            &FitLabels::Single(&blocks),
            &train,
            &val,
            &FitOptions {
                epochs: 500,
                patience: Some(5),
                ..FitOptions::default()
            },
        );
        assert!(
            history.epochs.len() < 500,
            "early stopping never fired ({} epochs)",
            history.epochs.len()
        );
        assert!(history.best_epoch < history.epochs.len());
    }

    #[test]
    fn multilabel_fit_works() {
        let (agg, x, blocks, train, val) = setup();
        let targets = tensor::multilabel_targets_from_classes(
            &blocks.iter().map(|&b| vec![b]).collect::<Vec<_>>(),
            3,
        );
        let mut rng = Rng::seed_from(6);
        let mut model = Gnn::with_dropout(ConvKind::Gcn, &[8, 16, 3], 0.0, &mut rng);
        let history = fit(
            &mut model,
            &agg,
            &x,
            &FitLabels::Multi(&targets, 2.0),
            &train,
            &val,
            &FitOptions {
                epochs: 60,
                patience: None,
                ..FitOptions::default()
            },
        );
        assert!(history.best_val > 0.8, "micro-F1 {}", history.best_val);
    }
}

//! GNN models with manual autograd, built for distributed full-graph
//! training.
//!
//! The crate provides:
//!
//! * [`AggGraph`] — a sparse aggregation operator over an *extended* index
//!   space (local nodes followed by halo copies of remote neighbors), the
//!   exact structure a device-local partition presents during distributed
//!   message passing (Eqn. 6 of the paper splits `N(v)` into local and
//!   remote neighbor sets);
//! * [`GnnLayer`] / [`Gnn`] — 3-layer GCN and full-batch GraphSAGE-mean
//!   models matching the paper's configuration (hidden 256, LayerNorm,
//!   ReLU, dropout, Adam; Table 8), with explicit per-layer forward and
//!   backward halves so the distributed trainer (`adaqp`'s
//!   `DeviceTrainer`) can put a halo exchange around every aggregation.
//!   That trainer is the only training loop; a one-device run of it is the
//!   single-device reference;
//! * [`Adam`] — the optimizer, operating on flattened parameter vectors so
//!   model gradients can be all-reduced with a single buffer.
//!
//! # Example: one layer's training step, as the trainer takes it
//!
//! ```
//! use gnn::{AggGraph, ConvKind, Gnn};
//! use graph::CsrGraph;
//! use tensor::{Matrix, Rng};
//!
//! let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).with_self_loops();
//! let agg = AggGraph::full_graph_gcn(&g);
//! let mut rng = Rng::seed_from(0);
//! let mut model = Gnn::with_dropout(ConvKind::Gcn, &[8, 3], 0.5, &mut rng);
//! let x = Matrix::from_fn(4, 8, |_, _| rng.uniform(-1.0, 1.0));
//! let layer = &mut model.layers_mut()[0];
//! let logits = layer.forward_dense(agg.aggregate(&x), None, &mut rng);
//! assert_eq!(logits.shape(), (4, 3));
//! // Features are not trained, so the first layer's backward stops at its
//! // parameter gradients.
//! let _ = layer.backward_params(&logits);
//! assert!(model.grads_flat().iter().any(|&g| g != 0.0));
//! ```

// Library code returns errors and stays silent (DESIGN.md §7);
// `#[cfg(test)]` code, bins and tests are exempt.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]
#![warn(missing_docs)]

mod adam;
mod agg;
mod layer;
mod model;

pub use adam::Adam;
pub use agg::{AggGraph, AggGraphBuilder};
pub use layer::{ConvKind, GnnLayer};
pub use model::Gnn;

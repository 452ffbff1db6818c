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
//!   ReLU, dropout, Adam; Table 8), with explicit forward/backward so the
//!   distributed trainer can interleave halo communication between layers;
//! * [`Adam`] — the optimizer, operating on flattened parameter vectors so
//!   model gradients can be all-reduced with a single buffer.
//!
//! # Example: single-device full-graph training step
//!
//! ```
//! use gnn::{AggGraph, Gnn, Adam, ConvKind};
//! use graph::CsrGraph;
//! use tensor::{Matrix, Rng};
//!
//! let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).with_self_loops();
//! let agg = AggGraph::full_graph_gcn(&g);
//! let mut rng = Rng::seed_from(0);
//! let model = Gnn::new(ConvKind::Gcn, &[8, 16, 3], &mut rng);
//! let x = Matrix::from_fn(4, 8, |_, _| rng.uniform(-1.0, 1.0));
//! let logits = model.infer(&agg, &x);
//! assert_eq!(logits.shape(), (4, 3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adam;
mod agg;
mod layer;
mod model;
pub mod train;

pub use adam::Adam;
pub use agg::{AggGraph, AggGraphBuilder};
pub use layer::{ConvKind, GnnLayer};
pub use model::Gnn;
pub use train::{fit, FitHistory, FitLabels, FitOptions};

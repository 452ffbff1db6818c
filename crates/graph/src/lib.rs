//! Graph storage, synthetic datasets and partitioning.
//!
//! This crate provides the graph substrate of the AdaQP reproduction:
//!
//! * [`CsrGraph`] — compressed-sparse-row adjacency with the degree
//!   normalization coefficients mainstream GNNs use (Eqn. 3 of the paper);
//! * [`generators`] — stochastic-block-model and R-MAT graph generators plus
//!   class-correlated feature synthesis, used to build scaled-down stand-ins
//!   for the paper's four datasets (Reddit, Yelp, ogbn-products,
//!   AmazonProducts — Table 3);
//! * [`partition`] — a from-scratch multilevel partitioner in the spirit of
//!   METIS (heavy-edge-matching coarsening, greedy growing, boundary
//!   refinement), since METIS itself is not available;
//! * [`stats`] — partition-quality measurements that drive Table 1 and
//!   Fig. 2 (edge cut, remote-neighbor ratio, per-device-pair volumes).
//!
//! # Example
//!
//! ```
//! use graph::{CsrGraph, partition::metis_like};
//! use tensor::Rng;
//!
//! let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5), (2, 3)]);
//! let mut rng = Rng::seed_from(0);
//! let part = metis_like(&g, 2, &mut rng);
//! assert_eq!(part.assignment.len(), 6);
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

pub mod csr;
pub mod datasets;
pub mod generators;
pub mod io;
pub mod partition;
pub mod stats;

pub use csr::CsrGraph;
pub use datasets::{Dataset, DatasetSpec, Labels, Task};
pub use partition::{Partition, PartitionError};

//! Dense `f32` matrix math and neural-network kernels.
//!
//! This crate is the lowest-level substrate of the AdaQP reproduction: every
//! GNN layer, loss and optimizer in the workspace is built on the row-major
//! [`Matrix`] type defined here. It deliberately stays small and dependency
//! free (no BLAS): matrices are plain `Vec<f32>` buffers, matmul is
//! cache-blocked and optionally parallelized over row chunks with scoped
//! threads, and the NN kernels (`layer_norm`, `tail_forward`, `log_softmax`, …) are
//! written as straightforward loops so that their cost can be measured and
//! charged to the simulated device clock.
//!
//! # Example
//!
//! ```
//! use tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
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
// Indexed loops here typically walk several parallel arrays at once;
// explicit indices read better than zipped iterator chains in those spots.
#![allow(clippy::needless_range_loop)]

mod init;
mod matrix;
mod metrics;
mod ops;
pub mod par;
mod rng;
pub mod san;

pub use init::{kaiming_uniform, xavier_uniform};
pub use matrix::Matrix;
pub use metrics::multilabel_targets_from_classes;
pub use ops::{
    dropout_draw, dropout_in_place, layer_norm_backward, layer_norm_forward, log_softmax, sigmoid,
    sigmoid_bce_weighted, softmax_cross_entropy, tail_backward, tail_forward, tail_infer,
    LayerNormCache, TailCache,
};
pub use rng::Rng;

/// Convenience result alias used by fallible constructors in this crate.
pub type Result<T> = std::result::Result<T, ShapeError>;

/// Error returned when matrix dimensions do not line up.
///
/// The `expected`/`found` fields describe the shapes involved in the failed
/// operation, in `(rows, cols)` form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// Human-readable description of the operation that failed.
    pub op: &'static str,
    /// Shape the operation required.
    pub expected: (usize, usize),
    /// Shape that was actually supplied.
    pub found: (usize, usize),
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shape mismatch in {}: expected {:?}, found {:?}",
            self.op, self.expected, self.found
        )
    }
}

impl std::error::Error for ShapeError {}

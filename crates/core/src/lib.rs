//! # AdaQP — adaptive message quantization and parallelization for
//! distributed full-graph GNN training
//!
//! A from-scratch Rust reproduction of *"Adaptive Message Quantization and
//! Parallelization for Distributed Full-graph GNN Training"* (Wan, Zhao & Wu,
//! MLSys 2023). The crate orchestrates the substrates in this workspace
//! (`tensor`, `graph`, `quant`, `comm`, `gnn`, `solver`) into the complete
//! training system plus the baselines the paper compares against:
//!
//! * **Vanilla** — synchronous full-precision halo exchange every layer;
//! * **AdaQP** — the paper's system: stochastic integer quantization of
//!   cross-device messages with adaptive per-group bit-widths (solved as the
//!   bi-objective problem of Sec. 4.2), plus central/marginal decomposition
//!   so central-node computation overlaps marginal-node communication;
//! * **AdaQP-Uniform** — the ablation of Sec. 5.3 (random uniform bit-width
//!   per message group);
//! * **PipeGCN-like** — cross-iteration pipelining with one-epoch-stale halo
//!   embeddings and gradients (Wan et al. 2022b);
//! * **SANCUS-like** — staleness-aware broadcast skipping with sequential
//!   node broadcasts (Peng et al. 2022).
//!
//! Devices are advanced by one deterministic discrete-event scheduler
//! (`comm::Cluster`) and exchange real (quantized) byte streams; transfer
//! *time* comes from an affine per-link cost model. See
//! `DESIGN.md` at the repository root for the substitution inventory.
//!
//! # Quickstart
//!
//! ```
//! use adaqp::{ExperimentConfig, Method, TrainingConfig};
//! use graph::DatasetSpec;
//!
//! let cfg = ExperimentConfig {
//!     dataset: DatasetSpec::tiny(),
//!     machines: 1,
//!     devices_per_machine: 2,
//!     method: Method::AdaQp,
//!     training: TrainingConfig { epochs: 3, hidden: 16, ..TrainingConfig::default() },
//!     seed: 7,
//! };
//! let result = adaqp::run_experiment(&cfg).expect("valid config");
//! assert_eq!(result.per_epoch.len(), 3);
//! ```
//!
//! Configuration misuse is reported as a typed [`Error`] instead of a panic:
//!
//! ```
//! let err = adaqp::ExperimentConfig::builder().epochs(0).build();
//! assert!(matches!(err, Err(adaqp::Error::InvalidConfig(_))));
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

pub mod assigner;
pub mod checkpoint;
pub mod config;
pub mod decompose;
pub mod error;
pub mod exchange;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod telemetry;
pub mod trainers;
pub mod tune;

pub use config::{ExperimentConfig, ExperimentConfigBuilder, Method, TopologySpec, TrainingConfig};
pub use decompose::{build_partitions, DevicePartition, GlobalInfo, LocalLabels};
pub use error::Error;
pub use metrics::{EpochMetrics, RunResult};
pub use runner::{run_experiment, run_experiment_profiled, RunProfile};
pub use telemetry::{HostKernelSummary, TelemetryLog};

//! Simulated distributed runtime for full-graph GNN training.
//!
//! The paper runs on multi-GPU, multi-machine clusters. This crate replaces
//! that hardware with a faithful *functional* simulation:
//!
//! * **Devices are state machines.** Each device is an `async` body over
//!   an [`AsyncDevice`] ([`Cluster::try_run_async`]); the compiler turns it
//!   into a state machine that one deterministic discrete-event scheduler
//!   advances, with no OS thread per device. The shipped trainers
//!   (`adaqp::run_experiment`) are such bodies. An imperative closure runs
//!   through the lockstep adapter of [`Cluster::run_fn`] instead, which
//!   parks one OS thread per device and lets exactly one of them run at a
//!   time; it is kept for the benchmark harness.
//! * **Links are events.** Payloads (quantized byte streams) actually move
//!   between devices, so numerics are end-to-end real; each transfer is an
//!   event charged `theta * bytes + gamma` on the simulated clock.
//! * **Time is modeled, not measured, for transfers.** A [`CostModel`]
//!   prices each device pair with affine parameters — the same cost model
//!   the paper's bit-width assigner uses (Eqn. 10, citing Sarvotham et
//!   al.) — looked up from the machine/rack/spine bandwidth tiers of the
//!   [`Topology`] it was built from. Compute time is charged analytically
//!   from kernel operation counts.
//! * **[`obs::time::TimeBreakdown`]** accumulates per-category simulated
//!   seconds (communication / central computation / marginal computation /
//!   quantization / solver), which is exactly the decomposition Fig. 10
//!   reports.
//!
//! The cluster is collectives-only, as the paper's per-device protocol is:
//! ring all2all (Fig. 8), broadcast, gather / scatter to the master rank
//! (the assigner round, Fig. 6), and sum-allreduce for model gradients.

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

pub mod cluster;
pub mod costmodel;
mod event;
mod program;
pub mod timing;
pub mod topology;
pub mod waitgraph;

pub use cluster::{AsyncDevice, Cluster, ClusterError, DeviceHandle};
pub use costmodel::CostModel;
pub use event::ClusterReport;
pub use topology::{LinkTier, Topology};
pub use waitgraph::{BlockedRank, CollectiveFront, WaitCause, WaitGraph};

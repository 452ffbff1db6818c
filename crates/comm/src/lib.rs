//! Simulated distributed runtime for full-graph GNN training.
//!
//! The paper runs on multi-GPU, multi-machine clusters. This crate replaces
//! that hardware with a faithful *functional* simulation:
//!
//! * **Devices are state machines.** Each device implements
//!   [`DeviceProgram`] and is advanced by one deterministic discrete-event
//!   scheduler, with no OS thread per device. An imperative closure runs
//!   through the lockstep adapter of [`Cluster::run_fn`] instead, which
//!   parks one OS thread per device and lets exactly one of them run at a
//!   time. The shipped trainers (`adaqp::run_experiment`) are still such
//!   closures, so a 256-device experiment is 256 threads; only native
//!   programs (the examples, the model checker's subjects) are thread-free.
//! * **Links are events.** Payloads (quantized byte streams) actually move
//!   between devices, so numerics are end-to-end real; each transfer is an
//!   event charged `theta * bytes + gamma` on the simulated clock.
//! * **Time is modeled, not measured, for transfers.** A [`CostModel`]
//!   carries the per-pair affine parameters — the same cost model the
//!   paper's bit-width assigner uses (Eqn. 10, citing Sarvotham et al.) —
//!   and the [`Topology`] builder lowers hierarchical machine/rack/spine
//!   bandwidth tiers onto it. Compute time is charged analytically from
//!   kernel operation counts.
//! * **[`TimeBreakdown`]** accumulates per-category simulated seconds
//!   (communication / central computation / marginal computation /
//!   quantization / solver), which is exactly the decomposition Fig. 10
//!   reports.
//!
//! Collectives provided: tagged point-to-point send/recv, barrier, ring
//! all2all (Fig. 8), sequential broadcast (the SANCUS schedule), gather /
//! scatter to the master rank, and sum-allreduce for model gradients.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Indexed loops here typically walk several parallel arrays at once;
// explicit indices read better than zipped iterator chains in those spots.
#![allow(clippy::needless_range_loop)]

pub mod cluster;
pub mod costmodel;
pub mod event;
pub mod flight;
pub mod program;
pub mod timing;
pub mod topology;
pub mod waitgraph;

pub use cluster::{Cluster, ClusterError, DeviceHandle};
pub use costmodel::CostModel;
pub use event::ClusterReport;
pub use flight::FlightRecorder;
pub use program::{Command, DeviceCtx, DeviceProgram, Resume, Step};
pub use timing::{TimeBreakdown, TimeCategory};
pub use topology::Topology;
pub use waitgraph::{BlockedRank, CollectiveFront, UnclaimedMessage, WaitCause, WaitGraph};

/// The one-stop import for cluster simulations: the event-core entry
/// points, the device API (both forms), and the cost/topology surface.
///
/// ```
/// use comm::prelude::*;
///
/// let cm = Topology::new(2, 2).cost_model();
/// let report = Cluster::try_run_fn_with(4, Some(&cm), |mut dev| {
///     dev.barrier();
///     dev.rank()
/// })
/// .unwrap();
/// assert_eq!(report.outputs, vec![0, 1, 2, 3]);
/// ```
pub mod prelude {
    pub use crate::cluster::{Cluster, ClusterError, DeviceHandle};
    pub use crate::costmodel::CostModel;
    pub use crate::event::ClusterReport;
    pub use crate::program::{Command, DeviceCtx, DeviceProgram, Resume, Step};
    pub use crate::timing::{TimeBreakdown, TimeCategory};
    pub use crate::topology::Topology;
    pub use crate::waitgraph::{WaitCause, WaitGraph};
}

//! Typed errors for the public experiment API.
//!
//! [`crate::runner::run_experiment`] and the configuration builder return
//! [`Error`] instead of panicking, so config misuse is reportable by CLI
//! tools and benches without unwinding through the cluster threads.

use std::fmt;

/// Everything that can go wrong setting up or running an experiment.
#[derive(Debug)]
pub enum Error {
    /// A configuration field is out of range or inconsistent.
    InvalidConfig(String),
    /// The graph could not be partitioned onto the requested devices.
    Partition(String),
    /// The bit-width assigner's solver found no feasible assignment.
    SolverInfeasible(String),
    /// An export or checkpoint file operation failed.
    Io(std::io::Error),
    /// A simulated device failed mid-run (panicked or stalled).
    Cluster(comm::ClusterError),
    /// A device received a halo block that does not decode.
    Exchange {
        /// The receiving device.
        rank: usize,
        /// The sending peer and what was wrong with its block.
        error: crate::exchange::ExchangeError,
    },
    /// A device's bit-width reassignment round met a control-plane message
    /// that does not decode.
    Assigner {
        /// The device that could not read the message.
        rank: usize,
        /// Which message and what was wrong with it.
        error: crate::assigner::AssignError,
    },
    /// The determinism sanitizer (`adaqp-san`, see `tensor::san`) observed a
    /// parallel-kernel contract violation during a sanitized run.
    Sanitizer(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::Partition(msg) => write!(f, "partitioning failed: {msg}"),
            Error::SolverInfeasible(msg) => write!(f, "solver infeasible: {msg}"),
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::Cluster(e) => write!(f, "cluster failure: {e}"),
            Error::Exchange { rank, error } => write!(f, "device {rank}: {error}"),
            Error::Assigner { rank, error } => write!(f, "device {rank}: {error}"),
            Error::Sanitizer(msg) => write!(f, "determinism sanitizer: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            Error::Cluster(e) => Some(e),
            Error::Exchange { error, .. } => Some(error),
            Error::Assigner { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// Why one device stopped mid-run; the runner adds the rank to make it an
/// [`Error`].
#[derive(Debug)]
pub enum DeviceError {
    /// A peer's halo block did not decode.
    Exchange(crate::exchange::ExchangeError),
    /// A reassignment round's message did not decode.
    Assigner(crate::assigner::AssignError),
}

impl DeviceError {
    /// This failure as the run's error, on device `rank`.
    pub fn on(self, rank: usize) -> Error {
        match self {
            Self::Exchange(error) => Error::Exchange { rank, error },
            Self::Assigner(error) => Error::Assigner { rank, error },
        }
    }
}

impl From<crate::exchange::ExchangeError> for DeviceError {
    fn from(e: crate::exchange::ExchangeError) -> Self {
        Self::Exchange(e)
    }
}

impl From<crate::assigner::AssignError> for DeviceError {
    fn from(e: crate::assigner::AssignError) -> Self {
        Self::Assigner(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl From<comm::ClusterError> for Error {
    fn from(e: comm::ClusterError) -> Self {
        Error::Cluster(e)
    }
}

impl From<graph::PartitionError> for Error {
    fn from(e: graph::PartitionError) -> Self {
        Error::Partition(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = Error::InvalidConfig("epochs must be >= 1".into());
        assert!(e.to_string().contains("epochs"));
        let io = Error::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(io.to_string().contains("gone"));
    }

    #[test]
    fn exchange_error_names_both_devices_and_the_cause() {
        use std::error::Error as _;
        let cause = quant::DecodeError::BadBitWidth(7);
        let error = crate::exchange::ExchangeError { peer: 3, cause };
        let e = Error::Exchange { rank: 1, error };
        let text = e.to_string();
        assert!(
            text.contains("device 1") && text.contains("device 3"),
            "{text}"
        );
        assert!(text.contains("bit-width 7"), "{text}");
        assert!(e.source().is_some());
    }

    #[test]
    fn assigner_error_names_the_device_the_stage_and_the_cause() {
        use crate::assigner::{AssignError, AssignStage, WireError};
        use std::error::Error as _;
        let error = AssignError {
            stage: AssignStage::Reply,
            cause: WireError::Count(5),
        };
        let e = DeviceError::from(error).on(2);
        let text = e.to_string();
        assert!(text.contains("device 2"), "{text}");
        assert!(text.contains("width reply"), "{text}");
        assert!(text.contains("peer 5"), "{text}");
        let stage = e.source().expect("the stage error");
        assert_eq!(stage.to_string(), error.to_string());
        assert!(stage.source().is_some(), "the wire error under it");
        for (stage, what) in [(AssignStage::Trace, "trace"), (AssignStage::Stats, "stats")] {
            let cause = WireError::Truncated;
            let text = AssignError { stage, cause }.to_string();
            assert!(text.contains(what), "{text}");
        }
    }

    #[test]
    fn io_source_is_preserved() {
        use std::error::Error as _;
        let e = Error::from(std::io::Error::other("disk"));
        assert!(e.source().is_some());
        assert!(Error::Partition("x".into()).source().is_none());
    }
}

//! Observability: a deterministic typed metric registry plus exporters.
//!
//! The registry follows the same contract as `tensor::par`: everything it
//! exports is **byte-identical at any worker-thread count**. Values that
//! depend on scheduling or on the host's wall clock are not recorded in it;
//! the few host-timed series a run reports carry a leading underscore so
//! `adaqp-regress` leaves them out of its comparisons.
//!
//! Two metric kinds are supported:
//!
//! * [`Counter`](MetricKind::Counter) — monotone sum.
//! * [`Gauge`](MetricKind::Gauge) — last-written value.
//!
//! A run has one registry, written by one fold over what its devices
//! counted (`adaqp::metrics::fold_run_metrics`); there is nothing to merge.
//!
//! Exporters: Prometheus text format ([`MetricsSnapshot::to_prometheus`])
//! and JSON (the snapshot serializes with `serde_json`). Both use Rust's
//! shortest-roundtrip float formatting, so output is byte-stable.

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

pub mod critpath;
mod registry;
pub mod regress;
pub mod time;

pub use registry::{Metric, MetricKind, MetricsSnapshot, Registry};

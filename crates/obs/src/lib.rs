//! Observability: a deterministic typed metric registry plus exporters.
//!
//! The registry follows the same contract as `tensor::par`: everything it
//! exports by default is **byte-identical at any worker-thread count**.
//! Metrics whose values depend on scheduling or host wall-clock (per-worker
//! chunk counts, host-time histograms, measured solve seconds) are recorded with a `diagnostic` flag and excluded from the
//! default snapshot/exports; they stay readable on the [`Registry`] itself
//! ([`Registry::get`], [`Registry::iter`]).
//!
//! Three metric kinds are supported:
//!
//! * [`Counter`](MetricKind::Counter) — monotone sum.
//! * [`Gauge`](MetricKind::Gauge) — last-written value.
//! * [`Histogram`](MetricKind::Histogram) — fixed log2 bucket boundaries
//!   ([`bucket_bounds`]), so two histograms always share bucket edges.
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

pub use registry::{
    bucket_bounds, bucket_index, Metric, MetricKind, MetricsSnapshot, Registry, HISTOGRAM_BUCKETS,
};

//! Observability: a deterministic typed metric registry plus exporters.
//!
//! The registry follows the same contract as `tensor::par`: everything it
//! exports by default is **byte-identical at any worker-thread count**.
//! Metrics whose values depend on scheduling or host wall-clock (per-worker
//! chunk counts, [`timer::ScopedTimer`] host-time histograms, measured solve
//! seconds) are recorded with a `diagnostic` flag and excluded from the
//! default snapshot/exports; they remain available programmatically and via
//! the `_all` snapshot variant.
//!
//! Three metric kinds are supported:
//!
//! * [`Counter`](MetricKind::Counter) — monotone sum; merges by addition.
//! * [`Gauge`](MetricKind::Gauge) — last-written value; merges by overwrite
//!   in merge order (device registries merge in rank order, so the result is
//!   deterministic).
//! * [`Histogram`](MetricKind::Histogram) — fixed log2 bucket boundaries
//!   ([`bucket_bounds`]), so two histograms always share bucket edges and
//!   bucket counts merge elementwise.
//!
//! Exporters: Prometheus text format ([`MetricsSnapshot::to_prometheus`])
//! and JSON (the snapshot serializes with `serde_json`). Both use Rust's
//! shortest-roundtrip float formatting, so output is byte-stable.

#![forbid(unsafe_code)]

pub mod critpath;
mod registry;
pub mod regress;
pub mod time;
pub mod timer;

pub use registry::{
    bucket_bounds, bucket_index, Metric, MetricKind, MetricsSnapshot, Registry, HISTOGRAM_BUCKETS,
};

//! Run results: per-epoch records, throughput and time breakdowns.

use crate::config::Method;
use comm::TimeBreakdown;
pub use obs::time::Schedule;
use serde::{Deserialize, Serialize};

/// Local metric accumulators one device reports for one epoch. For
/// single-label tasks `val`/`test` hold `[correct, total, 0]`; for
/// multi-label they hold `[tp, fp, fn]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricParts {
    /// Validation accumulator.
    pub val: [f64; 3],
    /// Test accumulator.
    pub test: [f64; 3],
}

impl MetricParts {
    /// Elementwise sum.
    pub fn merge(&mut self, other: &MetricParts) {
        for i in 0..3 {
            self.val[i] += other.val[i];
            self.test[i] += other.test[i];
        }
    }

    /// Final metric value from an accumulator: accuracy for single-label
    /// (`multi = false`), micro-F1 for multi-label.
    pub fn score(acc: &[f64; 3], multi: bool) -> f64 {
        if multi {
            let denom = 2.0 * acc[0] + acc[1] + acc[2];
            if denom == 0.0 {
                0.0
            } else {
                2.0 * acc[0] / denom
            }
        } else if acc[1] == 0.0 {
            0.0
        } else {
            acc[0] / acc[1]
        }
    }
}

/// One device's record of one epoch (collected by the runner).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DeviceEpochRecord {
    /// Simulated time charged this epoch on this device.
    pub breakdown: TimeBreakdown,
    /// Sum of per-node losses over local training nodes.
    pub loss_sum: f64,
    /// Metric accumulators.
    pub metric: MetricParts,
    /// Bytes this device sent during training exchanges this epoch.
    pub bytes_sent: usize,
    /// L2 norm of the allreduced parameter gradients before the Adam step
    /// (identical on every rank).
    #[serde(default)]
    pub grad_norm: f64,
}

/// Cluster-level record of one epoch.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EpochMetrics {
    /// Epoch index.
    pub epoch: usize,
    /// Global mean training loss.
    pub loss: f64,
    /// Validation metric (accuracy or micro-F1).
    pub val_score: f64,
    /// Test metric.
    pub test_score: f64,
    /// Simulated epoch time: the slowest device's epoch time under the
    /// method's schedule.
    pub sim_seconds: f64,
    /// Slowest device's breakdown for this epoch.
    pub breakdown: TimeBreakdown,
    /// Total bytes moved across the cluster this epoch.
    pub bytes_sent: usize,
}

/// Result of a full experiment run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Method name.
    pub method: String,
    /// Dataset name.
    pub dataset: String,
    /// Partition label (e.g. `2M-4D`).
    pub partition: String,
    /// Per-epoch records.
    pub per_epoch: Vec<EpochMetrics>,
    /// Best validation score over the run.
    pub best_val: f64,
    /// Test score at the best-validation epoch.
    pub test_at_best: f64,
    /// Total simulated wall-clock seconds (training + assignment).
    pub total_sim_seconds: f64,
    /// Simulated throughput, epochs per second.
    pub throughput: f64,
    /// Aggregate simulated time breakdown (summed over epochs; slowest
    /// device per epoch).
    pub total_breakdown: TimeBreakdown,
    /// Total bytes communicated over the run.
    pub total_bytes: usize,
    /// Structured per-device event log; present only when the run was
    /// configured with `training.telemetry = true`.
    #[serde(default)]
    pub telemetry: Option<crate::telemetry::TelemetryLog>,
    /// Merged metric snapshot (device registries merged in rank order, plus
    /// cluster-level per-epoch gauges); present only when the run was
    /// configured with `training.metrics = true`. Contains only the
    /// deterministic series — byte-identical at any worker-thread count.
    #[serde(default)]
    pub metrics: Option<obs::MetricsSnapshot>,
}

impl RunResult {
    /// Fraction of serial time spent communicating, as in Table 1.
    pub fn comm_fraction(&self) -> f64 {
        self.total_breakdown.comm_fraction()
    }
}

/// The one method → schedule rule: how a device's phase sums compose into
/// its epoch time.
///
/// * Vanilla — strictly serial: `comm + comp + quant`;
/// * AdaQP (and Uniform) — central compute hides under comm (Sec. 3.4),
///   unless `disable_overlap` ablates that (design decision D4 in
///   DESIGN.md);
/// * PipeGCN — comm pipelines across iterations: `max(comm, comp) + quant`;
/// * SANCUS — serial, but comm is already only the broadcast-refresh cost.
pub fn schedule_for(method: Method, disable_overlap: bool) -> Schedule {
    match method {
        Method::Vanilla | Method::Sancus => Schedule::Serial,
        Method::AdaQp | Method::AdaQpUniform if disable_overlap => Schedule::Serial,
        Method::AdaQp | Method::AdaQpUniform => Schedule::Overlapped,
        Method::PipeGcn => Schedule::Pipelined,
    }
}

/// One device's epoch time: its breakdown composed under
/// [`schedule_for`]`(method, disable_overlap)`.
pub fn epoch_time_with_overlap(method: Method, disable_overlap: bool, tb: &TimeBreakdown) -> f64 {
    tb.total(schedule_for(method, disable_overlap))
}

#[cfg(test)]
mod tests {
    use super::*;
    use comm::TimeCategory;

    #[test]
    fn metric_parts_merge_and_score() {
        let mut a = MetricParts {
            val: [8.0, 10.0, 0.0],
            test: [1.0, 1.0, 1.0],
        };
        let b = MetricParts {
            val: [2.0, 10.0, 0.0],
            test: [1.0, 1.0, 1.0],
        };
        a.merge(&b);
        assert_eq!(MetricParts::score(&a.val, false), 0.5);
        // micro-F1: tp=2, fp=2, fn=2 -> 2*2/(4+2+2)=0.5
        assert_eq!(MetricParts::score(&a.test, true), 0.5);
        assert_eq!(MetricParts::score(&[0.0, 0.0, 0.0], false), 0.0);
        assert_eq!(MetricParts::score(&[0.0, 0.0, 0.0], true), 0.0);
    }

    #[test]
    fn epoch_time_per_method() {
        let mut tb = TimeBreakdown::new();
        tb.charge(TimeCategory::Comm, 10.0);
        tb.charge(TimeCategory::CentralComp, 4.0);
        tb.charge(TimeCategory::MarginalComp, 2.0);
        tb.charge(TimeCategory::Quant, 1.0);
        assert_eq!(epoch_time_with_overlap(Method::Vanilla, false, &tb), 17.0);
        assert_eq!(epoch_time_with_overlap(Method::AdaQp, false, &tb), 13.0);
        assert_eq!(epoch_time_with_overlap(Method::PipeGcn, false, &tb), 11.0);
        assert_eq!(epoch_time_with_overlap(Method::Sancus, false, &tb), 17.0);
        // The overlap ablation serializes AdaQP and nothing else.
        assert_eq!(epoch_time_with_overlap(Method::AdaQp, true, &tb), 17.0);
        assert_eq!(epoch_time_with_overlap(Method::PipeGcn, true, &tb), 11.0);
    }

    #[test]
    fn pipegcn_compute_bound_case() {
        let mut tb = TimeBreakdown::new();
        tb.charge(TimeCategory::Comm, 3.0);
        tb.charge(TimeCategory::MarginalComp, 7.0);
        assert_eq!(epoch_time_with_overlap(Method::PipeGcn, false, &tb), 7.0);
    }
}

//! Run results: per-epoch records, throughput and time breakdowns, and the
//! one fold that names every series of a run's metric snapshot.

use crate::assigner::SolveStats;
use crate::config::Method;
use crate::decompose::LocalLabels;
use obs::critpath::CritPathReport;
pub use obs::time::Schedule;
use obs::time::TimeBreakdown;
use quant::BitWidth;
use serde::Serialize;
use tensor::Matrix;

/// Local metric accumulators one device reports for one epoch. For
/// single-label tasks `val`/`test` hold `[correct, total, 0]`; for
/// multi-label they hold `[tp, fp, fn]`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
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

    /// One device's accumulators from its logits. Each row counts toward
    /// `val` and/or `test` as its masks say: a single-label row adds its
    /// argmax hit to `[correct, total, 0]`, a multi-label row, which
    /// predicts a label where its logit is `> 0`, adds to `[tp, fp, fn]`.
    pub(crate) fn from_logits(
        logits: &Matrix,
        labels: &LocalLabels,
        val_mask: &[bool],
        test_mask: &[bool],
    ) -> Self {
        let mut parts = Self::default();
        for i in 0..logits.rows() {
            let (on_val, on_test) = (val_mask[i], test_mask[i]);
            if !on_val && !on_test {
                continue;
            }
            let row = logits.row(i);
            let acc = match labels {
                LocalLabels::Single(labels) => {
                    let mut best = 0usize;
                    let mut best_v = f32::NEG_INFINITY;
                    for (j, &v) in row.iter().enumerate() {
                        if v > best_v {
                            best_v = v;
                            best = j;
                        }
                    }
                    [f64::from(best == labels[i]), 1.0, 0.0]
                }
                LocalLabels::Multi(targets) => {
                    let mut acc = [0.0; 3];
                    for (&z, &y) in row.iter().zip(targets.row(i)) {
                        match (z > 0.0, y > 0.5) {
                            (true, true) => acc[0] += 1.0,
                            (true, false) => acc[1] += 1.0,
                            (false, true) => acc[2] += 1.0,
                            (false, false) => {}
                        }
                    }
                    acc
                }
            };
            for (on, sum) in [(on_val, &mut parts.val), (on_test, &mut parts.test)] {
                if on {
                    sum.iter_mut().zip(acc).for_each(|(s, a)| *s += a);
                }
            }
        }
        parts
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
#[derive(Debug, Clone, Default, PartialEq)]
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
    pub grad_norm: f64,
}

/// Cluster-level record of one epoch.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
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
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
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
    pub telemetry: Option<crate::telemetry::TelemetryLog>,
    /// The run's metric snapshot ([`fold_run_metrics`]); present only when
    /// the run was configured with `training.metrics = true`. Contains only
    /// the deterministic series — byte-identical at any worker-thread count.
    pub metrics: Option<obs::MetricsSnapshot>,
}

impl RunResult {
    /// Fraction of serial time spent communicating, as in Table 1.
    pub fn comm_fraction(&self) -> f64 {
        self.total_breakdown.comm_fraction()
    }
}

/// What one device counted over a run, as plain data: the raw material of
/// [`fold_run_metrics`]. Kept only when `cfg.metrics`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceTallies {
    /// `(bytes, messages)` handed to the scheduler, summed over destination
    /// ranks ([`comm::AsyncDevice::take_sent`]).
    pub sent: (u64, u64),
    /// Halo bytes sent, one total per distinct exchange width seen (`None`
    /// is a mixed per-group assignment, `Some(32)` fp32); a handful at most.
    pub halo: Vec<(Option<u8>, u64)>,
    /// Per-width quantization statistics of the whole run, every exchange
    /// merged in exchange order.
    pub encode: quant::EncodeStats,
    /// Rank 0's reassignment rounds: iterations and problems summed, the
    /// objective that of the last round. `None` on every other rank (the
    /// master broadcasts the stats, so they would only multiply) and when
    /// no round ran.
    pub solver: Option<SolveStats>,
}

impl DeviceTallies {
    /// Adds one halo exchange's `sent` bytes at `width_bits`.
    pub(crate) fn count_halo(&mut self, width_bits: Option<u8>, sent: usize) {
        match self.halo.iter_mut().find(|(w, _)| *w == width_bits) {
            Some((_, total)) => *total += sent as u64,
            None => self.halo.push((width_bits, sent as u64)),
        }
    }

    /// Adds one reassignment round's solver statistics.
    pub(crate) fn count_solve(&mut self, round: &SolveStats) {
        let total = self.solver.get_or_insert_with(SolveStats::default);
        total.iterations += round.iterations;
        total.problems += round.problems;
        total.objective_sum = round.objective_sum;
    }
}

/// Builds a run's metric snapshot: the one place a series is named and the
/// run's one [`obs::Registry`], moved into the snapshot when done.
///
/// `tallies` are the devices' in rank order. Float order is part of the
/// contract: a device has already added its per-exchange `sum_range` /
/// `sum_sq_err` in exchange order, and device totals are added here in rank
/// order, so the sums — and the snapshot's bytes — do not depend on how the
/// run was scheduled. `report`'s series carry a leading underscore, which
/// keeps host-timing-dependent values out of `adaqp-regress` comparisons.
pub fn fold_run_metrics(
    result: &RunResult,
    records: &[Vec<DeviceEpochRecord>],
    tallies: &[DeviceTallies],
    report: Option<&CritPathReport>,
) -> obs::MetricsSnapshot {
    let mut reg = obs::Registry::new();
    // Every count below stays far below 2^53, so its f64 value is exact.
    let ranks: Vec<String> = (0..tallies.len()).map(|r| r.to_string()).collect();
    for (src, dev) in ranks.iter().zip(tallies) {
        let (bytes, messages) = dev.sent;
        if messages > 0 {
            let labels = [("src", src.as_str())];
            reg.counter_add("adaqp_comm_sent_bytes_total", &labels, bytes as f64);
            reg.counter_add("adaqp_comm_messages_total", &labels, messages as f64);
        }
        for &(width, bytes) in dev.halo.iter().filter(|(_, bytes)| *bytes > 0) {
            let width = width.map_or("mixed".to_string(), |bits| bits.to_string());
            let labels = [("src", src.as_str()), ("width", &width)];
            reg.counter_add("adaqp_halo_sent_bytes_total", &labels, bytes as f64);
        }
        for w in BitWidth::ALL {
            let ws = dev.encode.for_width(w);
            if ws.rows > 0 {
                let bits = w.bits().to_string();
                let labels = [("width", bits.as_str())];
                reg.counter_add("adaqp_quant_rows_total", &labels, ws.rows as f64);
                reg.counter_add("adaqp_quant_elements_total", &labels, ws.elements as f64);
                reg.counter_add("adaqp_quant_range_sum", &labels, ws.sum_range);
                reg.counter_add("adaqp_quant_sq_error_sum", &labels, ws.sum_sq_err);
            }
        }
        if let Some(solve) = &dev.solver {
            reg.counter_add(
                "adaqp_solver_iterations_total",
                &[],
                solve.iterations as f64,
            );
            reg.counter_add("adaqp_solver_problems_total", &[], solve.problems as f64);
            reg.gauge_set("adaqp_solver_objective_sum", &[], solve.objective_sum);
        }
    }

    for em in &result.per_epoch {
        let epoch = em.epoch.to_string();
        let labels = [("epoch", epoch.as_str())];
        reg.gauge_set("adaqp_epoch_loss", &labels, em.loss);
        reg.gauge_set("adaqp_epoch_val_score", &labels, em.val_score);
        reg.gauge_set("adaqp_epoch_test_score", &labels, em.test_score);
        // The allreduced gradient norm is identical on every rank; report
        // rank 0's copy.
        if let Some(recs) = records.first() {
            reg.gauge_set("adaqp_epoch_grad_norm", &labels, recs[em.epoch].grad_norm);
        }
    }
    reg.gauge_set("adaqp_best_val_score", &[], result.best_val);
    reg.gauge_set("adaqp_test_at_best", &[], result.test_at_best);

    if let Some(report) = report {
        reg.gauge_set("_critpath_total_seconds", &[], report.total_seconds);
        reg.gauge_set(
            "_critpath_collective_wait_share",
            &[],
            report.collective_wait_share,
        );
        for (class, seconds) in &report.class_totals {
            reg.gauge_set("_critpath_class_seconds", &[("class", class)], *seconds);
        }
        for dev in &report.devices {
            let labels = [("rank", ranks[dev.rank].as_str())];
            reg.gauge_set("_critpath_idle_fraction", &labels, dev.idle_fraction);
            reg.gauge_set("_critpath_busy_seconds", &labels, dev.busy_seconds);
        }
    }

    reg.into_snapshot()
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
    use obs::time::TimeCategory;

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

    /// The validation score of `logits` with every row on the validation
    /// mask but those `mask` leaves out.
    fn val_score(logits: &Matrix, labels: &LocalLabels, mask: &[bool]) -> f64 {
        let parts = MetricParts::from_logits(logits, labels, mask, &vec![false; mask.len()]);
        assert_eq!(parts.test, [0.0; 3]);
        MetricParts::score(&parts.val, matches!(labels, LocalLabels::Multi(_)))
    }

    #[test]
    fn accuracy_counts_argmax() {
        let logits = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 0.0]]);
        let labels = LocalLabels::Single(vec![0, 1, 1]);
        let acc = val_score(&logits, &labels, &[true, true, true]);
        assert!((acc - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn accuracy_respects_mask() {
        let logits = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 0.0]]);
        let labels = LocalLabels::Single(vec![0, 1]);
        assert_eq!(val_score(&logits, &labels, &[true, false]), 1.0);
        assert_eq!(val_score(&logits, &labels, &[false, false]), 0.0);
        // Each row counts toward the split its own masks name.
        let parts = MetricParts::from_logits(&logits, &labels, &[true, false], &[false, true]);
        assert_eq!((parts.val, parts.test), ([1.0, 1.0, 0.0], [0.0, 1.0, 0.0]));
    }

    #[test]
    fn micro_f1_perfect() {
        let logits = Matrix::from_rows(&[&[5.0, -5.0], &[-5.0, 5.0]]);
        let targets = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let labels = LocalLabels::Multi(targets);
        assert_eq!(val_score(&logits, &labels, &[true, true]), 1.0);
    }

    #[test]
    fn micro_f1_half_precision() {
        // One TP, one FP, one FN -> F1 = 2*1/(2*1+1+1) = 0.5
        let logits = Matrix::from_rows(&[&[5.0, 5.0, -5.0]]);
        let labels = LocalLabels::Multi(Matrix::from_rows(&[&[1.0, 0.0, 1.0]]));
        assert!((val_score(&logits, &labels, &[true]) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn micro_f1_no_positives_is_zero() {
        let logits = Matrix::from_rows(&[&[-1.0]]);
        let labels = LocalLabels::Multi(Matrix::from_rows(&[&[0.0]]));
        assert_eq!(val_score(&logits, &labels, &[true]), 0.0);
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

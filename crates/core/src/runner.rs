//! Experiment runner: builds the dataset and partitions, drives the device
//! programs on the discrete-event cluster core and combines their records
//! into a [`RunResult`].

use crate::config::ExperimentConfig;
use crate::decompose::build_partitions;
use crate::error::Error;
use crate::metrics::{
    fold_run_metrics, schedule_for, DeviceEpochRecord, DeviceTallies, EpochMetrics, MetricParts,
    RunResult,
};
use crate::telemetry::TelemetryLog;
use crate::trainers::{DeviceOutput, DeviceTrainer};
use comm::Cluster;
use graph::Task;
use obs::critpath::{CritPathReport, FlightLog};
use obs::time::straggler;
use std::cell::RefCell;
use tensor::Rng;

/// Why [`run_devices`] has no outputs.
#[derive(Debug)]
pub(crate) enum Failure<E> {
    /// The lowest rank whose body returned an error, and that error.
    Device(usize, E),
    /// The cluster failed with no body error to explain it.
    Cluster(comm::ClusterError),
}

/// Runs the `async` body `device` builds for each rank on the event core
/// and returns the bodies' outputs in rank order. A body that fails stops
/// there, and its peers then stall at their next collective: the cluster
/// reports that stall, so the error of the lowest failing rank is kept and
/// wins over it.
pub(crate) fn run_devices<T, E, Fut>(
    n: usize,
    recorder: Option<&mut comm::FlightRecorder>,
    mut device: impl FnMut(comm::AsyncDevice) -> Fut,
) -> Result<Vec<T>, Failure<E>>
where
    Fut: std::future::Future<Output = Result<T, E>>,
{
    let failure: RefCell<Option<(usize, E)>> = RefCell::new(None);
    let failure_ref = &failure;
    let run = Cluster::try_run_async(n, None, recorder, |dev| {
        let rank = dev.rank();
        let body = device(dev);
        async move {
            body.await
                .map_err(|error| {
                    let mut first = failure_ref.borrow_mut();
                    if first.as_ref().is_none_or(|(r, _)| rank < *r) {
                        *first = Some((rank, error));
                    }
                })
                .ok()
        }
    });
    if let Some((rank, error)) = failure.into_inner() {
        return Err(Failure::Device(rank, error));
    }
    let outputs = run.map_err(Failure::Cluster)?.outputs;
    Ok(outputs.into_iter().flatten().collect())
}

/// Runs one experiment end-to-end on the discrete-event cluster core and
/// returns its result.
///
/// Deterministic given `cfg.seed`: the numerics, the simulated times, and
/// the metric snapshots are exactly reproducible.
///
/// # Errors
///
/// [`Error::InvalidConfig`] when [`ExperimentConfig::validate`] rejects the
/// configuration, [`Error::Partition`] when the graph cannot be spread over
/// the requested device count, [`Error::Cluster`] when a simulated device
/// dies mid-run, and [`Error::Sanitizer`] when a sanitized run
/// (`TrainingConfig::sanitize` or `ADAQP_SAN=1`) observes a parallel-kernel
/// determinism violation.
pub fn run_experiment(cfg: &ExperimentConfig) -> Result<RunResult, Error> {
    run_experiment_profiled(cfg).map(|(result, _)| result)
}

/// The causal profile of one run: the post-run critical-path analysis plus
/// the raw flight log it was derived from.
///
/// Kept outside [`RunResult`] on purpose: profiling must never change the
/// result artifact, so the profile travels next to it, not inside it.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RunProfile {
    /// Critical path, per-device idle attribution, and straggler ranking.
    pub report: CritPathReport,
    /// Every scheduling transition with its causal predecessor.
    pub flight: FlightLog,
}

/// [`run_experiment`], also returning the [`RunProfile`] when
/// `TrainingConfig::profile` is set, `None` otherwise.
///
/// A run has one recorder — the scheduler's causal flight recorder, armed
/// when `TrainingConfig::telemetry` or `TrainingConfig::profile` asks for a
/// view of its log; the two fields only choose which views are attached
/// ([`RunResult::telemetry`], the [`RunProfile`]). Recording is
/// observation-only: the returned [`RunResult`] is byte-identical to an
/// unrecorded run of the same config apart from the attached views, and the
/// profile itself is byte-deterministic at any `ADAQP_THREADS`.
///
/// # Errors
///
/// As [`run_experiment`].
pub fn run_experiment_profiled(
    cfg: &ExperimentConfig,
) -> Result<(RunResult, Option<RunProfile>), Error> {
    cfg.validate()?;
    // Pin the kernel runtime's worker count for this run (0 = auto-detect).
    // Kernel results are byte-identical at any thread count, so this only
    // affects host wall-clock, never simulated numerics.
    tensor::par::set_threads(cfg.training.threads);
    // Arm (or disarm) the determinism sanitizer. Like the thread count this
    // is process-global; concurrent runs with different settings only change
    // how much checking happens, never any kernel's output bytes.
    tensor::san::set_sanitize(cfg.training.sanitize);
    let san_active = tensor::san::enabled();
    if san_active {
        tensor::san::reset();
    }
    let dataset = cfg.dataset.generate(cfg.seed);
    let mut rng = Rng::seed_from(cfg.seed ^ 0x5EED_CAFE);
    let n = cfg.num_devices();
    if n > dataset.num_nodes() {
        return Err(Error::Partition(format!(
            "{n} devices for a {}-node graph: every device needs at least one node",
            dataset.num_nodes()
        )));
    }
    let partition = graph::partition::try_metis_like(&dataset.graph, n, &mut rng)?;
    let parts = build_partitions(&dataset, &partition, cfg.training.conv_kind());
    let cost = cfg.cost_model();
    let multi = dataset.task == Task::MultiLabel;
    let global_train = parts[0].global.num_train;

    let parts_ref = &parts;
    let cost_ref = &cost;
    let device = |dev: comm::AsyncDevice| async move {
        let rank = dev.rank();
        let trainer = DeviceTrainer::new(
            dev,
            &parts_ref[rank],
            &cfg.training,
            cfg.method,
            cost_ref,
            cfg.seed,
        );
        trainer.run().await
    };
    // One recorder, armed when either view of its log is wanted; the
    // scheduler keeps running uncosted, exactly as in an unrecorded run.
    let record = cfg.training.telemetry || cfg.training.profile;
    let mut recorder = record.then(|| comm::FlightRecorder::new(n));
    let (run, train_seconds) = comm::timing::measure(|| run_devices(n, recorder.as_mut(), device));
    let outputs: Vec<DeviceOutput> = run.map_err(|failure| match failure {
        Failure::Device(rank, error) => error.on(rank),
        Failure::Cluster(error) => Error::from(error),
    })?;
    let flight = recorder.map(comm::FlightRecorder::finish);
    let (records, tallies): (Vec<_>, Vec<Option<DeviceTallies>>) = outputs.into_iter().unzip();

    let mut result = combine(cfg, multi, global_train, &records);
    if cfg.training.telemetry {
        result.telemetry = flight.as_ref().map(TelemetryLog::from_flight);
    }
    let profile = flight.filter(|_| cfg.training.profile).map(|flight| {
        let schedule = schedule_for(cfg.method, cfg.training.disable_overlap);
        let report = obs::critpath::analyze(&flight, schedule, n.min(8));
        RunProfile { report, flight }
    });
    if cfg.training.metrics {
        // Every device kept tallies, so flattening keeps them in rank order.
        let tallies: Vec<DeviceTallies> = tallies.into_iter().flatten().collect();
        let report = profile.as_ref().map(|p| &p.report);
        let pool = tensor::par::pool_stats();
        result.metrics = Some(fold_run_metrics(
            &result,
            &records,
            &tallies,
            report,
            &pool,
            train_seconds,
        ));
    }
    if san_active {
        let rep = tensor::san::report();
        if !rep.is_clean() {
            let details: Vec<String> = rep.errors.iter().map(ToString::to_string).collect();
            return Err(Error::Sanitizer(format!(
                "{} violation(s) across {} kernel launches / {} adversarial schedules: {}",
                rep.errors.len(),
                rep.kernels_checked,
                rep.schedules_checked,
                details.join("; ")
            )));
        }
    }
    Ok((result, profile))
}

/// Combines per-device epoch records into cluster-level metrics.
/// `global_train` is the cluster-wide training-node count (the loss-sum
/// divisor), threaded through from partitioning so the dataset is not
/// regenerated here.
pub(crate) fn combine(
    cfg: &ExperimentConfig,
    multi: bool,
    global_train: usize,
    records: &[Vec<DeviceEpochRecord>],
) -> RunResult {
    let epochs = records.first().map_or(0, Vec::len);
    let global_train = global_train.max(1) as f64;
    let mut per_epoch = Vec::with_capacity(epochs);
    let schedule = schedule_for(cfg.method, cfg.training.disable_overlap);
    let mut total_sim = 0.0;
    let mut total_breakdown = comm::TimeBreakdown::new();
    let mut total_bytes = 0usize;
    let mut best_val = f64::NEG_INFINITY;
    let mut test_at_best = 0.0;
    for e in 0..epochs {
        let mut loss_sum = 0.0;
        let mut metric = MetricParts::default();
        let mut bytes = 0usize;
        for dev_records in records {
            let r = &dev_records[e];
            loss_sum += r.loss_sum;
            metric.merge(&r.metric);
            bytes += r.bytes_sent;
        }
        // The slowest device sets the epoch; its breakdown is the one
        // reported.
        let (rank, slowest) = straggler(schedule, records.iter().map(|dev| &dev[e].breakdown));
        let slowest_tb = records[rank][e].breakdown;
        let val_score = MetricParts::score(&metric.val, multi);
        let test_score = MetricParts::score(&metric.test, multi);
        if val_score > best_val {
            best_val = val_score;
            test_at_best = test_score;
        }
        total_sim += slowest;
        total_breakdown += slowest_tb;
        total_bytes += bytes;
        per_epoch.push(EpochMetrics {
            epoch: e,
            loss: loss_sum / global_train,
            val_score,
            test_score,
            sim_seconds: slowest,
            breakdown: slowest_tb,
            bytes_sent: bytes,
        });
    }
    let throughput = if total_sim > 0.0 {
        epochs as f64 / total_sim
    } else {
        0.0
    };
    RunResult {
        method: cfg.method.name().to_string(),
        dataset: cfg.dataset.name.clone(),
        partition: cfg.partition_label(),
        per_epoch,
        best_val: best_val.max(0.0),
        test_at_best,
        total_sim_seconds: total_sim,
        throughput,
        total_breakdown,
        total_bytes,
        telemetry: None,
        metrics: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Method, TrainingConfig};
    use graph::DatasetSpec;

    fn quick_cfg(method: Method, epochs: usize) -> ExperimentConfig {
        ExperimentConfig {
            dataset: DatasetSpec::tiny(),
            machines: 1,
            devices_per_machine: 2,
            method,
            training: TrainingConfig {
                epochs,
                hidden: 16,
                num_layers: 2,
                dropout: 0.0,
                reassign_period: 2,
                ..TrainingConfig::default()
            },
            seed: 31,
        }
    }

    #[test]
    fn vanilla_runs_and_learns_something() {
        let result = run_experiment(&quick_cfg(Method::Vanilla, 10)).expect("valid config");
        assert_eq!(result.per_epoch.len(), 10);
        assert!(result.total_sim_seconds > 0.0);
        assert!(result.throughput > 0.0);
        // Loss should drop substantially on the easy tiny dataset.
        let first = result.per_epoch[0].loss;
        let last = result.per_epoch[9].loss;
        assert!(last < first, "loss did not drop: {first} -> {last}");
        assert!(result.best_val > 0.4, "val score {}", result.best_val);
        // Telemetry is opt-in: absent by default.
        assert!(result.telemetry.is_none());
    }

    #[test]
    fn adaqp_runs_with_reassignment() {
        let result = run_experiment(&quick_cfg(Method::AdaQp, 6)).expect("valid config");
        assert_eq!(result.per_epoch.len(), 6);
        // Quantization time is charged after epoch 0.
        assert!(result.total_breakdown.quant > 0.0);
        // Assigner solve time is charged on assignment epochs.
        assert!(result.total_breakdown.solve > 0.0);
        assert!(result.best_val > 0.4, "val score {}", result.best_val);
    }

    #[test]
    fn stream_quant_same_results_lower_time() {
        // The pipelined quantize+send changes only the time accounting:
        // losses, scores, and bytes are bit-identical to the plain
        // quantized run, while comm + quant time can only shrink (each
        // destination's pipeline is bounded by its serial encode +
        // transfer total).
        let base = quick_cfg(Method::AdaQp, 6);
        let mut streamed = base.clone();
        streamed.training.stream_quant = true;
        let a = run_experiment(&base).expect("valid config");
        let b = run_experiment(&streamed).expect("valid config");
        assert_eq!(a.per_epoch.len(), b.per_epoch.len());
        for (ea, eb) in a.per_epoch.iter().zip(&b.per_epoch) {
            assert_eq!(ea.loss.to_bits(), eb.loss.to_bits(), "loss diverged");
            assert_eq!(ea.val_score.to_bits(), eb.val_score.to_bits());
        }
        assert_eq!(a.total_bytes, b.total_bytes, "wire bytes diverged");
        let serial = a.total_breakdown.comm + a.total_breakdown.quant;
        let pipelined = b.total_breakdown.comm + b.total_breakdown.quant;
        assert!(
            pipelined < serial,
            "streaming did not reduce comm+quant: {pipelined} vs {serial}"
        );
    }

    #[test]
    fn stream_quant_rejects_grouped_and_error_feedback() {
        let mut cfg = quick_cfg(Method::AdaQp, 2);
        cfg.training.stream_quant = true;
        cfg.training.grouped_wire = true;
        assert!(run_experiment(&cfg).is_err());
        cfg.training.grouped_wire = false;
        cfg.training.error_feedback = true;
        assert!(run_experiment(&cfg).is_err());
        cfg.training.error_feedback = false;
        assert!(run_experiment(&cfg).is_ok());
    }

    #[test]
    fn adaqp_moves_fewer_bytes_than_vanilla() {
        let v = run_experiment(&quick_cfg(Method::Vanilla, 6)).expect("valid config");
        let a = run_experiment(&quick_cfg(Method::AdaQp, 6)).expect("valid config");
        assert!(
            (a.total_bytes as f64) < 0.8 * v.total_bytes as f64,
            "AdaQP bytes {} vs Vanilla {}",
            a.total_bytes,
            v.total_bytes
        );
    }

    #[test]
    fn all_methods_complete() {
        for method in Method::ALL {
            let r = run_experiment(&quick_cfg(method, 3)).expect("valid config");
            assert_eq!(r.per_epoch.len(), 3, "{method} failed");
            assert!(r.per_epoch.iter().all(|e| e.loss.is_finite()));
        }
    }

    #[test]
    fn single_device_degenerates_gracefully() {
        let mut cfg = quick_cfg(Method::Vanilla, 3);
        cfg.devices_per_machine = 1;
        let r = run_experiment(&cfg).expect("valid config");
        assert_eq!(r.per_epoch.len(), 3);
        // No peers => no communication bytes.
        assert_eq!(r.total_bytes, 0);
    }

    #[test]
    fn invalid_configs_error_without_panicking() {
        let mut zero_epochs = quick_cfg(Method::Vanilla, 3);
        zero_epochs.training.epochs = 0;
        assert!(matches!(
            run_experiment(&zero_epochs),
            Err(Error::InvalidConfig(_))
        ));

        let mut no_devices = quick_cfg(Method::Vanilla, 3);
        no_devices.machines = 0;
        assert!(matches!(
            run_experiment(&no_devices),
            Err(Error::InvalidConfig(_))
        ));

        let mut too_many_devices = quick_cfg(Method::Vanilla, 1);
        too_many_devices.dataset.num_nodes = 3;
        too_many_devices.machines = 4;
        assert!(matches!(
            run_experiment(&too_many_devices),
            Err(Error::Partition(_))
        ));
    }

    #[test]
    fn profiling_is_observation_only_and_reports_the_path() {
        let plain = quick_cfg(Method::Vanilla, 4);
        let mut profiled = plain.clone();
        profiled.training.profile = true;
        let bare = run_experiment(&plain).expect("valid config");
        let (result, profile) = run_experiment_profiled(&profiled).expect("valid config");
        // Observation-only: the result artifact is unchanged by recording.
        assert_eq!(bare, result, "profiling changed the run result");
        let profile = profile.expect("profile requested");
        assert!(profile.flight.num_events() > 0);
        let report = &profile.report;
        assert_eq!(report.schedule, "serial");
        assert_eq!(report.num_devices, 2);
        assert_eq!(report.epochs, 4);
        // The classified critical path reconstructs the epoch-time total.
        assert_eq!(
            report.total_seconds.to_bits(),
            result.total_sim_seconds.to_bits(),
            "critical path {} vs simulated {}",
            report.total_seconds,
            result.total_sim_seconds
        );
        assert!(!report.segments.is_empty());
        assert!(!report.stragglers.is_empty());
    }

    #[test]
    fn profile_stays_none_when_off() {
        let (_, profile) =
            run_experiment_profiled(&quick_cfg(Method::Vanilla, 2)).expect("valid config");
        assert!(profile.is_none());
    }

    #[test]
    fn profiled_metrics_gain_exempt_gauges_without_disturbing_the_rest() {
        let mut cfg = quick_cfg(Method::Vanilla, 3);
        cfg.training.metrics = true;
        let plain = run_experiment(&cfg).expect("valid config");
        cfg.training.profile = true;
        let (profiled, profile) = run_experiment_profiled(&cfg).expect("valid config");
        assert!(profile.is_some());
        let snap = profiled.metrics.as_ref().expect("metrics requested");
        assert!(snap.metrics.keys().any(|k| k.starts_with("_critpath_")));
        // Dropping the underscore-prefixed series recovers the plain snapshot.
        let plain_snap = plain.metrics.as_ref().expect("metrics requested");
        let visible: Vec<_> = snap
            .metrics
            .iter()
            .filter(|(k, _)| !k.starts_with('_'))
            .collect();
        let plain_visible: Vec<_> = plain_snap.metrics.iter().collect();
        assert_eq!(
            visible, plain_visible,
            "profiling leaked into gated metrics"
        );
    }

    #[test]
    fn metrics_opt_in_attaches_snapshot() {
        let mut cfg = quick_cfg(Method::AdaQp, 4);
        cfg.training.metrics = true;
        let r = run_experiment(&cfg).expect("valid config");
        let snap = r.metrics.as_ref().expect("metrics requested");
        // Per-pair comm volume from the comm layer.
        assert!(snap
            .metrics
            .keys()
            .any(|k| k.starts_with("adaqp_comm_sent_bytes_total")));
        // Width-tagged halo volume and per-width quant error from the trainer.
        assert!(snap
            .metrics
            .keys()
            .any(|k| k.starts_with("adaqp_halo_sent_bytes_total")));
        assert!(snap
            .metrics
            .keys()
            .any(|k| k.starts_with("adaqp_quant_sq_error_sum")));
        // Solver stats, recorded on the master only.
        let iters = snap
            .get("adaqp_solver_iterations_total", &[])
            .expect("solver ran");
        assert!(iters.value > 0.0);
        // Per-epoch training gauges.
        for e in 0..4 {
            let labels = [("epoch", e.to_string())];
            let labels: Vec<(&str, &str)> = labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
            assert!(snap.get("adaqp_epoch_loss", &labels).is_some());
            assert!(snap.get("adaqp_epoch_val_score", &labels).is_some());
            let gn = snap
                .get("adaqp_epoch_grad_norm", &labels)
                .expect("grad norm");
            assert!(gn.value > 0.0);
        }
        // Diagnostic pool series never enter the default snapshot.
        assert!(!snap.metrics.keys().any(|k| k.starts_with("adaqp_pool_")));
        // Off by default.
        let r2 = run_experiment(&quick_cfg(Method::AdaQp, 3)).expect("valid config");
        assert!(r2.metrics.is_none());
    }

    #[test]
    fn telemetry_opt_in_attaches_log() {
        let mut cfg = quick_cfg(Method::AdaQp, 3);
        cfg.training.telemetry = true;
        let r = run_experiment(&cfg).expect("valid config");
        let log = r.telemetry.as_ref().expect("telemetry requested");
        assert_eq!(log.devices.len(), cfg.num_devices());
        assert!(log.num_events() > 0);
        // Events reconstruct the reported totals.
        let tbs = log.epoch_breakdowns();
        let schedule = schedule_for(cfg.method, cfg.training.disable_overlap);
        let mut total = 0.0;
        let mut tb = comm::TimeBreakdown::new();
        for e in 0..3 {
            let (rank, t) = straggler(schedule, tbs.iter().map(|dev| &dev[e]));
            total += t;
            tb += tbs[rank][e];
        }
        assert!((total - r.total_sim_seconds).abs() <= 1e-9 * r.total_sim_seconds.max(1.0));
        assert!((tb.comm - r.total_breakdown.comm).abs() <= 1e-9);
        assert!((tb.solve - r.total_breakdown.solve).abs() <= 1e-9);
    }
}

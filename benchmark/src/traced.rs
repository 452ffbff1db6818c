//! The traced repetition: the same workload with the recorders the program
//! already ships (`TrainingConfig::{telemetry, metrics, profile}`) switched
//! on, and the per-layer numbers read out of them. Spans inside the program
//! are a later change; this is what it can already say about itself.

use crate::e2e::result_digest;
use crate::stats::Summary;
use adaqp::{ExperimentConfig, RunProfile, RunResult};
use obs::critpath::{Schedule, SegmentClass};
use obs::MetricsSnapshot;
use std::hint::black_box;
use std::time::Instant;

/// One traced `run_experiment_profiled` call.
pub struct TracedRun {
    pub host_run_s: f64,
    pub result: RunResult,
    pub profile: RunProfile,
}

pub fn run(cfg: &ExperimentConfig) -> Result<TracedRun, String> {
    let mut traced = cfg.clone();
    traced.training.telemetry = true;
    traced.training.metrics = true;
    traced.training.profile = true;
    let start = Instant::now();
    let out = adaqp::run_experiment_profiled(black_box(&traced));
    let host_run_s = start.elapsed().as_secs_f64();
    let (result, profile) = out.map_err(|e| format!("traced run failed: {e}"))?;
    let profile = profile.ok_or("profile requested but the runner returned none")?;
    Ok(TracedRun {
        host_run_s,
        result,
        profile,
    })
}

/// Tracing is observation-only and the critical path tiles the simulated
/// total: the two properties the traced repetition must keep, or `Some`
/// reason it did not.
pub fn check(run: &TracedRun, untraced_digest: u64) -> Option<String> {
    let digest = result_digest(&run.result);
    if digest != untraced_digest {
        return Some(format!(
            "traced result_digest {digest:016x} differs from the untraced {untraced_digest:016x}: \
             recording changed the run"
        ));
    }
    let total = run.result.total_sim_seconds;
    let classes: f64 = run.profile.report.class_totals.values().sum();
    if (classes - total).abs() > 1e-9 * total.abs().max(1.0) {
        return Some(format!(
            "critical-path classes sum to {classes} s but the run simulated {total} s"
        ));
    }
    None
}

/// Sum of a metric family's samples — over all label sets, or over those
/// carrying `label`; 0 when the run never touched the family (no codec call
/// on an fp32 workload).
fn series_sum(snap: &MetricsSnapshot, name: &str, label: Option<(&str, &str)>) -> f64 {
    snap.metrics
        .values()
        .filter(|m| m.name == name)
        .filter(|m| label.is_none_or(|(k, v)| m.labels.iter().any(|(lk, lv)| lk == k && lv == v)))
        .map(|m| m.value)
        .sum()
}

/// Per-layer metrics of one traced run. `setup_s` is the workload's median
/// set-up time, so event rates are per second of training, not of set-up.
pub fn metrics(
    cfg: &ExperimentConfig,
    mut run: TracedRun,
    setup_s: f64,
) -> Result<Vec<(&'static str, Summary)>, String> {
    // Detached, so that `run.result` is the bare result a user would print.
    let snap = &run
        .result
        .metrics
        .take()
        .ok_or("metrics requested but the runner attached no snapshot")?;
    let telemetry = &run
        .result
        .telemetry
        .take()
        .ok_or("telemetry requested but the runner attached no log")?;
    let report = &run.profile.report;
    let mut out: Vec<(&'static str, Summary)> = Vec::new();
    let mut exact = |name: &'static str, v: f64| out.push((name, Summary::exact(v)));

    let events = run.profile.flight.num_events() as f64;
    exact("comm.flight_events", events);
    exact(
        "comm.messages",
        series_sum(snap, "adaqp_comm_messages_total", None),
    );
    exact(
        "comm.sent_mb",
        series_sum(snap, "adaqp_comm_sent_bytes_total", None) / 1e6,
    );
    exact(
        "comm.events_per_host_s",
        events / (run.host_run_s - setup_s).max(1e-9),
    );

    let class = |c: SegmentClass| report.class_totals.get(c.label()).copied().unwrap_or(0.0);
    exact("critpath.compute_s", class(SegmentClass::Compute));
    exact("critpath.wire_s", class(SegmentClass::Wire));
    exact("critpath.quant_s", class(SegmentClass::SerializationQuant));
    exact(
        "critpath.collective_wait_s",
        class(SegmentClass::CollectiveWait),
    );
    exact("critpath.assigner_s", class(SegmentClass::AssignerSolve));
    exact(
        "critpath.collective_wait_share",
        report.collective_wait_share,
    );
    exact(
        "critpath.max_idle_fraction",
        report
            .devices
            .iter()
            .map(|d| d.idle_fraction)
            .fold(0.0, f64::max),
    );

    exact("assigner.solve_host_s", run.result.total_breakdown.solve);
    exact(
        "assigner.solver_iterations",
        series_sum(snap, "adaqp_solver_iterations_total", None),
    );
    exact(
        "assigner.problems",
        series_sum(snap, "adaqp_solver_problems_total", None),
    );
    let rows = series_sum(snap, "adaqp_quant_rows_total", None);
    for (name, bits) in [
        ("assigner.width_share_2", "2"),
        ("assigner.width_share_4", "4"),
        ("assigner.width_share_8", "8"),
    ] {
        let at_width = series_sum(snap, "adaqp_quant_rows_total", Some(("width", bits)));
        exact(name, if rows > 0.0 { at_width / rows } else { 0.0 });
    }
    exact(
        "quant.sq_error_sum",
        series_sum(snap, "adaqp_quant_sq_error_sum", None),
    );
    exact(
        "trainer.host_kernel_s",
        telemetry
            .host_kernel_summary()
            .iter()
            .map(|s| s.host_seconds)
            .sum(),
    );

    // Re-run the analysis the runner made, under the schedule its report
    // names, rather than restating how the runner picks one.
    let schedule = [Schedule::Serial, Schedule::Overlapped, Schedule::Pipelined]
        .into_iter()
        .find(|s| s.label() == report.schedule)
        .ok_or_else(|| format!("unknown critical-path schedule {:?}", report.schedule))?;
    let start = Instant::now();
    black_box(obs::critpath::analyze(
        &run.profile.flight,
        schedule,
        cfg.num_devices().min(8),
    ));
    exact("obs.critpath_analyze_s", start.elapsed().as_secs_f64());

    // The run's three artifacts, rendered to memory: the result as JSON,
    // the telemetry log as a Chrome trace, the metrics snapshot as
    // Prometheus text. Not the snapshot's JSON form: at 256 devices it has
    // 207 827 series and takes 53 s, which a traced run cannot afford (see
    // README, "Findings").
    let start = Instant::now();
    let encode = |what: &str, r: Result<String, serde_json::Error>| {
        r.map(|s| black_box(s).len())
            .map_err(|e| format!("cannot serialise the {what}: {e}"))
    };
    encode("run result", serde_json::to_string(&run.result))?;
    encode(
        "chrome trace",
        serde_json::to_string(&telemetry.chrome_trace()),
    )?;
    black_box(snap.to_prometheus());
    exact("obs.export_s", start.elapsed().as_secs_f64());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaqp::{Method, TrainingConfig};
    use graph::DatasetSpec;

    fn tiny(method: Method) -> ExperimentConfig {
        ExperimentConfig {
            dataset: DatasetSpec::tiny(),
            machines: 1,
            devices_per_machine: 2,
            method,
            training: TrainingConfig {
                epochs: 4,
                hidden: 16,
                reassign_period: 2,
                ..TrainingConfig::default()
            },
            seed: 23,
        }
    }

    fn value(metrics: &[(&'static str, Summary)], name: &str) -> f64 {
        metrics.iter().find(|m| m.0 == name).unwrap().1.median
    }

    #[test]
    fn traced_run_is_observation_only_and_tiles_the_path() {
        let cfg = tiny(Method::AdaQp);
        let plain = adaqp::run_experiment(&cfg).expect("tiny run");
        let traced = run(&cfg).expect("traced tiny run");
        assert_eq!(check(&traced, result_digest(&plain)), None);
        assert!(check(&traced, result_digest(&plain) ^ 1)
            .unwrap()
            .contains("recording changed"));
        let simulated = traced.result.total_sim_seconds;
        let m = metrics(&cfg, traced, 0.0).expect("traced metrics");
        let classes: f64 = [
            "critpath.compute_s",
            "critpath.wire_s",
            "critpath.quant_s",
            "critpath.collective_wait_s",
            "critpath.assigner_s",
        ]
        .iter()
        .map(|n| value(&m, n))
        .sum();
        assert!((classes - simulated).abs() < 1e-9);
        let shares: f64 = ["2", "4", "8"]
            .iter()
            .map(|b| value(&m, &format!("assigner.width_share_{b}")))
            .sum();
        assert!((shares - 1.0).abs() < 1e-12, "width shares sum to {shares}");
        assert!(value(&m, "assigner.problems") > 0.0);
        assert!(value(&m, "comm.flight_events") > 0.0);
    }

    #[test]
    fn fp32_workload_makes_no_codec_calls() {
        let cfg = tiny(Method::Vanilla);
        let traced = run(&cfg).expect("traced tiny run");
        let snap = traced.result.metrics.as_ref().unwrap();
        let codec_calls = snap
            .metrics
            .values()
            .any(|m| m.name == "adaqp_quant_rows_total");
        assert!(!codec_calls);
        let m = metrics(&cfg, traced, 0.0).expect("traced metrics");
        for name in [
            "assigner.width_share_2",
            "assigner.width_share_8",
            "assigner.problems",
            "assigner.solve_host_s",
            "quant.sq_error_sum",
        ] {
            assert_eq!(value(&m, name), 0.0, "{name}");
        }
    }
}

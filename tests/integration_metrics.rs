//! Integration: the metrics subsystem obeys the same determinism contract as
//! the kernel runtime. The default snapshot holds only simulation-derived
//! values (comm volume, quantization error, solver work, training curves), so
//! the same experiment run with 1, 2 and 8 worker threads must produce a
//! byte-identical snapshot in both export formats; host-time and scheduling
//! metrics are never recorded.

use adaqp::{ExperimentConfig, Method, TrainingConfig};
use graph::DatasetSpec;

fn cfg(threads: usize, method: Method) -> ExperimentConfig {
    ExperimentConfig {
        dataset: DatasetSpec::tiny(),
        machines: 1,
        devices_per_machine: 2,
        method,
        training: TrainingConfig {
            epochs: 6,
            hidden: 16,
            num_layers: 2,
            dropout: 0.5,
            reassign_period: 3,
            threads,
            metrics: true,
            ..TrainingConfig::default()
        },
        seed: 4242,
    }
}

fn snapshot(threads: usize, method: Method) -> obs::MetricsSnapshot {
    adaqp::run_experiment(&cfg(threads, method))
        .expect("valid config")
        .metrics
        .expect("metrics were enabled")
}

#[test]
fn metrics_snapshot_byte_identical_at_1_2_8_threads() {
    let base = snapshot(1, Method::AdaQp);
    let base_json = serde_json::to_string(&base).expect("serializes");
    let base_prom = base.to_prometheus();
    for t in [2usize, 8] {
        let snap = snapshot(t, Method::AdaQp);
        assert_eq!(
            serde_json::to_string(&snap).expect("serializes"),
            base_json,
            "metrics JSON diverged at {t} threads"
        );
        assert_eq!(
            snap.to_prometheus(),
            base_prom,
            "Prometheus text diverged at {t} threads"
        );
    }
}

#[test]
fn snapshot_covers_every_instrumented_subsystem() {
    let snap = snapshot(2, Method::AdaQp);

    // Per-source communication volume, both devices of the 2-device ring.
    for src in ["0", "1"] {
        let m = snap
            .get("adaqp_comm_sent_bytes_total", &[("src", src)])
            .expect("per-source comm volume recorded");
        assert!(m.value > 0.0, "no bytes from {src}");
    }
    // Halo traffic is additionally broken out by bit-width choice.
    assert!(
        snap.metrics
            .keys()
            .any(|k| k.starts_with("adaqp_halo_sent_bytes_total{")),
        "halo volume by width missing"
    );

    // Quantization error statistics exist for at least one width and carry
    // both range and squared-error sums.
    let quant_widths: Vec<&String> = snap
        .metrics
        .keys()
        .filter(|k| k.starts_with("adaqp_quant_sq_error_sum{"))
        .collect();
    assert!(!quant_widths.is_empty(), "quant error stats missing");
    for key in quant_widths {
        let range_key = key.replace("adaqp_quant_sq_error_sum", "adaqp_quant_range_sum");
        assert!(
            snap.metrics.contains_key(&range_key),
            "range sum missing for {key}"
        );
    }

    // Solver effort: iterations and problem counts accumulate over reassigns.
    assert!(
        snap.get("adaqp_solver_iterations_total", &[])
            .expect("solver iterations")
            .value
            > 0.0
    );
    assert!(
        snap.get("adaqp_solver_problems_total", &[])
            .expect("solver problems")
            .value
            > 0.0
    );
    assert!(snap
        .get("adaqp_solver_objective_sum", &[])
        .expect("solver objective")
        .value
        .is_finite());

    // Per-epoch training curves, one gauge per epoch.
    for e in 0..6 {
        let ep = e.to_string();
        let labels: &[(&str, &str)] = &[("epoch", &ep)];
        assert!(
            snap.get("adaqp_epoch_loss", labels).is_some(),
            "loss epoch {e}"
        );
        assert!(snap.get("adaqp_epoch_val_score", labels).is_some());
        let g = snap
            .get("adaqp_epoch_grad_norm", labels)
            .expect("grad norm");
        assert!(g.value > 0.0, "grad norm epoch {e}");
    }
    assert!(snap.get("adaqp_best_val_score", &[]).is_some());

    // Scheduling and host-time metrics stay out of the default snapshot.
    assert!(
        !snap
            .metrics
            .keys()
            .any(|k| k.starts_with("adaqp_pool_") || k.starts_with("adaqp_phase_seconds")),
        "diagnostic metrics leaked into the deterministic snapshot"
    );
}

#[test]
fn vanilla_records_comm_but_no_quant_or_solver_metrics() {
    let snap = snapshot(1, Method::Vanilla);
    assert!(
        snap.metrics
            .keys()
            .any(|k| k.starts_with("adaqp_comm_sent_bytes_total{")),
        "vanilla still moves halo bytes"
    );
    assert!(snap.get("adaqp_solver_iterations_total", &[]).is_none());
    assert!(
        !snap.metrics.keys().any(|k| k.starts_with("adaqp_quant_")),
        "vanilla must not quantize"
    );
}

#[test]
fn metrics_stay_off_by_default() {
    let mut c = cfg(1, Method::AdaQp);
    c.training.metrics = false;
    let r = adaqp::run_experiment(&c).expect("valid config");
    assert!(r.metrics.is_none());
}

/// The three traffic families of one snapshot: `(family, src, width)` per
/// series, every label checked to be one of those.
fn traffic_series(snap: &obs::MetricsSnapshot) -> Vec<(&str, &str, Option<&str>)> {
    let families = [
        "adaqp_comm_sent_bytes_total",
        "adaqp_comm_messages_total",
        "adaqp_halo_sent_bytes_total",
    ];
    let traffic = snap
        .metrics
        .values()
        .filter(|m| families.contains(&m.name.as_str()));
    traffic
        .map(|m| {
            let label = |key: &str| {
                let found = m.labels.iter().find(|(k, _)| k == key);
                found.map(|(_, v)| v.as_str())
            };
            let known = ["src", "width"];
            assert!(
                m.labels.iter().all(|(k, _)| known.contains(&k.as_str())),
                "{m:?}"
            );
            (
                m.name.as_str(),
                label("src").expect("src label"),
                label("width"),
            )
        })
        .collect()
}

#[test]
fn traffic_series_are_per_device_not_per_pair() {
    let mut c = cfg(1, Method::AdaQp);
    (c.machines, c.devices_per_machine, c.training.epochs) = (4, 4, 2);
    let snap = adaqp::run_experiment(&c)
        .expect("valid config")
        .metrics
        .expect("metrics on");
    assert!(snap
        .metrics
        .values()
        .all(|m| m.labels.iter().all(|(k, _)| k != "dst")));
    // Labels are only `src` and `width`, so each series is one
    // `(family, src, width)`.
    let series = traffic_series(&snap);
    for family in ["adaqp_comm_sent_bytes_total", "adaqp_comm_messages_total"] {
        let srcs: std::collections::BTreeSet<_> = series
            .iter()
            .filter(|s| s.0 == family)
            .map(|s| s.1)
            .collect();
        assert_eq!(srcs.len(), 16, "{family}: one series per device");
        assert!(series
            .iter()
            .filter(|s| s.0 == family)
            .all(|s| s.2.is_none()));
    }
    let halo = series
        .iter()
        .filter(|s| s.0 == "adaqp_halo_sent_bytes_total");
    assert!(
        halo.clone().all(|s| s.2.is_some()),
        "halo series carry their width"
    );
    // Widths 2, 4, 8, 32 and mixed.
    assert!(
        halo.count() <= 16 * 5,
        "at most one series per (src, width)"
    );
}

#[test]
fn halo_family_sums_to_the_runs_bytes_for_every_method() {
    for method in [
        Method::Vanilla,
        Method::AdaQp,
        Method::AdaQpUniform,
        Method::PipeGcn,
        Method::Sancus,
    ] {
        let r = adaqp::run_experiment(&cfg(1, method)).expect("valid config");
        let snap = r.metrics.as_ref().expect("metrics on");
        let halo = snap
            .metrics
            .values()
            .filter(|m| m.name == "adaqp_halo_sent_bytes_total");
        let sum: f64 = halo.map(|m| m.value).sum();
        assert_eq!(sum, r.total_bytes as f64, "{method}");
    }
}

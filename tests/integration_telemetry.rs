//! Integration tests for the structured telemetry subsystem: determinism of
//! the event log across same-seed runs (modulo the measured assigner solve
//! wall-clock) and reconstruction of the reported `RunResult` totals from
//! the per-event records.

use adaqp::metrics::schedule_for;
use adaqp::telemetry::EventKind;
use adaqp::{ExperimentConfig, Method, TrainingConfig};
use graph::DatasetSpec;
use obs::time::straggler;

fn cfg(method: Method, epochs: usize) -> ExperimentConfig {
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
            telemetry: true,
            ..TrainingConfig::default()
        },
        seed: 77,
    }
}

#[test]
fn same_seed_runs_produce_identical_event_logs_modulo_solve() {
    let a = adaqp::run_experiment(&cfg(Method::AdaQp, 4)).expect("valid config");
    let b = adaqp::run_experiment(&cfg(Method::AdaQp, 4)).expect("valid config");
    let la = a.telemetry.as_ref().expect("telemetry on");
    let lb = b.telemetry.as_ref().expect("telemetry on");
    assert_eq!(la.devices.len(), lb.devices.len());
    for (da, db) in la.devices.iter().zip(&lb.devices) {
        assert_eq!(da.rank, db.rank);
        assert_eq!(da.events.len(), db.events.len(), "rank {}", da.rank);
        for (ea, eb) in da.events.iter().zip(&db.events) {
            // Structure is bit-for-bit reproducible.
            assert_eq!(ea.kind, eb.kind);
            assert_eq!(ea.epoch, eb.epoch);
            assert_eq!(ea.layer, eb.layer);
            assert_eq!(ea.bytes, eb.bytes);
            assert_eq!(ea.width_bits, eb.width_bits);
            // Durations are analytic (ops-priced) for everything except the
            // assigner solve, which is measured wall-clock.
            if ea.kind != EventKind::AssignerSolve {
                assert!(
                    (ea.duration() - eb.duration()).abs() < 1e-12,
                    "{:?} duration {} vs {}",
                    ea.kind,
                    ea.duration(),
                    eb.duration()
                );
            }
        }
    }
}

#[test]
fn event_sums_reconstruct_run_result_totals() {
    for method in [
        Method::Vanilla,
        Method::AdaQp,
        Method::PipeGcn,
        Method::Sancus,
    ] {
        let c = cfg(method, 3);
        let r = adaqp::run_experiment(&c).expect("valid config");
        let log = r.telemetry.as_ref().expect("telemetry on");
        let tbs = log.epoch_breakdowns();
        assert!(tbs.iter().all(|dev| dev.len() == 3), "{method}");

        // The slowest device of each epoch, found and composed the way the
        // runner does, matches the per-epoch simulated seconds...
        let schedule = schedule_for(c.method, c.training.disable_overlap);
        let mut total = 0.0;
        let mut tb = obs::time::TimeBreakdown::new();
        for (e, em) in r.per_epoch.iter().enumerate() {
            let (rank, t) = straggler(schedule, tbs.iter().map(|dev| &dev[e]));
            assert!(
                (t - em.sim_seconds).abs() <= 1e-9 * em.sim_seconds.max(1.0),
                "{method} epoch {e}: telemetry {t} vs runner {}",
                em.sim_seconds
            );
            total += t;
            tb += tbs[rank][e];
        }

        // ... and their sums match the combined result.
        assert!(
            (total - r.total_sim_seconds).abs() <= 1e-9 * r.total_sim_seconds.max(1.0),
            "{method}: total {total} vs {}",
            r.total_sim_seconds
        );
        let want = r.total_breakdown;
        for (got, want, name) in [
            (tb.comm, want.comm, "comm"),
            (tb.central_comp, want.central_comp, "central_comp"),
            (tb.marginal_comp, want.marginal_comp, "marginal_comp"),
            (tb.quant, want.quant, "quant"),
            (tb.solve, want.solve, "solve"),
        ] {
            assert!(
                (got - want).abs() <= 1e-9 * want.max(1.0),
                "{method} {name}: telemetry {got} vs runner {want}"
            );
        }
    }
}

#[test]
fn exporters_cover_every_event() {
    let c = cfg(Method::AdaQp, 2);
    let r = adaqp::run_experiment(&c).expect("valid config");
    let log = r.telemetry.as_ref().expect("telemetry on");

    // JSONL: one line per event, each tagged with its device rank.
    let jsonl = log.to_jsonl();
    assert_eq!(jsonl.lines().count(), log.num_events());

    // Chrome trace: one complete ("X") event per telemetry event plus
    // process/thread metadata, all parseable JSON.
    let trace = log.chrome_trace();
    let events = trace["traceEvents"].as_array().expect("array");
    let spans = events
        .iter()
        .filter(|e| e["ph"].as_str() == Some("X"))
        .count();
    assert_eq!(spans, log.num_events());
    assert!(events.iter().any(|e| e["ph"].as_str() == Some("M")));
}

#[test]
fn disabled_telemetry_leaves_numerics_identical() {
    let mut on = cfg(Method::AdaQp, 3);
    let mut off = on.clone();
    on.training.telemetry = true;
    off.training.telemetry = false;
    let a = adaqp::run_experiment(&on).expect("valid config");
    let b = adaqp::run_experiment(&off).expect("valid config");
    assert!(a.telemetry.is_some());
    assert!(b.telemetry.is_none());
    assert_eq!(a.best_val, b.best_val);
    assert_eq!(a.total_bytes, b.total_bytes);
    for (ea, eb) in a.per_epoch.iter().zip(&b.per_epoch) {
        assert_eq!(ea.loss, eb.loss);
        assert_eq!(ea.val_score, eb.val_score);
    }
}

#[test]
fn one_span_per_charge_carrying_the_devices_sent_bytes() {
    for method in [
        Method::Vanilla,
        Method::AdaQp,
        Method::AdaQpUniform,
        Method::PipeGcn,
        Method::Sancus,
    ] {
        let mut c = cfg(method, 3);
        (c.training.profile, c.training.metrics) = (true, true);
        let (r, profile) = adaqp::run_experiment_profiled(&c).expect("valid config");
        let flight = profile.expect("profiling on").flight;
        let log = r.telemetry.as_ref().expect("telemetry on");
        assert!(log.num_events() <= flight.num_events(), "{method}");
        let snap = r.metrics.as_ref().expect("metrics on");
        for dev in &log.devices {
            let halo = dev.events.iter().filter(|e| e.kind == EventKind::HaloSend);
            let spans: u64 = halo.map(|e| e.bytes).sum();
            let src = dev.rank.to_string();
            let counted: f64 = snap
                .metrics
                .values()
                .filter(|m| m.name == "adaqp_halo_sent_bytes_total")
                .filter(|m| m.labels.iter().any(|(k, v)| k == "src" && *v == src))
                .map(|m| m.value)
                .sum();
            assert_eq!(spans as f64, counted, "{method} rank {src}");
        }
    }
}

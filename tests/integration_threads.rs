//! Integration: the parallel kernel runtime never changes results. The same
//! experiment run with 1, 2 and 8 worker threads must serialize to
//! byte-identical results JSON — worker threads are host-side compute only;
//! chunk boundaries and fold orders are fixed by problem size, so the
//! simulated numerics cannot observe the thread count.

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
            ..TrainingConfig::default()
        },
        seed: 4242,
    }
}

#[test]
fn vanilla_results_json_byte_identical_at_1_2_8_threads() {
    // Vanilla is fully analytic (no measured solve wall-time), so the whole
    // serialized result must match byte for byte.
    let r1 = adaqp::run_experiment(&cfg(1, Method::Vanilla)).expect("valid config");
    let base = serde_json::to_string(&r1).expect("serializes");
    for t in [2usize, 8] {
        let r = adaqp::run_experiment(&cfg(t, Method::Vanilla)).expect("valid config");
        let json = serde_json::to_string(&r).expect("serializes");
        assert_eq!(json, base, "results JSON diverged at {t} threads");
    }
}

#[test]
fn adaqp_matches_at_any_thread_count_except_measured_solve_time() {
    // AdaQP's bit-width assigner charges its *measured* solve wall-clock, so
    // full JSON equality is off the table; everything analytic — losses,
    // scores, bytes, and epoch time minus the solve bucket — must still be
    // exactly equal.
    let base = adaqp::run_experiment(&cfg(1, Method::AdaQp)).expect("valid config");
    for t in [2usize, 8] {
        let r = adaqp::run_experiment(&cfg(t, Method::AdaQp)).expect("valid config");
        assert_eq!(r.per_epoch.len(), base.per_epoch.len());
        for (ea, eb) in r.per_epoch.iter().zip(&base.per_epoch) {
            assert_eq!(ea.loss, eb.loss, "loss diverged at {t} threads");
            assert_eq!(ea.val_score, eb.val_score);
            assert_eq!(ea.bytes_sent, eb.bytes_sent);
            let ta = ea.sim_seconds - ea.breakdown.solve;
            let tb = eb.sim_seconds - eb.breakdown.solve;
            assert!(
                (ta - tb).abs() < 1e-12,
                "analytic epoch time diverged at {t} threads: {ta} vs {tb}"
            );
        }
        assert_eq!(r.best_val, base.best_val);
        assert_eq!(r.total_bytes, base.total_bytes);
    }
}

#[test]
fn explicit_thread_count_round_trips_through_config_json() {
    let c = cfg(8, Method::Vanilla);
    let json = serde_json::to_string(&c).expect("serializes");
    let back = serde_json::from_str(&json).expect("parses");
    assert_eq!(back["training"]["threads"].as_u64(), Some(8));
    assert_eq!(back, serde_json::to_value(&c));
}

//! Integration tests for features beyond the paper's core: the overlap
//! ablation switch and error-feedback quantization.

use adaqp::{ExperimentConfig, Method, TrainingConfig};
use graph::DatasetSpec;

fn cfg(method: Method) -> ExperimentConfig {
    ExperimentConfig {
        dataset: DatasetSpec::tiny().scaled(2.0),
        machines: 1,
        devices_per_machine: 3,
        method,
        training: TrainingConfig {
            epochs: 10,
            hidden: 24,
            num_layers: 2,
            dropout: 0.0,
            reassign_period: 4,
            group_size: 16,
            ..TrainingConfig::default()
        },
        seed: 2024,
    }
}

#[test]
fn disabling_overlap_slows_adaqp_without_changing_numerics() {
    let with = adaqp::run_experiment(&cfg(Method::AdaQp)).expect("valid config");
    let mut c = cfg(Method::AdaQp);
    c.training.disable_overlap = true;
    let without = adaqp::run_experiment(&c).expect("valid config");
    // Same numerics: identical loss curves (overlap only changes timing).
    for (a, b) in with.per_epoch.iter().zip(&without.per_epoch) {
        assert!(
            (a.loss - b.loss).abs() < 1e-9,
            "overlap flag changed numerics at epoch {}",
            a.epoch
        );
    }
    // Disabling overlap cannot make the simulated run faster. Compare the
    // solve-free epoch compositions (the assigner's solve time is measured
    // wall-clock and noisy; everything else is analytic and deterministic).
    let solve_free = |r: &adaqp::RunResult| -> f64 {
        r.per_epoch
            .iter()
            .map(|e| e.sim_seconds - e.breakdown.solve)
            .sum()
    };
    let t_with = solve_free(&with);
    let t_without = solve_free(&without);
    assert!(
        t_without >= t_with - 1e-12,
        "no-overlap {t_without} faster than overlap {t_with}"
    );
    // And the overlap must actually hide something on this comm-heavy graph.
    assert!(
        t_without > t_with * 1.01,
        "overlap hid nothing: {t_with} vs {t_without}"
    );
}

#[test]
fn error_feedback_runs_and_preserves_quality() {
    let base = adaqp::run_experiment(&cfg(Method::AdaQp)).expect("valid config");
    let mut c = cfg(Method::AdaQp);
    c.training.error_feedback = true;
    let ef = adaqp::run_experiment(&c).expect("valid config");
    assert!(ef.per_epoch.iter().all(|e| e.loss.is_finite()));
    // EF must not hurt final quality (it compensates quantization error).
    assert!(
        ef.best_val >= base.best_val - 0.05,
        "EF val {} vs base {}",
        ef.best_val,
        base.best_val
    );
    // Wire traffic is identical: EF changes payload *content*, not size.
    assert_eq!(ef.total_bytes, base.total_bytes);
}

#[test]
fn error_feedback_reduces_time_averaged_quantization_error() {
    // Direct check on the mechanism: repeatedly quantize a fixed message set
    // at 2-bit; the running mean of EF-decoded values converges to the truth
    // faster than independent stochastic quantization.
    use quant::{decode_block, encode_block, BitWidth};
    use tensor::{Matrix, Rng};
    let rows = 16;
    let dim = 24;
    let truth = Matrix::from_fn(rows, dim, |i, j| ((i * dim + j) as f32 * 0.37).sin() * 2.0);
    let widths = vec![BitWidth::B2; rows];
    let mut rng = Rng::seed_from(7);
    let rounds = 50;

    // Plain stochastic quantization.
    let mut plain_sum = Matrix::zeros(rows, dim);
    for _ in 0..rounds {
        let block = encode_block(&truth, &widths, &mut rng);
        plain_sum.add_assign(&decode_block(&block).expect("decode"));
    }
    // Error feedback.
    let mut residual = Matrix::zeros(rows, dim);
    let mut ef_sum = Matrix::zeros(rows, dim);
    for _ in 0..rounds {
        let mut compensated = truth.clone();
        compensated.add_assign(&residual);
        let block = encode_block(&compensated, &widths, &mut rng);
        let decoded = decode_block(&block).expect("decode");
        residual = compensated.clone();
        residual.sub_assign(&decoded);
        ef_sum.add_assign(&decoded);
    }
    let err = |sum: &Matrix| -> f64 {
        let mut e = 0.0;
        for (s, t) in sum.as_slice().iter().zip(truth.as_slice()) {
            let d = s / rounds as f32 - t;
            e += (d as f64) * (d as f64);
        }
        e
    };
    let plain_err = err(&plain_sum);
    let ef_err = err(&ef_sum);
    assert!(
        ef_err < plain_err * 0.5,
        "EF time-averaged error {ef_err} not clearly below plain {plain_err}"
    );
}

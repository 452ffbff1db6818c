//! Integration: AdaQP's convergence curve tracks Vanilla's (the Sec. 5.2
//! claim backed by the O(T^-1) analysis), while staleness-based methods lag;
//! GraphSAGE learns through the same trainer as GCN.

use adaqp::{ExperimentConfig, Method, TrainingConfig};
use graph::DatasetSpec;

fn cfg(method: Method, seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        dataset: DatasetSpec::tiny().scaled(2.0),
        machines: 1,
        devices_per_machine: 2,
        method,
        training: TrainingConfig {
            epochs: 18,
            hidden: 24,
            num_layers: 2,
            dropout: 0.0,
            reassign_period: 6,
            group_size: 16,
            ..TrainingConfig::default()
        },
        seed,
    }
}

#[test]
fn adaqp_loss_curve_tracks_vanilla() {
    let vanilla = adaqp::run_experiment(&cfg(Method::Vanilla, 71)).expect("valid config");
    let adaqp_r = adaqp::run_experiment(&cfg(Method::AdaQp, 71)).expect("valid config");
    // Average absolute loss gap across the run stays small relative to the
    // loss scale.
    let scale = vanilla.per_epoch[0].loss.abs().max(1e-9);
    let gap: f64 = vanilla
        .per_epoch
        .iter()
        .zip(&adaqp_r.per_epoch)
        .map(|(v, a)| (v.loss - a.loss).abs())
        .sum::<f64>()
        / vanilla.per_epoch.len() as f64;
    assert!(
        gap < 0.15 * scale,
        "mean loss gap {gap} too large (scale {scale})"
    );
}

#[test]
fn adaqp_final_accuracy_close_to_vanilla() {
    let vanilla = adaqp::run_experiment(&cfg(Method::Vanilla, 73)).expect("valid config");
    let adaqp_r = adaqp::run_experiment(&cfg(Method::AdaQp, 73)).expect("valid config");
    assert!(
        (adaqp_r.best_val - vanilla.best_val).abs() < 0.06,
        "val: AdaQP {} vs Vanilla {}",
        adaqp_r.best_val,
        vanilla.best_val
    );
}

#[test]
fn uniform_sampling_also_converges_but_is_not_better() {
    let adaptive = adaqp::run_experiment(&cfg(Method::AdaQp, 79)).expect("valid config");
    let uniform = adaqp::run_experiment(&cfg(Method::AdaQpUniform, 79)).expect("valid config");
    assert!(uniform.per_epoch.iter().all(|e| e.loss.is_finite()));
    // Adaptive should not be meaningfully worse than uniform sampling
    // (Sec. 5.3: it is usually better).
    assert!(
        adaptive.best_val >= uniform.best_val - 0.05,
        "adaptive {} vs uniform {}",
        adaptive.best_val,
        uniform.best_val
    );
}

#[test]
fn losses_are_monotone_ish_downward() {
    // Smoke check on optimizer health across methods: the loss at the end
    // is well below the start for every method.
    for method in [Method::Vanilla, Method::AdaQp, Method::PipeGcn] {
        let r = adaqp::run_experiment(&cfg(method, 83)).expect("valid config");
        let first = r.per_epoch[0].loss;
        let last = r.per_epoch.last().expect("epochs ran").loss;
        assert!(
            last < 0.8 * first,
            "{method:?}: loss {first} -> {last} did not drop enough"
        );
    }
}

#[test]
fn sage_training_also_learns() {
    // GraphSAGE-mean through the shipped trainer, on one device (the
    // single-device reference) and split over two.
    for devices in [1, 2] {
        let mut c = cfg(Method::Vanilla, 89);
        c.devices_per_machine = devices;
        c.training.use_sage = true;
        let r = adaqp::run_experiment(&c).expect("valid config");
        assert_eq!(r.per_epoch.len(), c.training.epochs);
        let first = r.per_epoch[0].loss;
        let last = r.per_epoch.last().expect("epochs ran").loss;
        assert!(
            last < 0.25 * first,
            "{devices} devices: loss {first} -> {last}"
        );
        assert!(
            r.best_val > 0.9,
            "{devices} devices: SAGE failed to learn, accuracy {}",
            r.best_val
        );
    }
}

//! Integration: reproducibility guarantees — identical seeds produce
//! identical numerics (the simulated clock is analytic, so even timing is
//! deterministic), and results serialize losslessly.

use adaqp::{ExperimentConfig, Method, TrainingConfig};
use graph::DatasetSpec;

fn cfg(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        dataset: DatasetSpec::tiny(),
        machines: 1,
        devices_per_machine: 2,
        method: Method::AdaQp,
        training: TrainingConfig {
            epochs: 6,
            hidden: 16,
            num_layers: 2,
            dropout: 0.5, // dropout included: streams are seeded per device
            reassign_period: 3,
            ..TrainingConfig::default()
        },
        seed,
    }
}

#[test]
fn same_seed_same_everything() {
    let a = adaqp::run_experiment(&cfg(901)).expect("valid config");
    let b = adaqp::run_experiment(&cfg(901)).expect("valid config");
    for (ea, eb) in a.per_epoch.iter().zip(&b.per_epoch) {
        assert_eq!(ea.loss, eb.loss, "loss diverged at epoch {}", ea.epoch);
        assert_eq!(ea.val_score, eb.val_score);
        assert_eq!(ea.bytes_sent, eb.bytes_sent);
        // Timing is analytic except the assigner's measured solve time.
        let ta = ea.sim_seconds - ea.breakdown.solve;
        let tb = eb.sim_seconds - eb.breakdown.solve;
        assert!(
            (ta - tb).abs() < 1e-12,
            "analytic epoch time diverged: {ta} vs {tb}"
        );
    }
    assert_eq!(a.best_val, b.best_val);
    assert_eq!(a.total_bytes, b.total_bytes);
}

#[test]
fn different_seeds_differ() {
    let a = adaqp::run_experiment(&cfg(901)).expect("valid config");
    let b = adaqp::run_experiment(&cfg(902)).expect("valid config");
    // Different dataset + init => different trajectories.
    assert_ne!(a.per_epoch[2].loss, b.per_epoch[2].loss);
}

#[test]
fn run_result_serializes_faithfully() {
    let a = adaqp::run_experiment(&cfg(903)).expect("valid config");
    let json = serde_json::to_string(&a).expect("serializes");
    let back: adaqp::RunResult = serde_json::from_str(&json).expect("deserializes");
    // Integers and strings round-trip exactly; floats up to a ULP of JSON
    // formatting.
    assert_eq!(a.method, back.method);
    assert_eq!(a.dataset, back.dataset);
    assert_eq!(a.total_bytes, back.total_bytes);
    assert_eq!(a.per_epoch.len(), back.per_epoch.len());
    for (x, y) in a.per_epoch.iter().zip(&back.per_epoch) {
        assert_eq!(x.epoch, y.epoch);
        assert_eq!(x.bytes_sent, y.bytes_sent);
        assert!((x.loss - y.loss).abs() <= f64::EPSILON * x.loss.abs());
        assert!((x.val_score - y.val_score).abs() <= f64::EPSILON);
        assert!((x.sim_seconds - y.sim_seconds).abs() <= 1e-15);
    }
    assert!((a.best_val - back.best_val).abs() <= f64::EPSILON);
    assert!((a.throughput - back.throughput).abs() <= 1e-9 * a.throughput);
}

#[test]
fn experiment_config_serializes_losslessly() {
    let c = cfg(904);
    let json = serde_json::to_string(&c).expect("serializes");
    let back: ExperimentConfig = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(c, back);
}

#[test]
fn method_only_changes_method_dependent_state() {
    // Vanilla and AdaQP share dataset/partition/init for the same seed:
    // epoch-0 losses agree except for epoch-0 quantization (AdaQP's epoch 0
    // is full precision, so they must match exactly up to dropout streams —
    // which are also seeded identically).
    let mut cv = cfg(905);
    cv.method = Method::Vanilla;
    let mut ca = cfg(905);
    ca.method = Method::AdaQp;
    let v = adaqp::run_experiment(&cv).expect("valid config");
    let a = adaqp::run_experiment(&ca).expect("valid config");
    assert_eq!(
        v.per_epoch[0].loss, a.per_epoch[0].loss,
        "epoch 0 must be identical (AdaQP warms up at full precision)"
    );
    // Later epochs diverge (quantization noise).
    assert_ne!(v.per_epoch[4].loss, a.per_epoch[4].loss);
}

/// FNV-1a over every epoch's loss bits.
fn loss_digest(result: &adaqp::RunResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for e in &result.per_epoch {
        for b in e.loss.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn golden_loss_digests_survive_kernel_changes() {
    // Recorded at the commit before the three dense products moved onto one
    // tiled kernel (ISSUE 14). A host-time change to tensor, gnn or the
    // exchange path must reproduce every loss bit; the last two rows put
    // 300 rows on each device, past the row count where `matmul_tn` reduces
    // per chunk, so the chunk merge order is pinned end to end as well.
    for (method, use_sage, scale, want) in [
        (Method::Vanilla, false, 1.0, 0xd12c_36f1_43d1_b4aa_u64),
        (Method::Vanilla, true, 1.0, 0x746e_8249_36eb_30c6),
        (Method::AdaQp, false, 1.0, 0x81cd_68f0_6108_ad6d),
        (Method::AdaQp, true, 1.0, 0x3f6c_5cbe_e16c_bcb3),
        (Method::Vanilla, false, 2.0, 0x0eb6_683d_8fa2_b35d),
        (Method::AdaQp, true, 2.0, 0x96bc_33b6_8394_452f),
    ] {
        let mut c = cfg(4242);
        c.method = method;
        c.training.use_sage = use_sage;
        c.dataset = DatasetSpec::tiny().scaled(scale);
        let got = loss_digest(&adaqp::run_experiment(&c).expect("valid config"));
        assert_eq!(
            got, want,
            "{method:?}, sage {use_sage}, scale {scale}: {got:#018x} != {want:#018x}"
        );
    }
}

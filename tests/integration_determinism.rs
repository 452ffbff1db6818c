//! Integration: reproducibility guarantees — identical seeds produce
//! identical numerics (the simulated clock is analytic, so even timing is
//! deterministic), and results serialize losslessly.

use adaqp::{ExperimentConfig, Method, TopologySpec, TrainingConfig};
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

/// FNV-1a over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Digest of every epoch's loss bits, analytic charges and bytes sent.
/// `breakdown.solve` (hence `sim_seconds`) is left out: it is the assigner's
/// host-measured solve time, the one non-analytic charge.
fn run_digest(result: &adaqp::RunResult) -> u64 {
    fnv(result.per_epoch.iter().flat_map(|e| {
        let tb = &e.breakdown;
        [
            e.loss.to_bits(),
            tb.comm.to_bits(),
            tb.quant.to_bits(),
            tb.central_comp.to_bits(),
            tb.marginal_comp.to_bits(),
            e.bytes_sent as u64,
        ]
    }))
}

/// Digest of every epoch's validation and test score bits: what evaluation
/// computed, which [`run_digest`] does not see.
fn score_digest(result: &adaqp::RunResult) -> u64 {
    fnv(result
        .per_epoch
        .iter()
        .flat_map(|e| [e.val_score.to_bits(), e.test_score.to_bits()]))
}

/// Digest of every epoch's composed length under the run's schedule, with
/// the host-measured solve zeroed: pins the composition's operand order and
/// the straggler whose breakdown each epoch reports.
fn epoch_time_digest(cfg: &ExperimentConfig, result: &adaqp::RunResult) -> u64 {
    fnv(result.per_epoch.iter().map(|e| {
        let analytic = obs::time::TimeBreakdown {
            solve: 0.0,
            ..e.breakdown
        };
        adaqp::metrics::epoch_time_with_overlap(cfg.method, cfg.training.disable_overlap, &analytic)
            .to_bits()
    }))
}

type Tweak = fn(&mut TrainingConfig);

/// One golden row: method, config tweak, GraphSAGE, dataset scale, machines,
/// devices per machine, then the run, epoch-time and score digests.
type GoldenRow = (Method, Tweak, bool, f64, usize, usize, u64, u64, u64);

#[test]
fn golden_run_digests_survive_refactors() {
    // The run digests were recorded at the commit before the ten exchange
    // functions became one routine (ISSUE 15); the epoch-time digests and
    // the serial-AdaQP row at the commit before the epoch-time model moved
    // into `obs::time` (ISSUE 17); the score digests at the commit before
    // evaluation began to keep its first layer's aggregated input
    // (ISSUE 20). A host-time change to tensor, gnn or the
    // exchange path must reproduce every loss bit, every analytic charge
    // (the order of `f64` adds into `quant_ops` is visible in `quant`) and
    // every byte count, on every wire the trainers can pick; a change to the time model must
    // reproduce every composed epoch length under all three schedules; a
    // change to evaluation must reproduce every score. The
    // scale-2 rows put 300 rows on each device, past the row count where
    // `matmul_tn` reduces per chunk, so the chunk merge order is pinned end
    // to end as well. The last four rows, recorded at the commit before the
    // cost model began to look each pair's tier up, span machines: `2M-2D`
    // prices intra- and inter-machine links, and the racked `4M-2D` adds a
    // 4:1 spine, so every tier reaches the scheduler and the assigner's time
    // objective.
    let plain: Tweak = |_| {};
    let error_feedback: Tweak = |t| t.error_feedback = true;
    let serial: Tweak = |t| t.disable_overlap = true;
    let racked: Tweak = |t| {
        let spec = TopologySpec {
            machines_per_rack: Some(2),
            ..TopologySpec::default()
        };
        t.topology = Some(spec.oversubscription(4.0));
    };
    use Method::{AdaQp, AdaQpUniform, PipeGcn, Sancus, Vanilla};
    #[rustfmt::skip]
    let rows: [GoldenRow; 19] = [
        (Vanilla, plain, false, 1.0, 1, 2, 0x8bd9_189b_b3e9_57e2, 0xcc92_3cb8_4c4b_1bb5, 0xab02_8652_1dd0_6175),
        (Vanilla, plain, true, 1.0, 1, 2, 0xdde1_6176_3e4f_4bd6, 0xe7b9_5490_b50b_ce91, 0xde21_0930_ae42_c75a),
        (AdaQp, plain, false, 1.0, 1, 2, 0x8c2f_17ed_6c7d_68ab, 0x6cdc_2bda_9f55_851d, 0xd492_7357_c227_11d4),
        (AdaQp, plain, true, 1.0, 1, 2, 0x9219_c7b3_a4f7_e4da, 0x4444_683e_2396_03e7, 0xd22b_54dd_d6be_93f3),
        (Vanilla, plain, false, 2.0, 1, 2, 0x116e_2f44_0b26_8339, 0x2451_c4a1_e32d_429d, 0x1ab8_f30b_e6fe_42e6),
        (AdaQp, plain, true, 2.0, 1, 2, 0xce02_6307_d5e7_14dd, 0xe591_c5bf_f888_511c, 0x7b8a_3cea_2b9b_2e9c),
        (AdaQp, error_feedback, false, 1.0, 1, 4, 0xa370_a56b_5dc2_8b77, 0x24e6_b890_3f33_196c, 0x1b37_a69c_6ef1_9f87),
        (AdaQp, error_feedback, true, 1.0, 1, 4, 0x81a3_b1b6_df50_d591, 0x9ecf_3d11_8bde_18fd, 0xc0d8_729f_8a47_3f38),
        (AdaQpUniform, plain, false, 1.0, 1, 4, 0xe186_fc2e_eee9_ad00, 0xfc86_8c49_bc51_37b6, 0x57f0_79e9_c8b8_e028),
        (AdaQpUniform, plain, true, 1.0, 1, 4, 0x546c_deb1_78db_f1a8, 0x6ee2_9281_703b_cb88, 0x27be_dc4d_a9c8_b1d6),
        (PipeGcn, plain, false, 1.0, 1, 4, 0x8e04_c864_7b71_d980, 0x6779_901e_b16a_ff2d, 0xefac_b252_9234_7f3d),
        (PipeGcn, plain, true, 1.0, 1, 4, 0x30eb_5bd6_e148_bd92, 0x9250_8a2f_7dd7_c171, 0xf923_51f1_b1c9_4ed5),
        (Sancus, plain, false, 1.0, 1, 4, 0x519e_e9c7_8573_f017, 0x7a37_f2b6_cdbc_eb28, 0x77f0_1619_3f0d_d8bb),
        (Sancus, plain, true, 1.0, 1, 4, 0xcbea_d818_94f4_67ca, 0x0a19_bc7a_4a7a_7c90, 0x80d3_c2fc_fe70_40cb),
        (AdaQp, serial, false, 1.0, 1, 4, 0x219d_f943_6f8b_a3f2, 0x32b2_b048_fad1_a844, 0x1b37_a69c_6ef1_9f87),
        (Vanilla, plain, false, 1.0, 2, 2, 0xe7a9_8f8d_e8db_7b49, 0x30ab_7f15_2dcb_d441, 0x57f0_79e9_c8b8_e028),
        (AdaQp, plain, false, 1.0, 2, 2, 0x2cac_09b4_b6ee_59ad, 0x1226_7725_a215_6d28, 0x1b37_a69c_6ef1_9f87),
        (Vanilla, racked, false, 1.0, 4, 2, 0x7e8c_92c9_0e8c_6740, 0xe36a_7dc4_d0ee_0d2d, 0xe9a3_4568_c007_eb56),
        (AdaQp, racked, false, 1.0, 4, 2, 0xeab4_857e_c36f_0648, 0xcad4_987c_9a43_7a55, 0x583d_0e09_e430_83d6),
    ];
    for (method, tweak, use_sage, scale, machines, devices, want_run, want_time, want_scores) in
        rows
    {
        let mut c = cfg(4242);
        c.method = method;
        c.machines = machines;
        c.devices_per_machine = devices;
        c.training.use_sage = use_sage;
        tweak(&mut c.training);
        c.dataset = DatasetSpec::tiny().scaled(scale);
        let result = adaqp::run_experiment(&c).expect("valid config");
        let got = (
            run_digest(&result),
            epoch_time_digest(&c, &result),
            score_digest(&result),
        );
        let t = &c.training;
        assert_eq!(
            got,
            (want_run, want_time, want_scores),
            "{method:?} {machines}M-{devices}D, sage {use_sage}, scale {scale}, ef {} serial {}: \
             run / epoch-time / score digests {got:#018x?}",
            t.error_feedback,
            t.disable_overlap
        );
    }
}

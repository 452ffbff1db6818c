//! Golden digests of the metric snapshot, in both export formats, on the
//! paths the committed `results/baseline/metrics.snapshot.*` does not reach:
//! four devices on two machines, the grouped wire, the uniform ablation
//! (mixed widths per exchange) and the two collective-heavy baselines.

use adaqp::{ExperimentConfig, Method, TrainingConfig};
use graph::DatasetSpec;

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digests(method: Method, grouped_wire: bool) -> (usize, u64, u64) {
    let cfg = ExperimentConfig {
        dataset: DatasetSpec::tiny(),
        machines: 2,
        devices_per_machine: 2,
        method,
        training: TrainingConfig {
            epochs: 6,
            hidden: 16,
            num_layers: 2,
            dropout: 0.5,
            reassign_period: 2,
            grouped_wire,
            metrics: true,
            ..TrainingConfig::default()
        },
        seed: 4242,
    };
    let snap = adaqp::run_experiment(&cfg)
        .expect("valid config")
        .metrics
        .expect("metrics were enabled");
    let json = serde_json::to_string(&snap).expect("serializes");
    (snap.metrics.len(), fnv(&json), fnv(&snap.to_prometheus()))
}

#[test]
fn golden_snapshot_digests() {
    // Recorded at the commit before the snapshot became one fold over plain
    // per-device tallies (ISSUE 23), when every device still owned a
    // registry and the runner merged them in rank order: series count, JSON
    // digest, Prometheus digest.
    for (method, grouped_wire, want_series, want_json, want_prom) in [
        (
            Method::AdaQp,
            false,
            88,
            0x467c_491b_0e4d_5317_u64,
            0x1882_6cd4_bc93_9aa4_u64,
        ),
        (
            Method::AdaQp,
            true,
            80,
            0x936a_f705_bc31_1076,
            0x5899_3a59_cdf9_5445,
        ),
        (
            Method::AdaQpUniform,
            false,
            95,
            0xa66c_c3fe_41cc_e817,
            0x57cd_0462_6e37_0ae6,
        ),
        (
            Method::PipeGcn,
            false,
            62,
            0x0313_3c5e_7184_4246,
            0xbe54_e0eb_432d_4d93,
        ),
        (
            Method::Sancus,
            false,
            50,
            0xc450_ec0d_368e_24c3,
            0xf5b3_4121_623e_3487,
        ),
    ] {
        let got = digests(method, grouped_wire);
        assert_eq!(
            got,
            (want_series, want_json, want_prom),
            "{method:?} (grouped wire: {grouped_wire}): got ({}, {:#018x}, {:#018x})",
            got.0,
            got.1,
            got.2
        );
    }
}

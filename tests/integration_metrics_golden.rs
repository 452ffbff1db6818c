//! Golden digests of the metric snapshot, in both export formats, on the
//! paths the committed `results/baseline/metrics.snapshot.*` does not reach:
//! four devices on two machines, the uniform ablation (mixed widths per
//! exchange) and the two collective-heavy baselines.

use adaqp::{ExperimentConfig, Method, TrainingConfig};
use graph::DatasetSpec;

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digests(method: Method) -> (usize, u64, u64) {
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
    // digest, Prometheus digest. The AdaQP row was re-recorded when the
    // master's replies lost their receive-side blocks, which moves only
    // rank 0's sent bytes; the older digests come back when each reply is
    // padded to its former length.
    for (method, want_series, want_json, want_prom) in [
        (
            Method::AdaQp,
            88,
            0x0d5f_a589_c723_3f2b_u64,
            0xb9a6_c5a7_9dbb_04fa_u64,
        ),
        (
            Method::AdaQpUniform,
            95,
            0xa66c_c3fe_41cc_e817,
            0x57cd_0462_6e37_0ae6,
        ),
        (
            Method::PipeGcn,
            62,
            0x0313_3c5e_7184_4246,
            0xbe54_e0eb_432d_4d93,
        ),
        (
            Method::Sancus,
            50,
            0xc450_ec0d_368e_24c3,
            0xf5b3_4121_623e_3487,
        ),
    ] {
        let got = digests(method);
        assert_eq!(
            got,
            (want_series, want_json, want_prom),
            "{method:?}: got ({}, {:#018x}, {:#018x})",
            got.0,
            got.1,
            got.2
        );
    }
}

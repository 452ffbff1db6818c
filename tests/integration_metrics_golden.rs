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
    // Series count, JSON digest, Prometheus digest. Re-recorded twice when
    // the three traffic families lost their `dst` label. First, on the
    // commit before, every old row summed over `dst`, with `Metric`'s three
    // histogram-only fields dropped from the JSON, reproduced all four new
    // rows; SANCUS then had 34 series. Second, SANCUS's broadcasts began to
    // count as halo traffic: its row gained one
    // `adaqp_halo_sent_bytes_total{src, width="32"}` per device, and with
    // those four removed it reads the first row again. Third, the AdaQP row
    // alone: the master's solve-stats broadcast grew from 32 to 89 bytes (a
    // version byte and the round's work counts), so its
    // `adaqp_comm_sent_bytes_total{src="0"}` reads 57 bytes more per worker
    // per round (282 479 -> 283 163), and no other series moved.
    for (method, want_series, want_json, want_prom) in [
        (
            Method::AdaQp,
            54,
            0xbf31_0245_1104_ae4d_u64,
            0x00b5_1d36_b6c1_35a2_u64,
        ),
        (
            Method::AdaQpUniform,
            59,
            0xe25d_c17a_f01c_eae7,
            0xdf27_9b6d_997f_5548,
        ),
        (
            Method::PipeGcn,
            38,
            0xcb36_d267_0932_c890,
            0x2f7c_0d4e_05e2_7421,
        ),
        (
            Method::Sancus,
            38,
            0xccfe_849b_20e1_f60f,
            0x143e_ad65_c9ad_b1be,
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

//! Integration: AdaQP's quantized exchange reduces traffic drastically while
//! preserving model quality on a learnable dataset.

use adaqp::{ExperimentConfig, Method, TopologySpec, TrainingConfig};
use graph::DatasetSpec;

fn cfg(method: Method) -> ExperimentConfig {
    ExperimentConfig {
        dataset: DatasetSpec::tiny().scaled(2.0),
        machines: 1,
        devices_per_machine: 3,
        method,
        training: TrainingConfig {
            epochs: 15,
            hidden: 24,
            num_layers: 2,
            dropout: 0.0,
            reassign_period: 5,
            group_size: 16,
            ..TrainingConfig::default()
        },
        seed: 5150,
    }
}

#[test]
fn adaqp_compresses_traffic() {
    let vanilla = adaqp::run_experiment(&cfg(Method::Vanilla)).expect("valid config");
    let adaqp_r = adaqp::run_experiment(&cfg(Method::AdaQp)).expect("valid config");
    // Epoch 0 of AdaQP is full precision (tracing); afterwards messages are
    // 2-8 bit, so the whole run must move far fewer bytes.
    assert!(
        (adaqp_r.total_bytes as f64) < 0.55 * vanilla.total_bytes as f64,
        "AdaQP {} bytes vs Vanilla {}",
        adaqp_r.total_bytes,
        vanilla.total_bytes
    );
    // And per-epoch bytes after warm-up are dramatically lower.
    let v1 = vanilla.per_epoch[3].bytes_sent;
    let a1 = adaqp_r.per_epoch[3].bytes_sent;
    assert!(
        (a1 as f64) < 0.5 * v1 as f64,
        "steady-state epoch bytes: AdaQP {a1} vs Vanilla {v1}"
    );
}

#[test]
fn adaqp_preserves_accuracy() {
    let vanilla = adaqp::run_experiment(&cfg(Method::Vanilla)).expect("valid config");
    let adaqp_r = adaqp::run_experiment(&cfg(Method::AdaQp)).expect("valid config");
    assert!(
        adaqp_r.best_val >= vanilla.best_val - 0.05,
        "AdaQP val {} vs Vanilla {}",
        adaqp_r.best_val,
        vanilla.best_val
    );
}

#[test]
fn adaqp_comm_time_lower_than_vanilla() {
    let vanilla = adaqp::run_experiment(&cfg(Method::Vanilla)).expect("valid config");
    let adaqp_r = adaqp::run_experiment(&cfg(Method::AdaQp)).expect("valid config");
    assert!(
        adaqp_r.total_breakdown.comm < vanilla.total_breakdown.comm,
        "comm: AdaQP {} vs Vanilla {}",
        adaqp_r.total_breakdown.comm,
        vanilla.total_breakdown.comm
    );
}

#[test]
fn quant_overhead_small_relative_to_comm_savings() {
    // Fig. 10's qualitative claim: the quantization kernel time AdaQP adds
    // is much smaller than the communication time it removes. Slow the link
    // so the tiny test graph sits in the comm-dominant regime the paper's
    // clusters are in (unoptimized debug-build kernels would otherwise
    // distort the comparison).
    let slow = |method| {
        let mut c = cfg(method);
        c.training.topology = Some(TopologySpec {
            inter_bw: Some(2e6),
            intra_bw: Some(2e6),
            ..TopologySpec::default()
        });
        c
    };
    let vanilla = adaqp::run_experiment(&slow(Method::Vanilla)).expect("valid config");
    let adaqp_r = adaqp::run_experiment(&slow(Method::AdaQp)).expect("valid config");
    let saved = vanilla.total_breakdown.comm - adaqp_r.total_breakdown.comm;
    assert!(saved > 0.0, "no communication savings at all");
    assert!(
        adaqp_r.total_breakdown.quant < saved,
        "quant overhead {} exceeds comm savings {saved}",
        adaqp_r.total_breakdown.quant
    );
}

//! Ablations of the design decisions DESIGN.md calls out:
//!
//! * D4 — central/marginal overlap on vs off;
//! * the error-feedback extension on vs off;
//! * adaptive assignment vs fixed uniform widths (D1 lives in
//!   `fig11_sensitivity`, D5 inside Table 4's SANCUS rows).
//!
//! The full AdaQP and the Vanilla rows are Table 4's products 2M-2D GCN
//! runs, the uniform row is Table 6's.

use super::Files;
use crate::Runs;
use adaqp::{ExperimentConfig, Method};

/// Prints the ablation and returns its rows.
pub fn run(runs: &mut Runs) -> Files {
    let setup = runs.setup;
    let spec = setup.dataset("ogbn-products-sim");
    let seed = setup.seeds()[0];

    println!("Design-choice ablations (GCN, {}, 2M-2D)", spec.name);
    println!(
        "{:<28} {:>10} {:>16} {:>12}",
        "variant", "val acc", "throughput", "sim time"
    );
    crate::rule(70);
    let mut json = Vec::new();
    let base = setup.experiment(spec.clone(), 2, 2, Method::AdaQp, false, seed);
    let with = |mutate: fn(&mut ExperimentConfig)| {
        let mut cfg = base.clone();
        mutate(&mut cfg);
        cfg
    };
    let variants = [
        ("AdaQP (full)", base.clone()),
        (
            "AdaQP, no overlap (D4 off)",
            with(|c| c.training.disable_overlap = true),
        ),
        (
            "AdaQP + error feedback",
            with(|c| c.training.error_feedback = true),
        ),
        (
            "Uniform widths (no solver)",
            with(|c| c.method = Method::AdaQpUniform),
        ),
        (
            "Vanilla (no quantization)",
            with(|c| c.method = Method::Vanilla),
        ),
    ];
    for (label, cfg) in variants {
        let r = &runs.run(&cfg).result;
        let (acc, tp, secs) = (r.best_val * 100.0, r.throughput, r.total_sim_seconds);
        println!("{label:<28} {acc:>9.2}% {tp:>11.2} ep/s {secs:>11.3}s");
        json.push(
            serde_json::json!({"variant": label, "val_acc": acc, "throughput": tp,
            "sim_time_s": secs, "total_bytes": r.total_bytes}),
        );
    }
    crate::rule(70);
    println!("expected: disabling the overlap costs throughput with identical");
    println!("accuracy; error feedback matches or improves accuracy at equal");
    println!("traffic; uniform widths trail the adaptive assignment.");
    vec![("ablation_design", serde_json::Value::Array(json))]
}

//! Table 6: adaptive bit-width assignment vs uniform random bit-width
//! sampling, on the ogbn-products stand-in (Sec. 5.3's ablation). The
//! adaptive rows are Table 4's AdaQP runs.

use super::Files;
use crate::Runs;
use adaqp::Method;

/// Prints Table 6 and returns its rows.
pub fn run(runs: &mut Runs) -> Files {
    let setup = runs.setup;
    let spec = setup.dataset("ogbn-products-sim");
    let name = &spec.name;
    println!("Table 6: uniform bit-width sampling vs adaptive assignment ({name})");
    println!(
        "{:<8} {:<10} {:<10} {:>14} {:>18}",
        "setting", "model", "scheme", "accuracy (%)", "throughput (ep/s)"
    );
    crate::rule(66);
    let mut json = Vec::new();
    for (machines, dpm) in [(2usize, 2usize), (2, 4)] {
        for use_sage in [false, true] {
            let model = if use_sage { "GraphSAGE" } else { "GCN" };
            let setting = format!("{machines}M-{dpm}D");
            for (label, method) in [
                ("Uniform", Method::AdaQpUniform),
                ("Adaptive", Method::AdaQp),
            ] {
                let rs = runs.seeded(|seed| {
                    setup.experiment(spec.clone(), machines, dpm, method, use_sage, seed)
                });
                let (acc_m, acc_s) = crate::mean_std(&rs, |r| r.best_val * 100.0);
                let (tp_m, _) = crate::mean_std(&rs, |r| r.throughput);
                println!(
                    "{setting:<8} {model:<10} {label:<10} {acc_m:>7.2}+-{acc_s:<5.2} {tp_m:>18.2}"
                );
                json.push(
                    serde_json::json!({"setting": setting, "model": model, "scheme": label,
                    "accuracy_mean": acc_m, "accuracy_std": acc_s, "throughput": tp_m}),
                );
            }
        }
        crate::rule(66);
    }
    println!("paper: adaptive wins accuracy in nearly all blocks (uniform can");
    println!("hand 2 bits to high-beta messages, inflating gradient variance).");
    vec![("table6_uniform_vs_adaptive", serde_json::Value::Array(json))]
}

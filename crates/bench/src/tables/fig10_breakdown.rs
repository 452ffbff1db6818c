//! Fig. 10: time breakdown. (a) per-epoch communication / computation /
//! quantization time of Vanilla vs AdaQP on every dataset (GCN); (b) the
//! wall-clock split between bit-width assignment and actual training.
//!
//! All numbers are the run's own totals (`RunResult::total_sim_seconds` /
//! `total_breakdown`: per epoch, the slowest device under the method's
//! schedule). Part (a)'s runs record their flight log, for the host kernel
//! time it prints next to them, for the critical-path summary and for the
//! trace of the AdaQP run on the ogbn-products stand-in, returned as
//! `fig10_products_adaqp_trace` (open in Perfetto or chrome://tracing).
//! Recording makes them configs of their own, so they are not Table 4's
//! runs; part (b) and the summary read them.

use super::Files;
use crate::Runs;
use adaqp::Method;

/// Prints Fig. 10 (a), (b) and a critical-path summary, and returns both
/// parts and the trace.
pub fn run(runs: &mut Runs) -> Files {
    let setup = runs.setup;
    let seed = setup.seeds()[0];
    let recorded = |spec: &graph::DatasetSpec, method| {
        let mut cfg = setup.experiment(spec.clone(), 2, 2, method, false, seed);
        cfg.training.telemetry = true;
        cfg.training.profile = true;
        cfg
    };
    println!("Fig. 10(a): per-epoch time breakdown, GCN 2M-2D (seconds/epoch)");
    println!(
        "{:<22} {:<9} {:>10} {:>10} {:>10} {:>12}",
        "dataset", "method", "comm", "comp", "quant", "epoch total"
    );
    crate::rule(78);
    let mut json = Vec::new();
    let (mut trace, pad) = (serde_json::Value::Null, "");
    for spec in setup.datasets() {
        let mut vanilla: Option<(f64, f64, f64)> = None;
        for method in [Method::Vanilla, Method::AdaQp] {
            let run = runs.run(&recorded(&spec, method));
            let r = &run.result;
            let (total_s, tb) = (r.total_sim_seconds, r.total_breakdown);
            let n = r.per_epoch.len().max(1) as f64;
            let (comm, comp, quant) = (tb.comm / n, tb.total_comp() / n, tb.quant / n);
            let (total, dataset, name) = (total_s / n, &spec.name, method.name());
            println!(
                "{dataset:<22} {name:<9} {comm:>10.5} {comp:>10.5} {quant:>10.5} {total:>12.5}"
            );
            let log = r.telemetry.as_ref().expect("telemetry enabled");
            if method == Method::AdaQp {
                let (v_total, v_comm, v_comp) = vanilla.expect("vanilla ran first");
                let comm_red = 100.0 * (1.0 - tb.comm / v_comm.max(1e-12));
                // AdaQP's critical-path computation excludes hidden central
                // compute: compare marginal-only against Vanilla's total.
                let comp_red = 100.0 * (1.0 - tb.marginal_comp / v_comp.max(1e-12));
                let quant_share = 100.0 * tb.quant / total_s.max(1e-12);
                println!(
                    "{pad:<22} {pad:<9} comm -{comm_red:.1}%  critical-path comp -{comp_red:.1}%  \
                     quant {quant_share:.1}% of epoch"
                );
                json.push(
                    serde_json::json!({"dataset": dataset, "comm_reduction_pct": comm_red,
                    "comp_reduction_pct": comp_red, "quant_share_pct": quant_share,
                    "vanilla_epoch_s": v_total / n, "adaqp_epoch_s": total}),
                );
                if spec.name.contains("products") && !spec.name.contains("amazon") {
                    trace = log.chrome_trace();
                }
            } else {
                vanilla = Some((total_s, tb.comm, tb.total_comp()));
            }
            // Measured host wall-clock of the parallel kernels behind the
            // spans (diagnostic; the columns above stay analytic).
            let kernels = log.host_kernel_summary();
            let host: f64 = kernels.iter().map(|s| s.host_seconds).sum();
            let threads = kernels.iter().filter_map(|s| s.threads).max().unwrap_or(1);
            println!(
                "{pad:<22} {pad:<9} host kernel time {host:.4}s total ({threads} worker threads)"
            );
        }
        crate::rule(78);
    }
    println!("paper Fig. 10(a): comm time -78.3%..-80.9%, computation time");
    println!("-13.2%..-39.1%, quantization only 5.5%-13.9% of epoch time.");
    println!();

    println!("Fig. 10(b): wall-clock split, AdaQP (training vs assignment)");
    println!(
        "{:<22} {:>14} {:>14} {:>12}",
        "dataset", "training (s)", "assign (s)", "assign share"
    );
    crate::rule(66);
    let mut json_b = Vec::new();
    for spec in setup.datasets() {
        let r = &runs.run(&recorded(&spec, Method::AdaQp)).result;
        let total_s = r.total_sim_seconds;
        let assign = r.total_breakdown.solve;
        let train = total_s - assign;
        let (share, dataset) = (100.0 * assign / total_s.max(1e-12), &spec.name);
        println!("{dataset:<22} {train:>14.4} {assign:>14.4} {share:>11.2}%");
        json_b.push(serde_json::json!({"dataset": dataset, "training_s": train,
            "assignment_s": assign, "assignment_share_pct": share}));
    }
    crate::rule(66);
    println!("paper Fig. 10(b): assignment averages 5.43% of wall-clock time.");

    // ------------------------------------------------------------------
    // Where does the time go? Critical-path profile of the AdaQP run on
    // the first dataset, re-folded from the charges in its flight log.
    println!();
    let first = setup.datasets().remove(0);
    println!("{}", runs.critical_path(&recorded(&first, Method::AdaQp)));
    vec![
        (
            "fig10_breakdown",
            serde_json::json!({ "per_epoch": json, "wallclock": json_b }),
        ),
        ("fig10_products_adaqp_trace", trace),
    ]
}

//! Fig. 10: time breakdown. (a) per-epoch communication / computation /
//! quantization time of Vanilla vs AdaQP on every dataset (GCN); (b) the
//! wall-clock split between bit-width assignment and actual training.
//!
//! All numbers are the run's own totals (`RunResult::total_sim_seconds` /
//! `total_breakdown`: per epoch, the slowest device under the method's
//! schedule). Part (a) also records telemetry, for the host kernel time it
//! prints next to them and for the trace of the AdaQP run on the
//! ogbn-products stand-in, dumped to
//! `results/fig10_products_adaqp_trace.json` (open in Perfetto or
//! chrome://tracing).

use adaqp::Method;

fn main() {
    let seed = bench::seeds()[0];
    println!("Fig. 10(a): per-epoch time breakdown, GCN 2M-2D (seconds/epoch)");
    println!(
        "{:<22} {:<9} {:>10} {:>10} {:>10} {:>12}",
        "dataset", "method", "comm", "comp", "quant", "epoch total"
    );
    bench::rule(78);
    let mut json = Vec::new();
    for spec in bench::datasets() {
        let mut vanilla: Option<(f64, comm::TimeBreakdown)> = None;
        for method in [Method::Vanilla, Method::AdaQp] {
            let mut cfg = bench::experiment(spec.clone(), 2, 2, method, false, seed);
            cfg.training.telemetry = true;
            let r = bench::run(&cfg);
            let (total_s, tb) = (r.total_sim_seconds, r.total_breakdown);
            let n = r.per_epoch.len().max(1) as f64;
            let comm = tb.comm / n;
            let comp = tb.total_comp() / n;
            let quant = tb.quant / n;
            let total = total_s / n;
            println!(
                "{:<22} {:<9} {:>10.5} {:>10.5} {:>10.5} {:>12.5}",
                spec.name,
                method.name(),
                comm,
                comp,
                quant,
                total
            );
            if method == Method::AdaQp {
                let (v_total, vtb) = vanilla.expect("vanilla ran first");
                let comm_red = 100.0 * (1.0 - tb.comm / vtb.comm.max(1e-12));
                // AdaQP's critical-path computation excludes hidden central
                // compute: compare marginal-only against Vanilla's total.
                let comp_red = 100.0 * (1.0 - tb.marginal_comp / vtb.total_comp().max(1e-12));
                let quant_share = 100.0 * tb.quant / total_s.max(1e-12);
                println!(
                    "{:<22} {:<9} comm -{comm_red:.1}%  critical-path comp -{comp_red:.1}%  quant {quant_share:.1}% of epoch",
                    "", ""
                );
                json.push(serde_json::json!({
                    "dataset": spec.name,
                    "comm_reduction_pct": comm_red,
                    "comp_reduction_pct": comp_red,
                    "quant_share_pct": quant_share,
                    "vanilla_epoch_s": v_total / n,
                    "adaqp_epoch_s": total,
                }));
                if spec.name.contains("products") && !spec.name.contains("amazon") {
                    let dir =
                        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
                    if std::fs::create_dir_all(&dir).is_ok() {
                        let path = dir.join("fig10_products_adaqp_trace.json");
                        let log = r.telemetry.as_ref().expect("telemetry enabled");
                        match log.write_chrome_trace(&path) {
                            Ok(()) => eprintln!(
                                "[saved {} — open in Perfetto or chrome://tracing]",
                                path.display()
                            ),
                            Err(e) => eprintln!("[trace dump failed: {e}]"),
                        }
                    }
                }
            } else {
                vanilla = Some((total_s, tb));
            }
            if let Some(log) = r.telemetry.as_ref() {
                // Measured host wall-clock of the parallel kernels behind
                // the spans (diagnostic; the columns above stay analytic).
                let host: f64 = log
                    .host_kernel_summary()
                    .iter()
                    .map(|s| s.host_seconds)
                    .sum();
                let threads = log
                    .host_kernel_summary()
                    .iter()
                    .filter_map(|s| s.threads)
                    .max()
                    .unwrap_or(1);
                println!(
                    "{:<22} {:<9} host kernel time {:.4}s total ({} worker threads)",
                    "", "", host, threads
                );
            }
        }
        bench::rule(78);
    }
    println!("paper Fig. 10(a): comm time -78.3%..-80.9%, computation time");
    println!("-13.2%..-39.1%, quantization only 5.5%-13.9% of epoch time.");
    println!();

    println!("Fig. 10(b): wall-clock split, AdaQP (training vs assignment)");
    println!(
        "{:<22} {:>14} {:>14} {:>12}",
        "dataset", "training (s)", "assign (s)", "assign share"
    );
    bench::rule(66);
    let mut json_b = Vec::new();
    for spec in bench::datasets() {
        let cfg = bench::experiment(spec.clone(), 2, 2, Method::AdaQp, false, seed);
        let r = bench::run(&cfg);
        let total_s = r.total_sim_seconds;
        let assign = r.total_breakdown.solve;
        let train = total_s - assign;
        let share = 100.0 * assign / total_s.max(1e-12);
        println!(
            "{:<22} {:>14.4} {:>14.4} {:>11.2}%",
            spec.name, train, assign, share
        );
        json_b.push(serde_json::json!({
            "dataset": spec.name,
            "training_s": train,
            "assignment_s": assign,
            "assignment_share_pct": share,
        }));
    }
    bench::rule(66);
    println!("paper Fig. 10(b): assignment averages 5.43% of wall-clock time.");

    // ------------------------------------------------------------------
    // Where does the time go? Critical-path profile of the AdaQP run on
    // the first dataset, re-folded from the charges in its flight log (same
    // run shape as the table above).
    println!();
    let spec = bench::datasets().remove(0);
    let cfg = bench::experiment(spec, 2, 2, Method::AdaQp, false, seed);
    let (_, profile) = bench::run_profiled(&cfg);
    println!("{}", profile.report.summary());
    bench::save_json(
        "fig10_breakdown",
        &serde_json::json!({ "per_epoch": json, "wallclock": json_b }),
    );
}

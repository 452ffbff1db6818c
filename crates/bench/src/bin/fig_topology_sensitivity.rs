//! Topology sensitivity: epoch time vs spine oversubscription ratio on a
//! 64-device (16M-4D) fleet, Vanilla vs AdaQP.
//!
//! The redesigned `comm::Topology` lowers a rack/spine hierarchy into
//! per-pair link charges; this figure sweeps the spine oversubscription
//! ratio (1 = fully provisioned .. 16 = heavily oversubscribed) and records
//! how much of the slowdown AdaQP's quantization hides.

use adaqp::{Method, TopologySpec};
use graph::DatasetSpec;

fn main() {
    let machines = 16usize;
    let devices = machines * 4;
    let dataset = DatasetSpec::tiny().scaled(devices as f64 / 4.0);
    println!("Topology sensitivity: epoch time vs spine oversubscription (16M-4D, racks of 4)");
    println!("(analytic epoch time; the assigner's host-measured solve cost is excluded)");
    println!(
        "{:<10} {:<10} {:>14} {:>18} {:>10}",
        "oversub", "method", "epoch (s)", "throughput (ep/s)", "speedup"
    );
    bench::rule(66);
    let mut json = Vec::new();
    for ratio in [1.0f64, 2.0, 4.0, 8.0, 16.0] {
        let mut vanilla_tp = 0.0;
        for method in [Method::Vanilla, Method::AdaQp] {
            let mut cfg = bench::experiment(dataset.clone(), machines, 4, method, true, 4242);
            // Enough epochs that AdaQP's one-off assigner solve amortizes
            // the way it does over a real training run.
            cfg.training.epochs = 8;
            cfg.training.hidden = 16;
            cfg.training.reassign_period = 8;
            let mut spec = TopologySpec::from_training(&cfg.training);
            spec.machines_per_rack = Some(4);
            cfg.training.topology = Some(spec.oversubscription(ratio));
            let r = bench::run(&cfg);
            let schedule = adaqp::metrics::schedule_for(method, cfg.training.disable_overlap);
            let analytic = bench::analytic_sim_seconds(schedule, &r);
            let epoch_s = analytic / cfg.training.epochs as f64;
            let tp = cfg.training.epochs as f64 / analytic;
            if method == Method::Vanilla {
                vanilla_tp = tp;
            }
            let speedup = if method == Method::Vanilla {
                String::new()
            } else {
                format!("{:.2}x", tp / vanilla_tp.max(1e-12))
            };
            println!(
                "{:<10} {:<10} {:>14.4} {:>18.2} {:>10}",
                format!("{ratio}x"),
                method.name(),
                epoch_s,
                tp,
                speedup
            );
            json.push(serde_json::json!({
                "oversubscription": ratio,
                "machines": machines,
                "devices_per_machine": 4,
                "machines_per_rack": 4,
                "method": method.name(),
                "epoch_seconds": epoch_s,
                "solver_seconds": r.total_breakdown.solve,
                "throughput": tp,
                "speedup": if method == Method::AdaQp { tp / vanilla_tp.max(1e-12) } else { 1.0 },
            }));
        }
        bench::rule(66);
    }

    // Where does the time go on a congested spine? Critical-path profile
    // of the 8x-oversubscribed AdaQP point, from its flight log: the
    // wire/collective-wait split shows how much of the slowdown is the
    // spine versus the rendezvous behind it.
    println!();
    let mut cfg = bench::experiment(dataset, machines, 4, Method::AdaQp, true, 4242);
    cfg.training.epochs = 8;
    cfg.training.hidden = 16;
    cfg.training.reassign_period = 8;
    let mut spec = TopologySpec::from_training(&cfg.training);
    spec.machines_per_rack = Some(4);
    cfg.training.topology = Some(spec.oversubscription(8.0));
    let (_, profile) = bench::run_profiled(&cfg);
    println!("{}", profile.report.summary());
    bench::save_json("fig_topology_sensitivity", &serde_json::Value::Array(json));
}

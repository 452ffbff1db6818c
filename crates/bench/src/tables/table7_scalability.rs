//! Table 7: scalability — throughput on a 24-device, 6-machine cluster
//! (6M-4D) for the two largest datasets, GraphSAGE, Vanilla vs AdaQP.
//!
//! Extension (discrete-event cluster core): a weak-scaling sweep at 64,
//! 256 and 1024 devices on a hierarchical rack/spine topology. Every fleet
//! runs inside one process — the event loop advances device state machines
//! over the simulated clock, so 1024 devices cost memory, not threads.

use super::Files;
use crate::{Runs, Setup};
use adaqp::{ExperimentConfig, Method, TopologySpec};
use graph::DatasetSpec;

/// The weak-scaling point on `machines` x 4 devices: a tiny stand-in grown
/// to ~75 nodes per device, racks of 8 machines on a 4x-oversubscribed
/// spine.
fn weak_scaling(setup: &Setup, machines: usize, method: Method) -> ExperimentConfig {
    let dataset = DatasetSpec::tiny().scaled(machines as f64);
    let mut cfg = setup.experiment(dataset, machines, 4, method, true, 4242);
    cfg.training.epochs = 2;
    cfg.training.hidden = 8;
    cfg.training.reassign_period = 2;
    let mut spec = TopologySpec::from_training(&cfg.training);
    spec.machines_per_rack = Some(8);
    cfg.training.topology = Some(spec.oversubscription(4.0));
    cfg
}

/// Prints Table 7 and its weak-scaling extension and returns their rows.
pub fn run(runs: &mut Runs) -> Files {
    let setup = runs.setup;
    println!("Table 7: training throughput on the 6M-4D partition (24 devices)");
    println!(
        "{:<22} {:<10} {:>18} {:>10}",
        "dataset", "method", "throughput (ep/s)", "speedup"
    );
    crate::rule(64);
    let paper = [("ogbn-products-sim", 1.79), ("amazon-products-sim", 2.34)];
    let mut json = Vec::new();
    for spec in setup.datasets() {
        if !paper.iter().any(|(n, _)| *n == spec.name) {
            continue;
        }
        let mut speedup = crate::Speedup::default();
        for method in [Method::Vanilla, Method::AdaQp] {
            let rs = runs.seeded(|seed| {
                let mut cfg = setup.experiment(spec.clone(), 6, 4, method, true, seed);
                // Paper's 6M-4D fleet: 2 V100 machines + 4 A100 machines
                // (A100s run ~1.7x faster).
                cfg.training.device_scales =
                    Some((0..24).map(|r| if r < 8 { 1.0 } else { 1.7 }).collect());
                cfg
            });
            let (tp, _) = crate::mean_std(&rs, |r| r.throughput);
            let (shown, ratio) = speedup.of(method, tp);
            let (dataset, name) = (&spec.name, method.name());
            println!("{dataset:<22} {name:<10} {tp:>18.2} {shown:>10}");
            json.push(
                serde_json::json!({"dataset": dataset, "method": name, "throughput": tp,
                "speedup": ratio}),
            );
        }
        let expected = paper
            .iter()
            .find(|(n, _)| *n == spec.name)
            .map_or(f64::NAN, |p| p.1);
        println!("{:<22} (paper speedup at 6M-4D: {expected:.2}x)", "");
        crate::rule(64);
    }

    // ------------------------------------------------------------------
    // Extension: 64 / 256 / 1024 devices on the discrete-event core.
    // Weak scaling: the synthetic graph grows with the fleet so every
    // device keeps ~75 nodes of local work; racks of 8 machines hang off a
    // 4x-oversubscribed spine.
    println!();
    println!("Table 7 extension: weak scaling on the event core (racks of 8, 4x oversub)");
    println!("(epoch time is analytic — the assigner's host-measured solve cost is the");
    println!(" one non-deterministic input and is listed in its own column)");
    println!(
        "{:<10} {:<10} {:<10} {:>12} {:>12} {:>14} {:>10}",
        "devices", "cluster", "method", "epoch (s)", "solver (s)", "tput (ep/s)", "speedup"
    );
    crate::rule(86);
    for machines in [16usize, 64, 256] {
        let devices = machines * 4;
        let mut speedup = crate::Speedup::default();
        for method in [Method::Vanilla, Method::AdaQp] {
            let cfg = weak_scaling(&setup, machines, method);
            let (epoch_s, tp, solve_s) = runs.analytic(&cfg);
            let (shown, ratio) = speedup.of(method, tp);
            let (cluster, name) = (format!("{machines}M-4D"), method.name());
            println!(
                "{devices:<10} {cluster:<10} {name:<10} {epoch_s:>12.4} {solve_s:>12.4} \
                 {tp:>14.2} {shown:>10}"
            );
            json.push(
                serde_json::json!({"section": "event_core_weak_scaling", "devices": devices,
                "machines": machines, "devices_per_machine": 4, "machines_per_rack": 8,
                "oversubscription": 4.0, "nodes": cfg.dataset.num_nodes, "method": name,
                "epoch_seconds": epoch_s, "solver_seconds": solve_s, "throughput": tp,
                "speedup": ratio}),
            );
        }
    }
    crate::rule(86);

    // Where does the time go at fleet scale? Critical-path profile of the
    // 64-device AdaQP weak-scaling point, from its flight log.
    println!();
    let cfg = weak_scaling(&setup, 16, Method::AdaQp);
    println!("{}", runs.critical_path(&cfg));
    vec![("table7_scalability", serde_json::Value::Array(json))]
}

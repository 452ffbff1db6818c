//! Topology sensitivity: epoch time vs spine oversubscription ratio on a
//! 64-device (16M-4D) fleet, Vanilla vs AdaQP.
//!
//! The redesigned `comm::Topology` lowers a rack/spine hierarchy into
//! per-pair link charges; this figure sweeps the spine oversubscription
//! ratio (1 = fully provisioned .. 16 = heavily oversubscribed) and records
//! how much of the slowdown AdaQP's quantization hides.

use super::Files;
use crate::{Runs, Setup};
use adaqp::{ExperimentConfig, Method, TopologySpec};
use graph::DatasetSpec;

const MACHINES: usize = 16;

/// 16M-4D in racks of 4 machines, with `ratio` spine oversubscription.
fn oversubscribed(setup: &Setup, method: Method, ratio: f64) -> ExperimentConfig {
    let dataset = DatasetSpec::tiny().scaled(MACHINES as f64);
    let mut cfg = setup.experiment(dataset, MACHINES, 4, method, true, 4242);
    // Enough epochs that AdaQP's one-off assigner solve amortizes the way
    // it does over a real training run.
    cfg.training.epochs = 8;
    cfg.training.hidden = 16;
    cfg.training.reassign_period = 8;
    let mut spec = TopologySpec::from_training(&cfg.training);
    spec.machines_per_rack = Some(4);
    cfg.training.topology = Some(spec.oversubscription(ratio));
    cfg
}

/// Prints the oversubscription sweep and returns its rows.
pub fn run(runs: &mut Runs) -> Files {
    let setup = runs.setup;
    println!("Topology sensitivity: epoch time vs spine oversubscription (16M-4D, racks of 4)");
    println!("(analytic epoch time; the assigner's host-measured solve cost is excluded)");
    println!(
        "{:<10} {:<10} {:>14} {:>18} {:>10}",
        "oversub", "method", "epoch (s)", "throughput (ep/s)", "speedup"
    );
    crate::rule(66);
    let mut json = Vec::new();
    for ratio in [1.0f64, 2.0, 4.0, 8.0, 16.0] {
        let mut speedup = crate::Speedup::default();
        for method in [Method::Vanilla, Method::AdaQp] {
            let cfg = oversubscribed(&setup, method, ratio);
            let (epoch_s, tp, solve_s) = runs.analytic(&cfg);
            let (shown, gain) = speedup.of(method, tp);
            let (oversub, name) = (format!("{ratio}x"), method.name());
            println!("{oversub:<10} {name:<10} {epoch_s:>14.4} {tp:>18.2} {shown:>10}");
            json.push(
                serde_json::json!({"oversubscription": ratio, "machines": MACHINES,
                "devices_per_machine": 4, "machines_per_rack": 4, "method": name,
                "epoch_seconds": epoch_s, "solver_seconds": solve_s,
                "throughput": tp, "speedup": gain}),
            );
        }
        crate::rule(66);
    }

    // Where does the time go on a congested spine? Critical-path profile
    // of the 8x-oversubscribed AdaQP point, from its flight log: the
    // wire/collective-wait split shows how much of the slowdown is the
    // spine versus the rendezvous behind it.
    println!();
    let cfg = oversubscribed(&setup, Method::AdaQp, 8.0);
    println!("{}", runs.critical_path(&cfg));
    vec![("fig_topology_sensitivity", serde_json::Value::Array(json))]
}

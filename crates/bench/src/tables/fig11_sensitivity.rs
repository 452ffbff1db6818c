//! Fig. 11: sensitivity of AdaQP to its three hyper-parameters — message
//! group size, the scalarization weight lambda, and the bit-width
//! re-assignment period — on GCN / ogbn-products / 2M-4D, as in the paper.
//! Each knob's default (group size 64, lambda 0.5, period 10) is Table 4's
//! products 2M-4D GCN AdaQP run.

use super::Files;
use crate::Runs;
use adaqp::{Method, RunResult, TrainingConfig};
use std::rc::Rc;

/// Prints Fig. 11's three sweeps and returns their points.
pub fn run(runs: &mut Runs) -> Files {
    let setup = runs.setup;
    let spec = setup.dataset("ogbn-products-sim");
    let seed = setup.seeds()[0];
    let mut run_with = |mutate: &dyn Fn(&mut TrainingConfig)| -> Rc<crate::Run> {
        let mut cfg = setup.experiment(spec.clone(), 2, 4, Method::AdaQp, false, seed);
        mutate(&mut cfg.training);
        runs.run(&cfg)
    };
    let point = |r: &RunResult| (r.best_val * 100.0, r.throughput, r.total_breakdown.solve);
    let mut json = Vec::new();

    println!("Fig. 11: AdaQP sensitivity (GCN, {}, 2M-4D)", spec.name);
    println!();
    println!("(a) message group size");
    println!(
        "{:>10} {:>12} {:>16} {:>16}",
        "group", "val acc (%)", "throughput", "assign time (s)"
    );
    for group in [16usize, 64, 256, 1024] {
        let (acc, tp, solve) = point(&run_with(&|t| t.group_size = group).result);
        println!("{group:>10} {acc:>12.2} {tp:>16.2} {solve:>16.4}");
        json.push(serde_json::json!({"knob": "group_size", "value": group,
            "val_acc": acc, "throughput": tp, "assign_s": solve}));
    }
    println!("paper: smallest group size gives the best accuracy but much");
    println!("larger assignment overhead.");
    println!();

    println!("(b) lambda (variance-vs-time weight)");
    println!(
        "{:>10} {:>12} {:>16} {:>14}",
        "lambda", "val acc (%)", "throughput", "MB moved"
    );
    for lambda in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let r = &run_with(&|t| t.lambda = lambda).result;
        let (acc, tp, mb) = (r.best_val * 100.0, r.throughput, r.total_bytes as f64 / 1e6);
        println!("{lambda:>10.2} {acc:>12.2} {tp:>16.2} {mb:>14.2}");
        json.push(serde_json::json!({"knob": "lambda", "value": lambda,
            "val_acc": acc, "throughput": tp, "mb_moved": mb}));
    }
    println!("paper: the extremes (pure-variance or pure-time objective) do");
    println!("not give the best accuracy; lambda = 0.5 is the default.");
    println!();

    println!("(c) re-assignment period");
    println!(
        "{:>10} {:>12} {:>16} {:>16}",
        "period", "val acc (%)", "throughput", "assign time (s)"
    );
    for period in [5usize, 10, 25, 50] {
        let (acc, tp, solve) = point(&run_with(&|t| t.reassign_period = period).result);
        println!("{period:>10} {acc:>12.2} {tp:>16.2} {solve:>16.4}");
        json.push(
            serde_json::json!({"knob": "reassign_period", "value": period,
            "val_acc": acc, "throughput": tp, "assign_s": solve}),
        );
    }
    println!("paper: a moderate period balances staleness of traced ranges");
    println!("against assignment overhead.");
    vec![("fig11_sensitivity", serde_json::Value::Array(json))]
}

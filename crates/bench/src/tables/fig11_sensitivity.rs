//! Fig. 11: sensitivity of AdaQP to its three hyper-parameters — message
//! group size, the scalarization weight lambda, and the bit-width
//! re-assignment period — on GCN / ogbn-products / 2M-4D, as in the paper.
//! Each knob's default (group size 64, lambda 0.5, period 10) is Table 4's
//! products 2M-4D GCN AdaQP run.

use super::Files;
use crate::Runs;
use adaqp::{Method, RunResult, TrainingConfig};
use serde_json::{json, Value};

/// A sweep's last column: its JSON key, printed width and precision, and
/// how it reads a run.
type Last = (&'static str, usize, usize, fn(&RunResult) -> f64);

const ASSIGN: Last = ("assign_s", 16, 4, |r| r.total_breakdown.solve);
const MOVED: Last = ("mb_moved", 14, 2, |r| r.total_bytes as f64 / 1e6);

/// Prints Fig. 11's three sweeps and returns their points.
pub fn run(runs: &mut Runs) -> Files {
    let setup = runs.setup;
    let spec = setup.dataset("ogbn-products-sim");
    let seed = setup.seeds()[0];
    let mut json = Vec::new();
    // The row writer: Table 4's run with `set` applied, printed after
    // `shown` and recorded as a point of `knob`'s sweep.
    let mut row = |knob: &str,
                   value: Value,
                   shown: String,
                   set: &dyn Fn(&mut TrainingConfig),
                   (key, width, precision, read): Last| {
        let mut cfg = setup.experiment(spec.clone(), 2, 4, Method::AdaQp, false, seed);
        set(&mut cfg.training);
        let r = &runs.run(&cfg).result;
        let (acc, tp, x) = (r.best_val * 100.0, r.throughput, read(r));
        println!("{shown:>10} {acc:>12.2} {tp:>16.2} {x:>width$.precision$}");
        json.push(json!({"knob": knob, "value": value, "val_acc": acc, "throughput": tp, key: x}));
    };

    println!("Fig. 11: AdaQP sensitivity (GCN, {}, 2M-4D)", spec.name);
    println!();
    println!("(a) message group size");
    println!(
        "{:>10} {:>12} {:>16} {:>16}",
        "group", "val acc (%)", "throughput", "assign time (s)"
    );
    for group in [16usize, 64, 256, 1024] {
        let set = |t: &mut TrainingConfig| t.group_size = group;
        row("group_size", json!(group), group.to_string(), &set, ASSIGN);
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
        let set = |t: &mut TrainingConfig| t.lambda = lambda;
        row("lambda", json!(lambda), format!("{lambda:.2}"), &set, MOVED);
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
        let set = |t: &mut TrainingConfig| t.reassign_period = period;
        row(
            "reassign_period",
            json!(period),
            period.to_string(),
            &set,
            ASSIGN,
        );
    }
    println!("paper: a moderate period balances staleness of traced ranges");
    println!("against assignment overhead.");
    vec![("fig11_sensitivity", Value::Array(json))]
}

//! Table 4: the headline comparison — accuracy and training throughput of
//! Vanilla / PipeGCN / SANCUS / AdaQP across datasets, partition settings and
//! models. (PipeGCN implements GraphSAGE only and SANCUS GCN only, exactly
//! as in the paper.)
//!
//! Table 5 reads the same runs through [`blocks`].

use super::Files;
use crate::{Run, Runs, Setup};
use adaqp::Method;
use graph::DatasetSpec;
use std::rc::Rc;

/// One (dataset, setting, model) block of Table 4: 2 machines of `dpm`
/// devices each.
pub struct Block {
    spec: DatasetSpec,
    dpm: usize,
    use_sage: bool,
}

impl Block {
    /// `(dataset, setting, model)` as the tables print them.
    pub fn labels(&self) -> (String, String, &'static str) {
        let model = if self.use_sage { "GraphSAGE" } else { "GCN" };
        let setting = format!("2M-{}D", self.dpm);
        (self.spec.name.clone(), setting, model)
    }

    /// The block's methods, Vanilla (the speedup baseline) first.
    pub fn methods(&self) -> [Method; 3] {
        let other = if self.use_sage {
            Method::PipeGcn
        } else {
            Method::Sancus
        };
        [Method::Vanilla, other, Method::AdaQp]
    }

    /// `method`'s runs in this block, one per seed.
    pub fn runs(&self, runs: &mut Runs, method: Method) -> Vec<Rc<Run>> {
        let (setup, b) = (runs.setup, self);
        runs.seeded(|s| setup.experiment(b.spec.clone(), 2, b.dpm, method, b.use_sage, s))
    }
}

/// Table 4's blocks in print order: per dataset, two partition settings,
/// each with GCN then GraphSAGE.
pub fn blocks(setup: &Setup) -> Vec<Block> {
    let mut blocks = Vec::new();
    for spec in setup.datasets() {
        let small = spec.name.starts_with("reddit") || spec.name.starts_with("yelp");
        for dpm in if small { [1, 2] } else { [2, 4] } {
            for use_sage in [false, true] {
                let spec = spec.clone();
                blocks.push(Block {
                    spec,
                    dpm,
                    use_sage,
                });
            }
        }
    }
    blocks
}

/// Prints Table 4 and returns its rows.
pub fn run(runs: &mut Runs) -> Files {
    let setup = runs.setup;
    let (seeds, epochs, scale) = (setup.seeds().len(), setup.epochs, setup.scale);
    println!("Table 4: accuracy & throughput ({seeds} seed(s), {epochs} epochs, scale {scale})");
    println!(
        "{:<22} {:<7} {:<10} {:<14} {:>14} {:>18} {:>14}",
        "dataset",
        "setting",
        "model",
        "method",
        "accuracy (%)",
        "throughput (ep/s)",
        "wallclock (s)"
    );
    crate::rule(104);
    let mut json = Vec::new();
    for block in blocks(&setup) {
        let (dataset, setting, model) = block.labels();
        let mut speedup = crate::Speedup::default();
        for method in block.methods() {
            let rs = block.runs(runs, method);
            let (acc_m, acc_s) = crate::mean_std(&rs, |r| r.best_val * 100.0);
            let (tp_m, _) = crate::mean_std(&rs, |r| r.throughput);
            let (wall_m, _) = crate::mean_std(&rs, |r| r.total_sim_seconds);
            let (shown, ratio) = speedup.of(method, tp_m);
            let shown = if shown.is_empty() {
                shown
            } else {
                format!(" ({shown})")
            };
            let name = method.name();
            println!(
                "{dataset:<22} {setting:<7} {model:<10} {name:<14} {acc_m:>7.2}+-{acc_s:<5.2} \
                 {tp_m:>10.2}{shown:<8} {wall_m:>14.3}"
            );
            json.push(
                serde_json::json!({"dataset": dataset, "setting": setting, "model": model,
                "method": name, "accuracy_mean": acc_m, "accuracy_std": acc_s, "throughput": tp_m,
                "speedup_vs_vanilla": ratio, "wallclock_s": wall_m}),
            );
        }
        if block.use_sage {
            crate::rule(104);
        }
    }
    println!("paper shape: AdaQP is 2.19-3.01x over Vanilla with -0.30%..+0.19%");
    println!("accuracy; SANCUS often slower than Vanilla; PipeGCN in between.");
    vec![("table4_main", serde_json::Value::Array(json))]
}

//! Fig. 9 / Fig. 12: epoch -> validation-accuracy curves for every method.
//! AdaQP's curve should coincide with Vanilla's; staleness-based methods lag.
//! Every curve is a Table 4 run (2M-2D, the first seed).

use super::Files;
use crate::Runs;
use adaqp::Method;

/// Prints Fig. 9's curves and returns them.
pub fn run(runs: &mut Runs) -> Files {
    let setup = runs.setup;
    let seed = setup.seeds()[0];
    println!("Fig. 9/12: epoch-to-validation-accuracy curves (GCN + GraphSAGE methods)");
    let mut json = Vec::new();
    for spec in setup.datasets() {
        let mut curves: Vec<(String, Vec<f64>)> = Vec::new();
        for (method, use_sage) in [
            (Method::Vanilla, false),
            (Method::Sancus, false),
            (Method::AdaQp, false),
            (Method::PipeGcn, true),
        ] {
            let cfg = setup.experiment(spec.clone(), 2, 2, method, use_sage, seed);
            let r = &runs.run(&cfg).result;
            let curve: Vec<f64> = r.per_epoch.iter().map(|e| e.val_score * 100.0).collect();
            let label = format!("{}{}", method.name(), if use_sage { " (SAGE)" } else { "" });
            json.push(
                serde_json::json!({"dataset": spec.name, "method": label, "val_acc_curve": curve}),
            );
            curves.push((label, curve));
        }
        println!();
        println!("== {} (2M-2D) ==", spec.name);
        print!("{:<7}", "epoch");
        for (label, _) in &curves {
            print!("{label:>18}");
        }
        println!();
        let epochs = curves[0].1.len();
        let step = (epochs / 10).max(1);
        for e in (0..epochs).step_by(step).chain([epochs - 1]) {
            print!("{e:<7}");
            for (_, c) in &curves {
                print!("{:>17.2}%", c[e]);
            }
            println!();
        }
        // Quantify curve agreement with Vanilla (mean |gap| over epochs).
        let vanilla = &curves[0].1;
        for (label, c) in curves.iter().skip(1) {
            let gap = vanilla
                .iter()
                .zip(c)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>();
            let gap = gap / epochs as f64;
            println!("   mean |val-acc gap| vs Vanilla for {label}: {gap:.2} pts");
        }
    }
    println!();
    println!("paper shape: AdaQP's curve coincides with Vanilla's; PipeGCN and");
    println!("SANCUS converge more slowly (staleness).");
    vec![("fig9_convergence", serde_json::Value::Array(json))]
}

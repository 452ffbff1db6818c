//! Table 5 / Table 9: end-to-end wall-clock training time (AdaQP's includes
//! bit-width assignment overhead), read off Table 4's runs.

use super::table4_main::blocks;
use super::Files;
use crate::Runs;

/// Prints Table 5, marking each block's fastest method, and returns its rows.
pub fn run(runs: &mut Runs) -> Files {
    println!("Table 5/9: wall-clock training time (s); best per block wins");
    println!(
        "{:<22} {:<7} {:<10} {:<14} {:>15}",
        "dataset", "setting", "model", "method", "wall-clock (s)"
    );
    crate::rule(72);
    let mut json = Vec::new();
    for block in blocks(&runs.setup) {
        let (dataset, setting, model) = block.labels();
        let mut wall = |m| crate::mean_std(&block.runs(runs, m), |r| r.total_sim_seconds).0;
        let walls = block.methods().map(|m| (m, wall(m)));
        let best = walls.iter().map(|w| w.1).fold(f64::INFINITY, f64::min);
        for (method, wall) in walls {
            let (name, is_best) = (method.name(), (wall - best).abs() < 1e-12);
            let marker = if is_best { " <= best" } else { "" };
            println!("{dataset:<22} {setting:<7} {model:<10} {name:<14} {wall:>15.3}{marker}");
            json.push(
                serde_json::json!({"dataset": dataset, "setting": setting, "model": model,
                "method": name, "wallclock_s": wall, "is_best": is_best}),
            );
        }
        crate::rule(72);
    }
    println!("paper: AdaQP has the shortest wall-clock in 14/16 blocks");
    println!("(PipeGCN wins the two Reddit GraphSAGE blocks).");
    vec![("table5_wallclock", serde_json::Value::Array(json))]
}

//! Table 5 / Table 9: end-to-end wall-clock training time (AdaQP's includes
//! bit-width assignment overhead). Reuses `results/table4_main.json` when
//! present; otherwise reruns the grid's wall-clock-relevant subset.

use adaqp::Method;

fn from_table4() -> Option<Vec<serde_json::Value>> {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/table4_main.json");
    let raw = std::fs::read_to_string(path).ok()?;
    serde_json::from_str::<Vec<serde_json::Value>>(&raw).ok()
}

fn main() {
    println!("Table 5/9: wall-clock training time (s); best per block wins");
    println!(
        "{:<22} {:<7} {:<10} {:<14} {:>15}",
        "dataset", "setting", "model", "method", "wall-clock (s)"
    );
    bench::rule(72);
    let rows = if let Some(rows) = from_table4() {
        eprintln!("[reusing results/table4_main.json]");
        rows
    } else {
        eprintln!("[table4 results not found; running a reduced grid]");
        let mut rows = Vec::new();
        for spec in bench::datasets() {
            let (machines, dpm) = (2usize, 2usize);
            for use_sage in [false, true] {
                let methods: Vec<Method> = if use_sage {
                    vec![Method::Vanilla, Method::PipeGcn, Method::AdaQp]
                } else {
                    vec![Method::Vanilla, Method::Sancus, Method::AdaQp]
                };
                for method in methods {
                    let cfg = bench::experiment(
                        spec.clone(),
                        machines,
                        dpm,
                        method,
                        use_sage,
                        bench::seeds()[0],
                    );
                    let wall = bench::run(&cfg).total_sim_seconds;
                    rows.push(serde_json::json!({
                        "dataset": spec.name,
                        "setting": format!("{machines}M-{dpm}D"),
                        "model": if use_sage { "GraphSAGE" } else { "GCN" },
                        "method": method.name(),
                        "wallclock_s": wall,
                    }));
                }
            }
        }
        rows
    };

    // Group rows into (dataset, setting, model) blocks and mark the best.
    let mut blocks: Vec<(String, Vec<&serde_json::Value>)> = Vec::new();
    for row in &rows {
        let key = format!(
            "{}|{}|{}",
            row["dataset"].as_str().unwrap_or(""),
            row["setting"].as_str().unwrap_or(""),
            row["model"].as_str().unwrap_or("")
        );
        match blocks.last_mut() {
            Some((k, v)) if *k == key => v.push(row),
            _ => blocks.push((key, vec![row])),
        }
    }
    let mut json = Vec::new();
    for (_, block) in &blocks {
        let best = block
            .iter()
            .map(|r| r["wallclock_s"].as_f64().unwrap_or(f64::INFINITY))
            .fold(f64::INFINITY, f64::min);
        for r in block {
            let wall = r["wallclock_s"].as_f64().unwrap_or(f64::NAN);
            let marker = if (wall - best).abs() < 1e-12 {
                " <= best"
            } else {
                ""
            };
            println!(
                "{:<22} {:<7} {:<10} {:<14} {:>15.3}{marker}",
                r["dataset"].as_str().unwrap_or(""),
                r["setting"].as_str().unwrap_or(""),
                r["model"].as_str().unwrap_or(""),
                r["method"].as_str().unwrap_or(""),
                wall
            );
            json.push(serde_json::json!({
                "dataset": r["dataset"],
                "setting": r["setting"],
                "model": r["model"],
                "method": r["method"],
                "wallclock_s": wall,
                "is_best": (wall - best).abs() < 1e-12,
            }));
        }
        bench::rule(72);
    }
    println!("paper: AdaQP has the shortest wall-clock in 14/16 blocks");
    println!("(PipeGCN wins the two Reddit GraphSAGE blocks).");
    bench::save_json("table5_wallclock", &serde_json::Value::Array(json));
}

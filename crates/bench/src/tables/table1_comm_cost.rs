//! Table 1: communication cost and remote-neighbor ratio of Vanilla
//! distributed full-graph training.
//!
//! Paper values (for reference):
//!
//! | Dataset        | Setting | Comm cost | Remote-neighbor ratio |
//! |----------------|---------|-----------|-----------------------|
//! | Reddit         | 2M-1D   | 66.78%    | 41.54%                |
//! | Reddit         | 2M-2D   | 75.20%    | 62.60%                |
//! | ogbn-products  | 2M-2D   | 75.59%    | 31.09%                |
//! | ogbn-products  | 2M-4D   | 76.67%    | 40.52%                |
//! | AmazonProducts | 2M-2D   | 75.58%    | 39.75%                |
//! | AmazonProducts | 2M-4D   | 78.22%    | 53.00%                |

use super::Files;
use crate::Runs;
use adaqp::Method;
use graph::stats::remote_neighbor_stats;

/// Prints Table 1 and returns its rows.
pub fn run(runs: &mut Runs) -> Files {
    let setup = runs.setup;
    let paper: &[(&str, &str, f64, f64)] = &[
        ("reddit-sim", "2M-1D", 66.78, 41.54),
        ("reddit-sim", "2M-2D", 75.20, 62.60),
        ("ogbn-products-sim", "2M-2D", 75.59, 31.09),
        ("ogbn-products-sim", "2M-4D", 76.67, 40.52),
        ("amazon-products-sim", "2M-2D", 75.58, 39.75),
        ("amazon-products-sim", "2M-4D", 78.22, 53.00),
    ];
    println!("Table 1: communication overhead in Vanilla");
    println!(
        "{:<22} {:<7} {:>11} {:>11} {:>13} {:>13}",
        "dataset", "setting", "comm(ours)", "comm(paper)", "remote(ours)", "remote(paper)"
    );
    crate::rule(84);
    let mut results = Vec::new();
    // Table 1 only runs a handful of epochs, so it can afford the full
    // stand-in scale; remote-neighbor ratios are strongly scale-dependent
    // (tiny partitions make every neighbor remote).
    for spec in graph::DatasetSpec::paper_suite() {
        for (machines, dpm) in [(2usize, 1usize), (2, 2), (2, 4)] {
            // Paper reports a subset; we compute all and flag the paper rows.
            let seed = setup.seeds()[0];
            let mut cfg =
                setup.experiment(spec.clone(), machines, dpm, Method::Vanilla, false, seed);
            cfg.training.epochs = 5;
            let comm_pct = runs.run(&cfg).result.comm_fraction() * 100.0;

            let ds = spec.generate(cfg.seed);
            let part = adaqp::partition_graph(&ds.graph, machines * dpm, cfg.seed)
                .expect("the run above partitioned this graph");
            let stats = remote_neighbor_stats(&ds.graph, &part);
            let remote_pct = stats.remote_neighbor_ratio * 100.0;

            let reference = paper
                .iter()
                .find(|(d, s, _, _)| *d == spec.name && *s == cfg.partition_label());
            let (name, setting) = (&spec.name, cfg.partition_label());
            let (paper_comm, paper_remote) = (reference.map(|r| r.2), reference.map(|r| r.3));
            let pct = |p: Option<f64>| p.map_or("-".into(), |p| format!("{p:.2}%"));
            let (pc, pr) = (pct(paper_comm), pct(paper_remote));
            println!(
                "{name:<22} {setting:<7} {comm_pct:>10.2}% {pc:>10} {remote_pct:>12.2}% {pr:>13}"
            );
            results.push(serde_json::json!({"dataset": name, "setting": setting,
                "comm_cost_pct": comm_pct, "remote_neighbor_ratio_pct": remote_pct,
                "marginal_node_fraction_pct": stats.marginal_node_fraction * 100.0,
                "paper_comm_cost_pct": paper_comm, "paper_remote_ratio_pct": paper_remote}));
        }
    }
    crate::rule(84);
    println!("shape check: comm dominates epoch time everywhere, and both the");
    println!("comm share and the remote-neighbor ratio grow with the partition count.");
    vec![("table1_comm_cost", serde_json::Value::Array(results))]
}

//! Table 3: dataset statistics — the synthetic stand-ins next to the
//! originals they substitute for.

use super::Files;
use crate::Runs;

/// Prints Table 3 and returns its stand-in rows.
pub fn run(runs: &mut Runs) -> Files {
    // Paper's Table 3 (original datasets).
    let paper: &[(&str, u64, u64, u32, u32, &str)] = &[
        ("Reddit", 232_965, 114_615_892, 602, 41, "3.53GB"),
        ("Yelp", 716_847, 6_977_410, 300, 100, "2.10GB"),
        ("ogbn-products", 2_449_029, 61_859_140, 100, 47, "1.38GB"),
        ("AmazonProducts", 1_569_960, 264_339_468, 200, 107, "2.40GB"),
    ];
    println!("Table 3: graph datasets (paper originals vs generated stand-ins)");
    println!(
        "{:<22} {:>10} {:>12} {:>7} {:>8} {:>10} {:>10}",
        "dataset", "#nodes", "#edges", "#feat", "#classes", "size", "avg deg"
    );
    crate::rule(86);
    let mut json = Vec::new();
    for ((pname, pn, pe, pf, pc, psize), spec) in paper.iter().zip(runs.setup.datasets()) {
        let deg = *pe as f64 / *pn as f64;
        println!("{pname:<22} {pn:>10} {pe:>12} {pf:>7} {pc:>8} {psize:>10} {deg:>10.1}");
        let ds = spec.generate(runs.setup.seeds()[0]);
        let name = format!("  -> {}", spec.name);
        let (nodes, edges, feat) = (
            ds.num_nodes(),
            ds.graph.num_directed_edges(),
            ds.feature_dim(),
        );
        let (classes, mb, deg) = (
            ds.num_classes,
            ds.payload_bytes() as f64 / 1e6,
            ds.graph.avg_degree(),
        );
        println!(
            "{name:<22} {nodes:>10} {edges:>12} {feat:>7} {classes:>8} {mb:>9.1}MB {deg:>10.1}"
        );
        json.push(
            serde_json::json!({"paper_name": pname, "standin_name": spec.name,
            "nodes": nodes, "directed_edges": edges, "features": feat, "classes": classes,
            "payload_mb": mb, "avg_degree": deg}),
        );
    }
    crate::rule(86);
    println!("shape preserved: Reddit densest; products sparsest & most nodes;");
    println!("Yelp/Amazon multi-label; Reddit has the widest features.");
    vec![("table3_datasets", serde_json::Value::Array(json))]
}

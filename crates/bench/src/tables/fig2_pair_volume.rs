#![allow(clippy::needless_range_loop)]
//! Fig. 2: data size transferred across each device pair in the GCN's first
//! layer, AmazonProducts with 4 partitions — the per-pair imbalance that
//! motivates the minimax term of the bit-width assignment (Eqn. 10).

use super::Files;
use crate::Runs;
use gnn::ConvKind;
use graph::stats::BoundaryInfo;

/// Prints Fig. 2's volume matrix and returns its cells.
pub fn run(runs: &mut Runs) -> Files {
    let spec = runs.setup.dataset("amazon-products-sim");
    let seed = runs.setup.seeds()[0];
    let ds = spec.generate(seed);
    let k = 4;
    let part = adaqp::partition_graph(&ds.graph, k, seed).expect("4 parts fit the graph");
    // Layer-1 messages carry raw features: the GCN aggregation graph
    // includes self loops, matching the training-time boundary sets.
    let parts = adaqp::build_partitions(&ds, &part, ConvKind::Gcn);
    let dim = ds.feature_dim();

    let name = &spec.name;
    println!("Fig. 2: layer-1 fp32 message volume per directed device pair (MB), {name} k={k}");
    print!("{:>8}", "src\\dst");
    for q in 0..k {
        print!("{q:>10}");
    }
    println!();
    let mut volumes = vec![vec![0.0f64; k]; k];
    let mut flat = Vec::new();
    for p in &parts {
        for q in 0..k {
            let mb = p.send_sets[q].len() as f64 * dim as f64 * 4.0 / 1e6;
            volumes[p.rank][q] = mb;
            if q != p.rank {
                flat.push(mb);
            }
        }
    }
    for (p, row) in volumes.iter().enumerate() {
        print!("{p:>8}");
        for v in row {
            print!("{v:>10.3}");
        }
        println!();
    }
    let max = flat.iter().copied().fold(0.0, f64::max);
    let min = flat.iter().copied().fold(f64::INFINITY, f64::min);
    crate::rule(60);
    let imbalance = max / min.max(1e-12);
    println!("imbalance: max/min pair volume = {imbalance:.2}x (paper's Fig. 2 shows a");
    println!("similar several-fold spread, which creates straggler rounds)");

    // Cross-check against the raw boundary structure.
    let b = BoundaryInfo::build(&ds.graph.with_self_loops(), &part);
    let mut json = Vec::new();
    for p in 0..k {
        for q in 0..k {
            let (mb, messages) = (volumes[p][q], b.count(p, q));
            json.push(serde_json::json!({"src": p, "dst": q, "mb": mb, "messages": messages}));
        }
    }
    vec![("fig2_pair_volume", serde_json::Value::Array(json))]
}

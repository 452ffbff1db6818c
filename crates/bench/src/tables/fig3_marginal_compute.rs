//! Fig. 3: when central-node computation is hidden inside communication, the
//! computation left on the critical path is only the marginal nodes' — a
//! 23-55% per-device reduction in the paper (ogbn-products, 8 partitions).

use super::Files;
use crate::Runs;
use gnn::ConvKind;

/// Prints Fig. 3 and returns its per-device rows.
pub fn run(runs: &mut Runs) -> Files {
    let spec = runs.setup.dataset("ogbn-products-sim");
    let seed = runs.setup.seeds()[0];
    let ds = spec.generate(seed);
    let k = 8;
    let partition = adaqp::partition_graph(&ds.graph, k, seed).expect("8 parts fit the graph");
    let parts = adaqp::build_partitions(&ds, &partition, ConvKind::Gcn);
    let cfg = runs.setup.training_defaults();
    let dims = cfg.dims(ds.feature_dim(), ds.num_classes);

    println!("Fig. 3: per-device computation time, all nodes vs marginal nodes only");
    println!(
        "{:<8} {:>12} {:>14} {:>11}",
        "device", "all (ms)", "marginal (ms)", "reduction"
    );
    crate::rule(50);
    let mut json = Vec::new();
    for p in &parts {
        // Analytic op counts (load-independent, same model as the trainer).
        let mut all_cpu = 0.0f64;
        let mut marg_cpu = 0.0f64;
        let local: Vec<u32> = (0..p.num_local() as u32).collect();
        for l in 0..dims.len() - 1 {
            let din = dims[l] as f64;
            let dout = dims[l + 1] as f64;
            all_cpu += p.agg.entries_for(&local) as f64 * din * 2.0
                + p.num_local() as f64 * din * dout * 2.0;
            marg_cpu += p.agg.entries_for(&p.marginal) as f64 * din * 2.0
                + p.marginal.len() as f64 * din * dout * 2.0;
        }
        // Convert ops to milliseconds at the base CPU rate (the ratio is
        // what matters for the figure).
        let all_cpu = all_cpu / comm::costmodel::BASE_CPU_OPS_PER_SEC;
        let marg_cpu = marg_cpu / comm::costmodel::BASE_CPU_OPS_PER_SEC;
        let reduction = 100.0 * (1.0 - marg_cpu / all_cpu.max(1e-12));
        let (rank, all_ms, marginal_ms) = (p.rank, all_cpu * 1e3, marg_cpu * 1e3);
        println!("Device{rank:<2} {all_ms:>12.3} {marginal_ms:>14.3} {reduction:>10.1}%");
        let frac = p.marginal.len() as f64 / p.num_local().max(1) as f64;
        json.push(
            serde_json::json!({"device": rank, "all_ms": all_ms, "marginal_ms": marginal_ms,
            "reduction_pct": reduction, "marginal_frac": frac}),
        );
    }
    crate::rule(50);
    println!("paper Fig. 3: reductions of 23.2% - 55.4% across 8 devices");
    vec![("fig3_marginal_compute", serde_json::Value::Array(json))]
}

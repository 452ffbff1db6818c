#![allow(clippy::needless_range_loop)]
//! Table 2: even at the *lowest* possible communication volume (all messages
//! 2-bit), marginal-node communication still takes longer than central-node
//! computation — so hiding central compute under comm never stalls the
//! pipeline. ogbn-products stand-in with 8 partitions (2M-4D), as in the
//! paper.

use super::Files;
use crate::Runs;
use quant::codec::predicted_wire_len;
use quant::BitWidth;

/// Prints Table 2 and returns its per-device rows.
pub fn run(runs: &mut Runs) -> Files {
    let (name, k) = ("ogbn-products-sim", 8);
    let (ds, _, parts) = runs.split(name, k);
    let cfg = runs.setup.training_defaults();
    let cost = adaqp::TopologySpec::from_training(&cfg)
        .to_topology(2, 4)
        .cost_model()
        .with_compute_speedup(cfg.compute_speedup);
    let dims = cfg.dims(ds.feature_dim(), ds.num_classes);
    let num_layers = dims.len() - 1;

    println!("Table 2: per-epoch central computation vs 2-bit marginal communication");
    println!("({name} split 8 ways; paper shows comm > comp on every device)");
    println!(
        "{:<8} {:>12} {:>12} {:>8}",
        "device", "comm (s)", "comp (s)", "hides?"
    );
    crate::rule(44);
    let mut json = Vec::new();
    let mut all_hide = true;
    for p in &parts {
        // --- 2-bit marginal communication, one full epoch (L fwd + L-1 bwd
        // exchanges). ---
        let mut comm_secs = 0.0;
        for l in 0..num_layers {
            let dim = dims[l];
            // `(peer, bytes)` for every other device, ascending.
            let two_bit = |rows: usize| predicted_wire_len(dim, &vec![BitWidth::B2; rows]);
            let (mut sent, mut recv) = (Vec::new(), Vec::new());
            for q in (0..k).filter(|&q| q != p.rank) {
                sent.push((q as u32, two_bit(p.send_sets[q].len())));
                recv.push((q as u32, two_bit(parts[q].send_sets[p.rank].len())));
            }
            let passes = if l == 0 { 1 } else { 2 }; // layer 0 has no bwd exchange
            let stats = adaqp::exchange::ExchangeStats {
                sent_bytes: sent,
                recv_bytes: recv,
                ..adaqp::exchange::ExchangeStats::default()
            };
            comm_secs += stats.ring_seconds(&cost, p.rank) * passes as f64;
        }

        // --- Central computation: aggregation + dense transform for central
        // rows, every layer, forward + backward (~2x forward cost), priced
        // by the analytic op model (load-independent, same as the trainer).
        let mut comp_ops = 0.0;
        for l in 0..num_layers {
            let din = dims[l] as f64;
            let dout = dims[l + 1] as f64;
            let agg_ops = p.agg.entries_for(&p.central) as f64 * din * 2.0;
            let dense_ops = p.central.len() as f64 * din * dout * 2.0;
            comp_ops += (agg_ops + dense_ops) * 3.0; // fwd + ~2x bwd
        }
        let comp_secs = cost.ops_time_for(p.rank, comp_ops);
        let hides = comm_secs >= comp_secs;
        all_hide &= hides;
        let (rank, verdict) = (p.rank, if hides { "yes" } else { "NO" });
        println!("Device{rank:<2} {comm_secs:>12.4} {comp_secs:>12.4} {verdict:>8}");
        let (central, marginal) = (p.central.len(), p.marginal.len());
        json.push(serde_json::json!({"device": rank, "comm_2bit_s": comm_secs,
            "central_comp_s": comp_secs, "central_nodes": central, "marginal_nodes": marginal}));
    }
    crate::rule(44);
    let verdict = if all_hide { "yes" } else { "NO" };
    println!("overlap feasible on every device: {verdict} (paper Table 2: yes on all 8)");
    vec![("table2_overlap_feasibility", serde_json::Value::Array(json))]
}

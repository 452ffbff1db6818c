//! Inside the Adaptive Bit-width Assigner: how the lambda knob trades
//! gradient variance against communication time (Eqn. 12), shown directly
//! on solver problem instances built from a real partition.
//!
//! Run with: `cargo run --release --example adaptive_quantization`

use gnn::ConvKind;
use graph::DatasetSpec;
use quant::BitWidth;
use solver::{solve, BiObjectiveProblem, GroupSpec, PairSpec};
use tensor::Rng;

fn main() {
    // Build a real partition and derive message betas from its boundary.
    let ds = DatasetSpec::reddit_sim().scaled(0.25).generate(11);
    let mut rng = Rng::seed_from(12);
    let k = 4;
    let partition = graph::partition::metis_like(&ds.graph, k, &mut rng);
    let parts = adaqp::build_partitions(&ds, &partition, ConvKind::Gcn);
    let cost = comm::Topology::new(2, 2).cost_model();

    // One pair per directed device pair, messages grouped by 32.
    let dim = 64usize;
    let group_size = 32usize;
    let mut pairs = Vec::new();
    for p in &parts {
        for q in 0..k {
            if q == p.rank || p.send_sets[q].is_empty() {
                continue;
            }
            let mut betas: Vec<f64> = p.send_alpha_sq[q]
                .iter()
                .map(|&a| quant::variance::beta(a, dim, 1.0))
                .collect();
            betas.sort_by(|a, b| b.partial_cmp(a).unwrap());
            let groups: Vec<GroupSpec> = betas
                .chunks(group_size)
                .map(|c| GroupSpec {
                    beta: c.iter().sum(),
                    bytes_per_bit: c.len() as f64 * dim as f64 / 8.0,
                })
                .collect();
            let (theta, gamma) = cost.link_params(p.rank, q);
            pairs.push(PairSpec {
                theta,
                gamma,
                groups,
            });
        }
    }
    let num_groups = pairs.iter().map(|p| p.groups.len()).sum::<usize>();
    println!(
        "{} directed pairs, {num_groups} total message groups",
        pairs.len()
    );
    println!();
    println!(
        "{:>6} {:>12} {:>12} {:>7} {:>7} {:>7}",
        "lambda", "variance", "max time", "#2bit", "#4bit", "#8bit"
    );
    for lambda in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let sol = solve(&BiObjectiveProblem::new(pairs.clone(), lambda));
        let mut h = [0usize; 3];
        for w in sol.widths.iter().flatten() {
            match w {
                BitWidth::B2 => h[0] += 1,
                BitWidth::B4 => h[1] += 1,
                BitWidth::B8 => h[2] += 1,
            }
        }
        println!(
            "{lambda:>6.2} {:>12.4e} {:>10.2}ms {:>7} {:>7} {:>7}",
            sol.variance,
            sol.max_time * 1e3,
            h[0],
            h[1],
            h[2]
        );
    }
    println!();
    println!("lambda = 0 chases pure speed (2-bit everywhere on the bottleneck");
    println!("pair); lambda = 1 chases pure precision (8-bit everywhere); the");
    println!("paper's default 0.5 lands in between, giving low variance at");
    println!("nearly the minimal straggler time.");
}

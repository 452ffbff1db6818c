//! Bi-objective solver benchmarks: the per-assignment cost the master pays
//! (Sec. 3.3's "solve each layer's problem in parallel" motivation), on the
//! shipped solver at many groups per pair.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use solver::{solve_flat, FlatProblem, GroupSpec};
use tensor::Rng;

fn problem(pairs: usize, groups_per_pair: usize, seed: u64) -> FlatProblem {
    let mut rng = Rng::seed_from(seed);
    let mut problem = FlatProblem::with_capacity(pairs, pairs * groups_per_pair, 0.5);
    for _ in 0..pairs {
        let theta = 4e-9 * (1.0 + rng.unit() as f64);
        let groups: Vec<GroupSpec> = (0..groups_per_pair)
            .map(|_| GroupSpec {
                beta: (rng.unit() as f64) * 100.0 + 0.01,
                bytes_per_bit: 64.0 * 50.0 / 8.0,
            })
            .collect();
        problem.push_pair(theta, 2e-5, groups);
    }
    problem
}

fn bench_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("bi_objective_solve");
    for (pairs, groups) in [(6usize, 10usize), (12, 40), (56, 100)] {
        let p = problem(pairs, groups, 9);
        group.bench_with_input(
            BenchmarkId::new("pairs_x_groups", format!("{pairs}x{groups}")),
            &p,
            |b, p| b.iter(|| solve_flat(p)),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(4)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_solve
}
criterion_main!(benches);

//! The two transposed products of a dense layer's backward pass on a
//! 1024 x 64 activation, as the `matmul_transposed` ratio gate in
//! `results/baseline/tolerances.json` reads them: input grads (`G Wᵀ`)
//! must stay near weight grads (`Aᵀ G`). The forward matmul and layer-norm
//! times are the harness's `tensor.*` probes.

use criterion::{criterion_group, criterion_main, Criterion};
use tensor::{Matrix, Rng};

fn bench_transposed_products(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_transposed");
    let mut rng = Rng::seed_from(2);
    let a = Matrix::from_fn(1024, 64, |_, _| rng.uniform(-1.0, 1.0));
    let g = Matrix::from_fn(1024, 64, |_, _| rng.uniform(-1.0, 1.0));
    group.bench_function("a_t_times_g (weight grads)", |b| {
        b.iter(|| a.matmul_tn(&g));
    });
    let w = Matrix::from_fn(64, 64, |_, _| rng.uniform(-1.0, 1.0));
    group.bench_function("g_times_w_t (input grads)", |b| {
        b.iter(|| g.matmul_nt(&w));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_transposed_products
}
criterion_main!(benches);

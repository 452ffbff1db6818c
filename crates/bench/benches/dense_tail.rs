//! The hidden layer's elementwise tail (`LayerNorm -> ReLU -> dropout`) at
//! the per-device activation shapes of the benchmark workloads: 750 x 128
//! (`dense8_vanilla`) and 188 x 32 (`halo32_*`).
//!
//! `mask_draw` is the yardstick — what the generator alone costs per
//! element — and `dropout_forward` must stay near it: the ratio gate in
//! `results/baseline/tolerances.json` fails the day the generator's state
//! shares a loop with the activation streams again (DESIGN.md, "The layer's
//! data path").
//!
//! Positional arguments select shapes by row count (`-- 188` is what
//! `scripts/bench.sh --smoke` runs).

use criterion::{criterion_group, criterion_main, Criterion};
use tensor::{Matrix, Rng};

const SHAPES: [(usize, usize); 2] = [(750, 128), (188, 32)];
const P: f32 = 0.5;

fn bench_dense_tail(c: &mut Criterion) {
    let picked: Vec<usize> = std::env::args().filter_map(|a| a.parse().ok()).collect();
    let mut group = c.benchmark_group("dense_tail");
    for (n, d) in SHAPES {
        if !picked.is_empty() && !picked.contains(&n) {
            continue;
        }
        let shape = format!("{n}x{d}");
        let mut rng = Rng::seed_from(24);
        let lin = Matrix::from_fn(n, d, |_, _| rng.uniform(-2.0, 2.0));
        let grad_out = Matrix::from_fn(n, d, |_, _| rng.uniform(-1.0, 1.0));
        let gamma: Vec<f32> = (0..d).map(|_| rng.uniform(0.5, 1.5)).collect();
        let beta: Vec<f32> = (0..d).map(|_| rng.uniform(-0.5, 0.5)).collect();

        // Both dropout benches start every iteration from an all-kept mask,
        // so the draw sees the same bytes each time.
        let mut mask = vec![u8::MAX; n * d];
        group.bench_function(format!("mask_draw/{shape}"), |b| {
            b.iter(|| {
                mask.fill(u8::MAX);
                tensor::dropout_draw(&mut mask, P, &mut rng);
            });
        });
        let mut x = lin.clone();
        group.bench_function(format!("dropout_forward/{shape}"), |b| {
            b.iter(|| {
                mask.fill(u8::MAX);
                x.as_mut_slice().copy_from_slice(lin.as_slice());
                tensor::dropout_in_place(x.as_mut_slice(), &mut mask, P, &mut rng)
            });
        });
        group.bench_function(format!("tail_forward/{shape}"), |b| {
            b.iter(|| tensor::tail_forward(lin.clone(), &gamma, &beta, P, &mut rng));
        });
        let (_, cache) = tensor::tail_forward(lin.clone(), &gamma, &beta, P, &mut rng);
        group.bench_function(format!("tail_backward/{shape}"), |b| {
            b.iter(|| tensor::tail_backward(&grad_out, &cache, &gamma));
        });
        group.bench_function(format!("tail_infer/{shape}"), |b| {
            b.iter(|| tensor::tail_infer(lin.clone(), &gamma, &beta));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    // Sub-millisecond kernels: short windows already hold thousands of calls.
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(1)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_dense_tail
}
criterion_main!(benches);

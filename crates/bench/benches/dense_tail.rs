//! The hidden layer's dropout at the `dense8_vanilla` per-device activation
//! shape, 750 x 128.
//!
//! `mask_draw` is the yardstick — what the generator alone costs per
//! element — and `dropout_forward` must stay near it: the ratio gate in
//! `results/baseline/tolerances.json` fails the day the generator's state
//! shares a loop with the activation streams again (DESIGN.md, "The layer's
//! data path"). The layer norm that heads the tail (`LayerNorm -> ReLU ->
//! dropout`) is timed by the harness's `tensor.layernorm_s` probe.

use criterion::{criterion_group, criterion_main, Criterion};
use tensor::{Matrix, Rng};

const SHAPE: (usize, usize) = (750, 128);
const P: f32 = 0.5;

fn bench_dense_tail(c: &mut Criterion) {
    let mut group = c.benchmark_group("dense_tail");
    let (n, d) = SHAPE;
    let shape = format!("{n}x{d}");
    let mut rng = Rng::seed_from(24);
    let lin = Matrix::from_fn(n, d, |_, _| rng.uniform(-2.0, 2.0));

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
    group.finish();
}

criterion_group! {
    name = benches;
    // Sub-millisecond kernels: short windows already hold thousands of calls.
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(1)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_dense_tail
}
criterion_main!(benches);

//! Aggregation-engine benchmarks: full-row aggregation vs the split
//! central/marginal path the overlap schedule uses, and the trainer's
//! two-source forward and the backward at the workloads' widths.

use criterion::{criterion_group, criterion_main, Criterion};
use gnn::ConvKind;
use tensor::{Matrix, Rng};

fn setup() -> (adaqp::DevicePartition, Matrix) {
    let spec = graph::DatasetSpec::ogbn_products_sim().scaled(0.3);
    let ds = spec.generate(13);
    let mut rng = Rng::seed_from(14);
    let p = graph::partition::metis_like(&ds.graph, 4, &mut rng);
    let parts = adaqp::build_partitions(&ds, &p, ConvKind::Gcn);
    let part = parts.into_iter().next().expect("rank 0");
    let xe = Matrix::from_fn(part.num_ext(), 64, |_, _| rng.uniform(-1.0, 1.0));
    (part, xe)
}

fn bench_aggregate(c: &mut Criterion) {
    let (part, xe) = setup();
    let mut group = c.benchmark_group("aggregate");
    group.bench_function("all_rows", |b| b.iter(|| part.agg.aggregate(&xe)));
    group.bench_function("central_rows", |b| {
        b.iter(|| part.agg.aggregate_rows(&xe, &part.central));
    });
    group.bench_function("marginal_rows", |b| {
        b.iter(|| part.agg.aggregate_rows(&xe, &part.marginal));
    });
    group.finish();
}

fn bench_backward(c: &mut Criterion) {
    let (part, _) = setup();
    let grad = Matrix::from_fn(part.num_local(), 64, |i, j| ((i + j) as f32).sin());
    c.bench_function("aggregate_backward", |b| {
        b.iter(|| part.agg.backward(&grad));
    });
}

/// `aggregate_with_halo` and `backward` at 8, 32, 96 and 128 columns: the
/// fleet's hidden width, `halo32_*`'s hidden width, reddit-sim's layer 0 and
/// `dense8_vanilla`'s hidden width, one per tile of the column-tiled kernel.
fn bench_widths(c: &mut Criterion) {
    let (part, _) = setup();
    let mut rng = Rng::seed_from(15);
    let mut group = c.benchmark_group("aggregate_width");
    for cols in [8, 32, 96, 128] {
        let local = Matrix::from_fn(part.num_local(), cols, |_, _| rng.uniform(-1.0, 1.0));
        let halo = Matrix::from_fn(part.num_halo(), cols, |_, _| rng.uniform(-1.0, 1.0));
        let grad = Matrix::from_fn(part.num_local(), cols, |_, _| rng.uniform(-1.0, 1.0));
        group.bench_function(format!("two_source/{cols}"), |b| {
            b.iter(|| part.agg.aggregate_with_halo(&local, &halo));
        });
        group.bench_function(format!("backward/{cols}"), |b| {
            b.iter(|| part.agg.backward(&grad));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_aggregate, bench_backward, bench_widths
}
criterion_main!(benches);

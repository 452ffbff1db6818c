//! The halo exchange (Sec. 3.2, Fig. 8) at message granularity: one forward
//! exchange on every device of the weak-scaling fleet recipe at 256 devices
//! (~75 nodes a device, 8 columns), fp32 and 8-bit. With ~117 peers a device
//! and ~2 rows a message, the time is what a *message* costs — buffers,
//! headers, ring bookkeeping. What a *byte* costs, at the benchmark's
//! `halo32_*` shape, is the harness's `exchange.fwd_{fp32,quant}_s` probes.
//!
//! Each iteration spawns the cluster and runs [`ROUNDS`] exchanges on it, so
//! the spawn is a small, equal share of both sides of
//! `fleet_quant / fleet_fp32`, the ratio gate in
//! `results/baseline/tolerances.json`: a quantized two-row message may cost
//! what its codec work costs over an fp32 one, not a handful of allocations
//! more.

use adaqp::exchange::{exchange_forward_fp32, exchange_forward_quant};
use adaqp::{build_partitions, partition_graph, DevicePartition};
use comm::Cluster;
use criterion::{criterion_group, criterion_main, Criterion};
use graph::DatasetSpec;
use quant::BitWidth;
use std::hint::black_box;
use tensor::{Matrix, Rng};

/// Exchanges per cluster spawn.
const ROUNDS: usize = 8;

struct Shape {
    parts: Vec<DevicePartition>,
    /// Per device: the `dim`-column matrix whose boundary rows travel.
    x: Vec<Matrix>,
    /// Per device: 8-bit widths for every row sent to every peer.
    widths: Vec<Vec<Vec<BitWidth>>>,
}

fn shape(dataset: DatasetSpec, devices: usize, dim: usize) -> Shape {
    let seed = 4242;
    let dataset = dataset.generate(seed);
    let partition = partition_graph(&dataset.graph, devices, seed).expect("a node per device");
    let mut rng = Rng::seed_from(seed);
    let parts = build_partitions(&dataset, &partition, gnn::ConvKind::Gcn);
    let x = parts
        .iter()
        .map(|p| Matrix::from_fn(p.num_local(), dim, |_, _| rng.uniform(-1.0, 1.0)))
        .collect();
    let widths = parts
        .iter()
        .map(|p| {
            p.send_sets
                .iter()
                .map(|s| vec![BitWidth::B8; s.len()])
                .collect()
        })
        .collect();
    Shape { parts, x, widths }
}

fn bench_exchange(c: &mut Criterion) {
    let mut group = c.benchmark_group("halo_exchange");
    let s = shape(DatasetSpec::tiny().scaled(64.0), 256, 8);
    let n = s.parts.len();
    group.bench_function("fleet_fp32", |b| {
        b.iter(|| {
            Cluster::run_fn(n, |mut dev| {
                let r = dev.rank();
                for _ in 0..ROUNDS {
                    black_box(exchange_forward_fp32(&mut dev, &s.parts[r], &s.x[r]));
                }
            })
        });
    });
    group.bench_function("fleet_quant", |b| {
        b.iter(|| {
            Cluster::run_fn(n, |mut dev| {
                let r = dev.rank();
                let mut rng = Rng::seed_from(r as u64);
                for _ in 0..ROUNDS {
                    black_box(exchange_forward_quant(
                        &mut dev,
                        &s.parts[r],
                        &s.x[r],
                        &s.widths[r],
                        &mut rng,
                    ));
                }
            })
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_exchange
}
criterion_main!(benches);

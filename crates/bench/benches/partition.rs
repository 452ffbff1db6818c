//! Partitioner benchmarks: the multilevel METIS-like scheme on community
//! graphs of increasing size, on the weak-scaling fleet recipe (~75 nodes
//! per device) at 256 and 1024 devices, and `build_partitions` over those
//! two partitions.
//!
//! The fleet cases first check the partition's assignment digest against
//! the one pinned before the partitioner's phases were rewritten in time
//! linear in edges, so a timing is only ever reported for the assignment
//! the harness trains on.
//!
//! Part counts named on the command line select cases (`scripts/bench.sh
//! --smoke` runs 256 alone).

use adaqp::build_partitions;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gnn::ConvKind;
use graph::generators::{sbm_with_gateways, skewed_communities};
use graph::DatasetSpec;
use tensor::Rng;

/// `(devices, assignment digest)` for `DatasetSpec::tiny().scaled(devices /
/// 4)` generated and partitioned with `SEED`, as the harness does.
const FLEETS: [(usize, u64); 2] = [(256, 0x2865_ba42_980d_e0cd), (1024, 0xf34a_4b8f_7044_223c)];
const SEED: u64 = 4242;

fn picked(k: usize) -> bool {
    let picked: Vec<usize> = std::env::args().filter_map(|a| a.parse().ok()).collect();
    picked.is_empty() || picked.contains(&k)
}

/// FNV-1a-64 over `assignment[v] as u64`, little-endian bytes.
fn assignment_digest(assignment: &[usize]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &p in assignment {
        for b in (p as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn community_graph(n: usize) -> graph::CsrGraph {
    let mut rng = Rng::seed_from(5);
    let blocks = skewed_communities(n, 12, &mut rng);
    sbm_with_gateways(&blocks, 12.0, 3.0, 0.4, &mut rng)
}

fn bench_metis_like(c: &mut Criterion) {
    let mut group = c.benchmark_group("metis_like");
    group.sample_size(10);
    for n in [2_000usize, 8_000] {
        let g = community_graph(n);
        for k in [4usize, 8] {
            if !picked(k) {
                continue;
            }
            group.bench_with_input(BenchmarkId::new(format!("n{n}"), k), &k, |b, &k| {
                b.iter(|| {
                    let mut rng = Rng::seed_from(6);
                    graph::partition::metis_like(&g, k, &mut rng)
                });
            });
        }
    }
    for (k, digest) in FLEETS {
        if !picked(k) {
            continue;
        }
        let ds = DatasetSpec::tiny().scaled(k as f64 / 4.0).generate(SEED);
        let run =
            || graph::partition::metis_like(&ds.graph, k, &mut Rng::seed_from(SEED ^ 0x5EED_CAFE));
        let got = assignment_digest(&run().assignment);
        assert_eq!(
            got, digest,
            "k = {k}: assignment digest {got:016x}, pinned {digest:016x}"
        );
        let n = ds.num_nodes();
        group.bench_function(BenchmarkId::new(format!("n{n}"), k), |b| b.iter(run));
    }
    group.finish();
}

fn bench_build_partitions(c: &mut Criterion) {
    for (k, _) in FLEETS {
        if !picked(k) {
            continue;
        }
        let ds = DatasetSpec::tiny().scaled(k as f64 / 4.0).generate(SEED);
        let p = graph::partition::metis_like(&ds.graph, k, &mut Rng::seed_from(SEED ^ 0x5EED_CAFE));
        c.bench_function(&format!("build_partitions/{k}"), |b| {
            b.iter(|| build_partitions(&ds, &p, ConvKind::Sage));
        });
    }
}

fn bench_boundary_build(c: &mut Criterion) {
    if !picked(8) {
        return;
    }
    let g = community_graph(8_000);
    let mut rng = Rng::seed_from(7);
    let p = graph::partition::metis_like(&g, 8, &mut rng);
    c.bench_function("boundary_info_8k_8parts", |b| {
        b.iter(|| graph::stats::BoundaryInfo::build(&g, &p));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(4)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_metis_like, bench_build_partitions, bench_boundary_build
}
criterion_main!(benches);

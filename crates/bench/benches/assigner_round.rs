//! The assigner's periodic gather -> solve -> scatter round (Sec. 4.2,
//! Fig. 6), stage by stage, on the weak-scaling fleet recipe (~75 nodes per
//! device, racks of 8 machines, 4x oversubscribed spine) at 32 and 256
//! devices. Trace encode and worker decode cover the whole fleet's devices,
//! one after another, as the single-process simulator pays for them.
//! Workers decode in place, into tables `WidthAssignment::fixed` sized from
//! their partitions once, outside the timed loop — as the trainer does. A
//! reply carries only the widths its device sends, so each pair's widths
//! are encoded and decoded once.
//!
//! `results/baseline/tolerances.json` gates two ratios of these entries:
//! `control_plane` (every encode and decode, both directions) over
//! `master_solve` (build + solve + materialise), and `worker_decode` over
//! `reply_encode` (decoding walks the bytes encoding wrote twice, once to
//! check the whole reply and once to write it, so it costs about two
//! encodes; a third pass or a heap block per listed peer would show here
//! first).
//!
//! Device counts named on the command line replace the default 32 and 256
//! (`scripts/bench.sh --smoke` runs 32 alone).

use adaqp::assigner::{encode_trace, PairTable, Trace, WidthAssignment};
use adaqp::exchange::Direction;
use adaqp::{build_partitions, ExperimentConfig, Method, TopologySpec, TrainingConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graph::DatasetSpec;
use tensor::Rng;

struct Fleet {
    training: TrainingConfig,
    cost: comm::CostModel,
    /// Per device: the `alpha_sq` table its forward betas use, and a trace
    /// whose ranges are seeded stand-ins for traced ones.
    devices: Vec<(Vec<Vec<f64>>, Trace)>,
    /// Per device: the width tables it starts training with.
    tables: Vec<WidthAssignment>,
}

fn fleet(devices: usize) -> Fleet {
    let mut training = TrainingConfig {
        use_sage: true,
        hidden: 8,
        ..TrainingConfig::default()
    };
    let mut topology = TopologySpec::from_training(&training);
    topology.machines_per_rack = Some(8);
    training.topology = Some(topology.oversubscription(4.0));
    let cfg = ExperimentConfig {
        dataset: DatasetSpec::tiny().scaled(devices as f64 / 4.0),
        machines: devices / 4,
        devices_per_machine: 4,
        method: Method::AdaQp,
        training,
        seed: 4242,
    };
    let dataset = cfg.dataset.generate(cfg.seed);
    let mut rng = Rng::seed_from(cfg.seed ^ 0x5EED_CAFE);
    let partition = graph::partition::metis_like(&dataset.graph, devices, &mut rng);
    let parts = build_partitions(&dataset, &partition, cfg.training.conv_kind());
    let dims = cfg
        .training
        .dims(dataset.features.cols(), dataset.num_classes);
    let devices = parts
        .iter()
        .map(|part| {
            let mut trace = Trace::new(part, &dims[..dims.len() - 1]);
            for dir in [Direction::Forward, Direction::Backward] {
                for r in trace.table_mut(dir).values_mut() {
                    *r = rng.uniform(0.05, 2.0);
                }
            }
            (part.send_alpha_sq.clone(), trace)
        })
        .collect();
    let tables = parts
        .iter()
        .map(|part| WidthAssignment::fixed(part, dims.len() - 1, quant::BitWidth::B8))
        .collect();
    Fleet {
        cost: cfg.cost_model(),
        training: cfg.training,
        devices,
        tables,
    }
}

fn bench_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("assigner_round");
    let mut sizes: Vec<usize> = std::env::args().filter_map(|a| a.parse().ok()).collect();
    if sizes.is_empty() {
        sizes = vec![32, 256];
    }
    for n in sizes {
        let Fleet {
            training,
            cost,
            devices,
            mut tables,
        } = fleet(n);
        let encode = || -> Vec<Vec<u8>> {
            devices
                .iter()
                .map(|(alpha_sq, trace)| encode_trace(alpha_sq, trace))
                .collect()
        };
        let decode = |traces: &[Vec<u8>]| PairTable::decode(traces).expect("valid traces");
        let mut worker_decode = |replies: &[Vec<u8>]| {
            for (tables, reply) in tables.iter_mut().zip(replies) {
                tables.decode_into(reply, n).expect("valid reply");
            }
        };
        let traces = encode();
        let table = decode(&traces);
        let build = || -> Vec<_> {
            (0..table.num_sections())
                .map(|s| table.build(s, &cost, &training))
                .collect()
        };
        let built = build();
        let solve = || -> Vec<_> {
            built
                .iter()
                .map(|b| solver::solve_flat(&b.problem))
                .collect()
        };
        let solutions = solve();
        let materialise = || -> Vec<Vec<u8>> {
            built
                .iter()
                .zip(&solutions)
                .map(|(b, s)| b.message_widths(s))
                .collect()
        };
        let widths = materialise();
        let replies = table.encode_replies(&widths);

        group.bench_function(BenchmarkId::new("trace_encode", n), |b| b.iter(encode));
        group.bench_function(BenchmarkId::new("master_decode", n), |b| {
            b.iter(|| decode(&traces));
        });
        group.bench_function(BenchmarkId::new("build", n), |b| b.iter(build));
        group.bench_function(BenchmarkId::new("solve", n), |b| b.iter(solve));
        group.bench_function(BenchmarkId::new("materialise", n), |b| b.iter(materialise));
        group.bench_function(BenchmarkId::new("reply_encode", n), |b| {
            b.iter(|| table.encode_replies(&widths));
        });
        group.bench_function(BenchmarkId::new("worker_decode", n), |b| {
            b.iter(|| worker_decode(&replies));
        });
        group.bench_function(BenchmarkId::new("control_plane", n), |b| {
            b.iter(|| {
                let table = decode(&encode());
                worker_decode(&table.encode_replies(&widths));
            });
        });
        group.bench_function(BenchmarkId::new("master_solve", n), |b| {
            b.iter(|| -> Vec<Vec<u8>> {
                (0..table.num_sections())
                    .map(|s| {
                        let built = table.build(s, &cost, &training);
                        built.message_widths(&solver::solve_flat(&built.problem))
                    })
                    .collect()
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_round
}
criterion_main!(benches);

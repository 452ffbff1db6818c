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
//! The master checks the gathered traces' framing (`master_decode`), then
//! takes each section from trace bytes to reply bytes in one pass
//! (`master_solve`, `Gathered::round`): its stages, timed apart here, are
//! `build` (betas read from the trace bytes into the solver's arrays),
//! `solve` and `reply_encode` (the winning widths written into the
//! replies).
//!
//! `results/baseline/tolerances.json` gates two ratios of these entries:
//! `control_plane` (every encode and decode, both directions) over
//! `master_solve`, and `worker_decode` over `reply_encode` (decoding walks
//! the bytes encoding wrote twice, once to check the whole reply and once
//! to write it, so it costs about two encodes; a third pass or a heap block
//! per listed peer would show here first).
//!
//! Device counts named on the command line replace the default 32 and 256
//! (`scripts/bench.sh --smoke` runs 32 alone).

use adaqp::assigner::{encode_trace, Gathered, Trace, WidthAssignment};
use adaqp::exchange::Direction;
use adaqp::{
    build_partitions, partition_graph, ExperimentConfig, Method, TopologySpec, TrainingConfig,
};
use criterion::{criterion_group, criterion_main, Criterion};
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
    let partition = partition_graph(&dataset.graph, devices, cfg.seed).expect("a node per device");
    let mut rng = Rng::seed_from(cfg.seed);
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
        let check = |traces: &[Vec<u8>]| {
            Gathered::check(traces)
                .expect("valid traces")
                .num_sections()
        };
        let mut worker_decode = |replies: &[Vec<u8>]| {
            for (tables, reply) in tables.iter_mut().zip(replies) {
                tables.decode_into(reply, n).expect("valid reply");
            }
        };
        let traces = encode();
        let gathered = Gathered::check(&traces).expect("valid traces");
        let build = || -> Vec<_> {
            (0..gathered.num_sections())
                .map(|s| gathered.section(s, &cost, &training))
                .collect()
        };
        let sections = build();
        let solve = || -> Vec<_> {
            sections
                .iter()
                .map(|b| solver::solve_flat(&b.problem))
                .collect()
        };
        let solutions = solve();
        let replies = gathered.encode_replies(&sections, &solutions);

        group.bench_function(format!("trace_encode/{n}"), |b| b.iter(encode));
        group.bench_function(format!("master_decode/{n}"), |b| {
            b.iter(|| check(&traces));
        });
        group.bench_function(format!("build/{n}"), |b| b.iter(build));
        group.bench_function(format!("solve/{n}"), |b| b.iter(solve));
        group.bench_function(format!("reply_encode/{n}"), |b| {
            b.iter(|| gathered.encode_replies(&sections, &solutions));
        });
        group.bench_function(format!("worker_decode/{n}"), |b| {
            b.iter(|| worker_decode(&replies));
        });
        group.bench_function(format!("control_plane/{n}"), |b| {
            b.iter(|| {
                let traces = encode();
                let gathered = Gathered::check(&traces).expect("valid traces");
                worker_decode(&gathered.encode_replies(&sections, &solutions));
            });
        });
        group.bench_function(format!("master_solve/{n}"), |b| {
            b.iter(|| gathered.round(&cost, &training));
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

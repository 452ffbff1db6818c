//! Ablation bench for design decision D4 (DESIGN.md): end-to-end epoch cost
//! with and without the central/marginal overlap, and per-method epoch-time
//! composition. Runs short real training loops inside criterion.

use adaqp::{Method, TrainingConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graph::DatasetSpec;

fn short_cfg(method: Method) -> adaqp::ExperimentConfig {
    adaqp::ExperimentConfig {
        dataset: DatasetSpec::tiny().scaled(2.0),
        machines: 1,
        devices_per_machine: 2,
        method,
        training: TrainingConfig {
            epochs: 3,
            hidden: 32,
            num_layers: 2,
            dropout: 0.0,
            reassign_period: 2,
            ..TrainingConfig::default()
        },
        seed: 17,
    }
}

fn bench_epoch_real_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_3_epochs_real");
    group.sample_size(10);
    for method in [Method::Vanilla, Method::AdaQp, Method::PipeGcn] {
        group.bench_with_input(
            BenchmarkId::new("method", method.name()),
            &method,
            |b, &m| {
                b.iter(|| adaqp::run_experiment(&short_cfg(m)).expect("valid config"));
            },
        );
    }
    group.finish();
}

fn bench_overlap_composition(c: &mut Criterion) {
    // Pure composition math on a recorded breakdown: overlapped vs serial.
    let cfg = short_cfg(Method::AdaQp);
    let r = adaqp::run_experiment(&cfg).expect("valid config");
    let tb = r.total_breakdown;
    c.bench_function("epoch_time_composition", |b| {
        b.iter(|| {
            (
                adaqp::metrics::epoch_time_with_overlap(Method::Vanilla, false, &tb),
                adaqp::metrics::epoch_time_with_overlap(Method::AdaQp, false, &tb),
                adaqp::metrics::epoch_time_with_overlap(Method::PipeGcn, false, &tb),
            )
        });
    });
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    // A run records one flight log, its devices' charges, when a view of it
    // is asked for: the same run with recording off and on (both views
    // attached). Criterion reports both sides; compare the means in the
    // output.
    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);
    for (label, enabled) in [("off", false), ("on", true)] {
        group.bench_with_input(BenchmarkId::new("recorder", label), &enabled, |b, &on| {
            b.iter(|| {
                let mut cfg = short_cfg(Method::AdaQp);
                cfg.training.telemetry = on;
                cfg.training.profile = on;
                adaqp::run_experiment_profiled(&cfg).expect("valid config")
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(5)).warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_epoch_real_cost, bench_overlap_composition, bench_telemetry_overhead
}
criterion_main!(benches);

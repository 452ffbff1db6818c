//! Shared plumbing for the reproduction harness.
//!
//! Every table/figure of the paper's evaluation has its own binary under
//! `src/bin/`. They share: experiment scaling (via `ADAQP_SCALE`, default
//! 0.35 of the stand-in dataset sizes so the full suite finishes on a
//! laptop-class CPU), seed lists, and JSON result dumps under `results/` at
//! the repository root (consumed when updating `EXPERIMENTS.md`).

// Library code returns errors and stays silent (DESIGN.md §7);
// `#[cfg(test)]` code, bins and tests are exempt.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]

use adaqp::metrics::Schedule;
use adaqp::{ExperimentConfig, Method, TrainingConfig};
use graph::DatasetSpec;

/// Dataset scale factor: `ADAQP_SCALE` env var, default 0.35.
pub fn scale() -> f64 {
    std::env::var("ADAQP_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.35)
}

/// Seeds to average over: `ADAQP_SEEDS` (count), default 1; the paper uses 3
/// independent runs.
pub fn seeds() -> Vec<u64> {
    let n: u64 = std::env::var("ADAQP_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    (0..n.max(1)).map(|i| 1000 + 17 * i).collect()
}

/// Training epochs used by the end-to-end comparisons (`ADAQP_EPOCHS`,
/// default 40).
pub fn epochs() -> usize {
    std::env::var("ADAQP_EPOCHS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(40)
}

/// The four paper datasets at harness scale, in Table 3 order.
pub fn datasets() -> Vec<DatasetSpec> {
    DatasetSpec::paper_suite()
        .into_iter()
        .map(|d| d.scaled(scale()))
        .collect()
}

/// Default training configuration for end-to-end runs.
pub fn training_defaults() -> TrainingConfig {
    TrainingConfig {
        epochs: epochs(),
        hidden: 64,
        dropout: 0.2,
        group_size: 64,
        reassign_period: 10,
        ..TrainingConfig::default()
    }
}

/// Builds a full experiment config.
pub fn experiment(
    dataset: DatasetSpec,
    machines: usize,
    devices_per_machine: usize,
    method: Method,
    use_sage: bool,
    seed: u64,
) -> ExperimentConfig {
    ExperimentConfig {
        dataset,
        machines,
        devices_per_machine,
        method,
        training: TrainingConfig {
            use_sage,
            ..training_defaults()
        },
        seed,
    }
}

/// Runs an experiment built by this harness, unwrapping the `Result`: every
/// config here is constructed programmatically from known-good parts, so an
/// `Err` is a harness bug worth aborting on.
#[expect(clippy::expect_used, reason = "an Err is a harness bug")]
pub fn run(cfg: &ExperimentConfig) -> adaqp::RunResult {
    adaqp::run_experiment(cfg).expect("harness experiment config is valid")
}

/// Runs an experiment with its flight log recorded and returns the result
/// together with its critical-path profile. The figure binaries use this
/// for their "where does the time go?" sections: the profile's classified
/// segments are re-folded from the charges the run made, not from a
/// separate model.
#[expect(
    clippy::expect_used,
    reason = "an Err is a harness bug; profiling is set two lines up"
)]
pub fn run_profiled(cfg: &ExperimentConfig) -> (adaqp::RunResult, adaqp::RunProfile) {
    let mut cfg = cfg.clone();
    cfg.training.profile = true;
    let (r, p) = adaqp::run_experiment_profiled(&cfg).expect("harness experiment config is valid");
    (r, p.expect("profiling was enabled"))
}

/// Total simulated seconds with the assigner's host-measured solve time
/// carved out: each epoch's breakdown is re-composed under the run's
/// `schedule` (`adaqp::metrics::schedule_for` of its method and overlap
/// switch) with `solve` zeroed. Everything left (comm, compute,
/// quantization) is analytic, so scalability artifacts built from this
/// number are deterministic run-to-run; the wall-clock solve cost is the
/// one non-analytic input and is worth reporting separately.
pub fn analytic_sim_seconds(schedule: Schedule, r: &adaqp::RunResult) -> f64 {
    r.per_epoch
        .iter()
        .map(|e| {
            let mut tb = e.breakdown;
            tb.solve = 0.0;
            tb.total(schedule)
        })
        .sum()
}

/// Mean and population standard deviation.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    (mean, var.sqrt())
}

/// Writes a JSON result blob under `results/<name>.json` (repo root).
#[expect(clippy::print_stderr, reason = "progress note for the operator")]
pub fn save_json(name: &str, value: &serde_json::Value) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{name}.json"));
        if let Ok(s) = serde_json::to_string_pretty(value) {
            let _ = std::fs::write(&path, s);
            eprintln!("[saved {}]", path.display());
        }
    }
}

/// Prints a horizontal rule sized to `width`.
#[expect(clippy::print_stdout, reason = "console helper for the bench bins")]
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[1.0, 3.0]);
        assert_eq!(m, 2.0);
        assert_eq!(s, 1.0);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn analytic_seconds_follow_the_overlap_ablation() {
        // Solve is the last addend of every composition, so putting it back
        // must reproduce each epoch's simulated seconds to the bit — under
        // the schedule the run was composed with, not the method's default.
        let mut cfg = experiment(DatasetSpec::tiny(), 1, 2, Method::AdaQp, false, 9);
        cfg.training.epochs = 4;
        cfg.training.reassign_period = 2;
        cfg.training.disable_overlap = true;
        let schedule = adaqp::metrics::schedule_for(cfg.method, cfg.training.disable_overlap);
        assert_eq!(schedule, Schedule::Serial);
        let r = run(&cfg);
        for e in &r.per_epoch {
            let one = adaqp::RunResult {
                per_epoch: vec![e.clone()],
                ..adaqp::RunResult::default()
            };
            let rebuilt = analytic_sim_seconds(schedule, &one) + e.breakdown.solve;
            assert_eq!(
                rebuilt.to_bits(),
                e.sim_seconds.to_bits(),
                "epoch {}",
                e.epoch
            );
        }
    }

    #[test]
    fn datasets_are_scaled() {
        let full = DatasetSpec::paper_suite();
        let scaled = datasets();
        for (f, s) in full.iter().zip(&scaled) {
            assert!(s.num_nodes <= f.num_nodes);
            assert_eq!(s.name, f.name);
        }
    }

    #[test]
    fn experiment_builder_sets_method_and_model() {
        let e = experiment(DatasetSpec::tiny(), 2, 2, Method::AdaQp, true, 9);
        assert_eq!(e.method, Method::AdaQp);
        assert!(e.training.use_sage);
        assert_eq!(e.num_devices(), 4);
        assert_eq!(e.seed, 9);
    }
}

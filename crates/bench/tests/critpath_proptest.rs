//! Cross-validation property: the critical-path profiler and the harness's
//! analytic epoch time read the same run from two records — the profiler
//! re-folds the flight log's charges, while
//! `bench::analytic_sim_seconds` re-composes the runner's per-epoch
//! breakdowns — through the one composition in `obs::time`. On Vanilla
//! runs (no host-measured solver time) the two must agree to the bit, and
//! the profile itself must be byte-identical at any kernel thread count.

use adaqp::{ExperimentConfig, Method, TrainingConfig};
use graph::DatasetSpec;
use proptest::prelude::*;

fn vanilla_cfg(seed: u64, epochs: usize, devices: usize, hidden: usize) -> ExperimentConfig {
    ExperimentConfig {
        dataset: DatasetSpec::tiny(),
        machines: 1,
        devices_per_machine: devices,
        method: Method::Vanilla,
        training: TrainingConfig {
            epochs,
            hidden,
            num_layers: 2,
            dropout: 0.0,
            profile: true,
            ..TrainingConfig::default()
        },
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn critical_path_equals_analytic_epoch_time_at_any_thread_count(
        seed in 0u64..1000,
        epochs in 2usize..5,
        devices in 2usize..5,
    ) {
        let hidden = 8 + 8 * (seed % 3) as usize;
        let mut encoded = Vec::new();
        for threads in [1usize, 2, 8] {
            let mut cfg = vanilla_cfg(seed, epochs, devices, hidden);
            cfg.training.threads = threads;
            let (r, profile) = adaqp::run_experiment_profiled(&cfg).expect("valid config");
            let profile = profile.expect("profiling on");
            let analytic = bench::analytic_sim_seconds(adaqp::metrics::Schedule::Serial, &r);
            prop_assert_eq!(
                profile.report.total_seconds.to_bits(),
                analytic.to_bits(),
                "critical path {} vs analytic {}",
                profile.report.total_seconds,
                analytic
            );
            prop_assert_eq!(
                profile.report.total_seconds.to_bits(),
                r.total_sim_seconds.to_bits()
            );
            encoded.push(serde_json::to_string(&profile.report).expect("report encodes"));
        }
        prop_assert_eq!(&encoded[0], &encoded[1], "profile differs at 1 vs 2 threads");
        prop_assert_eq!(&encoded[0], &encoded[2], "profile differs at 1 vs 8 threads");
    }
}

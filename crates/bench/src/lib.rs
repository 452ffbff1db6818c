//! Shared plumbing for the reproduction harness.
//!
//! Every table/figure of the paper's evaluation is a function in
//! [`tables`], run by the one `reproduce` binary (`--only <name>,..` picks
//! some, in [`tables::ALL`]'s order). They share a [`Setup`] (dataset
//! scale, seed count and epochs, read once from `ADAQP_SCALE`,
//! `ADAQP_SEEDS` and `ADAQP_EPOCHS`; the default scale 0.35 of the stand-in
//! dataset sizes lets the full suite finish on a laptop-class CPU) and a
//! [`Runs`] cache, so a training run two tables read is run once. The
//! binary writes each table's JSON under `results/` at the repository root
//! (consumed when updating `EXPERIMENTS.md`), or under `--out <dir>`.

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
use adaqp::{DevicePartition, ExperimentConfig, Method, RunProfile, RunResult, TrainingConfig};
use graph::partition::Partition;
use graph::{Dataset, DatasetSpec};
use std::collections::BTreeMap;
use std::rc::Rc;

// The tables are the `reproduce` binary's console report: they print, and
// a stand-in missing from the suite is a harness bug worth aborting on.
#[expect(
    clippy::print_stdout,
    clippy::expect_used,
    reason = "the tables are the reproduce binary's console report"
)]
pub mod tables;

/// The experiment scale every table runs at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Setup {
    /// Dataset scale factor.
    pub scale: f64,
    /// Seeds to average over; the paper uses 3 independent runs.
    pub seeds: u64,
    /// Training epochs of the end-to-end comparisons.
    pub epochs: usize,
}

impl Setup {
    /// [`Setup::from_vars`] over the process environment.
    pub fn from_env() -> Result<Self, String> {
        Self::from_vars(|name| std::env::var(name).ok())
    }

    /// `ADAQP_SCALE` (a positive scale, default 0.35), `ADAQP_SEEDS` (a
    /// count, default 1) and `ADAQP_EPOCHS` (a positive count, default 40),
    /// each looked up through `var`. A value that is set but does not parse,
    /// or is out of range, is an error naming the variable.
    pub fn from_vars(var: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        fn read<T: std::str::FromStr>(
            var: &dyn Fn(&str) -> Option<String>,
            name: &str,
            default: T,
        ) -> Result<T, String> {
            match var(name) {
                None => Ok(default),
                Some(v) => v
                    .parse()
                    .map_err(|_| format!("{name}={v:?} does not parse")),
            }
        }
        let setup = Setup {
            scale: read(&var, "ADAQP_SCALE", 0.35)?,
            seeds: read(&var, "ADAQP_SEEDS", 1)?,
            epochs: read(&var, "ADAQP_EPOCHS", 40)?,
        };
        if !(setup.scale.is_finite() && setup.scale > 0.0) {
            return Err(format!("ADAQP_SCALE={} is not positive", setup.scale));
        }
        if setup.epochs == 0 {
            return Err("ADAQP_EPOCHS=0: training needs an epoch".into());
        }
        Ok(setup)
    }

    /// The seeds to average over (at least one).
    pub fn seeds(&self) -> Vec<u64> {
        (0..self.seeds.max(1)).map(|i| 1000 + 17 * i).collect()
    }

    /// The four paper datasets at this scale, in Table 3 order.
    pub fn datasets(&self) -> Vec<DatasetSpec> {
        DatasetSpec::paper_suite()
            .into_iter()
            .map(|d| d.scaled(self.scale))
            .collect()
    }

    /// The stand-in called `name`, at this scale.
    #[expect(clippy::expect_used, reason = "the names are the suite's own")]
    pub fn dataset(&self, name: &str) -> DatasetSpec {
        self.datasets()
            .into_iter()
            .find(|d| d.name == name)
            .expect("the stand-in is in the suite")
    }

    /// Default training configuration for end-to-end runs.
    pub fn training_defaults(&self) -> TrainingConfig {
        TrainingConfig {
            epochs: self.epochs,
            hidden: 64,
            dropout: 0.2,
            group_size: 64,
            reassign_period: 10,
            ..TrainingConfig::default()
        }
    }

    /// Builds a full experiment config.
    pub fn experiment(
        &self,
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
                ..self.training_defaults()
            },
            seed,
        }
    }

    /// The `_meta` block of every JSON the harness writes: the revision and
    /// the setup the numbers were produced at.
    pub fn meta(&self) -> serde_json::Value {
        serde_json::json!({"git_rev": adaqp::report::git_rev(), "scale": self.scale,
            "seeds": self.seeds, "epochs": self.epochs})
    }
}

/// One finished training run: its result, and its critical-path profile
/// when the config set `TrainingConfig::profile`.
#[derive(Debug)]
pub struct Run {
    /// What `adaqp::run_experiment` returned.
    pub result: RunResult,
    /// The profile, for a profiled config.
    pub profile: Option<RunProfile>,
}

/// Training runs keyed by their serialised [`ExperimentConfig`]: each
/// distinct config is run once, however many tables ask for it.
#[derive(Debug)]
pub struct Runs {
    /// The scale every table runs at.
    pub setup: Setup,
    cache: BTreeMap<String, Rc<Run>>,
}

impl Runs {
    /// An empty cache at `setup`.
    pub fn new(setup: Setup) -> Self {
        Runs {
            setup,
            cache: BTreeMap::new(),
        }
    }

    /// The run of `cfg`, run on the first ask. Every config here is built
    /// programmatically from known-good parts, so an `Err` is a harness bug
    /// worth aborting on.
    #[expect(clippy::expect_used, reason = "an Err is a harness bug")]
    pub fn run(&mut self, cfg: &ExperimentConfig) -> Rc<Run> {
        let key = serde_json::to_string(cfg).expect("configs serialise");
        let run = self.cache.entry(key).or_insert_with(|| {
            let (result, profile) =
                adaqp::run_experiment_profiled(cfg).expect("harness experiment config is valid");
            Rc::new(Run { result, profile })
        });
        Rc::clone(run)
    }

    /// [`Runs::run`] over the setup's seeds, `cfg` building each seed's
    /// config.
    pub fn seeded(&mut self, cfg: impl Fn(u64) -> ExperimentConfig) -> Vec<Rc<Run>> {
        self.setup
            .seeds()
            .into_iter()
            .map(|s| self.run(&cfg(s)))
            .collect()
    }

    /// The critical-path summary of `cfg` run with its flight log recorded:
    /// the classified segments are re-folded from the charges the run made,
    /// not from a separate model.
    #[expect(clippy::expect_used, reason = "profiling is set two lines up")]
    pub fn critical_path(&mut self, cfg: &ExperimentConfig) -> String {
        let mut cfg = cfg.clone();
        cfg.training.profile = true;
        let run = self.run(&cfg);
        run.profile
            .as_ref()
            .expect("profiling was enabled")
            .report
            .summary()
    }

    /// `cfg`'s epoch seconds and throughput with the assigner's
    /// host-measured solve carved out ([`analytic_sim_seconds`] under the
    /// run's schedule), and that solve's seconds.
    pub fn analytic(&mut self, cfg: &ExperimentConfig) -> (f64, f64, f64) {
        let r = &self.run(cfg).result;
        let schedule = adaqp::metrics::schedule_for(cfg.method, cfg.training.disable_overlap);
        let (secs, epochs) = (
            analytic_sim_seconds(schedule, r),
            cfg.training.epochs as f64,
        );
        (secs / epochs, epochs / secs, r.total_breakdown.solve)
    }

    /// Number of distinct configs run so far.
    pub fn distinct(&self) -> usize {
        self.cache.len()
    }

    /// The stand-in `name` at the first seed, its partition into `k`
    /// devices and every device's view, for the tables that read a partition
    /// rather than a run. GCN aggregation includes self loops, so the views
    /// carry the boundary sets training exchanges.
    #[expect(
        clippy::expect_used,
        reason = "the tables split the suite's own graphs"
    )]
    pub fn split(&self, name: &str, k: usize) -> (Dataset, Partition, Vec<DevicePartition>) {
        let seed = self.setup.seeds()[0];
        let ds = self.setup.dataset(name).generate(seed);
        let partition =
            adaqp::partition_graph(&ds.graph, k, seed).expect("the parts fit the graph");
        let parts = adaqp::build_partitions(&ds, &partition, gnn::ConvKind::Gcn);
        (ds, partition, parts)
    }
}

/// Total simulated seconds with the assigner's host-measured solve time
/// carved out: each epoch's breakdown is re-composed under the run's
/// `schedule` (`adaqp::metrics::schedule_for` of its method and overlap
/// switch) with `solve` zeroed. Everything left (comm, compute,
/// quantization) is analytic, so scalability artifacts built from this
/// number are deterministic run-to-run; the wall-clock solve cost is the
/// one non-analytic input and is worth reporting separately.
pub fn analytic_sim_seconds(schedule: Schedule, r: &RunResult) -> f64 {
    r.per_epoch
        .iter()
        .map(|e| {
            let mut tb = e.breakdown;
            tb.solve = 0.0;
            tb.total(schedule)
        })
        .sum()
}

/// Mean and population standard deviation of `f` over `runs`.
pub fn mean_std(runs: &[Rc<Run>], f: impl Fn(&RunResult) -> f64) -> (f64, f64) {
    let xs: Vec<f64> = runs.iter().map(|r| f(&r.result)).collect();
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    (mean, var.sqrt())
}

/// Throughputs against the last Vanilla throughput seen.
#[derive(Debug, Default)]
pub struct Speedup(f64);

impl Speedup {
    /// Throughput `tp` of `method` against the baseline, printed (`"1.23x"`)
    /// and as a number; blank and 1 for Vanilla, whose `tp` becomes the
    /// baseline.
    pub fn of(&mut self, method: Method, tp: f64) -> (String, f64) {
        if method == Method::Vanilla {
            self.0 = tp;
            return (String::new(), 1.0);
        }
        let ratio = tp / self.0.max(1e-12);
        (format!("{ratio:.2}x"), ratio)
    }
}

/// Prints a horizontal rule sized to `width`.
#[expect(clippy::print_stdout, reason = "console helper for the tables")]
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basics() {
        let run = |best_val| {
            Rc::new(Run {
                result: RunResult {
                    best_val,
                    ..RunResult::default()
                },
                profile: None,
            })
        };
        let (m, s) = mean_std(&[run(1.0), run(3.0)], |r| r.best_val);
        assert_eq!(m, 2.0);
        assert_eq!(s, 1.0);
        assert_eq!(mean_std(&[], |r| r.best_val), (0.0, 0.0));
    }

    #[test]
    fn analytic_seconds_follow_the_overlap_ablation() {
        // Solve is the last addend of every composition, so putting it back
        // must reproduce each epoch's simulated seconds to the bit — under
        // the schedule the run was composed with, not the method's default.
        let setup = Setup::from_vars(|_| None).expect("the defaults are valid");
        let mut cfg = setup.experiment(DatasetSpec::tiny(), 1, 2, Method::AdaQp, false, 9);
        cfg.training.epochs = 4;
        cfg.training.reassign_period = 2;
        cfg.training.disable_overlap = true;
        let schedule = adaqp::metrics::schedule_for(cfg.method, cfg.training.disable_overlap);
        assert_eq!(schedule, Schedule::Serial);
        let r = Runs::new(setup).run(&cfg);
        for e in &r.result.per_epoch {
            let one = RunResult {
                per_epoch: vec![e.clone()],
                ..RunResult::default()
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
    fn a_malformed_variable_is_an_error_naming_it() {
        let with = |name: &'static str, value: &'static str| {
            Setup::from_vars(move |n| (n == name).then(|| value.to_string()))
        };
        let defaults = Setup::from_vars(|_| None).expect("the defaults are valid");
        assert_eq!(
            (defaults.scale, defaults.seeds, defaults.epochs),
            (0.35, 1, 40)
        );
        assert_eq!(with("ADAQP_SCALE", "0.02").map(|s| s.scale), Ok(0.02));
        assert_eq!(with("ADAQP_EPOCHS", "3").map(|s| s.epochs), Ok(3));
        for (name, value) in [
            ("ADAQP_SCALE", "0,02"),
            ("ADAQP_SCALE", "NaN"),
            ("ADAQP_SCALE", "-1"),
            ("ADAQP_SEEDS", "two"),
            ("ADAQP_EPOCHS", "0"),
            ("ADAQP_EPOCHS", "3.5"),
        ] {
            let err = with(name, value).expect_err(value);
            assert!(err.contains(name), "{err}");
        }
    }

    #[test]
    fn datasets_are_scaled() {
        let full = DatasetSpec::paper_suite();
        let setup = Setup {
            scale: 0.1,
            seeds: 1,
            epochs: 40,
        };
        let scaled = setup.datasets();
        assert_eq!(scaled.len(), full.len());
        for (f, s) in full.iter().zip(&scaled) {
            assert!(s.num_nodes < f.num_nodes);
            assert_eq!(s.name, f.name);
        }
        assert_eq!(setup.dataset("yelp-sim").name, "yelp-sim");
    }

    #[test]
    fn experiment_builder_sets_method_and_model() {
        let setup = Setup {
            scale: 1.0,
            seeds: 1,
            epochs: 7,
        };
        let e = setup.experiment(DatasetSpec::tiny(), 2, 2, Method::AdaQp, true, 9);
        assert_eq!(e.method, Method::AdaQp);
        assert!(e.training.use_sage);
        assert_eq!(e.training.epochs, 7);
        assert_eq!(e.num_devices(), 4);
        assert_eq!(e.seed, 9);
    }
}

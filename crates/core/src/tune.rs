//! Hyper-parameter search for the Adaptive Bit-width Assigner's knobs.
//!
//! Sec. 5.5 of the paper closes with: *"How to automatically decide the best
//! values for these hyper-parameters warrantees further investigation, e.g.,
//! ... searching for the best hyper-parameter combinations."* This module
//! implements that follow-up: a grid search over (group size, lambda,
//! re-assignment period) that scores each combination by validation accuracy
//! with a throughput tie-break.

use crate::config::ExperimentConfig;
use crate::error::Error;
use crate::metrics::RunResult;
use serde::{Deserialize, Serialize};

/// Search space for the assigner's three hyper-parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneGrid {
    /// Candidate message group sizes.
    pub group_sizes: Vec<usize>,
    /// Candidate scalarization weights.
    pub lambdas: Vec<f64>,
    /// Candidate re-assignment periods.
    pub periods: Vec<usize>,
}

impl Default for TuneGrid {
    fn default() -> Self {
        Self {
            group_sizes: vec![32, 64, 256],
            lambdas: vec![0.25, 0.5, 0.75],
            periods: vec![10, 25, 50],
        }
    }
}

impl TuneGrid {
    /// Number of combinations the grid enumerates.
    pub fn len(&self) -> usize {
        self.group_sizes.len() * self.lambdas.len() * self.periods.len()
    }

    /// True when the grid is empty along any axis.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over all `(group_size, lambda, period)` combinations.
    pub fn combinations(&self) -> impl Iterator<Item = (usize, f64, usize)> + '_ {
        self.group_sizes.iter().flat_map(move |&g| {
            self.lambdas
                .iter()
                .flat_map(move |&l| self.periods.iter().map(move |&p| (g, l, p)))
        })
    }
}

/// One evaluated grid point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneTrial {
    /// Message group size used.
    pub group_size: usize,
    /// Lambda used.
    pub lambda: f64,
    /// Re-assignment period used.
    pub period: usize,
    /// Best validation score of the run.
    pub val_score: f64,
    /// Simulated throughput.
    pub throughput: f64,
    /// Total simulated wall-clock seconds.
    pub wallclock_s: f64,
}

/// Output of [`grid_search`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneReport {
    /// Every evaluated combination.
    pub trials: Vec<TuneTrial>,
    /// Index of the winning trial in `trials`.
    pub best: usize,
}

/// Scores `a` against `b`: higher validation accuracy wins; ties (within
/// `acc_tolerance`) go to the higher throughput.
fn better(a: &TuneTrial, b: &TuneTrial, acc_tolerance: f64) -> bool {
    if (a.val_score - b.val_score).abs() <= acc_tolerance {
        a.throughput > b.throughput
    } else {
        a.val_score > b.val_score
    }
}

/// Runs the full grid for `base` (method is forced to AdaQP) and returns all
/// trials plus the winner. `acc_tolerance` controls when two accuracies are
/// considered tied (e.g. `0.002` = 0.2 points).
///
/// # Errors
///
/// [`Error::InvalidConfig`] when the grid is empty along any axis or a grid
/// point produces an invalid configuration.
pub fn grid_search(
    base: &ExperimentConfig,
    grid: &TuneGrid,
    acc_tolerance: f64,
) -> Result<TuneReport, Error> {
    if grid.is_empty() {
        return Err(Error::InvalidConfig("empty tuning grid".into()));
    }
    let mut trials: Vec<TuneTrial> = Vec::with_capacity(grid.len());
    let mut best = 0usize;
    for (group_size, lambda, period) in grid.combinations() {
        let mut cfg = base.clone();
        cfg.method = crate::config::Method::AdaQp;
        cfg.training.group_size = group_size;
        cfg.training.lambda = lambda;
        cfg.training.reassign_period = period;
        let result: RunResult = crate::runner::run_experiment(&cfg)?;
        let trial = TuneTrial {
            group_size,
            lambda,
            period,
            val_score: result.best_val,
            throughput: result.throughput,
            wallclock_s: result.total_sim_seconds,
        };
        if trials.is_empty() || better(&trial, &trials[best], acc_tolerance) {
            best = trials.len();
        }
        trials.push(trial);
    }
    Ok(TuneReport { trials, best })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Method, TrainingConfig};
    use graph::DatasetSpec;

    #[test]
    fn grid_enumerates_cartesian_product() {
        let g = TuneGrid {
            group_sizes: vec![8, 16],
            lambdas: vec![0.5],
            periods: vec![5, 10, 20],
        };
        assert_eq!(g.len(), 6);
        let all: Vec<_> = g.combinations().collect();
        assert_eq!(all.len(), 6);
        assert!(all.contains(&(16, 0.5, 20)));
    }

    #[test]
    fn better_prefers_accuracy_then_throughput() {
        let mk = |acc, tp| TuneTrial {
            group_size: 1,
            lambda: 0.5,
            period: 1,
            val_score: acc,
            throughput: tp,
            wallclock_s: 1.0,
        };
        assert!(better(&mk(0.9, 1.0), &mk(0.8, 99.0), 0.002));
        assert!(better(&mk(0.900, 5.0), &mk(0.901, 1.0), 0.002));
        assert!(!better(&mk(0.89, 99.0), &mk(0.91, 1.0), 0.002));
    }

    #[test]
    fn grid_search_runs_and_picks_a_winner() {
        let base = ExperimentConfig {
            dataset: DatasetSpec::tiny(),
            machines: 1,
            devices_per_machine: 2,
            method: Method::AdaQp,
            training: TrainingConfig {
                epochs: 4,
                hidden: 16,
                num_layers: 2,
                dropout: 0.0,
                ..TrainingConfig::default()
            },
            seed: 99,
        };
        let grid = TuneGrid {
            group_sizes: vec![16, 64],
            lambdas: vec![0.5],
            periods: vec![2],
        };
        let report = grid_search(&base, &grid, 0.002).expect("valid grid");
        assert_eq!(report.trials.len(), 2);
        assert!(report.best < 2);
        let b = &report.trials[report.best];
        assert!(b.val_score >= 0.0 && b.throughput > 0.0);
    }

    #[test]
    fn empty_grid_is_an_error() {
        let base = ExperimentConfig {
            dataset: DatasetSpec::tiny(),
            machines: 1,
            devices_per_machine: 1,
            method: Method::AdaQp,
            training: TrainingConfig::default(),
            seed: 0,
        };
        let grid = TuneGrid {
            group_sizes: vec![],
            lambdas: vec![0.5],
            periods: vec![1],
        };
        let err = grid_search(&base, &grid, 0.002);
        assert!(matches!(err, Err(Error::InvalidConfig(msg)) if msg.contains("empty")));
    }
}

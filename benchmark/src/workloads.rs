//! The four pinned workloads. Each is a closed loop of whole
//! `run_experiment` calls in a process of its own; fields not set here are
//! `TrainingConfig::default()`, including `threads = 0`, the kernel-thread
//! default a user gets.

use adaqp::{ExperimentConfig, Method, TopologySpec, TrainingConfig};
use graph::DatasetSpec;

pub struct Workload {
    pub name: &'static str,
    /// One line on which layers the workload loads and which it bypasses.
    pub why: &'static str,
    /// A repetition whose `test_at_best` falls below this fails: the run
    /// must actually have learned something. Set well under the lowest
    /// score seen over forty seeds, so it trips on a broken trainer, not on
    /// an unlucky seed; 0 where 3 epochs are too few to learn anything
    /// reliably.
    test_floor: f64,
    build: fn(u64) -> ExperimentConfig,
}

impl Workload {
    /// The workload's configuration for `seed`; `smoke` keeps the shape
    /// (dataset, cluster, method, widths) and cuts training to 2 epochs.
    pub fn config(&self, seed: u64, smoke: bool) -> ExperimentConfig {
        let mut cfg = (self.build)(seed);
        if smoke {
            cfg.training.epochs = 2;
        }
        cfg
    }

    /// The `test_at_best` floor for a run of [`Workload::config`]; a smoke
    /// run's 2 epochs are not held to one.
    pub fn test_floor(&self, smoke: bool) -> f64 {
        if smoke {
            0.0
        } else {
            self.test_floor
        }
    }
}

/// One 8-device machine. (The partitioner does not know which devices share
/// a machine, so on 2M-4D the simulated epoch time swings by a quarter from
/// seed to seed with how the cut happens to fall across the slow link; no
/// bound survives that. On one machine it moves by 5 %.)
fn dense8_vanilla(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        dataset: DatasetSpec::reddit_sim(),
        machines: 1,
        devices_per_machine: 8,
        method: Method::Vanilla,
        training: TrainingConfig {
            hidden: 128,
            epochs: 20,
            ..TrainingConfig::default()
        },
        seed,
    }
}

fn halo32(method: Method, seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        dataset: DatasetSpec::reddit_sim(),
        machines: 8,
        devices_per_machine: 4,
        method,
        training: TrainingConfig {
            hidden: 32,
            epochs: 20,
            reassign_period: 5,
            ..TrainingConfig::default()
        },
        seed,
    }
}

fn fleet256_adaqp(seed: u64) -> ExperimentConfig {
    let mut training = TrainingConfig {
        use_sage: true,
        hidden: 8,
        epochs: 3,
        reassign_period: 1,
        ..TrainingConfig::default()
    };
    let mut topology = TopologySpec::from_training(&training);
    topology.machines_per_rack = Some(8);
    training.topology = Some(topology.oversubscription(4.0));
    ExperimentConfig {
        // ~75 nodes per device, the weak-scaling point of table7_scalability.
        dataset: DatasetSpec::tiny().scaled(64.0),
        machines: 64,
        devices_per_machine: 4,
        method: Method::AdaQp,
        training,
        seed,
    }
}

pub const ALL: &[Workload] = &[
    Workload {
        name: "dense8_vanilla",
        why: "reddit-sim on one 8-device machine, hidden 128, fp32: tensor matmul/layer-norm and gnn aggregate \
              do most of the work; codec, assigner and solver do none",
        test_floor: 0.30,
        build: dense8_vanilla,
    },
    Workload {
        name: "halo32_adaqp",
        why: "reddit-sim on 32 devices, hidden 32, AdaQP: small dense work and a large cut, so the \
              quantised exchange path (codec, exchange, tracing, assigner) is where host time goes",
        test_floor: 0.30,
        build: |seed| halo32(Method::AdaQp, seed),
    },
    Workload {
        name: "halo32_vanilla",
        why: "halo32_adaqp with fp32 messages: the same exchange layer with no codec, which a codec \
              change must not move; denominator of sim_speedup_vs_vanilla",
        test_floor: 0.30,
        build: |seed| halo32(Method::Vanilla, seed),
    },
    Workload {
        name: "fleet256_adaqp",
        why: "19 200 nodes on 256 racked devices, hidden 8, reassign every epoch: kernels are idle; \
              the event scheduler, thread-per-device adapter and master solve are the run",
        test_floor: 0.0,
        build: fleet256_adaqp,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_validate_and_have_the_advertised_shape() {
        let devices: Vec<usize> = ALL
            .iter()
            .map(|w| {
                let cfg = w.config(4242, false);
                cfg.validate().expect("workload config is valid");
                assert_eq!(cfg.seed, 4242);
                assert_eq!(
                    cfg.training.threads, 0,
                    "kernel threads stay at the user default"
                );
                assert!(!cfg.training.telemetry && !cfg.training.metrics && !cfg.training.profile);
                cfg.num_devices()
            })
            .collect();
        assert_eq!(devices, [8, 32, 32, 256]);
        assert_eq!(
            find("fleet256_adaqp")
                .unwrap()
                .config(1, false)
                .dataset
                .num_nodes,
            19_200
        );
    }

    #[test]
    fn halo32_twins_differ_only_in_method() {
        let mut a = find("halo32_adaqp").unwrap().config(7, false);
        let v = find("halo32_vanilla").unwrap().config(7, false);
        assert_eq!(a.method, Method::AdaQp);
        a.method = Method::Vanilla;
        assert_eq!(a, v);
    }

    #[test]
    fn smoke_keeps_the_shape_and_cuts_epochs() {
        for w in ALL {
            let full = w.config(3, false);
            let mut smoke = w.config(3, true);
            assert_eq!(smoke.training.epochs, 2);
            smoke.training.epochs = full.training.epochs;
            assert_eq!(smoke, full);
        }
    }
}

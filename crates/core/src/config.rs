//! Experiment and training configuration (the Rust mirror of Table 8).

use crate::error::Error;
use graph::DatasetSpec;
use serde::Serialize;

/// Training system under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Method {
    /// Synchronous full-precision distributed full-graph training.
    Vanilla,
    /// The paper's system: adaptive quantization + central/marginal overlap.
    AdaQp,
    /// Ablation: uniform-random bit-width per message group (Sec. 5.3).
    AdaQpUniform,
    /// PipeGCN-style cross-iteration pipelining with stale halos.
    PipeGcn,
    /// SANCUS-style staleness-aware broadcast skipping.
    Sancus,
}

impl Method {
    /// All methods in the comparison order of Table 4.
    pub const ALL: [Method; 5] = [
        Method::Vanilla,
        Method::PipeGcn,
        Method::Sancus,
        Method::AdaQp,
        Method::AdaQpUniform,
    ];

    /// Paper-style display name.
    pub fn name(self) -> &'static str {
        match self {
            Method::Vanilla => "Vanilla",
            Method::AdaQp => "AdaQP",
            Method::AdaQpUniform => "AdaQP-Uniform",
            Method::PipeGcn => "PipeGCN",
            Method::Sancus => "SANCUS",
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Model / optimization hyper-parameters (Table 8), plus the knobs of the
/// Adaptive Bit-width Assigner (group size, lambda, re-assignment period) and
/// the cost-model calibration (compute speed and the `topology` section).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrainingConfig {
    /// Convolution family (`Gcn` or `Sage`). Stored as a flag rather than
    /// `gnn::ConvKind` so configs serialize cleanly.
    pub use_sage: bool,
    /// Number of GNN layers (paper: 3).
    pub num_layers: usize,
    /// Hidden dimension (paper: 256; scaled down with the graphs here).
    pub hidden: usize,
    /// Learning rate (paper: 0.01).
    pub lr: f32,
    /// Dropout on hidden layers.
    pub dropout: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Messages per bit-width group (Sec. 4.2 grouping; Table 8 uses
    /// 100-2000 at full scale).
    pub group_size: usize,
    /// Scalarization weight between variance and time objectives
    /// (Eqn. 12; paper default 0.5).
    pub lambda: f64,
    /// Bit-width re-assignment period, in epochs (paper sensitivity best: 50).
    pub reassign_period: usize,
    /// SANCUS broadcast-refresh period, in epochs.
    pub sancus_staleness: usize,
    /// Ablation switch: when true, AdaQP does *not* overlap central-graph
    /// computation with marginal-graph communication (Sec. 3.4 disabled);
    /// epoch time composes serially like Vanilla's.
    pub disable_overlap: bool,
    /// Extension (not in the paper): error-feedback quantization — each
    /// device keeps the quantization residual of every message it sends and
    /// adds it back before the next quantization, turning the unbiased
    /// stochastic error into a compensated one (Wu et al. 2018 style).
    pub error_feedback: bool,
    /// Simulated device speed as a multiple of one CPU thread's op rate
    /// (`comm::costmodel::BASE_CPU_OPS_PER_SEC`).
    pub compute_speedup: f64,
    /// Optional per-device compute-speed multipliers for heterogeneous
    /// clusters (the paper's 6M-4D testbed mixes V100 and A100 machines);
    /// length must equal the device count when set.
    pub device_scales: Option<Vec<f64>>,
    /// Attach the span view of the run's flight log
    /// ([`crate::TelemetryLog`]: halo transfers, quantization, compute
    /// phases, solves, on every device's simulated clock) as
    /// [`crate::metrics::RunResult::telemetry`]. A run records its one log
    /// when this or `profile` is set; the two only choose which views of it
    /// are attached. Off by default; with both off nothing is recorded and
    /// simulated numerics and runtime are unchanged.
    pub telemetry: bool,
    /// Count typed metrics (per-device communication volume, per-width
    /// quantization error, solver iterations, per-epoch training metrics):
    /// every device keeps plain tallies, folded after the run into its one
    /// [`obs::Registry`] and attached as
    /// [`crate::metrics::RunResult::metrics`]. Off by default; when off
    /// nothing is counted and no registry exists. The snapshot contains
    /// only deterministic series, byte-identical at any worker thread
    /// count.
    pub metrics: bool,
    /// Worker threads for the deterministic parallel kernel runtime
    /// (aggregation, quantization, dense ops). `0` (the default) picks the
    /// host's available parallelism, honoring the `ADAQP_THREADS` env var.
    /// Results are byte-identical at any setting; only host wall-clock
    /// changes.
    pub threads: usize,
    /// Run the determinism sanitizer (`adaqp-san`, see `tensor::san`): every
    /// instrumented parallel kernel verifies its chunk ownership claims and
    /// re-executes under adversarial chunk orders and worker counts, and the
    /// run fails with [`crate::Error::Sanitizer`] on any violation. Results
    /// are unchanged (the sanitizer only verifies and re-executes); host
    /// wall-clock is not — never benchmark sanitized runs. Off by default;
    /// the `ADAQP_SAN` env var enables the mode independently of this flag.
    pub sanitize: bool,
    /// Attach the critical-path view of the run's flight log: the log
    /// itself (every charge, and the collective count) and the report
    /// analysed from it (`obs::critpath`), returned by
    /// [`crate::run_experiment_profiled`] as a [`crate::RunProfile`]. See
    /// `telemetry` for when the log is recorded. Off by default; with both
    /// off a device pays one untaken branch per charge, and results are
    /// byte-identical either way.
    pub profile: bool,
    /// The network: link bandwidths and latency per tier, and racks behind
    /// an oversubscribable spine. `None` (the default) is the paper-preset
    /// network, [`TopologySpec::default`]: one rack, so machines share one
    /// switch.
    pub topology: Option<TopologySpec>,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        Self {
            use_sage: false,
            num_layers: 3,
            hidden: 64,
            lr: 0.01,
            dropout: 0.5,
            epochs: 60,
            group_size: 64,
            lambda: 0.5,
            reassign_period: 20,
            sancus_staleness: 8,
            disable_overlap: false,
            error_feedback: false,
            compute_speedup: comm::costmodel::DEFAULT_COMPUTE_SPEEDUP,
            device_scales: None,
            telemetry: false,
            metrics: false,
            threads: 0,
            sanitize: false,
            profile: false,
            topology: None,
        }
    }
}

/// Declarative three-tier network description, the run's only network
/// section: devices within a machine (`intra_bw`), machines within a rack
/// (`inter_bw`), racks across a spine (`spine_bw`). Lowered through
/// [`comm::Topology`] by [`ExperimentConfig::network_topology`]; machine and
/// device counts come from the owning [`ExperimentConfig`], so the spec stays
/// valid across cluster sizes.
///
/// Every field is optional and falls back to the paper-preset network, so
/// [`TopologySpec::default`] is the Table 8 testbed and a spec sets only the
/// knob under study (e.g. `spine_bw: Some(16.25e6)` for an 8:1
/// oversubscribed spine).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct TopologySpec {
    /// Machines per rack; `None` keeps the whole cluster in one rack (no
    /// spine tier: the paper's two-tier testbed).
    pub machines_per_rack: Option<usize>,
    /// Intra-machine (NVLink/PCIe-class) bandwidth, bytes/second; `None`
    /// uses [`comm::costmodel::DEFAULT_INTRA_BW`].
    pub intra_bw: Option<f64>,
    /// Intra-rack machine-to-machine bandwidth, bytes/second; `None` uses
    /// [`comm::costmodel::DEFAULT_INTER_BW`].
    pub inter_bw: Option<f64>,
    /// Cross-rack spine bandwidth, bytes/second; `None` keeps the spine at
    /// the effective `inter_bw` (a non-blocking fabric).
    pub spine_bw: Option<f64>,
    /// Per-transfer latency, seconds, applied to every tier; `None` uses
    /// [`comm::costmodel::DEFAULT_LATENCY`].
    pub latency: Option<f64>,
}

impl TopologySpec {
    /// The network of `training`: its `topology` section, or the
    /// paper-preset default when it has none.
    pub fn from_training(training: &TrainingConfig) -> Self {
        training.topology.clone().unwrap_or_default()
    }

    /// Effective intra-machine bandwidth, bytes/second.
    pub fn intra_bw(&self) -> f64 {
        self.intra_bw.unwrap_or(comm::costmodel::DEFAULT_INTRA_BW)
    }

    /// Effective intra-rack bandwidth, bytes/second.
    pub fn inter_bw(&self) -> f64 {
        self.inter_bw.unwrap_or(comm::costmodel::DEFAULT_INTER_BW)
    }

    /// Effective spine bandwidth, bytes/second (falls back to
    /// [`TopologySpec::inter_bw`]).
    pub fn spine_bw(&self) -> f64 {
        self.spine_bw.unwrap_or_else(|| self.inter_bw())
    }

    /// Effective per-transfer latency, seconds.
    pub fn latency(&self) -> f64 {
        self.latency.unwrap_or(comm::costmodel::DEFAULT_LATENCY)
    }

    /// Sets the spine as an oversubscription ratio over the effective
    /// `inter_bw`: ratio `k` gives cross-rack pairs `inter_bw / k`.
    ///
    /// # Panics
    ///
    /// Panics if `ratio < 1.0`.
    pub fn oversubscription(mut self, ratio: f64) -> Self {
        assert!(ratio >= 1.0, "oversubscription ratio must be >= 1");
        self.spine_bw = Some(self.inter_bw() / ratio);
        self
    }

    /// Checks the spec for values the [`comm::Topology`] builders would
    /// reject at lowering time.
    pub fn validate(&self) -> Result<(), Error> {
        if self.machines_per_rack == Some(0) {
            return Err(Error::InvalidConfig(
                "network: machines_per_rack must be >= 1".into(),
            ));
        }
        for (name, bw) in [
            ("intra_bw", self.intra_bw()),
            ("inter_bw", self.inter_bw()),
            ("spine_bw", self.spine_bw()),
        ] {
            if !bw.is_finite() || bw <= 0.0 {
                return Err(Error::InvalidConfig(format!(
                    "network: {name} must be finite and positive (got {bw})"
                )));
            }
        }
        let latency = self.latency();
        if !latency.is_finite() || latency < 0.0 {
            return Err(Error::InvalidConfig(format!(
                "network: latency must be finite and non-negative (got {latency})"
            )));
        }
        Ok(())
    }

    /// Lowers the spec onto a concrete cluster shape.
    ///
    /// # Panics
    ///
    /// Panics on values [`TopologySpec::validate`] rejects.
    pub fn to_topology(&self, machines: usize, devices_per_machine: usize) -> comm::Topology {
        let mut topo = comm::Topology::new(machines, devices_per_machine)
            .intra_bw(self.intra_bw())
            .inter_bw(self.inter_bw())
            .latency(self.latency());
        if let Some(mpr) = self.machines_per_rack {
            topo = topo.machines_per_rack(mpr);
        }
        if let Some(spine) = self.spine_bw {
            topo = topo.spine_bw(spine);
        }
        topo
    }
}

impl TrainingConfig {
    /// Layer dimension vector `[in, hidden, ..., classes]`.
    pub fn dims(&self, in_dim: usize, num_classes: usize) -> Vec<usize> {
        let mut dims = Vec::with_capacity(self.num_layers + 1);
        dims.push(in_dim);
        for _ in 0..self.num_layers.saturating_sub(1) {
            dims.push(self.hidden);
        }
        dims.push(num_classes);
        dims
    }

    /// Convolution kind.
    pub fn conv_kind(&self) -> gnn::ConvKind {
        if self.use_sage {
            gnn::ConvKind::Sage
        } else {
            gnn::ConvKind::Gcn
        }
    }

    /// The per-dataset configuration of the paper's Table 8 (epochs, message
    /// group size, dropout; lambda is 0.5 and lr 0.01 everywhere), scaled to
    /// this reproduction: group sizes shrink with the graphs (the paper uses
    /// 100-2000 on graphs ~40x larger) and epoch counts are capped so runs
    /// finish on a CPU.
    ///
    /// Unknown names return the defaults.
    pub fn paper_preset(dataset_name: &str) -> Self {
        let base = Self::default();
        match dataset_name {
            // Table 8: Reddit — 500 epochs, group 100, dropout 0.5.
            name if name.starts_with("reddit") => Self {
                epochs: 120,
                group_size: 32,
                dropout: 0.5,
                ..base
            },
            // Yelp — 1000 epochs, group 1000, dropout 0.1.
            name if name.starts_with("yelp") => Self {
                epochs: 150,
                group_size: 128,
                dropout: 0.1,
                ..base
            },
            // ogbn-products — 250 epochs, group 2000, dropout 0.5.
            name if name.starts_with("ogbn-products") => Self {
                epochs: 100,
                group_size: 256,
                dropout: 0.5,
                ..base
            },
            // AmazonProducts — 1200 epochs, group 500, dropout 0.5.
            name if name.starts_with("amazon") => Self {
                epochs: 150,
                group_size: 64,
                dropout: 0.5,
                ..base
            },
            _ => base,
        }
    }
}

/// A complete experiment: dataset, cluster shape, method and
/// hyper-parameters.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExperimentConfig {
    /// Dataset generator recipe.
    pub dataset: DatasetSpec,
    /// Machines in the simulated cluster (`x` of `xM-yD`).
    pub machines: usize,
    /// Devices per machine (`y` of `xM-yD`).
    pub devices_per_machine: usize,
    /// Method under test.
    pub method: Method,
    /// Hyper-parameters.
    pub training: TrainingConfig,
    /// Seed for dataset generation, partitioning, init and quantization.
    pub seed: u64,
}

impl ExperimentConfig {
    /// Checks the configuration for misuse that would otherwise panic deep
    /// inside dataset generation, partitioning or the cluster: a dataset
    /// spec its generator cannot build ([`graph::DatasetSpec::validate`]),
    /// zero devices, zero epochs, empty hidden layers, a dropout outside
    /// `[0, 1)`, an empty quantization group, a non-finite `lambda`, a
    /// `topology` section the cost model cannot price, a `compute_speedup` that is not finite and positive, or a
    /// `device_scales` vector whose length disagrees with the device count.
    pub fn validate(&self) -> Result<(), Error> {
        self.dataset.validate().map_err(Error::InvalidConfig)?;
        if self.machines == 0 || self.devices_per_machine == 0 {
            return Err(Error::InvalidConfig(format!(
                "need at least one device (got {} machines x {} devices)",
                self.machines, self.devices_per_machine
            )));
        }
        if self.training.epochs == 0 {
            return Err(Error::InvalidConfig("epochs must be >= 1".into()));
        }
        if self.training.num_layers == 0 {
            return Err(Error::InvalidConfig("num_layers must be >= 1".into()));
        }
        if self.training.hidden == 0 {
            return Err(Error::InvalidConfig("hidden dimension must be > 0".into()));
        }
        if self.training.group_size == 0 {
            return Err(Error::InvalidConfig(
                "quantization group_size must be > 0".into(),
            ));
        }
        // `contains` is false for NaN, so NaN is refused too.
        if !(0.0..1.0).contains(&self.training.dropout) {
            return Err(Error::InvalidConfig(format!(
                "dropout must be in [0, 1) (got {})",
                self.training.dropout
            )));
        }
        if !self.training.lambda.is_finite() {
            return Err(Error::InvalidConfig(format!(
                "lambda must be finite (got {})",
                self.training.lambda
            )));
        }
        TopologySpec::from_training(&self.training).validate()?;
        let speedup = self.training.compute_speedup;
        if !speedup.is_finite() || speedup <= 0.0 {
            return Err(Error::InvalidConfig(format!(
                "compute_speedup must be finite and positive (got {speedup})"
            )));
        }
        if let Some(scales) = &self.training.device_scales {
            if scales.len() != self.num_devices() {
                return Err(Error::InvalidConfig(format!(
                    "device_scales has {} entries but the cluster has {} devices",
                    scales.len(),
                    self.num_devices()
                )));
            }
            if scales.iter().any(|s| *s <= 0.0 || !s.is_finite()) {
                return Err(Error::InvalidConfig(
                    "device_scales entries must be finite and positive".into(),
                ));
            }
        }
        Ok(())
    }

    /// Total device count.
    pub fn num_devices(&self) -> usize {
        self.machines * self.devices_per_machine
    }

    /// Paper-style partition label, e.g. `2M-4D`.
    pub fn partition_label(&self) -> String {
        format!("{}M-{}D", self.machines, self.devices_per_machine)
    }

    /// The three-tier network topology of this configuration's `topology`
    /// section ([`TopologySpec::from_training`]) on its cluster shape.
    pub fn network_topology(&self) -> comm::Topology {
        TopologySpec::from_training(&self.training)
            .to_topology(self.machines, self.devices_per_machine)
    }

    /// The cost model implied by this configuration, lowered through
    /// [`ExperimentConfig::network_topology`]. Without a `topology` section
    /// this is the paper's two-tier model: `1 / DEFAULT_INTRA_BW` within a
    /// machine, `1 / DEFAULT_INTER_BW` across machines.
    ///
    /// # Panics
    ///
    /// Panics on a configuration [`ExperimentConfig::validate`] rejects.
    pub fn cost_model(&self) -> comm::CostModel {
        let cm = self
            .network_topology()
            .cost_model()
            .with_compute_speedup(self.training.compute_speedup);
        match &self.training.device_scales {
            Some(scales) => cm.with_device_scales(scales.clone()),
            None => cm,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A valid 1M-2D Vanilla run on the tiny dataset with default
    /// hyper-parameters.
    fn tiny_cfg() -> ExperimentConfig {
        ExperimentConfig {
            dataset: DatasetSpec::tiny(),
            machines: 1,
            devices_per_machine: 2,
            method: Method::Vanilla,
            training: TrainingConfig::default(),
            seed: 0,
        }
    }

    #[test]
    fn default_config_matches_paper_shape() {
        let c = TrainingConfig::default();
        assert_eq!(c.num_layers, 3);
        assert_eq!(c.lr, 0.01);
        assert_eq!(c.lambda, 0.5);
        assert!(!c.use_sage);
    }

    /// The value the written config records under `key` for the default
    /// training config.
    fn written_default(key: &str) -> serde_json::Value {
        serde_json::to_value(&TrainingConfig::default())[key].clone()
    }

    #[test]
    fn telemetry_field_defaults_off_and_deserializes_when_absent() {
        assert!(!TrainingConfig::default().telemetry);
        assert_eq!(written_default("telemetry").as_bool(), Some(false));
        let mut on = tiny_cfg();
        on.training.telemetry = true;
        assert!(on.validate().is_ok());
    }

    #[test]
    fn metrics_field_defaults_off_and_deserializes_when_absent() {
        assert!(!TrainingConfig::default().metrics);
        assert_eq!(written_default("metrics").as_bool(), Some(false));
        let mut on = tiny_cfg();
        on.training.metrics = true;
        assert!(on.validate().is_ok());
    }

    #[test]
    fn profile_field_defaults_off_and_deserializes_when_absent() {
        assert!(!TrainingConfig::default().profile);
        assert_eq!(written_default("profile").as_bool(), Some(false));
        let mut on = tiny_cfg();
        on.training.profile = true;
        assert!(on.validate().is_ok());
    }

    #[test]
    fn threads_field_defaults_to_auto_and_deserializes_when_absent() {
        // 0 picks the host's parallelism.
        assert_eq!(TrainingConfig::default().threads, 0);
        assert_eq!(written_default("threads").as_u64(), Some(0));
        let mut pinned = tiny_cfg();
        pinned.training.threads = 4;
        assert!(pinned.validate().is_ok());
    }

    #[test]
    fn topology_section_defaults_absent_and_deserializes_when_absent() {
        assert!(TrainingConfig::default().topology.is_none());
        assert!(written_default("topology").is_null());
        // No section is the paper-preset network.
        let spec = TopologySpec::from_training(&TrainingConfig::default());
        assert_eq!(spec, TopologySpec::default());
        assert_eq!(spec.inter_bw(), comm::costmodel::DEFAULT_INTER_BW);
    }

    #[test]
    fn sanitize_field_defaults_off_and_deserializes_when_absent() {
        assert!(!TrainingConfig::default().sanitize);
        assert_eq!(written_default("sanitize").as_bool(), Some(false));
        let mut on = tiny_cfg();
        on.training.sanitize = true;
        assert!(on.validate().is_ok());
    }

    #[test]
    fn dims_layout() {
        let c = TrainingConfig {
            num_layers: 3,
            hidden: 64,
            ..TrainingConfig::default()
        };
        assert_eq!(c.dims(100, 7), vec![100, 64, 64, 7]);
        let c1 = TrainingConfig {
            num_layers: 1,
            ..TrainingConfig::default()
        };
        assert_eq!(c1.dims(10, 3), vec![10, 3]);
    }

    #[test]
    fn experiment_labels() {
        let e = ExperimentConfig {
            dataset: DatasetSpec::tiny(),
            machines: 2,
            devices_per_machine: 4,
            method: Method::AdaQp,
            training: TrainingConfig::default(),
            seed: 0,
        };
        assert_eq!(e.num_devices(), 8);
        assert_eq!(e.partition_label(), "2M-4D");
        assert_eq!(e.cost_model().num_devices(), 8);
    }

    #[test]
    fn method_names() {
        assert_eq!(Method::AdaQp.to_string(), "AdaQP");
        assert_eq!(Method::ALL.len(), 5);
    }

    #[test]
    fn paper_presets_differ_per_dataset() {
        let reddit = TrainingConfig::paper_preset("reddit-sim");
        let yelp = TrainingConfig::paper_preset("yelp-sim");
        let products = TrainingConfig::paper_preset("ogbn-products-sim");
        // Table 8's relative ordering of dropout/group sizes is preserved.
        assert_eq!(yelp.dropout, 0.1);
        assert_eq!(reddit.dropout, 0.5);
        assert!(products.group_size > reddit.group_size);
        // Everything shares the paper-wide constants.
        for c in [&reddit, &yelp, &products] {
            assert_eq!(c.lr, 0.01);
            assert_eq!(c.lambda, 0.5);
            assert_eq!(c.num_layers, 3);
        }
        // Unknown names fall back to defaults.
        assert_eq!(
            TrainingConfig::paper_preset("nope"),
            TrainingConfig::default()
        );
    }

    #[test]
    fn validate_rejects_misuse() {
        let ok = tiny_cfg();
        assert!(ok.validate().is_ok());

        let zero_dev = ExperimentConfig {
            machines: 0,
            ..ok.clone()
        };
        assert!(matches!(
            zero_dev.validate(),
            Err(Error::InvalidConfig(msg)) if msg.contains("device")
        ));

        let mut zero_epochs = ok.clone();
        zero_epochs.training.epochs = 0;
        assert!(zero_epochs.validate().is_err());

        let mut zero_hidden = ok.clone();
        zero_hidden.training.hidden = 0;
        assert!(zero_hidden.validate().is_err());

        let mut zero_group = ok.clone();
        zero_group.training.group_size = 0;
        assert!(zero_group.validate().is_err());

        for dropout in [-0.1, 1.0, 1.5, f32::NAN] {
            let mut bad_dropout = ok.clone();
            bad_dropout.training.dropout = dropout;
            assert!(matches!(
                bad_dropout.validate(),
                Err(Error::InvalidConfig(msg)) if msg.contains("dropout")
            ));
        }
        let mut no_dropout = ok.clone();
        no_dropout.training.dropout = 0.0;
        assert!(no_dropout.validate().is_ok());

        for lambda in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bad_lambda = ok.clone();
            bad_lambda.training.lambda = lambda;
            assert!(matches!(
                bad_lambda.validate(),
                Err(Error::InvalidConfig(msg)) if msg.contains("lambda")
            ));
        }

        // The cost model would panic on these network sections.
        let with_network = |spec: TopologySpec| {
            let mut cfg = ok.clone();
            cfg.training.topology = Some(spec);
            cfg
        };
        for bw in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let bad_inter = with_network(TopologySpec {
                inter_bw: Some(bw),
                ..TopologySpec::default()
            });
            assert!(matches!(
                bad_inter.validate(),
                Err(Error::InvalidConfig(msg)) if msg.contains("inter_bw")
            ));
            let bad_intra = with_network(TopologySpec {
                intra_bw: Some(bw),
                ..TopologySpec::default()
            });
            assert!(matches!(
                bad_intra.validate(),
                Err(Error::InvalidConfig(msg)) if msg.contains("intra_bw")
            ));
        }
        for latency in [-1.0, f64::NAN, f64::INFINITY] {
            let bad_latency = with_network(TopologySpec {
                latency: Some(latency),
                ..TopologySpec::default()
            });
            assert!(matches!(
                bad_latency.validate(),
                Err(Error::InvalidConfig(msg)) if msg.contains("latency")
            ));
        }
        for speedup in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut bad_speedup = ok.clone();
            bad_speedup.training.compute_speedup = speedup;
            assert!(matches!(
                bad_speedup.validate(),
                Err(Error::InvalidConfig(msg)) if msg.contains("compute_speedup")
            ));
        }

        let mut bad_scales = ok.clone();
        bad_scales.training.device_scales = Some(vec![1.0; ok.num_devices() + 1]);
        assert!(matches!(
            bad_scales.validate(),
            Err(Error::InvalidConfig(msg)) if msg.contains("device_scales")
        ));

        // Dataset specs the generator would panic on, each named.
        type Edit = fn(&mut DatasetSpec);
        let bad_datasets: [(&str, Edit); 12] = [
            ("num_classes", |d| d.num_classes = 0),
            ("num_nodes", |d| d.num_nodes = 0),
            ("num_nodes", |d| d.num_nodes = 1),
            ("feature_dim", |d| d.feature_dim = 0),
            ("avg_in_degree", |d| d.avg_in_degree = f64::NAN),
            ("avg_in_degree", |d| d.avg_in_degree = f64::NEG_INFINITY),
            ("avg_out_degree", |d| d.avg_out_degree = f64::NAN),
            ("gateway_frac", |d| d.gateway_frac = 2.0),
            ("class_homophily", |d| d.class_homophily = f64::NAN),
            ("train_frac", |d| d.train_frac = f64::NAN),
            ("train_frac", |d| d.train_frac = 1.5),
            ("train_frac + val_frac", |d| d.val_frac = 0.5),
        ];
        for (field, edit) in bad_datasets {
            let mut bad = ok.clone();
            edit(&mut bad.dataset);
            assert!(
                matches!(bad.validate(), Err(Error::InvalidConfig(ref msg)) if msg.contains(field)),
                "{field}: {:?}",
                bad.validate()
            );
        }
    }

    #[test]
    fn cost_model_without_topology_matches_legacy_two_tier_exactly() {
        // Byte-identity of the pinned runs depends on this: the tier lookup
        // must not move a single float of the two-tier tables the legacy
        // constructor wrote from the paper-preset link parameters.
        use comm::costmodel::{DEFAULT_INTER_BW, DEFAULT_INTRA_BW, DEFAULT_LATENCY};
        let cfg = ExperimentConfig {
            machines: 2,
            devices_per_machine: 4,
            ..tiny_cfg()
        };
        assert!(cfg.validate().is_ok());
        assert!(cfg.training.topology.is_none());
        let cm = cfg.cost_model();
        assert_eq!(cm.num_devices(), 8);
        assert_eq!(cm.compute_speedup, cfg.training.compute_speedup);
        for src in 0..8 {
            for dst in 0..8 {
                let want = if src == dst {
                    (0.0, 0.0)
                } else if src / 4 == dst / 4 {
                    (1.0 / DEFAULT_INTRA_BW, DEFAULT_LATENCY)
                } else {
                    (1.0 / DEFAULT_INTER_BW, DEFAULT_LATENCY)
                };
                assert_eq!(cm.link_params(src, dst), want, "{src} -> {dst}");
            }
        }
    }

    #[test]
    fn topology_section_orders_the_tiers() {
        let mut cfg = ExperimentConfig {
            machines: 4,
            devices_per_machine: 2,
            ..tiny_cfg()
        };
        let spec = TopologySpec {
            machines_per_rack: Some(2),
            ..TopologySpec::from_training(&cfg.training)
        };
        cfg.training.topology = Some(spec.oversubscription(4.0));
        assert!(cfg.validate().is_ok());
        let topo = cfg.network_topology();
        assert_eq!(topo.num_racks(), 2);
        assert_eq!(topo.label(), "2R-4M-2D");
        let cm = cfg.cost_model();
        let mb = 1 << 20;
        assert!(cm.transfer_time(0, 1, mb) < cm.transfer_time(0, 2, mb));
        assert!(cm.transfer_time(0, 2, mb) < cm.transfer_time(0, 4, mb));
    }

    #[test]
    fn oversubscription_seeds_from_custom_inter_bw() {
        let training = TrainingConfig {
            topology: Some(TopologySpec {
                inter_bw: Some(1e8),
                ..TopologySpec::default()
            }),
            ..TrainingConfig::default()
        };
        // The CLI's `--rack-size`/`--oversub` path: seed from the run's
        // section, then oversubscribe.
        let spec = TopologySpec {
            machines_per_rack: Some(2),
            ..TopologySpec::from_training(&training)
        };
        let spec = spec.oversubscription(2.0);
        assert_eq!(spec.inter_bw, Some(1e8));
        assert_eq!(spec.spine_bw, Some(5e7));
        let mut cfg = ExperimentConfig {
            machines: 4,
            devices_per_machine: 1,
            training,
            ..tiny_cfg()
        };
        cfg.training.topology = Some(spec);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_topology() {
        let ok = tiny_cfg();

        let mut zero_rack = ok.clone();
        zero_rack.training.topology = Some(TopologySpec {
            machines_per_rack: Some(0),
            ..Default::default()
        });
        assert!(matches!(
            zero_rack.validate(),
            Err(Error::InvalidConfig(msg)) if msg.contains("machines_per_rack")
        ));

        let mut bad_bw = ok.clone();
        bad_bw.training.topology = Some(TopologySpec {
            inter_bw: Some(0.0),
            ..Default::default()
        });
        assert!(matches!(
            bad_bw.validate(),
            Err(Error::InvalidConfig(msg)) if msg.contains("inter_bw")
        ));

        let mut bad_spine = ok.clone();
        bad_spine.training.topology = Some(TopologySpec {
            spine_bw: Some(f64::NAN),
            ..Default::default()
        });
        assert!(bad_spine.validate().is_err());

        let mut bad_latency = ok;
        bad_latency.training.topology = Some(TopologySpec {
            latency: Some(-1.0),
            ..Default::default()
        });
        assert!(bad_latency.validate().is_err());
    }
}

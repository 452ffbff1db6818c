//! Scaled-down synthetic stand-ins for the paper's benchmark datasets.
//!
//! The original datasets (Table 3) are multi-gigabyte downloads:
//!
//! | Dataset        | #Nodes    | #Edges      | #Feat | #Classes | Task |
//! |----------------|-----------|-------------|-------|----------|------|
//! | Reddit         | 232,965   | 114,615,892 | 602   | 41       | single-label |
//! | Yelp           | 716,847   | 6,977,410   | 300   | 100      | multi-label |
//! | ogbn-products  | 2,449,029 | 61,859,140  | 100   | 47       | single-label |
//! | AmazonProducts | 1,569,960 | 264,339,468 | 200   | 107      | multi-label |
//!
//! The stand-ins generated here preserve the *relative* properties that drive
//! AdaQP's results — Reddit is by far the densest (avg degree ~492), ogbn-
//! products the sparsest (~25), AmazonProducts dense (~168), Yelp sparse
//! (~10); Reddit has the widest features; Yelp/Amazon are multi-label — at a
//! scale a CPU-only reproduction can train end-to-end.

use crate::generators::{
    class_features, community_positions, locality_community_graph, multilabel_classes,
    skewed_communities, split_masks,
};
use crate::CsrGraph;
use serde::{Deserialize, Serialize};
use tensor::{multilabel_targets_from_classes, Matrix, Rng};

/// Learning task type, which selects the loss and metric (Sec. 5: accuracy
/// for single-label, micro-F1 for multi-label).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Task {
    /// One class per node; softmax cross-entropy; accuracy metric.
    SingleLabel,
    /// A set of classes per node; sigmoid BCE; micro-F1 metric.
    MultiLabel,
}

/// Node labels, matching the dataset's [`Task`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Labels {
    /// `classes[v]` is the class of node `v`.
    Single(Vec<usize>),
    /// 0/1 target matrix, one row per node.
    Multi(Matrix),
}

impl Labels {
    /// Number of labeled nodes.
    pub fn len(&self) -> usize {
        match self {
            Labels::Single(v) => v.len(),
            Labels::Multi(m) => m.rows(),
        }
    }

    /// True when there are no labels.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A complete synthetic dataset: graph, features, labels and splits.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Short name (e.g. `"reddit-sim"`).
    pub name: String,
    /// Undirected input graph (no self loops; models add their own).
    pub graph: CsrGraph,
    /// `num_nodes x feature_dim` node features.
    pub features: Matrix,
    /// Node labels.
    pub labels: Labels,
    /// Number of classes.
    pub num_classes: usize,
    /// Task type.
    pub task: Task,
    /// Training-node mask.
    pub train_mask: Vec<bool>,
    /// Validation-node mask.
    pub val_mask: Vec<bool>,
    /// Test-node mask.
    pub test_mask: Vec<bool>,
}

impl Dataset {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Feature dimension.
    pub fn feature_dim(&self) -> usize {
        self.features.cols()
    }

    /// Single-label class vector.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is multi-label.
    #[expect(clippy::panic, reason = "documented accessor contract")]
    pub fn single_labels(&self) -> &[usize] {
        match &self.labels {
            Labels::Single(v) => v,
            Labels::Multi(_) => panic!("dataset {} is multi-label", self.name),
        }
    }

    /// Multi-label target matrix.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is single-label.
    #[expect(clippy::panic, reason = "documented accessor contract")]
    pub fn multi_targets(&self) -> &Matrix {
        match &self.labels {
            Labels::Multi(m) => m,
            Labels::Single(_) => panic!("dataset {} is single-label", self.name),
        }
    }

    /// In-memory size of features + labels, in bytes (for Table 3's Size
    /// column).
    pub fn payload_bytes(&self) -> usize {
        let feat = self.features.len() * 4;
        let lab = match &self.labels {
            Labels::Single(v) => v.len() * 8,
            Labels::Multi(m) => m.len() * 4,
        };
        feat + lab
    }
}

/// Recipe for generating a synthetic dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Dataset name.
    pub name: String,
    /// Node count.
    pub num_nodes: usize,
    /// Average intra-community degree.
    pub avg_in_degree: f64,
    /// Average inter-community degree.
    pub avg_out_degree: f64,
    /// Fraction of each community's nodes carrying cross-community edges
    /// (graph locality; see [`crate::generators::sbm_with_gateways`]).
    pub gateway_frac: f64,
    /// Classes per graph community. With 1, labels coincide with communities
    /// and any GNN saturates; larger values mix several feature-defined
    /// classes inside each community, so classification depends on message
    /// fidelity (where quantization/staleness effects become visible).
    pub classes_per_community: usize,
    /// Locality of intra-community wiring: probability that an edge is a
    /// short ring-distance link (see
    /// [`crate::generators::locality_community_graph`]). Higher values mean
    /// more class homophily (classes are contiguous position chunks).
    pub class_homophily: f64,
    /// Feature dimension.
    pub feature_dim: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Task type.
    pub task: Task,
    /// Feature separability signal strength.
    pub signal: f32,
    /// Feature noise level.
    pub noise: f32,
    /// Training fraction.
    pub train_frac: f64,
    /// Validation fraction.
    pub val_frac: f64,
}

impl DatasetSpec {
    /// Reddit stand-in: densest graph, widest features, single-label.
    pub fn reddit_sim() -> Self {
        Self {
            name: "reddit-sim".into(),
            num_nodes: 6_000,
            avg_in_degree: 48.0,
            avg_out_degree: 8.0,
            gateway_frac: 0.3,
            classes_per_community: 4,
            class_homophily: 0.92,
            feature_dim: 96,
            num_classes: 41,
            task: Task::SingleLabel,
            signal: 1.0,
            noise: 0.7,
            train_frac: 0.66,
            val_frac: 0.10,
        }
    }

    /// Yelp stand-in: sparse, multi-label.
    pub fn yelp_sim() -> Self {
        Self {
            name: "yelp-sim".into(),
            num_nodes: 10_000,
            avg_in_degree: 8.0,
            avg_out_degree: 1.2,
            gateway_frac: 0.2,
            classes_per_community: 4,
            class_homophily: 0.92,
            feature_dim: 64,
            num_classes: 50,
            task: Task::MultiLabel,
            signal: 1.0,
            noise: 0.6,
            train_frac: 0.75,
            val_frac: 0.10,
        }
    }

    /// ogbn-products stand-in: large node count, narrow features,
    /// single-label.
    pub fn ogbn_products_sim() -> Self {
        Self {
            name: "ogbn-products-sim".into(),
            num_nodes: 14_000,
            avg_in_degree: 20.0,
            avg_out_degree: 2.5,
            gateway_frac: 0.25,
            classes_per_community: 4,
            class_homophily: 0.92,
            feature_dim: 48,
            num_classes: 47,
            task: Task::SingleLabel,
            signal: 1.0,
            noise: 0.7,
            train_frac: 0.10,
            val_frac: 0.05,
        }
    }

    /// AmazonProducts stand-in: dense, multi-label.
    pub fn amazon_products_sim() -> Self {
        Self {
            name: "amazon-products-sim".into(),
            num_nodes: 9_000,
            avg_in_degree: 36.0,
            avg_out_degree: 5.0,
            gateway_frac: 0.3,
            classes_per_community: 4,
            class_homophily: 0.92,
            feature_dim: 64,
            num_classes: 58,
            task: Task::MultiLabel,
            signal: 1.0,
            noise: 0.6,
            train_frac: 0.80,
            val_frac: 0.05,
        }
    }

    /// All four paper stand-ins in Table 3 order.
    pub fn paper_suite() -> Vec<Self> {
        vec![
            Self::reddit_sim(),
            Self::yelp_sim(),
            Self::ogbn_products_sim(),
            Self::amazon_products_sim(),
        ]
    }

    /// A tiny spec for fast tests.
    pub fn tiny() -> Self {
        Self {
            name: "tiny".into(),
            num_nodes: 300,
            avg_in_degree: 8.0,
            avg_out_degree: 2.0,
            gateway_frac: 0.5,
            classes_per_community: 2,
            class_homophily: 0.92,
            feature_dim: 16,
            num_classes: 4,
            task: Task::SingleLabel,
            signal: 1.2,
            noise: 0.4,
            train_frac: 0.6,
            val_frac: 0.2,
        }
    }

    /// Returns a copy scaled to `factor` of the node count (for scalability
    /// sweeps).
    pub fn scaled(mut self, factor: f64) -> Self {
        self.num_nodes = ((self.num_nodes as f64 * factor).round() as usize).max(self.num_classes);
        self
    }

    /// Generates the dataset deterministically from `seed`.
    pub fn generate(&self, seed: u64) -> Dataset {
        let mut rng = Rng::seed_from(seed);
        let cpc = self.classes_per_community.max(1);
        let num_communities = self.num_classes.div_ceil(cpc).max(1);
        let block_of = skewed_communities(self.num_nodes, num_communities, &mut rng);
        let graph = locality_community_graph(
            &block_of,
            self.avg_in_degree,
            self.avg_out_degree,
            self.gateway_frac,
            self.class_homophily,
            &mut rng,
        );
        // Class = contiguous position chunk within the community. Combined
        // with the generator's locality, most — but not all — neighbors
        // share a node's class: the task is learnable yet unsaturated, so
        // community detection alone is not enough and message fidelity
        // matters.
        let positions = community_positions(&block_of);
        let mut block_sizes = vec![0usize; num_communities];
        for &b in &block_of {
            block_sizes[b] += 1;
        }
        let class_of: Vec<usize> = block_of
            .iter()
            .zip(&positions)
            .map(|(&b, &p)| {
                let chunk = p * cpc / block_sizes[b].max(1);
                (b * cpc + chunk).min(self.num_classes - 1)
            })
            .collect();
        let features = class_features(
            &class_of,
            self.feature_dim,
            self.signal,
            self.noise,
            &mut rng,
        );
        let labels = match self.task {
            Task::SingleLabel => Labels::Single(class_of.clone()),
            Task::MultiLabel => {
                let classes = multilabel_classes(&class_of, self.num_classes, &mut rng);
                Labels::Multi(multilabel_targets_from_classes(&classes, self.num_classes))
            }
        };
        let (train_mask, val_mask, test_mask) =
            split_masks(self.num_nodes, self.train_frac, self.val_frac, &mut rng);
        Dataset {
            name: self.name.clone(),
            graph,
            features,
            labels,
            num_classes: self.num_classes,
            task: self.task,
            train_mask,
            val_mask,
            test_mask,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_dataset_generates_consistently() {
        let d1 = DatasetSpec::tiny().generate(1);
        let d2 = DatasetSpec::tiny().generate(1);
        assert_eq!(d1.graph, d2.graph);
        assert_eq!(d1.features, d2.features);
    }

    #[test]
    fn tiny_dataset_shapes_agree() {
        let d = DatasetSpec::tiny().generate(2);
        assert_eq!(d.num_nodes(), 300);
        assert_eq!(d.features.rows(), 300);
        assert_eq!(d.feature_dim(), 16);
        assert_eq!(d.labels.len(), 300);
        assert_eq!(d.train_mask.len(), 300);
    }

    #[test]
    fn single_label_classes_in_range() {
        let d = DatasetSpec::tiny().generate(3);
        for &c in d.single_labels() {
            assert!(c < d.num_classes);
        }
    }

    #[test]
    fn multilabel_dataset_has_targets() {
        let spec = DatasetSpec {
            task: Task::MultiLabel,
            ..DatasetSpec::tiny()
        };
        let d = spec.generate(4);
        let t = d.multi_targets();
        assert_eq!(t.shape(), (300, 4));
        // Every node carries at least one label.
        for i in 0..t.rows() {
            assert!(t.row(i).iter().sum::<f32>() >= 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "is multi-label")]
    fn single_labels_on_multilabel_panics() {
        let spec = DatasetSpec {
            task: Task::MultiLabel,
            ..DatasetSpec::tiny()
        };
        let d = spec.generate(4);
        let _ = d.single_labels();
    }

    #[test]
    fn paper_suite_has_expected_relative_density() {
        // Use scaled-down versions so the test is fast.
        let scale = 0.12;
        let reddit = DatasetSpec::reddit_sim().scaled(scale).generate(5);
        let yelp = DatasetSpec::yelp_sim().scaled(scale).generate(5);
        assert!(
            reddit.graph.avg_degree() > 3.0 * yelp.graph.avg_degree(),
            "reddit {} vs yelp {}",
            reddit.graph.avg_degree(),
            yelp.graph.avg_degree()
        );
    }

    #[test]
    fn masks_are_disjoint_and_cover() {
        let d = DatasetSpec::tiny().generate(6);
        for v in 0..d.num_nodes() {
            let s = u8::from(d.train_mask[v]) + u8::from(d.val_mask[v]) + u8::from(d.test_mask[v]);
            assert_eq!(s, 1);
        }
    }

    #[test]
    fn payload_bytes_positive() {
        let d = DatasetSpec::tiny().generate(7);
        assert!(d.payload_bytes() > 300 * 16 * 4 - 1);
    }

    #[test]
    fn scaled_changes_node_count_only() {
        let base = DatasetSpec::tiny();
        let scaled = base.clone().scaled(0.5);
        assert_eq!(scaled.num_nodes, 150);
        assert_eq!(scaled.feature_dim, base.feature_dim);
    }
}

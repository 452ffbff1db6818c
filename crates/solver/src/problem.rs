//! Problem and solution types for the bit-width assignment.

use quant::BitWidth;
use serde::{Deserialize, Serialize};

/// One message group (Sec. 4.2: messages between a device pair are sorted by
/// `beta` and chunked into groups; a group shares one bit-width).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroupSpec {
    /// Total variance sensitivity of the group: sum of the member messages'
    /// `beta_k` coefficients. Contributes `beta / (2^b - 1)^2` to the
    /// variance objective.
    pub beta: f64,
    /// Bytes this group adds to the pair's transfer per bit of width
    /// (`count * dim / 8`).
    pub bytes_per_bit: f64,
}

impl GroupSpec {
    /// Variance contribution at a given width.
    pub fn variance_at(&self, w: BitWidth) -> f64 {
        let d = w.max_code() as f64;
        self.beta / (d * d)
    }

    /// Byte contribution at a given width.
    pub fn bytes_at(&self, w: BitWidth) -> f64 {
        self.bytes_per_bit * w.bits() as f64
    }
}

/// One device pair's communication in one round: its affine link cost and
/// the message groups it must move.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PairSpec {
    /// Link seconds-per-byte.
    pub theta: f64,
    /// Link fixed seconds (fold any per-message wire overhead in here).
    pub gamma: f64,
    /// Message groups to transfer.
    pub groups: Vec<GroupSpec>,
}

impl PairSpec {
    /// Transfer time if group `k` uses `widths[k]`.
    ///
    /// # Panics
    ///
    /// Panics if `widths.len() != groups.len()`.
    pub fn time(&self, widths: &[BitWidth]) -> f64 {
        assert_eq!(widths.len(), self.groups.len(), "one width per group");
        let bytes: f64 = self
            .groups
            .iter()
            .zip(widths)
            .map(|(g, &w)| g.bytes_at(w))
            .sum();
        self.theta * bytes + self.gamma
    }

    /// Variance contribution of this pair under `widths`.
    ///
    /// # Panics
    ///
    /// Panics if `widths.len() != groups.len()`.
    pub fn variance(&self, widths: &[BitWidth]) -> f64 {
        assert_eq!(widths.len(), self.groups.len(), "one width per group");
        self.groups
            .iter()
            .zip(widths)
            .map(|(g, &w)| g.variance_at(w))
            .sum()
    }

    /// Transfer time with every group at width `w`.
    pub fn time_at(&self, w: BitWidth) -> f64 {
        let bytes: f64 = self.groups.iter().map(|g| g.bytes_at(w)).sum();
        self.theta * bytes + self.gamma
    }

    /// Variance contribution with every group at width `w`.
    pub fn variance_at(&self, w: BitWidth) -> f64 {
        self.groups.iter().map(|g| g.variance_at(w)).sum()
    }

    /// Fastest possible time (all groups at 2-bit).
    pub fn min_time(&self) -> f64 {
        self.time_at(BitWidth::B2)
    }

    /// Slowest time we would ever choose (all groups at 8-bit).
    pub fn max_time(&self) -> f64 {
        self.time_at(BitWidth::B8)
    }

    /// Largest possible variance contribution (all groups at 2-bit).
    pub fn max_variance(&self) -> f64 {
        self.variance_at(BitWidth::B2)
    }
}

/// A full assignment problem: all device pairs active in one communication
/// round plus the scalarization weight.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BiObjectiveProblem {
    /// Device pairs.
    pub pairs: Vec<PairSpec>,
    /// Weight on the variance objective; `1 - lambda` weighs the time
    /// objective. The paper uses `lambda = 0.5` by default (Table 8).
    pub lambda: f64,
}

impl BiObjectiveProblem {
    /// Creates a problem, clamping `lambda` into `[0, 1]`.
    pub fn new(pairs: Vec<PairSpec>, lambda: f64) -> Self {
        Self {
            pairs,
            lambda: lambda.clamp(0.0, 1.0),
        }
    }

    /// Evaluates the scalarized objective of an assignment.
    ///
    /// Both objectives are normalized by their worst-case values (variance
    /// at all-2-bit, straggler time at all-8-bit) before the weighted sum,
    /// so `lambda` trades unit-free quantities — otherwise the raw variance
    /// and raw seconds scales would make `lambda` dataset-dependent.
    pub fn objective(&self, widths: &[Vec<BitWidth>]) -> f64 {
        let v_ref = self.variance_ref().max(1e-30);
        let t_ref = self.time_ref().max(1e-30);
        self.lambda * self.total_variance(widths) / v_ref
            + (1.0 - self.lambda) * self.max_time(widths) / t_ref
    }

    /// Worst-case (all-2-bit) total variance, the variance normalizer.
    pub fn variance_ref(&self) -> f64 {
        self.pairs.iter().map(PairSpec::max_variance).sum()
    }

    /// Scalarized objective from precomputed `(variance, max_time)` values
    /// and normalizers — the solver's hot path (avoids recomputing the
    /// normalizers for every candidate).
    pub fn objective_from_parts(
        &self,
        variance: f64,
        max_time: f64,
        v_ref: f64,
        t_ref: f64,
    ) -> f64 {
        scalarize(self.lambda, variance, max_time, v_ref, t_ref)
    }

    /// Worst-case (all-8-bit) straggler time, the time normalizer.
    pub fn time_ref(&self) -> f64 {
        self.pairs
            .iter()
            .map(PairSpec::max_time)
            .fold(0.0, f64::max)
    }

    /// Total variance across pairs.
    pub fn total_variance(&self, widths: &[Vec<BitWidth>]) -> f64 {
        self.pairs
            .iter()
            .zip(widths)
            .map(|(p, w)| p.variance(w))
            .sum()
    }

    /// Slowest pair's time (the `Z` of Eqn. 12).
    pub fn max_time(&self, widths: &[Vec<BitWidth>]) -> f64 {
        self.pairs
            .iter()
            .zip(widths)
            .map(|(p, w)| p.time(w))
            .fold(0.0, f64::max)
    }

    /// Total number of groups across pairs.
    pub fn num_groups(&self) -> usize {
        self.pairs.iter().map(|p| p.groups.len()).sum()
    }

    /// The same problem in the solver's CSR form.
    pub fn flatten(&self) -> FlatProblem {
        let mut flat = FlatProblem::with_capacity(self.pairs.len(), self.num_groups(), self.lambda);
        // A hand-built problem's `lambda` is taken as it stands, as `solve`
        // always has.
        flat.lambda = self.lambda;
        for p in &self.pairs {
            flat.push_pair(p.theta, p.gamma, p.groups.iter().copied());
        }
        flat
    }
}

/// A [`BiObjectiveProblem`] in CSR form: one entry per pair in `theta` and
/// `gamma`, one entry per group in `beta` and `bytes_per_bit`, pair `p`
/// owning groups `group_start[p]..group_start[p + 1]`. This is the form
/// [`crate::solve_flat`] works on; at fleet scale nearly every pair holds a
/// single group, and a `Vec` per pair costs more than the numbers in it.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatProblem {
    theta: Vec<f64>,
    gamma: Vec<f64>,
    group_start: Vec<usize>,
    beta: Vec<f64>,
    bytes_per_bit: Vec<f64>,
    lambda: f64,
}

impl FlatProblem {
    /// An empty problem with room for `pairs` pairs and `groups` groups;
    /// `lambda` is clamped into `[0, 1]` as [`BiObjectiveProblem::new`] does.
    pub fn with_capacity(pairs: usize, groups: usize, lambda: f64) -> Self {
        let mut group_start = Vec::with_capacity(pairs + 1);
        group_start.push(0);
        Self {
            theta: Vec::with_capacity(pairs),
            gamma: Vec::with_capacity(pairs),
            group_start,
            beta: Vec::with_capacity(groups),
            bytes_per_bit: Vec::with_capacity(groups),
            lambda: lambda.clamp(0.0, 1.0),
        }
    }

    /// Appends one pair: its link cost (see [`PairSpec`]) and its groups.
    pub fn push_pair(
        &mut self,
        theta: f64,
        gamma: f64,
        groups: impl IntoIterator<Item = GroupSpec>,
    ) {
        self.theta.push(theta);
        self.gamma.push(gamma);
        for g in groups {
            self.beta.push(g.beta);
            self.bytes_per_bit.push(g.bytes_per_bit);
        }
        self.group_start.push(self.beta.len());
    }

    /// Number of device pairs.
    pub fn num_pairs(&self) -> usize {
        self.theta.len()
    }

    /// Total number of groups across pairs.
    pub fn num_groups(&self) -> usize {
        self.beta.len()
    }

    /// Weight on the variance objective, in `[0, 1]`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Pair `p`'s `(theta, gamma)`.
    pub fn link(&self, p: usize) -> (f64, f64) {
        (self.theta[p], self.gamma[p])
    }

    /// The groups pair `p` owns, as indices into the group-major arrays
    /// (and into [`FlatSolution::widths`]).
    pub fn groups_of(&self, p: usize) -> std::ops::Range<usize> {
        self.group_start[p]..self.group_start[p + 1]
    }

    /// Group `g` of the group-major arrays.
    pub fn group(&self, g: usize) -> GroupSpec {
        GroupSpec {
            beta: self.beta[g],
            bytes_per_bit: self.bytes_per_bit[g],
        }
    }

    /// See [`BiObjectiveProblem::objective_from_parts`].
    pub(crate) fn objective_from_parts(
        &self,
        variance: f64,
        max_time: f64,
        v_ref: f64,
        t_ref: f64,
    ) -> f64 {
        scalarize(self.lambda, variance, max_time, v_ref, t_ref)
    }
}

/// The scalarized objective (Eqn. 12) from normalized parts.
fn scalarize(lambda: f64, variance: f64, max_time: f64, v_ref: f64, t_ref: f64) -> f64 {
    lambda * variance / v_ref.max(1e-30) + (1.0 - lambda) * max_time / t_ref.max(1e-30)
}

/// [`crate::solve_flat`]'s output: [`Solution`] with one group-major width
/// list, laid out like the problem's groups ([`FlatProblem::groups_of`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FlatSolution {
    /// One width per group, group-major.
    pub widths: Vec<BitWidth>,
    /// Total variance objective value.
    pub variance: f64,
    /// Slowest pair time.
    pub max_time: f64,
    /// Scalarized objective.
    pub objective: f64,
    /// Candidate assignments evaluated (see [`Solution::iterations`]).
    pub iterations: usize,
}

impl FlatSolution {
    /// The same solution with one width list per pair of `problem`.
    pub fn nest(self, problem: &FlatProblem) -> Solution {
        Solution {
            widths: (0..problem.num_pairs())
                .map(|p| self.widths[problem.groups_of(p)].to_vec())
                .collect(),
            variance: self.variance,
            max_time: self.max_time,
            objective: self.objective,
            iterations: self.iterations,
        }
    }
}

/// Solver output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Solution {
    /// `widths[pair][group]`.
    pub widths: Vec<Vec<BitWidth>>,
    /// Total variance objective value.
    pub variance: f64,
    /// Slowest pair time.
    pub max_time: f64,
    /// Scalarized objective.
    pub objective: f64,
    /// Candidate assignments the solver evaluated to arrive here
    /// (observability only; does not affect the solution).
    #[serde(default)]
    pub iterations: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> PairSpec {
        PairSpec {
            theta: 1e-6,
            gamma: 1e-4,
            groups: vec![
                GroupSpec {
                    beta: 10.0,
                    bytes_per_bit: 100.0,
                },
                GroupSpec {
                    beta: 1.0,
                    bytes_per_bit: 100.0,
                },
            ],
        }
    }

    #[test]
    fn group_variance_matches_formula() {
        let g = GroupSpec {
            beta: 9.0,
            bytes_per_bit: 1.0,
        };
        assert!((g.variance_at(BitWidth::B2) - 1.0).abs() < 1e-12);
        assert!((g.variance_at(BitWidth::B4) - 9.0 / 225.0).abs() < 1e-12);
    }

    #[test]
    fn pair_time_affine_in_bytes() {
        let p = pair();
        let t2 = p.time(&[BitWidth::B2, BitWidth::B2]);
        let t8 = p.time(&[BitWidth::B8, BitWidth::B8]);
        // 2-bit: 2 groups * 100 B/bit * 2 bits = 400 bytes.
        assert!((t2 - (1e-6 * 400.0 + 1e-4)).abs() < 1e-12);
        assert!((t8 - (1e-6 * 1600.0 + 1e-4)).abs() < 1e-12);
        assert_eq!(p.min_time(), t2);
        assert_eq!(p.max_time(), t8);
    }

    #[test]
    fn objective_combines_lambda_normalized() {
        let prob = BiObjectiveProblem::new(vec![pair()], 0.5);
        let widths = vec![vec![BitWidth::B8, BitWidth::B2]];
        let v = prob.total_variance(&widths) / prob.variance_ref();
        let t = prob.max_time(&widths) / prob.time_ref();
        assert!((prob.objective(&widths) - (0.5 * v + 0.5 * t)).abs() < 1e-12);
        // Normalized terms live in [0, 1].
        assert!(v <= 1.0 + 1e-12 && t <= 1.0 + 1e-12);
    }

    #[test]
    fn lambda_is_clamped() {
        let prob = BiObjectiveProblem::new(vec![], 3.0);
        assert_eq!(prob.lambda, 1.0);
        let prob = BiObjectiveProblem::new(vec![], -1.0);
        assert_eq!(prob.lambda, 0.0);
    }
}

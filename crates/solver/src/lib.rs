//! Bi-objective bit-width assignment (Sec. 4.2 of the AdaQP paper).
//!
//! The paper formulates bit-width selection as the scalarized problem
//! (Eqn. 12):
//!
//! ```text
//! min_{b_k in {2,4,8}}  lambda * sum_i sum_k beta_k / (2^{b_k} - 1)^2  +  (1 - lambda) * Z
//! s.t.                  theta_i * sum_k D_k b_k + gamma_i <= Z   for every device pair i
//! ```
//!
//! and hands it to Gurobi as a MILP. Gurobi is not available here, so this
//! crate solves the same problem with an exact-in-practice two-level method:
//!
//! * **Inner problem** (fixed `Z`): each pair decouples into a
//!   multiple-choice knapsack — minimize variance subject to a byte budget.
//!   We solve it with the classic LP-relaxation greedy (downgrade the group
//!   with the cheapest variance-per-byte cost until the budget holds), which
//!   is optimal up to at most one group per pair and exact when group sizes
//!   are uniform.
//! * **Outer problem**: sweep candidate `Z` values over the feasible range
//!   (every pair's all-2-bit and all-8-bit times are breakpoints) and keep
//!   the best scalarized objective.
//!
//! A brute-force solver is provided for small instances and used by the
//! tests to certify the heuristic's optimality gap.

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
#![warn(missing_docs)]

mod problem;
mod solve;

pub use problem::{
    BiObjectiveProblem, GroupSpec, PairSpec, Solution, SolveCounts, SplitSolution, SplitWidths,
};
pub use solve::{brute_force, solve, PairShape, Placed, SplitProblem};

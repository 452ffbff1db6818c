//! The two-level solver: per-pair knapsack greedy inside a Z sweep.

use crate::problem::{BiObjectiveProblem, FlatProblem, FlatSolution, Solution};
use quant::BitWidth;

/// Number of candidate `Z` values sampled between the global min and max
/// feasible times (plus every pair's own breakpoints).
const Z_SAMPLES: usize = 48;

/// Everything [`solve_flat`] needs to know about a problem: the three
/// uniform assignments' scores (the objective normalizers, the sweep's seeds
/// and the Z range), and per pair its uniform totals and, if it has to move
/// under some Z candidate, its greedy downgrade schedule (moves sorted by
/// variance added per byte saved, as prefix sums in arenas shared by all
/// pairs, so a byte budget resolves with a search instead of a fresh sort).
struct Schedules {
    heads: Vec<PairHead>,
    /// Cumulative bytes saved after a pair's first `k + 1` moves.
    saved: Vec<f64>,
    /// Cumulative variance added after a pair's first `k + 1` moves.
    dvar: Vec<f64>,
    /// Move `k`'s `(group, to)`, the group counted within its pair.
    moves: Vec<(usize, BitWidth)>,
    /// `(total variance, slowest pair time)` with every group at
    /// `BitWidth::ALL[i]`.
    uniform: [(f64, f64); 3],
}

/// One pair's slice of the [`Schedules`] arenas (empty if it never moves),
/// its link, and its totals at the uniform widths.
struct PairHead {
    moves: std::ops::Range<usize>,
    theta: f64,
    gamma: f64,
    bytes8: f64,
    var8: f64,
    /// All-2-bit and all-8-bit transfer times.
    min_time: f64,
    max_time: f64,
}

impl PairHead {
    /// Bytes over what fits in `budget_seconds` at 8 bits; never rises with it.
    fn need(&self, budget_seconds: f64) -> f64 {
        let budget_bytes = if self.theta > 0.0 {
            (budget_seconds - self.gamma) / self.theta
        } else {
            f64::INFINITY
        };
        self.bytes8 - budget_bytes
    }
}

impl Schedules {
    fn build(problem: &FlatProblem) -> Self {
        // Per group: (variance, bytes) at each width of `BitWidth::ALL`.
        let at = |g: usize| {
            let g = problem.group(g);
            BitWidth::ALL.map(|w| (g.variance_at(w), g.bytes_at(w)))
        };
        let mut out = Self {
            heads: Vec::with_capacity(problem.num_pairs()),
            saved: Vec::new(),
            dvar: Vec::new(),
            moves: Vec::new(),
            // Sums start from `Iterator::sum`'s identity and maxima from
            // zero, and run pair by pair over per-pair sums taken group by
            // group: the order `BiObjectiveProblem`'s own accessors use, so
            // every total rounds as theirs does.
            uniform: [(-0.0, 0.0); 3],
        };
        for p in 0..problem.num_pairs() {
            let (theta, gamma) = problem.link(p);
            // Per width of `BitWidth::ALL`: this pair's (variance, bytes).
            let mut sums = [(-0.0f64, -0.0f64); 3];
            for g in problem.groups_of(p) {
                for (sum, (v, b)) in sums.iter_mut().zip(at(g)) {
                    sum.0 += v;
                    sum.1 += b;
                }
            }
            let time = sums.map(|(_, bytes)| theta * bytes + gamma);
            for (total, ((var, _), t)) in out.uniform.iter_mut().zip(sums.into_iter().zip(time)) {
                total.0 += var;
                total.1 = total.1.max(t);
            }
            out.heads.push(PairHead {
                moves: 0..0,
                theta,
                gamma,
                bytes8: sums[2].1,
                var8: sums[2].0,
                min_time: time[0],
                max_time: time[2],
            });
        }
        // Schedules only for the pairs that need a move at the smallest
        // candidate: `need` never rises with Z, so every other pair takes no
        // move under any candidate and its schedule would never be read.
        let z_floor = out.uniform[0].1;
        // Per move: (variance added per byte saved, group, to, dv, db).
        let mut moves: Vec<(f64, usize, BitWidth, f64, f64)> = Vec::new();
        for p in 0..problem.num_pairs() {
            if out.heads[p].need(z_floor) <= 0.0 {
                continue;
            }
            moves.clear();
            for (k, g) in problem.groups_of(p).enumerate() {
                let at = at(g);
                // 8 -> 4, then 4 -> 2.
                for to in [1, 0] {
                    let dv = at[to].0 - at[to + 1].0;
                    let db = at[to + 1].1 - at[to].1;
                    if db > 0.0 {
                        moves.push((dv / db, k, BitWidth::ALL[to], dv, db));
                    }
                }
            }
            // Convexity of 1/(2^b-1)^2 vs bytes guarantees a group's 8->4
            // move sorts before its 4->2 move, so prefix application stays
            // legal.
            moves.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (start, mut s, mut v) = (out.saved.len(), 0.0, 0.0);
            for &(_, group, to, dv, db) in &moves {
                s += db;
                v += dv;
                out.saved.push(s);
                out.dvar.push(v);
                out.moves.push((group, to));
            }
            out.heads[p].moves = start..out.saved.len();
        }
        out
    }

    /// Number of prefix moves pair `p` needs to fit `budget_seconds` (all of
    /// them when even all-2-bit does not fit). Never rises with the budget.
    ///
    /// `cursor` is where the previous budget's search on this pair ended
    /// (start it at 0): budgets swept in sorted order move it monotonically,
    /// so a whole sweep walks each pair's moves once instead of
    /// binary-searching them per budget. Any order is still answered
    /// correctly.
    fn moves_for_budget(&self, p: usize, budget_seconds: f64, cursor: &mut usize) -> usize {
        let head = &self.heads[p];
        let need = head.need(budget_seconds);
        if need <= 0.0 {
            return 0;
        }
        let saved = &self.saved[head.moves.clone()];
        // First k with saved[k] >= need: `saved` ascends, so the moves that
        // fall short are a prefix and the cursor settles on its end.
        let short = |s: f64| s < need - 1e-12;
        while *cursor > 0 && !short(saved[*cursor - 1]) {
            *cursor -= 1;
        }
        while *cursor < saved.len() && short(saved[*cursor]) {
            *cursor += 1;
        }
        (*cursor + 1).min(saved.len())
    }

    /// `(variance, time)` of pair `p` after its first `k` moves.
    fn stats_after(&self, p: usize, k: usize) -> (f64, f64) {
        let head = &self.heads[p];
        let (saved, dvar) = if k == 0 {
            (0.0, 0.0)
        } else {
            let i = head.moves.start + k - 1;
            (self.saved[i], self.dvar[i])
        };
        (
            head.var8 + dvar,
            head.theta * (head.bytes8 - saved) + head.gamma,
        )
    }

    /// The Z candidates of the outer sweep, ascending and distinct: the
    /// global floor and ceiling, every pair's own extremes on small
    /// problems, and a uniform grid between. Never NaN: the floor and
    /// ceiling are `f64::max` folds from zero.
    fn z_candidates(&self) -> Vec<f64> {
        let n_pairs = self.heads.len();
        let z_floor = self.uniform[0].1;
        let z_ceil = self.uniform[2].1.max(z_floor);
        let mut candidates: Vec<f64> = Vec::with_capacity(Z_SAMPLES + 2 * n_pairs.min(32) + 2);
        candidates.push(z_floor);
        candidates.push(z_ceil);
        // Per-pair breakpoints sharpen the sweep, but on large clusters they
        // multiply into the dominant solver cost (pairs grow quadratically
        // with devices); past 32 pairs the uniform grid is accurate enough.
        if n_pairs <= 32 {
            for head in &self.heads {
                candidates.push(head.min_time.max(z_floor));
                candidates.push(head.max_time.min(z_ceil).max(z_floor));
            }
        }
        // A uniform grid strictly between the floor and the ceiling.
        if z_ceil > z_floor {
            for i in 0..Z_SAMPLES {
                candidates.push(z_floor + (z_ceil - z_floor) * (i as f64 + 0.5) / Z_SAMPLES as f64);
            }
        }
        candidates.sort_by(f64::total_cmp);
        candidates.dedup();
        candidates
    }
}

/// Solves the scalarized bi-objective problem (Eqn. 12).
///
/// Sweeps candidate `Z` values (pair time breakpoints plus a uniform grid),
/// solves the per-pair budgeted sub-problems for each, and returns the best
/// scalarized objective found. With `lambda == 1` the time term vanishes and
/// everything gets 8-bit; with `lambda == 0` only the slowest pair matters
/// and the result is the fastest feasible assignment.
///
/// [`solve_flat`] on the problem's CSR form.
pub fn solve(problem: &BiObjectiveProblem) -> Solution {
    let flat = problem.flatten();
    solve_flat(&flat).nest(&flat)
}

/// [`solve`] on a problem already in CSR form, the way the assigner's master
/// builds it.
pub fn solve_flat(problem: &FlatProblem) -> FlatSolution {
    let n_pairs = problem.num_pairs();
    if n_pairs == 0 {
        return FlatSolution {
            widths: Vec::new(),
            variance: 0.0,
            max_time: 0.0,
            objective: 0.0,
            iterations: 0,
        };
    }
    let schedules = Schedules::build(problem);
    let (v_ref, t_ref) = (schedules.uniform[0].0, schedules.uniform[2].1);
    // A uniform assignment, scored from the one pass: only the candidate
    // that survives the sweep is ever materialized.
    let uniform = |w: BitWidth, iterations: usize| -> FlatSolution {
        let (variance, max_time) = schedules.uniform[w.index()];
        FlatSolution {
            widths: vec![w; problem.num_groups()],
            variance,
            max_time,
            objective: problem.objective_from_parts(variance, max_time, v_ref, t_ref),
            iterations,
        }
    };
    if problem.lambda() >= 1.0 {
        // Pure variance objective: maximize precision everywhere.
        return uniform(BitWidth::B8, 1);
    }
    let candidates = schedules.z_candidates();
    // Candidate-assignment evaluation count, reported on the solution.
    let iterations = BitWidth::ALL.len() + candidates.len();

    // Seed with the three uniform assignments so the sweep can never lose
    // to a trivial candidate.
    let scores = schedules
        .uniform
        .map(|(v, t)| problem.objective_from_parts(v, t, v_ref, t_ref));
    let seed = (1..scores.len()).fold(0, |seed, i| if scores[i] < scores[seed] { i } else { seed });

    // Pair-major sweep: each pair walks the ascending candidates with a
    // cursor into its own schedule. Its move count never rises with the
    // budget, so once it needs no move it needs none under any later
    // candidate: that whole run takes the pair's all-8-bit `(variance,
    // time)` from one evaluation and the walk stops (at fleet scale that is
    // most pairs, at their first candidate). Every candidate still
    // accumulates the same values in pair order, so the sums round exactly
    // as a candidate-major loop's would.
    let mut variance = vec![0.0f64; candidates.len()];
    let mut max_time = vec![0.0f64; candidates.len()];
    for p in 0..n_pairs {
        let (mut c, mut cursor) = (0, 0);
        while c < candidates.len() {
            let k = schedules.moves_for_budget(p, candidates[c], &mut cursor);
            let end = if k == 0 { candidates.len() } else { c + 1 };
            let (v, t) = schedules.stats_after(p, k);
            for (var, time) in variance[c..end].iter_mut().zip(&mut max_time[c..end]) {
                *var += v;
                *time = time.max(t);
            }
            c = end;
        }
    }
    let mut best_candidate: Option<(f64, f64)> = None; // (objective, z)
    for ((&z, &v), &t) in candidates.iter().zip(&variance).zip(&max_time) {
        let obj = problem.objective_from_parts(v, t, v_ref, t_ref);
        if best_candidate.is_none_or(|(o, _)| obj < o) {
            best_candidate = Some((obj, z));
        }
    }

    match best_candidate {
        Some((obj, z)) if obj < scores[seed] => {
            // Materialize the winner and score it from its widths, group by
            // group within a pair and pair by pair.
            let mut widths = vec![BitWidth::B8; problem.num_groups()];
            let (mut variance, mut max_time) = (-0.0, 0.0f64);
            // A pair that takes no move keeps 8 bits, whose sums its head
            // already holds, taken in the same order.
            for (p, head) in schedules.heads.iter().enumerate() {
                let groups = problem.groups_of(p);
                let k = schedules.moves_for_budget(p, z, &mut 0);
                if k == 0 {
                    variance += head.var8;
                    max_time = max_time.max(head.max_time);
                    continue;
                }
                for &(g, to) in &schedules.moves[head.moves.start..][..k] {
                    widths[groups.start + g] = to;
                }
                let (mut var, mut bytes) = (-0.0, -0.0);
                for g in groups {
                    let spec = problem.group(g);
                    var += spec.variance_at(widths[g]);
                    bytes += spec.bytes_at(widths[g]);
                }
                variance += var;
                max_time = max_time.max(head.theta * bytes + head.gamma);
            }
            FlatSolution {
                widths,
                variance,
                max_time,
                objective: problem.objective_from_parts(variance, max_time, v_ref, t_ref),
                iterations,
            }
        }
        _ => uniform(BitWidth::ALL[seed], iterations),
    }
}

fn finish(problem: &BiObjectiveProblem, widths: Vec<Vec<BitWidth>>) -> Solution {
    let variance = problem.total_variance(&widths);
    let max_time = problem.max_time(&widths);
    let objective = problem.objective_from_parts(
        variance,
        max_time,
        problem.variance_ref(),
        problem.time_ref(),
    );
    Solution {
        widths,
        variance,
        max_time,
        objective,
        iterations: 0,
    }
}

/// Exhaustive solver for small instances (`3^num_groups` assignments).
///
/// # Panics
///
/// Panics if the instance has more than 16 groups total.
pub fn brute_force(problem: &BiObjectiveProblem) -> Solution {
    let total_groups = problem.num_groups();
    assert!(total_groups <= 16, "brute force limited to 16 groups");
    let shape: Vec<usize> = problem.pairs.iter().map(|p| p.groups.len()).collect();
    let mut best: Option<Solution> = None;
    let mut iterations = 0usize;
    let mut counter = vec![0usize; total_groups];
    loop {
        // Materialize the assignment.
        let mut widths: Vec<Vec<BitWidth>> = Vec::with_capacity(shape.len());
        let mut idx = 0;
        for &len in &shape {
            widths.push(
                (0..len)
                    .map(|_| {
                        let w = BitWidth::ALL[counter[idx]];
                        idx += 1;
                        w
                    })
                    .collect(),
            );
        }
        let sol = finish(problem, widths);
        iterations += 1;
        if best.as_ref().is_none_or(|b| sol.objective < b.objective) {
            best = Some(sol);
        }
        // Increment the mixed-radix counter.
        let mut pos = 0;
        loop {
            if pos == total_groups {
                #[expect(clippy::expect_used, reason = "every assignment was evaluated")]
                let mut sol = best.expect("at least one assignment");
                sol.iterations = iterations;
                return sol;
            }
            counter[pos] += 1;
            if counter[pos] < 3 {
                break;
            }
            counter[pos] = 0;
            pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{GroupSpec, PairSpec};
    use proptest::prelude::*;

    fn simple_pair(betas: &[f64], bytes_per_bit: f64, theta: f64, gamma: f64) -> PairSpec {
        PairSpec {
            theta,
            gamma,
            groups: betas
                .iter()
                .map(|&beta| GroupSpec {
                    beta,
                    bytes_per_bit,
                })
                .collect(),
        }
    }

    /// The candidate list as the nested solver derived it, in passes of its
    /// own over the pairs.
    fn z_candidates(problem: &BiObjectiveProblem) -> Vec<f64> {
        let n_pairs = problem.pairs.len();
        let z_floor = problem
            .pairs
            .iter()
            .map(PairSpec::min_time)
            .fold(0.0, f64::max);
        let z_ceil = problem
            .pairs
            .iter()
            .map(PairSpec::max_time)
            .fold(0.0, f64::max)
            .max(z_floor);
        let mut candidates = vec![z_floor, z_ceil];
        if n_pairs <= 32 {
            for p in &problem.pairs {
                candidates.push(p.min_time().max(z_floor));
                candidates.push(p.max_time().min(z_ceil).max(z_floor));
            }
        }
        if z_ceil > z_floor {
            for i in 0..Z_SAMPLES {
                candidates.push(z_floor + (z_ceil - z_floor) * (i as f64 + 0.5) / Z_SAMPLES as f64);
            }
        }
        candidates.sort_by(f64::total_cmp);
        candidates.dedup();
        candidates
    }

    /// The sweep as it ran on the nested problem before it went pair-major
    /// and learned to stop at a pair's first move-free candidate —
    /// candidate-major, one binary search per
    /// (candidate, pair), three `Vec`s per pair, every seed materialized and
    /// scored from its widths — kept as the oracle [`solve`] is pinned to,
    /// bit for bit.
    fn reference_solve(problem: &BiObjectiveProblem) -> Solution {
        struct Schedule {
            bytes8: f64,
            var8: f64,
            saved: Vec<f64>,
            dvar: Vec<f64>,
            moves: Vec<(usize, BitWidth)>,
        }
        impl Schedule {
            fn moves_for_budget(&self, pair: &PairSpec, z: f64) -> usize {
                let budget_bytes = if pair.theta > 0.0 {
                    (z - pair.gamma) / pair.theta
                } else {
                    f64::INFINITY
                };
                let need = self.bytes8 - budget_bytes;
                if need <= 0.0 {
                    return 0;
                }
                let k = self.saved.partition_point(|&s| s < need - 1e-12);
                (k + 1).min(self.moves.len())
            }
        }
        if problem.pairs.is_empty() || problem.lambda >= 1.0 {
            return solve(problem);
        }
        let schedules: Vec<Schedule> = problem
            .pairs
            .iter()
            .map(|pair| {
                let mut moves = Vec::new();
                for (k, g) in pair.groups.iter().enumerate() {
                    for (from, to) in [(BitWidth::B8, BitWidth::B4), (BitWidth::B4, BitWidth::B2)] {
                        let dv = g.variance_at(to) - g.variance_at(from);
                        let db = g.bytes_at(from) - g.bytes_at(to);
                        if db > 0.0 {
                            moves.push((dv / db, k, to, dv, db));
                        }
                    }
                }
                moves.sort_by(|a, b| a.0.total_cmp(&b.0));
                let (mut s, mut v) = (0.0, 0.0);
                let mut sched = Schedule {
                    bytes8: pair.groups.iter().map(|g| g.bytes_at(BitWidth::B8)).sum(),
                    var8: pair
                        .groups
                        .iter()
                        .map(|g| g.variance_at(BitWidth::B8))
                        .sum(),
                    saved: Vec::new(),
                    dvar: Vec::new(),
                    moves: Vec::new(),
                };
                for (_, k, to, dv, db) in moves {
                    s += db;
                    v += dv;
                    sched.saved.push(s);
                    sched.dvar.push(v);
                    sched.moves.push((k, to));
                }
                sched
            })
            .collect();
        let v_ref = problem.variance_ref();
        let t_ref = problem.time_ref();
        let mut iterations = 0;
        let mut best: Option<Solution> = None;
        for w in BitWidth::ALL {
            let widths = problem
                .pairs
                .iter()
                .map(|p| vec![w; p.groups.len()])
                .collect();
            let sol = finish(problem, widths);
            iterations += 1;
            if best.as_ref().is_none_or(|b| sol.objective < b.objective) {
                best = Some(sol);
            }
        }
        let mut best_candidate: Option<(f64, f64)> = None;
        for &z in &z_candidates(problem) {
            let mut variance = 0.0;
            let mut max_time: f64 = 0.0;
            for (p, sched) in problem.pairs.iter().zip(&schedules) {
                let k = sched.moves_for_budget(p, z);
                let (saved, dvar) = if k == 0 {
                    (0.0, 0.0)
                } else {
                    (sched.saved[k - 1], sched.dvar[k - 1])
                };
                variance += sched.var8 + dvar;
                max_time = max_time.max(p.theta * (sched.bytes8 - saved) + p.gamma);
            }
            let obj = problem.objective_from_parts(variance, max_time, v_ref, t_ref);
            iterations += 1;
            if best_candidate.is_none_or(|(o, _)| obj < o) {
                best_candidate = Some((obj, z));
            }
        }
        let mut best = best.expect("three seeds were scored");
        if let Some((obj, z)) = best_candidate {
            if obj < best.objective {
                let widths = problem
                    .pairs
                    .iter()
                    .zip(&schedules)
                    .map(|(p, sched)| {
                        let mut widths = vec![BitWidth::B8; p.groups.len()];
                        for &(g, to) in &sched.moves[..sched.moves_for_budget(p, z)] {
                            widths[g] = to;
                        }
                        widths
                    })
                    .collect();
                best = finish(problem, widths);
            }
        }
        best.iterations = iterations;
        best
    }

    /// Problems shaped to break a sweep that skips: pair counts on both
    /// sides of the 32-pair breakpoint rule, up to twelve groups with
    /// repeated betas and sizes (ratio ties in the schedule sort), free
    /// links, pairs so heavy that every other pair fits at 8 bits under
    /// every candidate, and the three `lambda`s with a closed form.
    fn arb_problem() -> impl Strategy<Value = BiObjectiveProblem> {
        let group = (
            prop_oneof![Just(1.0), Just(4.0), 0.0f64..100.0],
            prop_oneof![Just(64.0), 1.0f64..500.0, 1e4f64..1e5],
        )
            .prop_map(|(beta, bytes_per_bit)| GroupSpec {
                beta,
                bytes_per_bit,
            });
        let pair = (
            prop_oneof![Just(0.0), 1e-7f64..1e-4],
            0.0f64..1e-3,
            proptest::collection::vec(group, 0..=12),
        )
            .prop_map(|(theta, gamma, groups)| PairSpec {
                theta,
                gamma,
                groups,
            });
        (
            proptest::collection::vec(pair, 300..=300),
            prop_oneof![1usize..=32, 33usize..=300],
            prop_oneof![Just(0.0), Just(0.5), Just(1.0), 0.0f64..1.0],
        )
            .prop_map(|(mut pairs, keep, lambda)| {
                pairs.truncate(keep);
                BiObjectiveProblem::new(pairs, lambda)
            })
    }

    /// Problems shaped like a fleet's section: 33 to 300 pairs (past the
    /// breakpoint rule, so the sweep runs on the uniform grid), most with
    /// one small group on a fast tier, a few heavy pairs on a slow tier, and
    /// pairs planted at arbitrary positions whose all-8-bit time lies within
    /// one ulp of the Z floor, where whether a pair moves at all turns on
    /// the last bit of the budget arithmetic.
    fn arb_fleet_problem() -> impl Strategy<Value = BiObjectiveProblem> {
        let light = || {
            (
                prop_oneof![Just(1e-11), Just(4e-11)],
                1e-6f64..1e-5,
                0.0f64..100.0,
                prop_oneof![Just(1.0), Just(2.0), 1.0f64..8.0],
            )
        };
        let heavy = (
            1e-9f64..1e-8,
            1e-6f64..1e-5,
            proptest::collection::vec((0.0f64..100.0, 1e2f64..1e4), 1..=4),
        );
        (
            proptest::collection::vec(light(), 33..=300),
            proptest::collection::vec(heavy, 1..=4),
            proptest::collection::vec((light(), 0usize..3, 0.0f64..1.0), 1..=8),
            prop_oneof![Just(0.5), 0.0f64..1.0],
        )
            .prop_map(|(light, heavy, edge, lambda)| {
                let one = |theta, gamma, beta, bytes_per_bit| PairSpec {
                    theta,
                    gamma,
                    groups: vec![GroupSpec {
                        beta,
                        bytes_per_bit,
                    }],
                };
                let mut pairs: Vec<PairSpec> = light
                    .into_iter()
                    .map(|(theta, gamma, beta, b)| one(theta, gamma, beta, b))
                    .collect();
                for (theta, gamma, groups) in heavy {
                    let groups = groups
                        .into_iter()
                        .map(|(beta, bytes_per_bit)| GroupSpec {
                            beta,
                            bytes_per_bit,
                        })
                        .collect();
                    pairs.push(PairSpec {
                        theta,
                        gamma,
                        groups,
                    });
                }
                let z_floor = pairs.iter().map(PairSpec::min_time).fold(0.0, f64::max);
                for ((theta, _, beta, b), ulps, at) in edge {
                    // All-8-bit time one ulp below, at, or one ulp above the
                    // floor; its all-2-bit time stays below the floor.
                    let target = [z_floor.next_down(), z_floor, z_floor.next_up()][ulps];
                    let mut pair = one(theta, target - theta * b * 8.0, beta, b);
                    for _ in 0..64 {
                        match pair.max_time().total_cmp(&target) {
                            std::cmp::Ordering::Less => pair.gamma = pair.gamma.next_up(),
                            std::cmp::Ordering::Greater => pair.gamma = pair.gamma.next_down(),
                            std::cmp::Ordering::Equal => break,
                        }
                    }
                    let at = (at * pairs.len() as f64) as usize;
                    pairs.insert(at, pair);
                }
                BiObjectiveProblem::new(pairs, lambda)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn pair_major_sweep_matches_reference(
            problem in prop_oneof![arb_problem(), arb_fleet_problem()],
        ) {
            let got = solve(&problem);
            let want = reference_solve(&problem);
            prop_assert_eq!(got.objective.to_bits(), want.objective.to_bits());
            prop_assert_eq!(got.variance.to_bits(), want.variance.to_bits());
            prop_assert_eq!(got.max_time.to_bits(), want.max_time.to_bits());
            prop_assert_eq!(got.iterations, want.iterations);
            prop_assert_eq!(got.widths, want.widths);
        }
    }

    #[test]
    fn lambda_one_gives_full_precision() {
        let prob = BiObjectiveProblem::new(vec![simple_pair(&[1.0, 5.0], 100.0, 1e-6, 0.0)], 1.0);
        let sol = solve(&prob);
        assert!(sol.widths[0].iter().all(|&w| w == BitWidth::B8));
    }

    #[test]
    fn lambda_zero_minimizes_bottleneck_time() {
        // Two pairs; pair 1 carries 10x the data. With lambda=0 the slowest
        // pair must be driven to 2-bit.
        let prob = BiObjectiveProblem::new(
            vec![
                simple_pair(&[1.0], 10.0, 1e-6, 0.0),
                simple_pair(&[1.0], 100.0, 1e-6, 0.0),
            ],
            0.0,
        );
        let sol = solve(&prob);
        assert_eq!(sol.widths[1], vec![BitWidth::B2]);
        // The light pair may keep higher precision without moving the max.
        assert!(sol.widths[0][0] >= BitWidth::B2);
        assert!((sol.max_time - 200e-6 * 1.0).abs() < 1e-9);
    }

    #[test]
    fn high_beta_groups_get_more_bits() {
        // One pair, two groups with very different beta, budget-pressured by
        // a moderate lambda: the high-beta group should keep >= the bits of
        // the low-beta group.
        let prob =
            BiObjectiveProblem::new(vec![simple_pair(&[1000.0, 0.001], 1000.0, 1e-5, 0.0)], 0.5);
        let sol = solve(&prob);
        assert!(
            sol.widths[0][0] >= sol.widths[0][1],
            "high-beta group {:?} must not get fewer bits than low-beta {:?}",
            sol.widths[0][0],
            sol.widths[0][1]
        );
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        // Several deterministic small instances with heterogeneous links.
        let cases = [
            BiObjectiveProblem::new(
                vec![
                    simple_pair(&[3.0, 0.5, 7.0], 50.0, 2e-6, 1e-4),
                    simple_pair(&[1.0], 400.0, 1e-6, 5e-5),
                ],
                0.5,
            ),
            BiObjectiveProblem::new(
                vec![
                    simple_pair(&[10.0, 10.0], 100.0, 1e-6, 0.0),
                    simple_pair(&[0.1, 0.2], 100.0, 4e-6, 0.0),
                ],
                0.3,
            ),
            BiObjectiveProblem::new(
                vec![simple_pair(&[5.0, 1.0, 0.2, 8.0], 25.0, 1e-5, 1e-3)],
                0.8,
            ),
        ];
        for (i, prob) in cases.iter().enumerate() {
            let heur = solve(prob);
            let exact = brute_force(prob);
            // Heuristic within 5% of the exact optimum (usually equal).
            assert!(
                heur.objective <= exact.objective * 1.05 + 1e-12,
                "case {i}: heuristic {} vs exact {}",
                heur.objective,
                exact.objective
            );
        }
    }

    #[test]
    fn empty_problem() {
        let sol = solve(&BiObjectiveProblem::new(vec![], 0.5));
        assert!(sol.widths.is_empty());
        assert_eq!(sol.objective, 0.0);
        assert_eq!(sol.iterations, 0);
    }

    #[test]
    fn iterations_count_candidate_evaluations() {
        let prob = BiObjectiveProblem::new(vec![simple_pair(&[1.0, 5.0], 100.0, 1e-6, 0.0)], 0.5);
        // 3 uniform seeds, then the floor and ceiling (the pair's own
        // extremes coincide with them) and the 48-point grid between.
        let sol = solve(&prob);
        assert_eq!(sol.iterations, 3 + 2 + Z_SAMPLES);
        // Brute force evaluates the full 3^groups grid.
        let bf = brute_force(&prob);
        assert_eq!(bf.iterations, 9);
        // Pure-variance short-circuit evaluates exactly one assignment.
        let pure = solve(&BiObjectiveProblem::new(
            vec![simple_pair(&[1.0], 10.0, 1e-6, 0.0)],
            1.0,
        ));
        assert_eq!(pure.iterations, 1);
    }

    #[test]
    fn pair_with_no_groups() {
        let prob = BiObjectiveProblem::new(
            vec![
                PairSpec {
                    theta: 1e-6,
                    gamma: 2e-4,
                    groups: vec![],
                },
                simple_pair(&[1.0], 10.0, 1e-6, 0.0),
            ],
            0.5,
        );
        let sol = solve(&prob);
        assert!(sol.widths[0].is_empty());
        assert!(sol.max_time >= 2e-4);
    }

    #[test]
    fn budget_greedy_downgrades_low_beta_first() {
        // All-8 time = 3 * 100 * 8 * 1e-6 = 2.4ms; the time term pulls the
        // sweep below it, and the cheapest bytes to give up are the low-beta
        // group's.
        let pair = simple_pair(&[100.0, 1.0, 50.0], 100.0, 1e-6, 0.0);
        let sol = solve(&BiObjectiveProblem::new(vec![pair.clone()], 0.5));
        let widths = &sol.widths[0];
        assert!(widths[1] < BitWidth::B8, "nothing downgraded: {widths:?}");
        // Low-beta group 1 must be downgraded at least as far as the others.
        assert!(widths[1] <= widths[0]);
        assert!(widths[1] <= widths[2]);
        assert_eq!(sol.max_time.to_bits(), pair.time(widths).to_bits());
    }

    #[test]
    fn lambda_zero_returns_the_two_bit_floor() {
        // A pure-time objective drives every group to the floor, where the
        // pair's time is its all-2-bit minimum.
        let pair = simple_pair(&[1.0, 30.0], 100.0, 1e-3, 2e-4);
        let sol = solve(&BiObjectiveProblem::new(vec![pair.clone()], 0.0));
        assert_eq!(sol.widths, vec![vec![BitWidth::B2; 2]]);
        assert_eq!(sol.max_time.to_bits(), pair.min_time().to_bits());
    }

    #[test]
    fn variance_decreases_as_lambda_grows() {
        let mk = |lambda| {
            BiObjectiveProblem::new(
                vec![
                    simple_pair(&[10.0, 2.0, 30.0], 200.0, 5e-6, 1e-4),
                    simple_pair(&[8.0, 1.0], 500.0, 2e-6, 1e-4),
                ],
                lambda,
            )
        };
        let v_low = solve(&mk(0.1)).variance;
        let v_high = solve(&mk(0.9)).variance;
        assert!(
            v_high <= v_low + 1e-12,
            "variance should not grow with lambda: {v_low} -> {v_high}"
        );
        let t_low = solve(&mk(0.1)).max_time;
        let t_high = solve(&mk(0.9)).max_time;
        assert!(
            t_high >= t_low - 1e-12,
            "time should not shrink with lambda: {t_low} -> {t_high}"
        );
    }
}

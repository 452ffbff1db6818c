//! The two-level solver: per-pair knapsack greedy inside a Z sweep.

use crate::problem::{
    scalarize, BiObjectiveProblem, GroupSpec, Solution, SolveCounts, SplitSolution, SplitWidths,
};
use quant::BitWidth;
use std::ops::Range;

/// Number of candidate `Z` values sampled between the global min and max
/// feasible times (plus every pair's own breakpoints).
const Z_SAMPLES: usize = 48;

/// Problems of at most this many pairs add every pair's own time extremes
/// to the Z candidates. Per-pair breakpoints sharpen the sweep, but on
/// large clusters they multiply into the dominant solver cost (pairs grow
/// quadratically with devices); past 32 pairs the uniform grid is accurate
/// enough.
const BREAKPOINT_PAIRS: usize = 32;

/// A pair's link and its size: its `(theta, gamma)` and its bytes with
/// every group at each width of [`BitWidth::ALL`]. That is everything about
/// a pair that does not depend on its messages' `beta`s, and it decides
/// whether the pair can move at all ([`SplitProblem::place`]) before any
/// `beta` is read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairShape {
    theta: f64,
    gamma: f64,
    /// Bytes with every group at `BitWidth::ALL[i]`, summed group by group.
    bytes: [f64; 3],
}

impl PairShape {
    /// The shape of a pair on link `(theta, gamma)` (see [`PairSpec`]) whose
    /// groups carry `bytes_per_bit` each, in group order.
    ///
    /// [`PairSpec`]: crate::PairSpec
    pub fn new(theta: f64, gamma: f64, bytes_per_bit: impl IntoIterator<Item = f64>) -> Self {
        // Sums start from `Iterator::sum`'s identity and run group by group
        // ([`GroupSpec::bytes_at`]): the order `PairSpec`'s own accessors
        // use, so every total rounds as theirs does.
        let mut bytes = [-0.0f64; 3];
        for b in bytes_per_bit {
            for (sum, w) in bytes.iter_mut().zip(BitWidth::ALL) {
                *sum += b * w.bits() as f64;
            }
        }
        Self {
            theta,
            gamma,
            bytes,
        }
    }

    /// Transfer time with every group at `BitWidth::ALL[i]`.
    fn times(&self) -> [f64; 3] {
        self.bytes.map(|b| self.theta * b + self.gamma)
    }

    /// Bytes over what fits in `budget_seconds` at 8 bits; never rises with it.
    fn need(&self, budget_seconds: f64) -> f64 {
        need(self.theta, self.gamma, self.bytes[2], budget_seconds)
    }
}

/// Bytes of a pair on link `(theta, gamma)` moving `bytes8` at 8 bits over
/// what fits in `budget_seconds`; never rises with the budget.
fn need(theta: f64, gamma: f64, bytes8: f64, budget_seconds: f64) -> f64 {
    let budget_bytes = if theta > 0.0 {
        (budget_seconds - gamma) / theta
    } else {
        f64::INFINITY
    };
    bytes8 - budget_bytes
}

/// A problem split by what each pair can do under the Z sweep, taken in
/// one pass over its pairs.
///
/// A pair that can move (it needs a move at the smallest Z candidate, the
/// slowest all-2-bit time) is held whole and, when solved, given its greedy
/// downgrade schedule. Every other pair keeps 8 bits under every
/// candidate, so only its totals count: its variance at each uniform width,
/// summed into the problem's, its all-8-bit variance, kept in pair order,
/// and its all-8-bit time, folded into one slowest time. The smallest
/// candidate is known only once every pair is in, but it only rises as
/// pairs come in, and `need` never rises with it: a pair that needs no move
/// at the slowest all-2-bit time so far needs none at the end. So only the
/// pairs that do are held whole, and the solve keeps those that still do.
#[derive(Debug, Clone)]
pub struct SplitProblem {
    lambda: f64,
    /// Slowest pair time with every group at `BitWidth::ALL[i]`, folded from
    /// zero.
    slowest: [f64; 3],
    /// Every pair's `(all-2-bit, all-8-bit)` time while there are at most
    /// [`BREAKPOINT_PAIRS`].
    extremes: Vec<(f64, f64)>,
    /// Total variance with every group at `BitWidth::ALL[i]`, summed pair
    /// by pair.
    variance: [f64; 3],
    /// Every pair's all-8-bit variance, in pair order.
    var8: Vec<f64>,
    /// The slowest all-8-bit time among the pairs not held whole, folded
    /// from zero.
    settled_max: f64,
    /// The pairs held whole, in pair order.
    held: Vec<Held>,
    /// Their groups, group-major.
    beta: Vec<f64>,
    bytes_per_bit: Vec<f64>,
}

/// A pair's shape, placed by [`SplitProblem::place`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placed {
    shape: PairShape,
    held: bool,
}

impl Placed {
    /// Whether the pair will be held whole: it may still move.
    pub fn held(&self) -> bool {
        self.held
    }
}

/// A pair held whole: its position, its shape and its groups' span.
#[derive(Debug, Clone)]
struct Held {
    pair: usize,
    shape: PairShape,
    groups: Range<usize>,
}

impl SplitProblem {
    /// A problem with no pair yet and weight `lambda` on the variance
    /// objective (taken as it stands: clamp it first if it may leave
    /// `[0, 1]`).
    pub fn new(lambda: f64) -> Self {
        Self {
            lambda,
            slowest: [0.0; 3],
            extremes: Vec::new(),
            variance: [-0.0; 3],
            var8: Vec::new(),
            settled_max: 0.0,
            held: Vec::new(),
            beta: Vec::new(),
            bytes_per_bit: Vec::new(),
        }
    }

    /// The next pair, placed: whether [`SplitProblem::push`] will hold it
    /// whole, which it does if it needs a move at the slowest all-2-bit
    /// time so far, its own included (it may still move once every pair is
    /// in; [`SplitProblem::moving`] tells which do).
    pub fn place(&self, shape: PairShape) -> Placed {
        let floor = self.slowest[0].max(shape.times()[0]);
        let held = !self.pure_variance() && shape.need(floor) > 0.0;
        Placed { shape, held }
    }

    /// Takes the next pair, as [`SplitProblem::place`] placed it just
    /// before, with its groups in group order (their `bytes_per_bit` those
    /// its shape was built from).
    pub fn push(&mut self, pair: Placed, groups: impl IntoIterator<Item = GroupSpec>) {
        let Placed { shape, held } = pair;
        let times = shape.times();
        for (slowest, t) in self.slowest.iter_mut().zip(times) {
            *slowest = slowest.max(t);
        }
        let pair = self.var8.len();
        if pair < BREAKPOINT_PAIRS {
            self.extremes.push((times[0], times[2]));
        } else if pair == BREAKPOINT_PAIRS {
            self.extremes = Vec::new();
        }
        // Per width of `BitWidth::ALL`: this pair's variance, summed group
        // by group.
        let mut var = [-0.0f64; 3];
        let mut add = |g: &GroupSpec| {
            for (sum, w) in var.iter_mut().zip(BitWidth::ALL) {
                *sum += g.variance_at(w);
            }
        };
        if held {
            let start = self.beta.len();
            for g in groups {
                add(&g);
                self.beta.push(g.beta);
                self.bytes_per_bit.push(g.bytes_per_bit);
            }
            let groups = start..self.beta.len();
            self.held.push(Held {
                pair,
                shape,
                groups,
            });
        } else {
            groups.into_iter().for_each(|g| add(&g));
            self.settled_max = self.settled_max.max(times[2]);
        }
        self.var8.push(var[2]);
        for (total, v) in self.variance.iter_mut().zip(var) {
            *total += v;
        }
    }

    /// Whether `shape`'s pair needs a move at the slowest all-2-bit time.
    /// Never when `lambda >= 1`, where every group keeps 8 bits.
    fn may_move(&self, shape: &PairShape) -> bool {
        !self.pure_variance() && shape.need(self.slowest[0]) > 0.0
    }

    /// Whether the objective weighs variance alone (`lambda >= 1`), where
    /// every group keeps 8 bits.
    fn pure_variance(&self) -> bool {
        self.lambda >= 1.0
    }

    /// The pairs that can move, ascending by position: those that need a
    /// move at the smallest Z candidate, as `need` never rises with Z.
    pub fn moving(&self) -> impl Iterator<Item = usize> + '_ {
        self.held
            .iter()
            .filter(|h| self.may_move(&h.shape))
            .map(|h| h.pair)
    }

    /// Group `g` of the pairs held whole.
    fn group(&self, g: usize) -> GroupSpec {
        GroupSpec {
            beta: self.beta[g],
            bytes_per_bit: self.bytes_per_bit[g],
        }
    }

    /// The Z candidates of the outer sweep, ascending and distinct: the
    /// global floor and ceiling, every pair's own extremes on small
    /// problems, and a uniform grid between. Never NaN: the floor and
    /// ceiling are `f64::max` folds from zero.
    fn z_candidates(&self) -> Vec<f64> {
        let z_floor = self.slowest[0];
        let z_ceil = self.slowest[2].max(z_floor);
        let mut candidates = Vec::with_capacity(Z_SAMPLES + 2 * self.extremes.len() + 2);
        candidates.push(z_floor);
        candidates.push(z_ceil);
        for &(min_time, max_time) in &self.extremes {
            candidates.push(min_time.max(z_floor));
            candidates.push(max_time.min(z_ceil).max(z_floor));
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

    /// Solves the scalarized bi-objective problem (Eqn. 12); see [`solve`].
    pub fn solve(&self) -> SplitSolution {
        let mut counts = SolveCounts::default();
        if self.var8.is_empty() {
            return SplitSolution {
                widths: SplitWidths::Moved(Vec::new()),
                variance: 0.0,
                max_time: 0.0,
                objective: 0.0,
                iterations: 0,
                counts,
            };
        }
        // `(total variance, slowest pair time)` with every group at
        // `BitWidth::ALL[i]`: the objective normalizers, the sweep's seeds
        // and the Z range.
        let uniform: [(f64, f64); 3] = std::array::from_fn(|i| (self.variance[i], self.slowest[i]));
        let (v_ref, t_ref) = (uniform[0].0, uniform[2].1);
        let score = |(v, t): (f64, f64)| scalarize(self.lambda, v, t, v_ref, t_ref);
        // A uniform assignment, scored from the totals: only the candidate
        // that survives the sweep is ever materialized.
        let uniform_wins = |w: BitWidth, iterations: usize, counts: SolveCounts| {
            let (variance, max_time) = uniform[w.index()];
            SplitSolution {
                widths: SplitWidths::Uniform(w),
                variance,
                max_time,
                objective: score((variance, max_time)),
                iterations,
                counts,
            }
        };
        if self.pure_variance() {
            // Pure variance objective: maximize precision everywhere.
            return uniform_wins(BitWidth::B8, 1, counts);
        }
        let schedule = Schedule::of(self);
        counts.scheduled = schedule.heads.len();
        counts.moves = schedule.moves.len();
        let candidates = self.z_candidates();
        // Candidate-assignment evaluation count, reported on the solution.
        let iterations = BitWidth::ALL.len() + candidates.len();

        // Seed with the three uniform assignments so the sweep can never
        // lose to a trivial candidate.
        let scores = uniform.map(score);
        let seed =
            (1..scores.len()).fold(0, |seed, i| if scores[i] < scores[seed] { i } else { seed });

        let (variance, max_time) = schedule.sweep(&self.var8, &candidates, &mut counts.evaluations);
        let mut best_candidate: Option<(f64, f64)> = None; // (objective, z)
        for ((&z, &v), &t) in candidates.iter().zip(&variance).zip(&max_time) {
            let obj = score((v, t));
            if best_candidate.is_none_or(|(o, _)| obj < o) {
                best_candidate = Some((obj, z));
            }
        }
        match best_candidate {
            Some((obj, z)) if obj < scores[seed] => {
                let (widths, variance, max_time) = schedule.materialize(self, z);
                SplitSolution {
                    widths: SplitWidths::Moved(widths),
                    variance,
                    max_time,
                    objective: score((variance, max_time)),
                    iterations,
                    counts,
                }
            }
            _ => uniform_wins(BitWidth::ALL[seed], iterations, counts),
        }
    }
}

/// The greedy downgrade schedules of a [`SplitProblem`]'s moving pairs:
/// moves sorted by variance added per byte saved, as prefix sums in arenas
/// shared by all of them, so a byte budget resolves with a search instead
/// of a fresh sort.
struct Schedule {
    heads: Vec<PairHead>,
    /// Cumulative bytes saved after a pair's first `k + 1` moves.
    saved: Vec<f64>,
    /// Cumulative variance added after a pair's first `k + 1` moves.
    dvar: Vec<f64>,
    /// Move `k`'s `(group, to)`, the group counted within its pair.
    moves: Vec<(usize, BitWidth)>,
    /// The slowest all-8-bit time among the pairs that cannot move.
    fixed_max: f64,
}

/// A moving pair: its position, its slices of the [`SplitProblem`] group
/// arrays and of the [`Schedule`] arenas, its link, and its all-8-bit
/// totals.
struct PairHead {
    pair: usize,
    groups: Range<usize>,
    moves: Range<usize>,
    theta: f64,
    gamma: f64,
    bytes8: f64,
    var8: f64,
    max_time: f64,
}

impl Schedule {
    /// Schedules every pair of `problem` that can move; any other pair held
    /// whole only adds its time to the slowest.
    fn of(problem: &SplitProblem) -> Self {
        let mut out = Self {
            heads: Vec::new(),
            saved: Vec::new(),
            dvar: Vec::new(),
            moves: Vec::new(),
            fixed_max: problem.settled_max,
        };
        // Per move: (variance added per byte saved, group, to, dv, db).
        let mut sorting: Vec<(f64, usize, BitWidth, f64, f64)> = Vec::new();
        for held in &problem.held {
            let shape = &held.shape;
            let max_time = shape.theta * shape.bytes[2] + shape.gamma;
            if !problem.may_move(shape) {
                out.fixed_max = out.fixed_max.max(max_time);
                continue;
            }
            sorting.clear();
            for (k, g) in held.groups.clone().enumerate() {
                let spec = problem.group(g);
                let at = BitWidth::ALL.map(|w| (spec.variance_at(w), spec.bytes_at(w)));
                // 8 -> 4, then 4 -> 2.
                for to in [1, 0] {
                    let dv = at[to].0 - at[to + 1].0;
                    let db = at[to + 1].1 - at[to].1;
                    if db > 0.0 {
                        sorting.push((dv / db, k, BitWidth::ALL[to], dv, db));
                    }
                }
            }
            // Convexity of 1/(2^b-1)^2 vs bytes guarantees a group's 8->4
            // move sorts before its 4->2 move, so prefix application stays
            // legal.
            sorting.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (start, mut s, mut v) = (out.saved.len(), 0.0, 0.0);
            for &(_, group, to, dv, db) in &sorting {
                s += db;
                v += dv;
                out.saved.push(s);
                out.dvar.push(v);
                out.moves.push((group, to));
            }
            out.heads.push(PairHead {
                pair: held.pair,
                groups: held.groups.clone(),
                moves: start..out.saved.len(),
                theta: shape.theta,
                gamma: shape.gamma,
                bytes8: shape.bytes[2],
                var8: problem.var8[held.pair],
                max_time,
            });
        }
        out
    }

    /// Number of prefix moves head `p` needs to fit `budget_seconds` (all
    /// of them when even all-2-bit does not fit). Never rises with the
    /// budget.
    ///
    /// `cursor` is where the previous budget's search on this pair ended
    /// (start it at 0): budgets swept in sorted order move it monotonically,
    /// so a whole sweep walks each pair's moves once instead of
    /// binary-searching them per budget. Any order is still answered
    /// correctly.
    fn moves_for_budget(&self, p: usize, budget_seconds: f64, cursor: &mut usize) -> usize {
        let head = &self.heads[p];
        let need = need(head.theta, head.gamma, head.bytes8, budget_seconds);
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

    /// `(variance, time)` of head `p` after its first `k` moves.
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

    /// Every candidate's `(total variance, slowest pair time)`, `var8` being
    /// every pair's all-8-bit variance.
    ///
    /// Each candidate sums its pairs' variances in pair order, which keeps
    /// the sums, and so the widths, bit-identical to a candidate-major
    /// loop. A pair that takes no move adds its all-8-bit variance, so
    /// candidates under which every pair so far took no move hold the
    /// same sum: they share one accumulator (`shared`, for candidates
    /// `split..`) until a moving pair needs a move under one of them. A
    /// pair that cannot move therefore adds to `split` candidates and the
    /// shared sum only, and its time, the same under every candidate,
    /// folds into one maximum (exact in any order).
    ///
    /// A moving pair walks the ascending candidates with a cursor into its
    /// own schedule. Its move count never rises with the budget, so once it
    /// needs no move it needs none under any later candidate, and the walk
    /// stops there; each lookup counts as one evaluation.
    fn sweep(
        &self,
        var8: &[f64],
        candidates: &[f64],
        evaluations: &mut usize,
    ) -> (Vec<f64>, Vec<f64>) {
        let n = candidates.len();
        let mut variance = vec![0.0f64; n];
        let mut max_time = vec![0.0f64; n];
        let (mut split, mut shared, mut next) = (0, 0.0f64, 0);
        let add_fixed = |run: &[f64], variance: &mut [f64], shared: &mut f64| {
            for &v in run {
                for var in variance.iter_mut() {
                    *var += v;
                }
                *shared += v;
            }
        };
        for (p, head) in self.heads.iter().enumerate() {
            add_fixed(&var8[next..head.pair], &mut variance[..split], &mut shared);
            next = head.pair + 1;
            let (mut c, mut cursor) = (0, 0);
            while c < n {
                let k = self.moves_for_budget(p, candidates[c], &mut cursor);
                *evaluations += 1;
                if k == 0 {
                    break;
                }
                let (v, t) = self.stats_after(p, k);
                if c >= split {
                    variance[c] = shared;
                }
                variance[c] += v;
                max_time[c] = max_time[c].max(t);
                c += 1;
            }
            // From candidate `c` on, the pair keeps 8 bits.
            let (v, t) = self.stats_after(p, 0);
            for var in &mut variance[c.min(split)..split] {
                *var += v;
            }
            shared += v;
            split = split.max(c);
            for time in &mut max_time[c..] {
                *time = time.max(t);
            }
        }
        add_fixed(&var8[next..], &mut variance[..split], &mut shared);
        variance[split..].fill(shared);
        for time in &mut max_time {
            *time = time.max(self.fixed_max);
        }
        (variance, max_time)
    }

    /// The widths of the moving pairs' groups under `z`, head by head, and
    /// the total variance and slowest time scored from them, group by
    /// group within a pair and pair by pair.
    fn materialize(&self, problem: &SplitProblem, z: f64) -> (Vec<BitWidth>, f64, f64) {
        let mut widths = Vec::new();
        let (mut variance, mut max_time) = (-0.0, self.fixed_max);
        let mut next = 0;
        for (p, head) in self.heads.iter().enumerate() {
            for &v in &problem.var8[next..head.pair] {
                variance += v;
            }
            next = head.pair + 1;
            let start = widths.len();
            widths.resize(start + head.groups.len(), BitWidth::B8);
            // A pair that takes no move keeps 8 bits, whose sums its head
            // already holds, taken in the same order.
            let k = self.moves_for_budget(p, z, &mut 0);
            if k == 0 {
                variance += head.var8;
                max_time = max_time.max(head.max_time);
                continue;
            }
            let own = &mut widths[start..];
            for &(g, to) in &self.moves[head.moves.start..][..k] {
                own[g] = to;
            }
            let (mut var, mut bytes) = (-0.0, -0.0);
            for (g, &w) in head.groups.clone().zip(own.iter()) {
                let spec = problem.group(g);
                var += spec.variance_at(w);
                bytes += spec.bytes_at(w);
            }
            variance += var;
            max_time = max_time.max(head.theta * bytes + head.gamma);
        }
        for &v in &problem.var8[next..] {
            variance += v;
        }
        (widths, variance, max_time)
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
/// The problem is taken into a [`SplitProblem`] pair by pair, and its
/// widths come back one list per pair.
pub fn solve(problem: &BiObjectiveProblem) -> Solution {
    let split = split(problem);
    let solution = split.solve();
    let mut widths: Vec<Vec<BitWidth>> = problem
        .pairs
        .iter()
        .map(|p| vec![BitWidth::B8; p.groups.len()])
        .collect();
    match solution.widths {
        SplitWidths::Uniform(w) => widths.iter_mut().flatten().for_each(|x| *x = w),
        SplitWidths::Moved(moved) => {
            let mut moved = moved.into_iter();
            for p in split.moving() {
                for (w, m) in widths[p].iter_mut().zip(&mut moved) {
                    *w = m;
                }
            }
        }
    }
    Solution {
        widths,
        variance: solution.variance,
        max_time: solution.max_time,
        objective: solution.objective,
        iterations: solution.iterations,
    }
}

/// `problem`'s pairs, in order, in a [`SplitProblem`] with its `lambda` as
/// it stands.
fn split(problem: &BiObjectiveProblem) -> SplitProblem {
    let mut split = SplitProblem::new(problem.lambda);
    for pair in &problem.pairs {
        let bytes_per_bit = pair.groups.iter().map(|g| g.bytes_per_bit);
        let shape = PairShape::new(pair.theta, pair.gamma, bytes_per_bit);
        split.push(split.place(shape), pair.groups.iter().copied());
    }
    split
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_shared_sweep_sums_every_candidate_in_pair_order(
            problem in prop_oneof![arb_problem(), arb_fleet_problem()],
        ) {
            let split = split(&problem);
            prop_assume!(!split.var8.is_empty() && !split.pure_variance());
            let schedule = Schedule::of(&split);
            let candidates = split.z_candidates();
            let (variance, max_time) = schedule.sweep(&split.var8, &candidates, &mut 0);
            // Candidate by candidate, pair by pair: a moving pair's totals
            // after its moves under the candidate, any other pair's at 8
            // bits.
            for (c, &z) in candidates.iter().enumerate() {
                let (mut var, mut time, mut heads) = (0.0f64, 0.0f64, 0);
                for (pair, &var8) in split.var8.iter().enumerate() {
                    let (v, t) = match schedule.heads.get(heads) {
                        Some(head) if head.pair == pair => {
                            heads += 1;
                            let k = schedule.moves_for_budget(heads - 1, z, &mut 0);
                            schedule.stats_after(heads - 1, k)
                        }
                        _ => (var8, problem.pairs[pair].max_time()),
                    };
                    var += v;
                    time = time.max(t);
                }
                prop_assert_eq!(variance[c].to_bits(), var.to_bits(), "candidate {}", c);
                prop_assert_eq!(max_time[c].to_bits(), time.to_bits(), "candidate {}", c);
            }
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

//! Property tests: the heuristic solver against brute force, and structural
//! invariants of the assignment.

use proptest::prelude::*;
use solver::{brute_force, solve, BiObjectiveProblem, GroupSpec, PairSpec};

fn arb_group() -> impl Strategy<Value = GroupSpec> {
    (0.01f64..100.0, 1.0f64..500.0).prop_map(|(beta, bytes_per_bit)| GroupSpec {
        beta,
        bytes_per_bit,
    })
}

fn arb_pair(max_groups: usize) -> impl Strategy<Value = PairSpec> {
    (
        1e-7f64..1e-4,
        0.0f64..1e-3,
        proptest::collection::vec(arb_group(), 1..=max_groups),
    )
        .prop_map(|(theta, gamma, groups)| PairSpec {
            theta,
            gamma,
            groups,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn heuristic_close_to_brute_force(
        pairs in proptest::collection::vec(arb_pair(3), 1..=3),
        lambda in 0.0f64..=1.0,
    ) {
        let total: usize = pairs.iter().map(|p| p.groups.len()).sum();
        prop_assume!(total <= 8);
        let prob = BiObjectiveProblem::new(pairs, lambda);
        let heur = solve(&prob);
        let exact = brute_force(&prob);
        prop_assert!(
            heur.objective <= exact.objective * 1.10 + 1e-12,
            "heuristic {} vs exact {}",
            heur.objective,
            exact.objective
        );
    }

    #[test]
    fn solution_shape_matches_problem(
        pairs in proptest::collection::vec(arb_pair(6), 1..=5),
        lambda in 0.0f64..=1.0,
    ) {
        let prob = BiObjectiveProblem::new(pairs.clone(), lambda);
        let sol = solve(&prob);
        prop_assert_eq!(sol.widths.len(), pairs.len());
        for (w, p) in sol.widths.iter().zip(&pairs) {
            prop_assert_eq!(w.len(), p.groups.len());
        }
        // Reported metrics are consistent with the returned widths.
        prop_assert!((sol.variance - prob.total_variance(&sol.widths)).abs() < 1e-9);
        prop_assert!((sol.max_time - prob.max_time(&sol.widths)).abs() < 1e-9);
    }

    #[test]
    fn objective_no_worse_than_uniform_extremes(
        pairs in proptest::collection::vec(arb_pair(5), 1..=4),
        lambda in 0.0f64..=1.0,
    ) {
        let prob = BiObjectiveProblem::new(pairs.clone(), lambda);
        let sol = solve(&prob);
        for w in quant::BitWidth::ALL {
            let uniform: Vec<Vec<quant::BitWidth>> = pairs
                .iter()
                .map(|p| vec![w; p.groups.len()])
                .collect();
            let uniform_obj = prob.objective(&uniform);
            prop_assert!(
                sol.objective <= uniform_obj + 1e-12,
                "solver {} beaten by uniform {w}: {uniform_obj}",
                sol.objective
            );
        }
    }

    #[test]
    fn hostile_betas_still_yield_a_solution(
        specs in proptest::collection::vec(
            (
                1e-7f64..1e-4,
                0.0f64..1e-3,
                proptest::collection::vec(
                    (
                        prop_oneof![
                            Just(f64::NAN),
                            Just(f64::INFINITY),
                            Just(-0.0f64),
                            0.01f64..100.0
                        ],
                        1.0f64..500.0,
                    ),
                    1..=6,
                ),
            ),
            1..=40,
        ),
        lambda in 0.0f64..=1.0,
    ) {
        // A NaN sort key used to reach `slice::sort` through a comparator
        // that was not a total order, which is allowed to panic.
        let pairs: Vec<PairSpec> = specs
            .into_iter()
            .map(|(theta, gamma, groups)| PairSpec {
                theta,
                gamma,
                groups: groups
                    .into_iter()
                    .map(|(beta, bytes_per_bit)| GroupSpec { beta, bytes_per_bit })
                    .collect(),
            })
            .collect();
        let prob = BiObjectiveProblem::new(pairs.clone(), lambda);
        let sol = solve(&prob);
        prop_assert_eq!(sol.widths.len(), pairs.len());
        for (w, p) in sol.widths.iter().zip(&pairs) {
            prop_assert_eq!(w.len(), p.groups.len());
            prop_assert!(w.iter().all(|b| quant::BitWidth::ALL.contains(b)));
        }
    }
}

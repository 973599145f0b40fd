//! Property tests: the incremental [`FeasibilityProber`] must be
//! observationally identical to the stateless fresh-build feasibility path —
//! same verdicts under arbitrary probe orders, same binary-search result,
//! and bit-identical extracted allocations — on randomly generated
//! instances.

use mm_instance::generators::{agreeable, laminar, uniform, AgreeableCfg, LaminarCfg, UniformCfg};
use mm_instance::Instance;
use mm_opt::{feasible_allocation, feasible_on, optimal_machines, FeasibilityProber};
use proptest::prelude::*;

fn random_instance(family: u8, n: usize, seed: u64) -> Instance {
    match family % 3 {
        0 => uniform(
            &UniformCfg {
                n,
                horizon: (2 * n) as i64,
                ..Default::default()
            },
            seed,
        ),
        1 => agreeable(
            &AgreeableCfg {
                n,
                ..Default::default()
            },
            seed,
        ),
        _ => laminar(
            &LaminarCfg {
                depth: 2,
                branching: (n % 3) + 2,
                ..Default::default()
            },
            seed,
        ),
    }
}

proptest! {
    /// Any probe sequence — ascending, descending, repeated — answers
    /// exactly as the stateless path does.
    #[test]
    fn prober_agrees_with_fresh_in_any_order(
        family in any::<u8>(),
        n in 1usize..24,
        seed in any::<u64>(),
        probes in proptest::collection::vec(0u64..12, 1..10),
    ) {
        let inst = random_instance(family, n, seed);
        let mut prober = FeasibilityProber::new(&inst);
        for m in probes {
            prop_assert_eq!(prober.probe(m), feasible_on(&inst, m));
        }
    }

    /// The prober-backed binary search lands on the feasibility boundary
    /// that fresh-network probes see: `m` fits and `m − 1` does not.
    #[test]
    fn search_paths_agree(family in any::<u8>(), n in 1usize..24, seed in any::<u64>()) {
        let inst = random_instance(family, n, seed);
        let m = optimal_machines(&inst);
        prop_assert!(feasible_on(&inst, m));
        prop_assert!(m == 0 || !feasible_on(&inst, m - 1));
    }

    /// Allocations extracted through a dirtied prober are bit-identical to
    /// fresh-build ones (same Dinic augmentation order after a reset).
    #[test]
    fn prober_allocation_matches_fresh(
        family in any::<u8>(),
        n in 1usize..16,
        seed in any::<u64>(),
        dirty in proptest::collection::vec(0u64..10, 0..6),
    ) {
        let inst = random_instance(family, n, seed);
        let m = optimal_machines(&inst);
        let fresh = feasible_allocation(&inst, m).expect("m is the optimum");
        let mut prober = FeasibilityProber::new(&inst);
        for d in dirty {
            prober.probe(d);
        }
        let reused = prober.allocation(m).expect("m is the optimum");
        prop_assert_eq!(fresh.intervals, reused.intervals);
        prop_assert_eq!(fresh.amounts, reused.amounts);
    }
}

mod budgeted {
    //! Budgeted-probe properties: cancellation is sound (never lies, always
    //! resumable), the certified bracket always contains the true optimum,
    //! and geometric escalation converges to it.

    use super::random_instance;
    use mm_fault::Budget;
    use mm_instance::Instance;
    use mm_numeric::Rat;
    use mm_opt::{feasible_on, optimal_machines, optimal_machines_budgeted, FeasibilityProber};
    use proptest::prelude::*;

    proptest! {
        /// A starved probe may answer Unknown but never answers wrongly, and
        /// re-probing the same count with no budget gives the fresh answer —
        /// a cancelled probe leaves a valid resumable partial flow behind.
        #[test]
        fn cancelled_probe_never_lies_and_resumes(
            family in any::<u8>(),
            n in 1usize..20,
            seed in any::<u64>(),
            m in 0u64..10,
            augs in 1u64..4,
        ) {
            let inst = random_instance(family, n, seed);
            let mut prober = FeasibilityProber::new(&inst);
            let starved = Budget::unlimited().with_augmentations(augs);
            let verdict = prober.probe_budgeted(m, &starved);
            if let Some(answer) = verdict.decided() {
                prop_assert_eq!(answer, feasible_on(&inst, m));
            }
            prop_assert_eq!(prober.probe(m), feasible_on(&inst, m));
        }

        /// The budgeted search's certified bracket always contains the
        /// unbudgeted optimum; when it claims exactness, it is right.
        #[test]
        fn bracket_contains_unbudgeted_optimum(
            family in any::<u8>(),
            n in 1usize..20,
            seed in any::<u64>(),
            augs in 1u64..6,
        ) {
            let inst = random_instance(family, n, seed);
            let exact = optimal_machines(&inst);
            let budget = Budget::unlimited().with_augmentations(augs);
            let search = optimal_machines_budgeted(&inst, &budget);
            prop_assert!(
                search.lo <= exact && exact <= search.hi,
                "bracket [{}, {}] misses optimum {}", search.lo, search.hi, exact
            );
            if let Some(m) = search.exact {
                prop_assert_eq!(m, exact);
                prop_assert_eq!(search.lo, search.hi);
            }
        }

        /// Doubling the budget a bounded number of times always reaches the
        /// exact optimum (the CLI's escalation loop terminates correctly).
        #[test]
        fn escalation_converges_to_exact(
            family in any::<u8>(),
            n in 1usize..16,
            seed in any::<u64>(),
        ) {
            let inst = random_instance(family, n, seed);
            let exact = optimal_machines(&inst);
            let mut budget = Budget::unlimited().with_augmentations(1);
            let mut reached = None;
            for _ in 0..32 {
                let search = optimal_machines_budgeted(&inst, &budget);
                prop_assert!(search.lo <= exact && exact <= search.hi);
                if let Some(m) = search.exact {
                    reached = Some(m);
                    break;
                }
                budget = budget.doubled();
            }
            prop_assert_eq!(reached, Some(exact));
        }

        /// Arbitrary — frequently degenerate — triples sanitize into a valid
        /// instance the solver handles without panicking.
        #[test]
        fn solver_survives_sanitized_degenerate_triples(
            triples in proptest::collection::vec((-10i64..30, -10i64..30, -10i64..12), 0..15),
        ) {
            let rat_triples = triples
                .iter()
                .map(|&(r, d, p)| (Rat::from(r), Rat::from(d), Rat::from(p)));
            let (inst, report) = Instance::sanitize_triples(rat_triples);
            prop_assert!(inst.validate().is_ok());
            prop_assert_eq!(
                inst.len() + report.dropped,
                triples.len(),
                "every triple is kept (possibly clamped) or counted dropped"
            );
            if !inst.is_empty() {
                let m = optimal_machines(&inst);
                prop_assert!(m >= 1);
                prop_assert!(feasible_on(&inst, m));
            }
        }
    }
}

//! Property tests: the budgeted decider ([`mm_opt::FastProber`] behind
//! [`mm_opt::optimal_machines_budgeted`]) finds the flow oracle's optimum,
//! its budgeted brackets contain that optimum, and the proofs read off its
//! own evidence equal, byte for byte, the proofs built from fresh
//! [`mm_opt::FeasibilityProber`] flows.

use mm_fault::Budget;
use mm_instance::generators::{agreeable, laminar, uniform, AgreeableCfg, LaminarCfg, UniformCfg};
use mm_instance::Instance;
use mm_numeric::Rat;
use mm_opt::{
    infeasibility_cert, optimal_machines, optimal_machines_budgeted, proof_for_probe,
    proof_for_probe_from, proof_for_solve, proof_for_solve_from, schedule_witness, FastProber,
    Proof,
};
use mm_trace::NoopSink;
use proptest::prelude::*;

/// General, agreeable, and laminar instances; odd `family / 3` rescales
/// time by 2/3, so endpoints and volumes turn fractional.
fn random_instance(family: u8, n: usize, seed: u64) -> Instance {
    let inst = match family % 3 {
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
                max_window: 4 + (n as i64 % 12),
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
    };
    if family / 3 % 2 == 1 {
        inst.affine(&Rat::zero(), &Rat::zero(), &Rat::ratio(2, 3))
    } else {
        inst
    }
}

fn bytes(proof: &Option<Proof>) -> Option<String> {
    proof.as_ref().map(|p| p.to_json().to_compact())
}

/// The proofs of the verdicts at `m`, built from fresh flows only.
fn fresh_probe_proof(inst: &Instance, m: u64, feasible: bool) -> Option<Proof> {
    if feasible {
        Some(Proof::Feasible {
            machines: m,
            witness: schedule_witness(inst, m),
        })
    } else {
        infeasibility_cert(inst, m).map(|cert| Proof::Infeasible { cert })
    }
}

proptest! {
    /// Unbudgeted, the decider's optimum is the flow oracle's; under any
    /// augmentation budget its bracket contains that optimum and stays
    /// inside the bounds known without probing.
    #[test]
    fn decider_matches_the_flow_oracle(
        family in any::<u8>(),
        n in 1usize..20,
        seed in any::<u64>(),
        augs in 1u64..8,
    ) {
        let inst = random_instance(family, n, seed);
        let exact = optimal_machines(&inst);
        prop_assert_eq!(optimal_machines_budgeted(&inst, &Budget::unlimited()).exact, Some(exact));
        let search = optimal_machines_budgeted(&inst, &Budget::unlimited().with_augmentations(augs));
        prop_assert!(
            search.lo <= exact && exact <= search.hi,
            "bracket [{}, {}] misses optimum {}", search.lo, search.hi, exact
        );
        prop_assert!(search.lo >= inst.volume_lower_bound().max(1));
        prop_assert!(search.hi <= inst.len() as u64);
        if let Some(m) = search.exact {
            prop_assert_eq!(m, exact);
        }
    }

    /// Solve and probe proofs read from the decider equal the fresh ones,
    /// after a full search and after single probes alike.
    #[test]
    fn decider_proofs_equal_fresh_proofs(
        family in any::<u8>(),
        n in 1usize..16,
        seed in any::<u64>(),
    ) {
        let inst = random_instance(family, n, seed);
        let mut decider = FastProber::new(&inst);
        let m = decider.optimal_machines();
        let fresh = proof_for_solve(&inst, m);
        if m > 0 {
            let reference = Proof::Optimal {
                machines: m,
                witness: schedule_witness(&inst, m),
                cert: infeasibility_cert(&inst, m - 1),
            };
            prop_assert_eq!(bytes(&Some(fresh.clone())), bytes(&Some(reference)));
        }
        prop_assert_eq!(bytes(&Some(proof_for_solve_from(&mut decider, m))), bytes(&Some(fresh)));
        // Probe proofs on the searched decider, below and at the optimum.
        for probe in [m.saturating_sub(1), m] {
            let feasible = probe >= m;
            prop_assert_eq!(
                bytes(&proof_for_probe_from(&mut decider, probe, feasible)),
                bytes(&fresh_probe_proof(&inst, probe, feasible))
            );
        }
        // And on a decider that made that one probe only.
        for probe in 0..=m + 1 {
            let mut single = FastProber::new(&inst);
            let feasible = single
                .decide_budgeted_traced(probe, &Budget::unlimited(), NoopSink)
                .decided()
                .expect("unlimited budget decides");
            prop_assert_eq!(feasible, probe >= m);
            let fresh = proof_for_probe(&inst, probe, feasible);
            prop_assert_eq!(bytes(&fresh), bytes(&fresh_probe_proof(&inst, probe, feasible)));
            prop_assert_eq!(bytes(&proof_for_probe_from(&mut single, probe, feasible)), bytes(&fresh));
        }
    }
}

/// The evidence path is the one the properties above exercise: on general
/// instances a flow refutes `m − 1` during the search, and the decider's
/// certificate read from that flow's cut equals the fresh one.
#[test]
fn flow_refuted_counts_carry_their_cut() {
    let mut with_evidence = 0;
    for seed in 0..24u64 {
        let inst = random_instance(0, 14, seed);
        let mut decider = FastProber::new(&inst);
        let m = decider.optimal_machines();
        if let Some(witness) = decider.flow_witness(m - 1) {
            with_evidence += 1;
            let fresh = mm_opt::FeasibilityProber::new(&inst).infeasible_witness(m - 1);
            assert_eq!(Some(witness), fresh, "seed {seed}");
        }
    }
    assert!(with_evidence > 0, "no search left a flow cut at m − 1");
}

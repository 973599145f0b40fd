//! Offline optimum for preemptive machine minimization.
//!
//! Everything the paper assumes about the offline problem, implemented
//! exactly:
//!
//! * [`feasible_on`] / [`optimal_machines`] — migratory feasibility on `m`
//!   machines via the classic event-interval max-flow network, and the exact
//!   optimum `m(J)` by binary search (the problem is polynomial-time
//!   solvable, \[6\] in the paper);
//! * [`optimal_schedule`] — an explicit optimal migratory schedule extracted
//!   from the flow with McNaughton's wrap-around rule;
//! * [`contribution_bound`] — Theorem 1 lower-bound certificates
//!   `⌈C(S,I)/|I|⌉` with an explicit witness union;
//! * [`demigrate`] — a constructive offline migratory → non-migratory
//!   transformation with exact single-machine EDF acceptance, the interface
//!   of Kalyanasundaram–Pruhs' Theorem 2 ([`theorem2_bound`] is `6m − 5`).
//!
//! # Example
//!
//! ```
//! use mm_instance::Instance;
//! use mm_opt::{contribution_bound, optimal_machines};
//!
//! // Three simultaneous full-window jobs need three machines...
//! let inst = Instance::from_ints([(0, 2, 2), (0, 2, 2), (0, 2, 2)]);
//! assert_eq!(optimal_machines(&inst), 3);
//! // ...and Theorem 1's contribution bound certifies it.
//! assert_eq!(contribution_bound(&inst).bound, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod certificate;
mod certifier;
mod critical;
mod demigrate;
mod exhaustive;
mod extract;
mod feasibility;
mod proof;

pub use certificate::{contribution_bound, Certificate};
pub use certifier::{
    classify_path, feasible_on_fast, optimal_machines_fast, DecisionPath, DispatchStats, FastProber,
};
pub use critical::{check_critical_pair, theorem10_shape, CriticalityFailure};
pub use demigrate::{demigrate, edf_single, single_machine_feasible, theorem2_bound, Demigration};
pub use exhaustive::{exhaustive_contribution_bound, EXHAUSTIVE_LIMIT};
pub use extract::{optimal_schedule, schedule_from_allocation};
pub use feasibility::{
    elementary_intervals, feasible_allocation, feasible_on, feasible_on_traced, optimal_machines,
    optimal_machines_budgeted, optimal_machines_budgeted_traced, optimal_machines_traced,
    BudgetedSearch, FeasibilityProber, FlowAllocation, ProberStats, Verdict,
};
pub use proof::{
    infeasibility_cert, proof_for_probe, proof_for_probe_from, proof_for_solve,
    proof_for_solve_from, schedule_witness, verify, Claim, Proof, ScheduleWitness, Verification,
    VolumeCert, PROOF_WITNESS_CAP,
};

//! `machmin` — online machine minimization with and without migration.
//!
//! Facade crate re-exporting the full workspace API. This is a faithful
//! reproduction of *“The Power of Migration in Online Machine Minimization”*
//! (Chen, Megow, Schewior — SPAA 2016): the problem model, the offline
//! optimum, the paper's online algorithms for loose/laminar/agreeable
//! instances, the classic baselines (EDF, LLF), and the paper's lower-bound
//! adversaries.
//!
//! See the crate-level docs of the member crates for details:
//!
//! * [`numeric`] — exact big-integer / rational arithmetic,
//! * [`instance`] — jobs, instances, classification, generators,
//! * [`flow`] — exact max-flow substrate,
//! * [`sim`] — schedules, verification, and the online driver,
//! * [`opt`] — offline optimum and Theorem 1 certificates,
//! * [`core`] — the online algorithms,
//! * [`adversary`] — the lower-bound constructions.

#![forbid(unsafe_code)]

mod bench;
pub mod cli;
mod error;

pub use error::Error;

pub use mm_adversary as adversary;
pub use mm_core as core;
pub use mm_flow as flow;
pub use mm_instance as instance;
pub use mm_numeric as numeric;
pub use mm_opt as opt;
pub use mm_sim as sim;

/// Commonly used items in one import.
pub mod prelude {
    pub use mm_instance::{Instance, Interval, IntervalSet, Job, JobId, StructureClass};
    pub use mm_numeric::{BigInt, Rat};
}

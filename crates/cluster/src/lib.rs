//! Sharded scatter–gather coordinator over a pool of `machmin serve`
//! backends.
//!
//! The coordinator owns a static pool of JSONL-over-TCP backends (no
//! discovery — addresses come from `--backends host:port,...`), keeps
//! per-backend health state with jittered probe pings, and fans work units
//! out under a pluggable [`BalancePolicy`]. Three workloads build on the
//! same engine:
//!
//! * [`cluster_solve`] — ascending-`m` feasibility probes for one instance; the
//!   gather step returns the first certified optimum, or the tightest
//!   merged `[lo, hi]` bracket when some probes come back degraded.
//! * [`cluster_sweep`] — an adversary sweep sharded as `(policy, depth)` pairs,
//!   with per-shard checkpoints so a torn run resumes where it stopped.
//! * [`cluster_grid`] — a remote experiment grid (generator family × seed) whose
//!   results merge into one summary with per-backend counters.
//! * [`cluster_online`] — the online-scheduler portfolio race (member × family ×
//!   seed) served on the pool, merged into per-member competitive-ratio
//!   statistics with a single-node parity reference.
//!
//! **Determinism contract.** Backend responses carry no timestamps, so a
//! response line is a pure function of the request payload. Hedged copies
//! reuse the primary's request id and idempotency key, which makes the
//! winning copy's bytes independent of *which* copy won. The transcript —
//! response lines sorted by unit id under a deterministic header — is
//! therefore byte-identical across same-seed runs even when hedges,
//! retries, and backend drops land at different wall-clock instants.
//!
//! Failure handling is explicitly budgeted: bounded retries with
//! decorrelated jitter ([`mm_fault::RetryPolicy`]), quarantine for
//! backends that fail repeatedly, and the `backend_drop` fault site
//! ([`mm_fault::FaultSite::BackendDrop`]) so `machmin chaos` and the soak
//! harness can kill a backend mid-sweep and assert that nothing is lost.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod balance;
mod coordinator;
mod grid;
mod membership;
mod migrate;
mod online;
mod solve;
mod stats;
mod sweep;

pub use backend::{BackendView, NetEvent, Pool};
pub use balance::{BalancePolicy, Balancer};
pub use coordinator::{
    ClusterConfig, ClusterCounters, ClusterReport, Coordinator, HedgeConfig, VerifyPolicy,
    VerifyStats, HEALTH_ID_BASE,
};
pub use grid::{cluster_grid, GridConfig, GridOutcome};
pub use membership::{member_state, ChurnAction, ChurnPlan};
pub use migrate::{MigrationGovernor, OverloadConfig, OverloadIndex, OverloadSample};
pub use online::{cluster_online, local_online_merge, OnlineConfig, OnlineOutcome};
pub use solve::{cluster_solve, SolveOutcome};
pub use stats::{cluster_stats, scrape_backend, BackendStats, StatsOutcome, STATS_ID_BASE};
pub use sweep::{cluster_sweep, SweepConfig, SweepOutcome};

/// The splitmix64 mix used everywhere a deterministic hash of `(seed,
/// salt)` is needed: seeded-hash balancing, health-probe jitter,
/// idempotency keys. Matches the generator discipline used across the
/// workspace.
pub(crate) fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::mix;

    #[test]
    fn mix_is_deterministic_and_salt_sensitive() {
        assert_eq!(mix(7, 3), mix(7, 3));
        assert_ne!(mix(7, 3), mix(7, 4));
        assert_ne!(mix(7, 3), mix(8, 3));
    }
}

//! Execution budgets and deterministic fault injection for the machmin
//! workspace.
//!
//! The exact feasibility probes (`mm-opt` over `mm-flow`) and the adaptive
//! adversary runs (`mm-adversary`) are super-polynomial in the worst case on
//! adversarial instances. To keep the stack a *service* rather than a batch
//! job that may hang, every long-running component accepts a [`Budget`] and
//! checks a [`BudgetMeter`] at cooperative cancellation checkpoints: a probe
//! that exhausts its budget returns an *unknown* verdict instead of running
//! on, and callers degrade to certified brackets instead of exact answers.
//!
//! The second half of the crate is chaos-style fault injection: a seeded,
//! fully deterministic [`FaultPlan`] decides, per named [`FaultSite`], which
//! hits of that site inject a failure. Every degradation path in the stack
//! (cancelled probes, forced limb-path arithmetic, machine failures and
//! slowdowns in the simulator, aborted adversary rounds) can therefore be
//! exercised in tests and CI without any nondeterminism or wall-clock
//! dependence — two runs of the same plan produce identical event sequences.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use mm_json::Json;

/// Resource limits for one budgeted operation (a feasibility probe, a
/// binary-search step, a simulation run). `None` means unlimited.
///
/// Budgets compose with *geometric escalation*: [`Budget::doubled`] doubles
/// every finite limit, which is how the CLI retries a budget-exceeded solve
/// a bounded number of times before settling for a bracket.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum driver decision steps (simulator).
    pub max_steps: Option<u64>,
    /// Maximum augmenting paths per feasibility probe (flow solver).
    pub max_augmentations: Option<u64>,
    /// Maximum wall-clock milliseconds per feasibility probe.
    pub max_probe_ms: Option<u64>,
    /// Maximum nodes in the event-interval flow network.
    pub max_network_nodes: Option<usize>,
    /// Absolute monotonic deadline (the service layer's per-request
    /// deadline). Unlike `max_probe_ms`, which restarts with the meter on
    /// every probe of a multi-probe search, the deadline is a fixed instant:
    /// it survives [`BudgetMeter::restart`] and [`Budget::doubled`], so a
    /// request's whole escalation loop runs under one clock.
    pub deadline_at: Option<Instant>,
}

impl Budget {
    /// No limits at all; every checkpoint passes.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Whether no limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.max_steps.is_none()
            && self.max_augmentations.is_none()
            && self.max_probe_ms.is_none()
            && self.max_network_nodes.is_none()
            && self.deadline_at.is_none()
    }

    /// A budget whose only limit is a deadline `timeout` from now, measured
    /// on the monotonic clock (`Instant`, never `SystemTime` — a backwards
    /// system-clock jump cannot spuriously trip it).
    pub fn deadline(timeout: Duration) -> Self {
        Budget::unlimited().with_deadline(timeout)
    }

    /// Sets the deadline to `timeout` from now.
    pub fn with_deadline(self, timeout: Duration) -> Self {
        self.with_deadline_at(Instant::now() + timeout)
    }

    /// Sets the deadline to an absolute monotonic instant.
    pub fn with_deadline_at(mut self, at: Instant) -> Self {
        self.deadline_at = Some(at);
        self
    }

    /// Sets the step limit.
    pub fn with_steps(mut self, n: u64) -> Self {
        self.max_steps = Some(n);
        self
    }

    /// Sets the augmentation limit.
    pub fn with_augmentations(mut self, n: u64) -> Self {
        self.max_augmentations = Some(n);
        self
    }

    /// Sets the per-probe wall-clock limit in milliseconds.
    pub fn with_probe_ms(mut self, ms: u64) -> Self {
        self.max_probe_ms = Some(ms);
        self
    }

    /// Sets the network-size limit.
    pub fn with_network_nodes(mut self, n: usize) -> Self {
        self.max_network_nodes = Some(n);
        self
    }

    /// The budget with every finite limit doubled (saturating); the
    /// escalation step of the CLI's bounded retry loop. The deadline, being
    /// an absolute instant, is carried over unchanged — escalation buys more
    /// work units, never more wall-clock past the request deadline.
    pub fn doubled(&self) -> Self {
        Budget {
            max_steps: self.max_steps.map(|n| n.saturating_mul(2)),
            max_augmentations: self.max_augmentations.map(|n| n.saturating_mul(2)),
            max_probe_ms: self.max_probe_ms.map(|n| n.saturating_mul(2)),
            max_network_nodes: self.max_network_nodes.map(|n| n.saturating_mul(2)),
            deadline_at: self.deadline_at,
        }
    }
}

/// Why a budgeted operation was cancelled at a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BudgetExceeded {
    /// The driver step limit ran out.
    Steps {
        /// The configured limit.
        limit: u64,
    },
    /// The augmenting-path limit ran out.
    Augmentations {
        /// The configured limit.
        limit: u64,
    },
    /// The wall-clock limit ran out.
    WallClock {
        /// The configured limit in milliseconds.
        limit_ms: u64,
    },
    /// The flow network would exceed the node limit (rejected up front,
    /// before any work).
    NetworkNodes {
        /// The configured limit.
        limit: usize,
        /// The nodes the network would need.
        needed: usize,
    },
    /// The absolute request deadline passed.
    Deadline,
    /// A [`FaultPlan`] injected a cancellation at this checkpoint.
    FaultInjected {
        /// The site that fired.
        site: FaultSite,
    },
}

impl BudgetExceeded {
    /// Short stable tag for traces and reports.
    pub fn tag(&self) -> &'static str {
        match self {
            BudgetExceeded::Steps { .. } => "steps",
            BudgetExceeded::Augmentations { .. } => "augmentations",
            BudgetExceeded::WallClock { .. } => "wall_clock",
            BudgetExceeded::NetworkNodes { .. } => "network_nodes",
            BudgetExceeded::Deadline => "deadline",
            BudgetExceeded::FaultInjected { .. } => "fault_injected",
        }
    }
}

impl core::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BudgetExceeded::Steps { limit } => write!(f, "step budget of {limit} exhausted"),
            BudgetExceeded::Augmentations { limit } => {
                write!(f, "augmentation budget of {limit} exhausted")
            }
            BudgetExceeded::WallClock { limit_ms } => {
                write!(f, "wall-clock budget of {limit_ms} ms exhausted")
            }
            BudgetExceeded::NetworkNodes { limit, needed } => {
                write!(
                    f,
                    "flow network needs {needed} nodes, budget allows {limit}"
                )
            }
            BudgetExceeded::Deadline => write!(f, "request deadline passed"),
            BudgetExceeded::FaultInjected { site } => {
                write!(f, "fault injected at site {}", site.tag())
            }
        }
    }
}

impl std::error::Error for BudgetExceeded {}

/// How often the meter consults the (comparatively expensive) wall clock:
/// only every this many checkpoint ticks.
const WALL_CLOCK_STRIDE: u64 = 256;

/// Consumes a [`Budget`] across one operation's cooperative checkpoints.
///
/// Components call [`BudgetMeter::tick_step`] / `tick_augmentation` at every
/// unit of work; the meter returns `Err(BudgetExceeded)` exactly once the
/// corresponding limit is crossed. Wall-clock checks are amortised: the
/// clock is read every `WALL_CLOCK_STRIDE` ticks, so an unlimited meter
/// costs two branches per checkpoint.
#[derive(Debug, Clone)]
pub struct BudgetMeter {
    budget: Budget,
    steps: u64,
    augmentations: u64,
    ticks: u64,
    started: Instant,
}

impl BudgetMeter {
    /// A meter over `budget`, starting its wall clock now.
    pub fn new(budget: &Budget) -> Self {
        BudgetMeter {
            budget: budget.clone(),
            steps: 0,
            augmentations: 0,
            ticks: 0,
            started: Instant::now(),
        }
    }

    /// A meter that never trips.
    pub fn unlimited() -> Self {
        BudgetMeter::new(&Budget::unlimited())
    }

    /// The budget this meter enforces.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Steps consumed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Augmentations consumed so far.
    pub fn augmentations(&self) -> u64 {
        self.augmentations
    }

    /// Restarts the wall clock and counters (reusing the meter for the next
    /// probe of a multi-probe search). The budget's absolute deadline, if
    /// any, is deliberately *not* reset: a request deadline spans every
    /// probe issued on its behalf.
    pub fn restart(&mut self) {
        self.steps = 0;
        self.augmentations = 0;
        self.ticks = 0;
        self.started = Instant::now();
    }

    /// Reads the monotonic clock and checks the per-probe wall-clock limit
    /// and the absolute deadline. Both comparisons are `Instant`-based:
    /// `Instant::elapsed` saturates to zero rather than going negative, so
    /// no system-clock adjustment can spuriously trip (or un-trip) either
    /// limit.
    fn clock_exceeded(&self) -> Result<(), BudgetExceeded> {
        if let Some(limit_ms) = self.budget.max_probe_ms {
            if self.started.elapsed().as_millis() as u64 >= limit_ms {
                return Err(BudgetExceeded::WallClock { limit_ms });
            }
        }
        if let Some(at) = self.budget.deadline_at {
            if Instant::now() >= at {
                return Err(BudgetExceeded::Deadline);
            }
        }
        Ok(())
    }

    fn check_wall_clock(&mut self) -> Result<(), BudgetExceeded> {
        if self.budget.max_probe_ms.is_none() && self.budget.deadline_at.is_none() {
            return Ok(());
        }
        self.ticks += 1;
        if self.ticks.is_multiple_of(WALL_CLOCK_STRIDE) {
            return self.clock_exceeded();
        }
        Ok(())
    }

    /// Checkpoint for one driver decision step.
    pub fn tick_step(&mut self) -> Result<(), BudgetExceeded> {
        self.steps += 1;
        if let Some(limit) = self.budget.max_steps {
            if self.steps > limit {
                return Err(BudgetExceeded::Steps { limit });
            }
        }
        self.check_wall_clock()
    }

    /// Checkpoint for one augmenting path.
    pub fn tick_augmentation(&mut self) -> Result<(), BudgetExceeded> {
        self.augmentations += 1;
        if let Some(limit) = self.budget.max_augmentations {
            if self.augmentations > limit {
                return Err(BudgetExceeded::Augmentations { limit });
            }
        }
        self.check_wall_clock()
    }

    /// Checkpoint for one search phase (BFS level rebuild); reads the wall
    /// clock unconditionally, since phases are rare and expensive.
    pub fn tick_phase(&mut self) -> Result<(), BudgetExceeded> {
        self.clock_exceeded()
    }

    /// Back-dates (or forward-dates) the meter's start instant by force;
    /// test hook for exercising clock edge cases without sleeping.
    #[doc(hidden)]
    pub fn set_started_for_test(&mut self, at: Instant) {
        self.started = at;
    }

    /// Up-front admission check for a network of `nodes` nodes.
    pub fn admit_network(&self, nodes: usize) -> Result<(), BudgetExceeded> {
        if let Some(limit) = self.budget.max_network_nodes {
            if nodes > limit {
                return Err(BudgetExceeded::NetworkNodes {
                    limit,
                    needed: nodes,
                });
            }
        }
        Ok(())
    }
}

impl Default for BudgetMeter {
    fn default() -> Self {
        BudgetMeter::unlimited()
    }
}

/// A named place in the stack where a [`FaultPlan`] can inject a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Cancel a feasibility probe at its next checkpoint (the probe reports
    /// an unknown verdict).
    ProbeCancel,
    /// Force limb-path big-integer arithmetic for the guarded scope
    /// (`mm_numeric::fastpath::force_bigint`).
    ForceBigint,
    /// Permanently fail a machine in the simulation driver: its assignments
    /// are dropped from then on.
    MachineFailure,
    /// Slow a machine to half speed for one decision step.
    MachineSlowdown,
    /// Abort an adversary construction round.
    AdversaryAbort,
    /// Panic a service-layer worker thread mid-request (the supervisor must
    /// catch it, recycle the worker, and retry or quarantine the request).
    WorkerPanic,
    /// Drop a cluster backend mid-workload (the coordinator must detect the
    /// dead connection, quarantine the backend, and resume its shards on
    /// surviving workers without losing a response).
    BackendDrop,
    /// Execute the next event of the coordinator's churn plan (a backend
    /// joins, drains gracefully with live shard migration, or flaps). The
    /// firing schedule is seeded, so rolling-restart and flapping-backend
    /// scenarios replay deterministically.
    BackendChurn,
    /// Corrupt a backend's answer at response-encode time: a plausible
    /// off-by-one lie (a bumped machine count, a flipped feasibility bit)
    /// rather than garbage, applied before the response is journaled and
    /// cached so the lie replays byte-identically. Exercises the
    /// coordinator's proof verifier and quarantine-on-refutation path.
    AnswerCorruption,
}

impl FaultSite {
    /// All sites, in a stable order (the chaos plan and the CI matrix
    /// iterate this). New sites are appended, never inserted, so the chaos
    /// rules [`FaultPlan::chaos`] derives for existing sites stay identical
    /// across releases for a given seed.
    pub const ALL: [FaultSite; 9] = [
        FaultSite::ProbeCancel,
        FaultSite::ForceBigint,
        FaultSite::MachineFailure,
        FaultSite::MachineSlowdown,
        FaultSite::AdversaryAbort,
        FaultSite::WorkerPanic,
        FaultSite::BackendDrop,
        FaultSite::BackendChurn,
        FaultSite::AnswerCorruption,
    ];

    /// Stable snake_case tag (used in plan files and trace events).
    pub fn tag(&self) -> &'static str {
        match self {
            FaultSite::ProbeCancel => "probe_cancel",
            FaultSite::ForceBigint => "force_bigint",
            FaultSite::MachineFailure => "machine_failure",
            FaultSite::MachineSlowdown => "machine_slowdown",
            FaultSite::AdversaryAbort => "adversary_abort",
            FaultSite::WorkerPanic => "worker_panic",
            FaultSite::BackendDrop => "backend_drop",
            FaultSite::BackendChurn => "backend_churn",
            FaultSite::AnswerCorruption => "answer_corruption",
        }
    }

    /// Parses a tag back into a site.
    pub fn from_tag(tag: &str) -> Option<FaultSite> {
        FaultSite::ALL.iter().copied().find(|s| s.tag() == tag)
    }

    fn index(&self) -> usize {
        FaultSite::ALL
            .iter()
            .position(|s| s == self)
            .expect("site listed in ALL")
    }
}

impl core::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.tag())
    }
}

/// One injection rule: fire on the `nth` hit of `site` (1-based), and then
/// on every `every`-th hit after that if set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    /// The site this rule watches.
    pub site: FaultSite,
    /// First hit (1-based) that fires.
    pub nth: u64,
    /// Fire again every this many hits after `nth` (`None`: fire once).
    pub every: Option<u64>,
}

impl FaultRule {
    fn fires_at(&self, hit: u64) -> bool {
        if hit < self.nth {
            return false;
        }
        match self.every {
            None => hit == self.nth,
            Some(period) => (hit - self.nth).is_multiple_of(period.max(1)),
        }
    }
}

/// A seeded, deterministic fault-injection plan.
///
/// A plan is pure data: given the per-site hit counters maintained by a
/// [`FaultInjector`], whether an injection fires is a function of the plan
/// alone — no randomness at decision time, no wall clock. The `seed` is only
/// used by [`FaultPlan::chaos`] to *derive* rules; two injectors driving
/// identical workloads with the same plan fire at identical points.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed recorded for provenance (chaos plans derive their rules from it).
    pub seed: u64,
    /// The injection rules.
    pub rules: Vec<FaultRule>,
}

/// A minimal split-mix step, used only to derive chaos-plan rules from the
/// seed (never consulted during execution).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// The empty plan: no site ever fires.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A seeded chaos plan covering **every** site: each site gets one rule
    /// whose first firing hit and period are derived deterministically from
    /// `seed`, so different seeds exercise different interleavings while any
    /// single seed is perfectly reproducible.
    pub fn chaos(seed: u64) -> Self {
        let mut state = seed ^ 0xD6E8_FEB8_6659_FD93;
        let rules = FaultSite::ALL
            .iter()
            .map(|&site| {
                let nth = splitmix(&mut state) % 3 + 1;
                let every = Some(splitmix(&mut state) % 5 + 2);
                FaultRule { site, nth, every }
            })
            .collect();
        FaultPlan { seed, rules }
    }

    /// A plan with a single fire-once rule.
    pub fn once(site: FaultSite, nth: u64) -> Self {
        FaultPlan {
            seed: 0,
            rules: vec![FaultRule {
                site,
                nth,
                every: None,
            }],
        }
    }

    /// Whether any rule watches `site`.
    pub fn watches(&self, site: FaultSite) -> bool {
        self.rules.iter().any(|r| r.site == site)
    }

    /// The plan as a JSON document (`DESIGN.md` §9 documents the format).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seed", Json::Int(self.seed as i64)),
            (
                "rules",
                Json::Arr(
                    self.rules
                        .iter()
                        .map(|r| {
                            let mut fields = vec![
                                ("site", Json::str(r.site.tag())),
                                ("nth", Json::Int(r.nth as i64)),
                            ];
                            if let Some(every) = r.every {
                                fields.push(("every", Json::Int(every as i64)));
                            }
                            Json::obj(fields)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a plan document produced by [`FaultPlan::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = mm_json::parse(text).map_err(|e| e.to_string())?;
        let seed = doc.get("seed").and_then(Json::as_i64).unwrap_or(0) as u64;
        let rules = doc
            .get("rules")
            .and_then(Json::as_arr)
            .ok_or_else(|| "fault plan: missing \"rules\" array".to_string())?
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let tag = r
                    .get("site")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("rule {i}: missing \"site\""))?;
                let site = FaultSite::from_tag(tag)
                    .ok_or_else(|| format!("rule {i}: unknown site \"{tag}\""))?;
                let nth = r
                    .get("nth")
                    .and_then(Json::as_i64)
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("rule {i}: \"nth\" must be a positive integer"))?
                    as u64;
                let every = match r.get("every") {
                    None => None,
                    Some(v) => Some(
                        v.as_i64()
                            .filter(|&n| n >= 1)
                            .ok_or_else(|| format!("rule {i}: \"every\" must be ≥ 1"))?
                            as u64,
                    ),
                };
                Ok(FaultRule { site, nth, every })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(FaultPlan { seed, rules })
    }
}

/// Evaluates a [`FaultPlan`] against a running workload: per-site hit
/// counters plus firing bookkeeping.
///
/// Cloneable so one configured plan can drive several components; each clone
/// counts its own hits.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    hits: [u64; FaultSite::ALL.len()],
    fired: [u64; FaultSite::ALL.len()],
}

impl FaultInjector {
    /// An injector evaluating `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            hits: Default::default(),
            fired: Default::default(),
        }
    }

    /// An injector that never fires.
    pub fn disabled() -> Self {
        FaultInjector::new(FaultPlan::none())
    }

    /// The plan being evaluated.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether any rule exists — a cheap guard letting hot paths skip hit
    /// bookkeeping entirely when no faults are planned.
    pub fn is_active(&self) -> bool {
        !self.plan.rules.is_empty()
    }

    /// Registers one hit of `site` and reports whether a fault fires there.
    pub fn fire(&mut self, site: FaultSite) -> bool {
        let idx = site.index();
        self.hits[idx] += 1;
        let hit = self.hits[idx];
        let fires = self
            .plan
            .rules
            .iter()
            .any(|r| r.site == site && r.fires_at(hit));
        if fires {
            self.fired[idx] += 1;
        }
        fires
    }

    /// Total hits registered at `site`.
    pub fn hits(&self, site: FaultSite) -> u64 {
        self.hits[site.index()]
    }

    /// Faults fired at `site` so far.
    pub fn fired(&self, site: FaultSite) -> u64 {
        self.fired[site.index()]
    }

    /// `(site, fired)` pairs for all sites with at least one firing.
    pub fn fired_summary(&self) -> Vec<(FaultSite, u64)> {
        FaultSite::ALL
            .iter()
            .copied()
            .filter(|s| self.fired(*s) > 0)
            .map(|s| (s, self.fired(s)))
            .collect()
    }
}

/// Bounded retries with decorrelated-jitter backoff, AWS-style: each delay
/// is drawn uniformly from `[base, 3 * previous]`, clamped to `cap`.
///
/// Like everything else in this crate, the "randomness" is derived, not
/// sampled: the draw for attempt `k` of request `key` under `seed` is a pure
/// function of those three values, so a same-seed rerun of the service layer
/// retries at identical delays and the soak transcript stays reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Minimum (and first) delay in milliseconds.
    pub base_ms: u64,
    /// Upper clamp on any single delay in milliseconds.
    pub cap_ms: u64,
    /// Total execution attempts before the request is quarantined (1 means
    /// never retry).
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// A policy retrying up to `max_attempts` times with delays in
    /// `[base_ms, cap_ms]`.
    pub fn new(base_ms: u64, cap_ms: u64, max_attempts: u32) -> Self {
        RetryPolicy {
            base_ms: base_ms.max(1),
            cap_ms: cap_ms.max(base_ms.max(1)),
            max_attempts: max_attempts.max(1),
        }
    }

    /// Whether a request that has already executed `attempts` times gets
    /// another try.
    pub fn should_retry(&self, attempts: u32) -> bool {
        attempts < self.max_attempts
    }

    /// The delay before retry number `attempt` (1-based: `attempt = 1` is
    /// the first retry) of the request identified by `key`, under `seed`.
    /// Deterministic; monotone in expectation but individual draws jitter.
    pub fn backoff_ms(&self, seed: u64, key: u64, attempt: u32) -> u64 {
        let mut state = seed ^ key.rotate_left(17) ^ 0xA076_1D64_78BD_642F;
        let mut sleep = self.base_ms.min(self.cap_ms);
        for _ in 1..attempt {
            let hi = sleep.saturating_mul(3).max(self.base_ms + 1);
            let span = hi - self.base_ms;
            sleep = (self.base_ms + splitmix(&mut state) % span).min(self.cap_ms);
        }
        sleep
    }

    /// [`RetryPolicy::backoff_ms`] as a [`Duration`].
    pub fn backoff(&self, seed: u64, key: u64, attempt: u32) -> Duration {
        Duration::from_millis(self.backoff_ms(seed, key, attempt))
    }
}

impl Default for RetryPolicy {
    /// Three attempts, 25 ms base, 1 s cap — the service layer's default.
    fn default() -> Self {
        RetryPolicy::new(25, 1_000, 3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let mut meter = BudgetMeter::unlimited();
        for _ in 0..10_000 {
            meter.tick_step().unwrap();
            meter.tick_augmentation().unwrap();
        }
        meter.tick_phase().unwrap();
        meter.admit_network(usize::MAX).unwrap();
    }

    #[test]
    fn step_and_augmentation_limits_trip_exactly() {
        let mut meter = BudgetMeter::new(&Budget::unlimited().with_steps(3));
        assert!(meter.tick_step().is_ok());
        assert!(meter.tick_step().is_ok());
        assert!(meter.tick_step().is_ok());
        assert_eq!(
            meter.tick_step().unwrap_err(),
            BudgetExceeded::Steps { limit: 3 }
        );
        let mut meter = BudgetMeter::new(&Budget::unlimited().with_augmentations(1));
        assert!(meter.tick_augmentation().is_ok());
        assert!(matches!(
            meter.tick_augmentation().unwrap_err(),
            BudgetExceeded::Augmentations { limit: 1 }
        ));
    }

    #[test]
    fn network_admission() {
        let meter = BudgetMeter::new(&Budget::unlimited().with_network_nodes(10));
        assert!(meter.admit_network(10).is_ok());
        assert_eq!(
            meter.admit_network(11).unwrap_err(),
            BudgetExceeded::NetworkNodes {
                limit: 10,
                needed: 11
            }
        );
    }

    #[test]
    fn restart_clears_counters() {
        let mut meter = BudgetMeter::new(&Budget::unlimited().with_steps(1));
        meter.tick_step().unwrap();
        assert!(meter.tick_step().is_err());
        meter.restart();
        assert!(meter.tick_step().is_ok());
    }

    #[test]
    fn doubling_escalates_finite_limits_only() {
        let b = Budget::unlimited().with_steps(5).with_probe_ms(100);
        let d = b.doubled();
        assert_eq!(d.max_steps, Some(10));
        assert_eq!(d.max_probe_ms, Some(200));
        assert_eq!(d.max_augmentations, None);
        assert!(Budget::unlimited().doubled().is_unlimited());
    }

    #[test]
    fn deadline_budget_trips_once_passed() {
        let budget = Budget::deadline(Duration::from_millis(0));
        assert!(!budget.is_unlimited());
        let mut meter = BudgetMeter::new(&budget);
        // Deadline of zero: already passed.
        assert_eq!(meter.tick_phase().unwrap_err(), BudgetExceeded::Deadline);
        // The amortised path also sees it (within one stride of ticks).
        let mut tripped = false;
        for _ in 0..2 * 256 {
            if meter.tick_step().is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "deadline must trip via the amortised checkpoints");
        assert_eq!(BudgetExceeded::Deadline.tag(), "deadline");
    }

    #[test]
    fn deadline_survives_restart_and_doubling() {
        let at = Instant::now() + Duration::from_secs(3600);
        let budget = Budget::unlimited().with_deadline_at(at).with_steps(4);
        let doubled = budget.doubled();
        assert_eq!(doubled.deadline_at, Some(at));
        assert_eq!(doubled.max_steps, Some(8));
        let mut meter = BudgetMeter::new(&budget);
        meter.restart();
        assert_eq!(meter.budget().deadline_at, Some(at));
        assert!(meter.tick_phase().is_ok());
    }

    #[test]
    fn backwards_clock_jump_cannot_trip_budget() {
        // The meter is monotonic-clock based. Simulate the worst a clock
        // adjustment could look like — `started` lying in the *future*
        // (i.e. "now" jumped backwards relative to it) — and check that
        // `Instant::elapsed`'s saturating semantics keep a tight wall-clock
        // budget from spuriously tripping.
        let mut meter = BudgetMeter::new(&Budget::unlimited().with_probe_ms(1));
        meter.set_started_for_test(Instant::now() + Duration::from_secs(3600));
        assert!(meter.tick_phase().is_ok());
        for _ in 0..2 * 256 {
            assert!(meter.tick_step().is_ok());
            assert!(meter.tick_augmentation().is_ok());
        }
    }

    #[test]
    fn retry_policy_is_deterministic_bounded_and_jittered() {
        let policy = RetryPolicy::new(10, 500, 4);
        assert!(policy.should_retry(1));
        assert!(policy.should_retry(3));
        assert!(!policy.should_retry(4));
        // First retry always waits the base delay.
        assert_eq!(policy.backoff_ms(1, 2, 1), 10);
        for attempt in 1..6 {
            let a = policy.backoff_ms(42, 7, attempt);
            let b = policy.backoff_ms(42, 7, attempt);
            assert_eq!(a, b, "same inputs, same delay");
            assert!((10..=500).contains(&a), "delay {a} out of [base, cap]");
        }
        // Different request keys decorrelate (no thundering herd): at least
        // one later attempt differs across keys.
        let spread: std::collections::HashSet<u64> =
            (0..16).map(|key| policy.backoff_ms(42, key, 3)).collect();
        assert!(spread.len() > 1, "jitter should spread delays across keys");
    }

    #[test]
    fn rule_firing_schedule() {
        let once = FaultRule {
            site: FaultSite::ProbeCancel,
            nth: 3,
            every: None,
        };
        assert!(!once.fires_at(2));
        assert!(once.fires_at(3));
        assert!(!once.fires_at(4));
        let periodic = FaultRule {
            site: FaultSite::ProbeCancel,
            nth: 2,
            every: Some(3),
        };
        assert!(!periodic.fires_at(1));
        assert!(periodic.fires_at(2));
        assert!(!periodic.fires_at(3));
        assert!(periodic.fires_at(5));
        assert!(periodic.fires_at(8));
    }

    #[test]
    fn injector_counts_hits_and_firings() {
        let mut inj = FaultInjector::new(FaultPlan::once(FaultSite::MachineFailure, 2));
        assert!(!inj.fire(FaultSite::MachineFailure));
        assert!(inj.fire(FaultSite::MachineFailure));
        assert!(!inj.fire(FaultSite::MachineFailure));
        assert_eq!(inj.hits(FaultSite::MachineFailure), 3);
        assert_eq!(inj.fired(FaultSite::MachineFailure), 1);
        assert!(!inj.fire(FaultSite::ProbeCancel));
        assert_eq!(inj.fired_summary(), vec![(FaultSite::MachineFailure, 1)]);
    }

    #[test]
    fn chaos_plans_are_deterministic_and_total() {
        let a = FaultPlan::chaos(42);
        let b = FaultPlan::chaos(42);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::chaos(43));
        for site in FaultSite::ALL {
            assert!(a.watches(site), "chaos plan must watch {site}");
        }
        // Every site fires within a bounded number of hits (nth ≤ 3).
        let mut inj = FaultInjector::new(a);
        for site in FaultSite::ALL {
            let mut fired = false;
            for _ in 0..3 {
                fired |= inj.fire(site);
            }
            assert!(fired, "{site} should fire within 3 hits");
        }
    }

    #[test]
    fn plan_json_roundtrip() {
        let plan = FaultPlan {
            seed: 7,
            rules: vec![
                FaultRule {
                    site: FaultSite::ProbeCancel,
                    nth: 1,
                    every: Some(2),
                },
                FaultRule {
                    site: FaultSite::AdversaryAbort,
                    nth: 4,
                    every: None,
                },
            ],
        };
        let text = plan.to_json().to_pretty();
        let back = FaultPlan::from_json(&text).unwrap();
        assert_eq!(plan, back);
        // Malformed documents are errors, not panics.
        assert!(FaultPlan::from_json("{").is_err());
        assert!(FaultPlan::from_json("{\"rules\": 3}").is_err());
        assert!(FaultPlan::from_json("{\"rules\": [{\"site\": \"nope\", \"nth\": 1}]}").is_err());
        assert!(
            FaultPlan::from_json("{\"rules\": [{\"site\": \"probe_cancel\", \"nth\": 0}]}")
                .is_err()
        );
    }

    #[test]
    fn site_tags_roundtrip() {
        for site in FaultSite::ALL {
            assert_eq!(FaultSite::from_tag(site.tag()), Some(site));
        }
        assert_eq!(FaultSite::from_tag("bogus"), None);
    }
}

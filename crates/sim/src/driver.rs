//! Event-driven online scheduling driver.
//!
//! The driver runs an [`OnlinePolicy`] against a stream of jobs in exact
//! continuous time. At every *event* (job release, job completion, deadline,
//! or a policy-requested wake-up) the policy is asked which job each machine
//! should run until the next event; the driver advances time exactly,
//! accumulates the resulting [`Schedule`], pins jobs to their first machine,
//! and records deadline misses.
//!
//! Jobs can be added up front (replaying an [`Instance`]) or injected while
//! the simulation runs — the interaction model needed by the adaptive
//! lower-bound adversary of Lemma 2, which releases jobs *in reaction to* the
//! policy's observable assignments.

use std::collections::BTreeMap;

use mm_fault::{FaultInjector, FaultSite};
use mm_instance::{Instance, Job, JobId};
use mm_numeric::Rat;
use mm_trace::{NoopSink, TraceEvent, TraceSink};

use crate::{Schedule, Segment};

/// Static configuration of a simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of machines available to the policy.
    pub machines: usize,
    /// Uniform machine speed (1 in the base model; `>1` for the
    /// speed-augmentation setting of Theorem 7).
    pub speed: Rat,
    /// If set, a policy decision that runs a job on a machine other than the
    /// one it first ran on aborts the simulation with
    /// [`SimError::MigrationForbidden`].
    pub forbid_migration: bool,
    /// Safety cap on the number of decision events.
    pub max_steps: usize,
}

impl SimConfig {
    /// Unit-speed migratory configuration with `machines` machines.
    pub fn migratory(machines: usize) -> Self {
        SimConfig {
            machines,
            speed: Rat::one(),
            forbid_migration: false,
            max_steps: 1_000_000,
        }
    }

    /// Unit-speed non-migratory configuration with `machines` machines.
    pub fn nonmigratory(machines: usize) -> Self {
        SimConfig {
            forbid_migration: true,
            ..SimConfig::migratory(machines)
        }
    }

    /// Sets the machine speed.
    pub fn with_speed(mut self, speed: Rat) -> Self {
        assert!(speed.is_positive(), "speed must be positive");
        self.speed = speed;
        self
    }

    /// Sets the decision-event safety cap (see [`SimError::StepLimitExceeded`]).
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        assert!(max_steps > 0, "max_steps must be positive");
        self.max_steps = max_steps;
        self
    }
}

/// A released, unfinished job as seen by the policy.
#[derive(Debug, Clone)]
pub struct ActiveJob {
    /// The job's static data.
    pub job: Job,
    /// Remaining processing volume.
    pub remaining: Rat,
    /// Machine the job first ran on, if it has started (fixed forever in the
    /// non-migratory setting).
    pub pinned: Option<usize>,
}

impl ActiveJob {
    /// Remaining laxity at time `t`: slack before the job *must* run
    /// continuously (at unit speed) to meet its deadline.
    pub fn laxity_at(&self, t: &Rat, speed: &Rat) -> Rat {
        &self.job.deadline - t - &self.remaining / speed
    }
}

/// What the policy can observe when making a decision: the current time and
/// all released, unfinished jobs.
#[derive(Debug)]
pub struct SimState<'a> {
    /// Current time.
    pub time: &'a Rat,
    /// Number of machines.
    pub machines: usize,
    /// Machine speed.
    pub speed: &'a Rat,
    /// Released, unfinished jobs by id.
    pub active: &'a BTreeMap<JobId, ActiveJob>,
}

/// The policy's instruction for the time until the next event.
#[derive(Debug, Clone, Default)]
pub struct Decision {
    /// `(machine, job)` pairs to run now. Machines and jobs must each be
    /// distinct; omitted machines idle.
    pub run: Vec<(usize, JobId)>,
    /// Optional extra wake-up time (must be strictly in the future to have
    /// an effect); lets policies re-decide between natural events.
    pub wake_at: Option<Rat>,
}

impl Decision {
    /// The idle decision.
    pub fn idle() -> Self {
        Decision::default()
    }
}

/// An online scheduling policy.
///
/// `decide` is called at every event with the currently released, unfinished
/// jobs; the returned assignment holds until the next event. Policies learn
/// about a job exactly when it is released — never earlier.
pub trait OnlinePolicy {
    /// Chooses which job each machine runs until the next event.
    fn decide(&mut self, state: &SimState<'_>) -> Decision;

    /// Human-readable policy name for reports.
    fn name(&self) -> &'static str {
        "policy"
    }
}

impl<P: OnlinePolicy + ?Sized> OnlinePolicy for Box<P> {
    fn decide(&mut self, state: &SimState<'_>) -> Decision {
        (**self).decide(state)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

impl<P: OnlinePolicy + ?Sized> OnlinePolicy for &mut P {
    fn decide(&mut self, state: &SimState<'_>) -> Decision {
        (**self).decide(state)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// A hard simulation failure (all indicate policy bugs or rule violations,
/// not mere deadline misses — those are recorded in the outcome instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The decision referenced a machine index `≥ machines`.
    MachineOutOfRange {
        /// The offending machine index.
        machine: usize,
    },
    /// The decision used the same machine twice.
    DuplicateMachine {
        /// The machine assigned twice.
        machine: usize,
    },
    /// The decision ran the same job on two machines.
    DuplicateJob {
        /// The duplicated job.
        job: JobId,
    },
    /// The decision referenced a job that is not active.
    UnknownJob {
        /// The unknown job id.
        job: JobId,
    },
    /// A pinned job was moved although `forbid_migration` is set.
    MigrationForbidden {
        /// The job the policy tried to migrate.
        job: JobId,
        /// The machine it is pinned to.
        pinned: usize,
        /// The machine the policy requested.
        requested: usize,
    },
    /// `max_steps` was exceeded (runaway wake-up loop).
    StepLimitExceeded {
        /// Decision events executed (equals the configured budget).
        steps: usize,
        /// Simulation time when the budget ran out.
        time: Rat,
    },
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::MachineOutOfRange { machine } => {
                write!(f, "machine {machine} out of range")
            }
            SimError::DuplicateMachine { machine } => {
                write!(f, "machine {machine} assigned twice")
            }
            SimError::DuplicateJob { job } => write!(f, "{job} assigned to two machines"),
            SimError::UnknownJob { job } => write!(f, "{job} is not active"),
            SimError::MigrationForbidden {
                job,
                pinned,
                requested,
            } => write!(
                f,
                "{job} is pinned to machine {pinned} but was sent to {requested}"
            ),
            SimError::StepLimitExceeded { steps, time } => {
                write!(
                    f,
                    "step limit of {steps} decision events exceeded at time {time}"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Result of a completed simulation.
#[derive(Debug)]
pub struct SimOutcome {
    /// The instance that was (incrementally) presented to the policy, with
    /// ids matching the schedule.
    pub instance: Instance,
    /// The produced schedule.
    pub schedule: Schedule,
    /// Jobs that missed their deadlines.
    pub misses: Vec<JobId>,
    /// Number of decision events.
    pub steps: usize,
}

impl SimOutcome {
    /// Whether every job met its deadline.
    pub fn feasible(&self) -> bool {
        self.misses.is_empty()
    }

    /// Number of machines the policy actually used.
    pub fn machines_used(&self) -> usize {
        self.schedule.machines_used()
    }
}

/// An in-progress simulation. See the module docs for the interaction model.
///
/// The sink parameter defaults to [`NoopSink`], whose `enabled()` is a
/// constant `false`: untraced simulations skip all event bookkeeping at
/// compile time. Pass a real sink (or `&mut` / `Option` of one) through
/// [`Simulation::with_sink`] to observe the run as typed [`TraceEvent`]s.
pub struct Simulation<P: OnlinePolicy, S: TraceSink = NoopSink> {
    policy: P,
    cfg: SimConfig,
    time: Rat,
    /// Future jobs, sorted by release descending (pop from the back).
    pending: Vec<Job>,
    active: BTreeMap<JobId, ActiveJob>,
    schedule: Schedule,
    misses: Vec<JobId>,
    all_jobs: Vec<Job>,
    steps: usize,
    sink: S,
    injector: FaultInjector,
    /// Trace bookkeeping (maintained only while the sink is enabled):
    /// machines that already received a segment, ...
    traced_opened: Vec<bool>,
    /// ... each job's distinct machines in first-use order, ...
    traced_job_machines: BTreeMap<JobId, Vec<usize>>,
    /// ... and each job's last segment as `(machine, end)`, to tell merging
    /// continuations from preemptions the way `Schedule::normalize` does.
    traced_last_run: BTreeMap<JobId, (usize, Rat)>,
}

impl<P: OnlinePolicy> Simulation<P> {
    /// Creates an empty, untraced simulation at time 0.
    pub fn new(cfg: SimConfig, policy: P) -> Self {
        Simulation::with_sink(cfg, policy, NoopSink)
    }

    /// Creates an untraced simulation preloaded with all jobs of `instance`
    /// (their ids are preserved).
    pub fn from_instance(cfg: SimConfig, policy: P, instance: &Instance) -> Self {
        Simulation::from_instance_with_sink(cfg, policy, instance, NoopSink)
    }
}

impl<P: OnlinePolicy, S: TraceSink> Simulation<P, S> {
    /// Creates an empty simulation at time 0 that reports to `sink`.
    pub fn with_sink(cfg: SimConfig, policy: P, sink: S) -> Self {
        assert!(cfg.speed.is_positive(), "speed must be positive");
        let machines = cfg.machines;
        Simulation {
            policy,
            cfg,
            time: Rat::zero(),
            pending: Vec::new(),
            active: BTreeMap::new(),
            schedule: Schedule::new(),
            misses: Vec::new(),
            all_jobs: Vec::new(),
            steps: 0,
            sink,
            injector: FaultInjector::disabled(),
            traced_opened: vec![false; machines],
            traced_job_machines: BTreeMap::new(),
            traced_last_run: BTreeMap::new(),
        }
    }

    /// Creates a simulation preloaded with all jobs of `instance` (ids
    /// preserved) that reports to `sink`.
    pub fn from_instance_with_sink(
        cfg: SimConfig,
        policy: P,
        instance: &Instance,
        sink: S,
    ) -> Self {
        let mut sim = Simulation::with_sink(cfg, policy, sink);
        for job in instance.iter() {
            sim.push_job(job.clone());
        }
        sim
    }

    /// Mutable access to the trace sink, letting embedding components (the
    /// adversary, custom drivers) emit their own events into the same trace.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Arms deterministic fault injection: each decision step that assigns
    /// work registers one hit at [`FaultSite::MachineFailure`] and one at
    /// [`FaultSite::MachineSlowdown`], and a firing rule degrades that step
    /// (in `Simulation::advance_once`): a *failed* machine does
    /// no work until the next event; a *slowed* machine runs at half speed.
    /// Both are recorded as [`TraceEvent::FaultInjected`] and never produce a
    /// [`SimError`] — consequences surface as ordinary deadline misses.
    pub fn with_faults(mut self, injector: FaultInjector) -> Self {
        self.injector = injector;
        self
    }

    /// Read access to the fault injector's hit/fired counters.
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }

    fn push_job(&mut self, job: Job) {
        assert!(
            job.release >= self.time,
            "cannot inject {} released at {} before current time {}",
            job.id,
            job.release,
            self.time
        );
        self.all_jobs.push(job.clone());
        self.pending.push(job);
        self.pending.sort_by(|a, b| b.release.cmp(&a.release));
    }

    /// Injects a new job with the next free id; release must be ≥ current
    /// time. Returns the assigned id.
    pub fn inject(&mut self, release: Rat, deadline: Rat, processing: Rat) -> JobId {
        let id = JobId(self.all_jobs.len() as u32);
        self.push_job(Job::new(id, release, deadline, processing));
        id
    }

    /// Current simulation time.
    pub fn time(&self) -> &Rat {
        &self.time
    }

    /// Machine a job is pinned to (first machine it ran on), if started.
    pub fn machine_of(&self, job: JobId) -> Option<usize> {
        self.active.get(&job).and_then(|a| a.pinned).or_else(|| {
            let ms = self.schedule.machines_of(job);
            ms.first().copied()
        })
    }

    /// Remaining processing of an active job (0 if finished, `None` if the
    /// job was never injected or already missed).
    pub fn remaining(&self, job: JobId) -> Option<Rat> {
        if let Some(a) = self.active.get(&job) {
            return Some(a.remaining.clone());
        }
        if self.misses.contains(&job) {
            return None;
        }
        if self
            .all_jobs
            .iter()
            .any(|j| j.id == job && j.release <= self.time)
        {
            return Some(Rat::zero());
        }
        None
    }

    /// Whether a job is finished.
    pub fn is_finished(&self, job: JobId) -> bool {
        self.remaining(job).is_some_and(|r| r.is_zero())
    }

    /// Jobs that have missed their deadline so far.
    pub fn misses(&self) -> &[JobId] {
        &self.misses
    }

    /// Released unfinished jobs.
    pub fn active(&self) -> &BTreeMap<JobId, ActiveJob> {
        &self.active
    }

    /// Read access to the schedule built so far.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// All jobs injected so far (released or still pending), in injection
    /// (= id) order.
    pub fn all_jobs(&self) -> &[Job] {
        &self.all_jobs
    }

    fn release_due(&mut self) {
        while let Some(last) = self.pending.last() {
            if last.release <= self.time {
                let job = self.pending.pop().unwrap();
                debug_assert!(job.release == self.time || self.time == Rat::zero());
                if self.sink.enabled() {
                    self.sink.record(&TraceEvent::JobReleased {
                        job: job.id.0,
                        time: job.release.clone(),
                    });
                }
                self.active.insert(
                    job.id,
                    ActiveJob {
                        remaining: job.processing.clone(),
                        job,
                        pinned: None,
                    },
                );
            } else {
                break;
            }
        }
    }

    fn collect_misses(&mut self) {
        let due: Vec<(JobId, Rat)> = self
            .active
            .iter()
            .filter(|(_, a)| a.job.deadline <= self.time && !a.remaining.is_zero())
            .map(|(id, a)| (*id, a.job.deadline.clone()))
            .collect();
        for (id, deadline) in due {
            self.active.remove(&id);
            if self.sink.enabled() {
                self.sink.record(&TraceEvent::DeadlineMissed {
                    job: id.0,
                    time: deadline,
                });
            }
            self.misses.push(id);
        }
    }

    /// Trace bookkeeping for one freshly pushed segment. Emission rules
    /// mirror the schedule's derived stats exactly: `MachineOpened` fires at
    /// each machine's first segment, `Migrated` when a job first touches
    /// each machine beyond its first, and `Preempted` when a segment does
    /// not merge with the job's previous one (different machine, or a gap).
    fn trace_segment(&mut self, machine: usize, job: JobId, start: &Rat, end: &Rat) {
        if !self.traced_opened[machine] {
            self.traced_opened[machine] = true;
            self.sink.record(&TraceEvent::MachineOpened {
                machine,
                time: start.clone(),
            });
        }
        let machines = self.traced_job_machines.entry(job).or_default();
        if machines.is_empty() {
            machines.push(machine);
            self.sink.record(&TraceEvent::JobStarted {
                job: job.0,
                machine,
                time: start.clone(),
            });
        } else if !machines.contains(&machine) {
            machines.push(machine);
            let from = self.traced_last_run[&job].0;
            self.sink.record(&TraceEvent::Migrated {
                job: job.0,
                from,
                to: machine,
                time: start.clone(),
            });
        }
        if let Some((prev_machine, prev_end)) = self.traced_last_run.get(&job) {
            if *prev_machine != machine || prev_end != start {
                self.sink.record(&TraceEvent::Preempted {
                    job: job.0,
                    machine,
                    time: start.clone(),
                });
            }
        }
        self.traced_last_run.insert(job, (machine, end.clone()));
    }

    /// Advances through one decision event, stopping at `limit` if given.
    /// Returns `Ok(true)` if more work remains (before the limit).
    fn advance_once(&mut self, limit: Option<&Rat>) -> Result<bool, SimError> {
        self.release_due();
        self.collect_misses();
        if self.active.is_empty() && self.pending.is_empty() {
            return Ok(false);
        }
        if self.steps >= self.cfg.max_steps {
            if self.sink.enabled() {
                self.sink.record(&TraceEvent::StepLimitExceeded {
                    steps: self.steps as u64,
                    time: self.time.clone(),
                });
            }
            return Err(SimError::StepLimitExceeded {
                steps: self.steps,
                time: self.time.clone(),
            });
        }
        self.steps += 1;

        // If nothing is released yet, fast-forward to the next release.
        if self.active.is_empty() {
            let next_release = self.pending.last().unwrap().release.clone();
            match limit {
                Some(l) if *l < next_release => {
                    self.time = l.clone();
                    return Ok(false);
                }
                _ => {
                    self.time = next_release;
                    return Ok(true);
                }
            }
        }

        // Ask the policy.
        let decision = {
            let state = SimState {
                time: &self.time,
                machines: self.cfg.machines,
                speed: &self.cfg.speed,
                active: &self.active,
            };
            self.policy.decide(&state)
        };

        // Validate the decision.
        let mut used_machines = vec![false; self.cfg.machines];
        let mut used_jobs: Vec<JobId> = Vec::with_capacity(decision.run.len());
        for &(machine, job) in &decision.run {
            if machine >= self.cfg.machines {
                return Err(SimError::MachineOutOfRange { machine });
            }
            if used_machines[machine] {
                return Err(SimError::DuplicateMachine { machine });
            }
            used_machines[machine] = true;
            if used_jobs.contains(&job) {
                return Err(SimError::DuplicateJob { job });
            }
            used_jobs.push(job);
            let Some(a) = self.active.get(&job) else {
                return Err(SimError::UnknownJob { job });
            };
            if self.cfg.forbid_migration {
                if let Some(pinned) = a.pinned {
                    if pinned != machine {
                        return Err(SimError::MigrationForbidden {
                            job,
                            pinned,
                            requested: machine,
                        });
                    }
                }
            }
        }

        // Deterministic fault injection. The plan is consulted once per site
        // on every step that assigns work, so firing depends only on the hit
        // count — never on the clock or any RNG. A failed machine idles until
        // the next event; a slowed machine runs at half speed. Neither is an
        // error: consequences surface as ordinary deadline misses.
        let mut failed_machine: Option<usize> = None;
        let mut slowed_machine: Option<usize> = None;
        if self.injector.is_active() && !decision.run.is_empty() {
            if self.injector.fire(FaultSite::MachineFailure) {
                failed_machine = Some(decision.run[0].0);
                if self.sink.enabled() {
                    self.sink.record(&TraceEvent::FaultInjected {
                        site: FaultSite::MachineFailure.tag(),
                        count: self.injector.fired(FaultSite::MachineFailure),
                    });
                }
            }
            if self.injector.fire(FaultSite::MachineSlowdown) {
                if let Some(&(machine, _)) = decision
                    .run
                    .iter()
                    .find(|&&(m, _)| Some(m) != failed_machine)
                {
                    slowed_machine = Some(machine);
                    if self.sink.enabled() {
                        self.sink.record(&TraceEvent::FaultInjected {
                            site: FaultSite::MachineSlowdown.tag(),
                            count: self.injector.fired(FaultSite::MachineSlowdown),
                        });
                    }
                }
            }
        }
        let half_speed = &self.cfg.speed / &Rat::from(2u64);

        // Next event time.
        let mut next: Option<Rat> = limit.cloned();
        let consider = |t: Rat, next: &mut Option<Rat>| {
            if t > self.time {
                match next {
                    Some(cur) if *cur <= t => {}
                    _ => *next = Some(t),
                }
            }
        };
        if let Some(p) = self.pending.last() {
            consider(p.release.clone(), &mut next);
        }
        for (_, a) in self.active.iter() {
            consider(a.job.deadline.clone(), &mut next);
        }
        for &(machine, job) in &decision.run {
            if failed_machine == Some(machine) {
                continue;
            }
            let speed = if slowed_machine == Some(machine) {
                &half_speed
            } else {
                &self.cfg.speed
            };
            let a = &self.active[&job];
            consider(&self.time + &a.remaining / speed, &mut next);
        }
        if let Some(w) = &decision.wake_at {
            consider(w.clone(), &mut next);
        }
        let next_time = next.expect("active jobs guarantee a future event");

        // Advance: run the chosen jobs, cut segments at next_time.
        let dt = &next_time - &self.time;
        debug_assert!(dt.is_positive());
        for &(machine, job) in &decision.run {
            if failed_machine == Some(machine) {
                // Failed machine: no segment, the job stays active.
                continue;
            }
            let speed = if slowed_machine == Some(machine) {
                half_speed.clone()
            } else {
                self.cfg.speed.clone()
            };
            let a = self.active.get_mut(&job).unwrap();
            let mut end = next_time.clone();
            let mut dv = &dt * &speed;
            if dv >= a.remaining {
                // completes strictly before next_time
                dv = a.remaining.clone();
                end = &self.time + &dv / &speed;
            }
            a.remaining = &a.remaining - &dv;
            let completed = a.remaining.is_zero();
            if a.pinned.is_none() {
                a.pinned = Some(machine);
            }
            if self.sink.enabled() {
                let start = self.time.clone();
                self.trace_segment(machine, job, &start, &end);
                if completed {
                    self.sink.record(&TraceEvent::Completed {
                        job: job.0,
                        time: end.clone(),
                    });
                }
            }
            self.schedule.push(Segment {
                machine,
                interval: mm_instance::Interval::new(self.time.clone(), end),
                job,
                speed,
            });
        }
        // Remove completed jobs.
        let done: Vec<JobId> = self
            .active
            .iter()
            .filter(|(_, a)| a.remaining.is_zero())
            .map(|(id, _)| *id)
            .collect();
        for id in done {
            self.active.remove(&id);
        }
        self.time = next_time;
        match limit {
            Some(l) => Ok(self.time < *l || self.has_work_at_limit(l)),
            None => Ok(true),
        }
    }

    fn has_work_at_limit(&self, limit: &Rat) -> bool {
        // run_until(l) should keep processing events that occur exactly at l?
        // No: we stop once time reaches l so the caller can inspect/inject.
        let _ = limit;
        false
    }

    /// Runs until `t`, leaving the simulation at exactly time `t` (events at
    /// `t` itself are *not* processed, so the caller can inject jobs released
    /// at `t` first).
    pub fn run_until(&mut self, t: &Rat) -> Result<(), SimError> {
        assert!(*t >= self.time, "cannot run backwards");
        while self.time < *t {
            if !self.advance_once(Some(t))? {
                break;
            }
        }
        if self.time < *t {
            self.time = t.clone();
        }
        Ok(())
    }

    /// Runs until no pending or active jobs remain.
    pub fn run_to_completion(&mut self) -> Result<(), SimError> {
        while self.advance_once(None)? {}
        Ok(())
    }

    /// Finalizes the simulation, returning the outcome. Any still-unfinished
    /// jobs are counted as misses.
    pub fn finish(mut self) -> Result<SimOutcome, SimError> {
        self.run_to_completion()?;
        Ok(SimOutcome {
            instance: Instance::from_jobs_with_ids(self.all_jobs),
            schedule: self.schedule,
            misses: self.misses,
            steps: self.steps,
        })
    }

    /// The policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }
}

/// Convenience: replay a full instance against a policy and return the
/// outcome.
pub fn run_policy<P: OnlinePolicy>(
    instance: &Instance,
    policy: P,
    cfg: SimConfig,
) -> Result<SimOutcome, SimError> {
    Simulation::from_instance(cfg, policy, instance).finish()
}

/// Like [`run_policy`], but reports every simulation event to `sink`.
/// Pass `&mut sink` to keep ownership (a `&mut S` is itself a sink).
pub fn run_policy_traced<P: OnlinePolicy, S: TraceSink>(
    instance: &Instance,
    policy: P,
    cfg: SimConfig,
    sink: S,
) -> Result<SimOutcome, SimError> {
    Simulation::from_instance_with_sink(cfg, policy, instance, sink).finish()
}

//! Typed event tracing for the machmin workspace.
//!
//! Every interesting transition in the simulator, the offline solver, and
//! the lower-bound adversary is described by a [`TraceEvent`]. Components
//! are generic over a [`TraceSink`] that receives those events; the default
//! sink is [`NoopSink`], whose `enabled()` is a compile-time `false`, so an
//! untraced run pays nothing — event construction sits behind the
//! `enabled()` check and is optimised out entirely.
//!
//! Three real sinks are provided:
//!
//! * [`JsonlSink`] appends one compact JSON object per event to a writer —
//!   the `--trace file.jsonl` format (see `DESIGN.md` for the schema);
//! * [`MetricsSink`] aggregates events into [`Metrics`]: monotonic counters
//!   plus per-machine and per-job histograms, exported as the
//!   `--metrics file.json` document;
//! * [`VecSink`] buffers events in memory, for tests and ad-hoc inspection.
//!
//! Sinks compose: [`TeeSink`] duplicates events to two sinks, and
//! `&mut S` / [`Option<S>`] are themselves sinks, so call sites can lend a
//! sink they keep owning (`Option<S>`'s `None` behaves like [`NoopSink`]).
//!
//! The counter semantics deliberately mirror `Schedule`'s derived
//! statistics: `migrations` counts [`TraceEvent::Migrated`] events, emitted
//! when a job first runs on each machine beyond its first (so the total is
//! Σ over jobs of distinct-machines − 1); `preemptions` counts
//! [`TraceEvent::Preempted`], emitted when a job resumes somewhere that
//! does not merge with its previous run (Σ of maximal-runs − 1); and
//! `machines_opened` counts [`TraceEvent::MachineOpened`], emitted at each
//! machine's first segment. A verified schedule's stats and its trace's
//! metrics therefore agree exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::Write;

use mm_json::Json;
use mm_numeric::Rat;

/// One observable transition in a simulation, solve, or adversary run.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A job's release date was reached and it entered the active set.
    JobReleased {
        /// Job id.
        job: u32,
        /// Simulation time.
        time: Rat,
    },
    /// A job started running for the first time.
    JobStarted {
        /// Job id.
        job: u32,
        /// Machine index.
        machine: usize,
        /// Simulation time.
        time: Rat,
    },
    /// A job resumed in a way that does not merge with its previous run
    /// (its earlier execution was cut short or it changed machines).
    Preempted {
        /// Job id.
        job: u32,
        /// Machine the job now runs on.
        machine: usize,
        /// Time the non-contiguous run begins.
        time: Rat,
    },
    /// A job first ran on a machine distinct from all machines it used
    /// before.
    Migrated {
        /// Job id.
        job: u32,
        /// Machine of the job's previous segment.
        from: usize,
        /// Machine of the new segment.
        to: usize,
        /// Simulation time.
        time: Rat,
    },
    /// A machine received its first segment.
    MachineOpened {
        /// Machine index.
        machine: usize,
        /// Simulation time.
        time: Rat,
    },
    /// A job's deadline passed with processing left.
    DeadlineMissed {
        /// Job id.
        job: u32,
        /// The deadline that was missed.
        time: Rat,
    },
    /// A job's remaining processing reached zero.
    Completed {
        /// Job id.
        job: u32,
        /// Simulation time.
        time: Rat,
    },
    /// The simulation aborted after exhausting its step budget.
    StepLimitExceeded {
        /// Steps executed (equals the configured budget).
        steps: u64,
        /// Simulation time at abort.
        time: Rat,
    },
    /// The solver ran one feasibility check at a machine count.
    FeasibilityProbe {
        /// Machine count probed.
        machines: u64,
        /// Number of jobs in the probed instance.
        jobs: usize,
        /// Whether a feasible schedule exists on that many machines.
        feasible: bool,
    },
    /// The solver's binary search narrowed its bracket.
    BinarySearchStep {
        /// Lower bound after the step (infeasible side).
        lo: u64,
        /// Upper bound after the step (feasible side).
        hi: u64,
    },
    /// A `FeasibilityProber` answered a probe by reusing its prebuilt flow
    /// network instead of rebuilding it.
    ProbeReuse {
        /// Machine count probed.
        machines: u64,
        /// `true` if the existing flow was extended in place (monotone
        /// capacity raise); `false` if the flow was reset first.
        incremental: bool,
        /// Augmenting paths this probe cost.
        augmentations: u64,
    },
    /// The adversary began a release round.
    RoundStarted {
        /// Recursion depth of the round (level `k` counts down to 0).
        round: u32,
        /// Jobs released so far, before this round.
        jobs: usize,
    },
    /// The adversary certified that the online policy was forced to open
    /// an additional machine.
    ForcedOpen {
        /// Machines the policy provably uses after this round.
        machines: u64,
        /// The round that forced it.
        round: u32,
    },
    /// A budgeted operation hit its resource limit and was cancelled at a
    /// cooperative checkpoint.
    BudgetExceeded {
        /// Where the budget ran out (e.g. `"probe"`, `"search"`, `"sim"`).
        site: &'static str,
        /// Which limit tripped (an `mm-fault` `BudgetExceeded` tag:
        /// `steps`, `augmentations`, `wall_clock`, `network_nodes`, or
        /// `fault_injected`).
        reason: &'static str,
    },
    /// A deterministic fault plan injected a failure at a named site.
    FaultInjected {
        /// The fault site tag (`probe_cancel`, `force_bigint`,
        /// `machine_failure`, `machine_slowdown`, `adversary_abort`).
        site: &'static str,
        /// 1-based count of firings at this site so far.
        count: u64,
    },
    /// A feasibility probe could not be decided within budget and degraded
    /// to an unknown verdict.
    ProbeDegraded {
        /// Machine count whose probe was cancelled.
        machines: u64,
        /// Which limit tripped (same tags as [`TraceEvent::BudgetExceeded`]).
        reason: &'static str,
    },
    /// A long adversary run persisted its round state for later resumption.
    AdversaryCheckpoint {
        /// Deepest fully-completed target depth `k`.
        round: u32,
        /// Jobs released across all completed runs.
        jobs: usize,
    },
    /// The service layer accepted a request into its bounded admission
    /// queue.
    RequestAdmitted {
        /// Request id (assigned by the server, dense per run).
        id: u64,
        /// Request kind tag (`solve`, `probe`, `schedule`, `adversary`).
        kind: &'static str,
        /// Queue depth *after* admission (the queue-depth histogram's
        /// sample point).
        depth: usize,
    },
    /// The admission queue was full and the request was shed with an
    /// `overloaded` response instead of being buffered.
    RequestShed {
        /// Request id.
        id: u64,
        /// Queue depth at the shed decision (the configured bound).
        depth: usize,
    },
    /// An admitted request produced its terminal response (exactly one per
    /// admitted request — `ok`, `degraded`, `error`, or `quarantined`).
    RequestCompleted {
        /// Request id.
        id: u64,
        /// Terminal status tag.
        status: &'static str,
    },
    /// A request was re-queued after a worker panic, with backoff.
    RequestRetried {
        /// Request id.
        id: u64,
        /// Execution attempts so far (the retry is attempt `attempt + 1`).
        attempt: u32,
    },
    /// A worker thread panicked while executing a request; the supervisor
    /// caught it.
    WorkerPanicked {
        /// Worker index within the pool.
        worker: usize,
        /// The request it was executing.
        request: u64,
    },
    /// The supervisor spawned a replacement worker.
    WorkerRestarted {
        /// Worker index being recycled.
        worker: usize,
    },
    /// Graceful shutdown began: no new admissions, in-flight work draining
    /// under the drain deadline.
    DrainStarted {
        /// Requests still queued or running at drain start.
        pending: usize,
    },
    /// A request carrying a known idempotency key was answered from the
    /// server's response cache instead of being re-executed.
    RequestDeduped {
        /// Request id.
        id: u64,
        /// The idempotency key that matched.
        key: u64,
    },
    /// The cluster coordinator sent a work unit to a backend.
    ClusterDispatch {
        /// Logical work-unit id.
        unit: u64,
        /// Backend index within the pool.
        backend: usize,
    },
    /// The coordinator sent a hedged duplicate of a slow work unit.
    ClusterHedge {
        /// Logical work-unit id.
        unit: u64,
        /// Backend index the duplicate went to.
        backend: usize,
    },
    /// The coordinator dropped a duplicate response for an already-answered
    /// work unit (the losing copy of a hedge).
    ClusterDedup {
        /// Logical work-unit id.
        unit: u64,
    },
    /// A backend's connection died (EOF, reset, or an injected
    /// `backend_drop` fault).
    ClusterBackendDown {
        /// Backend index within the pool.
        backend: usize,
        /// Why (`drop`, `eof`, `send`, or `health`).
        reason: &'static str,
    },
    /// A repeatedly-failing backend was quarantined: no further dispatches.
    ClusterBackendQuarantined {
        /// Backend index within the pool.
        backend: usize,
        /// Consecutive failures that triggered the quarantine.
        failures: u64,
    },
    /// A work unit stranded on a dead backend was re-dispatched to a
    /// surviving one.
    ClusterShardResumed {
        /// Logical work-unit id.
        unit: u64,
        /// The surviving backend now running it.
        backend: usize,
    },
    /// A jittered health probe completed against a backend.
    ClusterHealthProbe {
        /// Backend index within the pool.
        backend: usize,
        /// Whether the backend answered.
        healthy: bool,
    },
    /// The coordinator re-sent a failed work unit after backoff.
    ClusterRetry {
        /// Logical work-unit id.
        unit: u64,
        /// Dispatch attempts so far.
        attempt: u32,
    },
    /// A backend joined the pool at runtime: its `join` handshake answered
    /// `ready` and the coordinator admitted it for dispatch.
    ClusterBackendJoined {
        /// Backend index within the pool.
        backend: usize,
    },
    /// The coordinator began draining a backend (graceful leave): no new
    /// dispatches; its live shards migrate to survivors.
    ClusterBackendDraining {
        /// Backend index within the pool.
        backend: usize,
    },
    /// A live in-flight shard was migrated off a draining or overloaded
    /// backend onto a survivor, reusing its idempotency key so a double
    /// answer dedups invisibly.
    ClusterShardMigrated {
        /// Logical work-unit id.
        unit: u64,
        /// Backend the shard was moved off.
        from: usize,
        /// Backend it now also runs on.
        to: usize,
    },
    /// A churn plan forced a backend down mid-run (flap).
    ClusterBackendFlapped {
        /// Backend index within the pool.
        backend: usize,
    },
    /// The coordinator proof-checked a gathered answer and the proof held.
    ClusterAnswerVerified {
        /// Logical work-unit id.
        unit: u64,
        /// Backend that produced the answer.
        backend: usize,
    },
    /// The coordinator proof-checked a gathered answer and caught a lie:
    /// the claimed verdict contradicts its own proof. The answer is
    /// discarded, the backend quarantined, and the unit re-asked.
    ClusterAnswerRefuted {
        /// Logical work-unit id.
        unit: u64,
        /// The lying backend.
        backend: usize,
    },
    /// One finished online-portfolio run: a member replayed an event stream
    /// through the exact driver and was scored against the Theorem-1
    /// offline optimum. All fields are logical, so the event is safe for
    /// byte-identical gating.
    OnlineRunCompleted {
        /// Portfolio member label (`loose`, `laminar`, `agreeable`, ...).
        member: &'static str,
        /// Stream family the member ran on (`agreeable`, `laminar`,
        /// `adversary`, `instance`).
        stream: &'static str,
        /// Machines the member actually opened.
        machines_opened: u64,
        /// Theorem-1 offline optimum for the same stream.
        optimum: u64,
        /// `⌊1000 · opened / optimum⌋` (0 when the optimum is 0).
        ratio_millis: u64,
    },
    /// One timed phase of a request span (observability layer). Unlike the
    /// logical events above, this carries wall-clock data, so it never
    /// appears in anything gated on byte-identical output.
    SpanPhase {
        /// Request id the phase belongs to.
        id: u64,
        /// Phase name (`queued`, `exec`, `probe`, `flow`, `reply`, ...).
        phase: &'static str,
        /// Time spent in the phase, microseconds.
        micros: u64,
    },
}

impl TraceEvent {
    /// The event's snake_case tag, the `"event"` field of its JSON form.
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEvent::JobReleased { .. } => "job_released",
            TraceEvent::JobStarted { .. } => "job_started",
            TraceEvent::Preempted { .. } => "preempted",
            TraceEvent::Migrated { .. } => "migrated",
            TraceEvent::MachineOpened { .. } => "machine_opened",
            TraceEvent::DeadlineMissed { .. } => "deadline_missed",
            TraceEvent::Completed { .. } => "completed",
            TraceEvent::StepLimitExceeded { .. } => "step_limit_exceeded",
            TraceEvent::FeasibilityProbe { .. } => "feasibility_probe",
            TraceEvent::BinarySearchStep { .. } => "binary_search_step",
            TraceEvent::ProbeReuse { .. } => "probe_reuse",
            TraceEvent::RoundStarted { .. } => "round_started",
            TraceEvent::ForcedOpen { .. } => "forced_open",
            TraceEvent::BudgetExceeded { .. } => "budget_exceeded",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::ProbeDegraded { .. } => "probe_degraded",
            TraceEvent::AdversaryCheckpoint { .. } => "adversary_checkpoint",
            TraceEvent::RequestAdmitted { .. } => "request_admitted",
            TraceEvent::RequestShed { .. } => "request_shed",
            TraceEvent::RequestCompleted { .. } => "request_completed",
            TraceEvent::RequestRetried { .. } => "request_retried",
            TraceEvent::WorkerPanicked { .. } => "worker_panicked",
            TraceEvent::WorkerRestarted { .. } => "worker_restarted",
            TraceEvent::DrainStarted { .. } => "drain_started",
            TraceEvent::RequestDeduped { .. } => "request_deduped",
            TraceEvent::ClusterDispatch { .. } => "cluster_dispatch",
            TraceEvent::ClusterHedge { .. } => "cluster_hedge",
            TraceEvent::ClusterDedup { .. } => "cluster_dedup",
            TraceEvent::ClusterBackendDown { .. } => "cluster_backend_down",
            TraceEvent::ClusterBackendQuarantined { .. } => "cluster_backend_quarantined",
            TraceEvent::ClusterShardResumed { .. } => "cluster_shard_resumed",
            TraceEvent::ClusterHealthProbe { .. } => "cluster_health_probe",
            TraceEvent::ClusterRetry { .. } => "cluster_retry",
            TraceEvent::ClusterBackendJoined { .. } => "cluster_backend_joined",
            TraceEvent::ClusterBackendDraining { .. } => "cluster_backend_draining",
            TraceEvent::ClusterShardMigrated { .. } => "cluster_shard_migrated",
            TraceEvent::ClusterBackendFlapped { .. } => "cluster_backend_flapped",
            TraceEvent::ClusterAnswerVerified { .. } => "cluster_answer_verified",
            TraceEvent::ClusterAnswerRefuted { .. } => "cluster_answer_refuted",
            TraceEvent::OnlineRunCompleted { .. } => "online_run_completed",
            TraceEvent::SpanPhase { .. } => "span_phase",
        }
    }

    /// The event as a JSON object (one JSONL record). Times are exact
    /// `"num/den"` strings.
    pub fn to_json(&self) -> Json {
        let time = |t: &Rat| Json::str(t.to_string());
        match self {
            TraceEvent::JobReleased { job, time: t } => Json::obj([
                ("event", Json::str(self.tag())),
                ("job", Json::Int(*job as i64)),
                ("time", time(t)),
            ]),
            TraceEvent::JobStarted {
                job,
                machine,
                time: t,
            } => Json::obj([
                ("event", Json::str(self.tag())),
                ("job", Json::Int(*job as i64)),
                ("machine", Json::Int(*machine as i64)),
                ("time", time(t)),
            ]),
            TraceEvent::Preempted {
                job,
                machine,
                time: t,
            } => Json::obj([
                ("event", Json::str(self.tag())),
                ("job", Json::Int(*job as i64)),
                ("machine", Json::Int(*machine as i64)),
                ("time", time(t)),
            ]),
            TraceEvent::Migrated {
                job,
                from,
                to,
                time: t,
            } => Json::obj([
                ("event", Json::str(self.tag())),
                ("job", Json::Int(*job as i64)),
                ("from", Json::Int(*from as i64)),
                ("to", Json::Int(*to as i64)),
                ("time", time(t)),
            ]),
            TraceEvent::MachineOpened { machine, time: t } => Json::obj([
                ("event", Json::str(self.tag())),
                ("machine", Json::Int(*machine as i64)),
                ("time", time(t)),
            ]),
            TraceEvent::DeadlineMissed { job, time: t } => Json::obj([
                ("event", Json::str(self.tag())),
                ("job", Json::Int(*job as i64)),
                ("time", time(t)),
            ]),
            TraceEvent::Completed { job, time: t } => Json::obj([
                ("event", Json::str(self.tag())),
                ("job", Json::Int(*job as i64)),
                ("time", time(t)),
            ]),
            TraceEvent::StepLimitExceeded { steps, time: t } => Json::obj([
                ("event", Json::str(self.tag())),
                ("steps", Json::Int(*steps as i64)),
                ("time", time(t)),
            ]),
            TraceEvent::FeasibilityProbe {
                machines,
                jobs,
                feasible,
            } => Json::obj([
                ("event", Json::str(self.tag())),
                ("machines", Json::Int(*machines as i64)),
                ("jobs", Json::Int(*jobs as i64)),
                ("feasible", Json::Bool(*feasible)),
            ]),
            TraceEvent::BinarySearchStep { lo, hi } => Json::obj([
                ("event", Json::str(self.tag())),
                ("lo", Json::Int(*lo as i64)),
                ("hi", Json::Int(*hi as i64)),
            ]),
            TraceEvent::ProbeReuse {
                machines,
                incremental,
                augmentations,
            } => Json::obj([
                ("event", Json::str(self.tag())),
                ("machines", Json::Int(*machines as i64)),
                ("incremental", Json::Bool(*incremental)),
                ("augmentations", Json::Int(*augmentations as i64)),
            ]),
            TraceEvent::RoundStarted { round, jobs } => Json::obj([
                ("event", Json::str(self.tag())),
                ("round", Json::Int(*round as i64)),
                ("jobs", Json::Int(*jobs as i64)),
            ]),
            TraceEvent::ForcedOpen { machines, round } => Json::obj([
                ("event", Json::str(self.tag())),
                ("machines", Json::Int(*machines as i64)),
                ("round", Json::Int(*round as i64)),
            ]),
            TraceEvent::BudgetExceeded { site, reason } => Json::obj([
                ("event", Json::str(self.tag())),
                ("site", Json::str(*site)),
                ("reason", Json::str(*reason)),
            ]),
            TraceEvent::FaultInjected { site, count } => Json::obj([
                ("event", Json::str(self.tag())),
                ("site", Json::str(*site)),
                ("count", Json::Int(*count as i64)),
            ]),
            TraceEvent::ProbeDegraded { machines, reason } => Json::obj([
                ("event", Json::str(self.tag())),
                ("machines", Json::Int(*machines as i64)),
                ("reason", Json::str(*reason)),
            ]),
            TraceEvent::AdversaryCheckpoint { round, jobs } => Json::obj([
                ("event", Json::str(self.tag())),
                ("round", Json::Int(*round as i64)),
                ("jobs", Json::Int(*jobs as i64)),
            ]),
            TraceEvent::RequestAdmitted { id, kind, depth } => Json::obj([
                ("event", Json::str(self.tag())),
                ("id", Json::Int(*id as i64)),
                ("kind", Json::str(*kind)),
                ("depth", Json::Int(*depth as i64)),
            ]),
            TraceEvent::RequestShed { id, depth } => Json::obj([
                ("event", Json::str(self.tag())),
                ("id", Json::Int(*id as i64)),
                ("depth", Json::Int(*depth as i64)),
            ]),
            TraceEvent::RequestCompleted { id, status } => Json::obj([
                ("event", Json::str(self.tag())),
                ("id", Json::Int(*id as i64)),
                ("status", Json::str(*status)),
            ]),
            TraceEvent::RequestRetried { id, attempt } => Json::obj([
                ("event", Json::str(self.tag())),
                ("id", Json::Int(*id as i64)),
                ("attempt", Json::Int(*attempt as i64)),
            ]),
            TraceEvent::WorkerPanicked { worker, request } => Json::obj([
                ("event", Json::str(self.tag())),
                ("worker", Json::Int(*worker as i64)),
                ("request", Json::Int(*request as i64)),
            ]),
            TraceEvent::WorkerRestarted { worker } => Json::obj([
                ("event", Json::str(self.tag())),
                ("worker", Json::Int(*worker as i64)),
            ]),
            TraceEvent::DrainStarted { pending } => Json::obj([
                ("event", Json::str(self.tag())),
                ("pending", Json::Int(*pending as i64)),
            ]),
            TraceEvent::RequestDeduped { id, key } => Json::obj([
                ("event", Json::str(self.tag())),
                ("id", Json::Int(*id as i64)),
                ("key", Json::Int(*key as i64)),
            ]),
            TraceEvent::ClusterDispatch { unit, backend } => Json::obj([
                ("event", Json::str(self.tag())),
                ("unit", Json::Int(*unit as i64)),
                ("backend", Json::Int(*backend as i64)),
            ]),
            TraceEvent::ClusterHedge { unit, backend } => Json::obj([
                ("event", Json::str(self.tag())),
                ("unit", Json::Int(*unit as i64)),
                ("backend", Json::Int(*backend as i64)),
            ]),
            TraceEvent::ClusterDedup { unit } => Json::obj([
                ("event", Json::str(self.tag())),
                ("unit", Json::Int(*unit as i64)),
            ]),
            TraceEvent::ClusterBackendDown { backend, reason } => Json::obj([
                ("event", Json::str(self.tag())),
                ("backend", Json::Int(*backend as i64)),
                ("reason", Json::str(*reason)),
            ]),
            TraceEvent::ClusterBackendQuarantined { backend, failures } => Json::obj([
                ("event", Json::str(self.tag())),
                ("backend", Json::Int(*backend as i64)),
                ("failures", Json::Int(*failures as i64)),
            ]),
            TraceEvent::ClusterShardResumed { unit, backend } => Json::obj([
                ("event", Json::str(self.tag())),
                ("unit", Json::Int(*unit as i64)),
                ("backend", Json::Int(*backend as i64)),
            ]),
            TraceEvent::ClusterHealthProbe { backend, healthy } => Json::obj([
                ("event", Json::str(self.tag())),
                ("backend", Json::Int(*backend as i64)),
                ("healthy", Json::Bool(*healthy)),
            ]),
            TraceEvent::ClusterRetry { unit, attempt } => Json::obj([
                ("event", Json::str(self.tag())),
                ("unit", Json::Int(*unit as i64)),
                ("attempt", Json::Int(*attempt as i64)),
            ]),
            TraceEvent::ClusterBackendJoined { backend } => Json::obj([
                ("event", Json::str(self.tag())),
                ("backend", Json::Int(*backend as i64)),
            ]),
            TraceEvent::ClusterBackendDraining { backend } => Json::obj([
                ("event", Json::str(self.tag())),
                ("backend", Json::Int(*backend as i64)),
            ]),
            TraceEvent::ClusterShardMigrated { unit, from, to } => Json::obj([
                ("event", Json::str(self.tag())),
                ("unit", Json::Int(*unit as i64)),
                ("from", Json::Int(*from as i64)),
                ("to", Json::Int(*to as i64)),
            ]),
            TraceEvent::ClusterBackendFlapped { backend } => Json::obj([
                ("event", Json::str(self.tag())),
                ("backend", Json::Int(*backend as i64)),
            ]),
            TraceEvent::ClusterAnswerVerified { unit, backend }
            | TraceEvent::ClusterAnswerRefuted { unit, backend } => Json::obj([
                ("event", Json::str(self.tag())),
                ("unit", Json::Int(*unit as i64)),
                ("backend", Json::Int(*backend as i64)),
            ]),
            TraceEvent::OnlineRunCompleted {
                member,
                stream,
                machines_opened,
                optimum,
                ratio_millis,
            } => Json::obj([
                ("event", Json::str(self.tag())),
                ("member", Json::str(*member)),
                ("stream", Json::str(*stream)),
                ("machines_opened", Json::Int(*machines_opened as i64)),
                ("optimum", Json::Int(*optimum as i64)),
                ("ratio_millis", Json::Int(*ratio_millis as i64)),
            ]),
            TraceEvent::SpanPhase { id, phase, micros } => Json::obj([
                ("event", Json::str(self.tag())),
                ("id", Json::Int(*id as i64)),
                ("phase", Json::str(*phase)),
                ("micros", Json::Int(*micros as i64)),
            ]),
        }
    }
}

/// Receives [`TraceEvent`]s from instrumented components.
///
/// Emission sites must guard event construction with [`TraceSink::enabled`]:
///
/// ```ignore
/// if sink.enabled() {
///     sink.record(&TraceEvent::Completed { job, time });
/// }
/// ```
///
/// so a disabled sink skips the (allocating) event construction entirely.
pub trait TraceSink {
    /// Whether events should be constructed and recorded at all.
    fn enabled(&self) -> bool;

    /// Consumes one event. Only called when [`TraceSink::enabled`] is true.
    fn record(&mut self, event: &TraceEvent);
}

/// The default sink: drops everything, `enabled()` is a constant `false`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record(&mut self, _event: &TraceEvent) {}
}

impl<S: TraceSink> TraceSink for &mut S {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn record(&mut self, event: &TraceEvent) {
        (**self).record(event)
    }
}

impl<S: TraceSink + ?Sized> TraceSink for Box<S> {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn record(&mut self, event: &TraceEvent) {
        (**self).record(event)
    }
}

impl<S: TraceSink> TraceSink for Option<S> {
    fn enabled(&self) -> bool {
        self.as_ref().is_some_and(TraceSink::enabled)
    }

    fn record(&mut self, event: &TraceEvent) {
        if let Some(sink) = self {
            sink.record(event);
        }
    }
}

/// Buffers events in memory. Intended for tests.
#[derive(Debug, Default)]
pub struct VecSink {
    /// The recorded events, in emission order.
    pub events: Vec<TraceEvent>,
}

impl VecSink {
    /// An empty buffer.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// How many recorded events satisfy `pred`.
    pub fn count(&self, pred: impl Fn(&TraceEvent) -> bool) -> usize {
        self.events.iter().filter(|e| pred(e)).count()
    }
}

impl TraceSink for VecSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }
}

/// Duplicates every event to two sinks.
#[derive(Debug, Default)]
pub struct TeeSink<A, B>(pub A, pub B);

impl<A: TraceSink, B: TraceSink> TraceSink for TeeSink<A, B> {
    fn enabled(&self) -> bool {
        self.0.enabled() || self.1.enabled()
    }

    fn record(&mut self, event: &TraceEvent) {
        if self.0.enabled() {
            self.0.record(event);
        }
        if self.1.enabled() {
            self.1.record(event);
        }
    }
}

/// Streams events as JSON Lines: one compact object per event.
///
/// Skips [`TraceEvent::SpanPhase`]: span phases carry wall-clock
/// microseconds, and the JSONL trace keeps the workspace-wide contract
/// that a same-seed event stream is byte-identical across runs. Span
/// timings are aggregated instead — [`MetricsSink`] counts them and the
/// serve registry turns them into latency histograms and slow-span
/// exemplars (the `stats` endpoint).
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    /// First write error, if any; later records are dropped.
    error: Option<std::io::Error>,
    written: u64,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer (callers usually pass a `BufWriter<File>`).
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            error: None,
            written: 0,
        }
    }

    /// Events successfully written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the writer, or the first error encountered
    /// while recording.
    pub fn finish(mut self) -> Result<W, std::io::Error> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn enabled(&self) -> bool {
        self.error.is_none()
    }

    fn record(&mut self, event: &TraceEvent) {
        if matches!(event, TraceEvent::SpanPhase { .. }) {
            return;
        }
        let mut line = event.to_json().to_compact();
        line.push('\n');
        if let Err(e) = self.writer.write_all(line.as_bytes()) {
            self.error = Some(e);
        } else {
            self.written += 1;
        }
    }
}

/// Monotonic counters and histograms aggregated from a trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// `job_released` events.
    pub jobs_released: u64,
    /// `job_started` events.
    pub jobs_started: u64,
    /// `completed` events.
    pub completions: u64,
    /// `deadline_missed` events.
    pub deadline_misses: u64,
    /// `machine_opened` events; equals the schedule's `machines_used`.
    pub machines_opened: u64,
    /// `migrated` events; equals the schedule's migration count.
    pub migrations: u64,
    /// `preempted` events; equals the schedule's preemption count.
    pub preemptions: u64,
    /// `step_limit_exceeded` events (0 or 1 per run).
    pub step_limit_hits: u64,
    /// `feasibility_probe` events.
    pub feasibility_probes: u64,
    /// Probes that answered feasible.
    pub feasible_probes: u64,
    /// `binary_search_step` events.
    pub binary_search_steps: u64,
    /// `probe_reuse` events with `incremental: true` (flow extended in
    /// place across successive machine counts).
    pub prober_incremental: u64,
    /// `probe_reuse` events with `incremental: false` (flow reset in place).
    pub prober_resets: u64,
    /// Augmenting paths summed over `probe_reuse` events.
    pub flow_augmentations: u64,
    /// `round_started` events.
    pub adversary_rounds: u64,
    /// `forced_open` events.
    pub forced_opens: u64,
    /// `budget_exceeded` events.
    pub budget_exceeded: u64,
    /// `fault_injected` events.
    pub faults_injected: u64,
    /// `probe_degraded` events.
    pub probes_degraded: u64,
    /// `adversary_checkpoint` events.
    pub adversary_checkpoints: u64,
    /// `request_admitted` events.
    pub requests_admitted: u64,
    /// `request_shed` events.
    pub requests_shed: u64,
    /// `request_completed` events (terminal responses for admitted
    /// requests). The service-layer invariant is
    /// `requests_admitted == responses_sent` once drained, and every shed
    /// request got an `overloaded` reply at the door.
    pub responses_sent: u64,
    /// `request_retried` events.
    pub requests_retried: u64,
    /// `worker_panicked` events.
    pub worker_panics: u64,
    /// `worker_restarted` events.
    pub worker_restarts: u64,
    /// `drain_started` events (0 or 1 per server run).
    pub drains: u64,
    /// `request_deduped` events (hedged duplicates answered from cache).
    pub requests_deduped: u64,
    /// `cluster_dispatch` events.
    pub cluster_dispatches: u64,
    /// `cluster_hedge` events (hedged duplicates sent).
    pub cluster_hedges: u64,
    /// `cluster_dedup` events (duplicate responses dropped).
    pub cluster_dedups: u64,
    /// `cluster_backend_down` events.
    pub cluster_backend_drops: u64,
    /// `cluster_backend_quarantined` events.
    pub cluster_quarantines: u64,
    /// `cluster_shard_resumed` events.
    pub cluster_shard_resumes: u64,
    /// `cluster_health_probe` events.
    pub cluster_health_probes: u64,
    /// `cluster_retry` events.
    pub cluster_retries: u64,
    /// `cluster_backend_joined` events (runtime pool admissions).
    pub cluster_joins: u64,
    /// `cluster_backend_draining` events (graceful leaves started).
    pub cluster_drains: u64,
    /// `cluster_shard_migrated` events (live in-flight moves).
    pub cluster_migrations: u64,
    /// `cluster_backend_flapped` events (churn-plan forced downs).
    pub cluster_flaps: u64,
    /// `cluster_answer_verified` events (proof-checked answers that held).
    pub cluster_verifications: u64,
    /// `cluster_answer_refuted` events (lies caught by proof checking).
    pub cluster_refutations: u64,
    /// `online_run_completed` events (portfolio member runs scored against
    /// the offline optimum).
    pub online_runs: u64,
    /// Machines opened summed over `online_run_completed` events.
    pub online_machines_opened: u64,
    /// Worst (largest) `ratio_millis` over `online_run_completed` events.
    pub online_worst_ratio_millis: u64,
    /// `span_phase` events (request-span phase timings). Only the count is
    /// aggregated here — the timed values are wall-clock and belong to the
    /// observability registry, not to this deterministic summary.
    pub span_phases: u64,
    /// Events touching each machine (index = machine id): opens, starts,
    /// preemptions, and incoming migrations.
    pub events_per_machine: Vec<u64>,
    /// `preempted` events per job (index = job id).
    pub preemptions_per_job: Vec<u64>,
    /// Admissions observed at each queue depth (index = depth after
    /// admission, so index 1 is "queue held only this request").
    pub queue_depth_at_admission: Vec<u64>,
    /// Cluster dispatches per backend (index = backend; includes hedges
    /// and shard resumes — every line actually sent to that backend).
    pub dispatches_per_backend: Vec<u64>,
}

impl Metrics {
    fn bump(vec: &mut Vec<u64>, index: usize) {
        if vec.len() <= index {
            vec.resize(index + 1, 0);
        }
        vec[index] += 1;
    }

    /// Folds one event into the counters.
    pub fn observe(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::JobReleased { .. } => self.jobs_released += 1,
            TraceEvent::JobStarted { machine, .. } => {
                self.jobs_started += 1;
                Self::bump(&mut self.events_per_machine, *machine);
            }
            TraceEvent::Preempted { job, machine, .. } => {
                self.preemptions += 1;
                Self::bump(&mut self.events_per_machine, *machine);
                Self::bump(&mut self.preemptions_per_job, *job as usize);
            }
            TraceEvent::Migrated { to, .. } => {
                self.migrations += 1;
                Self::bump(&mut self.events_per_machine, *to);
            }
            TraceEvent::MachineOpened { machine, .. } => {
                self.machines_opened += 1;
                Self::bump(&mut self.events_per_machine, *machine);
            }
            TraceEvent::DeadlineMissed { .. } => self.deadline_misses += 1,
            TraceEvent::Completed { .. } => self.completions += 1,
            TraceEvent::StepLimitExceeded { .. } => self.step_limit_hits += 1,
            TraceEvent::FeasibilityProbe { feasible, .. } => {
                self.feasibility_probes += 1;
                if *feasible {
                    self.feasible_probes += 1;
                }
            }
            TraceEvent::BinarySearchStep { .. } => self.binary_search_steps += 1,
            TraceEvent::ProbeReuse {
                incremental,
                augmentations,
                ..
            } => {
                if *incremental {
                    self.prober_incremental += 1;
                } else {
                    self.prober_resets += 1;
                }
                self.flow_augmentations += augmentations;
            }
            TraceEvent::RoundStarted { .. } => self.adversary_rounds += 1,
            TraceEvent::ForcedOpen { .. } => self.forced_opens += 1,
            TraceEvent::BudgetExceeded { .. } => self.budget_exceeded += 1,
            TraceEvent::FaultInjected { .. } => self.faults_injected += 1,
            TraceEvent::ProbeDegraded { .. } => self.probes_degraded += 1,
            TraceEvent::AdversaryCheckpoint { .. } => self.adversary_checkpoints += 1,
            TraceEvent::RequestAdmitted { depth, .. } => {
                self.requests_admitted += 1;
                Self::bump(&mut self.queue_depth_at_admission, *depth);
            }
            TraceEvent::RequestShed { .. } => self.requests_shed += 1,
            TraceEvent::RequestCompleted { .. } => self.responses_sent += 1,
            TraceEvent::RequestRetried { .. } => self.requests_retried += 1,
            TraceEvent::WorkerPanicked { .. } => self.worker_panics += 1,
            TraceEvent::WorkerRestarted { .. } => self.worker_restarts += 1,
            TraceEvent::DrainStarted { .. } => self.drains += 1,
            TraceEvent::RequestDeduped { .. } => self.requests_deduped += 1,
            TraceEvent::ClusterDispatch { backend, .. } => {
                self.cluster_dispatches += 1;
                Self::bump(&mut self.dispatches_per_backend, *backend);
            }
            TraceEvent::ClusterHedge { backend, .. } => {
                self.cluster_hedges += 1;
                Self::bump(&mut self.dispatches_per_backend, *backend);
            }
            TraceEvent::ClusterDedup { .. } => self.cluster_dedups += 1,
            TraceEvent::ClusterBackendDown { .. } => self.cluster_backend_drops += 1,
            TraceEvent::ClusterBackendQuarantined { .. } => self.cluster_quarantines += 1,
            TraceEvent::ClusterShardResumed { backend, .. } => {
                self.cluster_shard_resumes += 1;
                Self::bump(&mut self.dispatches_per_backend, *backend);
            }
            TraceEvent::ClusterHealthProbe { .. } => self.cluster_health_probes += 1,
            TraceEvent::ClusterRetry { .. } => self.cluster_retries += 1,
            TraceEvent::ClusterBackendJoined { .. } => self.cluster_joins += 1,
            TraceEvent::ClusterBackendDraining { .. } => self.cluster_drains += 1,
            TraceEvent::ClusterShardMigrated { to, .. } => {
                self.cluster_migrations += 1;
                Self::bump(&mut self.dispatches_per_backend, *to);
            }
            TraceEvent::ClusterBackendFlapped { .. } => self.cluster_flaps += 1,
            TraceEvent::ClusterAnswerVerified { .. } => self.cluster_verifications += 1,
            TraceEvent::ClusterAnswerRefuted { .. } => self.cluster_refutations += 1,
            TraceEvent::OnlineRunCompleted {
                machines_opened,
                ratio_millis,
                ..
            } => {
                self.online_runs += 1;
                self.online_machines_opened += machines_opened;
                self.online_worst_ratio_millis = self.online_worst_ratio_millis.max(*ratio_millis);
            }
            TraceEvent::SpanPhase { .. } => self.span_phases += 1,
        }
    }

    /// The metrics document written by `--metrics file.json`.
    pub fn to_json(&self) -> Json {
        let counts = |v: &[u64]| Json::Arr(v.iter().map(|&c| Json::Int(c as i64)).collect());
        Json::obj([
            (
                "schedule",
                Json::obj([
                    ("jobs_released", Json::Int(self.jobs_released as i64)),
                    ("jobs_started", Json::Int(self.jobs_started as i64)),
                    ("completions", Json::Int(self.completions as i64)),
                    ("deadline_misses", Json::Int(self.deadline_misses as i64)),
                    ("machines_opened", Json::Int(self.machines_opened as i64)),
                    ("migrations", Json::Int(self.migrations as i64)),
                    ("preemptions", Json::Int(self.preemptions as i64)),
                    ("step_limit_hits", Json::Int(self.step_limit_hits as i64)),
                ]),
            ),
            (
                "solver",
                Json::obj([
                    (
                        "feasibility_probes",
                        Json::Int(self.feasibility_probes as i64),
                    ),
                    ("feasible", Json::Int(self.feasible_probes as i64)),
                    (
                        "infeasible",
                        Json::Int((self.feasibility_probes - self.feasible_probes) as i64),
                    ),
                    (
                        "binary_search_steps",
                        Json::Int(self.binary_search_steps as i64),
                    ),
                    (
                        "prober_incremental",
                        Json::Int(self.prober_incremental as i64),
                    ),
                    ("prober_resets", Json::Int(self.prober_resets as i64)),
                    (
                        "flow_augmentations",
                        Json::Int(self.flow_augmentations as i64),
                    ),
                ]),
            ),
            (
                "adversary",
                Json::obj([
                    ("rounds", Json::Int(self.adversary_rounds as i64)),
                    ("forced_opens", Json::Int(self.forced_opens as i64)),
                    ("checkpoints", Json::Int(self.adversary_checkpoints as i64)),
                ]),
            ),
            (
                "robustness",
                Json::obj([
                    ("budget_exceeded", Json::Int(self.budget_exceeded as i64)),
                    ("faults_injected", Json::Int(self.faults_injected as i64)),
                    ("probes_degraded", Json::Int(self.probes_degraded as i64)),
                ]),
            ),
            (
                "serve",
                Json::obj([
                    (
                        "requests_admitted",
                        Json::Int(self.requests_admitted as i64),
                    ),
                    ("requests_shed", Json::Int(self.requests_shed as i64)),
                    ("responses_sent", Json::Int(self.responses_sent as i64)),
                    ("requests_retried", Json::Int(self.requests_retried as i64)),
                    ("worker_panics", Json::Int(self.worker_panics as i64)),
                    ("worker_restarts", Json::Int(self.worker_restarts as i64)),
                    ("drains", Json::Int(self.drains as i64)),
                    ("requests_deduped", Json::Int(self.requests_deduped as i64)),
                    ("span_phases", Json::Int(self.span_phases as i64)),
                ]),
            ),
            (
                "cluster",
                Json::obj([
                    ("dispatches", Json::Int(self.cluster_dispatches as i64)),
                    ("hedges", Json::Int(self.cluster_hedges as i64)),
                    ("dedups", Json::Int(self.cluster_dedups as i64)),
                    (
                        "backend_drops",
                        Json::Int(self.cluster_backend_drops as i64),
                    ),
                    ("quarantines", Json::Int(self.cluster_quarantines as i64)),
                    (
                        "shard_resumes",
                        Json::Int(self.cluster_shard_resumes as i64),
                    ),
                    (
                        "health_probes",
                        Json::Int(self.cluster_health_probes as i64),
                    ),
                    ("retries", Json::Int(self.cluster_retries as i64)),
                    ("joins", Json::Int(self.cluster_joins as i64)),
                    ("drains", Json::Int(self.cluster_drains as i64)),
                    ("migrations", Json::Int(self.cluster_migrations as i64)),
                    ("flaps", Json::Int(self.cluster_flaps as i64)),
                    (
                        "verifications",
                        Json::Int(self.cluster_verifications as i64),
                    ),
                    ("refutations", Json::Int(self.cluster_refutations as i64)),
                ]),
            ),
            (
                "online",
                Json::obj([
                    ("runs", Json::Int(self.online_runs as i64)),
                    (
                        "machines_opened",
                        Json::Int(self.online_machines_opened as i64),
                    ),
                    (
                        "worst_ratio_millis",
                        Json::Int(self.online_worst_ratio_millis as i64),
                    ),
                ]),
            ),
            (
                "histograms",
                Json::obj([
                    ("events_per_machine", counts(&self.events_per_machine)),
                    ("preemptions_per_job", counts(&self.preemptions_per_job)),
                    (
                        "queue_depth_at_admission",
                        counts(&self.queue_depth_at_admission),
                    ),
                    (
                        "dispatches_per_backend",
                        counts(&self.dispatches_per_backend),
                    ),
                ]),
            ),
        ])
    }
}

/// A clonable, thread-safe handle to one shared sink (`Arc<Mutex<S>>`).
///
/// The service layer's supervisor, workers, and connection threads all emit
/// into the same trace; each holds a `SharedSink` clone and the mutex
/// serialises records. Lock scope is one `record` call, so event order in
/// the trace is a valid interleaving of the per-thread orders.
#[derive(Debug, Default)]
pub struct SharedSink<S>(std::sync::Arc<std::sync::Mutex<S>>);

impl<S> Clone for SharedSink<S> {
    fn clone(&self) -> Self {
        SharedSink(std::sync::Arc::clone(&self.0))
    }
}

impl<S: TraceSink> SharedSink<S> {
    /// Wraps `sink` for sharing across threads.
    pub fn new(sink: S) -> Self {
        SharedSink(std::sync::Arc::new(std::sync::Mutex::new(sink)))
    }

    /// Runs `f` with the inner sink locked (e.g. to read a `MetricsSink`'s
    /// totals mid-run).
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.0.lock().expect("trace sink poisoned"))
    }

    /// Unwraps the inner sink. Panics if other clones are still alive.
    pub fn into_inner(self) -> S {
        std::sync::Arc::try_unwrap(self.0)
            .ok()
            .expect("other SharedSink clones still alive")
            .into_inner()
            .expect("trace sink poisoned")
    }
}

impl<S: TraceSink> TraceSink for SharedSink<S> {
    fn enabled(&self) -> bool {
        self.0.lock().expect("trace sink poisoned").enabled()
    }

    fn record(&mut self, event: &TraceEvent) {
        self.0.lock().expect("trace sink poisoned").record(event);
    }
}

/// Aggregates events into [`Metrics`].
#[derive(Debug, Default)]
pub struct MetricsSink {
    /// The running totals.
    pub metrics: Metrics,
}

impl MetricsSink {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        MetricsSink::default()
    }
}

impl TraceSink for MetricsSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: &TraceEvent) {
        self.metrics.observe(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: i64) -> Rat {
        Rat::ratio(n, 1)
    }

    #[test]
    fn noop_sink_is_disabled() {
        assert!(!NoopSink.enabled());
        let mut none: Option<VecSink> = None;
        assert!(!none.enabled());
        none.record(&TraceEvent::Completed { job: 0, time: t(1) });
    }

    #[test]
    fn borrowed_and_optional_sinks_delegate() {
        let mut v = VecSink::new();
        {
            let lent = &mut v;
            assert!(lent.enabled());
            lent.record(&TraceEvent::JobReleased { job: 3, time: t(0) });
        }
        let mut opt = Some(v);
        assert!(opt.enabled());
        opt.record(&TraceEvent::Completed { job: 3, time: t(2) });
        assert_eq!(opt.unwrap().events.len(), 2);
    }

    #[test]
    fn tee_duplicates() {
        let mut tee = TeeSink(VecSink::new(), MetricsSink::new());
        tee.record(&TraceEvent::MachineOpened {
            machine: 1,
            time: t(0),
        });
        tee.record(&TraceEvent::Migrated {
            job: 0,
            from: 1,
            to: 2,
            time: t(1),
        });
        assert_eq!(tee.0.events.len(), 2);
        assert_eq!(tee.1.metrics.machines_opened, 1);
        assert_eq!(tee.1.metrics.migrations, 1);
    }

    #[test]
    fn metrics_histograms_grow() {
        let mut m = Metrics::default();
        m.observe(&TraceEvent::Preempted {
            job: 5,
            machine: 2,
            time: t(1),
        });
        m.observe(&TraceEvent::Preempted {
            job: 5,
            machine: 0,
            time: t(2),
        });
        assert_eq!(m.preemptions, 2);
        assert_eq!(m.preemptions_per_job, vec![0, 0, 0, 0, 0, 2]);
        assert_eq!(m.events_per_machine, vec![1, 0, 1]);
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let mut sink = JsonlSink::new(Vec::new());
        let events = [
            TraceEvent::JobReleased {
                job: 0,
                time: Rat::ratio(1, 3),
            },
            TraceEvent::JobStarted {
                job: 0,
                machine: 2,
                time: Rat::ratio(1, 3),
            },
            TraceEvent::FeasibilityProbe {
                machines: 4,
                jobs: 9,
                feasible: true,
            },
            TraceEvent::BinarySearchStep { lo: 2, hi: 4 },
            TraceEvent::StepLimitExceeded {
                steps: 100,
                time: t(7),
            },
        ];
        for e in &events {
            sink.record(e);
        }
        assert_eq!(sink.written(), events.len() as u64);
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), events.len());
        for (line, event) in lines.iter().zip(&events) {
            let parsed = mm_json::parse(line).unwrap();
            assert_eq!(parsed.get("event").unwrap().as_str().unwrap(), event.tag());
        }
        // Exact rational time survives.
        assert_eq!(
            mm_json::parse(lines[0])
                .unwrap()
                .get("time")
                .unwrap()
                .as_str(),
            Some("1/3")
        );
    }

    #[test]
    fn serve_events_feed_serve_metrics() {
        let mut sink = MetricsSink::new();
        sink.record(&TraceEvent::RequestAdmitted {
            id: 0,
            kind: "solve",
            depth: 1,
        });
        sink.record(&TraceEvent::RequestAdmitted {
            id: 1,
            kind: "probe",
            depth: 2,
        });
        sink.record(&TraceEvent::RequestShed { id: 2, depth: 2 });
        sink.record(&TraceEvent::WorkerPanicked {
            worker: 0,
            request: 1,
        });
        sink.record(&TraceEvent::WorkerRestarted { worker: 0 });
        sink.record(&TraceEvent::RequestRetried { id: 1, attempt: 1 });
        sink.record(&TraceEvent::RequestCompleted {
            id: 0,
            status: "ok",
        });
        sink.record(&TraceEvent::RequestCompleted {
            id: 1,
            status: "degraded",
        });
        sink.record(&TraceEvent::DrainStarted { pending: 0 });
        let m = &sink.metrics;
        assert_eq!(m.requests_admitted, 2);
        assert_eq!(m.requests_shed, 1);
        assert_eq!(m.responses_sent, 2);
        assert_eq!(m.requests_retried, 1);
        assert_eq!(m.worker_panics, 1);
        assert_eq!(m.worker_restarts, 1);
        assert_eq!(m.drains, 1);
        assert_eq!(m.queue_depth_at_admission, vec![0, 1, 1]);
        // The drained-server invariant holds on this sequence.
        assert_eq!(m.requests_admitted, m.responses_sent);
        let doc = m.to_json();
        assert_eq!(
            doc.get("serve")
                .unwrap()
                .get("responses_sent")
                .unwrap()
                .as_i64(),
            Some(2)
        );
    }

    #[test]
    fn cluster_events_feed_cluster_metrics() {
        let mut sink = MetricsSink::new();
        sink.record(&TraceEvent::ClusterDispatch {
            unit: 0,
            backend: 0,
        });
        sink.record(&TraceEvent::ClusterDispatch {
            unit: 1,
            backend: 2,
        });
        sink.record(&TraceEvent::ClusterHedge {
            unit: 1,
            backend: 0,
        });
        sink.record(&TraceEvent::ClusterDedup { unit: 1 });
        sink.record(&TraceEvent::ClusterBackendDown {
            backend: 2,
            reason: "drop",
        });
        sink.record(&TraceEvent::ClusterBackendQuarantined {
            backend: 2,
            failures: 1,
        });
        sink.record(&TraceEvent::ClusterShardResumed {
            unit: 1,
            backend: 1,
        });
        sink.record(&TraceEvent::ClusterHealthProbe {
            backend: 0,
            healthy: true,
        });
        sink.record(&TraceEvent::ClusterRetry {
            unit: 1,
            attempt: 2,
        });
        sink.record(&TraceEvent::RequestDeduped { id: 1, key: 9 });
        let m = &sink.metrics;
        assert_eq!(m.cluster_dispatches, 2);
        assert_eq!(m.cluster_hedges, 1);
        assert_eq!(m.cluster_dedups, 1);
        assert_eq!(m.cluster_backend_drops, 1);
        assert_eq!(m.cluster_quarantines, 1);
        assert_eq!(m.cluster_shard_resumes, 1);
        assert_eq!(m.cluster_health_probes, 1);
        assert_eq!(m.cluster_retries, 1);
        assert_eq!(m.requests_deduped, 1);
        // Dispatches + hedge + resume land in the per-backend histogram.
        assert_eq!(m.dispatches_per_backend, vec![2, 1, 1]);
        let doc = m.to_json();
        assert_eq!(
            doc.get("cluster").unwrap().get("hedges").unwrap().as_i64(),
            Some(1)
        );
        assert_eq!(
            doc.get("serve")
                .unwrap()
                .get("requests_deduped")
                .unwrap()
                .as_i64(),
            Some(1)
        );
        // Every cluster event serialises with its snake_case tag.
        for e in [
            TraceEvent::ClusterDispatch {
                unit: 0,
                backend: 0,
            },
            TraceEvent::ClusterDedup { unit: 0 },
            TraceEvent::ClusterHealthProbe {
                backend: 0,
                healthy: false,
            },
        ] {
            let line = e.to_json().to_compact();
            assert_eq!(
                mm_json::parse(&line)
                    .unwrap()
                    .get("event")
                    .unwrap()
                    .as_str(),
                Some(e.tag()),
                "{line}"
            );
        }
    }

    #[test]
    fn shared_sink_serialises_concurrent_records() {
        let shared = SharedSink::new(VecSink::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let mut sink = shared.clone();
                s.spawn(move || {
                    for id in 0..25 {
                        sink.record(&TraceEvent::RequestCompleted { id, status: "ok" });
                    }
                });
            }
        });
        assert_eq!(shared.with(|s| s.events.len()), 100);
        assert_eq!(shared.into_inner().events.len(), 100);
    }

    #[test]
    fn metrics_json_shape() {
        let mut sink = MetricsSink::new();
        sink.record(&TraceEvent::MachineOpened {
            machine: 0,
            time: t(0),
        });
        sink.record(&TraceEvent::FeasibilityProbe {
            machines: 2,
            jobs: 3,
            feasible: false,
        });
        let doc = sink.metrics.to_json();
        assert_eq!(
            doc.get("schedule")
                .unwrap()
                .get("machines_opened")
                .unwrap()
                .as_i64(),
            Some(1)
        );
        assert_eq!(
            doc.get("solver")
                .unwrap()
                .get("infeasible")
                .unwrap()
                .as_i64(),
            Some(1)
        );
        // The document reparses.
        assert!(mm_json::parse(&doc.to_pretty()).is_ok());
    }
}

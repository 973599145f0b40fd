//! The supervised worker pool: admission control, retries, quarantine,
//! crash recovery, and graceful drain.
//!
//! # Lifecycle of a request
//!
//! 1. **Admission** ([`Service::submit_line`]): the line is parsed; invalid
//!    lines get an immediate `error` response. If the server is draining or
//!    the queue is at capacity the request is **shed** with `overloaded` +
//!    `retry_after_ms`. Otherwise the raw line is written to the write-ahead
//!    journal under the admission lock, and the request enters the bounded
//!    queue only once that record is durable (the fsync is awaited outside
//!    the lock, so concurrent admissions share it) — the crash-safety
//!    ordering.
//! 2. **Execution**: a worker picks the item up and runs it under
//!    `catch_unwind`. Injected faults ([`FaultSite::WorkerPanic`],
//!    [`FaultSite::MachineSlowdown`]) fire here, deterministically.
//! 3. **Completion**: the supervisor journals the exact response line and
//!    waits for it to be durable, then releases it to the client. Exactly
//!    one terminal response per admitted request — the property tests pin
//!    this.
//! 4. **Panic**: the worker thread dies; the supervisor catches the
//!    corpse via the control channel, spawns a replacement, and either
//!    re-queues the request (decorrelated-jitter backoff, capped attempts)
//!    or quarantines it with a `quarantined` response.
//! 5. **Drain** ([`Service::shutdown`]): no new admissions; in-flight work
//!    finishes. Past the drain deadline, still-queued solve/probe requests
//!    are *degraded* to certified `[lo, hi]` brackets instead of being
//!    dropped.

use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, Sender};
use mm_adversary::SweepCheckpoint;
use mm_fault::{FaultInjector, FaultPlan, FaultSite, RetryPolicy};
use mm_json::Json;
use mm_obs::prometheus_text;
use mm_trace::{TraceEvent, TraceSink};

use crate::exec;
use crate::journal::{Journal, PendingRequest, Record, Replay};
use crate::obs::{LifetimeBase, ServeObs};
use crate::protocol::{Request, RequestKind, Response};

/// Trace sink handle shared by every thread of the service.
pub type DynSink = mm_trace::SharedSink<Box<dyn TraceSink + Send>>;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing requests.
    pub workers: usize,
    /// Admission bound: queued + running + awaiting-retry requests.
    pub queue_cap: usize,
    /// Drain deadline: queued work older than this after [`Service::shutdown`]
    /// is degraded rather than completed.
    pub drain_ms: u64,
    /// Retry/backoff policy for panicked requests.
    pub retry: RetryPolicy,
    /// Seed for retry jitter (and recorded in transcripts).
    pub seed: u64,
    /// Deterministic fault plan (worker panics, slowdowns).
    pub plan: FaultPlan,
    /// Deadline applied to requests that carry none of their own.
    pub default_deadline_ms: Option<u64>,
    /// Write-ahead journal path (`None`: journal disabled).
    pub journal: Option<PathBuf>,
    /// Sleep injected when [`FaultSite::MachineSlowdown`] fires in a worker.
    pub slowdown_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_cap: 16,
            drain_ms: 2_000,
            retry: RetryPolicy::default(),
            seed: 0,
            plan: FaultPlan::none(),
            default_deadline_ms: None,
            journal: None,
            slowdown_ms: 5,
        }
    }
}

/// Counters the service maintains; cheap to clone out at any time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Lines submitted (including shutdowns and parse failures).
    pub received: u64,
    /// Requests admitted to the queue (including crash-recovered ones).
    pub admitted: u64,
    /// Requests shed with `overloaded`.
    pub shed: u64,
    /// Lines rejected before admission (parse/validation errors).
    pub rejected: u64,
    /// Terminal responses released for admitted requests.
    pub responses: u64,
    /// Requests re-queued after a worker panic.
    pub retried: u64,
    /// Requests quarantined after exhausting retry attempts.
    pub quarantined: u64,
    /// Worker panics caught by the supervisor.
    pub panics: u64,
    /// Replacement workers spawned.
    pub restarts: u64,
    /// Requests degraded at the drain deadline.
    pub drain_degraded: u64,
    /// Acked responses replayed from the journal at startup.
    pub replayed_acks: u64,
    /// Requests answered from the idempotency cache (hedged duplicates).
    pub deduped: u64,
    /// `stats` requests answered inline by the supervisor.
    pub stats_served: u64,
    /// Membership control requests (`join`/`drain`/`leave`) answered inline.
    pub control_served: u64,
    /// Answered requests that carried a `migration` marker — work the
    /// cluster coordinator moved here off a draining or overloaded backend.
    /// The response bytes are identical to an unmarked send (transcript
    /// determinism), so this counter is how migration stays observable.
    pub migrated_served: u64,
    /// Ok solve/probe answers released with a `proof` field attached
    /// (requested via `want_proof`).
    pub proofs_attached: u64,
    /// Answers perturbed by the `answer_corruption` fault site before they
    /// were journaled, cached, and released. A corrupted answer replays
    /// byte-identically, so this counter is the only honest record that the
    /// released bytes are lies.
    pub corrupted: u64,
    /// `verdict` notices (refuted=false) received from a coordinator that
    /// proof-checked one of this server's answers.
    pub verified_noted: u64,
    /// `verdict` notices (refuted=true) received from a coordinator: answers
    /// this server gave that failed proof verification.
    pub refuted_noted: u64,
}

impl ServeStats {
    /// The soak invariant: every admitted request got exactly one terminal
    /// response, and every received line was admitted, shed, rejected, or
    /// answered from the idempotency cache.
    pub fn invariant_holds(&self) -> bool {
        self.admitted == self.responses
    }

    /// The counters as a JSON object (the `counters` field of a `stats`
    /// response). Field order is fixed, so the encoding is byte-stable.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("received", Json::Int(self.received as i64)),
            ("admitted", Json::Int(self.admitted as i64)),
            ("shed", Json::Int(self.shed as i64)),
            ("rejected", Json::Int(self.rejected as i64)),
            ("responses", Json::Int(self.responses as i64)),
            ("retried", Json::Int(self.retried as i64)),
            ("quarantined", Json::Int(self.quarantined as i64)),
            ("panics", Json::Int(self.panics as i64)),
            ("restarts", Json::Int(self.restarts as i64)),
            ("drain_degraded", Json::Int(self.drain_degraded as i64)),
            ("replayed_acks", Json::Int(self.replayed_acks as i64)),
            ("deduped", Json::Int(self.deduped as i64)),
            ("stats_served", Json::Int(self.stats_served as i64)),
            ("control_served", Json::Int(self.control_served as i64)),
            ("migrated_served", Json::Int(self.migrated_served as i64)),
            ("proofs_attached", Json::Int(self.proofs_attached as i64)),
            ("corrupted", Json::Int(self.corrupted as i64)),
            ("verified_noted", Json::Int(self.verified_noted as i64)),
            ("refuted_noted", Json::Int(self.refuted_noted as i64)),
        ])
    }
}

/// Bound on remembered idempotency keys (FIFO eviction past this).
const IDEM_CACHE_CAP: usize = 4096;

/// Bound on the total bytes of the cached response lines (FIFO eviction
/// past this). Proof-carrying pool replies run to ~15 KB, so 4 MiB holds a
/// few hundred of them: seconds of one backend's output, far longer than a
/// hedge or a migration takes to arrive.
const IDEM_CACHE_BYTES: usize = 4 << 20;

/// Bounded idempotency cache: completed response lines keyed by the
/// request's idempotency key. A duplicate key is answered with the exact
/// bytes of the first completion, so a hedged duplicate costs a map lookup
/// instead of a second execution — and the coordinator's dedup-by-bytes
/// works no matter which copy wins.
#[derive(Default)]
struct IdemCache {
    map: std::collections::HashMap<u64, String>,
    order: std::collections::VecDeque<u64>,
    /// Total length of the lines in `map`.
    bytes: usize,
}

impl IdemCache {
    fn get(&self, key: u64) -> Option<&String> {
        self.map.get(&key)
    }

    fn insert(&mut self, key: u64, line: String) {
        self.bytes += line.len();
        match self.map.insert(key, line) {
            // Two copies of one key can both execute when the second
            // arrives before the first finishes; the key stays counted once.
            Some(old) => self.bytes -= old.len(),
            None => self.order.push_back(key),
        }
        while self.order.len() > IDEM_CACHE_CAP || self.bytes > IDEM_CACHE_BYTES {
            let Some(old) = self.order.pop_front() else {
                break;
            };
            if let Some(line) = self.map.remove(&old) {
                self.bytes -= line.len();
            }
        }
    }
}

struct Admission {
    depth: usize,
    draining: bool,
    stopped: bool,
}

struct Shared {
    cfg: ServeConfig,
    admission: Mutex<Admission>,
    stopped_cv: Condvar,
    journal: Option<Journal>,
    injector: Mutex<FaultInjector>,
    idem: Mutex<IdemCache>,
    sink: DynSink,
    stats: Mutex<ServeStats>,
    obs: ServeObs,
}

impl Shared {
    fn emit(&self, event: TraceEvent) {
        let mut sink = self.sink.clone();
        if sink.enabled() {
            sink.record(&event);
        }
    }

    /// Writes one record without waiting for the disk and returns its
    /// sequence number for [`Shared::journal_sync`] (0 without a journal).
    fn journal_write(&self, record: &Record) -> std::io::Result<u64> {
        match &self.journal {
            Some(j) => {
                let (seq, bytes) = j.write(record)?;
                self.obs.on_journal_write(bytes as u64);
                Ok(seq)
            }
            None => Ok(0),
        }
    }

    /// Waits until record `seq` is durable.
    fn journal_sync(&self, seq: u64) -> std::io::Result<()> {
        match &self.journal {
            Some(j) => j.sync_to(seq),
            None => Ok(()),
        }
    }

    fn journal_append(&self, record: &Record) -> std::io::Result<()> {
        let seq = self.journal_write(record)?;
        self.journal_sync(seq)
    }

    /// Builds the reply to a `stats` request. `counters_only` strips every
    /// wall-clock-derived field so the reply is a pure function of the
    /// request history — the form the determinism tests scrape. That form
    /// also zeroes `stats_served`: scrape cadence is an observer choice, not
    /// part of the workload, and must not perturb byte-compared replies.
    fn stats_response(&self, id: u64, prometheus: bool, counters_only: bool) -> Response {
        let mut stats = *self.stats.lock().unwrap();
        if counters_only {
            stats.stats_served = 0;
            // Verdict notices are an observer artifact like scrape cadence:
            // how often a coordinator checks proofs is not part of the
            // workload, so the byte-compared form drops them too.
            stats.verified_noted = 0;
            stats.refuted_noted = 0;
        }
        let depth = self.admission.lock().unwrap().depth;
        let base = self.obs.base();
        let uptime_ms = self.obs.uptime_ms();
        let mut snap = self.obs.snapshot();
        let serve_counters = [
            ("serve.received", stats.received),
            ("serve.admitted", stats.admitted),
            ("serve.shed", stats.shed),
            ("serve.rejected", stats.rejected),
            ("serve.responses", stats.responses),
            ("serve.retried", stats.retried),
            ("serve.quarantined", stats.quarantined),
            ("serve.panics", stats.panics),
            ("serve.restarts", stats.restarts),
            ("serve.drain_degraded", stats.drain_degraded),
            ("serve.replayed_acks", stats.replayed_acks),
            ("serve.deduped", stats.deduped),
            ("serve.stats_served", stats.stats_served),
            ("serve.control_served", stats.control_served),
            ("serve.migrated_served", stats.migrated_served),
            ("serve.proofs_attached", stats.proofs_attached),
            ("serve.corrupted", stats.corrupted),
            ("serve.verified", stats.verified_noted),
            ("serve.refuted", stats.refuted_noted),
        ];
        for (name, value) in serve_counters {
            snap.counters.insert(name.to_string(), value);
        }
        if counters_only {
            snap.gauges.clear();
            snap.histograms.clear();
        } else {
            snap.gauges.insert("queue_depth".to_string(), depth as i64);
            snap.gauges.insert("in_flight".to_string(), depth as i64);
            snap.gauges
                .insert("uptime_ms".to_string(), uptime_ms as i64);
            snap.counters
                .insert("serve.journal_bytes".to_string(), self.obs.journal_bytes());
        }
        if prometheus {
            return Response::Ok {
                id,
                fields: vec![("prometheus".into(), Json::str(prometheus_text(&snap)))],
            };
        }
        let mut fields: Vec<(String, Json)> = Vec::new();
        if !counters_only {
            fields.push(("uptime_ms".into(), Json::Int(uptime_ms as i64)));
            fields.push((
                "lifetime_uptime_ms".into(),
                Json::Int((base.uptime_ms + uptime_ms) as i64),
            ));
        }
        fields.push(("lifecycles".into(), Json::Int((base.lifecycles + 1) as i64)));
        fields.push((
            "lifetime_responses".into(),
            Json::Int((base.responses + stats.responses) as i64),
        ));
        fields.push((
            "lifetime_restarts".into(),
            Json::Int((base.restarts + stats.restarts) as i64),
        ));
        if !counters_only {
            fields.push(("queue_depth".into(), Json::Int(depth as i64)));
            fields.push(("in_flight".into(), Json::Int(depth as i64)));
            fields.push(("workers".into(), Json::Int(self.cfg.workers as i64)));
            fields.push(("workers_recycled".into(), Json::Int(stats.restarts as i64)));
            fields.push((
                "journal_bytes".into(),
                Json::Int(self.obs.journal_bytes() as i64),
            ));
        }
        fields.push(("counters".into(), stats.to_json()));
        fields.push(("registry".into(), snap.to_json()));
        if !counters_only {
            fields.push(("window".into(), self.obs.window_json()));
            fields.push(("slowest".into(), self.obs.slowest_json()));
        }
        Response::Ok { id, fields }
    }
}

struct WorkItem {
    req: Request,
    attempts: u32,
    checkpoint: Option<SweepCheckpoint>,
    reply: Sender<String>,
    /// When the request entered the queue (original admission — retries keep
    /// it, so span latency covers the whole supervised lifetime).
    admitted_at: Instant,
    /// Phase timings collected by the worker, microseconds per phase name.
    phases: Vec<(&'static str, u64)>,
}

enum Work {
    // Boxed: a WorkItem carries a whole Request, dwarfing the Stop pill.
    Item(Box<WorkItem>),
    Stop,
}

enum Ctrl {
    Done {
        item: WorkItem,
        response: Response,
    },
    Sweep {
        id: u64,
        checkpoint: SweepCheckpoint,
    },
    Panicked {
        worker: usize,
        item: WorkItem,
        message: String,
    },
    Drain,
}

/// A retry waiting for its backoff to elapse. Ordered so the *earliest* due
/// time is the heap maximum (`BinaryHeap` is a max-heap).
struct PendingRetry {
    due: Instant,
    item: WorkItem,
}

impl PartialEq for PendingRetry {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due
    }
}
impl Eq for PendingRetry {}
impl PartialOrd for PendingRetry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingRetry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.due.cmp(&self.due)
    }
}

/// A running service instance.
pub struct Service {
    shared: Arc<Shared>,
    work_tx: Sender<Work>,
    ctrl_tx: Sender<Ctrl>,
    supervisor: Option<JoinHandle<()>>,
    recovery_rx: Receiver<String>,
    recovered_acks: Vec<(u64, String)>,
}

impl Service {
    /// Starts the service: replays the journal (if any), spawns the worker
    /// pool and the supervisor, and re-enqueues crash-recovered requests.
    pub fn start(cfg: ServeConfig, sink: DynSink) -> Result<Service, String> {
        install_worker_panic_silencer();
        let replay = match &cfg.journal {
            Some(path) => Replay::load(path)?,
            None => Replay::default(),
        };
        let journal = match &cfg.journal {
            Some(path) => {
                Some(Journal::open(path).map_err(|e| format!("cannot open journal: {e}"))?)
            }
            None => None,
        };
        let workers = cfg.workers.max(1);
        let queue_cap = cfg.queue_cap.max(1);
        let shared = Arc::new(Shared {
            admission: Mutex::new(Admission {
                depth: 0,
                draining: false,
                stopped: false,
            }),
            stopped_cv: Condvar::new(),
            journal,
            injector: Mutex::new(FaultInjector::new(cfg.plan.clone())),
            idem: Mutex::new({
                // Refill the idempotency cache from replayed acks: a
                // duplicate key arriving after the restart must re-serve
                // the journaled bytes (possibly a journaled *lie*), not
                // re-execute under a fault plan that no longer exists.
                let mut idem = IdemCache::default();
                for (key, line) in &replay.acked_keys {
                    idem.insert(*key, line.clone());
                }
                idem
            }),
            sink,
            stats: Mutex::new(ServeStats {
                replayed_acks: replay.acked.len() as u64,
                ..ServeStats::default()
            }),
            obs: ServeObs::new(
                replay
                    .stats
                    .as_ref()
                    .map(LifetimeBase::from_snapshot)
                    .unwrap_or_default(),
            ),
            cfg: ServeConfig {
                workers,
                queue_cap,
                ..cfg
            },
        });
        // Queue capacity `queue_cap` bounds *admitted* items; every sender
        // below only ever sends items holding an admission slot (plus one
        // Stop pill per worker at the very end), so sends never deadlock.
        let (work_tx, work_rx) = channel::bounded::<Work>(queue_cap + workers);
        let (ctrl_tx, ctrl_rx) = channel::unbounded::<Ctrl>();
        let handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|idx| spawn_worker(idx, Arc::clone(&shared), work_rx.clone(), ctrl_tx.clone()))
            .collect();
        let supervisor = {
            let shared = Arc::clone(&shared);
            let work_tx = work_tx.clone();
            let work_rx = work_rx.clone();
            let ctrl_tx = ctrl_tx.clone();
            std::thread::Builder::new()
                .name("mm-serve-supervisor".into())
                .spawn(move || supervise(shared, ctrl_rx, ctrl_tx, work_tx, work_rx, handles))
                .map_err(|e| format!("cannot spawn supervisor: {e}"))?
        };
        let (recovery_tx, recovery_rx) = channel::unbounded::<String>();
        let service = Service {
            shared,
            work_tx,
            ctrl_tx,
            supervisor: Some(supervisor),
            recovery_rx,
            recovered_acks: replay.acked.clone(),
        };
        // Crash recovery: requests that were admitted but never acked are
        // re-enqueued (journal already has their admission record). Their
        // responses flow to `recovery_responses`.
        for pending in replay.pending {
            service.requeue_recovered(pending, &recovery_tx)?;
        }
        Ok(service)
    }

    /// Responses journaled as acked before the last crash, in ack order.
    /// Replayed byte-identically without re-running anything.
    pub fn recovered_acks(&self) -> &[(u64, String)] {
        &self.recovered_acks
    }

    /// Receiver for responses of crash-recovered (re-run) requests.
    pub fn recovery_responses(&self) -> &Receiver<String> {
        &self.recovery_rx
    }

    /// Current counters.
    pub fn stats(&self) -> ServeStats {
        *self.shared.stats.lock().unwrap()
    }

    /// Whether the service is draining (shutdown requested).
    pub fn is_draining(&self) -> bool {
        self.shared.admission.lock().unwrap().draining
    }

    /// Whether the drain has completed (supervisor exited its loop).
    pub fn is_stopped(&self) -> bool {
        self.shared.admission.lock().unwrap().stopped
    }

    fn requeue_recovered(
        &self,
        pending: PendingRequest,
        recovery_tx: &Sender<String>,
    ) -> Result<(), String> {
        let req = Request::parse(&pending.line)
            .map_err(|e| format!("journaled request {} no longer parses: {e}", pending.id))?;
        let mut admission = self.shared.admission.lock().unwrap();
        admission.depth += 1;
        let depth = admission.depth;
        drop(admission);
        {
            let mut stats = self.shared.stats.lock().unwrap();
            stats.received += 1;
            stats.admitted += 1;
        }
        self.shared.emit(TraceEvent::RequestAdmitted {
            id: req.id,
            kind: kind_tag(&req.kind),
            depth,
        });
        self.shared.obs.on_admitted(kind_tag(&req.kind), depth);
        let item = WorkItem {
            req,
            attempts: 0,
            checkpoint: pending.checkpoint,
            reply: recovery_tx.clone(),
            admitted_at: Instant::now(),
            phases: Vec::new(),
        };
        self.work_tx
            .send(Work::Item(Box::new(item)))
            .map_err(|_| "service stopped during recovery".to_string())
    }

    /// Answers a line the front end could not hand to [`Service::submit_line`]
    /// (longer than [`crate::protocol::MAX_LINE_BYTES`], or not UTF-8): one
    /// `error` response with id 0, counted as received and rejected like any
    /// line that fails to parse.
    pub(crate) fn reject_line(&self, reply: &Sender<String>, message: String) {
        {
            let mut stats = self.shared.stats.lock().unwrap();
            stats.received += 1;
            stats.rejected += 1;
        }
        let _ = reply.send(Response::Error { id: 0, message }.to_line());
    }

    /// Submits one raw request line. Every line gets exactly one response on
    /// `reply` (admitted work answers later, from a worker; sheds and parse
    /// errors answer immediately).
    pub fn submit_line(&self, line: &str, reply: &Sender<String>) {
        self.shared.stats.lock().unwrap().received += 1;
        let req = match Request::parse(line) {
            Ok(req) => req,
            Err(message) => {
                self.shared.stats.lock().unwrap().rejected += 1;
                let id = mm_json::parse(line)
                    .ok()
                    .and_then(|j| j.get("id").and_then(mm_json::Json::as_i64))
                    .filter(|&n| n >= 0)
                    .unwrap_or(0) as u64;
                let _ = reply.send(Response::Error { id, message }.to_line());
                return;
            }
        };
        // Stats is answered inline by the supervisor thread: no queue slot,
        // no journal record, readable even when the queue is full or the
        // server is draining.
        if let RequestKind::Stats {
            prometheus,
            counters_only,
        } = req.kind
        {
            self.shared.stats.lock().unwrap().stats_served += 1;
            let response = self
                .shared
                .stats_response(req.id, prometheus, counters_only);
            let _ = reply.send(response.to_line());
            return;
        }
        if matches!(req.kind, RequestKind::Shutdown) {
            self.begin_drain();
            let _ = reply.send(
                Response::Ok {
                    id: req.id,
                    fields: vec![("draining".into(), mm_json::Json::Bool(true))],
                }
                .to_line(),
            );
            return;
        }
        // Membership control verbs are answered inline, like stats: a join
        // handshake must be readable even under a full queue, and a drain
        // must not itself occupy a queue slot.
        match req.kind {
            RequestKind::Join => {
                let draining = self.shared.admission.lock().unwrap().draining;
                self.shared.stats.lock().unwrap().control_served += 1;
                let _ = reply.send(
                    Response::Ok {
                        id: req.id,
                        fields: vec![(
                            "ready".into(),
                            mm_json::Json::Int(if draining { 0 } else { 1 }),
                        )],
                    }
                    .to_line(),
                );
                return;
            }
            // Verdict notices are answered inline too: the coordinator's
            // proof-check outcome must be recordable even when the liar's
            // queue is full (the exact moment it is being quarantined).
            RequestKind::Verdict { refuted } => {
                let mut stats = self.shared.stats.lock().unwrap();
                if refuted {
                    stats.refuted_noted += 1;
                } else {
                    stats.verified_noted += 1;
                }
                drop(stats);
                let _ = reply.send(
                    Response::Ok {
                        id: req.id,
                        fields: vec![("noted".into(), mm_json::Json::Bool(true))],
                    }
                    .to_line(),
                );
                return;
            }
            RequestKind::Drain | RequestKind::Leave => {
                self.shared.stats.lock().unwrap().control_served += 1;
                self.begin_drain();
                let field = if matches!(req.kind, RequestKind::Drain) {
                    "draining"
                } else {
                    "leaving"
                };
                let _ = reply.send(
                    Response::Ok {
                        id: req.id,
                        fields: vec![(field.into(), mm_json::Json::Bool(true))],
                    }
                    .to_line(),
                );
                return;
            }
            _ => {}
        }
        let mut req = req;
        if req.deadline_ms.is_none() {
            req.deadline_ms = self.shared.cfg.default_deadline_ms;
        }
        // Hedged duplicates: a known idempotency key is answered with the
        // cached bytes of the first completion, skipping the queue entirely.
        if let Some(key) = req.idempotency_key {
            let cached = self.shared.idem.lock().unwrap().get(key).cloned();
            if let Some(line) = cached {
                let mut stats = self.shared.stats.lock().unwrap();
                stats.deduped += 1;
                if req.migration.is_some() {
                    stats.migrated_served += 1;
                }
                drop(stats);
                self.shared
                    .emit(TraceEvent::RequestDeduped { id: req.id, key });
                let _ = reply.send(line);
                return;
            }
        }
        // The admission decision and the WAL write happen under one lock, so
        // the journal holds admissions in the order they were decided. The
        // fsync is awaited after the lock is released (concurrent admissions
        // share it) and the request is enqueued only once it is durable, so
        // queue order matches journal order per connection.
        let admission = self.shared.admission.lock().unwrap();
        if admission.draining || admission.depth >= self.shared.cfg.queue_cap {
            let depth = admission.depth;
            drop(admission);
            self.shared.stats.lock().unwrap().shed += 1;
            self.shared
                .emit(TraceEvent::RequestShed { id: req.id, depth });
            let _ = reply.send(
                Response::Overloaded {
                    id: req.id,
                    retry_after_ms: self.shared.cfg.retry.base_ms.max(1),
                }
                .to_line(),
            );
            return;
        }
        let mut admission = admission;
        admission.depth += 1;
        let depth = admission.depth;
        let written = self.shared.journal_write(&Record::Admitted {
            id: req.id,
            line: line.to_string(),
        });
        drop(admission);
        if let Err(e) = written.and_then(|seq| self.shared.journal_sync(seq)) {
            // A journal that cannot take the admission record voids the
            // crash-safety contract; refuse the request rather than lie.
            self.shared.admission.lock().unwrap().depth -= 1;
            self.shared.stats.lock().unwrap().rejected += 1;
            let _ = reply.send(
                Response::Error {
                    id: req.id,
                    message: format!("journal write failed: {e}"),
                }
                .to_line(),
            );
            return;
        }
        {
            let mut stats = self.shared.stats.lock().unwrap();
            stats.admitted += 1;
            if req.migration.is_some() {
                stats.migrated_served += 1;
            }
        }
        self.shared.emit(TraceEvent::RequestAdmitted {
            id: req.id,
            kind: kind_tag(&req.kind),
            depth,
        });
        self.shared.obs.on_admitted(kind_tag(&req.kind), depth);
        let item = WorkItem {
            req,
            attempts: 0,
            checkpoint: None,
            reply: reply.clone(),
            admitted_at: Instant::now(),
            phases: Vec::new(),
        };
        let _ = self.work_tx.send(Work::Item(Box::new(item)));
    }

    /// Begins a graceful drain: no new admissions; queued work completes or
    /// degrades at the drain deadline.
    pub fn shutdown(&self) {
        self.begin_drain();
    }

    fn begin_drain(&self) {
        let mut admission = self.shared.admission.lock().unwrap();
        if admission.draining {
            return;
        }
        admission.draining = true;
        drop(admission);
        let _ = self.ctrl_tx.send(Ctrl::Drain);
    }

    /// Drains (if not already draining) and blocks until every admitted
    /// request has its terminal response, then returns the final counters.
    pub fn join(mut self) -> ServeStats {
        self.begin_drain();
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
        self.stats()
    }

    /// Blocks until the drain completes, without consuming the service.
    pub fn wait_stopped(&self) {
        let mut admission = self.shared.admission.lock().unwrap();
        while !admission.stopped {
            admission = self.shared.stopped_cv.wait(admission).unwrap();
        }
    }
}

fn kind_tag(kind: &RequestKind) -> &'static str {
    match kind {
        RequestKind::Solve { .. } => "solve",
        RequestKind::Probe { .. } => "probe",
        RequestKind::Schedule { .. } => "schedule",
        RequestKind::Online { .. } => "online",
        RequestKind::Adversary { .. } => "adversary",
        RequestKind::Shutdown => "shutdown",
        RequestKind::Stats { .. } => "stats",
        RequestKind::Join => "join",
        RequestKind::Drain => "drain",
        RequestKind::Leave => "leave",
        RequestKind::Verdict { .. } => "verdict",
    }
}

/// A worker-local trace sink that keeps span-phase events and forwards
/// nothing else: the worker collects its request's phase timings without
/// touching the shared sink (ids are corrected at finish time — the prober
/// reports id 0 because it does not know the request id).
struct PhaseSink(Vec<(&'static str, u64)>);

impl TraceSink for PhaseSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: &TraceEvent) {
        if let TraceEvent::SpanPhase { phase, micros, .. } = event {
            self.0.push((phase, *micros));
        }
    }
}

/// Folds `extra` into `phases`, summing durations of repeated phase names
/// (a solve runs many flow probes; the histogram wants one entry per span).
fn fold_phases(phases: &mut Vec<(&'static str, u64)>, extra: Vec<(&'static str, u64)>) {
    for (phase, micros) in extra {
        match phases.iter_mut().find(|(p, _)| *p == phase) {
            Some((_, total)) => *total += micros,
            None => phases.push((phase, micros)),
        }
    }
}

/// Workers are named so the process-global panic hook can tell an injected
/// (supervised) worker panic from a real bug elsewhere and keep soak logs
/// clean without hiding anything that matters.
const WORKER_THREAD_PREFIX: &str = "mm-serve-worker";

fn install_worker_panic_silencer() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let supervised = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with(WORKER_THREAD_PREFIX));
            if !supervised {
                default(info);
            }
        }));
    });
}

fn spawn_worker(
    idx: usize,
    shared: Arc<Shared>,
    work_rx: Receiver<Work>,
    ctrl_tx: Sender<Ctrl>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("{WORKER_THREAD_PREFIX}-{idx}"))
        .spawn(move || worker_loop(idx, shared, work_rx, ctrl_tx))
        .expect("spawn worker thread")
}

fn worker_loop(idx: usize, shared: Arc<Shared>, work_rx: Receiver<Work>, ctrl_tx: Sender<Ctrl>) {
    while let Ok(work) = work_rx.recv() {
        let mut item = match work {
            Work::Item(item) => *item,
            Work::Stop => return,
        };
        // Time spent waiting in the queue (for retries: since the original
        // admission, so the span covers the whole supervised lifetime).
        let queued_us = item.admitted_at.elapsed().as_micros() as u64;
        let slow = shared
            .injector
            .lock()
            .unwrap()
            .fire(FaultSite::MachineSlowdown);
        if slow {
            std::thread::sleep(Duration::from_millis(shared.cfg.slowdown_ms));
        }
        let boom = shared.injector.lock().unwrap().fire(FaultSite::WorkerPanic);
        let checkpoint = item.checkpoint.clone();
        let req = item.req.clone();
        let result = catch_unwind(AssertUnwindSafe(|| {
            if boom {
                panic!("injected worker panic");
            }
            let mut progress = |id: u64, cp: &SweepCheckpoint| {
                let _ = ctrl_tx.send(Ctrl::Sweep {
                    id,
                    checkpoint: cp.clone(),
                });
            };
            let mut collector = PhaseSink(Vec::new());
            let exec_t0 = Instant::now();
            let response =
                exec::execute_traced(&req, checkpoint, false, &mut progress, &mut collector);
            let exec_us = exec_t0.elapsed().as_micros() as u64;
            (response, collector.0, exec_us)
        }));
        match result {
            Ok((response, collected, exec_us)) => {
                item.phases.clear();
                item.phases.push(("queued", queued_us));
                item.phases.push(("exec", exec_us));
                fold_phases(&mut item.phases, collected);
                let _ = ctrl_tx.send(Ctrl::Done { item, response });
            }
            Err(payload) => {
                let _ = ctrl_tx.send(Ctrl::Panicked {
                    worker: idx,
                    item,
                    message: panic_message(payload),
                });
                // The thread is considered poisoned; the supervisor spawns
                // a replacement.
                return;
            }
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

fn supervise(
    shared: Arc<Shared>,
    ctrl_rx: Receiver<Ctrl>,
    ctrl_tx: Sender<Ctrl>,
    work_tx: Sender<Work>,
    work_rx: Receiver<Work>,
    mut handles: Vec<JoinHandle<()>>,
) {
    let mut retries: BinaryHeap<PendingRetry> = BinaryHeap::new();
    let mut next_worker_idx = handles.len();
    let mut draining = false;
    let mut drain_deadline: Option<Instant> = None;
    loop {
        // Release due retries back into the queue.
        let now = Instant::now();
        while retries.peek().is_some_and(|r| r.due <= now) {
            let retry = retries.pop().unwrap();
            shared.emit(TraceEvent::RequestRetried {
                id: retry.item.req.id,
                attempt: retry.item.attempts,
            });
            shared.stats.lock().unwrap().retried += 1;
            let _ = work_tx.send(Work::Item(Box::new(retry.item)));
        }
        // Past the drain deadline, degrade whatever is still queued or
        // awaiting retry: certified brackets beat silence.
        if draining && drain_deadline.is_some_and(|d| Instant::now() >= d) {
            while let Ok(Work::Item(item)) = work_rx.try_recv() {
                degrade(&shared, *item);
            }
            for retry in retries.drain() {
                degrade(&shared, retry.item);
            }
        }
        if draining && retries.is_empty() && shared.admission.lock().unwrap().depth == 0 {
            break;
        }
        let timeout = retries
            .peek()
            .map(|r| r.due.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(50))
            .min(Duration::from_millis(50));
        let msg = match ctrl_rx.recv_timeout(timeout) {
            Ok(msg) => msg,
            Err(channel::RecvTimeoutError::Timeout) => continue,
            Err(channel::RecvTimeoutError::Disconnected) => break,
        };
        match msg {
            Ctrl::Done { item, response } => {
                finish(&shared, &item, &response);
            }
            Ctrl::Sweep { id, checkpoint } => {
                let _ = shared.journal_append(&Record::Sweep { id, checkpoint });
            }
            Ctrl::Panicked {
                worker,
                item,
                message,
            } => {
                shared.stats.lock().unwrap().panics += 1;
                shared.emit(TraceEvent::WorkerPanicked {
                    worker,
                    request: item.req.id,
                });
                // Recycle the pool before deciding the request's fate so
                // capacity never decays under repeated injections.
                let idx = next_worker_idx;
                next_worker_idx += 1;
                handles.push(spawn_worker(
                    idx,
                    Arc::clone(&shared),
                    work_rx.clone(),
                    ctrl_tx.clone(),
                ));
                shared.stats.lock().unwrap().restarts += 1;
                shared.emit(TraceEvent::WorkerRestarted { worker: idx });
                let mut item = item;
                item.attempts += 1;
                let retry = &shared.cfg.retry;
                if retry.should_retry(item.attempts) {
                    let delay = retry.backoff(shared.cfg.seed, item.req.id, item.attempts);
                    retries.push(PendingRetry {
                        due: Instant::now() + delay,
                        item,
                    });
                } else {
                    let response = Response::Quarantined {
                        id: item.req.id,
                        attempts: item.attempts,
                    };
                    let _ = message; // the panic text stays in the trace/journal domain
                    shared.stats.lock().unwrap().quarantined += 1;
                    finish(&shared, &item, &response);
                }
            }
            Ctrl::Drain => {
                draining = true;
                let pending = shared.admission.lock().unwrap().depth;
                drain_deadline = Some(Instant::now() + Duration::from_millis(shared.cfg.drain_ms));
                shared.emit(TraceEvent::DrainStarted { pending });
            }
        }
    }
    // Stop pills: one per live worker, then join the pool.
    for _ in 0..shared.cfg.workers {
        let _ = work_tx.send(Work::Stop);
    }
    drop(work_tx);
    for handle in handles {
        let _ = handle.join();
    }
    // Graceful drain complete: journal the lifetime snapshot so a restarted
    // server reports honest cumulative counters instead of starting at zero.
    {
        let stats = *shared.stats.lock().unwrap();
        let base = shared.obs.base();
        let snapshot = Json::obj([
            (
                "lifetime_uptime_ms",
                Json::Int((base.uptime_ms + shared.obs.uptime_ms()) as i64),
            ),
            ("lifecycles", Json::Int((base.lifecycles + 1) as i64)),
            (
                "lifetime_responses",
                Json::Int((base.responses + stats.responses) as i64),
            ),
            (
                "lifetime_restarts",
                Json::Int((base.restarts + stats.restarts) as i64),
            ),
        ]);
        let _ = shared.journal_append(&Record::Stats { snapshot });
    }
    let mut admission = shared.admission.lock().unwrap();
    admission.stopped = true;
    drop(admission);
    shared.stopped_cv.notify_all();
}

/// Journals, accounts, and releases one terminal response — including its
/// observability span: the `reply` phase (durable journal ack + accounting)
/// is timed here, then the whole span lands in the registry, the windowed
/// rings, the slow-span exemplars, and (when a sink is attached) the trace
/// stream, and only then does the line go to the client.
fn finish(shared: &Shared, item: &WorkItem, response: &Response) {
    let reply_t0 = Instant::now();
    // Byzantine injection happens here, BEFORE the line is journaled and
    // cached: a corrupted answer must replay byte-identically after a
    // restart and re-serve the same lie from the idempotency cache, exactly
    // like an honest one. Only eligible answers (Ok solve/probe verdicts)
    // charge the fault plan, so a `once` plan lies exactly once.
    let lie = if corruptible(response)
        && shared
            .injector
            .lock()
            .unwrap()
            .fire(FaultSite::AnswerCorruption)
    {
        Some(corrupt_answer(response))
    } else {
        None
    };
    let response = lie.as_ref().unwrap_or(response);
    let line = response.to_line();
    let _ = shared.journal_append(&Record::Acked {
        id: item.req.id,
        line: line.clone(),
    });
    if let Some(key) = item.req.idempotency_key {
        shared.idem.lock().unwrap().insert(key, line.clone());
    }
    shared.admission.lock().unwrap().depth -= 1;
    {
        let mut stats = shared.stats.lock().unwrap();
        stats.responses += 1;
        if lie.is_some() {
            stats.corrupted += 1;
        }
        if let Response::Ok { fields, .. } = response {
            if fields.iter().any(|(k, _)| k == "proof") {
                stats.proofs_attached += 1;
            }
        }
    }
    let total_us = item.admitted_at.elapsed().as_micros() as u64;
    let mut phases = item.phases.clone();
    fold_phases(
        &mut phases,
        vec![("reply", reply_t0.elapsed().as_micros() as u64)],
    );
    shared.obs.on_finished(
        kind_tag(&item.req.kind),
        terminal_status(response),
        item.req.id,
        total_us,
        &phases,
    );
    // Per-member online counters: the executor echoes the member it actually
    // ran (resolving `auto`), so count from the response, not the request.
    if matches!(item.req.kind, RequestKind::Online { .. }) {
        if let Response::Ok { fields, .. } = response {
            if let Some(member) = fields
                .iter()
                .find(|(k, _)| k == "member")
                .and_then(|(_, v)| v.as_str())
            {
                shared
                    .obs
                    .registry
                    .add(crate::obs::member_counter(member), 1);
            }
        }
    }
    let mut sink = shared.sink.clone();
    if sink.enabled() {
        for event in ServeObs::span_events(item.req.id, total_us, &phases) {
            sink.record(&event);
        }
    }
    shared.emit(TraceEvent::RequestCompleted {
        id: item.req.id,
        status: terminal_status(response),
    });
    // Released last: a client that has its answer sees it counted, and its
    // next request finds the slot free.
    let _ = item.reply.send(line);
}

/// Whether an answer is eligible for [`FaultSite::AnswerCorruption`]: only
/// successful solve (`machines`) and probe (`feasible`) verdicts — the
/// answers a coordinator can proof-check. Degraded brackets, errors, and
/// control replies never charge the plan.
fn corruptible(response: &Response) -> bool {
    match response {
        Response::Ok { fields, .. } => fields
            .iter()
            .any(|(k, _)| k == "machines" || k == "feasible"),
        _ => false,
    }
}

/// Builds the Byzantine lie: a plausible off-by-one perturbation, not
/// garbage. A solve verdict is bumped by one machine — with the attached
/// proof's machine fields bumped to match, so only re-checking the witness
/// arithmetic exposes it. A probe verdict is flipped, leaving the proof
/// untouched (the kind mismatch is the coordinator's to find).
fn corrupt_answer(response: &Response) -> Response {
    let Response::Ok { id, fields } = response else {
        unreachable!("corrupt_answer called on ineligible response");
    };
    let mut fields = fields.clone();
    for (key, value) in &mut fields {
        match (key.as_str(), &mut *value) {
            ("machines", Json::Int(m)) => *m += 1,
            ("feasible", Json::Bool(b)) => *b = !*b,
            ("proof", proof) => bump_proof_machines(proof),
            _ => {}
        }
    }
    Response::Ok { id: *id, fields }
}

/// Bumps the `machines` claims inside an encoded proof (top level and the
/// nested infeasibility cert) so a solve lie stays internally consistent.
/// The cert's interval witness and volume are left alone — they are what
/// refute the bumped claim.
fn bump_proof_machines(proof: &mut Json) {
    let Json::Obj(members) = proof else { return };
    for (key, value) in members.iter_mut() {
        match (key.as_str(), &mut *value) {
            ("machines", Json::Int(m)) => *m += 1,
            ("cert", Json::Obj(cert_members)) => {
                for (ck, cv) in cert_members.iter_mut() {
                    if ck == "machines" {
                        if let Json::Int(m) = cv {
                            *m += 1;
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

fn terminal_status(response: &Response) -> &'static str {
    match response {
        Response::Ok { .. } => "ok",
        Response::Degraded { .. } => "degraded",
        Response::Overloaded { .. } => "overloaded",
        Response::Error { .. } => "error",
        Response::Quarantined { .. } => "quarantined",
    }
}

/// Drain-deadline degradation: answer with whatever can be certified under
/// a starved budget (brackets for solve/probe, an explicit `degraded` for
/// the rest).
fn degrade(shared: &Shared, item: WorkItem) {
    let response = exec::execute(
        &item.req,
        item.checkpoint.clone(),
        true,
        &mut exec::NoProgress,
    );
    shared.stats.lock().unwrap().drain_degraded += 1;
    finish(shared, &item, &response);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_trace::NoopSink;

    fn sink() -> DynSink {
        DynSink::new(Box::new(NoopSink))
    }

    fn solve_line(id: u64) -> String {
        Request::new(
            id,
            RequestKind::Solve {
                jobs: vec![(0, 4, 2), (1, 5, 3)],
            },
        )
        .to_line()
    }

    #[test]
    fn requests_complete_and_stats_balance() {
        let service = Service::start(ServeConfig::default(), sink()).unwrap();
        let (tx, rx) = channel::unbounded();
        for id in 0..8 {
            service.submit_line(&solve_line(id), &tx);
        }
        let mut got = Vec::new();
        for _ in 0..8 {
            got.push(rx.recv_timeout(Duration::from_secs(30)).unwrap());
        }
        let stats = service.join();
        assert_eq!(stats.admitted, 8);
        assert_eq!(stats.responses, 8);
        assert!(stats.invariant_holds(), "{stats:?}");
        got.sort();
        got.dedup();
        assert_eq!(got.len(), 8, "distinct response per request");
    }

    #[test]
    fn idem_cache_keeps_the_newest_lines_within_its_byte_budget() {
        const MIB: usize = 1 << 20;
        let mut cache = IdemCache::default();
        for key in 0..10u64 {
            cache.insert(key, "x".repeat(MIB));
            assert!(cache.bytes <= IDEM_CACHE_BYTES, "{} bytes", cache.bytes);
            assert_eq!(cache.bytes, cache.map.values().map(String::len).sum());
        }
        let kept = (IDEM_CACHE_BYTES / MIB) as u64;
        for key in 0..10u64 {
            assert_eq!(cache.get(key).is_some(), key >= 10 - kept, "key {key}");
        }
        assert_eq!(cache.order.len(), cache.map.len());
    }

    #[test]
    fn idem_cache_counts_a_reinserted_key_once() {
        let mut cache = IdemCache::default();
        cache.insert(7, "first".into());
        cache.insert(7, "second, longer".into());
        assert_eq!(cache.bytes, "second, longer".len());
        assert_eq!(cache.order.len(), 1);
        assert_eq!(cache.get(7).map(String::as_str), Some("second, longer"));
        // Past the entry cap the key leaves once, and its bytes with it.
        for key in 100..100 + IDEM_CACHE_CAP as u64 {
            cache.insert(key, "y".into());
        }
        assert!(cache.get(7).is_none());
        assert_eq!(cache.map.len(), IDEM_CACHE_CAP);
        assert_eq!(cache.bytes, IDEM_CACHE_CAP);
    }

    #[test]
    fn duplicate_idempotency_key_is_answered_from_cache() {
        let service = Service::start(ServeConfig::default(), sink()).unwrap();
        let (tx, rx) = channel::unbounded();
        let line = Request {
            idempotency_key: Some(77),
            ..Request::new(
                3,
                RequestKind::Solve {
                    jobs: vec![(0, 4, 2), (1, 5, 3)],
                },
            )
        }
        .to_line();
        service.submit_line(&line, &tx);
        let first = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        // The hedged duplicate: same id and key, a hedge marker.
        let dup = Request {
            idempotency_key: Some(77),
            hedge: Some(1),
            ..Request::parse(&line).unwrap()
        }
        .to_line();
        service.submit_line(&dup, &tx);
        let second = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(first, second, "cache must replay the exact bytes");
        let stats = service.join();
        assert_eq!(stats.admitted, 1, "duplicate must not re-execute");
        assert_eq!(stats.deduped, 1);
        assert!(stats.invariant_holds());
    }

    #[test]
    fn injected_worker_panic_retries_and_succeeds() {
        let cfg = ServeConfig {
            plan: FaultPlan::once(FaultSite::WorkerPanic, 1),
            retry: RetryPolicy::new(1, 5, 3),
            ..ServeConfig::default()
        };
        let service = Service::start(cfg, sink()).unwrap();
        let (tx, rx) = channel::unbounded();
        service.submit_line(&solve_line(1), &tx);
        let line = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert!(line.contains("\"status\":\"ok\""), "{line}");
        let stats = service.join();
        assert_eq!(stats.panics, 1);
        assert_eq!(stats.restarts, 1);
        assert_eq!(stats.retried, 1);
        assert!(stats.invariant_holds());
    }

    #[test]
    fn always_panicking_request_is_quarantined() {
        // Fire on every hit: the request can never complete.
        let plan = FaultPlan {
            seed: 0,
            rules: vec![mm_fault::FaultRule {
                site: FaultSite::WorkerPanic,
                nth: 1,
                every: Some(1),
            }],
        };
        let cfg = ServeConfig {
            plan,
            retry: RetryPolicy::new(1, 2, 2),
            workers: 1,
            ..ServeConfig::default()
        };
        let service = Service::start(cfg, sink()).unwrap();
        let (tx, rx) = channel::unbounded();
        service.submit_line(&solve_line(9), &tx);
        let line = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert!(line.contains("\"status\":\"quarantined\""), "{line}");
        let stats = service.join();
        assert_eq!(stats.quarantined, 1);
        assert!(stats.invariant_holds());
    }

    #[test]
    fn full_queue_sheds_with_retry_hint() {
        // One slow worker, capacity 2: a burst must shed the overflow.
        let plan = FaultPlan {
            seed: 0,
            rules: vec![mm_fault::FaultRule {
                site: FaultSite::MachineSlowdown,
                nth: 1,
                every: Some(1),
            }],
        };
        let cfg = ServeConfig {
            workers: 1,
            queue_cap: 2,
            slowdown_ms: 30,
            plan,
            ..ServeConfig::default()
        };
        let service = Service::start(cfg, sink()).unwrap();
        let (tx, rx) = channel::unbounded();
        for id in 0..6 {
            service.submit_line(&solve_line(id), &tx);
        }
        let mut lines = Vec::new();
        for _ in 0..6 {
            lines.push(rx.recv_timeout(Duration::from_secs(30)).unwrap());
        }
        let shed: Vec<_> = lines
            .iter()
            .filter(|l| l.contains("\"status\":\"overloaded\""))
            .collect();
        assert!(
            !shed.is_empty(),
            "burst of 6 into cap 2 must shed: {lines:?}"
        );
        assert!(shed.iter().all(|l| l.contains("retry_after_ms")));
        let stats = service.join();
        assert_eq!(stats.admitted + stats.shed, 6);
        assert!(stats.invariant_holds());
    }

    #[test]
    fn drain_deadline_degrades_queued_work_instead_of_dropping_it() {
        let plan = FaultPlan {
            seed: 0,
            rules: vec![mm_fault::FaultRule {
                site: FaultSite::MachineSlowdown,
                nth: 1,
                every: Some(1),
            }],
        };
        let cfg = ServeConfig {
            workers: 1,
            queue_cap: 8,
            slowdown_ms: 40,
            drain_ms: 1,
            plan,
            ..ServeConfig::default()
        };
        let service = Service::start(cfg, sink()).unwrap();
        let (tx, rx) = channel::unbounded();
        for id in 0..6 {
            service.submit_line(&solve_line(id), &tx);
        }
        service.shutdown();
        let mut lines = Vec::new();
        for _ in 0..6 {
            lines.push(rx.recv_timeout(Duration::from_secs(30)).unwrap());
        }
        let stats = service.join();
        assert_eq!(stats.responses, 6, "{lines:?}");
        assert!(stats.invariant_holds());
        // Everything answered: ok (ran before the deadline) or a certified
        // degraded bracket (caught by the drain) — never silence.
        for line in &lines {
            assert!(
                line.contains("\"status\":\"ok\"") || line.contains("\"status\":\"degraded\""),
                "{line}"
            );
        }
    }

    #[test]
    fn journal_replays_acked_responses_byte_identically() {
        let dir = std::env::temp_dir().join(format!(
            "machmin-serve-replay-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        std::fs::remove_file(&path).ok();
        let cfg = ServeConfig {
            journal: Some(path.clone()),
            ..ServeConfig::default()
        };
        let service = Service::start(cfg.clone(), sink()).unwrap();
        let (tx, rx) = channel::unbounded();
        for id in 0..4 {
            service.submit_line(&solve_line(id), &tx);
        }
        let mut sent: Vec<String> = (0..4)
            .map(|_| rx.recv_timeout(Duration::from_secs(30)).unwrap())
            .collect();
        service.join();
        // "Crash" (the process state is gone) and restart on the journal.
        let restarted = Service::start(cfg, sink()).unwrap();
        let mut replayed: Vec<String> = restarted
            .recovered_acks()
            .iter()
            .map(|(_, line)| line.clone())
            .collect();
        restarted.join();
        sent.sort();
        replayed.sort();
        assert_eq!(
            sent, replayed,
            "acked responses must replay byte-identically"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unacked_journal_entries_rerun_on_restart() {
        let dir = std::env::temp_dir().join(format!(
            "machmin-serve-rerun-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        std::fs::remove_file(&path).ok();
        // Hand-craft a journal: request 5 admitted, never acked.
        {
            let mut j = Journal::open(&path).unwrap();
            j.append(&Record::Admitted {
                id: 5,
                line: solve_line(5),
            })
            .unwrap();
        }
        let cfg = ServeConfig {
            journal: Some(path.clone()),
            ..ServeConfig::default()
        };
        let service = Service::start(cfg, sink()).unwrap();
        let line = service
            .recovery_responses()
            .recv_timeout(Duration::from_secs(30))
            .unwrap();
        assert!(line.contains("\"id\":5"), "{line}");
        assert!(line.contains("\"status\":\"ok\""), "{line}");
        let stats = service.join();
        assert_eq!(stats.admitted, 1);
        assert!(stats.invariant_holds());
        // The rerun's ack is now journaled: a second restart replays it
        // instead of running a third time.
        let again = Service::start(
            ServeConfig {
                journal: Some(path.clone()),
                ..ServeConfig::default()
            },
            sink(),
        )
        .unwrap();
        assert_eq!(again.recovered_acks().len(), 1);
        assert_eq!(again.recovered_acks()[0].1, line);
        again.join();
        std::fs::remove_dir_all(&dir).ok();
    }

    fn stats_line(id: u64, prometheus: bool) -> String {
        Request::new(
            id,
            RequestKind::Stats {
                prometheus,
                counters_only: false,
            },
        )
        .to_line()
    }

    #[test]
    fn stats_requests_are_answered_inline_with_latency_histograms() {
        let service = Service::start(ServeConfig::default(), sink()).unwrap();
        let (tx, rx) = channel::unbounded();
        for id in 0..4 {
            service.submit_line(&solve_line(id), &tx);
        }
        for _ in 0..4 {
            rx.recv_timeout(Duration::from_secs(30)).unwrap();
        }
        // Span accounting lands just after each reply is released, so poll
        // until the histogram has absorbed all four requests.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            service.submit_line(&stats_line(99, false), &tx);
            let reply = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            let json = mm_json::parse(&reply).unwrap();
            let count = json
                .get("registry")
                .and_then(|r| r.get("histograms"))
                .and_then(|h| h.get("latency_us.solve"))
                .and_then(|h| h.get("count"))
                .and_then(Json::as_i64)
                .unwrap_or(0);
            if count == 4 {
                assert_eq!(
                    json.get("counters")
                        .unwrap()
                        .get("responses")
                        .unwrap()
                        .as_i64(),
                    Some(4)
                );
                assert_eq!(json.get("lifecycles").unwrap().as_i64(), Some(1));
                assert!(json.get("window").is_some() && json.get("slowest").is_some());
                break;
            }
            assert!(
                Instant::now() < deadline,
                "histogram stuck below 4: {reply}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        // Prometheus exposition rides the same inline path.
        service.submit_line(&stats_line(100, true), &tx);
        let prom = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        let json = mm_json::parse(&prom).unwrap();
        let text = json
            .get("prometheus")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert!(text.contains("# TYPE latency_us_solve histogram"), "{text}");
        let stats = service.join();
        assert_eq!(stats.admitted, 4, "stats requests never take a queue slot");
        assert!(stats.stats_served >= 2);
        assert!(stats.invariant_holds());
    }

    #[test]
    fn lifetime_counters_survive_a_graceful_restart() {
        let dir = std::env::temp_dir().join(format!(
            "machmin-serve-lifetime-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        std::fs::remove_file(&path).ok();
        let cfg = ServeConfig {
            journal: Some(path.clone()),
            ..ServeConfig::default()
        };
        let service = Service::start(cfg.clone(), sink()).unwrap();
        let (tx, rx) = channel::unbounded();
        for id in 0..3 {
            service.submit_line(&solve_line(id), &tx);
        }
        for _ in 0..3 {
            rx.recv_timeout(Duration::from_secs(30)).unwrap();
        }
        service.join(); // drain writes the stats snapshot record
        let restarted = Service::start(cfg, sink()).unwrap();
        restarted.submit_line(&stats_line(50, false), &tx);
        let reply = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        let json = mm_json::parse(&reply).unwrap();
        assert_eq!(json.get("lifecycles").unwrap().as_i64(), Some(2));
        assert_eq!(json.get("lifetime_responses").unwrap().as_i64(), Some(3));
        assert!(
            json.get("lifetime_uptime_ms").unwrap().as_i64().unwrap()
                >= json.get("uptime_ms").unwrap().as_i64().unwrap()
        );
        restarted.join();
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! Exact migratory feasibility via maximum flow.
//!
//! Between two consecutive event points (release dates / deadlines) the set
//! of available jobs is constant, so a feasible preemptive migratory schedule
//! on `m` machines exists iff the classic bipartite flow network saturates
//! all job demand (Horn'74; referenced in the paper as the
//! polynomial-time-solvable offline problem [6]):
//!
//! * source → job `j` with capacity `p_j`;
//! * job `j` → elementary interval `E ⊆ I(j)` with capacity `|E|`
//!   (a job cannot run in parallel with itself);
//! * elementary interval `E` → sink with capacity `m·|E|`
//!   (machine capacity).
//!
//! Only the interval→sink capacities depend on `m`, so probing many machine
//! counts on one instance — the binary search in [`optimal_machines`], or an
//! online algorithm re-deciding after every release — does not need to
//! rebuild the network. [`FeasibilityProber`] constructs the elementary
//! intervals, the node layout, and the job→interval edges once, then answers
//! each probe by rescaling the sink capacities in place: monotonically
//! *ascending* probes keep the flow already routed (max-flow only grows with
//! `m`) and merely continue augmenting; descending probes reset the flow in
//! place, which still reuses every allocation.

use mm_fault::{Budget, BudgetExceeded, BudgetMeter};
use mm_flow::{ArenaNetwork, EdgeHandle, FlowNum};
use mm_instance::{Instance, Interval, IntervalSet, JobId};
use mm_numeric::{Rat, Timeline};
use mm_trace::{NoopSink, TraceEvent, TraceSink};

use crate::certifier::FastProber;

/// Outcome of a budgeted feasibility probe.
///
/// A cancelled probe is *not* evidence of infeasibility: the network holds a
/// valid partial flow when the budget trips, so the only sound conclusion is
/// [`Verdict::Unknown`]. The partial flow is kept, and a later probe at the
/// same or a larger machine count resumes augmenting from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The instance fits on the probed machine count.
    Feasible,
    /// The instance provably does not fit on the probed machine count.
    Infeasible,
    /// The budget tripped before the flow saturated or was proven maximal.
    Unknown(BudgetExceeded),
}

impl Verdict {
    /// The definite boolean answer, if the probe reached one.
    pub fn decided(&self) -> Option<bool> {
        match self {
            Verdict::Feasible => Some(true),
            Verdict::Infeasible => Some(false),
            Verdict::Unknown(_) => None,
        }
    }

    /// Wraps the unbudgeted boolean answer.
    pub fn from_bool(feasible: bool) -> Self {
        if feasible {
            Verdict::Feasible
        } else {
            Verdict::Infeasible
        }
    }
}

/// Per-interval processing allocation of a feasible flow: how much of each
/// job is processed inside each elementary interval.
#[derive(Debug, Clone)]
pub struct FlowAllocation {
    /// The elementary intervals, in increasing time order.
    pub intervals: Vec<Interval>,
    /// `amounts[k]` lists `(job, volume)` pairs with positive volume for
    /// `intervals[k]`.
    pub amounts: Vec<Vec<(JobId, Rat)>>,
}

/// Elementary intervals between consecutive event points.
pub fn elementary_intervals(instance: &Instance) -> Vec<Interval> {
    let pts = instance.event_points();
    pts.windows(2)
        .map(|w| Interval::new(w[0].clone(), w[1].clone()))
        .filter(|iv| !iv.is_empty())
        .collect()
}

/// Cumulative work counters of a [`FeasibilityProber`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProberStats {
    /// Probes answered (including trivial `m = 0` / empty-instance ones).
    pub probes: u64,
    /// Network probes that kept the previously routed flow and only
    /// augmented further (ascending machine counts).
    pub incremental: u64,
    /// Network probes that reset the flow in place first (the initial
    /// build and any descending machine count).
    pub resets: u64,
    /// Augmenting paths found across all probes.
    pub augmentations: u64,
}

/// Answers migratory-feasibility probes for one instance at many machine
/// counts, reusing the event-interval flow network across probes.
///
/// # Reuse contract
///
/// The network topology (elementary intervals, node layout, job→interval
/// edges) is built once in [`FeasibilityProber::new`]; only the
/// interval→sink capacities `m·|E|` change between probes.
///
/// * A probe at `m` ≥ the previous probe's machine count is *incremental*:
///   sink capacities are raised in place and the existing flow is extended
///   (max flow is monotone in `m`, so no routed flow ever has to be
///   withdrawn). Its cost is only the *additional* augmenting paths.
/// * A probe at a smaller `m` resets the flow in place (no reallocation)
///   and recomputes from zero, exactly like a fresh build.
///
/// Probe *answers* are always identical to the fresh-build
/// [`feasible_on`]; only intermediate flow routings may differ after
/// incremental probes. [`FeasibilityProber::allocation`] therefore forces a
/// reset first, making its flow bit-identical to [`feasible_allocation`].
#[derive(Debug, Clone)]
pub struct FeasibilityProber {
    intervals: Vec<Interval>,
    backend: Backend,
    source: usize,
    sink: usize,
    jobs: usize,
    /// Job→interval edges per interval, for allocation read-back.
    alloc_edges: Vec<Vec<(EdgeHandle, JobId)>>,
    stats: ProberStats,
}

/// One flow backend: the network, the demand it must saturate, the
/// per-interval sink edges, and the last probe's `(m, flow)` state.
#[derive(Debug, Clone)]
struct Core<N: FlowNum> {
    net: ArenaNetwork<N>,
    demand: N,
    /// Interval→sink edge and interval length, per elementary interval.
    sink_edges: Vec<(EdgeHandle, N)>,
    /// Machine count and flow value of the last network probe.
    state: Option<(u64, N)>,
}

impl<N: FlowNum> Core<N> {
    /// One network probe at `m` machines: raise-and-resume for ascending
    /// `m`, reset-in-place otherwise. `mul` computes the sink capacity
    /// `m·|E|` from an interval length. Returns whether the probe was
    /// incremental, and the feasibility answer (or the budget violation;
    /// the partial flow is recorded either way so a later probe resumes).
    fn run(
        &mut self,
        m: u64,
        mul: impl Fn(&N) -> N,
        source: usize,
        sink: usize,
        meter: &mut BudgetMeter,
    ) -> (bool, Result<bool, BudgetExceeded>) {
        let mut incremental = false;
        let flow = match self.state.take() {
            Some((prev_m, prev_flow)) if prev_m <= m => {
                // Ascending: keep the routed flow, raise sink capacities,
                // and only search for the additional augmenting paths.
                // A partial flow left by a cancelled probe at `prev_m` is
                // a valid flow, so resuming from it is sound.
                incremental = true;
                for (h, len) in &self.sink_edges {
                    self.net.raise_capacity(*h, mul(len));
                }
                self.net
                    .max_flow_budgeted(source, sink, meter)
                    .map(|extra| prev_flow.add(&extra))
            }
            _ => {
                // First probe or descending: clear the flow in place and
                // recompute — identical to a fresh build.
                self.net.reset();
                for (h, len) in &self.sink_edges {
                    self.net.set_capacity(*h, mul(len));
                }
                self.net.max_flow_budgeted(source, sink, meter)
            }
        };
        match flow {
            Ok(flow) => {
                let feasible = flow == self.demand;
                self.state = Some((m, flow));
                (incremental, Ok(feasible))
            }
            Err(e) => {
                // Cancelled mid-flow: conservation still holds, so the
                // routed amount is readable from the sink edges and the
                // probe is resumable at any `m' ≥ m`.
                let routed = self
                    .sink_edges
                    .iter()
                    .fold(N::zero(), |acc, (h, _)| acc.add(&self.net.flow(*h)));
                self.state = Some((m, routed));
                (incremental, Err(e))
            }
        }
    }
}

/// The prober's numeric backend. When every time coordinate and processing
/// volume of the instance fits an exact scaled-integer [`Timeline`], the
/// whole network runs on `i128` ticks — same topology, same insertion
/// order, all capacities scaled by the same positive constant, so Dinic
/// routes the *same* augmenting paths and every verdict, counter, and
/// (back-mapped) allocation is bit-identical to the exact path. Rationals
/// with oversized denominators fall back to `Rat` capacities.
#[derive(Debug, Clone)]
enum Backend {
    /// Integer fast path on the shared timeline grid.
    Ticks {
        core: Core<i128>,
        timeline: Timeline,
    },
    /// Exact rational fallback.
    Exact { core: Core<Rat> },
}

/// Attempts the scaled-integer rescale for an instance: one [`Timeline`]
/// over every event point and processing volume. Returns the timeline, the
/// per-job processing ticks, and the per-elementary-interval length ticks,
/// or `None` (→ exact `Rat` backend) if anything overflows `i64`.
fn ticks_for(instance: &Instance, pts: &[Rat]) -> Option<(Timeline, Vec<i64>, Vec<i64>)> {
    let mut vals: Vec<Rat> = Vec::with_capacity(pts.len() + instance.len());
    vals.extend(pts.iter().cloned());
    vals.extend(instance.iter().map(|j| j.processing.clone()));
    let (timeline, ticks) = Timeline::build(&vals)?;
    let (pt_ticks, p_ticks) = ticks.split_at(pts.len());
    let mut lens = Vec::with_capacity(pts.len().saturating_sub(1));
    for w in pt_ticks.windows(2) {
        // Interval lengths (and hence per-edge flows) must themselves fit
        // `i64` so allocations can be back-mapped exactly.
        lens.push(w[1].checked_sub(w[0])?);
    }
    Some((timeline, p_ticks.to_vec(), lens))
}

/// Builds one backend core over the shared node layout. Edges are inserted
/// in one fixed order (source→job and job→interval per job, then
/// interval→sink), so Dinic explores identically on either backend.
#[allow(clippy::too_many_arguments)]
fn build_core<N: FlowNum>(
    instance: &Instance,
    pts: &[Rat],
    lens: Vec<N>,
    proc_of: impl Fn(usize, &mm_instance::Job) -> N,
    source: usize,
    sink: usize,
    mut net: ArenaNetwork<N>,
    alloc_edges: &mut [Vec<(EdgeHandle, JobId)>],
) -> Core<N> {
    let n = instance.len();
    let k = lens.len();
    net.clear(n + k + 2);
    let mut demand = N::zero();
    for (ji, job) in instance.iter().enumerate() {
        let p = proc_of(ji, job);
        demand = demand.add(&p);
        net.add_edge(source, 1 + ji, p);
        // The job's window endpoints are event points, so the contained
        // elementary intervals are exactly the index range between them —
        // found by binary search instead of the old O(n·k) scan.
        let a = pts
            .binary_search(&job.release)
            .expect("release is an event point");
        let b = pts
            .binary_search(&job.deadline)
            .expect("deadline is an event point");
        for ki in a..b {
            let h = net.add_edge(1 + ji, 1 + n + ki, lens[ki].clone());
            alloc_edges[ki].push((h, job.id));
        }
    }
    // Sink capacities are per-probe (`m·|E|`).
    let sink_edges = lens
        .into_iter()
        .enumerate()
        .map(|(ki, len)| (net.add_edge(1 + n + ki, sink, N::zero()), len))
        .collect();
    Core {
        net,
        demand,
        sink_edges,
        state: None,
    }
}

impl FeasibilityProber {
    /// Builds the probe network for `instance` (no flow is computed yet).
    pub fn new(instance: &Instance) -> Self {
        let mut prober = FeasibilityProber {
            intervals: Vec::new(),
            backend: Backend::Exact {
                core: Core {
                    net: ArenaNetwork::new(0),
                    demand: Rat::zero(),
                    sink_edges: Vec::new(),
                    state: None,
                },
            },
            source: 0,
            sink: 0,
            jobs: 0,
            alloc_edges: Vec::new(),
            stats: ProberStats::default(),
        };
        prober.reset_for_instance(instance);
        prober
    }

    /// Re-targets the prober at a new instance, reusing the flow arena and
    /// every other allocation from the previous one. Sweeps that probe many
    /// instances (adversary rounds, experiment grids) build one prober and
    /// call this per cell instead of constructing from scratch.
    ///
    /// Cumulative [`ProberStats`] carry over; the per-instance probe state
    /// does not (the first probe on the new instance is a reset probe, like
    /// a fresh build).
    pub fn reset_for_instance(&mut self, instance: &Instance) {
        let pts = instance.event_points();
        self.intervals.clear();
        self.intervals.extend(
            pts.windows(2)
                .map(|w| Interval::new(w[0].clone(), w[1].clone()))
                .filter(|iv| !iv.is_empty()),
        );
        let n = instance.len();
        let k = self.intervals.len();
        // node layout: 0 = source, 1..=n jobs, n+1..=n+k intervals, n+k+1 sink
        self.source = 0;
        self.sink = n + k + 1;
        self.jobs = n;
        self.alloc_edges.clear();
        self.alloc_edges.resize(k, Vec::new());
        self.backend = match ticks_for(instance, &pts) {
            Some((timeline, p_ticks, len_ticks)) => {
                let net = self.take_arena::<i128>();
                let lens = len_ticks.iter().map(|&l| l as i128).collect();
                let core = build_core(
                    instance,
                    &pts,
                    lens,
                    |ji, _| p_ticks[ji] as i128,
                    self.source,
                    self.sink,
                    net,
                    &mut self.alloc_edges,
                );
                Backend::Ticks { core, timeline }
            }
            None => {
                let net = self.take_arena::<Rat>();
                let lens = self.intervals.iter().map(|iv| iv.length()).collect();
                let core = build_core(
                    instance,
                    &pts,
                    lens,
                    |_, job| job.processing.clone(),
                    self.source,
                    self.sink,
                    net,
                    &mut self.alloc_edges,
                );
                Backend::Exact { core }
            }
        };
    }

    /// Recycles the previous backend's arena when its numeric type matches
    /// `N`; otherwise starts a fresh arena. Uses the lifetime augmentation
    /// counter, which `clear` preserves, to keep stats monotone.
    fn take_arena<N: FlowNum + 'static>(&mut self) -> ArenaNetwork<N> {
        // Swap out the old backend so we can move the arena rather than
        // clone it; the placeholder is immediately overwritten by the
        // caller (`reset_for_instance`).
        let old = std::mem::replace(
            &mut self.backend,
            Backend::Exact {
                core: Core {
                    net: ArenaNetwork::new(0),
                    demand: Rat::zero(),
                    sink_edges: Vec::new(),
                    state: None,
                },
            },
        );
        let any_net: Box<dyn std::any::Any> = match old {
            Backend::Ticks { core, .. } => Box::new(core.net),
            Backend::Exact { core } => Box::new(core.net),
        };
        match any_net.downcast::<ArenaNetwork<N>>() {
            Ok(net) => *net,
            Err(_) => ArenaNetwork::new(0),
        }
    }

    /// Whether probes run on the scaled-integer fast path (`true`) or the
    /// exact-`Rat` fallback.
    pub fn uses_integer_ticks(&self) -> bool {
        matches!(self.backend, Backend::Ticks { .. })
    }

    /// The elementary intervals of the probed instance.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// Lifetime augmenting-path count of the underlying network.
    fn augmentations(&self) -> u64 {
        match &self.backend {
            Backend::Ticks { core, .. } => core.net.augmentations(),
            Backend::Exact { core } => core.net.augmentations(),
        }
    }

    /// Reads the flow routed through a job→interval edge as an exact `Rat`
    /// (ticks are back-mapped through the timeline).
    fn edge_flow(&self, h: EdgeHandle) -> Rat {
        match &self.backend {
            Backend::Ticks { core, timeline } => {
                let ticks = core.net.flow(h);
                timeline.to_rat(i64::try_from(ticks).expect("edge flow fits i64 by construction"))
            }
            Backend::Exact { core } => core.net.flow(h),
        }
    }

    /// Cumulative work counters.
    pub fn stats(&self) -> ProberStats {
        self.stats
    }

    /// Decides feasibility on `m` machines. Same answer as
    /// [`feasible_on`] on the probed instance, at incremental cost for
    /// ascending `m`.
    pub fn probe(&mut self, m: u64) -> bool {
        self.probe_traced(m, NoopSink)
    }

    /// [`FeasibilityProber::probe`] with the probe reported to `sink` as a
    /// [`TraceEvent::FeasibilityProbe`] plus a [`TraceEvent::ProbeReuse`]
    /// carrying the reuse mode and augmentation cost.
    pub fn probe_traced<S: TraceSink>(&mut self, m: u64, sink: S) -> bool {
        match self.probe_metered(m, &mut BudgetMeter::unlimited(), sink) {
            Verdict::Feasible => true,
            Verdict::Infeasible => false,
            Verdict::Unknown(_) => unreachable!("unlimited meter never trips"),
        }
    }

    /// [`FeasibilityProber::probe`] under a [`Budget`]: returns
    /// [`Verdict::Unknown`] if the budget trips before the probe is decided.
    /// The partially routed flow is kept, so re-probing the same or a larger
    /// `m` (with a fresh or doubled budget) resumes where this call stopped.
    pub fn probe_budgeted(&mut self, m: u64, budget: &Budget) -> Verdict {
        self.probe_budgeted_traced(m, budget, NoopSink)
    }

    /// [`FeasibilityProber::probe_budgeted`] with trace reporting: decided
    /// probes emit the usual [`TraceEvent::FeasibilityProbe`]; cancelled ones
    /// emit [`TraceEvent::BudgetExceeded`] and [`TraceEvent::ProbeDegraded`]
    /// instead.
    pub fn probe_budgeted_traced<S: TraceSink>(
        &mut self,
        m: u64,
        budget: &Budget,
        mut sink: S,
    ) -> Verdict {
        let mut meter = BudgetMeter::new(budget);
        // Admission: refuse oversized networks before touching the flow.
        if let Err(e) = meter.admit_network(self.jobs + self.intervals.len() + 2) {
            if sink.enabled() {
                sink.record(&TraceEvent::BudgetExceeded {
                    site: "probe",
                    reason: e.tag(),
                });
                sink.record(&TraceEvent::ProbeDegraded {
                    machines: m,
                    reason: e.tag(),
                });
            }
            return Verdict::Unknown(e);
        }
        self.probe_metered(m, &mut meter, sink)
    }

    fn probe_metered<S: TraceSink>(
        &mut self,
        m: u64,
        meter: &mut BudgetMeter,
        mut sink: S,
    ) -> Verdict {
        let trivial = self.jobs == 0 || m == 0;
        let mut incremental = false;
        let mut aug_delta = 0u64;
        // Span timing for the flow work below; only a traced probe reads the
        // clock (NoopSink's `enabled` is a constant false).
        let flow_timer = if sink.enabled() && !trivial {
            Some(std::time::Instant::now())
        } else {
            None
        };
        let verdict = if self.jobs == 0 {
            Verdict::Feasible
        } else if m == 0 {
            Verdict::Infeasible
        } else {
            let (source, snk) = (self.source, self.sink);
            let aug_before = self.augmentations();
            let (inc, answer) = match &mut self.backend {
                Backend::Ticks { core, .. } => {
                    let mi = m as i128;
                    core.run(m, |len| mi * len, source, snk, meter)
                }
                Backend::Exact { core } => {
                    let m_rat = Rat::from(m);
                    core.run(m, |len| &m_rat * len, source, snk, meter)
                }
            };
            incremental = inc;
            aug_delta = self.augmentations() - aug_before;
            if incremental {
                self.stats.incremental += 1;
            } else {
                self.stats.resets += 1;
            }
            match answer {
                Ok(feasible) => Verdict::from_bool(feasible),
                Err(e) => Verdict::Unknown(e),
            }
        };
        self.stats.probes += 1;
        self.stats.augmentations += aug_delta;
        if sink.enabled() {
            match &verdict {
                Verdict::Unknown(e) => {
                    sink.record(&TraceEvent::BudgetExceeded {
                        site: "probe",
                        reason: e.tag(),
                    });
                    sink.record(&TraceEvent::ProbeDegraded {
                        machines: m,
                        reason: e.tag(),
                    });
                }
                decided => {
                    sink.record(&TraceEvent::FeasibilityProbe {
                        machines: m,
                        jobs: self.jobs,
                        feasible: *decided == Verdict::Feasible,
                    });
                }
            }
            if !trivial {
                sink.record(&TraceEvent::ProbeReuse {
                    machines: m,
                    incremental,
                    augmentations: aug_delta,
                });
            }
            if let Some(t0) = flow_timer {
                // Request id is unknown this deep; the service layer's span
                // collector scopes phases per request, so 0 is a placeholder.
                sink.record(&TraceEvent::SpanPhase {
                    id: 0,
                    phase: "flow",
                    micros: t0.elapsed().as_micros() as u64,
                });
            }
        }
        verdict
    }

    /// The per-interval allocation of a feasible flow on `m` machines, or
    /// `None` if infeasible. Forces a flow reset first, so the returned
    /// allocation is bit-identical to [`feasible_allocation`] regardless of
    /// earlier incremental probes.
    pub fn allocation(&mut self, m: u64) -> Option<FlowAllocation> {
        if self.jobs == 0 {
            return Some(FlowAllocation {
                intervals: Vec::new(),
                amounts: Vec::new(),
            });
        }
        if m == 0 {
            return None;
        }
        // Drop any incremental state: the read-back flow must match a fresh
        // build exactly.
        match &mut self.backend {
            Backend::Ticks { core, .. } => core.state = None,
            Backend::Exact { core } => core.state = None,
        }
        if !self.probe(m) {
            return None;
        }
        let amounts = self
            .alloc_edges
            .iter()
            .map(|edges| {
                edges
                    .iter()
                    .filter_map(|&(h, id)| {
                        let f = self.edge_flow(h);
                        if f.is_zero() {
                            None
                        } else {
                            Some((id, f))
                        }
                    })
                    .collect()
            })
            .collect();
        Some(FlowAllocation {
            intervals: self.intervals.clone(),
            amounts,
        })
    }

    /// A Theorem-1 witness for infeasibility at `m`, or `None` if the
    /// instance is actually feasible there (or empty).
    ///
    /// Extracted from the minimum cut of the failed flow: with `R` the
    /// source-reachable residual side, the witness `I` is the union of the
    /// elementary intervals in `R`. Max-flow < demand gives
    /// `Σ_{j∈R} p_j + Σ_{j∈R} (|I(j)| − |I ∩ I(j)|) + m·|I| < Σ_j p_j`
    /// (cut capacity), which rearranges to `C(S, I) > m·|I|` — the witness
    /// is always *tight enough* to refute `m`, unlike the greedy
    /// [`crate::Certificate`] search, which may settle for a weaker bound.
    /// Forces a flow reset first so the cut matches a fresh build exactly.
    pub fn infeasible_witness(&mut self, m: u64) -> Option<IntervalSet> {
        if self.jobs == 0 {
            return None;
        }
        if m == 0 {
            // Any nonempty instance is infeasible on zero machines; the full
            // span is a witness (`C(S, I) = Σ p_j > 0 = m·|I|`).
            let start = self.intervals.first()?.start.clone();
            let end = self.intervals.last()?.end.clone();
            return Some(IntervalSet::single(Interval::new(start, end)));
        }
        match &mut self.backend {
            Backend::Ticks { core, .. } => core.state = None,
            Backend::Exact { core } => core.state = None,
        }
        if self.probe(m) {
            return None;
        }
        self.witness_of(&self.cut_intervals())
    }

    /// Right after a network probe that came back infeasible: which
    /// elementary intervals lie on the source side of the minimum cut of
    /// its maximum flow. That side is the same for every maximum flow at
    /// the probed count, so the flags equal those of a fresh build. Read
    /// from the flow's final BFS; stale after the next probe.
    pub(crate) fn cut_intervals(&self) -> Vec<bool> {
        let base = 1 + self.jobs;
        let reached = |v: usize| match &self.backend {
            Backend::Ticks { core, .. } => core.net.reached_by_final_bfs(v),
            Backend::Exact { core } => core.net.reached_by_final_bfs(v),
        };
        let flags: Vec<bool> = (0..self.intervals.len())
            .map(|ki| reached(base + ki))
            .collect();
        debug_assert_eq!(
            flags,
            match &self.backend {
                Backend::Ticks { core, .. } => core.net.residual_reachable(self.source),
                Backend::Exact { core } => core.net.residual_reachable(self.source),
            }[base..base + self.intervals.len()]
        );
        flags
    }

    /// The Theorem-1 witness of a minimum cut: the union of the elementary
    /// intervals [`Self::cut_intervals`] flagged.
    pub(crate) fn witness_of(&self, cut: &[bool]) -> Option<IntervalSet> {
        let witness = IntervalSet::from_intervals(
            self.intervals
                .iter()
                .zip(cut)
                .filter(|(_, &on_source_side)| on_source_side)
                .map(|(iv, _)| iv.clone()),
        );
        // Mathematically nonempty for a failed flow (an all-job cut would
        // equal the demand); guard anyway so a `Some` is always a witness.
        (!witness.is_empty()).then_some(witness)
    }
}

/// Decides whether `instance` fits on `m` unit-speed machines with migration,
/// returning the per-interval allocation on success.
pub fn feasible_allocation(instance: &Instance, m: u64) -> Option<FlowAllocation> {
    FeasibilityProber::new(instance).allocation(m)
}

/// Decides migratory feasibility on `m` machines.
pub fn feasible_on(instance: &Instance, m: u64) -> bool {
    FeasibilityProber::new(instance).probe(m)
}

/// [`feasible_on`] with the probe reported to `sink` as a
/// [`TraceEvent::FeasibilityProbe`].
pub fn feasible_on_traced<S: TraceSink>(instance: &Instance, m: u64, mut sink: S) -> bool {
    let feasible = feasible_on(instance, m);
    if sink.enabled() {
        sink.record(&TraceEvent::FeasibilityProbe {
            machines: m,
            jobs: instance.len(),
            feasible,
        });
    }
    feasible
}

/// The minimum number of machines for a migratory schedule, by binary search
/// over the monotone predicate [`feasible_on`]. The search shares one
/// [`FeasibilityProber`] across all probes.
pub fn optimal_machines(instance: &Instance) -> u64 {
    optimal_machines_traced(instance, NoopSink)
}

/// [`optimal_machines`] with every feasibility probe, probe reuse, and
/// binary-search bracket update reported to `sink`. Pass `&mut sink` to keep
/// ownership.
pub fn optimal_machines_traced<S: TraceSink>(instance: &Instance, mut sink: S) -> u64 {
    if instance.is_empty() {
        return 0;
    }
    let mut prober = FeasibilityProber::new(instance);
    let mut lo = instance.volume_lower_bound().max(1);
    // Upper bound: one machine per job always suffices.
    let mut hi = instance.len() as u64;
    if prober.probe_traced(lo, &mut sink) {
        return lo;
    }
    // invariant: infeasible(lo), feasible(hi). Checked statelessly so the
    // prober's probe sequence is identical in debug and release builds.
    debug_assert!(feasible_on(instance, hi));
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if prober.probe_traced(mid, &mut sink) {
            hi = mid;
        } else {
            lo = mid;
        }
        if sink.enabled() {
            sink.record(&TraceEvent::BinarySearchStep { lo, hi });
        }
    }
    hi
}

/// Result of [`optimal_machines_budgeted`]: a certified bracket around the
/// optimum, exact when the search finished within budget.
///
/// The invariant `lo ≤ m(J) ≤ hi` always holds: `lo` is certified by the
/// Theorem-1 lower bounds and by verdicts that proved `lo − 1` infeasible,
/// and `hi` by the one-machine-per-job bound `n` and by verdicts that proved
/// `hi` feasible. Cancelled (Unknown) flow probes never move either end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetedSearch {
    /// Certified lower bound on the optimum.
    pub lo: u64,
    /// Certified upper bound on the optimum.
    pub hi: u64,
    /// The exact optimum, when the search completed (`lo == hi`).
    pub exact: Option<u64>,
    /// The budget violation that stopped the search, if any.
    pub exceeded: Option<BudgetExceeded>,
    /// Probes that returned [`Verdict::Unknown`].
    pub unknown_probes: u64,
}

impl BudgetedSearch {
    /// Whether the search pinned the optimum exactly.
    pub fn is_exact(&self) -> bool {
        self.exact.is_some()
    }

    /// Bracket width `hi − lo` (0 when exact).
    pub fn width(&self) -> u64 {
        self.hi - self.lo
    }

    pub(crate) fn exact_at(m: u64) -> Self {
        BudgetedSearch {
            lo: m,
            hi: m,
            exact: Some(m),
            exceeded: None,
            unknown_probes: 0,
        }
    }
}

/// [`optimal_machines`] under a per-probe [`Budget`], decided by
/// [`FastProber`]: lower bounds and the monotone probe cache first, then the
/// certifier sweeps (free of charge), then budgeted flow probes. Instead of
/// hanging on an adversarial instance, the search stops at the first probe
/// the budget cancels and returns the certified bracket accumulated so far.
/// With an unlimited budget the result is always exact and identical to
/// [`optimal_machines`].
pub fn optimal_machines_budgeted(instance: &Instance, budget: &Budget) -> BudgetedSearch {
    optimal_machines_budgeted_traced(instance, budget, NoopSink)
}

/// [`optimal_machines_budgeted`] with flow probes, bracket updates, and
/// degradations reported to `sink`.
pub fn optimal_machines_budgeted_traced<S: TraceSink>(
    instance: &Instance,
    budget: &Budget,
    sink: S,
) -> BudgetedSearch {
    FastProber::new(instance).optimal_machines_budgeted_traced(budget, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_trace::VecSink;

    #[test]
    fn empty_instance_needs_zero() {
        assert_eq!(optimal_machines(&Instance::empty()), 0);
        assert!(feasible_on(&Instance::empty(), 0));
    }

    #[test]
    fn single_job_needs_one() {
        let inst = Instance::from_ints([(0, 4, 2)]);
        assert!(!feasible_on(&inst, 0));
        assert!(feasible_on(&inst, 1));
        assert_eq!(optimal_machines(&inst), 1);
    }

    #[test]
    fn k_parallel_tight_jobs_need_k() {
        for k in 1..=5i64 {
            let inst = Instance::from_ints((0..k).map(|_| (0, 3, 3)).collect::<Vec<_>>());
            assert_eq!(optimal_machines(&inst), k as u64, "k={k}");
            assert!(!feasible_on(&inst, (k - 1) as u64));
        }
    }

    #[test]
    fn migration_enables_m_machines() {
        // Three jobs, each needing 2 units in [0,3): total 6 = 2 machines * 3.
        // Feasible on 2 machines only by migrating (classic McNaughton case).
        let inst = Instance::from_ints([(0, 3, 2), (0, 3, 2), (0, 3, 2)]);
        assert!(feasible_on(&inst, 2));
        assert!(!feasible_on(&inst, 1));
        assert_eq!(optimal_machines(&inst), 2);
    }

    #[test]
    fn staggered_windows() {
        // j0: [0,2) full, j1: [1,3) full — overlap at [1,2) forces 2 machines.
        let inst = Instance::from_ints([(0, 2, 2), (1, 3, 2)]);
        assert_eq!(optimal_machines(&inst), 2);
        // Loosen j1's window and one machine suffices.
        let inst2 = Instance::from_ints([(0, 2, 2), (1, 5, 2)]);
        assert_eq!(optimal_machines(&inst2), 1);
    }

    #[test]
    fn laxity_is_respected_by_flow() {
        // A job with laxity can be squeezed around others.
        let inst = Instance::from_ints([(0, 4, 2), (0, 2, 2), (2, 4, 2)]);
        // [0,2) and [2,4) are full; j0 has nowhere to go on 1 machine.
        assert!(!feasible_on(&inst, 1));
        assert!(feasible_on(&inst, 2));
    }

    #[test]
    fn allocation_sums_match_processing() {
        let inst = Instance::from_ints([(0, 3, 2), (0, 3, 2), (0, 3, 2)]);
        let alloc = feasible_allocation(&inst, 2).unwrap();
        let mut per_job = std::collections::BTreeMap::<JobId, Rat>::new();
        for (iv, amts) in alloc.intervals.iter().zip(&alloc.amounts) {
            let mut interval_total = Rat::zero();
            for (id, v) in amts {
                assert!(*v <= iv.length(), "no self-parallelism");
                interval_total += v;
                *per_job.entry(*id).or_default() += v;
            }
            assert!(interval_total <= Rat::from(2i64) * iv.length());
        }
        for job in inst.iter() {
            assert_eq!(per_job[&job.id], job.processing);
        }
    }

    #[test]
    fn fractional_windows() {
        let inst = Instance::from_triples([
            (Rat::zero(), Rat::ratio(1, 3), Rat::ratio(1, 3)),
            (Rat::zero(), Rat::ratio(1, 3), Rat::ratio(1, 6)),
        ]);
        assert_eq!(optimal_machines(&inst), 2);
    }

    #[test]
    fn elementary_interval_structure() {
        let inst = Instance::from_ints([(0, 4, 1), (2, 6, 1)]);
        let ivs = elementary_intervals(&inst);
        assert_eq!(
            ivs,
            vec![
                Interval::ints(0, 2),
                Interval::ints(2, 4),
                Interval::ints(4, 6)
            ]
        );
    }

    #[test]
    fn prober_agrees_with_fresh_in_any_probe_order() {
        let inst = Instance::from_ints([
            (0, 6, 3),
            (0, 3, 2),
            (2, 5, 2),
            (1, 8, 4),
            (4, 9, 3),
            (0, 9, 1),
        ]);
        let mut prober = FeasibilityProber::new(&inst);
        // Ascending, descending, repeated, and boundary probes.
        for m in [1u64, 2, 3, 4, 3, 2, 5, 1, 6, 6, 0] {
            assert_eq!(prober.probe(m), feasible_on(&inst, m), "m={m}");
        }
        let stats = prober.stats();
        assert_eq!(stats.probes, 11);
        assert!(stats.incremental >= 1);
        assert!(stats.resets >= 1);
    }

    #[test]
    fn ascending_probes_are_incremental() {
        let inst = Instance::from_ints([(0, 3, 3), (0, 3, 3), (0, 3, 3), (0, 3, 3)]);
        let mut prober = FeasibilityProber::new(&inst);
        for m in 1..=4 {
            assert_eq!(prober.probe(m), m >= 4);
        }
        let stats = prober.stats();
        // First probe builds; the other three reuse the routed flow.
        assert_eq!(stats.resets, 1);
        assert_eq!(stats.incremental, 3);
    }

    #[test]
    fn prober_allocation_is_bit_identical_to_fresh() {
        let inst = Instance::from_ints([(0, 3, 2), (0, 3, 2), (0, 3, 2), (1, 5, 3)]);
        let fresh = feasible_allocation(&inst, 3).unwrap();
        let mut prober = FeasibilityProber::new(&inst);
        // Dirty the prober's flow state first.
        for m in [1u64, 3, 2, 4] {
            prober.probe(m);
        }
        let reused = prober.allocation(3).unwrap();
        assert_eq!(fresh.intervals, reused.intervals);
        assert_eq!(fresh.amounts, reused.amounts);
    }

    #[test]
    fn fresh_reference_matches_prober_search() {
        for jobs in [
            vec![(0i64, 4i64, 2i64)],
            vec![(0, 3, 3), (0, 3, 3), (0, 3, 3)],
            vec![(0, 2, 2), (1, 3, 2), (2, 6, 3), (0, 8, 5)],
            vec![(0, 10, 1), (3, 6, 3), (3, 6, 3), (5, 9, 4), (0, 4, 4)],
        ] {
            let inst = Instance::from_ints(jobs);
            // The prober-backed search lands on the boundary fresh probers
            // see: `m` fits and `m − 1` does not.
            let m = optimal_machines(&inst);
            assert!(feasible_on(&inst, m));
            assert!(!feasible_on(&inst, m - 1));
        }
    }

    #[test]
    fn probe_reuse_events_and_counters() {
        // Three tight jobs force 3 machines, but the loose fillers keep the
        // volume lower bound at 1, so the binary search probes 1, 3, 2.
        let inst = Instance::from_ints([
            (0, 2, 2),
            (0, 2, 2),
            (0, 2, 2),
            (0, 12, 1),
            (0, 12, 1),
            (0, 12, 1),
        ]);
        let mut sink = VecSink::new();
        let m = optimal_machines_traced(&inst, &mut sink);
        assert_eq!(m, 3);
        let probes = sink.count(|e| matches!(e, TraceEvent::FeasibilityProbe { .. }));
        let reuses = sink.count(|e| matches!(e, TraceEvent::ProbeReuse { .. }));
        // Every network probe reports its reuse mode.
        assert_eq!(probes, reuses);
        let incremental = sink.count(|e| {
            matches!(
                e,
                TraceEvent::ProbeReuse {
                    incremental: true,
                    ..
                }
            )
        });
        assert!(incremental >= 1, "binary search ascends at least once");
        // The prober never augments more than the fresh-build reference.
        let total_augs = |events: &[TraceEvent]| -> u64 {
            events
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::ProbeReuse { augmentations, .. } => Some(*augmentations),
                    _ => None,
                })
                .sum()
        };
        // Re-run each probe the search made on a fresh prober.
        let mut fresh_sink = VecSink::new();
        for e in &sink.events {
            if let TraceEvent::FeasibilityProbe { machines, .. } = e {
                FeasibilityProber::new(&inst).probe_traced(*machines, &mut fresh_sink);
            }
        }
        assert!(total_augs(&sink.events) <= total_augs(&fresh_sink.events));
    }

    #[test]
    fn unlimited_budget_matches_unbudgeted_search() {
        for jobs in [
            vec![(0i64, 4i64, 2i64)],
            vec![(0, 3, 3), (0, 3, 3), (0, 3, 3)],
            vec![(0, 2, 2), (1, 3, 2), (2, 6, 3), (0, 8, 5)],
        ] {
            let inst = Instance::from_ints(jobs);
            let search = optimal_machines_budgeted(&inst, &Budget::unlimited());
            assert_eq!(search.exact, Some(optimal_machines(&inst)));
            assert_eq!(search.lo, search.hi);
            assert!(search.exceeded.is_none());
        }
    }

    #[test]
    fn budgeted_probe_degrades_to_unknown_and_resumes() {
        // 6 tight parallel jobs: the probe at m=1 routes 6 augmenting paths.
        let inst = Instance::from_ints((0..6).map(|_| (0, 3, 3)).collect::<Vec<_>>());
        let budget = Budget::unlimited().with_augmentations(2);
        let mut prober = FeasibilityProber::new(&inst);
        let v = prober.probe_budgeted(6, &budget);
        assert!(matches!(v, Verdict::Unknown(_)));
        // The cancelled probe's partial flow resumes: the unbudgeted answer
        // is still correct afterwards.
        assert!(prober.probe(6));
        assert!(!prober.probe(5));
    }

    #[test]
    fn budgeted_search_returns_certified_bracket() {
        // Crossing windows: a general instance, so only flow probes decide.
        let inst = Instance::from_ints([(0, 3, 2), (1, 2, 1), (2, 5, 2), (1, 6, 3), (4, 5, 1)]);
        assert_eq!(inst.classify(), mm_instance::StructureClass::General);
        let exact = optimal_machines(&inst);
        let budget = Budget::unlimited().with_augmentations(1);
        let mut sink = VecSink::new();
        let search = optimal_machines_budgeted_traced(&inst, &budget, &mut sink);
        assert!(search.exact.is_none());
        assert!(search.exceeded.is_some());
        assert!(search.unknown_probes >= 1);
        assert!(
            search.lo <= exact && exact <= search.hi,
            "bracket [{}, {}] must contain {exact}",
            search.lo,
            search.hi
        );
        assert!(sink.count(|e| matches!(e, TraceEvent::ProbeDegraded { .. })) >= 1);
        assert!(sink.count(|e| matches!(e, TraceEvent::BudgetExceeded { .. })) >= 2);
    }

    #[test]
    fn certifier_verdicts_are_not_charged_to_the_budget() {
        // Equal releases make this instance agreeable: the sweeps decide
        // every probe, so a starved flow budget still finds the optimum
        // where a flow-only search would stop at its first probe.
        let inst = Instance::from_ints([
            (0, 2, 2),
            (0, 2, 2),
            (0, 2, 2),
            (0, 12, 1),
            (0, 12, 1),
            (0, 12, 1),
        ]);
        let budget = Budget::unlimited().with_augmentations(1);
        let mut sink = VecSink::new();
        let search = optimal_machines_budgeted_traced(&inst, &budget, &mut sink);
        assert_eq!(search.exact, Some(optimal_machines(&inst)));
        assert_eq!(
            sink.count(|e| matches!(e, TraceEvent::FeasibilityProbe { .. })),
            0
        );
    }

    #[test]
    fn network_admission_rejects_oversized_probes() {
        let inst = Instance::from_ints([(0, 2, 1), (1, 4, 2), (3, 8, 2)]);
        // Node count is jobs + intervals + 2; cap it below that.
        let budget = Budget::unlimited().with_network_nodes(2);
        let mut prober = FeasibilityProber::new(&inst);
        match prober.probe_budgeted(1, &budget) {
            Verdict::Unknown(mm_fault::BudgetExceeded::NetworkNodes { limit: 2, .. }) => {}
            v => panic!("expected network admission failure, got {v:?}"),
        }
        // No network work was charged.
        assert_eq!(prober.stats().resets + prober.stats().incremental, 0);
    }

    #[test]
    fn trivial_probes_do_not_touch_the_network() {
        let mut empty = FeasibilityProber::new(&Instance::empty());
        assert!(empty.probe(0));
        assert!(empty.probe(5));
        assert_eq!(empty.stats().resets, 0);
        let inst = Instance::from_ints([(0, 2, 1)]);
        let mut prober = FeasibilityProber::new(&inst);
        assert!(!prober.probe(0));
        assert_eq!(
            prober.stats(),
            ProberStats {
                probes: 1,
                ..ProberStats::default()
            }
        );
    }
}

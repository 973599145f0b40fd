//! Direct feasibility certifiers for structured instance classes.
//!
//! The flow-based [`crate::feasibility`] oracle is exact on every instance,
//! but its network has one edge per (job, contained elementary interval)
//! pair — prohibitive at 10^5–10^6 jobs. For the structured classes the
//! paper singles out (agreeable, Section 6; laminar, Section 5) this module
//! answers almost every probe without building a network, while keeping
//! verdicts bit-identical to the oracle **by construction**: each fast
//! answer carries a witness that the flow would have agreed.
//!
//! * **Feasible verdicts** come from the [laxity-guarded fluid
//!   sweep](laxity_sweep): when the sweep completes, the allocation it
//!   produced *is* a valid fluid schedule (rate ≤ 1 per job, total ≤
//!   `m·|E|` per elementary interval, all demand met), so feasibility is
//!   certified constructively.
//! * **Infeasible verdicts** come from Theorem 1 certificates: the global
//!   volume density `⌈Σp_j / |window union|⌉`, the laminar nesting-forest
//!   budgets `⌈subtree volume / |W|⌉`, the blame windows a failed sweep
//!   suggests, and an `O(n log n)` scan of every window `[s, t)` for a
//!   nested-volume violation `Σ_{I(j) ⊆ [s,t)} p_j > m·(t−s)`. Each is an
//!   explicit Theorem-1 witness, so infeasibility is certified exactly.
//! * **The gap** — sweep fails but the probe clears every lower bound —
//!   falls back to one flow probe. No cheap exact rule can exist for the
//!   gap: Theorem 1 requires interval *unions*, and greedy sweeps with
//!   per-job lookahead provably miss shared future congestion (see the
//!   counterexamples in the test module). On the structured workloads this
//!   module targets, the sandwich closes and the gap stays empty;
//!   [`DispatchStats::rescued`] reports every exception.
//!
//! Certifier arithmetic runs on the scaled-integer [`Timeline`] grid when
//! the instance rescales exactly, and on exact [`Rat`]s otherwise — the
//! same fallback rule as the flow prober. The flow path stays authoritative
//! for [`StructureClass::General`] instances and as the cross-check oracle
//! in the property tests.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mm_fault::{Budget, BudgetExceeded};
use mm_instance::{Instance, IntervalSet, StructureClass};
use mm_numeric::{Rat, Timeline};
use mm_trace::{NoopSink, TraceEvent, TraceSink};

use crate::feasibility::{BudgetedSearch, FeasibilityProber, ProberStats, Verdict};

/// Which decision procedure answered a feasibility question.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionPath {
    /// Agreeable certifier (EDF-fluid sweep).
    Agreeable,
    /// Laminar certifier (nesting-tree budgets + EDF-fluid sweep).
    Laminar,
    /// Flow oracle (general instances).
    Flow,
}

impl DecisionPath {
    /// Stable lowercase label for traces and bench reports.
    pub fn label(&self) -> &'static str {
        match self {
            DecisionPath::Agreeable => "agreeable",
            DecisionPath::Laminar => "laminar",
            DecisionPath::Flow => "flow",
        }
    }

    /// Whether the agreeable certifier answers for this path.
    pub fn is_agreeable(&self) -> bool {
        matches!(self, DecisionPath::Agreeable)
    }

    /// Whether the laminar certifier answers for this path.
    pub fn is_laminar(&self) -> bool {
        matches!(self, DecisionPath::Laminar)
    }
}

/// The dispatcher's classification of `instance`, without building a
/// certifier: the decision path [`FastProber::new`] would take. Exposed so
/// consumers (the online portfolio, reports) share one notion of class
/// membership instead of re-deriving it from [`Instance::classify`].
pub fn classify_path(instance: &Instance) -> DecisionPath {
    path_of(instance.classify())
}

fn path_of(class: StructureClass) -> DecisionPath {
    match class {
        StructureClass::Agreeable | StructureClass::Both => DecisionPath::Agreeable,
        StructureClass::Laminar => DecisionPath::Laminar,
        StructureClass::General => DecisionPath::Flow,
    }
}

/// How many probes each decision path answered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Probes answered by the agreeable certifier (sweep or lower bound).
    pub agreeable: u64,
    /// Probes answered by the laminar certifier (sweep or lower bound).
    pub laminar: u64,
    /// Probes answered by the flow oracle on general instances.
    pub flow: u64,
    /// Probes on structured instances that fell into the certifier gap
    /// (sweep failed above every lower bound) and were rescued by a flow
    /// probe. Zero on workloads where the sandwich closes.
    pub rescued: u64,
}

impl DispatchStats {
    /// Total probes across all paths.
    pub fn total(&self) -> u64 {
        self.agreeable + self.laminar + self.flow + self.rescued
    }

    /// Probes answered without touching the flow oracle.
    pub fn certified(&self) -> u64 {
        self.agreeable + self.laminar
    }
}

/// Per-job data of one numeric flavor, sorted by release (canonical
/// instance order), plus the sorted event points.
struct SweepData<N> {
    release: Vec<N>,
    deadline: Vec<N>,
    processing: Vec<N>,
    pts: Vec<N>,
}

impl<N> SweepData<N>
where
    N: Clone + Ord,
    for<'a> &'a N: std::ops::Sub<&'a N, Output = N>,
{
    /// The time-mirrored instance (`t ↦ T − t` around the horizon end `T`):
    /// releases and deadlines swap roles, and fluid feasibility is
    /// preserved exactly. A sweep that fails forward may succeed on the
    /// mirror because greedy misallocations are direction-dependent.
    fn reversed(&self) -> SweepData<N> {
        let t_end = self.pts.last().expect("nonempty event points");
        let n = self.release.len();
        let mut order: Vec<usize> = (0..n).collect();
        // Mirrored release is T − d, so sort by deadline descending.
        order.sort_by(|&a, &b| self.deadline[b].cmp(&self.deadline[a]));
        SweepData {
            release: order.iter().map(|&i| t_end - &self.deadline[i]).collect(),
            deadline: order.iter().map(|&i| t_end - &self.release[i]).collect(),
            processing: order.iter().map(|&i| self.processing[i].clone()).collect(),
            pts: self.pts.iter().rev().map(|p| t_end - p).collect(),
        }
    }
}

/// The numeric backend of a certifier — integer ticks when the instance
/// rescales exactly onto a [`Timeline`], exact rationals otherwise. The
/// mirrored copy is built lazily the first time a forward sweep fails.
enum SweepBackend {
    Ticks {
        fwd: SweepData<i128>,
        rev: Option<SweepData<i128>>,
    },
    Exact {
        fwd: SweepData<Rat>,
        rev: Option<SweepData<Rat>>,
    },
}

/// What the certifier engines concluded about one probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SweepVerdict {
    /// A sweep completed: its allocation is a valid fluid schedule.
    Feasible,
    /// A blame window verified a Theorem-1 density violation.
    Infeasible,
    /// Neither witness settled the probe — the flow oracle must decide.
    Unknown,
}

impl SweepBackend {
    fn certify(&mut self, m: u64) -> SweepVerdict {
        match self {
            SweepBackend::Ticks { fwd, rev } => {
                let mi = m as i128;
                certify(fwd, rev, &|len: &i128| mi * len, 0i128)
            }
            SweepBackend::Exact { fwd, rev } => {
                let m_rat = Rat::from(m);
                certify(fwd, rev, &|len: &Rat| &m_rat * len, Rat::zero())
            }
        }
    }
}

/// Runs the sandwich engines for one probe: forward sweep, blame-window
/// verification, mirrored sweep, mirrored blame verification.
fn certify<N, F>(
    fwd: &SweepData<N>,
    rev: &mut Option<SweepData<N>>,
    mul_m: &F,
    zero: N,
) -> SweepVerdict
where
    N: Clone + Ord,
    N: for<'a> std::ops::AddAssign<&'a N>,
    N: for<'a> std::ops::SubAssign<&'a N>,
    for<'a> &'a N: std::ops::Sub<&'a N, Output = N>,
    F: Fn(&N) -> N,
{
    match laxity_sweep(fwd, mul_m, zero.clone()) {
        Ok(()) => return SweepVerdict::Feasible,
        Err(failure) => {
            if blame_verifies(fwd, &failure, mul_m, &zero) {
                return SweepVerdict::Infeasible;
            }
        }
    }
    // Blame windows missed: scan *every* window for a nested-volume
    // violation before paying for the mirrored sweep — infeasible probes
    // above the static lower bounds usually die here.
    if nested_volume_violates(fwd, mul_m, &zero) {
        return SweepVerdict::Infeasible;
    }
    let rev = rev.get_or_insert_with(|| fwd.reversed());
    match laxity_sweep(rev, mul_m, zero.clone()) {
        Ok(()) => SweepVerdict::Feasible,
        Err(failure) => {
            if blame_verifies(rev, &failure, mul_m, &zero) {
                SweepVerdict::Infeasible
            } else {
                SweepVerdict::Unknown
            }
        }
    }
}

/// Where and why a sweep died, in the coordinates it ran in.
struct SweepFailure<N> {
    /// Start of the saturated streak the failure interval belongs to (the
    /// last point before it at which machine capacity went unused).
    streak: N,
    /// End of the failure interval.
    end: N,
    /// For a dead job: its `(release, deadline)`.
    dead: Option<(N, N)>,
}

/// Tries the Theorem-1 single-interval densities suggested by a sweep
/// failure: `Σ_j max(0, |[s,t) ∩ I(j)| − slack_j) > m·(t−s)` on any
/// candidate `[s, t)` proves infeasibility outright. Each check is a
/// single exact O(n) pass over the job columns.
fn blame_verifies<N, F>(data: &SweepData<N>, failure: &SweepFailure<N>, mul_m: &F, zero: &N) -> bool
where
    N: Clone + Ord,
    N: for<'a> std::ops::AddAssign<&'a N>,
    for<'a> &'a N: std::ops::Sub<&'a N, Output = N>,
    F: Fn(&N) -> N,
{
    let mut candidates: Vec<(&N, &N)> = vec![(&failure.streak, &failure.end)];
    if let Some((r, d)) = &failure.dead {
        candidates.push((&failure.streak, d));
        candidates.push((r, d));
        candidates.push((r, &failure.end));
    }
    candidates
        .iter()
        .any(|&(s, t)| density_violated(data, s, t, mul_m, zero))
}

/// Exact Theorem-1 density check on one interval.
fn density_violated<N, F>(data: &SweepData<N>, s: &N, t: &N, mul_m: &F, zero: &N) -> bool
where
    N: Clone + Ord,
    N: for<'a> std::ops::AddAssign<&'a N>,
    for<'a> &'a N: std::ops::Sub<&'a N, Output = N>,
    F: Fn(&N) -> N,
{
    if t <= s {
        return false;
    }
    let mut total = zero.clone();
    for i in 0..data.release.len() {
        let (r, d, p) = (&data.release[i], &data.deadline[i], &data.processing[i]);
        let lo = if r > s { r } else { s };
        let hi = if d < t { d } else { t };
        if hi <= lo {
            continue;
        }
        let overlap: N = hi - lo;
        let window: N = d - r;
        let slack: N = &window - p;
        if overlap > slack {
            let contribution: N = &overlap - &slack;
            total += &contribution;
        }
    }
    let cap = mul_m(&(t - s));
    total > cap
}

/// Exact Theorem-1 check over **all** single windows, restricted to fully
/// nested jobs: is there an `[s, t)` with `Σ_{I(j) ⊆ [s,t)} p_j > m·(t−s)`?
///
/// Nested jobs contribute their entire volume (`C(j, [s,t)) = p_j` when
/// `I(j) ⊆ [s,t)`), so a violation is a genuine Theorem-1 certificate. The
/// maximizing window always has `s` at a release and `t` at a deadline;
/// sweeping `s` over releases in decreasing order while a lazy segment
/// tree over deadlines maintains `V(s, t) − m·t` per leaf makes the whole
/// scan `O(n log n)` — the engine that certifies infeasible probes the
/// local blame windows miss.
fn nested_volume_violates<N, F>(data: &SweepData<N>, mul_m: &F, zero: &N) -> bool
where
    N: Clone + Ord,
    N: for<'a> std::ops::AddAssign<&'a N>,
    for<'a> &'a N: std::ops::Sub<&'a N, Output = N>,
    F: Fn(&N) -> N,
{
    let n = data.release.len();
    if n == 0 {
        return false;
    }
    let mut ts: Vec<N> = data.deadline.clone();
    ts.sort_unstable();
    ts.dedup();
    let k = ts.len();
    // Leaf for deadline t starts at −m·t; adding a job j with d_j ≤ t
    // raises it by p_j, so a leaf always holds V(s, t) − m·t for the
    // current sweep position s.
    let leaves: Vec<N> = ts.iter().map(|t| zero - &mul_m(t)).collect();
    let mut tree = MaxTree::build(leaves, zero.clone());
    // Jobs arrive sorted by release; visit them in decreasing release
    // order and query once per distinct release value s, after every job
    // with r_j ≥ s has been folded in.
    for i in (0..n).rev() {
        let leaf = ts.partition_point(|t| t < &data.deadline[i]);
        tree.add(leaf, k, &data.processing[i]);
        if i > 0 && data.release[i - 1] == data.release[i] {
            continue;
        }
        let s = &data.release[i];
        // Only windows with t > s are real; every folded job has d_j > s,
        // so the suffix of strictly later deadlines carries all of them.
        let lo = ts.partition_point(|t| t <= s);
        if lo >= k {
            continue;
        }
        // Violation ⟺ max_t (V − m·t) > −m·s ⟺ V > m·(t − s).
        if tree.query(lo, k) > zero - &mul_m(s) {
            return true;
        }
    }
    false
}

/// Lazy range-add / range-max segment tree over `N`-valued leaves.
struct MaxTree<N> {
    len: usize,
    max: Vec<N>,
    lazy: Vec<N>,
}

impl<N> MaxTree<N>
where
    N: Clone + Ord,
    N: for<'a> std::ops::AddAssign<&'a N>,
{
    fn build(leaves: Vec<N>, zero: N) -> MaxTree<N> {
        let len = leaves.len();
        let mut tree = MaxTree {
            len,
            max: vec![zero.clone(); 4 * len],
            lazy: vec![zero; 4 * len],
        };
        tree.init(1, 0, len, &leaves);
        tree
    }

    fn init(&mut self, node: usize, lo: usize, hi: usize, leaves: &[N]) {
        if hi - lo == 1 {
            self.max[node] = leaves[lo].clone();
            return;
        }
        let mid = (lo + hi) / 2;
        self.init(2 * node, lo, mid, leaves);
        self.init(2 * node + 1, mid, hi, leaves);
        self.pull(node);
    }

    /// `max[node]` covers its whole subtree *including* its own pending
    /// `lazy`, but not any ancestor's.
    fn pull(&mut self, node: usize) {
        let mut best = self.max[2 * node]
            .clone()
            .max(self.max[2 * node + 1].clone());
        best += &self.lazy[node];
        self.max[node] = best;
    }

    fn add(&mut self, l: usize, r: usize, delta: &N) {
        self.add_rec(1, 0, self.len, l, r, delta);
    }

    fn add_rec(&mut self, node: usize, lo: usize, hi: usize, l: usize, r: usize, delta: &N) {
        if r <= lo || hi <= l {
            return;
        }
        if l <= lo && hi <= r {
            self.max[node] += delta;
            self.lazy[node] += delta;
            return;
        }
        let mid = (lo + hi) / 2;
        self.add_rec(2 * node, lo, mid, l, r, delta);
        self.add_rec(2 * node + 1, mid, hi, l, r, delta);
        self.pull(node);
    }

    /// Max over leaves `[l, r)`; the range must be nonempty.
    fn query(&self, l: usize, r: usize) -> N {
        self.query_rec(1, 0, self.len, l, r)
            .expect("nonempty query range")
    }

    fn query_rec(&self, node: usize, lo: usize, hi: usize, l: usize, r: usize) -> Option<N> {
        if r <= lo || hi <= l {
            return None;
        }
        if l <= lo && hi <= r {
            return Some(self.max[node].clone());
        }
        let mid = (lo + hi) / 2;
        let left = self.query_rec(2 * node, lo, mid, l, r);
        let right = self.query_rec(2 * node + 1, mid, hi, l, r);
        let best = match (left, right) {
            (Some(a), Some(b)) => a.max(b),
            (Some(a), None) | (None, Some(a)) => a,
            (None, None) => return None,
        };
        let mut best = best;
        best += &self.lazy[node];
        Some(best)
    }
}

/// Laxity-guarded fluid sweep: `true` iff all demand fits on `m` machines.
///
/// Plain earliest-deadline greed is *not* exact here: on the agreeable
/// instance `{(16,35,17), (21,38,7), (22,39,14)}` with `m = 2` it serves
/// the loose middle job before the tight last one inside `[22,35)` and
/// starves the latter against its rate-1 cap, declaring a feasible
/// instance infeasible. The guard that restores exactness is *mandatory
/// service*: in interval `[s, e)` a job must receive at least
/// `max(0, rem_j − (d_j − e))` — anything less is unrecoverable because a
/// job cannot run on two machines at once. Writing `u_j = d_j − rem_j`
/// (the latest moment `j` can still start an uninterrupted full-rate
/// run), job `j` is
///
/// * **dead** iff `u_j < s` (even rate 1 from `s` on misses `d_j`),
/// * **mandatory** iff `u_j < e`, owed exactly `e − u_j` this interval.
///
/// `u_j` only grows (by the amount served), so a min-heap on `u` yields
/// the mandatory set without scanning all active jobs. After mandatory
/// floors are paid, the surplus is distributed in earliest-deadline order
/// up to each job's rate cap `|E|`.
///
/// **Success is a proof; failure is not.** A completed sweep has built a
/// valid fluid schedule, so `Ok(())` certifies feasibility. But a failure
/// only means *this greedy* failed: per-job floors cannot see congestion
/// that several later jobs will jointly create (e.g. `m = 2` with
/// `{(0,4,4), (0,7,4), (2,10,7), (6,12,5), (8,12,4)}` — feasible, yet the
/// surplus rule prefers the loose deadline-7 job over the deadline-10 job
/// that the saturated tail `[8,12)` will later squeeze). A failure returns
/// the blame context ([`SweepFailure`]) so the caller can try to verify a
/// Theorem-1 density violation, and otherwise escalate.
///
/// Cost: `O((n + T) log n)` where `T` counts (tight job, interval)
/// incidences — a zero-laxity job re-enters the mandatory heap every
/// interval it spans, so the worst case is `O(nk log n)`, still far below
/// the flow network's `Ω(nk)` edge *construction*. On the structured
/// workloads this certifier serves, `T` stays near-linear.
fn laxity_sweep<N, F>(data: &SweepData<N>, mul_m: &F, zero: N) -> Result<(), SweepFailure<N>>
where
    N: Clone + Ord,
    N: for<'a> std::ops::AddAssign<&'a N>,
    N: for<'a> std::ops::SubAssign<&'a N>,
    for<'a> &'a N: std::ops::Sub<&'a N, Output = N>,
    F: Fn(&N) -> N,
{
    let n = data.release.len();
    if n == 0 {
        return Ok(());
    }
    let mut rem: Vec<N> = data.processing.clone();
    // u[j] = d_j − rem_j, the latest full-rate start; grows as j is served.
    let mut u: Vec<N> = data
        .deadline
        .iter()
        .zip(rem.iter())
        .map(|(d, r)| d - r)
        .collect();
    // Mandatory queue keyed by u (stale entries carry an outdated key and
    // are discarded on pop) and surplus queue keyed by the immutable
    // deadline (entries for finished jobs are discarded on pop).
    let mut uheap: BinaryHeap<Reverse<(N, u32)>> = BinaryHeap::with_capacity(n.min(1024));
    let mut dheap: BinaryHeap<Reverse<(N, u32)>> = BinaryHeap::with_capacity(n.min(1024));
    // Amount served in the current interval, reset via `touched`.
    let mut xcur: Vec<N> = vec![zero.clone(); n];
    let mut touched: Vec<u32> = Vec::new();
    let mut stash: Vec<(N, u32)> = Vec::new();
    let mut unfinished = 0usize;
    let mut ji = 0usize;
    // Start of the current saturated streak: the last event point at which
    // machine capacity went unused. Blame windows never reach past it.
    let mut streak: N = data.pts.first().expect("nonempty event points").clone();
    for w in data.pts.windows(2) {
        let (s, e) = (&w[0], &w[1]);
        while ji < n && &data.release[ji] <= s {
            if rem[ji] > zero {
                uheap.push(Reverse((u[ji].clone(), ji as u32)));
                dheap.push(Reverse((data.deadline[ji].clone(), ji as u32)));
                unfinished += 1;
            }
            ji += 1;
        }
        let len: N = e - s;
        let mut cap = mul_m(&len);
        touched.clear();
        // Mandatory floors: every job with u < e is owed e − u right now.
        while let Some(Reverse((uk, j))) = uheap.peek() {
            if uk >= e {
                break;
            }
            let (uk, j) = (uk.clone(), *j);
            uheap.pop();
            let ji = j as usize;
            if uk != u[ji] || rem[ji] == zero {
                continue; // stale entry
            }
            if &u[ji] < s {
                // Dead: rate 1 from s on still misses d_j.
                return Err(SweepFailure {
                    streak,
                    end: e.clone(),
                    dead: Some((data.release[ji].clone(), data.deadline[ji].clone())),
                });
            }
            let x: N = e - &u[ji];
            // x ≤ rem (since e ≤ d_j) and x ≤ |E| (since u ≥ s).
            rem[ji] -= &x;
            u[ji] += &x;
            cap = &cap - &x;
            if cap < zero {
                // Forced load alone exceeds m·|E|.
                return Err(SweepFailure {
                    streak,
                    end: e.clone(),
                    dead: None,
                });
            }
            if rem[ji] > zero {
                uheap.push(Reverse((u[ji].clone(), j)));
            } else {
                unfinished -= 1;
            }
            xcur[ji] += &x;
            touched.push(j);
        }
        // Surplus, earliest deadline first, up to each job's rate cap.
        stash.clear();
        while cap > zero {
            let Some(Reverse((d, j))) = dheap.pop() else {
                break;
            };
            let ji = j as usize;
            if rem[ji] == zero {
                continue; // finished — drop the entry
            }
            let room: N = &len - &xcur[ji];
            if room == zero {
                stash.push((d, j)); // at rate cap for this interval
                continue;
            }
            let give = if rem[ji] <= room && rem[ji] <= cap {
                rem[ji].clone()
            } else if room <= cap {
                room
            } else {
                cap.clone()
            };
            rem[ji] -= &give;
            u[ji] += &give;
            cap = &cap - &give;
            if rem[ji] > zero {
                uheap.push(Reverse((u[ji].clone(), j)));
                xcur[ji] += &give;
                touched.push(j);
                stash.push((d, j));
            } else {
                unfinished -= 1;
            }
        }
        for (d, j) in stash.drain(..) {
            dheap.push(Reverse((d, j)));
        }
        for &j in &touched {
            xcur[j as usize] = zero.clone();
        }
        if cap > zero {
            streak = e.clone();
        }
    }
    // Every alive job is forced to completion (or to a failure above) by
    // the mandatory stage of its deadline interval, so nothing is left.
    debug_assert_eq!(unfinished, 0);
    if unfinished == 0 {
        Ok(())
    } else {
        Err(SweepFailure {
            streak,
            end: data.pts.last().expect("nonempty event points").clone(),
            dead: None,
        })
    }
}

/// A reusable feasibility decider that dispatches each probe to the
/// cheapest sound path for the instance's [`StructureClass`]: the
/// certifier sandwich (sweep witness / lower-bound witness) for
/// agreeable and laminar instances, the flow prober for general ones,
/// and a flow rescue for the rare structured probe neither witness
/// settles. Verdicts are identical to [`crate::feasible_on`] on every
/// instance — by construction on the witness paths, trivially on the
/// flow paths — and the property suite re-verifies this end to end.
///
/// It is also the one budgeted decider: only flow probes are charged to a
/// [`Budget`], and the decider keeps the evidence of its flows, so a proof
/// of its answer is read off it ([`crate::proof_for_solve_from`]) instead
/// of being re-solved.
pub struct FastProber<'a> {
    instance: &'a Instance,
    class: StructureClass,
    path: DecisionPath,
    jobs: usize,
    backend: Option<SweepBackend>,
    /// Flow prober: primary engine for general instances, rescue engine
    /// for structured ones. Built lazily on first use.
    prober: Option<FeasibilityProber>,
    /// Laminar-only: max over nesting-forest windows of
    /// `⌈subtree volume / |W|⌉` (a Theorem-1 lower bound on `m(J)`).
    budget_bound: u64,
    /// `⌈total volume / |window union|⌉`, the classwide lower bound.
    volume_bound: u64,
    /// Monotone probe cache: every `m < infeasible_below` has been proven
    /// infeasible, every `m ≥ feasible_from` proven feasible. Sound
    /// because real feasibility is monotone in `m` and every certified
    /// verdict is a statement about real feasibility.
    infeasible_below: u64,
    feasible_from: u64,
    /// The last machine count a flow proved infeasible, with the
    /// elementary intervals on the source side of that flow's minimum cut.
    /// The cache only lets a flow probe above every refuted count, so this
    /// is the largest count any flow refuted.
    flow_cut: Option<(u64, Vec<bool>)>,
    dispatch: DispatchStats,
}

impl<'a> FastProber<'a> {
    /// Classifies `instance` and prepares the matching decision path.
    pub fn new(instance: &'a Instance) -> Self {
        let class = instance.classify();
        let path = path_of(class);
        let backend = match path {
            DecisionPath::Flow => None,
            _ => Some(build_backend(instance)),
        };
        // The budget bound is sound on any laminar window forest, which
        // `Both` instances have too.
        let budget_bound = match class {
            StructureClass::Laminar | StructureClass::Both => laminar_budget_bound(instance),
            _ => 0,
        };
        let volume_bound = instance.volume_lower_bound();
        FastProber {
            instance,
            class,
            path,
            jobs: instance.len(),
            backend,
            prober: None,
            budget_bound,
            volume_bound,
            infeasible_below: volume_bound.max(budget_bound),
            feasible_from: u64::MAX,
            flow_cut: None,
            dispatch: DispatchStats::default(),
        }
    }

    /// The instance this decider answers for.
    pub(crate) fn instance(&self) -> &'a Instance {
        self.instance
    }

    /// The instance's structure class.
    pub fn class(&self) -> StructureClass {
        self.class
    }

    /// The decision path probes are dispatched to.
    pub fn path(&self) -> DecisionPath {
        self.path
    }

    /// Probe dispatch counters.
    pub fn dispatch(&self) -> DispatchStats {
        self.dispatch
    }

    /// Work counters of the flow prober (all zero if no flow has run).
    pub fn flow_stats(&self) -> ProberStats {
        self.prober
            .as_ref()
            .map(FeasibilityProber::stats)
            .unwrap_or_default()
    }

    /// The Theorem-1 lower bound on `m(J)` known without probing (volume
    /// density, plus nesting-forest budgets on laminar instances).
    pub fn lower_bound(&self) -> u64 {
        self.volume_bound.max(self.budget_bound)
    }

    /// The certified bracket `[lo, hi]` around `m(J)` from everything
    /// decided so far: the lower bounds and refuted counts below, proven
    /// feasible counts and one machine per job above.
    pub fn bracket(&self) -> (u64, u64) {
        if self.jobs == 0 {
            return (0, 0);
        }
        let n = self.jobs as u64;
        (self.infeasible_below.max(1), self.feasible_from.min(n))
    }

    /// Whether certifier arithmetic runs on integer ticks (for the flow
    /// path, defers to [`FeasibilityProber::uses_integer_ticks`]).
    pub fn uses_integer_ticks(&mut self) -> bool {
        match &self.backend {
            Some(SweepBackend::Ticks { .. }) => true,
            Some(SweepBackend::Exact { .. }) => false,
            None => self.flow_prober().uses_integer_ticks(),
        }
    }

    /// The flow prober, built on first use. Proof building reuses it: its
    /// read-back calls reset the flow, so they match a fresh build exactly.
    pub(crate) fn flow_prober(&mut self) -> &mut FeasibilityProber {
        self.prober
            .get_or_insert_with(|| FeasibilityProber::new(self.instance))
    }

    /// The Theorem-1 witness against `m` read from the minimum cut of this
    /// decider's own maximum flow at `m`, when a flow refuted exactly `m`.
    /// The source side of a minimum cut is the same for every maximum flow,
    /// so this equals [`FeasibilityProber::infeasible_witness`] on a fresh
    /// build.
    pub fn flow_witness(&self, m: u64) -> Option<IntervalSet> {
        match (&self.flow_cut, &self.prober) {
            (Some((at, cut)), Some(prober)) if *at == m => prober.witness_of(cut),
            _ => None,
        }
    }

    /// Runs only the certifier engines (monotone cache, lower bounds,
    /// sweep witnesses, blame windows): `Some(verdict)` when a witness
    /// settles the probe, `None` when only the flow oracle could decide
    /// (general instances, or a structured probe in the certifier gap).
    /// Never builds a flow network.
    pub fn try_certify(&mut self, m: u64) -> Option<bool> {
        if self.jobs == 0 {
            self.bump_certified(); // vacuous witness, no engine ran
            return Some(true);
        }
        if m == 0 {
            self.bump_certified();
            return Some(false);
        }
        // Monotone cache: prior verdicts (all statements about real
        // feasibility) settle this probe without running any engine.
        if m < self.infeasible_below {
            self.bump_certified();
            return Some(false);
        }
        if m >= self.feasible_from {
            self.bump_certified();
            return Some(true);
        }
        match self.backend.as_mut()?.certify(m) {
            SweepVerdict::Feasible => {
                self.bump_certified();
                self.record(m, true);
                Some(true)
            }
            SweepVerdict::Infeasible => {
                self.bump_certified();
                self.record(m, false);
                Some(false)
            }
            SweepVerdict::Unknown => None,
        }
    }

    /// Decides feasibility on `m` machines — same answer as
    /// [`crate::feasible_on`], at certifier cost where the class allows.
    pub fn feasible(&mut self, m: u64) -> bool {
        self.decide_budgeted_traced(m, &Budget::unlimited(), NoopSink)
            .decided()
            .expect("unlimited budget never trips")
    }

    /// Decides feasibility on `m` machines under `budget`: the certifier
    /// engines first, charged nothing, then a flow probe under `budget`
    /// whose events go to `sink`. [`Verdict::Unknown`] means the budget
    /// tripped first, and nothing was learned.
    pub fn decide_budgeted_traced<S: TraceSink>(
        &mut self,
        m: u64,
        budget: &Budget,
        sink: S,
    ) -> Verdict {
        if let Some(feasible) = self.try_certify(m) {
            return Verdict::from_bool(feasible);
        }
        if self.path == DecisionPath::Flow {
            self.dispatch.flow += 1;
        } else {
            // Certifier gap: no witness either way — the flow decides.
            self.dispatch.rescued += 1;
        }
        let prober = self.flow_prober();
        let verdict = prober.probe_budgeted_traced(m, budget, sink);
        if verdict == Verdict::Infeasible {
            self.flow_cut = Some((m, prober.cut_intervals()));
        }
        if let Some(feasible) = verdict.decided() {
            self.record(m, feasible);
        }
        verdict
    }

    fn record(&mut self, m: u64, feasible: bool) {
        if feasible {
            self.feasible_from = self.feasible_from.min(m);
        } else {
            self.infeasible_below = self.infeasible_below.max(m + 1);
        }
    }

    fn bump_certified(&mut self) {
        match self.path {
            DecisionPath::Agreeable => self.dispatch.agreeable += 1,
            DecisionPath::Laminar => self.dispatch.laminar += 1,
            DecisionPath::Flow => self.dispatch.flow += 1,
        }
    }

    /// The minimum machine count, by exponential bracketing plus binary
    /// search over [`Self::feasible`]. Identical to
    /// [`crate::optimal_machines`] on every instance.
    pub fn optimal_machines(&mut self) -> u64 {
        self.optimal_machines_budgeted_traced(&Budget::unlimited(), NoopSink)
            .exact
            .expect("unlimited budget never trips")
    }

    /// [`Self::optimal_machines`] with every flow probe under `budget` and
    /// reported to `sink`, with each bracket update. Certifier verdicts are
    /// never charged to the budget. The search stops at the first flow
    /// probe the budget cancels and returns the certified
    /// [`Self::bracket`], which always lies within `[max(vlb, 1), n]`.
    pub fn optimal_machines_budgeted_traced<S: TraceSink>(
        &mut self,
        budget: &Budget,
        mut sink: S,
    ) -> BudgetedSearch {
        if self.jobs == 0 {
            return BudgetedSearch::exact_at(0);
        }
        match self.search(budget, &mut sink) {
            Ok(m) => BudgetedSearch::exact_at(m),
            Err(e) => {
                if sink.enabled() {
                    sink.record(&TraceEvent::BudgetExceeded {
                        site: "search",
                        reason: e.tag(),
                    });
                }
                let (lo, hi) = self.bracket();
                BudgetedSearch {
                    lo,
                    hi,
                    exact: None,
                    exceeded: Some(e),
                    unknown_probes: 1,
                }
            }
        }
    }

    fn search<S: TraceSink>(
        &mut self,
        budget: &Budget,
        sink: &mut S,
    ) -> Result<u64, BudgetExceeded> {
        let mut lo = self.lower_bound().max(1);
        if self.step(lo, budget, sink)? {
            return Ok(lo);
        }
        // Exponential escalation: certifier probes are cheap and the gap
        // between the volume bound and the optimum is small in practice,
        // so doubling beats jumping straight to the `n` upper bound.
        let mut hi = lo.saturating_mul(2);
        let n = self.jobs as u64;
        while hi < n && !self.step(hi, budget, sink)? {
            lo = hi;
            hi = hi.saturating_mul(2);
        }
        let mut hi = hi.min(n);
        // invariant: infeasible(lo), feasible(hi)
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.step(mid, budget, sink)? {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Ok(hi)
    }

    /// One search step: a decision, then the bracket it leaves, reported
    /// as the largest refuted and the smallest feasible count.
    fn step<S: TraceSink>(
        &mut self,
        m: u64,
        budget: &Budget,
        sink: &mut S,
    ) -> Result<bool, BudgetExceeded> {
        let verdict = self.decide_budgeted_traced(m, budget, &mut *sink);
        let feasible = match verdict {
            Verdict::Unknown(e) => return Err(e),
            decided => decided == Verdict::Feasible,
        };
        if sink.enabled() {
            let (lo, hi) = self.bracket();
            sink.record(&TraceEvent::BinarySearchStep { lo: lo - 1, hi });
        }
        Ok(feasible)
    }
}

/// Collects per-job columns and event points in the cheapest exact
/// arithmetic: integer ticks when the whole instance rescales, `Rat`s
/// otherwise.
fn build_backend(instance: &Instance) -> SweepBackend {
    let pts = instance.event_points();
    let mut vals: Vec<Rat> = Vec::with_capacity(pts.len() + 3 * instance.len());
    vals.extend(pts.iter().cloned());
    for j in instance.iter() {
        vals.push(j.release.clone());
        vals.push(j.deadline.clone());
        vals.push(j.processing.clone());
    }
    if let Some((_, ticks)) = Timeline::build(&vals) {
        let (pt_ticks, job_ticks) = ticks.split_at(pts.len());
        let mut data = SweepData {
            release: Vec::with_capacity(instance.len()),
            deadline: Vec::with_capacity(instance.len()),
            processing: Vec::with_capacity(instance.len()),
            pts: pt_ticks.iter().map(|&t| t as i128).collect(),
        };
        for c in job_ticks.chunks_exact(3) {
            data.release.push(c[0] as i128);
            data.deadline.push(c[1] as i128);
            data.processing.push(c[2] as i128);
        }
        return SweepBackend::Ticks {
            fwd: data,
            rev: None,
        };
    }
    SweepBackend::Exact {
        fwd: SweepData {
            release: instance.iter().map(|j| j.release.clone()).collect(),
            deadline: instance.iter().map(|j| j.deadline.clone()).collect(),
            processing: instance.iter().map(|j| j.processing.clone()).collect(),
            pts,
        },
        rev: None,
    }
}

/// The laminar nesting-forest budget bound: for every distinct window `W`
/// of the instance, all jobs whose windows nest inside `W` contribute
/// their full volume on `W` (Theorem 1 on the single interval `W`), so
/// `m(J) ≥ ⌈Σ_{I(j) ⊆ W} p_j / |W|⌉`. Computed in one stack sweep over
/// the canonical (release asc, deadline desc) order.
fn laminar_budget_bound(instance: &Instance) -> u64 {
    let mut bound = 0u64;
    // (window, subtree volume) — the canonical order visits a laminar
    // forest in DFS preorder, so a stack suffices.
    let mut stack: Vec<(Rat, Rat, Rat)> = Vec::new(); // (start, end, volume)
    let close = |frame: (Rat, Rat, Rat), stack: &mut Vec<(Rat, Rat, Rat)>, bound: &mut u64| {
        let (start, end, vol) = frame;
        let density = &vol / (&end - &start);
        *bound = (*bound).max(density.ceil_u64());
        if let Some(parent) = stack.last_mut() {
            parent.2 += vol;
        }
    };
    for j in instance.iter() {
        let w = j.window();
        while let Some(top) = stack.last() {
            // Disjoint predecessor windows are finished; nested ones stay.
            if top.1 <= w.start {
                let frame = stack.pop().expect("stack top exists");
                close(frame, &mut stack, &mut bound);
            } else {
                break;
            }
        }
        if let Some(top) = stack.last_mut() {
            if top.0 == w.start && top.1 == w.end {
                // Same window: merge volumes instead of nesting.
                top.2 += &j.processing;
                continue;
            }
        }
        stack.push((w.start, w.end, j.processing.clone()));
    }
    while let Some(frame) = stack.pop() {
        close(frame, &mut stack, &mut bound);
    }
    bound
}

/// One-shot dispatching feasibility check: `(verdict, path)`.
pub fn feasible_on_fast(instance: &Instance, m: u64) -> (bool, DecisionPath) {
    let mut p = FastProber::new(instance);
    (p.feasible(m), p.path())
}

/// One-shot dispatching optimum: `(machines, path)`. Identical answers to
/// [`crate::optimal_machines`] at certifier cost on structured classes.
pub fn optimal_machines_fast(instance: &Instance) -> (u64, DecisionPath) {
    let mut p = FastProber::new(instance);
    (p.optimal_machines(), p.path())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::{feasible_on, optimal_machines};

    fn check_all_m(inst: &Instance) {
        let mut fast = FastProber::new(inst);
        let hi = inst.len() as u64 + 1;
        for m in 0..=hi {
            assert_eq!(
                fast.feasible(m),
                feasible_on(inst, m),
                "m={m} class={:?}",
                inst.classify()
            );
        }
        let mut fast = FastProber::new(inst);
        assert_eq!(fast.optimal_machines(), optimal_machines(inst));
    }

    #[test]
    fn vacuously_agreeable_with_nested_bursts() {
        // Equal releases nest windows while staying agreeable; the worst
        // Theorem-1 union here is the *pair* of bursts [0,1) ∪ [9,10)
        // (density 5/2 → m=3), which single-interval bounds miss — the
        // sweep must still answer exactly.
        let inst = Instance::from_ints([(0, 10, 9), (0, 1, 1), (0, 1, 1), (9, 10, 1), (9, 10, 1)]);
        assert!(inst.is_agreeable());
        check_all_m(&inst);
        assert_eq!(optimal_machines_fast(&inst).0, 3);
    }

    #[test]
    fn fluid_tie_sharing_beats_discrete_edf() {
        // Discrete EDF starves the long job; the fluid sweep shares the
        // interval and certifies feasibility on 2 machines.
        let inst = Instance::from_triples([
            (Rat::zero(), Rat::from(1), Rat::ratio(1, 2)),
            (Rat::zero(), Rat::from(1), Rat::ratio(1, 2)),
            (Rat::zero(), Rat::from(2), Rat::from(2)),
        ]);
        let (feasible, path) = feasible_on_fast(&inst, 2);
        assert_eq!(path, DecisionPath::Agreeable);
        assert!(feasible);
        check_all_m(&inst);
    }

    #[test]
    fn laminar_self_parallelism_cap() {
        // Volume budgets alone pass m=2 here, but the big job cannot run in
        // parallel with itself: the sweep must report infeasible on 2.
        let inst = Instance::from_ints([(0, 5, 2), (0, 5, 3), (0, 5, 3), (0, 5, 2), (0, 10, 6)]);
        assert!(inst.is_laminar());
        let (feasible, _) = feasible_on_fast(&inst, 2);
        assert!(!feasible);
        check_all_m(&inst);
    }

    #[test]
    fn laminar_budget_bound_is_reachable() {
        // Nested chain: inner [0,2) holds 4 units → bound 2; outer adds
        // volume that only binds on the outer window.
        let inst = Instance::from_ints([(0, 4, 2), (0, 2, 2), (0, 2, 2)]);
        assert!(inst.is_laminar());
        assert_eq!(laminar_budget_bound(&inst), 2);
        check_all_m(&inst);
    }

    #[test]
    fn general_instances_take_the_flow_path() {
        // Crossing windows: neither laminar nor agreeable.
        let inst = Instance::from_ints([(0, 3, 2), (1, 2, 1), (2, 5, 2), (1, 6, 3), (4, 5, 1)]);
        let mut fast = FastProber::new(&inst);
        if fast.path() == DecisionPath::Flow {
            check_all_m(&inst);
            assert!(fast.dispatch().total() == 0);
            fast.feasible(1);
            assert_eq!(fast.dispatch().flow, 1);
        } else {
            panic!("expected a general instance, got {:?}", fast.class());
        }
    }

    #[test]
    fn fractional_coordinates_stay_exact() {
        let inst = Instance::from_triples([
            (Rat::zero(), Rat::ratio(1, 3), Rat::ratio(1, 3)),
            (Rat::zero(), Rat::ratio(1, 3), Rat::ratio(1, 6)),
        ]);
        check_all_m(&inst);
    }

    #[test]
    fn empty_and_trivial() {
        assert_eq!(optimal_machines_fast(&Instance::empty()).0, 0);
        let inst = Instance::from_ints([(0, 4, 2)]);
        check_all_m(&inst);
    }

    #[test]
    fn generator_cross_check() {
        use mm_instance::generators::{
            agreeable, laminar, uniform, AgreeableCfg, LaminarCfg, UniformCfg,
        };
        for seed in 0..6 {
            let a = agreeable(
                &AgreeableCfg {
                    n: 24,
                    ..Default::default()
                },
                seed,
            );
            check_all_m(&a);
            let l = laminar(
                &LaminarCfg {
                    depth: 3,
                    branching: 2,
                    ..Default::default()
                },
                seed,
            );
            check_all_m(&l);
            let u = uniform(
                &UniformCfg {
                    n: 18,
                    ..Default::default()
                },
                seed,
            );
            check_all_m(&u);
        }
    }
}

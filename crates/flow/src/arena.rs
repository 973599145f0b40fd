//! Structure-of-arrays flow arena: Dinic on flat parallel arrays.
//!
//! At 10^5–10^6 jobs a network with one edge vector per node would scatter
//! the residual graph across the heap, and every DFS step would chase a
//! pointer. The arena lays the graph out CSR-style instead:
//!
//! * edges live in flat parallel arrays (`next`/`to`/`cap`, plus per-node
//!   `head`/`tail` cursors) — one allocation each, grown once;
//! * an edge and its reverse are adjacent (`e ^ 1`), so the residual update
//!   needs no `rev` pointer array;
//! * per-node adjacency is an intrusive list appended in insertion order, so
//!   the sequence of augmenting paths — and every deterministic counter —
//!   is a function of the edges and the order they were added in, whatever
//!   the capacity type;
//! * the blocking-flow DFS is iterative (an explicit edge stack), so a
//!   million-node path cannot overflow the call stack;
//! * [`ArenaNetwork::clear`] rewinds the arena to an empty network *without
//!   freeing anything*, so a prober can rebuild for a new instance
//!   allocation-free.
//!
//! The property tests hold it to an independent Edmonds–Karp oracle, and
//! its `i128` and `Rat` instantiations to the same augmenting paths on
//! proportional capacities.

use mm_fault::{BudgetExceeded, BudgetMeter};

use crate::{EdgeHandle, FlowNum};

const NONE: u32 = u32::MAX;

/// A directed flow network with exact capacities on a flat edge arena,
/// tuned for networks with 10^5+ nodes.
#[derive(Debug, Clone)]
pub struct ArenaNetwork<N: FlowNum> {
    /// First edge out of each node (`NONE` when isolated).
    head: Vec<u32>,
    /// Last edge out of each node, for insertion-order append.
    tail: Vec<u32>,
    /// Next edge in the same node's list (`NONE` at the end).
    next: Vec<u32>,
    /// Head endpoint of each edge; the reverse of edge `e` is `e ^ 1`.
    to: Vec<u32>,
    /// Residual capacity of each edge.
    cap: Vec<N>,
    /// Original capacity of each *forward* edge, by handle.
    original_caps: Vec<N>,
    /// Total augmenting paths found over the arena's lifetime.
    augmentations: u64,
    // Scratch reused across phases, calls, and `clear`s.
    level: Vec<u32>,
    iter: Vec<u32>,
    queue: Vec<u32>,
    path: Vec<u32>,
}

impl<N: FlowNum> ArenaNetwork<N> {
    /// Creates an arena with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        Self::with_capacity(n, 0)
    }

    /// Creates an arena with `n` nodes and room for `edges` forward edges,
    /// so the build loop never reallocates.
    pub fn with_capacity(n: usize, edges: usize) -> Self {
        ArenaNetwork {
            head: vec![NONE; n],
            tail: vec![NONE; n],
            next: Vec::with_capacity(2 * edges),
            to: Vec::with_capacity(2 * edges),
            cap: Vec::with_capacity(2 * edges),
            original_caps: Vec::with_capacity(edges),
            augmentations: 0,
            level: Vec::new(),
            iter: Vec::new(),
            queue: Vec::new(),
            path: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.head.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.head.is_empty()
    }

    /// Rewinds to an empty network with `n` nodes, keeping every allocation
    /// (edge arrays, adjacency cursors, scratch). The lifetime
    /// [`Self::augmentations`] counter is preserved, matching the way
    /// [`Self::reset`] preserves it.
    pub fn clear(&mut self, n: usize) {
        self.head.clear();
        self.head.resize(n, NONE);
        self.tail.clear();
        self.tail.resize(n, NONE);
        self.next.clear();
        self.to.clear();
        self.cap.clear();
        self.original_caps.clear();
    }

    /// Adds a directed edge `from → to` with the given capacity.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: N) -> EdgeHandle {
        assert!(
            from < self.head.len() && to < self.head.len(),
            "node out of range"
        );
        assert!(from != to, "self-loops are not supported");
        assert!(self.original_caps.len() < (NONE / 2) as usize, "arena full");
        let fwd = self.push_half(from, to, cap.clone());
        self.push_half(to, from, N::zero());
        self.original_caps.push(cap);
        debug_assert_eq!(fwd as usize, 2 * (self.original_caps.len() - 1));
        EdgeHandle(self.original_caps.len() - 1)
    }

    /// Appends one directed half-edge at the tail of `from`'s list so that
    /// adjacency order equals insertion order.
    fn push_half(&mut self, from: usize, to: usize, cap: N) -> u32 {
        let e = self.to.len() as u32;
        self.to.push(to as u32);
        self.cap.push(cap);
        self.next.push(NONE);
        match self.tail[from] {
            NONE => self.head[from] = e,
            t => self.next[t as usize] = e,
        }
        self.tail[from] = e;
        e
    }

    /// Flow currently routed through an edge (valid after `max_flow`).
    pub fn flow(&self, handle: EdgeHandle) -> N {
        self.original_caps[handle.0].sub(&self.cap[2 * handle.0])
    }

    /// Original capacity of an edge.
    pub fn capacity(&self, handle: EdgeHandle) -> N {
        self.original_caps[handle.0].clone()
    }

    /// Total augmenting paths found over the arena's lifetime (preserved by
    /// [`Self::reset`] and [`Self::clear`]).
    pub fn augmentations(&self) -> u64 {
        self.augmentations
    }

    /// Clears all flow in place: forward edges return to their original
    /// capacity, reverse edges to zero. Keeps nodes, edges, allocations.
    pub fn reset(&mut self) {
        for (h, orig) in self.original_caps.iter().enumerate() {
            self.cap[2 * h] = orig.clone();
            self.cap[2 * h + 1] = N::zero();
        }
    }

    /// Replaces an edge's capacity, clearing any flow on it. Conservation
    /// at its endpoints is *not* restored — callers [`Self::reset`] first or
    /// otherwise re-solve from a consistent state.
    pub fn set_capacity(&mut self, handle: EdgeHandle, cap: N) {
        self.cap[2 * handle.0] = cap.clone();
        self.cap[2 * handle.0 + 1] = N::zero();
        self.original_caps[handle.0] = cap;
    }

    /// Raises an edge's capacity to `cap` (≥ the current capacity),
    /// preserving routed flow so the next solve continues incrementally.
    pub fn raise_capacity(&mut self, handle: EdgeHandle, cap: N) {
        let old = self.original_caps[handle.0].clone();
        assert!(cap >= old, "raise_capacity would lower the capacity");
        let delta = cap.sub(&old);
        self.cap[2 * handle.0] = self.cap[2 * handle.0].add(&delta);
        self.original_caps[handle.0] = cap;
    }

    /// Computes the maximum `source → sink` flow (Dinic, iterative blocking
    /// flow). Calling again continues from the current residual state.
    pub fn max_flow(&mut self, source: usize, sink: usize) -> N {
        match self.max_flow_budgeted(source, sink, &mut BudgetMeter::unlimited()) {
            Ok(total) => total,
            Err(_) => unreachable!("unlimited meter never trips"),
        }
    }

    /// [`Self::max_flow`] with cooperative cancellation: one phase tick per
    /// BFS, one augmentation tick per path *attempt* (so a phase that finds
    /// `k` paths ticks `k + 1` times, and a meter never lets more paths
    /// through than its augmentation limit). On `Err` the network holds
    /// a valid partial flow (conservation holds), so a later call resumes
    /// from it. On `Ok` it returns the flow added by *this* call.
    pub fn max_flow_budgeted(
        &mut self,
        source: usize,
        sink: usize,
        meter: &mut BudgetMeter,
    ) -> Result<N, BudgetExceeded> {
        assert!(source != sink, "source must differ from sink");
        let n = self.head.len();
        self.level.resize(n, NONE);
        self.iter.resize(n, NONE);
        let mut total = N::zero();
        loop {
            meter.tick_phase()?;
            if !self.bfs(source, sink) {
                return Ok(total);
            }
            self.iter.copy_from_slice(&self.head);
            self.path.clear();
            let mut u = source as u32;
            meter.tick_augmentation()?;
            // Iterative advance/augment/retreat. Equivalent to the recursive
            // pointer DFS: after an augmentation, restarting from the source
            // would re-follow the same unsaturated prefix, so retreating to
            // the first saturated edge yields the identical path sequence.
            loop {
                if u as usize == sink {
                    let f = self.augment();
                    self.augmentations += 1;
                    total = total.add(&f);
                    meter.tick_augmentation()?;
                    u = self.retreat_saturated(source);
                    continue;
                }
                // Advance along the first admissible edge out of `u`.
                let mut e = self.iter[u as usize];
                while e != NONE {
                    let v = self.to[e as usize];
                    if !self.cap[e as usize].is_zero()
                        && self.level[v as usize] == self.level[u as usize] + 1
                    {
                        break;
                    }
                    e = self.next[e as usize];
                }
                self.iter[u as usize] = e;
                if e != NONE {
                    self.path.push(e);
                    u = self.to[e as usize];
                } else if u as usize == source {
                    break; // phase blocked
                } else {
                    // Dead end: drop the incoming edge and back up past it.
                    let pe = self.path.pop().expect("non-source node has a path");
                    u = self.to[pe as usize ^ 1];
                    self.iter[u as usize] = self.next[pe as usize];
                }
            }
        }
    }

    /// BFS level graph over residual edges; `true` iff the sink is reached.
    fn bfs(&mut self, source: usize, sink: usize) -> bool {
        self.level.fill(NONE);
        self.level[source] = 0;
        self.queue.clear();
        self.queue.push(source as u32);
        let mut qi = 0;
        while qi < self.queue.len() {
            let u = self.queue[qi] as usize;
            qi += 1;
            let mut e = self.head[u];
            while e != NONE {
                let v = self.to[e as usize] as usize;
                if !self.cap[e as usize].is_zero() && self.level[v] == NONE {
                    self.level[v] = self.level[u] + 1;
                    self.queue.push(v as u32);
                }
                e = self.next[e as usize];
            }
        }
        self.level[sink] != NONE
    }

    /// Pushes the bottleneck of the current source→sink path through its
    /// residual edges and returns it.
    fn augment(&mut self) -> N {
        debug_assert!(!self.path.is_empty());
        let mut f = self.cap[self.path[0] as usize].clone();
        for &e in &self.path[1..] {
            if self.cap[e as usize] < f {
                f = self.cap[e as usize].clone();
            }
        }
        for &e in &self.path {
            self.cap[e as usize] = self.cap[e as usize].sub(&f);
            self.cap[e as usize ^ 1] = self.cap[e as usize ^ 1].add(&f);
        }
        f
    }

    /// Truncates the path at its first saturated edge and returns the node
    /// the next advance starts from (the source if the whole path
    /// survived — impossible right after an augmentation — or the tail of
    /// the first zero-capacity edge).
    fn retreat_saturated(&mut self, source: usize) -> u32 {
        let mut keep = self.path.len();
        for (i, &e) in self.path.iter().enumerate() {
            if self.cap[e as usize].is_zero() {
                keep = i;
                break;
            }
        }
        self.path.truncate(keep);
        match self.path.last() {
            Some(&e) => self.to[e as usize],
            None => source as u32,
        }
    }

    /// After a [`Self::max_flow`] call that returned, whether its final BFS
    /// (the one that no longer reached the sink) reached `v`. Those nodes
    /// are the set [`Self::residual_reachable`] computes, read without
    /// another traversal. Stale once any capacity or flow changes.
    pub fn reached_by_final_bfs(&self, v: usize) -> bool {
        self.level.get(v).is_some_and(|&l| l != NONE)
    }

    /// After [`Self::max_flow`], marks the nodes reachable from `source` in
    /// the residual graph — the source side of a minimum cut. The interval
    /// nodes on this side are exactly the Theorem-1 witness intervals the
    /// infeasibility certificate is extracted from.
    pub fn residual_reachable(&self, source: usize) -> Vec<bool> {
        let n = self.head.len();
        let mut seen = vec![false; n];
        seen[source] = true;
        let mut stack = vec![source];
        while let Some(u) = stack.pop() {
            let mut e = self.head[u];
            while e != NONE {
                let v = self.to[e as usize] as usize;
                if !self.cap[e as usize].is_zero() && !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
                e = self.next[e as usize];
            }
        }
        seen
    }

    /// After [`Self::max_flow`], returns a minimum `s`–`t` cut as the
    /// saturated forward edges out of the source-reachable residual side.
    pub fn min_cut(&self, source: usize) -> Vec<EdgeHandle> {
        let seen = self.residual_reachable(source);
        let mut cut = Vec::new();
        for h in 0..self.original_caps.len() {
            let from = self.to[2 * h + 1] as usize;
            let to = self.to[2 * h] as usize;
            if seen[from] && !seen[to] {
                cut.push(EdgeHandle(h));
            }
        }
        cut
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_fault::Budget;
    use mm_numeric::Rat;

    fn r(n: i64, d: i64) -> Rat {
        Rat::ratio(n, d)
    }

    #[test]
    fn single_edge() {
        let mut net = ArenaNetwork::<u64>::new(2);
        let e = net.add_edge(0, 1, 7);
        assert_eq!(net.max_flow(0, 1), 7);
        assert_eq!(net.flow(e), 7);
    }

    #[test]
    fn disconnected_is_zero() {
        let mut net = ArenaNetwork::<u64>::new(4);
        net.add_edge(0, 1, 5);
        net.add_edge(2, 3, 5);
        assert_eq!(net.max_flow(0, 3), 0);
    }

    #[test]
    fn bottleneck_is_the_flow_and_the_min_cut() {
        let mut net = ArenaNetwork::<u64>::new(4);
        net.add_edge(0, 1, 10);
        let mid = net.add_edge(1, 2, 1);
        net.add_edge(2, 3, 10);
        assert_eq!(net.max_flow(0, 3), 1);
        assert_eq!(net.min_cut(0), vec![mid]);
    }

    #[test]
    fn bipartite_matching() {
        // 3 left, 3 right, perfect matching exists.
        let mut net = ArenaNetwork::<u64>::new(8);
        let (s, t) = (0, 7);
        for l in 1..=3 {
            net.add_edge(s, l, 1);
        }
        for rn in 4..=6 {
            net.add_edge(rn, t, 1);
        }
        // L1-{R1,R2}, L2-{R1}, L3-{R2,R3}
        net.add_edge(1, 4, 1);
        net.add_edge(1, 5, 1);
        net.add_edge(2, 4, 1);
        net.add_edge(3, 5, 1);
        net.add_edge(3, 6, 1);
        assert_eq!(net.max_flow(s, t), 3);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut net = ArenaNetwork::<u64>::new(2);
        net.add_edge(1, 1, 3);
    }

    #[test]
    fn diamond_and_readback() {
        let mut net = ArenaNetwork::<u64>::new(4);
        let e1 = net.add_edge(0, 1, 3);
        let e2 = net.add_edge(0, 2, 2);
        let e3 = net.add_edge(1, 3, 2);
        let e4 = net.add_edge(2, 3, 3);
        let e5 = net.add_edge(1, 2, 5);
        assert_eq!(net.max_flow(0, 3), 5);
        assert_eq!(net.flow(e1) + net.flow(e2), 5);
        assert_eq!(net.flow(e3) + net.flow(e4), 5);
        assert_eq!(net.flow(e1), net.flow(e3) + net.flow(e5));
        // Idempotent re-run.
        assert_eq!(net.max_flow(0, 3), 0);
    }

    #[test]
    fn routes_eight_units_in_two_paths() {
        // Insertion order fixes the augmenting paths, so the value *and*
        // the path count are pinned.
        let edges = [
            (0usize, 1usize, 4u64),
            (0, 2, 6),
            (1, 2, 2),
            (1, 3, 3),
            (2, 4, 5),
            (3, 5, 4),
            (4, 5, 7),
            (4, 3, 1),
        ];
        let mut net = ArenaNetwork::<u64>::new(6);
        for &(u, v, c) in &edges {
            net.add_edge(u, v, c);
        }
        assert_eq!(net.max_flow(0, 5), 8);
        assert_eq!(net.augmentations(), 2);
    }

    #[test]
    fn augmentations_count_paths() {
        let mut net = ArenaNetwork::<u64>::new(4);
        net.add_edge(0, 1, 1);
        net.add_edge(0, 2, 1);
        net.add_edge(1, 3, 1);
        net.add_edge(2, 3, 1);
        assert_eq!(net.augmentations(), 0);
        assert_eq!(net.max_flow(0, 3), 2);
        assert_eq!(net.augmentations(), 2);
        // Idempotent re-run finds no new paths.
        net.max_flow(0, 3);
        assert_eq!(net.augmentations(), 2);
    }

    #[test]
    fn rational_capacities() {
        let mut net = ArenaNetwork::<Rat>::new(3);
        net.add_edge(0, 1, r(1, 2));
        net.add_edge(0, 1, r(1, 3));
        net.add_edge(1, 2, r(1, 7));
        assert_eq!(net.max_flow(0, 2), r(1, 7));
    }

    #[test]
    fn rational_reset_and_rescale() {
        let mut net = ArenaNetwork::<Rat>::new(3);
        net.add_edge(0, 1, r(1, 2));
        let e = net.add_edge(1, 2, r(1, 3));
        assert_eq!(net.max_flow(0, 2), r(1, 3));
        net.reset();
        net.set_capacity(e, r(2, 5));
        assert_eq!(net.max_flow(0, 2), r(2, 5));
    }

    #[test]
    fn reset_set_raise() {
        let mut net = ArenaNetwork::<u64>::new(3);
        net.add_edge(0, 1, 10);
        let mid = net.add_edge(1, 2, 2);
        assert_eq!(net.max_flow(0, 2), 2);
        net.raise_capacity(mid, 6);
        assert_eq!(net.max_flow(0, 2), 4);
        assert_eq!(net.flow(mid), 6);
        net.reset();
        assert_eq!(net.flow(mid), 0);
        net.set_capacity(mid, 1);
        assert_eq!(net.max_flow(0, 2), 1);
    }

    #[test]
    #[should_panic(expected = "lower the capacity")]
    fn raise_capacity_rejects_decrease() {
        let mut net = ArenaNetwork::<u64>::new(2);
        let e = net.add_edge(0, 1, 5);
        net.raise_capacity(e, 3);
    }

    #[test]
    fn clear_reuses_arena() {
        let mut net = ArenaNetwork::<u64>::new(4);
        net.add_edge(0, 1, 3);
        net.add_edge(1, 3, 3);
        assert_eq!(net.max_flow(0, 3), 3);
        let lifetime = net.augmentations();
        net.clear(3);
        assert_eq!(net.len(), 3);
        net.add_edge(0, 1, 5);
        net.add_edge(1, 2, 4);
        assert_eq!(net.max_flow(0, 2), 4);
        assert!(net.augmentations() > lifetime);
    }

    #[test]
    fn min_cut_matches_flow_value() {
        let mut net = ArenaNetwork::<u64>::new(4);
        net.add_edge(0, 1, 3);
        net.add_edge(0, 2, 2);
        net.add_edge(1, 2, 5);
        net.add_edge(1, 3, 2);
        net.add_edge(2, 3, 3);
        let f = net.max_flow(0, 3);
        let cut = net.min_cut(0);
        let cut_cap: u64 = cut.iter().map(|h| net.capacity(*h)).sum();
        assert_eq!(cut_cap, f);
        for h in cut {
            assert_eq!(net.flow(h), net.capacity(h));
        }
        // The final BFS saw exactly the residual-reachable side, also after
        // a resumed flow on raised capacities.
        let final_bfs = |net: &ArenaNetwork<u64>| -> Vec<bool> {
            (0..4).map(|v| net.reached_by_final_bfs(v)).collect()
        };
        assert_eq!(final_bfs(&net), net.residual_reachable(0));
        let e = net.add_edge(0, 3, 1);
        net.raise_capacity(e, 4);
        assert_eq!(net.max_flow(0, 3), 4);
        assert_eq!(final_bfs(&net), net.residual_reachable(0));
    }

    #[test]
    fn min_cut_rational() {
        let mut net = ArenaNetwork::<Rat>::new(3);
        net.add_edge(0, 1, r(2, 3));
        net.add_edge(0, 1, r(1, 6));
        net.add_edge(1, 2, r(1, 2));
        let f = net.max_flow(0, 2);
        assert_eq!(f, r(1, 2));
        let mut total = Rat::zero();
        for h in net.min_cut(0) {
            total += net.capacity(h);
        }
        assert_eq!(total, f);
    }

    #[test]
    fn budgeted_cancellation_resumes() {
        let mut net = ArenaNetwork::<u64>::new(6);
        for mid in 1..5 {
            net.add_edge(0, mid, 1);
            net.add_edge(mid, 5, 1);
        }
        let budget = Budget::unlimited().with_augmentations(2);
        let mut meter = BudgetMeter::new(&budget);
        let err = net.max_flow_budgeted(0, 5, &mut meter).unwrap_err();
        assert!(matches!(err, BudgetExceeded::Augmentations { limit: 2 }));
        assert_eq!(net.max_flow(0, 5), 2);
        assert_eq!(net.augmentations(), 4);
    }

    #[test]
    fn augmentation_budgets_trip_after_their_limit() {
        // Three paths in one phase tick the meter four times: budgets 1–3
        // trip after that many paths, budgets 4–7 finish with flow 3.
        let edges = [
            (0usize, 1usize, 2u64),
            (0, 2, 2),
            (1, 3, 1),
            (1, 4, 1),
            (2, 4, 2),
            (3, 5, 2),
            (4, 5, 2),
        ];
        for limit in 1..8 {
            let mut net = ArenaNetwork::<u64>::new(6);
            for &(u, v, c) in &edges {
                net.add_edge(u, v, c);
            }
            let budget = Budget::unlimited().with_augmentations(limit);
            let got = net.max_flow_budgeted(0, 5, &mut BudgetMeter::new(&budget));
            if limit <= 3 {
                assert_eq!(got, Err(BudgetExceeded::Augmentations { limit }));
                assert_eq!(net.augmentations(), limit, "limit {limit}");
            } else {
                assert_eq!(got, Ok(3), "limit {limit}");
                assert_eq!(net.augmentations(), 3, "limit {limit}");
            }
        }
    }

    #[test]
    fn unlimited_meter_matches_max_flow() {
        let mut a = ArenaNetwork::<u64>::new(4);
        let mut b = ArenaNetwork::<u64>::new(4);
        for net in [&mut a, &mut b] {
            net.add_edge(0, 1, 3);
            net.add_edge(0, 2, 2);
            net.add_edge(1, 3, 2);
            net.add_edge(2, 3, 3);
            net.add_edge(1, 2, 5);
        }
        let mut meter = BudgetMeter::unlimited();
        assert_eq!(a.max_flow_budgeted(0, 3, &mut meter).unwrap(), 5);
        assert_eq!(b.max_flow(0, 3), 5);
        assert_eq!(a.augmentations(), b.augmentations());
    }

    #[test]
    fn i128_capacities() {
        let big = 1i128 << 90;
        let mut net = ArenaNetwork::<i128>::new(3);
        net.add_edge(0, 1, big);
        net.add_edge(1, 2, big / 2);
        assert_eq!(net.max_flow(0, 2), big / 2);
    }
}

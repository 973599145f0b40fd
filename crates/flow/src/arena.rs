//! Structure-of-arrays flow arena: Dinic on flat parallel arrays.
//!
//! [`super::FlowNetwork`] stores one `Vec<Edge>` per node — fine at a few
//! hundred nodes, but at 10^5–10^6 jobs the per-node vectors scatter the
//! residual graph across the heap and every DFS step chases pointers. This
//! module keeps the same algorithm and observable behaviour on a CSR-style
//! arena:
//!
//! * edges live in four flat parallel arrays (`next`/`to`/`cap`, plus
//!   per-node `head`/`tail` cursors) — one allocation each, grown once;
//! * an edge and its reverse are adjacent (`e ^ 1`), so the residual update
//!   needs no `rev` pointer array;
//! * per-node adjacency is an intrusive list appended in insertion order, so
//!   traversal order — and therefore the sequence of augmenting paths and
//!   every deterministic counter — matches the `Vec<Vec<Edge>>` network;
//! * the blocking-flow DFS is iterative (an explicit edge stack), so a
//!   million-node path cannot overflow the call stack;
//! * [`ArenaNetwork::clear`] rewinds the arena to an empty network *without
//!   freeing anything*, so a prober can rebuild for a new instance
//!   allocation-free.
//!
//! The old network stays as the reference oracle; the property tests check
//! the two agree on max-flow values over random graphs.

use mm_fault::{BudgetExceeded, BudgetMeter};

use crate::{EdgeHandle, FlowNum};

const NONE: u32 = u32::MAX;

/// A directed flow network on a flat edge arena. Same observable API as
/// [`crate::FlowNetwork`] (same `EdgeHandle` currency, same counter and
/// budget semantics), tuned for networks with 10^5+ nodes.
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

    /// Adds a node, returning its index.
    pub fn add_node(&mut self) -> usize {
        self.head.push(NONE);
        self.tail.push(NONE);
        self.head.len() - 1
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

    /// Replaces an edge's capacity, clearing any flow on it. As with
    /// [`crate::FlowNetwork::set_capacity`], conservation at the endpoints
    /// is not restored — callers reset or re-solve from a consistent state.
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

    /// Sum of residual capacities of forward edges out of `node`.
    pub fn out_capacity(&self, node: usize) -> N {
        let mut t = N::zero();
        let mut e = self.head[node];
        while e != NONE {
            if e.is_multiple_of(2) {
                t = t.add(&self.cap[e as usize]);
            }
            e = self.next[e as usize];
        }
        t
    }

    /// Computes the maximum `source → sink` flow (Dinic, iterative blocking
    /// flow). Calling again continues from the current residual state.
    pub fn max_flow(&mut self, source: usize, sink: usize) -> N {
        match self.max_flow_budgeted(source, sink, &mut BudgetMeter::unlimited()) {
            Ok(total) => total,
            Err(_) => unreachable!("unlimited meter never trips"),
        }
    }

    /// [`Self::max_flow`] with cooperative cancellation; the meter protocol
    /// matches [`crate::FlowNetwork::max_flow_budgeted`] exactly — one
    /// phase tick per BFS, one augmentation tick per path *attempt* (so a
    /// phase that finds `k` paths ticks `k + 1` times) — and cancellation
    /// leaves a valid partial flow that a later call resumes.
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
    use crate::FlowNetwork;
    use mm_numeric::Rat;

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
    fn matches_vec_network_path_for_path() {
        // Same graph, same insertion order: identical flow value *and*
        // identical augmentation counter.
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
        let mut old = FlowNetwork::<u64>::new(6);
        let mut arena = ArenaNetwork::<u64>::new(6);
        for &(u, v, c) in &edges {
            old.add_edge(u, v, c);
            arena.add_edge(u, v, c);
        }
        assert_eq!(arena.max_flow(0, 5), old.max_flow(0, 5));
        assert_eq!(arena.augmentations(), old.augmentations());
    }

    #[test]
    fn rational_capacities() {
        let mut net = ArenaNetwork::<Rat>::new(3);
        net.add_edge(0, 1, Rat::ratio(1, 2));
        net.add_edge(0, 1, Rat::ratio(1, 3));
        net.add_edge(1, 2, Rat::ratio(1, 7));
        assert_eq!(net.max_flow(0, 2), Rat::ratio(1, 7));
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
    fn budgeted_cancellation_resumes() {
        use mm_fault::{Budget, BudgetExceeded, BudgetMeter};
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
    fn meter_protocol_matches_vec_network() {
        use mm_fault::{Budget, BudgetMeter};
        // Run both networks under every augmentation budget from starving
        // to generous: tick-for-tick agreement means they trip identically.
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
            let mut old = FlowNetwork::<u64>::new(6);
            let mut arena = ArenaNetwork::<u64>::new(6);
            for &(u, v, c) in &edges {
                old.add_edge(u, v, c);
                arena.add_edge(u, v, c);
            }
            let budget = Budget::unlimited().with_augmentations(limit);
            let a = old.max_flow_budgeted(0, 5, &mut BudgetMeter::new(&budget));
            let b = arena.max_flow_budgeted(0, 5, &mut BudgetMeter::new(&budget));
            assert_eq!(a, b, "limit {limit}");
            assert_eq!(old.augmentations(), arena.augmentations(), "limit {limit}");
        }
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

//! Property tests: the arena's Dinic against an independent Edmonds–Karp
//! reference on random graphs, its two production capacity types against
//! each other, and per-edge flow validity.

use mm_flow::ArenaNetwork;
use proptest::prelude::*;
use std::collections::VecDeque;

/// Reference implementation: Edmonds–Karp on an adjacency matrix.
fn reference_max_flow(n: usize, edges: &[(usize, usize, u64)], s: usize, t: usize) -> u64 {
    let mut cap = vec![vec![0u64; n]; n];
    for &(u, v, c) in edges {
        cap[u][v] += c;
    }
    let mut flow = 0;
    loop {
        let mut parent = vec![usize::MAX; n];
        parent[s] = s;
        let mut q = VecDeque::new();
        q.push_back(s);
        while let Some(u) = q.pop_front() {
            for v in 0..n {
                if parent[v] == usize::MAX && cap[u][v] > 0 {
                    parent[v] = u;
                    q.push_back(v);
                }
            }
        }
        if parent[t] == usize::MAX {
            return flow;
        }
        let mut bottleneck = u64::MAX;
        let mut v = t;
        while v != s {
            let u = parent[v];
            bottleneck = bottleneck.min(cap[u][v]);
            v = u;
        }
        let mut v = t;
        while v != s {
            let u = parent[v];
            cap[u][v] -= bottleneck;
            cap[v][u] += bottleneck;
            v = u;
        }
        flow += bottleneck;
    }
}

fn arb_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize, u64)>)> {
    (3usize..10).prop_flat_map(|n| {
        let edge = (0..n, 0..n, 1u64..20).prop_filter("no self loop", |(u, v, _)| u != v);
        (Just(n), proptest::collection::vec(edge, 0..30))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dinic_matches_edmonds_karp((n, edges) in arb_graph()) {
        let s = 0;
        let t = n - 1;
        let mut net = ArenaNetwork::<u64>::new(n);
        for &(u, v, c) in &edges {
            net.add_edge(u, v, c);
        }
        let dinic = net.max_flow(s, t);
        let reference = reference_max_flow(n, &edges, s, t);
        prop_assert_eq!(dinic, reference);
    }

    #[test]
    fn rational_scaling_invariance((n, edges) in arb_graph(), num in 1i64..20, den in 1i64..20) {
        // The `i128` tick network and the `Rat` network scaled by `c` route
        // the same augmenting paths: equal path counts, and every edge's
        // rational flow is `c` times its tick flow.
        use mm_numeric::Rat;
        let s = 0;
        let t = n - 1;
        let c = Rat::ratio(num, den);
        let scaled = |ticks: i128| Rat::from(i64::try_from(ticks).unwrap()) * &c;
        let mut int_net = ArenaNetwork::<i128>::new(n);
        let mut rat_net = ArenaNetwork::<Rat>::new(n);
        let handles: Vec<_> = edges
            .iter()
            .map(|&(u, v, w)| {
                let w = i128::from(w);
                (int_net.add_edge(u, v, w), rat_net.add_edge(u, v, scaled(w)))
            })
            .collect();
        let f_int = int_net.max_flow(s, t);
        let f_rat = rat_net.max_flow(s, t);
        prop_assert_eq!(f_rat, scaled(f_int));
        prop_assert_eq!(rat_net.augmentations(), int_net.augmentations());
        for (hi, hr) in handles {
            prop_assert_eq!(rat_net.flow(hr), scaled(int_net.flow(hi)));
        }
    }

    #[test]
    fn arena_clear_reuse_matches_fresh((n, edges) in arb_graph(), (n2, edges2) in arb_graph()) {
        // Solving a second graph through `clear` must equal a fresh build.
        let mut arena = ArenaNetwork::<u64>::new(n);
        for &(u, v, c) in &edges {
            arena.add_edge(u, v, c);
        }
        arena.max_flow(0, n - 1);
        arena.clear(n2);
        let mut fresh = ArenaNetwork::<u64>::new(n2);
        for &(u, v, c) in &edges2 {
            arena.add_edge(u, v, c);
            fresh.add_edge(u, v, c);
        }
        prop_assert_eq!(arena.max_flow(0, n2 - 1), fresh.max_flow(0, n2 - 1));
    }

    #[test]
    fn per_edge_flows_are_valid((n, edges) in arb_graph()) {
        let s = 0;
        let t = n - 1;
        let mut net = ArenaNetwork::<u64>::new(n);
        let handles: Vec<_> = edges.iter().map(|&(u, v, c)| (u, v, c, net.add_edge(u, v, c))).collect();
        let total = net.max_flow(s, t);
        // capacity constraints
        let mut net_out = vec![0i64; n];
        for (u, v, c, h) in &handles {
            let f = net.flow(*h);
            prop_assert!(f <= *c);
            net_out[*u] += f as i64;
            net_out[*v] -= f as i64;
        }
        // conservation at internal nodes; source emits exactly `total`
        #[allow(clippy::needless_range_loop)]
        for node in 0..n {
            if node == s {
                prop_assert_eq!(net_out[node], total as i64);
            } else if node == t {
                prop_assert_eq!(net_out[node], -(total as i64));
            } else {
                prop_assert_eq!(net_out[node], 0, "node {}", node);
            }
        }
    }
}

//! Max-flow benchmarks on the event-interval networks that the offline
//! feasibility oracle builds (E2/E3's cost center).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mm_flow::ArenaNetwork;
use mm_instance::generators::{uniform, UniformCfg};
use mm_numeric::Rat;
use mm_opt::{elementary_intervals, feasible_on};

fn scheduling_network(c: &mut Criterion) {
    let mut g = c.benchmark_group("flow/scheduling_network");
    for n in [20usize, 40, 80] {
        let inst = uniform(
            &UniformCfg {
                n,
                horizon: (2 * n) as i64,
                ..Default::default()
            },
            7,
        );
        let m = mm_opt::optimal_machines(&inst);
        g.bench_with_input(BenchmarkId::new("feasible_on_opt", n), &inst, |b, inst| {
            b.iter(|| assert!(feasible_on(std::hint::black_box(inst), m)))
        });
        g.bench_with_input(
            BenchmarkId::new("infeasible_on_opt_minus_1", n),
            &inst,
            |b, inst| b.iter(|| assert!(!feasible_on(std::hint::black_box(inst), m - 1) || m == 1)),
        );
    }
    g.finish();
}

fn raw_dinic(c: &mut Criterion) {
    let mut g = c.benchmark_group("flow/raw_dinic");
    // A dense bipartite network with rational capacities.
    g.bench_function("bipartite_40x40_rational", |b| {
        b.iter(|| {
            let l = 40usize;
            let mut net = ArenaNetwork::<Rat>::new(2 * l + 2);
            let (s, t) = (0, 2 * l + 1);
            for i in 0..l {
                net.add_edge(s, 1 + i, Rat::ratio(3, 2));
                net.add_edge(1 + l + i, t, Rat::ratio(3, 2));
                for j in 0..l {
                    if (i + j) % 3 != 0 {
                        net.add_edge(1 + i, 1 + l + j, Rat::ratio(1, 2));
                    }
                }
            }
            net.max_flow(s, t)
        })
    });
    g.finish();
}

fn event_intervals(c: &mut Criterion) {
    let inst = uniform(
        &UniformCfg {
            n: 200,
            horizon: 400,
            ..Default::default()
        },
        3,
    );
    c.bench_function("flow/elementary_intervals_n200", |b| {
        b.iter(|| elementary_intervals(std::hint::black_box(&inst)))
    });
}

/// Pins in-place network reuse: rebuilding the bipartite network per flow
/// versus `reset()` + re-solve on one allocation-free network.
fn reuse_vs_rebuild(c: &mut Criterion) {
    let l = 40usize;
    let (s, t) = (0, 2 * l + 1);
    let build = || {
        let mut net = ArenaNetwork::<Rat>::new(2 * l + 2);
        for i in 0..l {
            net.add_edge(s, 1 + i, Rat::ratio(3, 2));
            net.add_edge(1 + l + i, t, Rat::ratio(3, 2));
            for j in 0..l {
                if (i + j) % 3 != 0 {
                    net.add_edge(1 + i, 1 + l + j, Rat::ratio(1, 2));
                }
            }
        }
        net
    };
    let mut g = c.benchmark_group("flow/reuse");
    g.bench_function("rebuild_and_flow_40x40", |b| {
        b.iter(|| {
            let mut net = build();
            net.max_flow(s, t)
        })
    });
    g.bench_function("reset_and_flow_40x40", |b| {
        let mut net = build();
        net.max_flow(s, t);
        b.iter(|| {
            net.reset();
            net.max_flow(s, t)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    scheduling_network,
    raw_dinic,
    event_intervals,
    reuse_vs_rebuild
);
criterion_main!(benches);

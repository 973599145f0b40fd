//! Offline-solver benchmarks: exact optimum, Theorem 1 certificate,
//! McNaughton extraction, and the demigration transformation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mm_instance::generators::{laminar, uniform, LaminarCfg, UniformCfg};
use mm_opt::{contribution_bound, demigrate, optimal_machines, optimal_schedule};

fn optimum(c: &mut Criterion) {
    let mut g = c.benchmark_group("solver/optimal_machines");
    for n in [20usize, 40, 80] {
        let inst = uniform(
            &UniformCfg {
                n,
                horizon: (2 * n) as i64,
                ..Default::default()
            },
            5,
        );
        g.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| optimal_machines(std::hint::black_box(inst)))
        });
    }
    g.finish();
}

fn certificate(c: &mut Criterion) {
    let mut g = c.benchmark_group("solver/contribution_bound");
    for n in [20usize, 40] {
        let inst = uniform(
            &UniformCfg {
                n,
                horizon: (2 * n) as i64,
                ..Default::default()
            },
            5,
        );
        g.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| contribution_bound(std::hint::black_box(inst)))
        });
    }
    g.finish();
}

fn extraction(c: &mut Criterion) {
    let inst = uniform(
        &UniformCfg {
            n: 40,
            ..Default::default()
        },
        5,
    );
    c.bench_function("solver/optimal_schedule_n40", |b| {
        b.iter(|| optimal_schedule(std::hint::black_box(&inst)))
    });
}

fn demigration(c: &mut Criterion) {
    let mut g = c.benchmark_group("solver/demigrate");
    let uni = uniform(
        &UniformCfg {
            n: 40,
            ..Default::default()
        },
        5,
    );
    g.bench_function("uniform_n40", |b| {
        b.iter(|| demigrate(std::hint::black_box(&uni)))
    });
    let lam = laminar(
        &LaminarCfg {
            depth: 3,
            branching: 2,
            ..Default::default()
        },
        5,
    );
    g.bench_function("laminar_d3", |b| {
        b.iter(|| demigrate(std::hint::black_box(&lam)))
    });
    g.finish();
}

criterion_group!(benches, optimum, certificate, extraction, demigration);
criterion_main!(benches);

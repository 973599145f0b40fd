//! `machmin bench`: the committed counter gates, one table row per
//! scenario.
//!
//! Each [`Scenario`] runs a fixed, seeded workload and returns the
//! deterministic counters its committed file holds, plus one summary line
//! for stdout. `machmin bench` runs every row and rewrites every file; CI
//! then fails when `git status --porcelain -- 'BENCH_*.json'` prints
//! anything. Wall-clock values and counters that race the workload appear
//! only in the summary line, never in a file, so a rerun on any machine
//! leaves the files byte-identical. Every scenario also checks its own
//! invariants (nothing lost, traced equals untraced, the theorem bounds
//! hold) and fails with a verification error (exit 6) when one breaks.
//!
//! The module also owns the in-process backend pool the scenarios, `chaos`,
//! and `certcheck --pool` run against.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use mm_cluster::{
    cluster_sweep, BalancePolicy, ClusterConfig, ClusterReport, Coordinator, HedgeConfig,
    SweepConfig,
};
use mm_core::EdfFirstFit;
use mm_fault::{FaultPlan, FaultRule, FaultSite};
use mm_instance::generators::{agreeable, laminar, uniform, AgreeableCfg, LaminarCfg, UniformCfg};
use mm_instance::Instance;
use mm_json::Json;
use mm_numeric::Rat;
use mm_opt::{optimal_machines_traced, FastProber};
use mm_serve::protocol::{Request, RequestKind};
use mm_serve::{DynSink, LoadConfig, ServeConfig, Service};
use mm_sim::{run_policy, SimConfig};
use mm_trace::{MetricsSink, NoopSink};

use crate::Error;

/// Schema tag of every committed bench file.
const SCHEMA: &str = "machmin-bench-v2";

/// One gated scenario: its committed file and the function producing it.
struct Scenario {
    /// The name recorded in the file's `scenario` field.
    name: &'static str,
    /// The committed file at the repository root.
    file: &'static str,
    /// Runs the workload and checks its invariants.
    run: fn() -> Result<Run, Error>,
}

/// What one scenario run produces.
struct Run {
    /// The gated values, in file order after the two header keys.
    counters: Vec<(&'static str, Json)>,
    /// Everything else worth reading (wall times, ungated counters).
    summary: String,
}

/// Every gated scenario, in the order `machmin bench` runs them.
const SCENARIOS: [Scenario; 8] = [
    Scenario {
        name: "solver",
        file: "BENCH_2.json",
        run: solver,
    },
    Scenario {
        name: "serve",
        file: "BENCH_4.json",
        run: serve,
    },
    Scenario {
        name: "cluster",
        file: "BENCH_5.json",
        run: cluster,
    },
    Scenario {
        name: "obs",
        file: "BENCH_6.json",
        run: obs,
    },
    Scenario {
        name: "large",
        file: "BENCH_7.json",
        run: large,
    },
    Scenario {
        name: "churn",
        file: "BENCH_8.json",
        run: churn,
    },
    Scenario {
        name: "verify",
        file: "BENCH_9.json",
        run: verify,
    },
    Scenario {
        name: "online",
        file: "BENCH_10.json",
        run: online,
    },
];

impl Scenario {
    /// The committed document: the two header keys, then the counters.
    fn document(&self, run: &Run) -> Json {
        let header = [
            ("schema", Json::str(SCHEMA)),
            ("scenario", Json::str(self.name)),
        ];
        Json::obj(header.into_iter().chain(run.counters.iter().cloned()))
    }
}

/// Runs every scenario, rewrites its file in the current directory, and
/// returns one summary line per scenario.
pub(crate) fn run_all() -> Result<String, Error> {
    let mut out = String::new();
    for s in &SCENARIOS {
        let run = (s.run)()?;
        std::fs::write(s.file, s.document(&run).to_pretty())
            .map_err(|e| Error::Io(format!("cannot write {}: {e}", s.file)))?;
        let _ = writeln!(out, "{} -> {}: {}", s.name, s.file, run.summary);
    }
    Ok(out)
}

fn int(n: impl TryInto<i64>) -> Json {
    Json::Int(n.try_into().unwrap_or(i64::MAX))
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn load_failed(scenario: &str, e: impl std::fmt::Display) -> Error {
    Error::Io(format!("{scenario} bench load failed: {e}"))
}

// ---------------------------------------------------------------------------
// The in-process backend pool.

/// One in-process `machmin serve` backend: a real [`Service`] behind a
/// loopback TCP acceptor, so no external processes are needed.
pub(crate) struct Backend {
    service: Arc<Service>,
    /// The loopback address the backend listens on.
    pub addr: String,
    acceptor: std::thread::JoinHandle<std::io::Result<()>>,
}

/// Starts `n` fault-free backends (two workers each).
pub(crate) fn spawn_pool(n: usize, queue_cap: usize) -> Result<Vec<Backend>, Error> {
    spawn_pool_plans(&vec![FaultPlan::none(); n], queue_cap)
}

/// Like [`spawn_pool`], but each backend gets its own fault plan — how the
/// Byzantine scenario and chaos segments plant exactly one liar in an
/// otherwise honest pool.
pub(crate) fn spawn_pool_plans(
    plans: &[FaultPlan],
    queue_cap: usize,
) -> Result<Vec<Backend>, Error> {
    plans
        .iter()
        .map(|plan| {
            let cfg = ServeConfig {
                workers: 2,
                queue_cap,
                plan: plan.clone(),
                ..ServeConfig::default()
            };
            let service = Arc::new(
                Service::start(cfg, DynSink::new(Box::new(NoopSink)))
                    .map_err(|e| Error::Sim(format!("cannot start backend: {e}")))?,
            );
            let (listener, addr) = mm_serve::tcp::bind("127.0.0.1:0")
                .map_err(|e| Error::Io(format!("cannot bind backend: {e}")))?;
            let acceptor = {
                let service = Arc::clone(&service);
                std::thread::spawn(move || mm_serve::tcp::serve(listener, service))
            };
            Ok(Backend {
                service,
                addr,
                acceptor,
            })
        })
        .collect()
}

/// Shuts the pool down; backends already drained (a dropped victim, or a
/// load run that ended with a shutdown request) shut down idempotently.
pub(crate) fn teardown_pool(pool: Vec<Backend>) -> Result<(), Error> {
    for b in &pool {
        b.service.shutdown();
    }
    for b in pool {
        b.service.wait_stopped();
        b.acceptor
            .join()
            .map_err(|_| Error::Internal("backend accept loop panicked".into()))?
            .map_err(|e| Error::Io(format!("backend accept loop failed: {e}")))?;
    }
    Ok(())
}

/// The distinct-optimum scatter workload shared by the pool scenarios and
/// the chaos cluster segments: unit `id` is `id` copies of the same
/// zero-laxity job (at most 16), so its optimum is exactly `min(id, 16)`.
pub(crate) fn scatter_units(n: usize) -> Vec<Request> {
    (1..=n as u64)
        .map(|id| {
            Request::new(
                id,
                RequestKind::Solve {
                    jobs: (0..id.min(16)).map(|_| (0, 2, 2)).collect(),
                },
            )
        })
        .collect()
}

/// Runs `units` through a coordinator over `pool` and tears the pool down;
/// fails when any response is lost. Returns the report and the lies the
/// backends told. `label` prefixes every error message.
pub(crate) fn run_pool(
    label: &str,
    pool: Vec<Backend>,
    cfg: ClusterConfig,
    units: Vec<Request>,
) -> Result<(ClusterReport, u64), Error> {
    let coordinator = Coordinator::connect(cfg, NoopSink)
        .map_err(|e| Error::Io(format!("{label} connect: {e}")))?;
    let report = coordinator
        .run(units, &mut |_, _| {})
        .map_err(|e| Error::Sim(format!("{label} run: {e}")))?;
    let lies = pool.iter().map(|b| b.service.stats().corrupted).sum();
    teardown_pool(pool)?;
    if report.counters.lost > 0 {
        return Err(Error::Verification(format!(
            "{label} lost {} response(s)",
            report.counters.lost
        )));
    }
    Ok((report, lies))
}

fn fired_json(fired: &[(FaultSite, u64)]) -> Json {
    Json::Arr(
        fired
            .iter()
            .map(|(site, n)| Json::obj([("site", Json::str(site.tag())), ("count", int(*n))]))
            .collect(),
    )
}

fn statuses_json(by_status: &[(String, usize)]) -> Json {
    Json::obj(by_status.iter().map(|(s, c)| (s.clone(), int(*c))))
}

// ---------------------------------------------------------------------------
// The scenarios.

fn uniform_probe(n: usize, seed: u64) -> Instance {
    uniform(
        &UniformCfg {
            n,
            horizon: (2 * n) as i64,
            ..Default::default()
        },
        seed,
    )
}

/// The solver scenario's probe workloads.
fn solver_workloads() -> Vec<(&'static str, Instance)> {
    // Deep-denominator variant: repeated affine rescaling gives the event
    // coordinates denominators around 7^24 > i64::MAX, so the arithmetic
    // spills from machine words to limbs.
    let mut deep = uniform_probe(40, 5);
    let (scale, offset) = (Rat::ratio(3, 7), Rat::ratio(1, 9));
    for _ in 0..24 {
        deep = deep.affine(&Rat::zero(), &offset, &scale);
    }
    vec![
        ("uniform_n40", uniform_probe(40, 5)),
        ("uniform_n80", uniform_probe(80, 7)),
        (
            "laminar_d3",
            laminar(
                &LaminarCfg {
                    depth: 3,
                    branching: 2,
                    ..Default::default()
                },
                11,
            ),
        ),
        (
            "agreeable_n60",
            agreeable(
                &AgreeableCfg {
                    n: 60,
                    ..Default::default()
                },
                13,
            ),
        ),
        ("uniform_n160", uniform_probe(160, 17)),
        ("uniform_n40_deep", deep),
    ]
}

/// `BENCH_2.json`: the flow search's probe and augmentation counts per
/// workload (one prober shared across each binary search), and the step
/// count of a seeded EDF-first-fit simulation.
fn solver() -> Result<Run, Error> {
    let mut rows = Vec::new();
    let mut summary = Vec::new();
    for (name, inst) in solver_workloads() {
        let mut sink = MetricsSink::new();
        let t0 = Instant::now();
        let m = optimal_machines_traced(&inst, &mut sink);
        let ms = ms_since(t0);
        let c = &sink.metrics;
        rows.push(Json::obj([
            ("name", Json::str(name)),
            ("optimal_machines", int(m)),
            ("probes", int(c.feasibility_probes)),
            ("augmentations", int(c.flow_augmentations)),
        ]));
        summary.push(format!(
            "{name} ({} jobs, {} incremental/{} reset probes) {ms:.2} ms",
            inst.len(),
            c.prober_incremental,
            c.prober_resets
        ));
    }
    let n = 150;
    let inst = uniform_probe(n, 23);
    let t0 = Instant::now();
    let sim = run_policy(&inst, EdfFirstFit::new(), SimConfig::migratory(n))
        .map_err(|e| Error::Sim(format!("solver bench simulation: {e}")))?;
    summary.push(format!(
        "edf_uniform_n150 {} steps {:.2} ms",
        sim.steps,
        ms_since(t0)
    ));
    let summary = summary.join("; ");
    Ok(Run {
        counters: vec![
            ("workloads", Json::Arr(rows)),
            (
                "sim",
                Json::obj([
                    ("name", Json::str("edf_uniform_n150")),
                    ("steps", int(sim.steps)),
                ]),
            ),
        ],
        summary,
    })
}

/// `BENCH_4.json`: a closed-loop client against one backend. The window
/// stays below the queue capacity and no fault plan is set, so every
/// counter is a pure function of the seed.
fn serve() -> Result<Run, Error> {
    let pool = spawn_pool(1, 16)?;
    let service = Arc::clone(&pool[0].service);
    let report = mm_serve::run_load(
        &pool[0].addr,
        &LoadConfig {
            n: 60,
            seed: 17,
            window: 8,
            shutdown: true,
            ..LoadConfig::default()
        },
    )
    .map_err(|e| load_failed("serve", e))?;
    teardown_pool(pool)?;
    let stats = service.stats();
    if report.lost > 0 || !stats.invariant_holds() {
        return Err(Error::Verification(format!(
            "serve bench lost {} response(s) or broke the invariant: {stats:?}",
            report.lost
        )));
    }
    let summary = format!(
        "{} requests, p50 {:.2} ms, p99 {:.2} ms, p999 {:.2} ms, shed rate {:.3}",
        report.sent,
        report.p50_ms,
        report.p99_ms,
        report.p999_ms,
        stats.shed as f64 / report.sent.max(1) as f64
    );
    Ok(Run {
        counters: vec![
            ("requests", int(report.sent)),
            ("lost", int(report.lost)),
            ("admitted", int(stats.admitted)),
            ("responses", int(stats.responses)),
            ("shed", int(stats.shed)),
            ("by_status", statuses_json(&report.by_status)),
        ],
        summary,
    })
}

/// `BENCH_5.json`: the scatter–gather coordinator over three backends,
/// hedging every third unit with one backend dropped mid-burst, then a
/// fault-free remote adversary sweep. The dispatch window spans the whole
/// workload, so hedges, the drop, shard resumes, and the per-backend split
/// are pure functions of the seed.
fn cluster() -> Result<Run, Error> {
    let units = 24;
    let pool = spawn_pool(3, 2 * units + 8)?;
    let cfg = ClusterConfig {
        backends: pool.iter().map(|b| b.addr.clone()).collect(),
        balance: BalancePolicy::SeededHash { seed: 21 },
        seed: 21,
        window: units,
        hedge: HedgeConfig::EveryNth { n: 3 },
        plan: FaultPlan {
            seed: 21,
            rules: vec![FaultRule {
                site: FaultSite::BackendDrop,
                nth: (units as u64) / 2,
                every: None,
            }],
        },
        ..ClusterConfig::default()
    };
    let t0 = Instant::now();
    let (scatter, _) = run_pool("cluster bench", pool, cfg, scatter_units(units))?;
    let scatter_ms = ms_since(t0);

    let pool = spawn_pool(3, 64)?;
    let cfg = ClusterConfig {
        backends: pool.iter().map(|b| b.addr.clone()).collect(),
        seed: 22,
        ..ClusterConfig::default()
    };
    let sweep_cfg = SweepConfig {
        policies: vec!["edf-ff".into()],
        k: 3,
        machines: 8,
        checkpoint: None,
        resume: false,
    };
    let t0 = Instant::now();
    let sweep = cluster_sweep(cfg, NoopSink, &sweep_cfg)
        .map_err(|e| Error::Sim(format!("cluster bench sweep: {e}")))?;
    let sweep_ms = ms_since(t0);
    teardown_pool(pool)?;

    let c = &scatter.counters;
    let summary = format!(
        "{units} units over 3 backends, {} hedge(s), {} dedup(s), {} drop(s), {} resume(s), \
         scatter {scatter_ms:.1} ms, sweep {sweep_ms:.1} ms",
        c.hedges, c.dedups, c.backend_drops, c.shard_resumes
    );
    Ok(Run {
        counters: vec![
            ("units", int(units)),
            ("backends", int(3)),
            ("scatter", c.to_json()),
            ("scatter_fired", fired_json(&scatter.fired)),
            ("sweep", sweep.report.counters.to_json()),
            ("sweep_merged", sweep.merged.clone()),
        ],
        summary,
    })
}

/// `BENCH_6.json`: the observability layer is an exact, no-op account of
/// the work done. Every request of a seeded mixed stream executes untraced
/// and traced, and the two answers must be byte-identical; the traced
/// pass's probe and span counters are gated; and a live backend serving the
/// same stream must scrape per-kind latency histograms whose total equals
/// the responses served.
fn obs() -> Result<Run, Error> {
    use mm_serve::exec::{execute, execute_traced, NoProgress};
    let n = 60;
    let requests = mm_serve::mixed_requests(17, n, None);

    let mut sink = MetricsSink::new();
    for req in &requests {
        let plain = execute(req, None, false, &mut NoProgress).to_line();
        let traced = execute_traced(req, None, false, &mut NoProgress, &mut sink).to_line();
        if plain != traced {
            return Err(Error::Verification(format!(
                "request {} differs under tracing:\n  untraced: {plain}\n  traced:   {traced}",
                req.id
            )));
        }
    }
    let m = &sink.metrics;
    if m.span_phases == 0 || m.feasibility_probes == 0 {
        return Err(Error::Verification(
            "traced pass recorded no spans/probes — instrumentation went dark".into(),
        ));
    }

    let pool = spawn_pool(1, 16)?;
    let service = Arc::clone(&pool[0].service);
    let addr = pool[0].addr.clone();
    let report = mm_serve::run_load(
        &addr,
        &LoadConfig {
            n,
            seed: 17,
            window: 8,
            shutdown: false,
            ..LoadConfig::default()
        },
    )
    .map_err(|e| load_failed("obs", e))?;
    if report.lost > 0 {
        return Err(Error::Verification(format!(
            "obs bench lost {} response(s)",
            report.lost
        )));
    }
    // Histogram accounting lands just after each reply is sent, so poll the
    // scrape until the totals catch up with the response counter.
    let responses = service.stats().responses;
    let t0 = Instant::now();
    let (by_kind, hist_total) = loop {
        let outcome = mm_cluster::cluster_stats(std::slice::from_ref(&addr), false);
        let by_kind: Vec<(String, u64)> = outcome
            .merged
            .histograms
            .iter()
            .filter_map(|(k, h)| Some((k.strip_prefix("latency_us.")?.to_string(), h.count())))
            .collect();
        let total: u64 = by_kind.iter().map(|(_, c)| c).sum();
        if total == responses || t0.elapsed() > std::time::Duration::from_secs(10) {
            break (by_kind, total);
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let scrape_ms = ms_since(t0);
    teardown_pool(pool)?;
    let stats = service.stats();
    if hist_total != responses {
        return Err(Error::Verification(format!(
            "stats histograms count {hist_total} observation(s) for {responses} response(s)"
        )));
    }

    let summary = format!(
        "{} requests byte-identical under tracing, {} span phase(s), {hist_total} histogram \
         observation(s) == {responses} response(s); p50 {:.2} ms, p99 {:.2} ms, p999 {:.2} ms, \
         scrape {scrape_ms:.1} ms",
        report.sent, m.span_phases, report.p50_ms, report.p99_ms, report.p999_ms
    );
    Ok(Run {
        counters: vec![
            ("requests", int(report.sent)),
            ("traced_identical", Json::Bool(true)),
            (
                "trace",
                Json::obj([
                    ("span_phases", int(m.span_phases)),
                    ("feasibility_probes", int(m.feasibility_probes)),
                    ("flow_augmentations", int(m.flow_augmentations)),
                    ("prober_incremental", int(m.prober_incremental)),
                    ("adversary_rounds", int(m.adversary_rounds)),
                ]),
            ),
            ("admitted", int(stats.admitted)),
            ("responses", int(stats.responses)),
            ("shed", int(stats.shed)),
            ("hist_total", int(hist_total)),
            (
                "by_kind",
                Json::obj(by_kind.into_iter().map(|(k, c)| (k, int(c)))),
            ),
            ("by_status", statuses_json(&report.by_status)),
        ],
        summary,
    })
}

fn large_uniform(n: usize) -> Instance {
    uniform(
        &UniformCfg {
            n,
            horizon: (5 * n) as i64,
            min_window: 4,
            max_window: 40,
        },
        42,
    )
}

/// Unit jobs are Theorem 15's setting (Section 6); with unit processing the
/// agreeable sweep certifies every probe and no flow rescue occurs.
fn large_agreeable(n: usize) -> Instance {
    agreeable(
        &AgreeableCfg {
            n,
            release_gap: 2,
            min_window: 4,
            max_window: 40,
            unit_processing: Some(1),
        },
        42,
    )
}

/// A half-filled binary nesting tree with `2^(depth+1) − 1` windows; at
/// fill 1/2 both sweep directions witness feasibility.
fn large_laminar(depth: usize) -> Instance {
    laminar(
        &LaminarCfg {
            depth,
            branching: 2,
            root_length: 4i64.pow(depth as u32 + 1),
            max_fill: Rat::ratio(1, 2),
        },
        42,
    )
}

/// `BENCH_7.json`: the certifier hot path at streaming scale — n = 10^5
/// uniform through the flow arena, n ≈ 10^6 agreeable and laminar answered
/// entirely by the direct certifiers (zero flow rescues).
fn large() -> Result<Run, Error> {
    large_on(vec![
        ("uniform_n100k", large_uniform(100_000)),
        ("agreeable_n1m", large_agreeable(1_000_000)),
        ("laminar_n1m", large_laminar(19)),
    ])
}

/// Builds and solves each workload twice on a fresh [`FastProber`]; the two
/// solves must agree on every counter.
fn large_on(workloads: Vec<(&'static str, Instance)>) -> Result<Run, Error> {
    let mut rows = Vec::new();
    let mut summary = Vec::new();
    for (name, inst) in workloads {
        let mut first = None;
        let (mut build_ns, mut solve_ns) = (u128::MAX, u128::MAX);
        for _ in 0..2 {
            let t0 = Instant::now();
            let mut prober = FastProber::new(&inst);
            build_ns = build_ns.min(t0.elapsed().as_nanos());
            let t0 = Instant::now();
            let m = prober.optimal_machines();
            solve_ns = solve_ns.min(t0.elapsed().as_nanos());
            let d = prober.dispatch();
            let solve = (
                m,
                d.total(),
                d.certified(),
                d.flow,
                d.rescued,
                prober.path().label(),
                prober.uses_integer_ticks(),
            );
            if first.get_or_insert(solve) != &solve {
                return Err(Error::Verification(format!(
                    "large bench: two solves of {name} disagree: {first:?} vs {solve:?}"
                )));
            }
        }
        let (m, probes, certified, flow, rescued, path, ticks) = first.expect("two solves ran");
        rows.push(Json::obj([
            ("name", Json::str(name)),
            ("optimal_machines", int(m)),
            ("probes", int(probes)),
            ("flow", int(flow)),
            ("rescued", int(rescued)),
        ]));
        summary.push(format!(
            "{name} ({} jobs, path {path}, integer ticks {ticks}, {certified} certified) \
             build {:.1} ms, solve {:.1} ms, {:.2}M jobs/s",
            inst.len(),
            build_ns as f64 / 1e6,
            solve_ns as f64 / 1e6,
            inst.len() as f64 / (solve_ns.max(1) as f64 / 1e9) / 1e6,
        ));
    }
    Ok(Run {
        counters: vec![("workloads", Json::Arr(rows))],
        summary: summary.join("; "),
    })
}

/// `BENCH_8.json`: the coordinator under a seeded membership schedule — a
/// spare joins mid-burst, one backend drains with live shards migrated off
/// it, one flaps and recovers. The `backend_churn` rule fires at
/// primary-dispatch boundaries, so the event counters and response totals
/// are pure functions of the seed and plan. Migration counts depend on how
/// far the burst has raced when the drain lands, so they are only reported.
fn churn() -> Result<Run, Error> {
    let units = 24;
    let pool = spawn_pool(4, 2 * units + 8)?;
    let cfg = ClusterConfig {
        backends: pool.iter().take(3).map(|b| b.addr.clone()).collect(),
        spares: vec![pool[3].addr.clone()],
        balance: BalancePolicy::RoundRobin,
        seed: 23,
        window: units,
        plan: FaultPlan {
            seed: 23,
            rules: vec![FaultRule {
                site: FaultSite::BackendChurn,
                nth: 4,
                every: Some(5),
            }],
        },
        churn: Some(mm_cluster::ChurnPlan::rolling(2, 1)),
        ..ClusterConfig::default()
    };
    let t0 = Instant::now();
    let (report, _) = run_pool("churn bench", pool, cfg, scatter_units(units))?;
    let churn_ms = ms_since(t0);
    let c = &report.counters;
    let summary = format!(
        "{units} units over 3+1 backends, {} churn event(s) ({} join(s), {} drain(s), \
         {} flap(s)), {} migration(s), {} migrated answer(s), {churn_ms:.1} ms",
        c.churn_events, c.joins, c.drains, c.flaps, c.migrations, c.migrated_answers
    );
    Ok(Run {
        counters: vec![
            ("units", int(units)),
            ("backends", int(3)),
            ("responses", int(c.responses)),
            ("churn_events", int(c.churn_events)),
            ("joins", int(c.joins)),
            ("drains", int(c.drains)),
            ("flaps", int(c.flaps)),
            ("churn_fired", fired_json(&report.fired)),
        ],
        summary,
    })
}

/// `BENCH_9.json`: proof-carrying answers end to end. The same scatter
/// workload runs under `verify: all` on an honest three-backend pool (zero
/// refutations) and on a pool whose third backend lies exactly once; the
/// coordinator refutes the lie from its own proof, quarantines the liar,
/// re-asks on the survivors, and merges responses byte-identical to the
/// honest run's.
fn verify() -> Result<Run, Error> {
    let units = 16;
    let run = |plans: &[FaultPlan]| -> Result<(ClusterReport, u64, f64), Error> {
        let pool = spawn_pool_plans(plans, 2 * units + 8)?;
        let cfg = ClusterConfig {
            backends: pool.iter().map(|b| b.addr.clone()).collect(),
            balance: BalancePolicy::RoundRobin,
            seed: 31,
            window: units,
            verify: mm_cluster::VerifyPolicy::All,
            ..ClusterConfig::default()
        };
        let t0 = Instant::now();
        let (report, lies) = run_pool("verify bench", pool, cfg, scatter_units(units))?;
        Ok((report, lies, ms_since(t0)))
    };
    let honest_plans = vec![FaultPlan::none(); 3];
    let mut liar_plans = honest_plans.clone();
    liar_plans[2] = FaultPlan::once(FaultSite::AnswerCorruption, 1);
    let (honest, honest_corrupted, honest_ms) = run(&honest_plans)?;
    let (byz, byz_corrupted, byz_ms) = run(&liar_plans)?;
    let no_counters = || Error::Internal("verify bench ran without verify counters".into());
    let hv = honest.counters.verify.as_ref().ok_or_else(no_counters)?;
    let bv = byz.counters.verify.as_ref().ok_or_else(no_counters)?;
    if hv.refuted != 0 || honest_corrupted != 0 {
        return Err(Error::Verification(format!(
            "honest pool must produce zero refutations (got {} refuted, {} corrupted)",
            hv.refuted, honest_corrupted
        )));
    }
    if honest.responses != byz.responses {
        return Err(Error::Verification(
            "byzantine merged responses diverged from the honest run".into(),
        ));
    }
    let summary = format!(
        "{units} units, honest {}/{} verified/refuted, byzantine {}/{} verified/refuted \
         ({byz_corrupted} lie(s), {} re-ask(s), {} quarantine(s)), merged identical; \
         honest {honest_ms:.1} ms, byzantine {byz_ms:.1} ms",
        hv.verified, hv.refuted, bv.verified, bv.refuted, bv.reasks, byz.counters.quarantines
    );
    Ok(Run {
        counters: vec![
            ("units", int(units)),
            ("backends", int(3)),
            ("honest_verified", int(hv.verified)),
            ("honest_refuted", int(hv.refuted)),
            ("honest_corrupted", int(honest_corrupted)),
            ("byz_verified", int(bv.verified)),
            ("byz_refuted", int(bv.refuted)),
            ("byz_reasks", int(bv.reasks)),
            ("byz_corrupted", int(byz_corrupted)),
            ("byz_liar_refuted", int(bv.per_backend_refuted[2])),
            ("merged_identical", Json::Bool(true)),
        ],
        summary,
    })
}

/// `BENCH_10.json`: the online portfolio raced over seeded agreeable,
/// laminar, and adversary streams. The race runs twice (with and without a
/// metrics sink) and must render byte-identically, the measured ratios must
/// hold the paper's bounds (`RaceReport::check_bounds`: specialists
/// miss-free on their own classes, agreeable within 32.70·m), and the race
/// JSON and `online_*` trace counters are gated.
fn online() -> Result<Run, Error> {
    let cfg = mm_online::RaceConfig {
        seed: 7,
        n: 24,
        k: 3,
        members: mm_online::Member::ALL.to_vec(),
    };
    let t0 = Instant::now();
    let mut sink = MetricsSink::new();
    let report = mm_online::race(cfg.clone(), &mut sink)
        .map_err(|e| Error::Sim(format!("online race failed: {e}")))?;
    let race_ms = ms_since(t0);
    let rerun = mm_online::race(cfg, &mut NoopSink)
        .map_err(|e| Error::Sim(format!("online race rerun failed: {e}")))?;
    if report.render() != rerun.render()
        || report.to_json().to_compact() != rerun.to_json().to_compact()
    {
        return Err(Error::Verification(
            "online race is not byte-identical across same-seed reruns".into(),
        ));
    }
    report.check_bounds().map_err(Error::Verification)?;
    let m = &sink.metrics;
    if m.online_runs == 0 {
        return Err(Error::Verification(
            "online race emitted no OnlineRunCompleted events — tracing went dark".into(),
        ));
    }
    let summary = format!(
        "{} race cell(s) byte-identical across reruns, worst ratio {}.{:03}, bounds hold, \
         {race_ms:.1} ms",
        m.online_runs,
        m.online_worst_ratio_millis / 1000,
        m.online_worst_ratio_millis % 1000
    );
    Ok(Run {
        counters: vec![
            ("race", report.to_json()),
            ("online_runs", int(m.online_runs)),
            ("online_machines_opened", int(m.online_machines_opened)),
            (
                "online_worst_ratio_millis",
                int(m.online_worst_ratio_millis),
            ),
            ("rerun_identical", Json::Bool(true)),
        ],
        summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(name: &str) -> &'static Scenario {
        SCENARIOS.iter().find(|s| s.name == name).unwrap()
    }

    /// A scenario run twice in one process writes the same bytes: its file
    /// is its own baseline.
    fn assert_rerun_identical(name: &str) -> Json {
        let s = scenario(name);
        let first = s.document(&(s.run)().unwrap());
        let second = s.document(&(s.run)().unwrap());
        assert_eq!(
            first.to_pretty(),
            second.to_pretty(),
            "{name} is not deterministic"
        );
        first
    }

    #[test]
    fn solver_reruns_byte_identical() {
        assert_rerun_identical("solver");
    }

    #[test]
    fn serve_reruns_byte_identical() {
        assert_rerun_identical("serve");
    }

    #[test]
    fn cluster_reruns_byte_identical() {
        let doc = assert_rerun_identical("cluster");
        // The planted drop and the hedging actually happen.
        let scatter = doc.get("scatter").unwrap();
        let get = |k: &str| scatter.get(k).and_then(Json::as_i64).unwrap();
        assert!(get("hedges") > 0, "{scatter:?}");
        assert!(get("backend_drops") > 0, "{scatter:?}");
    }

    #[test]
    fn obs_reruns_byte_identical() {
        assert_rerun_identical("obs");
    }

    #[test]
    fn churn_reruns_byte_identical() {
        assert_rerun_identical("churn");
    }

    #[test]
    fn verify_reruns_byte_identical() {
        assert_rerun_identical("verify");
    }

    #[test]
    fn online_reruns_byte_identical() {
        assert_rerun_identical("online");
    }

    /// The large scenario on scaled-down instances: the structured families
    /// close on the certifiers alone, and uniform runs on the flow oracle.
    #[test]
    fn large_structured_families_never_touch_flow() {
        let run = large_on(vec![
            ("uniform_n2k", large_uniform(2_000)),
            ("agreeable_n20k", large_agreeable(20_000)),
            ("laminar_d9", large_laminar(9)),
        ])
        .unwrap();
        let (_, workloads) = &run.counters[0];
        for w in workloads.as_arr().unwrap() {
            let name = w.get("name").and_then(Json::as_str).unwrap();
            let get = |k: &str| w.get(k).and_then(Json::as_i64).unwrap();
            assert_eq!(get("rescued"), 0, "{name} leaked into a flow rescue");
            if name.starts_with("uniform") {
                assert!(get("flow") > 0, "{name} should use the flow oracle");
            } else {
                assert_eq!(get("flow"), 0, "{name} should never build a network");
            }
        }
    }

    /// The limb arithmetic and the machine-word fast path agree on every
    /// solver workload's optimum, the deep-denominator one included.
    #[test]
    fn solver_optimum_is_the_same_under_forced_bigint() {
        for (name, inst) in solver_workloads() {
            let fast = mm_opt::optimal_machines(&inst);
            let limbs = {
                let _force = mm_numeric::fastpath::force_bigint();
                mm_opt::optimal_machines(&inst)
            };
            assert_eq!(fast, limbs, "{name}");
        }
    }

    /// Every `BENCH_*.json` at the repository root is a current-schema file
    /// of a table row, and every row's file exists. An orphaned or
    /// hand-added file never shows in `git status`, so this is its gate.
    #[test]
    fn committed_files_match_the_table() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        for entry in std::fs::read_dir(root).unwrap() {
            let file = entry.unwrap().file_name().to_string_lossy().into_owned();
            if !(file.starts_with("BENCH_") && file.ends_with(".json")) {
                continue;
            }
            let text = std::fs::read_to_string(root.join(&file)).unwrap();
            let doc = mm_json::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
            assert_eq!(
                doc.get("schema").and_then(Json::as_str),
                Some(SCHEMA),
                "{file}"
            );
            let name = doc.get("scenario").and_then(Json::as_str);
            let row = SCENARIOS.iter().find(|s| Some(s.name) == name);
            assert_eq!(
                row.map(|s| s.file),
                Some(file.as_str()),
                "{file} names no table row that writes it"
            );
        }
        for s in &SCENARIOS {
            assert!(root.join(s.file).is_file(), "{} is missing", s.file);
        }
    }
}

//! Implementation of the `machmin` command-line tool.
//!
//! Kept in the library (rather than the binary) so the argument parsing and
//! command logic are unit-testable; `src/bin/machmin.rs` is a thin shim.
//!
//! Every failure is a categorized [`Error`] with a stable exit code (see
//! `src/error.rs`); a budget-limited `solve` that settles for a certified
//! bracket is a *success* (exit 0), because the bracket is still a proven
//! answer.

use std::fmt::Write as _;
use std::io::BufWriter;
use std::path::Path;
use std::sync::Arc;

use mm_adversary::{CompletedRun, GapResult, GapStop, MigrationGapAdversary, SweepCheckpoint};
use mm_cluster::{
    cluster_grid, cluster_solve, cluster_sweep, BalancePolicy, ClusterConfig, GridConfig,
    HedgeConfig, SweepConfig,
};
use mm_core::{AgreeableSplit, Edf, EdfFirstFit, LaminarBudget, Llf, MediumFit};
use mm_fault::{Budget, FaultInjector, FaultPlan, FaultSite};
use mm_instance::generators::{
    agreeable, laminar, loose, uniform, AgreeableCfg, LaminarCfg, UniformCfg,
};
use mm_instance::{io, Instance};
use mm_numeric::Rat;
use mm_opt::{
    contribution_bound, demigrate, optimal_machines, optimal_machines_budgeted_traced,
    optimal_machines_traced, theorem2_bound,
};
use mm_serve::{DynSink, LoadConfig, ServeConfig, Service};
use mm_sim::{render_gantt, run_policy_traced, verify, SimConfig, Simulation, VerifyOptions};
use mm_trace::{
    JsonlSink, Metrics, MetricsSink, NoopSink, SharedSink, TeeSink, TraceEvent, TraceSink,
};

use crate::bench::{run_pool, scatter_units, spawn_pool, spawn_pool_plans};
pub use crate::Error;

/// A parsed command line.
// One `Command` exists per process and lives on the stack for the whole
// run, so the size skew between the flag-heavy `Cluster` variant and the
// rest costs nothing; boxing fields would only obscure the parser.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(clippy::large_enum_variant)]
pub enum Command {
    /// `solve <instance.json> [--trace f.jsonl] [--metrics f.json]
    /// [--budget-augmentations N] [--budget-ms N] [--budget-nodes N]
    /// [--attempts K]` — exact optimum + Theorem 1 certificate; with a
    /// budget, geometric escalation then a certified bracket.
    Solve {
        /// Instance file.
        path: String,
        /// Per-probe budget; `None` runs unbudgeted (always exact).
        budget: Option<Budget>,
        /// Escalation attempts (budget doubles between attempts).
        attempts: u32,
        /// JSONL event-trace output file.
        trace: Option<String>,
        /// Aggregated metrics JSON output file.
        metrics: Option<String>,
    },
    /// `classify <instance.json>` — structure, Δ, looseness report.
    Classify {
        /// Instance file.
        path: String,
    },
    /// `schedule <instance.json> --policy <name> [--machines N]
    /// [--trace f.jsonl] [--metrics f.json]`.
    Schedule {
        /// Instance file.
        path: String,
        /// Policy name (edf, llf, edf-ff, medium-fit, agreeable, laminar).
        policy: String,
        /// Machine budget (defaults to one per job).
        machines: Option<usize>,
        /// JSONL event-trace output file.
        trace: Option<String>,
        /// Aggregated metrics JSON output file.
        metrics: Option<String>,
    },
    /// `demigrate <instance.json>` — offline migratory → non-migratory.
    Demigrate {
        /// Instance file.
        path: String,
    },
    /// `generate <family> --n N --seed S --out <file.json>`.
    Generate {
        /// Family: uniform, agreeable, laminar, loose.
        family: String,
        /// Number of jobs (ignored for laminar).
        n: usize,
        /// RNG seed.
        seed: u64,
        /// Output file.
        out: String,
    },
    /// `adversary --policy <edf-ff|medium-fit> [--k K] [--machines N]
    /// [--checkpoint f.json [--resume]] [--export-stream f.jsonl]` —
    /// migration-gap sweep over depths `k = 2..=K`, checkpointing each
    /// completed depth.
    Adversary {
        /// Policy under attack (edf-ff, medium-fit).
        policy: String,
        /// Deepest target depth (≥ 2).
        k: usize,
        /// Machine budget handed to the policy.
        machines: usize,
        /// Checkpoint file, saved after every completed depth.
        checkpoint: Option<String>,
        /// Resume from the checkpoint file, skipping completed depths.
        resume: bool,
        /// Export the strongest forced-release trace of this invocation as
        /// a replayable JSONL event stream (`machmin online run` input).
        export_stream: Option<String>,
        /// JSONL event-trace output file.
        trace: Option<String>,
        /// Aggregated metrics JSON output file.
        metrics: Option<String>,
    },
    /// `online run --stream f.jsonl [--member M]` / `online race [--seed S]
    /// [--n N] [--k K] [--members LIST] [--out f.json]` — replay an event
    /// stream through one portfolio member, or race the whole portfolio on
    /// generated agreeable/laminar streams plus the adversary construction.
    Online {
        /// Subcommand (`run` or `race`).
        mode: String,
        /// Event-stream JSONL file (`run`).
        stream: Option<String>,
        /// Portfolio member label, or `auto` to follow the classifier (`run`).
        member: String,
        /// Generator seed (`race`).
        seed: u64,
        /// Jobs per generated stream (`race`).
        n: usize,
        /// Adversary recursion depth (`race`, ≥ 2).
        k: usize,
        /// Members to race, comma-separated or `all` (`race`).
        members: String,
        /// Race-report JSON output file (`race`).
        out: Option<String>,
        /// JSONL event-trace output file.
        trace: Option<String>,
        /// Aggregated metrics JSON output file.
        metrics: Option<String>,
    },
    /// `chaos [--seed S] [--n N] [--plan f.json]` — deterministic
    /// fault-injection run exercising every [`FaultSite`] against the full
    /// stack; `--plan` replaces the derived chaos plan with an explicit one.
    Chaos {
        /// Seed deriving the fault plan and the workload.
        seed: u64,
        /// Workload size (jobs).
        n: usize,
        /// Explicit fault-plan file (overrides the seed-derived plan).
        plan: Option<String>,
        /// JSONL event-trace output file.
        trace: Option<String>,
        /// Aggregated metrics JSON output file.
        metrics: Option<String>,
    },
    /// `bench` — run every seeded scenario in `src/bench.rs` and rewrite
    /// its committed `BENCH_*.json` counter file in the current directory;
    /// CI fails when the rewrite changes a committed file.
    Bench,
    /// `certcheck [--seed S] [--cases N] [--pool [--corrupt]] [--out
    /// f.txt]` — deterministic certifier-vs-flow verdict cross-check; the
    /// report carries no wall times, so same-seed runs are byte-identical
    /// (CI diffs them). `--pool` runs the same seeded case batch against a
    /// live in-process backend pool with `--verify all` instead: every
    /// proof-carrying answer is re-checked coordinator-side, and `--corrupt`
    /// plants one Byzantine backend to prove the refutation path fires.
    CertCheck {
        /// Base seed for the instance batch.
        seed: u64,
        /// Number of seeded cases (cycling through all families).
        cases: usize,
        /// Run against a live three-backend pool with `--verify all`.
        pool: bool,
        /// Seed one backend with an `answer_corruption` plan (pool mode).
        corrupt: bool,
        /// Optional file to write the report to (stdout otherwise).
        out: Option<String>,
    },
    /// `serve [--addr A] [--workers N] [--queue-cap N] [--drain-ms N]
    /// [--seed S] [--retry-attempts N] [--chaos | --plan f.json]
    /// [--journal f.jsonl] [--deadline-ms N] [--port-file f]
    /// [--trace f.jsonl] [--metrics f.json]` — supervised JSONL-over-TCP
    /// request server with bounded admission, panic recovery, and a
    /// crash-safe journal.
    Serve {
        /// Listen address (`127.0.0.1:0` picks a free port).
        addr: String,
        /// Worker threads.
        workers: usize,
        /// Admission bound (queued + running + awaiting retry).
        queue_cap: usize,
        /// Drain deadline after a shutdown request, in milliseconds.
        drain_ms: u64,
        /// Seed for retry jitter and the `--chaos` fault plan.
        seed: u64,
        /// Panic-retry attempts before a request is quarantined.
        retry_attempts: u32,
        /// Inject the seed-derived chaos fault plan into the workers.
        chaos: bool,
        /// Explicit fault-plan file (mutually exclusive with `--chaos`).
        plan: Option<String>,
        /// Write-ahead journal path; replayed on restart.
        journal: Option<String>,
        /// Default per-request deadline for requests that carry none.
        deadline_ms: Option<u64>,
        /// File to write the bound address to (for scripted clients).
        port_file: Option<String>,
        /// JSONL event-trace output file.
        trace: Option<String>,
        /// Aggregated metrics JSON output file.
        metrics: Option<String>,
    },
    /// `load --addr A [--n N] [--seed S] [--paced] [--window W]
    /// [--deadline-ms N] [--out f] [--hist f.json] [--no-shutdown]` —
    /// deterministic load client for a running server; writes the
    /// response transcript and, with `--hist`, the client-side latency
    /// histogram (same bucket scheme as the server's `stats` endpoint).
    Load {
        /// Server address to connect to.
        addr: String,
        /// Requests to send.
        n: usize,
        /// Seed for the request mix.
        seed: u64,
        /// Arrival-driven pacing instead of closed-loop.
        paced: bool,
        /// Max outstanding requests in closed-loop mode.
        window: usize,
        /// Per-request deadline to attach.
        deadline_ms: Option<u64>,
        /// Transcript output file (response lines sorted by id).
        out: Option<String>,
        /// Latency-histogram JSON output file (`mm_obs` bucket scheme).
        hist: Option<String>,
        /// Send a shutdown request after the run (drains the server).
        shutdown: bool,
    },
    /// `cluster <solve|sweep|grid|stats> --backends a,b,c [...]` —
    /// scatter–gather coordinator over a pool of running `machmin serve`
    /// backends: pluggable balancing, hedged requests, bounded retries,
    /// backend quarantine, and byte-identical same-seed transcripts. The
    /// `stats` workload scrapes every backend's live registry and prints
    /// the bucket-exact pool-wide merge.
    Cluster {
        /// Workload: `solve`, `sweep`, `grid`, or `stats`.
        workload: String,
        /// Instance file (solve workload only).
        path: Option<String>,
        /// Backend addresses (`--backends host:p1,host:p2,...`).
        backends: Vec<String>,
        /// Balancing policy (`round-robin`, `least-outstanding`, `hash`).
        balance: String,
        /// Seed for hashing, hedging, and the `--chaos` plan.
        seed: u64,
        /// Max outstanding units across the pool.
        window: usize,
        /// Hedge every nth unit (mutually exclusive with `--hedge-p99`).
        hedge_every: Option<u64>,
        /// Hedge when a unit exceeds this multiple (%) of observed p99.
        hedge_p99: Option<u64>,
        /// Latency floor in ms below which p99 hedging never fires.
        hedge_floor_ms: u64,
        /// Inject the seed-derived chaos fault plan into the coordinator.
        chaos: bool,
        /// Explicit fault-plan file (mutually exclusive with `--chaos`).
        plan: Option<String>,
        /// Per-unit deadline to attach, if any.
        deadline_ms: Option<u64>,
        /// Sweep policies, comma-separated (sweep workload).
        policies: String,
        /// Deepest adversary depth (sweep workload, ≥ 2).
        k: usize,
        /// Machine budget per sweep shard (sweep workload).
        machines: usize,
        /// Sweep checkpoint file, saved after every completed shard.
        checkpoint: Option<String>,
        /// Resume the sweep from the checkpoint file.
        resume: bool,
        /// Grid families, comma-separated (grid and online workloads).
        families: String,
        /// Seeds per family (grid and online workloads).
        seeds: u64,
        /// Jobs per generated instance (grid and online workloads).
        n: usize,
        /// Portfolio members, comma-separated or `all` (online workload).
        members: String,
        /// Churn-plan file: membership events executed on the seeded
        /// `backend_churn` schedule (elastic pool mode).
        churn: Option<String>,
        /// Spare backend addresses consumed by the plan's `join` events.
        spares: Vec<String>,
        /// Max live shard migrations per observation window.
        migration_budget: u64,
        /// Answer-verification policy (`off`, `spot`, `all`): ask backends
        /// for proof-carrying answers and refute/quarantine liars.
        verify: String,
        /// Transcript output file (header + response lines sorted by id).
        out: Option<String>,
        /// JSONL event-trace output file.
        trace: Option<String>,
        /// Aggregated metrics JSON output file.
        metrics: Option<String>,
    },
    /// `top --backends a,b,c [--interval-s N] [--frames N]` — live
    /// terminal view over a backend pool's `stats` endpoints: per-backend
    /// uptime, queue depth, in-flight count, and latency quantiles, plus
    /// the pool-wide merge and the slowest recent spans. One-shot by
    /// default; `--interval-s` refreshes until `--frames` frames printed.
    Top {
        /// Backend addresses (`--backends host:p1,host:p2,...`).
        backends: Vec<String>,
        /// Seconds between refreshes (0 = print one frame and exit).
        interval_s: u64,
        /// Frames to print when refreshing (0 = until interrupted).
        frames: u64,
    },
    /// `help`.
    Help,
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Like [`flag`], but a flag present without a value is an error instead of
/// being silently ignored (a typo'd `--trace` must not drop the trace).
fn value_flag(args: &[String], name: &str) -> Result<Option<String>, Error> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v.clone())),
            None => Err(Error::Usage(format!("{name} requires a value"))),
        },
    }
}

/// A numeric [`value_flag`]; a present-but-unparsable value is a usage error.
fn num_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, Error> {
    match value_flag(args, name)? {
        None => Ok(None),
        Some(v) => v
            .parse::<T>()
            .map(Some)
            .map_err(|_| Error::Usage(format!("invalid {name} value: {v}"))),
    }
}

/// Parses raw arguments (without the program name).
pub fn parse(args: &[String]) -> Result<Command, Error> {
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "solve" => {
            let mut budget: Option<Budget> = None;
            if let Some(n) = num_flag::<u64>(args, "--budget-augmentations")? {
                budget = Some(
                    budget
                        .unwrap_or_else(Budget::unlimited)
                        .with_augmentations(n),
                );
            }
            if let Some(ms) = num_flag::<u64>(args, "--budget-ms")? {
                budget = Some(budget.unwrap_or_else(Budget::unlimited).with_probe_ms(ms));
            }
            if let Some(n) = num_flag::<usize>(args, "--budget-nodes")? {
                budget = Some(
                    budget
                        .unwrap_or_else(Budget::unlimited)
                        .with_network_nodes(n),
                );
            }
            let attempts = num_flag::<u32>(args, "--attempts")?.unwrap_or(3);
            if attempts == 0 {
                return Err(Error::Usage("--attempts must be at least 1".into()));
            }
            Ok(Command::Solve {
                path: args.get(1).cloned().ok_or_else(usage_solve)?,
                budget,
                attempts,
                trace: value_flag(args, "--trace")?,
                metrics: value_flag(args, "--metrics")?,
            })
        }
        "classify" => Ok(Command::Classify {
            path: args.get(1).cloned().ok_or_else(usage_classify)?,
        }),
        "demigrate" => Ok(Command::Demigrate {
            path: args
                .get(1)
                .cloned()
                .ok_or_else(|| Error::Usage("usage: machmin demigrate <instance.json>".into()))?,
        }),
        "schedule" => {
            let path = args.get(1).cloned().ok_or_else(usage_schedule)?;
            let policy = flag(args, "--policy").ok_or_else(usage_schedule)?;
            let machines = num_flag::<usize>(args, "--machines")?;
            Ok(Command::Schedule {
                path,
                policy,
                machines,
                trace: value_flag(args, "--trace")?,
                metrics: value_flag(args, "--metrics")?,
            })
        }
        "generate" => {
            let family = args.get(1).cloned().ok_or_else(usage_generate)?;
            let n = num_flag::<usize>(args, "--n")?.unwrap_or(50);
            let seed = num_flag::<u64>(args, "--seed")?.unwrap_or(0);
            let out = flag(args, "--out").ok_or_else(usage_generate)?;
            Ok(Command::Generate {
                family,
                n,
                seed,
                out,
            })
        }
        "adversary" => {
            let policy = flag(args, "--policy").ok_or_else(usage_adversary)?;
            let k = num_flag::<usize>(args, "--k")?.unwrap_or(4);
            if k < 2 {
                return Err(Error::Usage("--k must be at least 2".into()));
            }
            let machines = num_flag::<usize>(args, "--machines")?.unwrap_or(16);
            let checkpoint = value_flag(args, "--checkpoint")?;
            let resume = args.iter().any(|a| a == "--resume");
            if resume && checkpoint.is_none() {
                return Err(Error::Usage("--resume requires --checkpoint".into()));
            }
            Ok(Command::Adversary {
                policy,
                k,
                machines,
                checkpoint,
                resume,
                export_stream: value_flag(args, "--export-stream")?,
                trace: value_flag(args, "--trace")?,
                metrics: value_flag(args, "--metrics")?,
            })
        }
        "online" => {
            let mode = args.get(1).cloned().ok_or_else(usage_online)?;
            if mode != "run" && mode != "race" {
                return Err(usage_online());
            }
            let stream = value_flag(args, "--stream")?;
            if mode == "run" && stream.is_none() {
                return Err(Error::Usage("online run requires --stream f.jsonl".into()));
            }
            let k = num_flag::<usize>(args, "--k")?.unwrap_or(4);
            if k < 2 {
                return Err(Error::Usage("--k must be at least 2".into()));
            }
            Ok(Command::Online {
                mode,
                stream,
                member: value_flag(args, "--member")?.unwrap_or_else(|| "auto".into()),
                seed: num_flag::<u64>(args, "--seed")?.unwrap_or(7),
                n: num_flag::<usize>(args, "--n")?.unwrap_or(40).max(1),
                k,
                members: value_flag(args, "--members")?.unwrap_or_else(|| "all".into()),
                out: value_flag(args, "--out")?,
                trace: value_flag(args, "--trace")?,
                metrics: value_flag(args, "--metrics")?,
            })
        }
        "chaos" => Ok(Command::Chaos {
            seed: num_flag::<u64>(args, "--seed")?.unwrap_or(0),
            n: num_flag::<usize>(args, "--n")?.unwrap_or(16).max(1),
            plan: value_flag(args, "--plan")?,
            trace: value_flag(args, "--trace")?,
            metrics: value_flag(args, "--metrics")?,
        }),
        "bench" => match args.get(1) {
            None => Ok(Command::Bench),
            Some(arg) => Err(Error::Usage(format!(
                "bench takes no arguments (got `{arg}`); usage: machmin bench"
            ))),
        },
        "certcheck" => {
            let pool = args.iter().any(|a| a == "--pool");
            let corrupt = args.iter().any(|a| a == "--corrupt");
            if corrupt && !pool {
                return Err(Error::Usage("--corrupt requires --pool".into()));
            }
            Ok(Command::CertCheck {
                seed: num_flag::<u64>(args, "--seed")?.unwrap_or(1),
                cases: num_flag::<usize>(args, "--cases")?.unwrap_or(25).max(1),
                pool,
                corrupt,
                out: value_flag(args, "--out")?,
            })
        }
        "serve" => {
            let chaos = args.iter().any(|a| a == "--chaos");
            let plan = value_flag(args, "--plan")?;
            if chaos && plan.is_some() {
                return Err(Error::Usage(
                    "--chaos and --plan are mutually exclusive".into(),
                ));
            }
            Ok(Command::Serve {
                addr: value_flag(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:0".into()),
                workers: num_flag::<usize>(args, "--workers")?.unwrap_or(2).max(1),
                queue_cap: num_flag::<usize>(args, "--queue-cap")?.unwrap_or(16).max(1),
                drain_ms: num_flag::<u64>(args, "--drain-ms")?.unwrap_or(2_000),
                seed: num_flag::<u64>(args, "--seed")?.unwrap_or(0),
                retry_attempts: num_flag::<u32>(args, "--retry-attempts")?
                    .unwrap_or(3)
                    .max(1),
                chaos,
                plan,
                journal: value_flag(args, "--journal")?,
                deadline_ms: num_flag::<u64>(args, "--deadline-ms")?,
                port_file: value_flag(args, "--port-file")?,
                trace: value_flag(args, "--trace")?,
                metrics: value_flag(args, "--metrics")?,
            })
        }
        "cluster" => {
            let workload = args.get(1).cloned().ok_or_else(usage_cluster)?;
            if !matches!(
                workload.as_str(),
                "solve" | "sweep" | "grid" | "online" | "stats"
            ) {
                return Err(usage_cluster());
            }
            let path = if workload == "solve" {
                let p = args
                    .get(2)
                    .filter(|p| !p.starts_with("--"))
                    .cloned()
                    .ok_or_else(|| {
                        Error::Usage("cluster solve requires an instance file".into())
                    })?;
                Some(p)
            } else {
                None
            };
            let backends: Vec<String> = value_flag(args, "--backends")?
                .ok_or_else(usage_cluster)?
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            if backends.is_empty() {
                return Err(Error::Usage(
                    "--backends needs at least one host:port".into(),
                ));
            }
            let hedge_every = num_flag::<u64>(args, "--hedge-every")?;
            let hedge_p99 = num_flag::<u64>(args, "--hedge-p99")?;
            if hedge_every.is_some() && hedge_p99.is_some() {
                return Err(Error::Usage(
                    "--hedge-every and --hedge-p99 are mutually exclusive".into(),
                ));
            }
            if hedge_every == Some(0) {
                return Err(Error::Usage("--hedge-every must be at least 1".into()));
            }
            let chaos = args.iter().any(|a| a == "--chaos");
            let plan = value_flag(args, "--plan")?;
            if chaos && plan.is_some() {
                return Err(Error::Usage(
                    "--chaos and --plan are mutually exclusive".into(),
                ));
            }
            let k = num_flag::<usize>(args, "--k")?.unwrap_or(4);
            if k < 2 {
                return Err(Error::Usage("--k must be at least 2".into()));
            }
            let checkpoint = value_flag(args, "--checkpoint")?;
            let resume = args.iter().any(|a| a == "--resume");
            if resume && checkpoint.is_none() {
                return Err(Error::Usage("--resume requires --checkpoint".into()));
            }
            let churn = value_flag(args, "--churn")?;
            let spares: Vec<String> = value_flag(args, "--spares")?
                .map(|s| {
                    s.split(',')
                        .map(|a| a.trim().to_string())
                        .filter(|a| !a.is_empty())
                        .collect()
                })
                .unwrap_or_default();
            if !spares.is_empty() && churn.is_none() {
                return Err(Error::Usage("--spares requires --churn".into()));
            }
            Ok(Command::Cluster {
                workload,
                path,
                backends,
                balance: value_flag(args, "--balance")?.unwrap_or_else(|| "round-robin".into()),
                seed: num_flag::<u64>(args, "--seed")?.unwrap_or(0),
                window: num_flag::<usize>(args, "--window")?.unwrap_or(8).max(1),
                hedge_every,
                hedge_p99,
                hedge_floor_ms: num_flag::<u64>(args, "--hedge-floor-ms")?.unwrap_or(10),
                chaos,
                plan,
                deadline_ms: num_flag::<u64>(args, "--deadline-ms")?,
                policies: value_flag(args, "--policies")?.unwrap_or_else(|| "edf-ff".into()),
                k,
                machines: num_flag::<usize>(args, "--machines")?.unwrap_or(16),
                checkpoint,
                resume,
                families: value_flag(args, "--families")?
                    .unwrap_or_else(|| "uniform,agreeable,loose".into()),
                seeds: num_flag::<u64>(args, "--seeds")?.unwrap_or(3).max(1),
                n: num_flag::<usize>(args, "--n")?.unwrap_or(12).max(1),
                members: value_flag(args, "--members")?.unwrap_or_else(|| "all".into()),
                churn,
                spares,
                migration_budget: num_flag::<u64>(args, "--migration-budget")?.unwrap_or(64),
                verify: value_flag(args, "--verify")?.unwrap_or_else(|| "off".into()),
                out: value_flag(args, "--out")?,
                trace: value_flag(args, "--trace")?,
                metrics: value_flag(args, "--metrics")?,
            })
        }
        "load" => Ok(Command::Load {
            addr: value_flag(args, "--addr")?.ok_or_else(usage_load)?,
            n: num_flag::<usize>(args, "--n")?.unwrap_or(100).max(1),
            seed: num_flag::<u64>(args, "--seed")?.unwrap_or(0),
            paced: args.iter().any(|a| a == "--paced"),
            window: num_flag::<usize>(args, "--window")?.unwrap_or(8).max(1),
            deadline_ms: num_flag::<u64>(args, "--deadline-ms")?,
            out: value_flag(args, "--out")?,
            hist: value_flag(args, "--hist")?,
            shutdown: !args.iter().any(|a| a == "--no-shutdown"),
        }),
        "top" => {
            let backends: Vec<String> = value_flag(args, "--backends")?
                .ok_or_else(usage_top)?
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            if backends.is_empty() {
                return Err(Error::Usage(
                    "--backends needs at least one host:port".into(),
                ));
            }
            Ok(Command::Top {
                backends,
                interval_s: num_flag::<u64>(args, "--interval-s")?.unwrap_or(0),
                frames: num_flag::<u64>(args, "--frames")?.unwrap_or(0),
            })
        }
        other => Err(Error::Usage(format!(
            "unknown command `{other}`; run `machmin help`"
        ))),
    }
}

fn usage_solve() -> Error {
    Error::Usage(
        "usage: machmin solve <instance.json> [--trace f.jsonl] [--metrics f.json] \
         [--budget-augmentations N] [--budget-ms N] [--budget-nodes N] [--attempts K]"
            .into(),
    )
}

fn usage_classify() -> Error {
    Error::Usage("usage: machmin classify <instance.json>".into())
}

fn usage_schedule() -> Error {
    Error::Usage(
        "usage: machmin schedule <instance.json> --policy <edf|llf|edf-ff|medium-fit|agreeable|laminar> [--machines N] [--trace f.jsonl] [--metrics f.json]"
            .into(),
    )
}

fn usage_generate() -> Error {
    Error::Usage(
        "usage: machmin generate <uniform|agreeable|laminar|loose> [--n N] [--seed S] --out <file.json>"
            .into(),
    )
}

fn usage_adversary() -> Error {
    Error::Usage(
        "usage: machmin adversary --policy <edf-ff|medium-fit> [--k K] [--machines N] \
         [--checkpoint f.json [--resume]] [--export-stream f.jsonl] [--trace f.jsonl] \
         [--metrics f.json]"
            .into(),
    )
}

fn usage_online() -> Error {
    Error::Usage(
        "usage: machmin online run --stream f.jsonl [--member M]  |  machmin online race \
         [--seed S] [--n N] [--k K] [--members LIST] [--out f.json] \
         (M/LIST from loose|laminar|agreeable|cms|imps, plus auto/all)"
            .into(),
    )
}

fn usage_cluster() -> Error {
    Error::Usage(
        "usage: machmin cluster <solve <inst.json>|sweep|grid|online|stats> --backends <a,b,c> \
         [--balance round-robin|least-outstanding|hash] [--seed S] [--window W] \
         [--hedge-every N | --hedge-p99 PCT] [--hedge-floor-ms N] [--chaos | --plan f.json] \
         [--churn plan.json [--spares d,e]] [--migration-budget N] \
         [--verify off|spot|all] \
         [--deadline-ms N] [--policies p1,p2] [--k K] [--machines N] \
         [--checkpoint f.json [--resume]] [--families f1,f2] [--seeds S] [--n N] \
         [--members LIST] [--out transcript.jsonl] [--trace f.jsonl] [--metrics f.json]"
            .into(),
    )
}

fn usage_load() -> Error {
    Error::Usage(
        "usage: machmin load --addr <host:port> [--n N] [--seed S] [--paced] [--window W] \
         [--deadline-ms N] [--out transcript.jsonl] [--hist hist.json] [--no-shutdown]"
            .into(),
    )
}

fn usage_top() -> Error {
    Error::Usage("usage: machmin top --backends <a,b,c> [--interval-s N] [--frames N]".into())
}

/// Help text.
pub fn help_text() -> &'static str {
    "machmin — online machine minimization (SPAA'16 reproduction)\n\
     \n\
     commands:\n\
       solve <inst.json>                        exact migratory optimum + Theorem 1 certificate\n\
       classify <inst.json>                     structure (agreeable/laminar), Δ, looseness\n\
       schedule <inst.json> --policy P [--machines N]\n\
                                                run an online policy and verify its schedule\n\
                                                P ∈ {edf, llf, edf-ff, medium-fit, agreeable, laminar}\n\
       demigrate <inst.json>                    offline migratory → non-migratory transformation\n\
       generate <family> [--n N] [--seed S] --out <file.json>\n\
                                                family ∈ {uniform, agreeable, laminar, loose}\n\
       adversary --policy P [--k K] [--machines N] [--checkpoint f.json [--resume]]\n\
                 [--export-stream f.jsonl]       migration-gap sweep over depths k = 2..=K,\n\
                                                checkpointing each completed depth (P ∈ {edf-ff, medium-fit});\n\
                                                --export-stream writes the strongest forced-release trace\n\
                                                as a replayable event stream for `online run`\n\
       online run --stream f.jsonl [--member M]  replay a JSONL event stream through one portfolio\n\
                                                member (strictly no lookahead) and report machines\n\
                                                opened vs the offline Theorem-1 optimum;\n\
                                                M ∈ {loose, laminar, agreeable, cms, imps, auto}\n\
       online race [--seed S] [--n N] [--k K] [--members LIST] [--out f.json]\n\
                                                race the portfolio over seeded agreeable/laminar\n\
                                                streams and the adversary's forced-release trace;\n\
                                                per-member measured competitive ratios, gated\n\
                                                against the paper's bounds (32.70·m agreeable\n\
                                                upper bound, 1.101·m lower bound)\n\
       chaos [--seed S] [--n N] [--plan f.json] deterministic fault-injection run exercising every\n\
                                                fault site (probe_cancel, force_bigint, machine_failure,\n\
                                                machine_slowdown, adversary_abort, worker_panic,\n\
                                                backend_drop, backend_churn) without panicking;\n\
                                                --plan loads an explicit plan\n\
       serve [--addr A] [--workers N] [--queue-cap N] [--drain-ms N] [--seed S] [--retry-attempts N]\n\
             [--chaos | --plan f.json] [--journal f.jsonl] [--deadline-ms N] [--port-file f]\n\
                                                supervised JSONL-over-TCP request server: bounded\n\
                                                admission with shedding, per-request deadlines,\n\
                                                panic-recycling workers, crash-safe journal replay,\n\
                                                graceful drain (a `shutdown` request ends it)\n\
       load --addr <host:port> [--n N] [--seed S] [--paced] [--window W] [--out f]\n\
            [--hist hist.json] [--no-shutdown]\n\
                                                deterministic load client: mixed request stream,\n\
                                                transcript sorted by id, p50/p99/p999 latency\n\
                                                report, optional client-side latency histogram\n\
       cluster <solve <inst.json>|sweep|grid|online|stats> --backends <a,b,c> [--balance B] [--seed S]\n\
               [--window W] [--hedge-every N | --hedge-p99 PCT] [--chaos | --plan f.json]\n\
               [--churn plan.json [--spares d,e]] [--migration-budget N]\n\
               [--verify off|spot|all]\n\
               [--policies p1,p2] [--k K] [--families f1,f2] [--seeds S] [--n N]\n\
               [--members LIST] [--checkpoint f.json [--resume]] [--out transcript.jsonl]\n\
                                                scatter–gather over a pool of running servers:\n\
                                                B ∈ {round-robin, least-outstanding, hash};\n\
                                                hedged requests, bounded retries, recoverable\n\
                                                quarantine, byte-identical same-seed transcripts;\n\
                                                --churn runs a seeded membership schedule (joins,\n\
                                                graceful drains with live shard migration, flaps);\n\
                                                `stats` scrapes every backend's registry, prints\n\
                                                the bucket-exact pool-wide merge plus per-backend\n\
                                                overload index, migration, and verified/refuted\n\
                                                counters; --verify asks for proof-carrying answers\n\
                                                and refutes/quarantines/re-asks on a caught lie;\n\
                                                `online` races the portfolio on the pool (member ×\n\
                                                family × seed) and checks the merged per-member\n\
                                                ratios against a single-node reference\n\
       top --backends <a,b,c> [--interval-s N] [--frames N]\n\
                                                live terminal view over the pool's stats endpoints:\n\
                                                queue depth, in-flight, latency quantiles, slowest\n\
                                                spans; one-shot unless --interval-s is given\n\
       bench                                    run every seeded bench scenario (solver, serve, cluster,\n\
                                                obs, large, churn, verify, online), check its own\n\
                                                invariants, and rewrite its committed BENCH_*.json\n\
                                                counter file; CI fails on any diff (timing is printed,\n\
                                                never written)\n\
       certcheck [--seed S] [--cases N] [--pool [--corrupt]] [--out f.txt]\n\
                                                certifier-vs-flow verdict cross-check; same-seed\n\
                                                reports are byte-identical, mismatches exit 6;\n\
                                                --pool re-verifies proof-carrying answers from a\n\
                                                live backend pool (--corrupt plants one liar)\n\
       help                                     this text\n\
     \n\
     observability (solve, schedule, adversary, online, chaos, serve, cluster):\n\
       --trace <file.jsonl>                     stream typed events (one JSON object per line)\n\
       --metrics <file.json>                    write aggregated counters and histograms\n\
     \n\
     robustness (solve):\n\
       --budget-augmentations N                 cancel a feasibility probe after N augmenting paths\n\
       --budget-ms N                            cancel a feasibility probe after N wall-clock ms\n\
       --budget-nodes N                         refuse flow networks larger than N nodes\n\
       --attempts K                             double the budget up to K times, then settle for\n\
                                                a certified bracket [lo, hi] (still exit code 0)\n\
     \n\
     exit codes: 0 success (incl. degraded bracket), 1 internal, 2 usage,\n\
                 3 io/parse, 4 validation, 5 simulation, 6 verification, 70 panic\n"
}

fn load(path: &str) -> Result<Instance, Error> {
    let inst = io::load(path).map_err(|e| Error::Io(format!("cannot load {path}: {e}")))?;
    let report = inst.validate();
    if !report.is_ok() {
        return Err(Error::Validation(format!("{path}: {report}")));
    }
    Ok(inst)
}

/// Loads an explicit fault plan, surfacing malformed JSON as a categorized
/// io error (exit 3) with line/column context — a truncated plan file must
/// never panic the process.
fn load_fault_plan(path: &str) -> Result<FaultPlan, Error> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| Error::Io(format!("cannot read fault plan {path}: {e}")))?;
    if let Err(e) = mm_json::parse(&text) {
        return Err(Error::Io(format!(
            "cannot parse fault plan {path}: {e} ({})",
            e.locate(&text)
        )));
    }
    FaultPlan::from_json(&text).map_err(|e| Error::Io(format!("invalid fault plan {path}: {e}")))
}

/// `certcheck --pool`: the seeded cross-check batch shipped to a live
/// three-backend pool as solve units under `--verify all`. Every answer
/// comes back proof-carrying and is re-checked coordinator-side — the
/// certifier arithmetic against the backend's flow oracle, end to end over
/// the wire. With `--corrupt`, one backend lies exactly once and must be
/// refuted, quarantined, and routed around. The report carries no wall
/// times, so same-seed runs are byte-identical.
fn certcheck_pool(seed: u64, cases: usize, corrupt: bool) -> Result<String, Error> {
    use mm_serve::protocol::{Request, RequestKind};
    let batch = mm_bench::crosscheck::pool_cases(seed, cases);
    let mut plans = vec![FaultPlan::none(); 3];
    if corrupt {
        plans[2] = FaultPlan::once(FaultSite::AnswerCorruption, 1);
    }
    let pool = spawn_pool_plans(&plans, 2 * cases + 8)?;
    let cfg = ClusterConfig {
        backends: pool.iter().map(|b| b.addr.clone()).collect(),
        balance: BalancePolicy::RoundRobin,
        seed,
        window: cases.max(1),
        verify: mm_cluster::VerifyPolicy::All,
        ..ClusterConfig::default()
    };
    let units: Vec<Request> = batch
        .iter()
        .enumerate()
        .map(|(i, (_, jobs))| Request::new(i as u64 + 1, RequestKind::Solve { jobs: jobs.clone() }))
        .collect();
    let (report, corrupted) = run_pool("certcheck pool", pool, cfg, units)?;
    let v = report
        .counters
        .verify
        .as_ref()
        .ok_or_else(|| Error::Internal("certcheck pool ran without verify counters".into()))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "certcheck pool seed={seed} cases={cases} corrupt={corrupt}"
    );
    for (i, (family, jobs)) in batch.iter().enumerate() {
        let m = report
            .responses
            .get(&(i as u64 + 1))
            .and_then(|l| mm_json::parse(l).ok())
            .and_then(|j| j.get("machines").and_then(mm_json::Json::as_i64))
            .unwrap_or(-1);
        let _ = writeln!(
            out,
            "case {i}: family={family} n={n} m={m} proof-verified",
            n = jobs.len()
        );
    }
    let _ = writeln!(
        out,
        "verify: {} verified, {} refuted, {} unverifiable, {} re-ask(s), {} lie(s) injected",
        v.verified, v.refuted, v.unverifiable, v.reasks, corrupted
    );
    if corrupt {
        if v.refuted == 0 || corrupted == 0 {
            return Err(Error::Verification(format!(
                "seeded liar was never refuted ({} refuted, {} corrupted)",
                v.refuted, corrupted
            )));
        }
        let _ = writeln!(
            out,
            "liar refuted and quarantined; refuted unit(s) re-asked on survivors"
        );
    } else {
        if v.refuted != 0 || corrupted != 0 {
            return Err(Error::Verification(format!(
                "honest pool produced {} refutation(s) ({} corrupted)",
                v.refuted, corrupted
            )));
        }
        let _ = writeln!(out, "all answers proof-verified, zero refutations");
    }
    Ok(out)
}

/// Merges every `latency_us.*` histogram of a snapshot into one, for
/// whole-backend / whole-pool latency quantiles.
fn merged_latency(snap: &mm_obs::RegistrySnapshot) -> mm_obs::Histogram {
    let mut all = mm_obs::Histogram::new();
    for (name, h) in &snap.histograms {
        if name.starts_with("latency_us.") {
            all.merge(h);
        }
    }
    all
}

/// Formats a microsecond latency compactly.
fn fmt_lat(us: u64) -> String {
    if us < 1_000 {
        format!("{us}us")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{:.2}s", us as f64 / 1e6)
    }
}

/// Formats a microsecond latency quantile compactly ("-" for no data).
fn fmt_q(hist: &mm_obs::Histogram, q: f64) -> String {
    if hist.count() == 0 {
        return "-".into();
    }
    fmt_lat(hist.quantile(q))
}

/// Feeds one pool-wide scrape into an overload index: queue depth and
/// in-flight come from the backend's gauges, p99 from its merged latency
/// histogram. `machmin top` keeps the index alive across refresh frames so
/// the sustain hysteresis is real; one-shot `cluster stats` shows a single
/// window's verdict.
fn observe_overload(index: &mut mm_cluster::OverloadIndex, outcome: &mm_cluster::StatsOutcome) {
    use mm_json::Json;
    for (i, b) in outcome.backends.iter().enumerate() {
        let Some(r) = &b.response else { continue };
        let int = |key: &str| r.get(key).and_then(Json::as_i64).unwrap_or(0).max(0) as u64;
        let lat = merged_latency(&b.snapshot);
        let p99_us = if lat.count() == 0 {
            0
        } else {
            lat.quantile(0.99)
        };
        index.record(
            i,
            mm_cluster::OverloadSample {
                queue_depth: int("queue_depth"),
                p99_us,
                outstanding: int("in_flight"),
            },
        );
    }
}

/// One `machmin top` frame rendered from a pool-wide scrape. `HEAT` is the
/// backend's overload index as `hot/windows` (a trailing `!` marks a
/// sustained offender); `MIGR` counts requests the backend answered on
/// behalf of a draining or overloaded peer.
fn render_top(outcome: &mm_cluster::StatsOutcome, overload: &mm_cluster::OverloadIndex) -> String {
    use mm_json::Json;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "machmin top — {}/{} backend(s) up",
        outcome.reachable,
        outcome.backends.len()
    );
    let _ = writeln!(
        s,
        "  {:<22} {:>9} {:>6} {:>5} {:>8} {:>6} {:>5} {:>8} {:>7} {:>8} {:>8} {:>8}",
        "BACKEND",
        "UPTIME",
        "DEPTH",
        "INFL",
        "RESP",
        "MIGR",
        "HEAT",
        "VERIFIED",
        "REFUTED",
        "P50",
        "P99",
        "P999"
    );
    let int = |r: &Json, key: &str| r.get(key).and_then(Json::as_i64).unwrap_or(0);
    let heat = overload.snapshot();
    for (i, b) in outcome.backends.iter().enumerate() {
        match &b.response {
            None => {
                let _ = writeln!(s, "  {:<22} unreachable", b.addr);
            }
            Some(r) => {
                let lat = merged_latency(&b.snapshot);
                let (hot, windows) = heat.get(i).copied().unwrap_or((0, 0));
                let counter = |key: &str| b.snapshot.counters.get(key).copied().unwrap_or(0);
                let _ = writeln!(
                    s,
                    "  {:<22} {:>8}s {:>6} {:>5} {:>8} {:>6} {:>5} {:>8} {:>7} {:>8} {:>8} {:>8}",
                    b.addr,
                    int(r, "uptime_ms") / 1_000,
                    int(r, "queue_depth"),
                    int(r, "in_flight"),
                    counter("serve.responses"),
                    counter("serve.migrated_served"),
                    format!(
                        "{hot}/{windows}{}",
                        if overload.sustained(i) { "!" } else { "" }
                    ),
                    counter("serve.verified"),
                    counter("serve.refuted"),
                    fmt_q(&lat, 0.50),
                    fmt_q(&lat, 0.99),
                    fmt_q(&lat, 0.999),
                );
            }
        }
    }
    let pool = merged_latency(&outcome.merged);
    let merged_counter = |key: &str| outcome.merged.counters.get(key).copied().unwrap_or(0);
    let _ = writeln!(
        s,
        "  pool: {} response(s), {} migrated-answered, {} verified, {} refuted, \
         {} observation(s), p50 {}, p99 {}, p999 {}",
        merged_counter("serve.responses"),
        merged_counter("serve.migrated_served"),
        merged_counter("serve.verified"),
        merged_counter("serve.refuted"),
        pool.count(),
        fmt_q(&pool, 0.50),
        fmt_q(&pool, 0.99),
        fmt_q(&pool, 0.999),
    );
    // The slowest recent spans across the pool, worst first.
    let mut slowest: Vec<(u64, String)> = Vec::new();
    for b in &outcome.backends {
        let Some(r) = &b.response else { continue };
        let Some(spans) = r.get("slowest").and_then(Json::as_arr) else {
            continue;
        };
        for span in spans {
            let us = span.get("micros").and_then(Json::as_i64).unwrap_or(0) as u64;
            let kind = span
                .get("kind")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string();
            let id = span.get("id").and_then(Json::as_i64).unwrap_or(0);
            slowest.push((us, format!("{kind}#{id}@{} {}", b.addr, fmt_lat(us))));
        }
    }
    slowest.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    if !slowest.is_empty() {
        let top: Vec<String> = slowest.into_iter().take(4).map(|(_, s)| s).collect();
        let _ = writeln!(s, "  slowest: {}", top.join(", "));
    }
    s
}

/// The `--trace` / `--metrics` sink pair. Both are optional; with neither
/// requested the composed sink is disabled and the traced code paths cost
/// nothing beyond one boolean check per event site.
struct CliSinks {
    jsonl: Option<JsonlSink<BufWriter<std::fs::File>>>,
    metrics: Option<MetricsSink>,
    trace_path: Option<String>,
    metrics_path: Option<String>,
}

impl CliSinks {
    fn open(trace: Option<String>, metrics: Option<String>) -> Result<Self, Error> {
        let jsonl = match &trace {
            Some(path) => {
                let file = std::fs::File::create(path)
                    .map_err(|e| Error::Io(format!("cannot create {path}: {e}")))?;
                Some(JsonlSink::new(BufWriter::new(file)))
            }
            None => None,
        };
        let metrics_sink = metrics.is_some().then(MetricsSink::new);
        Ok(CliSinks {
            jsonl,
            metrics: metrics_sink,
            trace_path: trace,
            metrics_path: metrics,
        })
    }

    /// A borrowed sink to lend to one traced run (tee of both outputs).
    #[allow(clippy::type_complexity)]
    fn sink(
        &mut self,
    ) -> TeeSink<&mut Option<JsonlSink<BufWriter<std::fs::File>>>, &mut Option<MetricsSink>> {
        TeeSink(&mut self.jsonl, &mut self.metrics)
    }

    /// Records one event produced by the CLI layer itself (as opposed to a
    /// traced library run).
    fn record(&mut self, event: &TraceEvent) {
        let mut sink = self.sink();
        if sink.enabled() {
            sink.record(event);
        }
    }

    /// Flushes the trace, writes the metrics file, appends report lines to
    /// `out`, and hands back the aggregated metrics for cross-checks.
    fn finish(self, out: &mut String) -> Result<Option<Metrics>, Error> {
        if let (Some(sink), Some(path)) = (self.jsonl, &self.trace_path) {
            let events = sink.written();
            sink.finish()
                .map_err(|e| Error::Io(format!("cannot write trace {path}: {e}")))?;
            let _ = writeln!(out, "trace: {events} events -> {path}");
        }
        let metrics = self.metrics.map(|s| s.metrics);
        if let (Some(metrics), Some(path)) = (&metrics, &self.metrics_path) {
            std::fs::write(path, metrics.to_json().to_pretty())
                .map_err(|e| Error::Io(format!("cannot write metrics {path}: {e}")))?;
            let _ = writeln!(out, "metrics -> {path}");
        }
        Ok(metrics)
    }
}

/// Executes a command, returning the text to print.
pub fn execute(cmd: Command) -> Result<String, Error> {
    let mut out = String::new();
    match cmd {
        Command::Help => out.push_str(help_text()),
        Command::Solve {
            path,
            budget,
            attempts,
            trace,
            metrics,
        } => {
            let inst = load(&path)?;
            let mut sinks = CliSinks::open(trace, metrics)?;
            let _ = writeln!(out, "jobs: {}", inst.len());
            match budget {
                None => {
                    let m = optimal_machines_traced(&inst, sinks.sink());
                    let _ = writeln!(out, "migratory optimum m(J): {m}");
                }
                Some(initial) => {
                    let mut budget = initial;
                    let mut attempt = 1u32;
                    let search = loop {
                        let search = optimal_machines_budgeted_traced(&inst, &budget, sinks.sink());
                        if search.is_exact() || attempt == attempts {
                            break search;
                        }
                        let reason = search
                            .exceeded
                            .as_ref()
                            .map(|e| e.tag())
                            .unwrap_or("budget");
                        let _ = writeln!(
                            out,
                            "attempt {attempt}/{attempts}: {reason} budget exceeded at bracket \
                             [{}, {}]; doubling budget",
                            search.lo, search.hi
                        );
                        budget = budget.doubled();
                        attempt += 1;
                    };
                    match search.exact {
                        Some(m) => {
                            let _ = writeln!(
                                out,
                                "migratory optimum m(J): {m} (within budget, attempt \
                                 {attempt}/{attempts})"
                            );
                        }
                        None => {
                            let _ = writeln!(
                                out,
                                "degraded: certified bracket {} <= m(J) <= {} after {attempts} \
                                 attempt(s), {} unknown probe(s)",
                                search.lo, search.hi, search.unknown_probes
                            );
                        }
                    }
                }
            }
            let cert = contribution_bound(&inst);
            let _ = writeln!(
                out,
                "Theorem 1 certificate: ⌈{}⌉ = {} on witness {}",
                cert.density, cert.bound, cert.witness
            );
            sinks.finish(&mut out)?;
        }
        Command::Classify { path } => {
            let inst = load(&path)?;
            let _ = writeln!(out, "jobs: {}", inst.len());
            let _ = writeln!(out, "structure: {:?}", inst.classify());
            if let Some(d) = inst.delta() {
                let _ = writeln!(out, "Δ (max/min processing): {}", d);
            }
            for (num, den) in [(1i64, 2i64), (63, 100), (9, 10)] {
                let alpha = Rat::ratio(num, den);
                let loose = inst.iter().filter(|j| j.is_loose(&alpha)).count();
                let _ = writeln!(
                    out,
                    "α = {num}/{den}: {loose} loose / {} tight",
                    inst.len() - loose
                );
            }
        }
        Command::Demigrate { path } => {
            let inst = load(&path)?;
            let m = optimal_machines(&inst);
            let res = demigrate(&inst);
            let mut sched = res.schedule;
            verify(&inst, &mut sched, &VerifyOptions::nonmigratory())
                .map_err(|e| Error::Internal(format!("demigrated schedule invalid: {e:?}")))?;
            let _ = writeln!(out, "migratory optimum: {m}");
            let _ = writeln!(
                out,
                "non-migratory machines: {} (Theorem 2 bound: {})",
                res.machines,
                theorem2_bound(m)
            );
        }
        Command::Schedule {
            path,
            policy,
            machines,
            trace,
            metrics,
        } => {
            let inst = load(&path)?;
            let budget = machines.unwrap_or(inst.len()).max(1);
            let mut sinks = CliSinks::open(trace, metrics)?;
            let m = optimal_machines_traced(&inst, sinks.sink());
            let (outcome, opts) = match policy.as_str() {
                "edf" => (
                    run_policy_traced(&inst, Edf, SimConfig::migratory(budget), sinks.sink()),
                    VerifyOptions::migratory(),
                ),
                "llf" => (
                    run_policy_traced(
                        &inst,
                        Llf::new(),
                        SimConfig::migratory(budget),
                        sinks.sink(),
                    ),
                    VerifyOptions::migratory(),
                ),
                "edf-ff" => (
                    run_policy_traced(
                        &inst,
                        EdfFirstFit::new(),
                        SimConfig::nonmigratory(budget),
                        sinks.sink(),
                    ),
                    VerifyOptions::nonmigratory(),
                ),
                "medium-fit" => (
                    run_policy_traced(
                        &inst,
                        MediumFit::new(),
                        SimConfig::nonmigratory(budget),
                        sinks.sink(),
                    ),
                    VerifyOptions::nonpreemptive(),
                ),
                "agreeable" => (
                    run_policy_traced(
                        &inst,
                        AgreeableSplit::for_optimum(m),
                        SimConfig::nonmigratory(
                            AgreeableSplit::for_optimum(m).total_machines().max(budget),
                        ),
                        sinks.sink(),
                    ),
                    VerifyOptions::nonmigratory(),
                ),
                "laminar" => {
                    let p = LaminarBudget::new(
                        LaminarBudget::suggested_m_prime(m, 4),
                        (4 * m) as usize,
                        Rat::half(),
                    );
                    let total = p.total_machines().max(budget);
                    (
                        run_policy_traced(&inst, p, SimConfig::nonmigratory(total), sinks.sink()),
                        VerifyOptions::nonmigratory(),
                    )
                }
                other => return Err(Error::Usage(format!("unknown policy `{other}`"))),
            };
            let mut outcome = match outcome {
                Ok(o) => o,
                Err(e) => {
                    // Still flush the partial trace: runs that die against the
                    // step cap (or a policy bug) are exactly the ones worth
                    // inspecting offline.
                    sinks.finish(&mut out)?;
                    return Err(Error::Sim(format!("simulation failed: {e}")));
                }
            };
            let _ = writeln!(out, "policy: {policy}, budget: {budget}, optimum m: {m}");
            let stats = if outcome.feasible() {
                let stats =
                    verify(&outcome.instance, &mut outcome.schedule, &opts).map_err(|e| {
                        Error::Verification(format!("schedule failed verification: {e:?}"))
                    })?;
                let _ = writeln!(
                    out,
                    "feasible: yes | machines used: {} | migrations: {} | preemptions: {}",
                    stats.machines_used, stats.migrations, stats.preemptions
                );
                Some(stats)
            } else {
                let _ = writeln!(
                    out,
                    "feasible: NO ({} deadline misses within budget {budget})",
                    outcome.misses.len()
                );
                None
            };
            if let Some(metrics) = sinks.finish(&mut out)? {
                // The trace counters are defined to agree with the verified
                // schedule's stats; refuse to report silently-diverging ones.
                if let Some(stats) = &stats {
                    let ok = metrics.machines_opened == stats.machines_used as u64
                        && metrics.migrations == stats.migrations as u64
                        && metrics.preemptions == stats.preemptions as u64;
                    if !ok {
                        return Err(Error::Verification(format!(
                            "trace/verifier disagreement: metrics say \
                             {}/{}/{} (machines/migrations/preemptions), \
                             verifier says {}/{}/{}",
                            metrics.machines_opened,
                            metrics.migrations,
                            metrics.preemptions,
                            stats.machines_used,
                            stats.migrations,
                            stats.preemptions
                        )));
                    }
                    let _ = writeln!(out, "trace counters agree with verified schedule");
                }
            }
            outcome.schedule.compact_machines();
            out.push_str(&render_gantt(&mut outcome.schedule, 72));
        }
        Command::Adversary {
            policy,
            k,
            machines,
            checkpoint,
            resume,
            export_stream,
            trace,
            metrics,
        } => {
            let mut state = match (&checkpoint, resume) {
                (Some(path), true) if Path::new(path).exists() => {
                    let mut s = SweepCheckpoint::load(Path::new(path))
                        .map_err(|e| Error::Io(format!("cannot resume from {path}: {e}")))?;
                    if s.policy != policy {
                        return Err(Error::Usage(format!(
                            "checkpoint {path} was recorded for policy `{}`, not `{policy}`",
                            s.policy
                        )));
                    }
                    let done: Vec<usize> = s.completed.iter().map(|r| r.k).collect();
                    let _ = writeln!(out, "resumed {path}: depths {done:?} already complete");
                    // A deeper --k extends the sweep; a shallower one never
                    // discards completed work.
                    s.k_target = s.k_target.max(k);
                    s
                }
                _ => SweepCheckpoint::new(policy.clone(), k),
            };
            let mut sinks = CliSinks::open(trace, metrics)?;
            let mut export_best: Option<(usize, Instance)> = None;
            while let Some(depth) = state.next_k() {
                let res = match policy.as_str() {
                    "edf-ff" => {
                        MigrationGapAdversary::with_sink(EdfFirstFit::new(), machines, sinks.sink())
                            .run(depth)
                    }
                    "medium-fit" => {
                        MigrationGapAdversary::with_sink(MediumFit::new(), machines, sinks.sink())
                            .run(depth)
                    }
                    other => {
                        return Err(Error::Usage(format!(
                            "unknown adversary policy `{other}` (expected edf-ff or medium-fit)"
                        )))
                    }
                }
                .map_err(|e| Error::Sim(format!("adversary run at k={depth} failed: {e}")))?;
                let _ = writeln!(
                    out,
                    "k={depth}: forced {} machines, {} jobs, offline optimum {}{}{}",
                    res.machines_forced,
                    res.jobs_released,
                    res.offline_optimum,
                    if res.policy_missed {
                        ", policy missed a deadline"
                    } else {
                        ""
                    },
                    match &res.stopped {
                        Some(stop) => format!(" (stopped: {stop:?})"),
                        None => String::new(),
                    }
                );
                if export_stream.is_some()
                    && export_best
                        .as_ref()
                        .is_none_or(|(m, _)| res.machines_forced > *m)
                {
                    export_best = Some((res.machines_forced, res.instance.clone()));
                }
                state.record(CompletedRun::from_result(&res));
                sinks.record(&TraceEvent::AdversaryCheckpoint {
                    round: depth as u32,
                    jobs: state.total_jobs(),
                });
                if let Some(path) = &checkpoint {
                    state
                        .save(Path::new(path))
                        .map_err(|e| Error::Io(format!("cannot write checkpoint {path}: {e}")))?;
                }
            }
            let best = state
                .completed
                .iter()
                .map(|r| r.machines_forced)
                .max()
                .unwrap_or(0);
            let _ = writeln!(
                out,
                "sweep complete: max machines forced {best} across k=2..={}",
                state.k_target
            );
            if let Some(path) = &checkpoint {
                let _ = writeln!(out, "checkpoint -> {path}");
            }
            if let Some(path) = &export_stream {
                match export_best {
                    Some((forced, inst)) => {
                        let events = mm_online::stream_of_instance(&inst);
                        let file = std::fs::File::create(path)
                            .map_err(|e| Error::Io(format!("cannot create {path}: {e}")))?;
                        mm_online::write_stream(std::io::BufWriter::new(file), &events)
                            .map_err(|e| Error::Io(format!("cannot write {path}: {e}")))?;
                        let _ = writeln!(
                            out,
                            "exported {} release events (forced {forced} machines) -> {path}",
                            events.len()
                        );
                    }
                    None => {
                        let _ = writeln!(
                            out,
                            "nothing to export: every requested depth was already complete"
                        );
                    }
                }
            }
            sinks.finish(&mut out)?;
        }
        Command::Online {
            mode,
            stream,
            member,
            seed,
            n,
            k,
            members,
            out: out_path,
            trace,
            metrics,
        } => {
            let mut sinks = CliSinks::open(trace, metrics)?;
            match mode.as_str() {
                "run" => {
                    let path = stream.expect("parse guarantees --stream for run");
                    let file = std::fs::File::open(&path)
                        .map_err(|e| Error::Io(format!("cannot open {path}: {e}")))?;
                    let events = mm_online::read_stream(std::io::BufReader::new(file))
                        .map_err(|e| Error::Validation(format!("{path}: {e}")))?;
                    let inst = mm_online::instance_of_stream(&events);
                    let (optimum, _) = mm_opt::optimal_machines_fast(&inst);
                    let picked = if member == "auto" {
                        mm_online::Member::auto(&inst)
                    } else {
                        mm_online::Member::parse(&member).ok_or_else(|| {
                            Error::Usage(format!(
                                "unknown portfolio member `{member}` \
                                 (loose|laminar|agreeable|cms|imps|auto)"
                            ))
                        })?
                    };
                    let mut sink = sinks.sink();
                    let row = mm_online::run_member(picked, "file", &events, optimum, &mut sink)
                        .map_err(|e| Error::Sim(format!("online replay failed: {e}")))?;
                    let _ = writeln!(
                        out,
                        "online run: {picked} [{}] on {} event(s) from {path}",
                        picked.reference(),
                        events.len()
                    );
                    let _ = writeln!(
                        out,
                        "machines opened {} vs offline optimum {} -> ratio {}.{:03}, {} miss(es)",
                        row.machines_opened,
                        row.optimum,
                        row.ratio_millis / 1000,
                        row.ratio_millis % 1000,
                        row.misses
                    );
                }
                "race" => {
                    let member_list = mm_online::Member::parse_list(&members).ok_or_else(|| {
                        Error::Usage(format!(
                            "unknown portfolio member in `{members}` \
                             (loose|laminar|agreeable|cms|imps|all)"
                        ))
                    })?;
                    let cfg = mm_online::RaceConfig {
                        seed,
                        n,
                        k,
                        members: member_list,
                    };
                    let mut sink = sinks.sink();
                    let report = mm_online::race(cfg, &mut sink)
                        .map_err(|e| Error::Sim(format!("online race failed: {e}")))?;
                    out.push_str(&report.render());
                    report.check_bounds().map_err(Error::Verification)?;
                    let _ = writeln!(
                        out,
                        "bounds hold: specialists miss-free on their classes, \
                         agreeable within its 32.70·m budget (lower bound {}.{:03}·m)",
                        mm_online::AGREEABLE_LB_MILLIS / 1000,
                        mm_online::AGREEABLE_LB_MILLIS % 1000
                    );
                    if let Some(path) = &out_path {
                        std::fs::write(path, report.to_json().to_pretty())
                            .map_err(|e| Error::Io(format!("cannot write {path}: {e}")))?;
                        let _ = writeln!(out, "report -> {path}");
                    }
                }
                other => {
                    return Err(Error::Usage(format!(
                        "unknown online mode `{other}` (run|race)"
                    )))
                }
            }
            sinks.finish(&mut out)?;
        }
        Command::Chaos {
            seed,
            n,
            plan,
            trace,
            metrics,
        } => {
            let plan = match &plan {
                Some(path) => load_fault_plan(path)?,
                None => FaultPlan::chaos(seed),
            };
            let inst = uniform(
                &UniformCfg {
                    n,
                    ..Default::default()
                },
                seed,
            );
            let mut sinks = CliSinks::open(trace, metrics)?;
            let _ = writeln!(
                out,
                "chaos: seed {seed}, {} jobs, plan {}",
                inst.len(),
                plan.to_json().to_compact()
            );

            // Solver chaos: a firing `probe_cancel` cripples that attempt's
            // probe budget (forcing a degraded bracket); a firing
            // `force_bigint` pins the attempt to the BigInt limb path. The
            // loop escalates until an un-crippled attempt is exact and both
            // sites have fired at least once (chaos rules fire within their
            // first three hits, so the cap is generous).
            let mut injector = FaultInjector::new(plan.clone());
            let mut attempts = 0u32;
            let search = loop {
                attempts += 1;
                let cancel = injector.fire(FaultSite::ProbeCancel);
                let force = injector.fire(FaultSite::ForceBigint);
                if cancel {
                    sinks.record(&TraceEvent::FaultInjected {
                        site: FaultSite::ProbeCancel.tag(),
                        count: injector.fired(FaultSite::ProbeCancel),
                    });
                }
                if force {
                    sinks.record(&TraceEvent::FaultInjected {
                        site: FaultSite::ForceBigint.tag(),
                        count: injector.fired(FaultSite::ForceBigint),
                    });
                }
                let _limb_guard = force.then(mm_numeric::fastpath::force_bigint);
                let budget = if cancel {
                    Budget::unlimited().with_augmentations(1)
                } else {
                    Budget::unlimited()
                };
                let search = optimal_machines_budgeted_traced(&inst, &budget, sinks.sink());
                let both_fired = injector.fired(FaultSite::ProbeCancel) > 0
                    && injector.fired(FaultSite::ForceBigint) > 0;
                if (search.is_exact() && both_fired) || attempts >= 16 {
                    break search;
                }
            };
            match search.exact {
                Some(m) => {
                    let _ = writeln!(
                        out,
                        "solver: optimum {m} after {attempts} attempt(s) (probe_cancel fired {}, \
                         force_bigint fired {})",
                        injector.fired(FaultSite::ProbeCancel),
                        injector.fired(FaultSite::ForceBigint)
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "solver: degraded bracket [{}, {}] after {attempts} attempt(s)",
                        search.lo, search.hi
                    );
                }
            }

            // Simulator chaos: machine failures drop one machine's work for
            // a step, slowdowns halve its speed; the run must end cleanly
            // (misses are data, not errors).
            let cfg = SimConfig::migratory(n).with_max_steps(1_000_000);
            let mut sim = Simulation::from_instance_with_sink(cfg, Edf, &inst, sinks.sink())
                .with_faults(FaultInjector::new(plan.clone()));
            sim.run_to_completion()
                .map_err(|e| Error::Sim(format!("chaos simulation failed: {e}")))?;
            let failures = sim.injector().fired(FaultSite::MachineFailure);
            let slowdowns = sim.injector().fired(FaultSite::MachineSlowdown);
            let outcome = sim
                .finish()
                .map_err(|e| Error::Sim(format!("chaos simulation failed: {e}")))?;
            let _ = writeln!(
                out,
                "sim: {} steps, {} misses (machine_failure fired {failures}, machine_slowdown \
                 fired {slowdowns})",
                outcome.steps,
                outcome.misses.len()
            );

            // Adversary chaos: an aborted round ends the construction cleanly
            // at the depth reached.
            let was_aborted = |res: &GapResult| {
                matches!(&res.stopped,
                    Some(GapStop::Degenerate(reason)) if *reason == "round aborted by fault plan")
            };
            let mut res = MigrationGapAdversary::with_sink(EdfFirstFit::new(), 16, sinks.sink())
                .with_faults(FaultInjector::new(plan.clone()))
                .run(4)
                .map_err(|e| Error::Sim(format!("chaos adversary failed: {e}")))?;
            if !was_aborted(&res) {
                // The chaos rule's firing hit can sit deeper than this
                // construction goes; fall back to a fire-once rule so the
                // site is always exercised.
                res = MigrationGapAdversary::with_sink(EdfFirstFit::new(), 16, sinks.sink())
                    .with_faults(FaultInjector::new(FaultPlan::once(
                        FaultSite::AdversaryAbort,
                        1,
                    )))
                    .run(4)
                    .map_err(|e| Error::Sim(format!("chaos adversary failed: {e}")))?;
            }
            let aborts = u64::from(was_aborted(&res));
            let _ = writeln!(
                out,
                "adversary: {} jobs released, adversary_abort fired {aborts}",
                res.jobs_released
            );

            // Service chaos: an in-process supervised server absorbs worker
            // panics — poisoned requests retry, workers recycle, and nothing
            // is lost. One worker and a retry cap above the maximum possible
            // fire count keep the totals a pure function of the seed.
            let run_serve = |serve_plan: FaultPlan| -> Result<mm_serve::ServeStats, Error> {
                let cfg = ServeConfig {
                    workers: 1,
                    queue_cap: 8,
                    retry: mm_fault::RetryPolicy::new(1, 4, 20),
                    seed,
                    plan: serve_plan,
                    slowdown_ms: 1,
                    ..ServeConfig::default()
                };
                let service = Service::start(cfg, DynSink::new(Box::new(NoopSink)))
                    .map_err(|e| Error::Sim(format!("chaos serve failed: {e}")))?;
                let (tx, rx) = crossbeam::channel::unbounded();
                let requests = mm_serve::mixed_requests(seed, 8, None);
                for req in &requests {
                    service.submit_line(&req.to_line(), &tx);
                }
                for _ in 0..requests.len() {
                    rx.recv_timeout(std::time::Duration::from_secs(60))
                        .map_err(|_| Error::Sim("chaos serve lost a response".into()))?;
                }
                Ok(service.join())
            };
            let mut stats = run_serve(plan.clone())?;
            if stats.panics == 0 {
                // Defensive fallback, mirroring the adversary segment: if the
                // plan's worker_panic rule never fires within this workload,
                // exercise the site with a fire-once rule.
                stats = run_serve(FaultPlan::once(FaultSite::WorkerPanic, 1))?;
            }
            let panics = stats.panics;
            if !stats.invariant_holds() {
                return Err(Error::Verification(format!(
                    "chaos serve invariant violated: {stats:?}"
                )));
            }
            let _ = writeln!(
                out,
                "serve: {} requests, {} responses (worker_panic fired {panics}, workers \
                 recycled {}, retried {})",
                stats.admitted, stats.responses, stats.restarts, stats.retried
            );

            // Cluster chaos: a coordinator over three in-process backends
            // loses one mid-burst (`backend_drop`); its in-flight units are
            // resumed on the survivors and nothing is lost. The window spans
            // the whole workload, so every drop/resume decision lands in the
            // initial dispatch burst and the outcome is a pure function of
            // the seed.
            let run_cluster =
                |cluster_plan: FaultPlan| -> Result<mm_cluster::ClusterReport, Error> {
                    let pool = spawn_pool(3, 64)?;
                    let cfg = ClusterConfig {
                        backends: pool.iter().map(|b| b.addr.clone()).collect(),
                        balance: BalancePolicy::SeededHash { seed },
                        seed,
                        window: 8,
                        plan: cluster_plan,
                        ..ClusterConfig::default()
                    };
                    Ok(run_pool("chaos cluster", pool, cfg, scatter_units(8))?.0)
                };
            let mut cluster_report = run_cluster(plan.clone())?;
            if cluster_report.counters.backend_drops == 0 {
                // Same fallback as the adversary and serve segments: the
                // chaos rule can sit past this workload's dispatch count.
                cluster_report = run_cluster(FaultPlan::once(FaultSite::BackendDrop, 1))?;
            }
            let drops = cluster_report.counters.backend_drops;
            if drops > 0 {
                sinks.record(&TraceEvent::FaultInjected {
                    site: FaultSite::BackendDrop.tag(),
                    count: drops,
                });
            }
            let _ = writeln!(
                out,
                "cluster: {} units, {} responses (backend_drop fired {drops}, {} unit(s) \
                 resumed, {} backend(s) quarantined)",
                cluster_report.counters.units,
                cluster_report.counters.responses,
                cluster_report.counters.shard_resumes,
                cluster_report.counters.quarantines
            );

            // Churn chaos: the same coordinator under a seeded membership
            // schedule (`backend_churn`): a spare joins mid-burst, one
            // backend drains gracefully (live shards migrate off it), one
            // flaps and recovers. Event counters tick at the deterministic
            // firing boundary, so the printed numbers are a pure function of
            // the seed + plan even though the migrations and revives
            // themselves race the workload.
            let run_churn = |churn_plan: FaultPlan| -> Result<mm_cluster::ClusterReport, Error> {
                let pool = spawn_pool(4, 64)?;
                let cfg = ClusterConfig {
                    backends: pool.iter().take(3).map(|b| b.addr.clone()).collect(),
                    spares: vec![pool[3].addr.clone()],
                    balance: BalancePolicy::RoundRobin,
                    seed,
                    window: 8,
                    plan: churn_plan,
                    churn: Some(mm_cluster::ChurnPlan::rolling(2, 1)),
                    ..ClusterConfig::default()
                };
                Ok(run_pool("chaos churn", pool, cfg, scatter_units(8))?.0)
            };
            let mut churn_report = run_churn(plan.clone())?;
            if churn_report.counters.churn_events == 0 {
                // Same fallback as the other segments: the chaos rule can sit
                // past this workload's dispatch count.
                churn_report = run_churn(FaultPlan::once(FaultSite::BackendChurn, 1))?;
            }
            let churns = churn_report.counters.churn_events;
            if churns > 0 {
                sinks.record(&TraceEvent::FaultInjected {
                    site: FaultSite::BackendChurn.tag(),
                    count: churns,
                });
            }
            let _ = writeln!(
                out,
                "churn: {} units, {} responses (backend_churn fired {churns}, {} join(s), {} \
                 drain(s), {} flap(s))",
                churn_report.counters.units,
                churn_report.counters.responses,
                churn_report.counters.joins,
                churn_report.counters.drains,
                churn_report.counters.flaps
            );

            // Byzantine chaos: the ninth site. A three-backend pool answers
            // with proofs (`verify: all`); one backend's response encoder
            // carries a fire-once `answer_corruption` rule, so it lies
            // exactly once. The coordinator refutes the lie from its own
            // attached proof, quarantines the liar, and re-asks the unit on
            // the survivors. A single planted lie (rather than the plan's
            // repeating rule) keeps every printed counter a pure function of
            // the seed even while quarantine revival races the workload.
            let run_byzantine = || -> Result<(mm_cluster::ClusterReport, u64), Error> {
                let mut plans = vec![FaultPlan::none(); 3];
                plans[2] = FaultPlan::once(FaultSite::AnswerCorruption, 1);
                let pool = spawn_pool_plans(&plans, 64)?;
                let cfg = ClusterConfig {
                    backends: pool.iter().map(|b| b.addr.clone()).collect(),
                    balance: BalancePolicy::RoundRobin,
                    seed,
                    window: 8,
                    verify: mm_cluster::VerifyPolicy::All,
                    ..ClusterConfig::default()
                };
                run_pool("chaos byzantine", pool, cfg, scatter_units(8))
            };
            let (byz_report, lies) = run_byzantine()?;
            if lies > 0 {
                sinks.record(&TraceEvent::FaultInjected {
                    site: FaultSite::AnswerCorruption.tag(),
                    count: lies,
                });
            }
            let byz_verify = byz_report.counters.verify.clone().unwrap_or_default();
            if byz_verify.refuted != lies {
                return Err(Error::Verification(format!(
                    "chaos byzantine: {} lie(s) injected but {} refuted",
                    lies, byz_verify.refuted
                )));
            }
            let _ = writeln!(
                out,
                "byzantine: {} units, {} responses (answer_corruption fired {lies}, {} \
                 refuted, {} verified, {} re-ask(s), {} backend(s) quarantined)",
                byz_report.counters.units,
                byz_report.counters.responses,
                byz_verify.refuted,
                byz_verify.verified,
                byz_verify.reasks,
                byz_report.counters.quarantines
            );

            // Online chaos: not a fault site — a determinism probe. The
            // portfolio race runs twice under the same seed; if faults,
            // scheduling, or the portfolio itself leaked any nondeterminism
            // into the streaming engine, the rendered tables would diverge.
            let race_cfg = mm_online::RaceConfig {
                seed,
                n: 16,
                k: 3,
                members: mm_online::Member::ALL.to_vec(),
            };
            let race_a = mm_online::race(race_cfg.clone(), &mut sinks.sink())
                .map_err(|e| Error::Sim(format!("chaos online race failed: {e}")))?;
            let race_b = mm_online::race(race_cfg, &mut NoopSink)
                .map_err(|e| Error::Sim(format!("chaos online race rerun failed: {e}")))?;
            if race_a.render() != race_b.render()
                || race_a.to_json().to_compact() != race_b.to_json().to_compact()
            {
                return Err(Error::Verification(
                    "chaos online race is not byte-identical across same-seed reruns".into(),
                ));
            }
            let _ = writeln!(
                out,
                "online: {} race cell(s) byte-identical across same-seed reruns",
                race_a.rows.len()
            );

            let fired = [
                (
                    FaultSite::ProbeCancel,
                    injector.fired(FaultSite::ProbeCancel),
                ),
                (
                    FaultSite::ForceBigint,
                    injector.fired(FaultSite::ForceBigint),
                ),
                (FaultSite::MachineFailure, failures),
                (FaultSite::MachineSlowdown, slowdowns),
                (FaultSite::AdversaryAbort, aborts),
                (FaultSite::WorkerPanic, panics),
                (FaultSite::BackendDrop, drops),
                (FaultSite::BackendChurn, churns),
                (FaultSite::AnswerCorruption, lies),
            ];
            // The fired table and `FaultSite::ALL` must stay in lockstep: a
            // tenth site that never gets a chaos segment should fail loudly
            // here, not silently report success.
            let covered: std::collections::HashSet<&str> =
                fired.iter().map(|(site, _)| site.tag()).collect();
            if let Some(missing) = FaultSite::ALL.iter().find(|s| !covered.contains(s.tag())) {
                return Err(Error::Internal(format!(
                    "fault site `{missing}` has no chaos segment"
                )));
            }
            let silent: Vec<&str> = fired
                .iter()
                .filter(|(_, n)| *n == 0)
                .map(|(site, _)| site.tag())
                .collect();
            if silent.is_empty() {
                let _ = writeln!(
                    out,
                    "all {} fault sites exercised; no panics escaped",
                    FaultSite::ALL.len()
                );
            } else {
                let _ = writeln!(out, "warning: sites not exercised: {}", silent.join(", "));
            }
            sinks.finish(&mut out)?;
        }
        Command::Bench => out.push_str(&crate::bench::run_all()?),
        Command::CertCheck {
            seed,
            cases,
            pool,
            corrupt,
            out: report_path,
        } => {
            let report = if pool {
                certcheck_pool(seed, cases, corrupt)?
            } else {
                mm_bench::crosscheck::run(seed, cases).map_err(Error::Verification)?
            };
            if let Some(p) = report_path {
                std::fs::write(&p, &report)
                    .map_err(|e| Error::Io(format!("cannot write {p}: {e}")))?;
                let _ = writeln!(out, "certcheck report -> {p}");
            } else {
                out.push_str(&report);
            }
        }
        Command::Serve {
            addr,
            workers,
            queue_cap,
            drain_ms,
            seed,
            retry_attempts,
            chaos,
            plan,
            journal,
            deadline_ms,
            port_file,
            trace,
            metrics,
        } => {
            let fault_plan = match (&plan, chaos) {
                (Some(path), _) => load_fault_plan(path)?,
                (None, true) => FaultPlan::chaos(seed),
                (None, false) => FaultPlan::none(),
            };
            let retry = mm_fault::RetryPolicy::new(25, 1_000, retry_attempts);
            let cfg = ServeConfig {
                workers,
                queue_cap,
                drain_ms,
                seed,
                retry,
                plan: fault_plan,
                default_deadline_ms: deadline_ms,
                journal: journal.as_ref().map(std::path::PathBuf::from),
                ..ServeConfig::default()
            };
            // The sink pair is shared with the worker threads; the local
            // clone extracts the files once the server has stopped.
            let jsonl = match &trace {
                Some(path) => {
                    let file = std::fs::File::create(path)
                        .map_err(|e| Error::Io(format!("cannot create {path}: {e}")))?;
                    Some(JsonlSink::new(BufWriter::new(file)))
                }
                None => None,
            };
            let shared = SharedSink::new(TeeSink(jsonl, metrics.is_some().then(MetricsSink::new)));
            let sink: DynSink = DynSink::new(Box::new(shared.clone()));
            let service = Arc::new(
                Service::start(cfg, sink)
                    .map_err(|e| Error::Sim(format!("cannot start server: {e}")))?,
            );
            let (listener, bound) = mm_serve::tcp::bind(&addr)
                .map_err(|e| Error::Io(format!("cannot bind {addr}: {e}")))?;
            if let Some(path) = &port_file {
                std::fs::write(path, &bound)
                    .map_err(|e| Error::Io(format!("cannot write port file {path}: {e}")))?;
            }
            eprintln!("machmin serve: listening on {bound}");
            mm_serve::tcp::serve(listener, Arc::clone(&service))
                .map_err(|e| Error::Io(format!("accept loop failed: {e}")))?;
            service.wait_stopped();
            let stats = service.stats();
            let _ = writeln!(out, "listened on {bound}");
            let _ = writeln!(
                out,
                "requests: received {}, admitted {}, shed {}, rejected {}",
                stats.received, stats.admitted, stats.shed, stats.rejected
            );
            let _ = writeln!(
                out,
                "responses: {} (retried {}, quarantined {}, drain-degraded {})",
                stats.responses, stats.retried, stats.quarantined, stats.drain_degraded
            );
            let _ = writeln!(
                out,
                "workers: {} panic(s), {} restart(s)",
                stats.panics, stats.restarts
            );
            if journal.is_some() {
                let _ = writeln!(
                    out,
                    "journal: replayed {} acked response(s) on startup",
                    stats.replayed_acks
                );
            }
            if let Some(sink) = shared.with(|tee| tee.0.take()) {
                let path = trace.as_deref().unwrap_or("?");
                let events = sink.written();
                sink.finish()
                    .map_err(|e| Error::Io(format!("cannot write trace {path}: {e}")))?;
                let _ = writeln!(out, "trace: {events} events -> {path}");
            }
            if let Some(sink) = shared.with(|tee| tee.1.take()) {
                let path = metrics.as_deref().unwrap_or("?");
                std::fs::write(path, sink.metrics.to_json().to_pretty())
                    .map_err(|e| Error::Io(format!("cannot write metrics {path}: {e}")))?;
                let _ = writeln!(out, "metrics -> {path}");
            }
            if !stats.invariant_holds() {
                return Err(Error::Verification(format!(
                    "served-response invariant violated: admitted {} != responses {}",
                    stats.admitted, stats.responses
                )));
            }
            let _ = writeln!(
                out,
                "invariant requests_admitted == responses_sent: ok ({} == {})",
                stats.admitted, stats.responses
            );
        }
        Command::Load {
            addr,
            n,
            seed,
            paced,
            window,
            deadline_ms,
            out: out_path,
            hist,
            shutdown,
        } => {
            let report = mm_serve::run_load(
                &addr,
                &LoadConfig {
                    n,
                    seed,
                    paced,
                    window,
                    deadline_ms,
                    shutdown,
                },
            )
            .map_err(|e| Error::Io(format!("load run against {addr} failed: {e}")))?;
            if let Some(path) = &out_path {
                let mut text = report.transcript.join("\n");
                if !text.is_empty() {
                    text.push('\n');
                }
                std::fs::write(path, text)
                    .map_err(|e| Error::Io(format!("cannot write {path}: {e}")))?;
                let _ = writeln!(
                    out,
                    "transcript ({} lines) -> {path}",
                    report.transcript.len()
                );
            }
            let _ = writeln!(
                out,
                "sent: {}, lost responses: {}, retried: {}",
                report.sent, report.lost, report.retried
            );
            if report.migrated_served > 0 {
                let _ = writeln!(
                    out,
                    "migrated-answered: {} (requests this backend served for a draining or \
                     overloaded peer)",
                    report.migrated_served
                );
            }
            for (status, count) in &report.by_status {
                let _ = writeln!(out, "  {status}: {count}");
            }
            let _ = writeln!(
                out,
                "latency: p50 {:.2} ms, p99 {:.2} ms, p999 {:.2} ms",
                report.p50_ms, report.p99_ms, report.p999_ms
            );
            if let Some(path) = &hist {
                std::fs::write(path, report.hist.to_json().to_pretty())
                    .map_err(|e| Error::Io(format!("cannot write {path}: {e}")))?;
                let _ = writeln!(
                    out,
                    "latency histogram ({} observation(s)) -> {path}",
                    report.hist.count()
                );
            }
            if report.lost > 0 {
                return Err(Error::Verification(format!(
                    "{} request(s) never received a response",
                    report.lost
                )));
            }
        }
        Command::Cluster {
            workload,
            path,
            backends,
            balance,
            seed,
            window,
            hedge_every,
            hedge_p99,
            hedge_floor_ms,
            chaos,
            plan,
            churn,
            spares,
            migration_budget,
            verify,
            deadline_ms,
            policies,
            k,
            machines,
            checkpoint,
            resume,
            families,
            seeds,
            n,
            members,
            out: out_path,
            trace,
            metrics,
        } => {
            // `stats` is a plain scrape, not a scatter–gather workload: no
            // coordinator, no balancing, works against a half-dead pool.
            if workload == "stats" {
                let outcome = mm_cluster::cluster_stats(&backends, false);
                let mut overload = mm_cluster::OverloadIndex::new(
                    mm_cluster::OverloadConfig::default(),
                    outcome.backends.len(),
                );
                observe_overload(&mut overload, &outcome);
                out.push_str(&render_top(&outcome, &overload));
                if let Some(path) = &out_path {
                    std::fs::write(path, outcome.to_json().to_pretty())
                        .map_err(|e| Error::Io(format!("cannot write {path}: {e}")))?;
                    let _ = writeln!(out, "stats -> {path}");
                }
                if outcome.reachable == 0 {
                    return Err(Error::Io(format!(
                        "no backend reachable out of {}",
                        outcome.backends.len()
                    )));
                }
                return Ok(out);
            }
            let Some(balance) = BalancePolicy::parse(&balance, seed) else {
                return Err(Error::Usage(format!(
                    "unknown balance policy `{balance}` (round-robin|least-outstanding|hash)"
                )));
            };
            let Some(verify) = mm_cluster::VerifyPolicy::from_tag(&verify) else {
                return Err(Error::Usage(format!(
                    "unknown verify policy `{verify}` (off|spot|all)"
                )));
            };
            let hedge = match (hedge_every, hedge_p99) {
                (Some(nth), _) => HedgeConfig::EveryNth { n: nth },
                (None, Some(pct)) => HedgeConfig::AfterP99 {
                    multiplier_pct: pct,
                    floor_ms: hedge_floor_ms,
                },
                (None, None) => HedgeConfig::Off,
            };
            let plan = match &plan {
                Some(p) => load_fault_plan(p)?,
                None if chaos => FaultPlan::chaos(seed),
                None => FaultPlan::none(),
            };
            let churn = match &churn {
                Some(p) => Some(
                    mm_cluster::ChurnPlan::load(std::path::Path::new(p))
                        .map_err(|e| Error::Io(format!("cannot load churn plan {p}: {e}")))?,
                ),
                None => None,
            };
            let mut sinks = CliSinks::open(trace, metrics)?;
            let cfg = ClusterConfig {
                backends,
                balance,
                seed,
                window,
                hedge,
                plan,
                churn,
                spares,
                migration_budget,
                verify,
                deadline_ms,
                ..ClusterConfig::default()
            };
            // Backend-side refusals surface as categorized errors: a bad
            // request shape (unknown family, non-integer jobs) is a usage
            // problem, a mismatched checkpoint is an io problem, and
            // anything else is the connection itself.
            let cluster_err = |e: std::io::Error| -> Error {
                match e.kind() {
                    std::io::ErrorKind::InvalidInput => Error::Usage(e.to_string()),
                    std::io::ErrorKind::InvalidData => Error::Io(e.to_string()),
                    _ => Error::Io(format!("cluster run failed: {e}")),
                }
            };
            let report = match workload.as_str() {
                "solve" => {
                    let Some(path) = &path else {
                        return Err(Error::Usage(
                            "cluster solve requires an instance file".into(),
                        ));
                    };
                    let inst = load(path)?;
                    let to_int = |r: &Rat| {
                        if r.is_integer() {
                            r.floor().to_i64()
                        } else {
                            None
                        }
                    };
                    let jobs: Vec<(i64, i64, i64)> = inst
                        .jobs()
                        .iter()
                        .map(|j| {
                            Some((
                                to_int(&j.release)?,
                                to_int(&j.deadline)?,
                                to_int(&j.processing)?,
                            ))
                        })
                        .collect::<Option<_>>()
                        .ok_or_else(|| {
                            Error::Validation(format!(
                                "{path}: cluster solve ships integer triples; this instance \
                                 has non-integer (or oversized) job times"
                            ))
                        })?;
                    let outcome = cluster_solve(cfg, sinks.sink(), &jobs).map_err(cluster_err)?;
                    match outcome.exact {
                        Some(m) => {
                            let _ = writeln!(out, "cluster solve: optimum {m} machines");
                        }
                        None => {
                            let _ = writeln!(
                                out,
                                "cluster solve: bracket [{}, {}] ({} probe(s) undecided)",
                                outcome.lo, outcome.hi, outcome.undecided
                            );
                        }
                    }
                    outcome.report
                }
                "sweep" => {
                    let sweep_cfg = SweepConfig {
                        policies: policies
                            .split(',')
                            .map(|s| s.trim().to_string())
                            .filter(|s| !s.is_empty())
                            .collect(),
                        k,
                        machines,
                        checkpoint: checkpoint.map(std::path::PathBuf::from),
                        resume,
                    };
                    let outcome =
                        cluster_sweep(cfg, sinks.sink(), &sweep_cfg).map_err(cluster_err)?;
                    let _ = writeln!(
                        out,
                        "cluster sweep: {} shard(s), {} resumed from checkpoint",
                        outcome.shards.len(),
                        outcome.resumed_from_checkpoint
                    );
                    let _ = writeln!(out, "merged: {}", outcome.merged.to_compact());
                    outcome.report
                }
                "grid" => {
                    let grid_cfg = GridConfig {
                        families: families
                            .split(',')
                            .map(|s| s.trim().to_string())
                            .filter(|s| !s.is_empty())
                            .collect(),
                        seeds,
                        n,
                    };
                    let outcome =
                        cluster_grid(cfg, sinks.sink(), &grid_cfg).map_err(cluster_err)?;
                    let _ = writeln!(
                        out,
                        "cluster grid: {} cell(s) over {} family(ies)",
                        outcome.cells.len(),
                        grid_cfg.families.len()
                    );
                    let _ = writeln!(out, "merged: {}", outcome.merged.to_compact());
                    outcome.report
                }
                "online" => {
                    let member_list = mm_online::Member::parse_list(&members).ok_or_else(|| {
                        Error::Usage(format!(
                            "unknown portfolio member in `{members}` \
                             (loose|laminar|agreeable|cms|imps|all)"
                        ))
                    })?;
                    let online_cfg = mm_cluster::OnlineConfig {
                        members: member_list,
                        families: families
                            .split(',')
                            .map(|s| s.trim().to_string())
                            .filter(|s| !s.is_empty())
                            .collect(),
                        seeds,
                        n,
                    };
                    let outcome = mm_cluster::cluster_online(cfg, sinks.sink(), &online_cfg)
                        .map_err(cluster_err)?;
                    let _ = writeln!(
                        out,
                        "cluster online: {} cell(s) over {} member(s)",
                        outcome.cells.len(),
                        online_cfg.members.len()
                    );
                    let _ = writeln!(out, "merged: {}", outcome.merged.to_compact());
                    // Merge parity: re-run the same cells locally; a pool
                    // that answered every cell must merge identically.
                    if outcome.report.counters.lost == 0 {
                        let reference =
                            mm_cluster::local_online_merge(&online_cfg).map_err(cluster_err)?;
                        if outcome.merged.to_compact() != reference.to_compact() {
                            return Err(Error::Verification(
                                "cluster online merge diverges from the single-node reference"
                                    .into(),
                            ));
                        }
                        let _ = writeln!(out, "merge parity: cluster == single-node reference");
                    }
                    outcome.report
                }
                other => {
                    return Err(Error::Usage(format!(
                        "unknown cluster workload `{other}` (solve|sweep|grid|online|stats)"
                    )))
                }
            };
            let _ = writeln!(out, "counters: {}", report.counters.to_json().to_compact());
            if let Some(v) = &report.counters.verify {
                let _ = writeln!(
                    out,
                    "verify: {} verified, {} refuted, {} unverifiable, {} re-ask(s)",
                    v.verified, v.refuted, v.unverifiable, v.reasks
                );
                for (b, (ok, bad)) in v
                    .per_backend_verified
                    .iter()
                    .zip(&v.per_backend_refuted)
                    .enumerate()
                {
                    let _ = writeln!(out, "  backend {b}: {ok} verified, {bad} refuted");
                }
            }
            if let Some(path) = &out_path {
                let lines = report.transcript(&workload);
                let mut text = lines.join("\n");
                if !text.is_empty() {
                    text.push('\n');
                }
                std::fs::write(path, text)
                    .map_err(|e| Error::Io(format!("cannot write {path}: {e}")))?;
                let _ = writeln!(out, "transcript ({} lines) -> {path}", lines.len());
            }
            let _ = writeln!(
                out,
                "responses: {}, lost responses: {}",
                report.counters.responses, report.counters.lost
            );
            if report.counters.lost > 0 {
                return Err(Error::Verification(format!(
                    "{} unit(s) never received a response",
                    report.counters.lost
                )));
            }
            sinks.finish(&mut out)?;
        }
        Command::Top {
            backends,
            interval_s,
            frames,
        } => {
            let mut overload =
                mm_cluster::OverloadIndex::new(mm_cluster::OverloadConfig::default(), 0);
            if interval_s == 0 {
                let outcome = mm_cluster::cluster_stats(&backends, false);
                observe_overload(&mut overload, &outcome);
                out.push_str(&render_top(&outcome, &overload));
                if outcome.reachable == 0 {
                    return Err(Error::Io(format!(
                        "no backend reachable out of {}",
                        outcome.backends.len()
                    )));
                }
            } else {
                // Refresh mode streams frames straight to stdout — the
                // caller is a terminal, not a script capturing `out`. The
                // overload index persists across frames, so HEAT shows real
                // sustained-window hysteresis, not a per-frame verdict.
                let mut frame = 0u64;
                loop {
                    let outcome = mm_cluster::cluster_stats(&backends, false);
                    observe_overload(&mut overload, &outcome);
                    print!("{}", render_top(&outcome, &overload));
                    println!();
                    frame += 1;
                    if frames > 0 && frame >= frames {
                        out.push_str(&render_top(&outcome, &overload));
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_secs(interval_s));
                }
            }
        }
        Command::Generate {
            family,
            n,
            seed,
            out: path,
        } => {
            let inst = match family.as_str() {
                "uniform" => uniform(
                    &UniformCfg {
                        n,
                        ..Default::default()
                    },
                    seed,
                ),
                "agreeable" => agreeable(
                    &AgreeableCfg {
                        n,
                        ..Default::default()
                    },
                    seed,
                ),
                "laminar" => laminar(&LaminarCfg::default(), seed),
                "loose" => loose(
                    &UniformCfg {
                        n,
                        ..Default::default()
                    },
                    &Rat::ratio(1, 2),
                    seed,
                ),
                other => return Err(Error::Usage(format!("unknown family `{other}`"))),
            };
            io::save(&inst, &path).map_err(|e| Error::Io(format!("cannot write {path}: {e}")))?;
            let _ = writeln!(out, "wrote {} jobs to {path}", inst.len());
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::teardown_pool;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_commands() {
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(
            parse(&argv("solve a.json")).unwrap(),
            Command::Solve {
                path: "a.json".into(),
                budget: None,
                attempts: 3,
                trace: None,
                metrics: None
            }
        );
        assert_eq!(
            parse(&argv("solve a.json --trace t.jsonl --metrics m.json")).unwrap(),
            Command::Solve {
                path: "a.json".into(),
                budget: None,
                attempts: 3,
                trace: Some("t.jsonl".into()),
                metrics: Some("m.json".into())
            }
        );
        assert_eq!(
            parse(&argv("schedule a.json --policy edf --machines 3")).unwrap(),
            Command::Schedule {
                path: "a.json".into(),
                policy: "edf".into(),
                machines: Some(3),
                trace: None,
                metrics: None
            }
        );
        assert_eq!(
            parse(&argv("schedule a.json --policy llf --trace t.jsonl")).unwrap(),
            Command::Schedule {
                path: "a.json".into(),
                policy: "llf".into(),
                machines: None,
                trace: Some("t.jsonl".into()),
                metrics: None
            }
        );
        assert_eq!(
            parse(&argv("generate uniform --n 10 --seed 7 --out x.json")).unwrap(),
            Command::Generate {
                family: "uniform".into(),
                n: 10,
                seed: 7,
                out: "x.json".into()
            }
        );
        assert_eq!(
            parse(&argv("top --backends a:1,b:2")).unwrap(),
            Command::Top {
                backends: vec!["a:1".into(), "b:2".into()],
                interval_s: 0,
                frames: 0
            }
        );
        assert_eq!(parse(&argv("top")).unwrap_err().tag(), "usage");
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("schedule a.json")).is_err());
        assert!(parse(&argv("schedule a.json --policy edf --machines x")).is_err());
        // --trace/--metrics without a value must error, not silently no-op
        let err = parse(&argv("schedule a.json --policy edf --trace")).unwrap_err();
        assert!(
            err.to_string().contains("--trace requires a value"),
            "{err}"
        );
        assert!(parse(&argv("solve a.json --metrics")).is_err());
        // empty argv = help
        assert_eq!(parse(&[]).unwrap(), Command::Help);
    }

    /// `bench` takes no arguments: a stray or retired flag is a usage error
    /// (exit 2), never a silent run that rewrites the committed files.
    #[test]
    fn parse_bench_takes_no_arguments() {
        assert_eq!(parse(&argv("bench")).unwrap(), Command::Bench);
        for bad in [
            "bench --check BENCH_2.json",
            "bench --quick --servee",
            "bench --large",
        ] {
            let err = parse(&argv(bad)).unwrap_err();
            assert_eq!(err.tag(), "usage", "`{bad}` must be a usage error: {err}");
            assert_eq!(err.exit_code(), 2);
        }
    }

    #[test]
    fn parse_budget_adversary_chaos() {
        assert_eq!(
            parse(&argv("solve a.json --budget-augmentations 8 --attempts 2")).unwrap(),
            Command::Solve {
                path: "a.json".into(),
                budget: Some(Budget::unlimited().with_augmentations(8)),
                attempts: 2,
                trace: None,
                metrics: None
            }
        );
        assert_eq!(
            parse(&argv("solve a.json --budget-ms 50 --budget-nodes 1000")).unwrap(),
            Command::Solve {
                path: "a.json".into(),
                budget: Some(
                    Budget::unlimited()
                        .with_probe_ms(50)
                        .with_network_nodes(1000)
                ),
                attempts: 3,
                trace: None,
                metrics: None
            }
        );
        let err = parse(&argv("solve a.json --attempts 0")).unwrap_err();
        assert_eq!(err.tag(), "usage");

        assert_eq!(
            parse(&argv(
                "adversary --policy edf-ff --k 5 --checkpoint c.json --resume"
            ))
            .unwrap(),
            Command::Adversary {
                policy: "edf-ff".into(),
                k: 5,
                machines: 16,
                checkpoint: Some("c.json".into()),
                resume: true,
                export_stream: None,
                trace: None,
                metrics: None
            }
        );
        assert_eq!(
            parse(&argv("adversary --policy edf-ff --k 1"))
                .unwrap_err()
                .tag(),
            "usage"
        );
        assert_eq!(
            parse(&argv("adversary --policy edf-ff --resume"))
                .unwrap_err()
                .tag(),
            "usage"
        );
        assert_eq!(parse(&argv("adversary")).unwrap_err().tag(), "usage");

        assert_eq!(
            parse(&argv("chaos --seed 9 --n 8")).unwrap(),
            Command::Chaos {
                seed: 9,
                n: 8,
                plan: None,
                trace: None,
                metrics: None
            }
        );
        assert_eq!(
            parse(&argv("chaos --plan p.json")).unwrap(),
            Command::Chaos {
                seed: 0,
                n: 16,
                plan: Some("p.json".into()),
                trace: None,
                metrics: None
            }
        );
        assert_eq!(
            parse(&argv("chaos")).unwrap(),
            Command::Chaos {
                seed: 0,
                n: 16,
                plan: None,
                trace: None,
                metrics: None
            }
        );
    }

    #[test]
    fn parse_serve_and_load() {
        assert_eq!(
            parse(&argv(
                "serve --addr 127.0.0.1:7700 --workers 4 --queue-cap 32 --drain-ms 500 \
                 --seed 3 --retry-attempts 9 --chaos --journal j.jsonl --deadline-ms 250 \
                 --port-file p.txt"
            ))
            .unwrap(),
            Command::Serve {
                addr: "127.0.0.1:7700".into(),
                workers: 4,
                queue_cap: 32,
                drain_ms: 500,
                seed: 3,
                retry_attempts: 9,
                chaos: true,
                plan: None,
                journal: Some("j.jsonl".into()),
                deadline_ms: Some(250),
                port_file: Some("p.txt".into()),
                trace: None,
                metrics: None
            }
        );
        assert_eq!(
            parse(&argv("serve")).unwrap(),
            Command::Serve {
                addr: "127.0.0.1:0".into(),
                workers: 2,
                queue_cap: 16,
                drain_ms: 2_000,
                seed: 0,
                retry_attempts: 3,
                chaos: false,
                plan: None,
                journal: None,
                deadline_ms: None,
                port_file: None,
                trace: None,
                metrics: None
            }
        );
        // --chaos and --plan are mutually exclusive.
        assert_eq!(
            parse(&argv("serve --chaos --plan p.json"))
                .unwrap_err()
                .tag(),
            "usage"
        );
        assert_eq!(
            parse(&argv(
                "load --addr 127.0.0.1:7700 --n 50 --seed 2 --paced --window 4 \
                 --out t.jsonl --hist h.json --no-shutdown"
            ))
            .unwrap(),
            Command::Load {
                addr: "127.0.0.1:7700".into(),
                n: 50,
                seed: 2,
                paced: true,
                window: 4,
                deadline_ms: None,
                out: Some("t.jsonl".into()),
                hist: Some("h.json".into()),
                shutdown: false
            }
        );
        // --addr is mandatory for load.
        assert_eq!(parse(&argv("load")).unwrap_err().tag(), "usage");
    }

    #[test]
    fn error_categories_at_the_cli_surface() {
        // Unknown command -> usage (exit 2).
        assert_eq!(parse(&argv("frobnicate")).unwrap_err().exit_code(), 2);
        // Missing file -> io (exit 3).
        let err = execute(Command::Classify {
            path: "/nonexistent-instance.json".into(),
        })
        .unwrap_err();
        assert_eq!(err.tag(), "io");
        assert_eq!(err.exit_code(), 3);
        // Unknown policy -> usage.
        let dir = std::env::temp_dir().join("machmin_cli_errors");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ok.json").to_string_lossy().to_string();
        io::save(&Instance::from_ints([(0, 4, 2)]), &path).unwrap();
        let err = execute(Command::Schedule {
            path: path.clone(),
            policy: "nope".into(),
            machines: None,
            trace: None,
            metrics: None,
        })
        .unwrap_err();
        assert_eq!(err.tag(), "usage");
        // Malformed JSON -> io, with record context, no panic.
        let bad = dir.join("bad.json").to_string_lossy().to_string();
        std::fs::write(
            &bad,
            r#"{"jobs": [{"id": 0, "release": "0", "deadline": "0", "processing": "1"}]}"#,
        )
        .unwrap();
        let err = execute(Command::Classify { path: bad.clone() }).unwrap_err();
        assert_eq!(err.tag(), "io");
        assert!(err.to_string().contains("record 1"), "{err}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn roundtrip_generate_solve_schedule() {
        let dir = std::env::temp_dir().join("machmin_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inst.json").to_string_lossy().to_string();

        let msg = execute(Command::Generate {
            family: "agreeable".into(),
            n: 12,
            seed: 3,
            out: path.clone(),
        })
        .unwrap();
        assert!(msg.contains("wrote 12 jobs"));

        let msg = execute(Command::Solve {
            path: path.clone(),
            budget: None,
            attempts: 3,
            trace: None,
            metrics: None,
        })
        .unwrap();
        assert!(msg.contains("migratory optimum"));
        assert!(msg.contains("Theorem 1 certificate"));

        let msg = execute(Command::Classify { path: path.clone() }).unwrap();
        assert!(msg.contains("Agreeable") || msg.contains("Both"));

        let msg = execute(Command::Schedule {
            path: path.clone(),
            policy: "edf-ff".into(),
            machines: None,
            trace: None,
            metrics: None,
        })
        .unwrap();
        assert!(msg.contains("feasible: yes"), "{msg}");
        assert!(msg.contains("machines used"));

        let msg = execute(Command::Demigrate { path: path.clone() }).unwrap();
        assert!(msg.contains("non-migratory machines"));

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn budgeted_solve_escalates_and_degrades() {
        let dir = std::env::temp_dir().join("machmin_cli_budget");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inst.json").to_string_lossy().to_string();
        execute(Command::Generate {
            family: "uniform".into(),
            n: 14,
            seed: 5,
            out: path.clone(),
        })
        .unwrap();

        // Starved budget, one attempt: a certified bracket, not an error.
        let msg = execute(Command::Solve {
            path: path.clone(),
            budget: Some(Budget::unlimited().with_augmentations(1)),
            attempts: 1,
            trace: None,
            metrics: None,
        })
        .unwrap();
        assert!(msg.contains("degraded: certified bracket"), "{msg}");

        // Enough escalation attempts reach the exact answer; it matches the
        // unbudgeted optimum printed by a plain solve.
        let exact = execute(Command::Solve {
            path: path.clone(),
            budget: None,
            attempts: 3,
            trace: None,
            metrics: None,
        })
        .unwrap();
        let msg = execute(Command::Solve {
            path: path.clone(),
            budget: Some(Budget::unlimited().with_augmentations(1)),
            attempts: 12,
            trace: None,
            metrics: None,
        })
        .unwrap();
        assert!(msg.contains("doubling budget"), "{msg}");
        let line = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("migratory optimum m(J):"))
                .map(|l| {
                    l.split(':')
                        .nth(1)
                        .unwrap()
                        .trim()
                        .split(' ')
                        .next()
                        .unwrap()
                        .to_owned()
                })
        };
        assert_eq!(line(&exact), line(&msg), "exact: {exact}\nbudgeted: {msg}");

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn adversary_sweep_checkpoints_and_resumes() {
        let dir = std::env::temp_dir().join("machmin_cli_adv");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("sweep.json").to_string_lossy().to_string();
        let trace_path = dir.join("adv.jsonl").to_string_lossy().to_string();
        std::fs::remove_file(&ckpt).ok();

        let msg = execute(Command::Adversary {
            policy: "edf-ff".into(),
            k: 3,
            machines: 16,
            checkpoint: Some(ckpt.clone()),
            resume: false,
            export_stream: None,
            trace: Some(trace_path.clone()),
            metrics: None,
        })
        .unwrap();
        assert!(msg.contains("k=2:"), "{msg}");
        assert!(msg.contains("k=3:"), "{msg}");
        assert!(msg.contains("sweep complete"), "{msg}");
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.contains("\"adversary_checkpoint\""), "{trace}");

        // Resuming with a deeper target only runs the missing depths.
        let msg = execute(Command::Adversary {
            policy: "edf-ff".into(),
            k: 4,
            machines: 16,
            checkpoint: Some(ckpt.clone()),
            resume: true,
            export_stream: None,
            trace: None,
            metrics: None,
        })
        .unwrap();
        assert!(msg.contains("resumed"), "{msg}");
        assert!(!msg.contains("k=2:"), "{msg}");
        assert!(!msg.contains("k=3:"), "{msg}");
        assert!(msg.contains("k=4:"), "{msg}");

        // A checkpoint for another policy is refused.
        let err = execute(Command::Adversary {
            policy: "medium-fit".into(),
            k: 3,
            machines: 16,
            checkpoint: Some(ckpt.clone()),
            resume: true,
            export_stream: None,
            trace: None,
            metrics: None,
        })
        .unwrap_err();
        assert_eq!(err.tag(), "usage");

        std::fs::remove_file(&ckpt).ok();
        std::fs::remove_file(&trace_path).ok();
    }

    #[test]
    fn parse_online_commands() {
        assert_eq!(
            parse(&argv(
                "online race --seed 3 --n 12 --k 5 --members loose,cms"
            ))
            .unwrap(),
            Command::Online {
                mode: "race".into(),
                stream: None,
                member: "auto".into(),
                seed: 3,
                n: 12,
                k: 5,
                members: "loose,cms".into(),
                out: None,
                trace: None,
                metrics: None,
            }
        );
        assert_eq!(
            parse(&argv("online run --stream s.jsonl --member agreeable")).unwrap(),
            Command::Online {
                mode: "run".into(),
                stream: Some("s.jsonl".into()),
                member: "agreeable".into(),
                seed: 7,
                n: 40,
                k: 4,
                members: "all".into(),
                out: None,
                trace: None,
                metrics: None,
            }
        );
        assert_eq!(parse(&argv("online")).unwrap_err().tag(), "usage");
        assert_eq!(parse(&argv("online walk")).unwrap_err().tag(), "usage");
        assert_eq!(parse(&argv("online run")).unwrap_err().tag(), "usage");
    }

    #[test]
    fn online_race_reports_every_member_and_holds_bounds() {
        let run = || {
            execute(Command::Online {
                mode: "race".into(),
                stream: None,
                member: "auto".into(),
                seed: 7,
                n: 16,
                k: 3,
                members: "all".into(),
                out: None,
                trace: None,
                metrics: None,
            })
            .unwrap()
        };
        let msg = run();
        for member in ["loose", "laminar", "agreeable", "cms", "imps"] {
            assert!(msg.contains(member), "missing {member} in {msg}");
        }
        for stream in ["stream agreeable", "stream laminar", "stream adversary"] {
            assert!(msg.contains(stream), "missing {stream} in {msg}");
        }
        assert!(msg.contains("bounds hold"), "{msg}");
        assert_eq!(msg, run(), "same-seed race output must be byte-identical");
    }

    #[test]
    fn online_run_replays_an_exported_adversary_stream() {
        let dir = std::env::temp_dir().join("machmin_cli_online");
        std::fs::create_dir_all(&dir).unwrap();
        let stream = dir.join("adv_stream.jsonl").to_string_lossy().to_string();
        std::fs::remove_file(&stream).ok();

        let msg = execute(Command::Adversary {
            policy: "edf-ff".into(),
            k: 3,
            machines: 16,
            checkpoint: None,
            resume: false,
            export_stream: Some(stream.clone()),
            trace: None,
            metrics: None,
        })
        .unwrap();
        assert!(msg.contains("exported"), "{msg}");

        let msg = execute(Command::Online {
            mode: "run".into(),
            stream: Some(stream.clone()),
            member: "cms".into(),
            seed: 7,
            n: 40,
            k: 4,
            members: "all".into(),
            out: None,
            trace: None,
            metrics: None,
        })
        .unwrap();
        assert!(msg.contains("online run: cms"), "{msg}");
        assert!(msg.contains("machines opened"), "{msg}");

        let err = execute(Command::Online {
            mode: "run".into(),
            stream: Some(stream.clone()),
            member: "dance".into(),
            seed: 7,
            n: 40,
            k: 4,
            members: "all".into(),
            out: None,
            trace: None,
            metrics: None,
        })
        .unwrap_err();
        assert_eq!(err.tag(), "usage");

        std::fs::remove_file(&stream).ok();
    }

    #[test]
    fn chaos_exercises_every_site_deterministically() {
        let dir = std::env::temp_dir().join("machmin_cli_chaos");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("chaos.jsonl").to_string_lossy().to_string();
        let run = || {
            let msg = execute(Command::Chaos {
                seed: 7,
                n: 12,
                plan: None,
                trace: Some(trace_path.clone()),
                metrics: None,
            })
            .unwrap();
            let trace = std::fs::read_to_string(&trace_path).unwrap();
            (msg, trace)
        };
        let (msg_a, trace_a) = run();
        let (msg_b, trace_b) = run();
        std::fs::remove_file(&trace_path).ok();
        // The success line is derived from `FaultSite::ALL`, and every tag
        // in the registry must show up in the report — a newly added fault
        // site without a chaos segment fails here, not in stale prose.
        let all_exercised = format!("all {} fault sites exercised", FaultSite::ALL.len());
        assert!(msg_a.contains(&all_exercised), "{msg_a}");
        for site in FaultSite::ALL {
            assert!(
                msg_a.contains(site.tag()),
                "report must mention {site}: {msg_a}"
            );
        }
        assert!(msg_a.contains("backend_drop fired"), "{msg_a}");
        assert!(msg_a.contains("backend_churn fired"), "{msg_a}");
        assert!(msg_a.contains("answer_corruption fired"), "{msg_a}");
        assert!(trace_a.contains("\"fault_injected\""), "{trace_a}");
        assert!(trace_a.contains("\"backend_drop\""), "{trace_a}");
        assert!(trace_a.contains("\"backend_churn\""), "{trace_a}");
        assert!(trace_a.contains("\"probe_degraded\""), "{trace_a}");
        // Determinism: same seed, byte-identical report and event stream.
        assert_eq!(msg_a, msg_b);
        assert_eq!(trace_a, trace_b);
    }

    #[test]
    fn schedule_reports_misses_gracefully() {
        let dir = std::env::temp_dir().join("machmin_cli_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tight.json").to_string_lossy().to_string();
        let inst = Instance::from_ints([(0, 2, 2), (0, 2, 2), (0, 2, 2)]);
        io::save(&inst, &path).unwrap();
        let msg = execute(Command::Schedule {
            path: path.clone(),
            policy: "edf".into(),
            machines: Some(1),
            trace: None,
            metrics: None,
        })
        .unwrap();
        assert!(msg.contains("feasible: NO"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_policy_and_family_error() {
        assert!(execute(Command::Schedule {
            path: "/nonexistent.json".into(),
            policy: "edf".into(),
            machines: None,
            trace: None,
            metrics: None
        })
        .is_err());
        let dir = std::env::temp_dir();
        assert!(execute(Command::Generate {
            family: "nope".into(),
            n: 3,
            seed: 0,
            out: dir.join("x.json").to_string_lossy().to_string()
        })
        .is_err());
    }

    #[test]
    fn schedule_trace_and_metrics_agree_with_verifier() {
        let dir = std::env::temp_dir().join("machmin_cli_test3");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inst.json").to_string_lossy().to_string();
        let trace_path = dir.join("t.jsonl").to_string_lossy().to_string();
        let metrics_path = dir.join("m.json").to_string_lossy().to_string();

        execute(Command::Generate {
            family: "uniform".into(),
            n: 10,
            seed: 11,
            out: path.clone(),
        })
        .unwrap();

        let msg = execute(Command::Schedule {
            path: path.clone(),
            policy: "edf".into(),
            machines: None,
            trace: Some(trace_path.clone()),
            metrics: Some(metrics_path.clone()),
        })
        .unwrap();
        assert!(
            msg.contains("trace counters agree with verified schedule"),
            "{msg}"
        );
        assert!(msg.contains("trace:"), "{msg}");
        assert!(msg.contains("metrics ->"), "{msg}");

        // Every trace line is a standalone JSON object tagged with "event".
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        let mut events = 0usize;
        for line in trace.lines() {
            let v = mm_json::parse(line).unwrap();
            assert!(
                v.get("event").and_then(mm_json::Json::as_str).is_some(),
                "{line}"
            );
            events += 1;
        }
        assert!(events > 0, "trace should not be empty");

        // The metrics file parses and mirrors the trace's released-job count.
        let metrics = mm_json::parse(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
        let released = metrics
            .get("schedule")
            .and_then(|s| s.get("jobs_released"))
            .and_then(mm_json::Json::as_i64)
            .unwrap();
        assert_eq!(released, 10);

        // Solve with tracing emits feasibility probes into the same formats.
        let msg = execute(Command::Solve {
            path: path.clone(),
            budget: None,
            attempts: 3,
            trace: Some(trace_path.clone()),
            metrics: Some(metrics_path.clone()),
        })
        .unwrap();
        assert!(msg.contains("migratory optimum"), "{msg}");
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.contains("\"feasibility_probe\""), "{trace}");

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&trace_path).ok();
        std::fs::remove_file(&metrics_path).ok();
    }

    #[test]
    fn serve_and_load_round_trip_with_journal() {
        let dir = std::env::temp_dir().join("machmin_cli_serve");
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("journal.jsonl").to_string_lossy().to_string();
        let port_file = dir.join("port.txt").to_string_lossy().to_string();
        let transcript = dir.join("transcript.jsonl").to_string_lossy().to_string();
        let metrics_path = dir.join("serve-metrics.json").to_string_lossy().to_string();
        std::fs::remove_file(&journal).ok();
        std::fs::remove_file(&port_file).ok();

        let server = {
            let (journal, port_file, metrics_path) =
                (journal.clone(), port_file.clone(), metrics_path.clone());
            std::thread::spawn(move || {
                execute(Command::Serve {
                    addr: "127.0.0.1:0".into(),
                    workers: 2,
                    queue_cap: 16,
                    drain_ms: 2_000,
                    seed: 1,
                    retry_attempts: 3,
                    chaos: false,
                    plan: None,
                    journal: Some(journal),
                    deadline_ms: None,
                    port_file: Some(port_file),
                    trace: None,
                    metrics: Some(metrics_path),
                })
            })
        };
        // Wait for the server to publish its bound address.
        let addr = {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            loop {
                if let Ok(addr) = std::fs::read_to_string(&port_file) {
                    if !addr.is_empty() {
                        break addr;
                    }
                }
                assert!(std::time::Instant::now() < deadline, "server never bound");
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        };
        let msg = execute(Command::Load {
            addr,
            n: 30,
            seed: 4,
            paced: false,
            window: 8,
            deadline_ms: None,
            out: Some(transcript.clone()),
            hist: None,
            shutdown: true,
        })
        .unwrap();
        assert!(msg.contains("lost responses: 0"), "{msg}");
        assert!(msg.contains("transcript (30 lines)"), "{msg}");

        let server_msg = server.join().unwrap().unwrap();
        assert!(
            server_msg.contains("invariant requests_admitted == responses_sent: ok"),
            "{server_msg}"
        );
        assert!(server_msg.contains("journal: replayed 0"), "{server_msg}");
        // Every admitted request and every released response hit the journal.
        let journal_text = std::fs::read_to_string(&journal).unwrap();
        assert_eq!(
            journal_text.matches("\"rec\":\"admitted\"").count(),
            30,
            "{journal_text}"
        );
        assert_eq!(journal_text.matches("\"rec\":\"acked\"").count(), 30);
        let metrics = mm_json::parse(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
        let admitted = metrics
            .get("serve")
            .and_then(|s| s.get("requests_admitted"))
            .and_then(mm_json::Json::as_i64);
        assert_eq!(admitted, Some(30), "{metrics:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_plan_and_checkpoint_stay_categorized_io_errors() {
        let dir = std::env::temp_dir().join("machmin_cli_truncate");
        std::fs::create_dir_all(&dir).unwrap();

        // A fault plan truncated at every byte offset: exit code 3 with
        // line/column context, never a panic (exit 70).
        let plan_text = FaultPlan::chaos(3).to_json().to_pretty();
        let plan_path = dir.join("plan.json").to_string_lossy().to_string();
        // Cuts inside the trimmed document; a cut that only strips trailing
        // whitespace still parses, which is correct behavior.
        for cut in 0..plan_text.trim_end().len() {
            std::fs::write(&plan_path, &plan_text[..cut]).unwrap();
            let err = execute(Command::Chaos {
                seed: 3,
                n: 4,
                plan: Some(plan_path.clone()),
                trace: None,
                metrics: None,
            })
            .unwrap_err();
            assert_eq!(err.tag(), "io", "cut {cut}: {err}");
            assert_eq!(err.exit_code(), 3, "cut {cut}");
            assert!(err.to_string().contains("line "), "cut {cut}: {err}");
        }

        // A sweep checkpoint truncated at every byte offset: `--resume`
        // reports a categorized io error, never a panic.
        let ckpt = dir.join("sweep.json").to_string_lossy().to_string();
        execute(Command::Adversary {
            policy: "edf-ff".into(),
            k: 2,
            machines: 8,
            checkpoint: Some(ckpt.clone()),
            resume: false,
            export_stream: None,
            trace: None,
            metrics: None,
        })
        .unwrap();
        let ckpt_text = std::fs::read_to_string(&ckpt).unwrap();
        for cut in 0..ckpt_text.trim_end().len() {
            std::fs::write(&ckpt, &ckpt_text[..cut]).unwrap();
            let err = execute(Command::Adversary {
                policy: "edf-ff".into(),
                k: 2,
                machines: 8,
                checkpoint: Some(ckpt.clone()),
                resume: true,
                export_stream: None,
                trace: None,
                metrics: None,
            })
            .unwrap_err();
            assert_eq!(err.tag(), "io", "cut {cut}: {err}");
            assert!(
                err.to_string().contains("cannot resume from"),
                "cut {cut}: {err}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn help_mentions_all_commands() {
        let h = help_text();
        for cmd in [
            "solve",
            "classify",
            "schedule",
            "demigrate",
            "generate",
            "adversary",
            "chaos",
            "serve",
            "load",
            "cluster",
            "top",
            "bench",
        ] {
            assert!(h.contains(cmd), "help is missing `{cmd}`");
        }
        assert!(h.contains("worker_panic"), "chaos site list is stale");
        assert!(h.contains("backend_drop"), "chaos site list is stale");
        assert!(h.contains("exit codes"));
    }

    #[test]
    fn parse_cluster_commands() {
        assert_eq!(
            parse(&argv(
                "cluster grid --backends a:1,b:2 --balance hash --seed 9 --window 32 \
                 --hedge-every 5 --churn churn.json --spares d:4,e:5 --migration-budget 8 \
                 --families uniform,loose --seeds 2 --n 8 --out t.jsonl"
            ))
            .unwrap(),
            Command::Cluster {
                workload: "grid".into(),
                path: None,
                backends: vec!["a:1".into(), "b:2".into()],
                balance: "hash".into(),
                seed: 9,
                window: 32,
                hedge_every: Some(5),
                hedge_p99: None,
                hedge_floor_ms: 10,
                chaos: false,
                plan: None,
                churn: Some("churn.json".into()),
                spares: vec!["d:4".into(), "e:5".into()],
                migration_budget: 8,
                verify: "off".into(),
                deadline_ms: None,
                policies: "edf-ff".into(),
                k: 4,
                machines: 16,
                checkpoint: None,
                resume: false,
                families: "uniform,loose".into(),
                seeds: 2,
                n: 8,
                members: "all".into(),
                out: Some("t.jsonl".into()),
                trace: None,
                metrics: None,
            }
        );
        assert_eq!(
            parse(&argv(
                "cluster sweep --backends a:1 --policies edf-ff,medium-fit --k 3 \
                 --machines 8 --checkpoint c.json --resume"
            ))
            .unwrap(),
            Command::Cluster {
                workload: "sweep".into(),
                path: None,
                backends: vec!["a:1".into()],
                balance: "round-robin".into(),
                seed: 0,
                window: 8,
                hedge_every: None,
                hedge_p99: None,
                hedge_floor_ms: 10,
                chaos: false,
                plan: None,
                churn: None,
                spares: vec![],
                migration_budget: 64,
                verify: "off".into(),
                deadline_ms: None,
                policies: "edf-ff,medium-fit".into(),
                k: 3,
                machines: 8,
                checkpoint: Some("c.json".into()),
                resume: true,
                families: "uniform,agreeable,loose".into(),
                seeds: 3,
                n: 12,
                members: "all".into(),
                out: None,
                trace: None,
                metrics: None,
            }
        );
        // solve takes the instance file positionally.
        match parse(&argv("cluster solve inst.json --backends a:1")).unwrap() {
            Command::Cluster { workload, path, .. } => {
                assert_eq!(workload, "solve");
                assert_eq!(path.as_deref(), Some("inst.json"));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        // Guard rails: every one of these is a usage error.
        for bad in [
            "cluster",
            "cluster frobnicate --backends a:1",
            "cluster grid",
            "cluster solve --backends a:1",
            "cluster grid --backends ,",
            "cluster grid --backends a:1 --hedge-every 2 --hedge-p99 300",
            "cluster grid --backends a:1 --hedge-every 0",
            "cluster grid --backends a:1 --chaos --plan p.json",
            "cluster sweep --backends a:1 --k 1",
            "cluster sweep --backends a:1 --resume",
            "cluster grid --backends a:1 --spares b:2",
            "bench --serve --cluster",
        ] {
            let err = parse(&argv(bad)).unwrap_err();
            assert_eq!(err.tag(), "usage", "`{bad}` must be a usage error: {err}");
        }
    }

    #[test]
    fn cluster_stats_and_top_render_a_live_pool() {
        let dir = std::env::temp_dir().join("machmin_cli_stats");
        std::fs::create_dir_all(&dir).unwrap();
        let out_path = dir.join("stats.json").to_string_lossy().to_string();
        let pool = spawn_pool(2, 64).unwrap();
        let backends: Vec<String> = pool.iter().map(|b| b.addr.clone()).collect();
        let msg = execute(Command::Cluster {
            workload: "stats".into(),
            path: None,
            backends: backends.clone(),
            balance: "round-robin".into(),
            seed: 0,
            window: 8,
            hedge_every: None,
            hedge_p99: None,
            hedge_floor_ms: 10,
            chaos: false,
            plan: None,
            churn: None,
            spares: vec![],
            migration_budget: 64,
            verify: "off".into(),
            deadline_ms: None,
            policies: "edf-ff".into(),
            k: 4,
            machines: 16,
            checkpoint: None,
            resume: false,
            families: "uniform".into(),
            seeds: 1,
            n: 4,
            members: "all".into(),
            out: Some(out_path.clone()),
            trace: None,
            metrics: None,
        })
        .unwrap();
        assert!(msg.contains("2/2 backend(s) up"), "{msg}");
        assert!(msg.contains("stats ->"), "{msg}");
        let doc = mm_json::parse(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        assert_eq!(
            doc.get("backends_reachable")
                .and_then(mm_json::Json::as_i64),
            Some(2)
        );
        let msg = execute(Command::Top {
            backends,
            interval_s: 0,
            frames: 0,
        })
        .unwrap();
        assert!(msg.contains("machmin top"), "{msg}");
        assert!(msg.contains("pool:"), "{msg}");
        teardown_pool(pool).unwrap();
        // A fully unreachable pool is an io error, not a panic.
        let err = execute(Command::Top {
            backends: vec!["127.0.0.1:1".into()],
            interval_s: 0,
            frames: 0,
        })
        .unwrap_err();
        assert_eq!(err.tag(), "io");
        std::fs::remove_file(&out_path).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cluster_solve_round_trips_against_a_live_pool() {
        let dir = std::env::temp_dir().join("machmin_cli_cluster");
        std::fs::create_dir_all(&dir).unwrap();
        let inst_path = dir.join("inst.json").to_string_lossy().to_string();
        let transcript = dir.join("cluster.jsonl").to_string_lossy().to_string();
        let inst = Instance::from_ints([(0, 2, 2), (0, 2, 2), (0, 2, 2)]);
        io::save(&inst, &inst_path).unwrap();
        let pool = spawn_pool(2, 64).unwrap();
        let backends: Vec<String> = pool.iter().map(|b| b.addr.clone()).collect();
        let cmd = |workload: &str, backends: Vec<String>| Command::Cluster {
            workload: workload.into(),
            path: (workload == "solve").then(|| inst_path.clone()),
            backends,
            balance: "hash".into(),
            seed: 5,
            window: 8,
            hedge_every: None,
            hedge_p99: None,
            hedge_floor_ms: 10,
            chaos: false,
            plan: None,
            churn: None,
            spares: vec![],
            migration_budget: 64,
            verify: "off".into(),
            deadline_ms: None,
            policies: "edf-ff".into(),
            k: 3,
            machines: 8,
            checkpoint: None,
            resume: false,
            families: "uniform".into(),
            seeds: 2,
            n: 8,
            members: "all".into(),
            out: Some(transcript.clone()),
            trace: None,
            metrics: None,
        };
        let msg = execute(cmd("solve", backends.clone())).unwrap();
        assert!(msg.contains("cluster solve: optimum 3 machines"), "{msg}");
        assert!(msg.contains("lost responses: 0"), "{msg}");
        let lines = std::fs::read_to_string(&transcript).unwrap();
        assert!(lines.starts_with("{\"cluster\":\"solve\""), "{lines}");
        let msg = execute(cmd("grid", backends)).unwrap();
        assert!(msg.contains("cluster grid: 2 cell(s)"), "{msg}");
        assert!(msg.contains("\"solved\""), "{msg}");
        teardown_pool(pool).unwrap();
        // A pool with no listener is a categorized io error, not a panic.
        let err = execute(cmd("solve", vec!["127.0.0.1:1".into()])).unwrap_err();
        assert_eq!(err.tag(), "io", "{err}");
        // An unknown balance policy is a usage error.
        let mut bad = cmd("grid", vec!["127.0.0.1:1".into()]);
        if let Command::Cluster { balance, .. } = &mut bad {
            *balance = "fastest".into();
        }
        let err = execute(bad).unwrap_err();
        assert_eq!(err.tag(), "usage", "{err}");
        std::fs::remove_file(&inst_path).ok();
        std::fs::remove_file(&transcript).ok();
        std::fs::remove_dir_all(&dir).ok();
    }
}

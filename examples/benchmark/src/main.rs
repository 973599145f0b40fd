//! End-to-end benchmark for `machmin`: what a client of `machmin serve` and
//! of the verified pool gets, and which layer the time goes to.
//!
//! ```text
//! benchmark --workload <name>|all --seed S [--seconds T] [--trace 0|1]
//!           [--runs N] [--out result.json]
//! benchmark --compare parent.json change.json
//! ```
//!
//! One run starts the stack in-process (`Service::start` plus `tcp::serve`
//! on loopback, fsync'd journal in a scratch directory under `.bench_tmp/`),
//! drives one workload through it, checks every answer, and prints one JSON
//! object as its last line of output: `correct`, `attempted`, `failed`, and
//! the end-to-end metrics, or with `--trace 1` the per-layer ones (spans go
//! to `.bench_out/spans-<workload>.jsonl`). `--runs N` repeats every
//! workload in fresh processes and prints medians and quartiles;
//! `--compare` applies the metrics' bounds to two such result files.
//! See README.md for the workloads and the metric table.

mod check;
mod gen;
mod layers;
mod load;
mod metrics;
mod repeat;
mod stack;
mod stats;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mm_json::Json;
use mm_obs::{Histogram, RegistrySnapshot};

use crate::check::{Checker, Template};
use crate::gen::Workload;
use crate::load::{Closed, OpenLoop, Phase, Target};
use crate::stats::{median, quantile, Rng};

/// Fresh set-ups timed per run; the median is `setup_s`.
const SETUP_REPS: usize = 21;
/// Load before the measured phase, discarded.
const WARMUP: Duration = Duration::from_secs(3);
/// The percentile `latency_tail_ms` reports. The closed loops cycle
/// through a few dozen distinct requests, where p99 would be the latency of
/// the one or two slowest; on `serve_small`'s open loop, p99 moved by half
/// between runs with the shared host's stalls while p90 held.
const TAIL_Q: f64 = 0.9;
/// `serve_small`: the open-loop hold rate, the generator lag past which a
/// phase is reported invalid, and the requests each connection keeps
/// outstanding in the saturation phase (two connections stay two short of
/// the admission bound, so a reply that overtakes the supervisor's
/// bookkeeping is never shed).
const HOLD_RATE: f64 = 1000.0;
const GEN_LAG_LIMIT_MS: f64 = 2.0;
const SATURATION_DEPTH: usize = stack::QUEUE_CAP / 2 - 1;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    runs: Option<usize>,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 20,
        trace: false,
        runs: None,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workloads = if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&v).ok_or(format!("unknown workload {v}"))?]
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                };
            }
            "--runs" => args.runs = Some(value()?.parse().map_err(|e| format!("--runs: {e}"))?),
            "--out" => args.out = Some(value()?),
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workloads.is_empty() && args.compare.is_none() {
        return Err("--workload <name>|all is required".into());
    }
    if args.seconds < 5 {
        return Err("--seconds must be at least 5".into());
    }
    Ok(args)
}

fn main() {
    let outcome = parse_args().and_then(|args| {
        if let Some((parent, change)) = &args.compare {
            return repeat::compare(parent, change);
        }
        if args.runs.is_some() || args.out.is_some() || args.workloads.len() > 1 {
            return repeat::runs(&args);
        }
        let run = run(args.workloads[0], args.seed, args.seconds, args.trace)?;
        println!("{}", run.to_json().to_compact());
        Ok(run.correct)
    });
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    }
}

/// The result of one run.
struct Run {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl Run {
    fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|&(name, value)| {
            let unit = metrics::find(name)
                .expect("reported metrics are defined")
                .unit;
            (
                name,
                Json::obj([("value", Json::Float(value)), ("unit", Json::str(unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// What the load of one workload produced.
struct Load {
    /// The phase whose latency and failures are reported.
    scored: Phase,
    goodput: f64,
    checker: Checker,
    /// Requests lost anywhere in the run, warm-up included.
    lost: u64,
    refuted: u64,
    proofs_unverifiable: u64,
    shed_frac: f64,
    gen_lag_p99_ms: f64,
}

fn run(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Result<Run, String> {
    let scratch =
        PathBuf::from(".bench_tmp").join(format!("{}-{}", workload.name(), std::process::id()));
    let result = run_in(
        &scratch,
        workload,
        seed,
        Duration::from_secs(seconds),
        trace,
    );
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

fn run_in(
    scratch: &Path,
    workload: Workload,
    seed: u64,
    length: Duration,
    trace: bool,
) -> Result<Run, String> {
    let name = workload.name();
    let t = Instant::now();
    let specs = gen::specs(workload, seed);
    let generate_s = secs(t);
    let t = Instant::now();
    let templates = check::reference(&specs);
    let reference_s = secs(t);
    drop(specs);
    eprintln!(
        "{name}: {} templates, generated in {generate_s:.3} s, referenced in {reference_s:.3} s",
        templates.len()
    );

    let (stacks, workers) = match workload {
        Workload::PoolVerify => (2, 1),
        _ => (1, 2),
    };
    let mut setups = Vec::new();
    let mut firsts = Vec::new();
    let mut started = None;
    for rep in 0..SETUP_REPS {
        let (s, total, first) = stack::set_up(scratch, &format!("setup{rep}"), stacks, workers)?;
        setups.push(total.as_secs_f64());
        firsts.push(first.as_secs_f64());
        if rep + 1 < SETUP_REPS {
            s.stop()?;
        } else {
            started = Some(s);
        }
    }
    let started = started.expect("at least one set-up");
    let setup_s = median(&setups);
    let addrs = started.addrs();

    let mut rng = Rng::new(seed, 2);
    let mut scraped = None;
    let load = match workload {
        Workload::ServeSmall => {
            let (load, hold_stats) = serve_small(&addrs[0], &templates, &mut rng, length, trace)?;
            scraped = hold_stats;
            load
        }
        Workload::ServeLarge | Workload::ServeOnline => {
            let target = Target::Tcp(addrs[0].clone());
            let (scored, checker) =
                load::closed_loop(&target, &templates, &closed_shape(workload, WARMUP, length))?;
            closed_load(scored, checker)
        }
        Workload::PoolVerify => {
            let (scored, checker, counts) =
                load::pool_loop(&addrs, &templates, seed, WARMUP, length)?;
            Load {
                lost: counts.lost,
                refuted: counts.refuted,
                proofs_unverifiable: counts.unverifiable,
                ..closed_load(scored, checker)
            }
        }
    };
    if trace && scraped.is_none() {
        let mut merged = RegistrySnapshot::default();
        for addr in &addrs {
            merged.merge(&stack::scrape(addr)?);
        }
        scraped = Some(merged);
    }
    let served = started.stop()?;
    let invariant = served.iter().all(|s| s.invariant_holds());
    let verdict = load.checker.verdict(&templates);
    let correct = verdict.wrong == 0 && load.lost == 0 && load.refuted == 0 && invariant;
    let scored = &load.scored;
    eprintln!(
        "{name}: {} requests scored, {} ok, {} shed, {} failed, {} lost; {} answers checked, \
         {} wrong, {} proofs verified, {} unverifiable; refuted {}; invariant {}",
        scored.sent,
        scored.ok_ms.len(),
        scored.shed,
        scored.failed,
        scored.lost,
        verdict.checked,
        verdict.wrong,
        verdict.proofs_verified,
        verdict.proofs_unverifiable + load.proofs_unverifiable,
        load.refuted,
        if invariant { "holds" } else { "BROKEN" },
    );
    let client_p50_ms = quantile(&scored.ok_ms, 0.5);
    let mut run = Run {
        correct,
        attempted: scored.sent,
        failed: scored.shed + scored.failed + scored.lost + verdict.wrong,
        metrics: Vec::new(),
    };
    if !trace {
        run.metrics = vec![
            ("setup_s", setup_s),
            ("peak_rss_mb", stats::peak_rss_mb()),
            ("latency_p50_ms", client_p50_ms),
            ("latency_tail_ms", quantile(&scored.ok_ms, TAIL_Q)),
            ("goodput_rps", load.goodput),
        ];
        return Ok(run);
    }

    // The traced run: the same requests pushed into a fresh service with no
    // socket, then the per-layer replay.
    let scraped = scraped.expect("scraped when tracing");
    let (local_stack, _, _) = stack::set_up(scratch, "local", 1, workers)?;
    let service = std::sync::Arc::clone(&local_stack.stacks[0].service);
    let local_len = length.mul_f64(0.4);
    let local = match workload {
        Workload::ServeSmall => {
            let mut ol = OpenLoop::local(service, &templates);
            ol.phase(&mut rng, HOLD_RATE, Duration::from_secs(1))?;
            let hold = ol.phase(&mut rng, HOLD_RATE, local_len)?;
            ol.finish();
            hold
        }
        _ => {
            let shape = closed_shape(workload, Duration::from_secs(1), local_len);
            load::closed_loop(&Target::Local(service), &templates, &shape)?.0
        }
    };
    local_stack.stop()?;
    let local_p50_ms = quantile(&local.ok_ms, 0.5);
    let server_p50_us = merged_latency(&scraped).quantile(0.5) as f64;
    let frontend_us = (client_p50_ms - local_p50_ms) * 1e3;
    eprintln!(
        "{name}: client p50 {client_p50_ms:.3} ms, in-process p50 {local_p50_ms:.3} ms, \
         server latency_us p50 {server_p50_us:.0} us; frontend + server = {:.3} ms",
        (frontend_us + server_p50_us) / 1e3
    );

    let picks = layers::sample(workload, templates.len());
    let replay = layers::replay(&templates, &picks, scratch)?;
    std::fs::create_dir_all(".bench_out").map_err(|e| format!("cannot create .bench_out: {e}"))?;
    replay.write_spans(Path::new(&format!(".bench_out/spans-{name}.jsonl")), name)?;
    let c = &replay.counts;
    let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let phase_us = |phase: &str, q: f64| {
        scraped
            .histograms
            .get(&format!("phase_us.{phase}"))
            .map_or(0.0, |h| h.quantile(q) as f64)
    };
    let journal_us = replay.layer_us("journal.append");
    let flow_ms = replay
        .layer_us("flow.search")
        .iter()
        .map(|u| u / 1e3)
        .collect::<Vec<_>>();
    let proof_bytes: Vec<f64> = c.proof_bytes.iter().map(|&b| b as f64).collect();
    run.metrics = vec![
        ("tcp.frontend_us_p50", frontend_us),
        ("tcp.first_answer_ms", median(&firsts) * 1e3),
        (
            "protocol.decode_us_p50",
            replay.layer_p50_us("protocol.decode"),
        ),
        (
            "protocol.decode_ns_per_byte",
            replay.layer_total_us("protocol.decode") * 1e3 / c.decode_bytes.max(1) as f64,
        ),
        (
            "protocol.encode_us_p50",
            replay.layer_p50_us("protocol.encode"),
        ),
        ("supervisor.admit_us_p50", quantile(&local.admit_us, 0.5)),
        ("supervisor.admit_us_p99", quantile(&local.admit_us, 0.99)),
        ("supervisor.queued_us_p50", phase_us("queued", 0.5)),
        ("supervisor.queued_us_p99", phase_us("queued", 0.99)),
        ("supervisor.reply_us_p50", phase_us("reply", 0.5)),
        ("supervisor.reply_us_p99", phase_us("reply", 0.99)),
        ("supervisor.shed_frac", load.shed_frac),
        ("journal.append_us_p50", quantile(&journal_us, 0.5)),
        ("journal.append_us_p99", quantile(&journal_us, 0.99)),
        (
            "journal.ms_per_mb",
            replay.layer_total_us("journal.append") / 1e3 / (c.journal_bytes.max(1) as f64 / 1e6),
        ),
        (
            "journal.records_per_req",
            per(c.journal_records, c.requests),
        ),
        ("journal.bytes_per_req", per(c.journal_bytes, c.requests)),
        ("exec.us_p50", phase_us("exec", 0.5)),
        ("exec.us_p99", phase_us("exec", 0.99)),
        (
            "certifier.build_us_p50",
            replay.layer_p50_us("certifier.build"),
        ),
        (
            "certifier.search_us_p50",
            replay.layer_p50_us("certifier.search"),
        ),
        (
            "certifier.certified_frac",
            per(c.certified, c.certify_attempts),
        ),
        ("certifier.rescued", c.rescued as f64),
        ("flow.search_ms_p50", quantile(&flow_ms, 0.5)),
        ("flow.probes_per_solve", per(c.flow_probes, c.solves)),
        (
            "flow.augmentations_per_solve",
            per(c.flow_augmentations, c.solves),
        ),
        ("proof.build_us_p50", replay.layer_p50_us("proof.build")),
        ("proof.bytes_p50", quantile(&proof_bytes, 0.5)),
        ("proof.verify_us_p50", replay.layer_p50_us("proof.verify")),
        ("sim.run_us_p50", replay.layer_p50_us("sim.run")),
        ("online.run_us_p50", replay.layer_p50_us("online.run")),
        (
            "online.ns_per_release",
            replay.layer_total_us("online.run") * 1e3 / c.releases.max(1) as f64,
        ),
        ("online.ratio_millis_sum", c.ratio_millis_sum as f64),
        ("setup.generate_s", generate_s),
        ("setup.reference_s", reference_s),
        (
            "setup.start_s",
            median(
                &setups
                    .iter()
                    .zip(&firsts)
                    .map(|(s, f)| s - f)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("client.gen_lag_p99_ms", load.gen_lag_p99_ms),
        ("trace.coverage", replay.coverage()),
        ("trace.overhead_frac", replay.overhead_frac()),
    ];
    Ok(run)
}

fn closed_load(scored: Phase, checker: Checker) -> Load {
    Load {
        goodput: scored.goodput,
        lost: scored.lost,
        refuted: 0,
        proofs_unverifiable: 0,
        shed_frac: scored.shed as f64 / scored.sent.max(1) as f64,
        scored,
        checker,
        gen_lag_p99_ms: 0.0,
    }
}

/// The server's end-to-end latency over every request kind.
fn merged_latency(snapshot: &RegistrySnapshot) -> Histogram {
    let mut all = Histogram::new();
    for (name, h) in &snapshot.histograms {
        if name.starts_with("latency_us.") {
            all.merge(h);
        }
    }
    all
}

/// The closed loops: one connection on `serve_large`, two elsewhere (the
/// pool's in-process push mirrors its window of two per backend), each
/// with one request outstanding, scored over whole passes.
fn closed_shape(workload: Workload, warmup: Duration, length: Duration) -> Closed {
    Closed {
        conns: if workload == Workload::ServeLarge {
            1
        } else {
            2
        },
        depth: 1,
        warmup,
        length,
        whole_cycles: true,
    }
}

/// `serve_small`: a discarded warm-up and the hold phase at `HOLD_RATE`
/// (half the run), open loop; then the saturation phase (the other half), a
/// closed loop over the same two-connection budget that keeps the admission
/// queue just short of full, for `goodput_rps`. When tracing, the server's
/// metrics are scraped after the hold, so they describe the same requests.
fn serve_small(
    addr: &str,
    templates: &[Template],
    rng: &mut Rng,
    length: Duration,
    trace: bool,
) -> Result<(Load, Option<RegistrySnapshot>), String> {
    let mut ol = OpenLoop::tcp(addr, templates)?;
    let warm = ol.phase(rng, HOLD_RATE, WARMUP)?;
    let hold = ol.phase(rng, HOLD_RATE, length.mul_f64(0.5))?;
    let checker = ol.finish();
    let hold_stats = if trace {
        Some(stack::scrape(addr)?)
    } else {
        None
    };
    let gen_lag = quantile(&hold.gen_lag_ms, 0.99);
    eprintln!(
        "serve_small: hold {HOLD_RATE} req/s: {} sent, p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, \
         gen lag p99 {gen_lag:.3} ms{}",
        hold.sent,
        quantile(&hold.ok_ms, 0.5),
        quantile(&hold.ok_ms, 0.9),
        quantile(&hold.ok_ms, 0.99),
        if gen_lag > GEN_LAG_LIMIT_MS {
            " (INVALID: generator late)"
        } else {
            ""
        },
    );
    let shape = Closed {
        conns: 2,
        depth: SATURATION_DEPTH,
        warmup: Duration::from_millis(500),
        length: length.mul_f64(0.5),
        whole_cycles: false,
    };
    let (saturated, mut more) =
        load::closed_loop(&Target::Tcp(addr.to_string()), templates, &shape)?;
    more.merge(checker);
    eprintln!(
        "serve_small: saturation: {} answered, {} shed, {:.0} ok/s",
        saturated.sent, saturated.shed, saturated.goodput
    );
    let load = Load {
        goodput: saturated.goodput,
        lost: warm.lost + hold.lost,
        refuted: 0,
        proofs_unverifiable: 0,
        shed_frac: saturated.shed as f64 / saturated.sent.max(1) as f64,
        scored: hold,
        checker: more,
        gen_lag_p99_ms: gen_lag,
    };
    Ok((load, hold_stats))
}

//! The traced replay: a fixed sample of the workload's requests is passed
//! through the public function each layer exposes, in the server's order,
//! with one span per call (request id, layer, start, end, parent):
//!
//! 1. `Request::parse`;
//! 2. the `opt`, `sim`, or `online` calls `exec` makes for the kind;
//! 3. `Response::to_line`;
//! 4. the two `Journal::append` calls of an admitted and acked request;
//! 5. `mm_opt::verify` on a returned proof, as a verifying coordinator does.
//!
//! Each request also runs untraced, with `exec::execute` timed whole, so the
//! replay reports how much of `execute` its spans cover and what recording
//! them costs; the two runs of a request alternate which goes first. Spans
//! live in memory until the replay ends.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use mm_core::{Edf, EdfFirstFit, Llf, MediumFit};
use mm_fault::Budget;
use mm_json::Json;
use mm_serve::exec::{execute, NoProgress};
use mm_serve::protocol::{Request, RequestKind, Response};
use mm_serve::{Journal, Record};
use mm_sim::{run_policy, SimConfig};
use mm_trace::{NoopSink, TraceEvent, TraceSink};

use crate::check::Template;
use crate::stats::quantile;

struct Span {
    req: u64,
    layer: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn time<T>(&mut self, req: u64, layer: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            req,
            layer,
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.epoch.elapsed();
        out
    }
}

/// Counts flow probes and augmenting paths as the solver reports them.
#[derive(Default)]
struct FlowCounter {
    probes: u64,
    augmentations: u64,
}

impl TraceSink for FlowCounter {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::FeasibilityProbe { .. } => self.probes += 1,
            TraceEvent::ProbeReuse { augmentations, .. } => self.augmentations += augmentations,
            _ => {}
        }
    }
}

/// Exact counts of the replay: a pure function of the sample.
#[derive(Default)]
pub struct Counts {
    pub requests: u64,
    pub decode_bytes: u64,
    pub solves: u64,
    pub flow_probes: u64,
    pub flow_augmentations: u64,
    pub certify_attempts: u64,
    pub certified: u64,
    pub rescued: u64,
    pub proof_bytes: Vec<u64>,
    pub releases: u64,
    pub ratio_millis_sum: u64,
    pub journal_records: u64,
    pub journal_bytes: u64,
}

pub struct Replay {
    spans: Vec<Span>,
    pub counts: Counts,
    untraced: Duration,
    traced: Duration,
    executed: Duration,
}

/// The request templates the replay samples for a workload with `len`
/// templates: a spread over sizes and kinds whose replay stays short.
pub fn sample(workload: crate::gen::Workload, len: usize) -> Vec<usize> {
    use crate::gen::Workload::*;
    match workload {
        ServeSmall => (0..len.min(200)).collect(),
        // Instances 1 and 4 of the ladder (agreeable 4.5k, uniform 9k),
        // with all three asks.
        ServeLarge => (0..len).filter(|i| matches!(i / 3, 1 | 4)).collect(),
        ServeOnline | PoolVerify => (0..len).collect(),
    }
}

/// Replays the sample untraced and traced, appending to journals in `dir`.
pub fn replay(templates: &[Template], picks: &[usize], dir: &Path) -> Result<Replay, String> {
    let journal = |name: &str| {
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        Journal::open(&path).map_err(|e| format!("cannot open {}: {e}", path.display()))
    };
    let mut plain = journal("replay-untraced.jsonl")?;
    let mut traced = journal("replay-traced.jsonl")?;
    let lines: Vec<String> = picks
        .iter()
        .enumerate()
        .map(|(i, &t)| wire(i as u64, &templates[t]))
        .collect();
    // An untimed first pass warms caches and yields the responses the
    // timed passes encode.
    let responses = lines
        .iter()
        .map(|line| {
            Ok(execute(
                &Request::parse(line)?,
                None,
                false,
                &mut NoProgress,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut tracer = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    };
    let mut counts = Counts::default();
    let (mut untraced, mut traced_time, mut executed) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    for (i, (line, response)) in lines.iter().zip(&responses).enumerate() {
        // Alternate which pass runs first, so neither gains from the
        // other's warm caches.
        for with_spans in [i % 2 == 1, i % 2 == 0] {
            let t0 = Instant::now();
            if with_spans {
                let id = i as u64;
                tracer.time(id, "request", |tr| {
                    traced_request(tr, id, line, response, &mut traced, &mut counts)
                })?;
                traced_time += t0.elapsed();
            } else {
                let req = Request::parse(line)?;
                let e0 = Instant::now();
                let response = execute(&req, None, false, &mut NoProgress);
                executed += e0.elapsed();
                append_pair(&mut plain, req.id, line, &response.to_line())?;
                if let Some((claim, proof)) = proof_claim(&req, &response) {
                    verify(&req, &claim, proof);
                }
                untraced += t0.elapsed();
            }
        }
    }
    Ok(Replay {
        spans: tracer.spans,
        counts,
        untraced,
        traced: traced_time,
        executed,
    })
}

/// One request through every layer, one span per call.
fn traced_request(
    tr: &mut Tracer,
    id: u64,
    line: &str,
    response: &Response,
    journal: &mut Journal,
    counts: &mut Counts,
) -> Result<(), String> {
    let req = tr.time(id, "protocol.decode", |_| Request::parse(line))?;
    counts.requests += 1;
    counts.decode_bytes += line.len() as u64;
    tr.time(id, "exec", |tr| traced_exec(tr, &req, counts));
    let out = tr.time(id, "protocol.encode", |_| response.to_line());
    for record in [
        Record::Admitted {
            id,
            line: line.to_string(),
        },
        Record::Acked { id, line: out },
    ] {
        let bytes = tr
            .time(id, "journal.append", |_| journal.append(&record))
            .map_err(|e| format!("journal append: {e}"))?;
        counts.journal_records += 1;
        counts.journal_bytes += bytes as u64;
    }
    if let Some((claim, proof)) = proof_claim(&req, response) {
        counts.proof_bytes.push(proof.to_compact().len() as u64);
        tr.time(id, "proof.verify", |_| verify(&req, &claim, proof));
    }
    Ok(())
}

fn wire(id: u64, template: &Template) -> String {
    format!("{{\"id\":{id}{}", template.rest)
}

fn append_pair(journal: &mut Journal, id: u64, line: &str, out: &str) -> Result<(), String> {
    for record in [
        Record::Admitted {
            id,
            line: line.to_string(),
        },
        Record::Acked {
            id,
            line: out.to_string(),
        },
    ] {
        journal
            .append(&record)
            .map_err(|e| format!("journal append: {e}"))?;
    }
    Ok(())
}

/// The claim an answer makes and the proof it carries, if any.
fn proof_claim<'a>(req: &Request, response: &'a Response) -> Option<(mm_opt::Claim, &'a Json)> {
    let Response::Ok { fields, .. } = response else {
        return None;
    };
    let proof = &fields.iter().find(|(k, _)| k == "proof")?.1;
    let claim = match (&req.kind, fields.first()) {
        (RequestKind::Solve { .. }, Some((_, Json::Int(m)))) => mm_opt::Claim::Optimal(*m as u64),
        (RequestKind::Probe { machines, .. }, Some((_, Json::Bool(true)))) => {
            mm_opt::Claim::Feasible(*machines)
        }
        (RequestKind::Probe { machines, .. }, _) => mm_opt::Claim::Infeasible(*machines),
        _ => return None,
    };
    Some((claim, proof))
}

/// Decodes and checks a proof, as a verifying coordinator does.
fn verify(req: &Request, claim: &mm_opt::Claim, proof: &Json) {
    if let (Ok(proof), Some(inst)) = (mm_opt::Proof::from_json(proof), req.instance()) {
        std::hint::black_box(mm_opt::verify(&inst, claim, &proof));
    }
}

/// The calls `exec::execute` makes for `req`, one span each.
fn traced_exec(tr: &mut Tracer, req: &Request, counts: &mut Counts) {
    let id = req.id;
    let budget = Budget::unlimited();
    let inst = tr
        .time(id, "exec.instance", |_| req.instance())
        .expect("replayed kinds carry jobs");
    match &req.kind {
        RequestKind::Solve { .. } => {
            let mut flow = FlowCounter::default();
            let search = tr.time(id, "flow.search", |_| {
                mm_opt::optimal_machines_budgeted_traced(&inst, &budget, &mut flow)
            });
            counts.solves += 1;
            counts.flow_probes += flow.probes;
            counts.flow_augmentations += flow.augmentations;
            if req.want_proof {
                let m = search.exact.expect("unlimited search is exact");
                tr.time(id, "proof.build", |_| {
                    mm_opt::proof_for_solve(&inst, m).to_json()
                });
            }
        }
        RequestKind::Probe { machines, .. } => {
            let mut fast = tr.time(id, "certifier.build", |_| mm_opt::FastProber::new(&inst));
            let certified = tr.time(id, "certifier.search", |_| fast.try_certify(*machines));
            counts.certify_attempts += 1;
            let feasible = match certified {
                Some(verdict) => {
                    counts.certified += 1;
                    verdict
                }
                None => {
                    let mut flow = FlowCounter::default();
                    let verdict = tr.time(id, "flow.probe", |_| {
                        mm_opt::FeasibilityProber::new(&inst)
                            .probe_budgeted_traced(*machines, &budget, &mut flow)
                    });
                    verdict.decided().expect("unlimited probe decides")
                }
            };
            if req.want_proof {
                tr.time(id, "proof.build", |_| {
                    mm_opt::proof_for_probe(&inst, *machines, feasible).map(|p| p.to_json())
                });
            }
        }
        RequestKind::Schedule {
            policy, machines, ..
        } => {
            let budget = machines.unwrap_or(inst.len()).max(1);
            let outcome = tr.time(id, "sim.run", |_| match policy.as_str() {
                "edf" => run_policy(&inst, Edf, SimConfig::migratory(budget)),
                "llf" => run_policy(&inst, Llf::new(), SimConfig::migratory(budget)),
                "edf-ff" => run_policy(&inst, EdfFirstFit::new(), SimConfig::nonmigratory(budget)),
                _ => run_policy(&inst, MediumFit::new(), SimConfig::nonmigratory(budget)),
            });
            std::hint::black_box(outcome.is_ok());
        }
        RequestKind::Online { member, .. } => {
            let picked = tr.time(id, "online.classify", |_| match member.as_str() {
                "auto" => mm_online::Member::auto(&inst),
                other => mm_online::Member::parse(other).expect("workloads name real members"),
            });
            let mut fast = tr.time(id, "certifier.build", |_| mm_opt::FastProber::new(&inst));
            let optimum = tr.time(id, "certifier.search", |_| fast.optimal_machines());
            let dispatch = fast.dispatch();
            counts.certify_attempts += dispatch.total();
            counts.certified += dispatch.certified();
            counts.rescued += dispatch.rescued;
            let events = tr.time(id, "online.stream", |_| {
                mm_online::stream_of_instance(&inst)
            });
            let row = tr.time(id, "online.run", |_| {
                mm_online::run_member(picked, "serve", &events, optimum, &mut NoopSink)
            });
            counts.releases += inst.len() as u64;
            counts.ratio_millis_sum += row.map_or(0, |r| r.ratio_millis);
        }
        _ => {}
    }
}

impl Replay {
    fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    /// Self times of `layer`'s spans, microseconds.
    pub fn layer_us(&self, layer: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.layer == layer)
            .map(|(_, d)| d.as_secs_f64() * 1e6)
            .collect()
    }

    pub fn layer_p50_us(&self, layer: &str) -> f64 {
        quantile(&self.layer_us(layer), 0.5)
    }

    pub fn layer_total_us(&self, layer: &str) -> f64 {
        self.layer_us(layer).iter().fold(0.0, |a, b| a + b)
    }

    /// Share of the untraced `exec::execute` time the spans under `exec`
    /// account for.
    pub fn coverage(&self) -> f64 {
        let under_exec: Duration = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].layer == "exec"))
            .map(|s| s.end - s.start)
            .sum();
        under_exec.as_secs_f64() / self.executed.as_secs_f64().max(1e-12)
    }

    /// What recording spans added to the replay's wall time, as a share.
    pub fn overhead_frac(&self) -> f64 {
        self.traced.as_secs_f64() / self.untraced.as_secs_f64().max(1e-12) - 1.0
    }

    /// Writes the spans as JSONL, one object per span.
    pub fn write_spans(&self, path: &Path, workload: &str) -> Result<(), String> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let doc = Json::obj([
                ("workload", Json::str(workload)),
                ("span", Json::Int(i as i64)),
                ("request", Json::Int(s.req as i64)),
                ("layer", Json::str(s.layer)),
                ("start_ns", Json::Int(s.start.as_nanos() as i64)),
                ("end_ns", Json::Int(s.end.as_nanos() as i64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                ),
            ]);
            out.push_str(&doc.to_compact());
            out.push('\n');
        }
        std::fs::File::create(path)
            .and_then(|mut f| f.write_all(out.as_bytes()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

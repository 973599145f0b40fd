//! Request execution: one request in, one terminal [`Response`] out.
//!
//! This is the code that runs *inside* a worker thread, under
//! `catch_unwind`. It is deliberately free of service-layer state: given the
//! same request (and checkpoint), it produces the same response, which is
//! the foundation of the byte-identical replay and same-seed transcript
//! guarantees. Deadlines become [`Budget`] deadlines, so cancellation is
//! cooperative — the solver stops at its own checkpoints and we degrade to
//! whatever bracket it certified, rather than killing threads mid-pivot.

use mm_adversary::{CompletedRun, MigrationGapAdversary, SweepCheckpoint};
use mm_core::{Edf, EdfFirstFit, Llf, MediumFit};
use mm_fault::Budget;
use mm_json::Json;
use mm_sim::{run_policy, SimConfig};
use mm_trace::{NoopSink, TraceEvent, TraceSink};

use crate::protocol::{Request, RequestKind, Response};

/// Starts a phase timer only when the sink wants events, so the untraced
/// path ([`NoopSink`], whose `enabled` is a constant `false`) never reads
/// the clock.
fn phase_start<S: TraceSink>(sink: &S) -> Option<std::time::Instant> {
    sink.enabled().then(std::time::Instant::now)
}

/// Closes a phase timer: one [`TraceEvent::SpanPhase`] into the sink.
fn phase_end<S: TraceSink>(
    sink: &mut S,
    id: u64,
    phase: &'static str,
    start: Option<std::time::Instant>,
) {
    if let Some(t0) = start {
        sink.record(&TraceEvent::SpanPhase {
            id,
            phase,
            micros: t0.elapsed().as_micros() as u64,
        });
    }
}

/// How a sweep step reports progress back to the supervisor for journaling.
pub trait SweepProgress {
    /// Called after every completed adversary depth with the full state.
    fn checkpoint(&mut self, id: u64, checkpoint: &SweepCheckpoint);
}

/// Progress sink that drops checkpoints (tests, journal-less servers).
pub struct NoProgress;

impl SweepProgress for NoProgress {
    fn checkpoint(&mut self, _id: u64, _checkpoint: &SweepCheckpoint) {}
}

impl<F: FnMut(u64, &SweepCheckpoint)> SweepProgress for F {
    fn checkpoint(&mut self, id: u64, checkpoint: &SweepCheckpoint) {
        self(id, checkpoint)
    }
}

/// Builds the budget a request runs under. `starved` is the drain-deadline
/// degradation mode: one augmentation, enough to certify a `[lo, hi]`
/// bracket from the volume bound and a single probe, never enough to stall
/// the drain.
pub fn request_budget(req: &Request, starved: bool) -> Budget {
    let mut budget = Budget::unlimited();
    if let Some(d) = req.deadline() {
        budget = budget.with_deadline(d);
    }
    if let Some(n) = req.max_augmentations {
        budget = budget.with_augmentations(n);
    }
    if starved {
        budget = budget.with_augmentations(1);
    }
    budget
}

/// Executes one request to a terminal response.
///
/// `checkpoint` carries resumed adversary state after a crash; `starved`
/// marks drain-deadline degradation. Never returns `Overloaded` — admission
/// control happens before execution.
pub fn execute(
    req: &Request,
    checkpoint: Option<SweepCheckpoint>,
    starved: bool,
    progress: &mut dyn SweepProgress,
) -> Response {
    execute_traced(req, checkpoint, starved, progress, NoopSink)
}

/// [`execute`] with span-phase reporting: the solver/prober portion of each
/// request is timed and emitted as [`TraceEvent::SpanPhase`] events (`probe`
/// for solve/probe, `sim` for schedule, `sweep` for adversary), and the
/// sink is threaded into the [`mm_opt::FastProber`] decider's flow probes,
/// so probe counts and the `flow` phase surface too. With a disabled sink this is exactly
/// [`execute`]: no clock reads, no event construction.
pub fn execute_traced<S: TraceSink>(
    req: &Request,
    checkpoint: Option<SweepCheckpoint>,
    starved: bool,
    progress: &mut dyn SweepProgress,
    mut sink: S,
) -> Response {
    let id = req.id;
    let budget = request_budget(req, starved);
    match &req.kind {
        RequestKind::Solve { .. } => {
            let inst = req.instance().expect("solve carries jobs");
            if starved && !inst.is_empty() {
                // Draining: no solver work at all. The volume bound and one
                // machine per job certify the bracket.
                return bracket(
                    id,
                    "drain".into(),
                    inst.volume_lower_bound().max(1),
                    inst.len() as u64,
                );
            }
            let t_probe = phase_start(&sink);
            let mut decider = mm_opt::FastProber::new(&inst);
            let search = decider.optimal_machines_budgeted_traced(&budget, &mut sink);
            phase_end(&mut sink, id, "probe", t_probe);
            match search.exact {
                Some(m) => Response::Ok {
                    id,
                    fields: solve_fields(&mut decider, m, req.want_proof),
                },
                None => bracket(
                    id,
                    degrade_reason(&search.exceeded, starved),
                    search.lo,
                    search.hi,
                ),
            }
        }
        RequestKind::Probe { machines, .. } => {
            let inst = req.instance().expect("probe carries jobs");
            let t_probe = phase_start(&sink);
            // Certifiers first, free of charge; only a flow probe (general
            // instances, the rare certifier gap) runs under the budget.
            let mut decider = mm_opt::FastProber::new(&inst);
            let verdict = decider.decide_budgeted_traced(*machines, &budget, &mut sink);
            phase_end(&mut sink, id, "probe", t_probe);
            match verdict {
                mm_opt::Verdict::Unknown(e) => {
                    // An undecided probe still has a certified bracket.
                    let (lo, hi) = decider.bracket();
                    bracket(id, degrade_reason(&Some(e), starved), lo, hi)
                }
                decided => {
                    let feasible = decided == mm_opt::Verdict::Feasible;
                    let mut fields = vec![("feasible".into(), Json::Bool(feasible))];
                    if req.want_proof {
                        // The infeasible side can decline (a cert whose
                        // volume overflows the wire form); the answer simply
                        // ships proof-less and the coordinator reports
                        // Unverifiable.
                        if let Some(proof) =
                            mm_opt::proof_for_probe_from(&mut decider, *machines, feasible)
                        {
                            fields.push(("proof".into(), proof.to_json()));
                        }
                    }
                    Response::Ok { id, fields }
                }
            }
        }
        RequestKind::Schedule {
            policy, machines, ..
        } => {
            if starved {
                return Response::Degraded {
                    id,
                    reason: "drain".into(),
                    fields: Vec::new(),
                };
            }
            let inst = req.instance().expect("schedule carries jobs");
            let machine_budget = machines.unwrap_or(inst.len()).max(1);
            let t_sim = phase_start(&sink);
            let outcome = match policy.as_str() {
                "edf" => run_policy(&inst, Edf, SimConfig::migratory(machine_budget)),
                "llf" => run_policy(&inst, Llf::new(), SimConfig::migratory(machine_budget)),
                "edf-ff" => run_policy(
                    &inst,
                    EdfFirstFit::new(),
                    SimConfig::nonmigratory(machine_budget),
                ),
                "medium-fit" => run_policy(
                    &inst,
                    MediumFit::new(),
                    SimConfig::nonmigratory(machine_budget),
                ),
                other => {
                    return Response::Error {
                        id,
                        message: format!("unknown policy `{other}`"),
                    }
                }
            };
            phase_end(&mut sink, id, "sim", t_sim);
            match outcome {
                Ok(out) => Response::Ok {
                    id,
                    fields: vec![
                        ("feasible".into(), Json::Bool(out.feasible())),
                        (
                            "machines_used".into(),
                            Json::Int(out.machines_used() as i64),
                        ),
                        ("misses".into(), Json::Int(out.misses.len() as i64)),
                    ],
                },
                Err(e) => Response::Error {
                    id,
                    message: format!("simulation failed: {e}"),
                },
            }
        }
        RequestKind::Online { member, .. } => {
            if starved {
                return Response::Degraded {
                    id,
                    reason: "drain".into(),
                    fields: Vec::new(),
                };
            }
            let inst = req.instance().expect("online carries jobs");
            let picked = if member == "auto" {
                mm_online::Member::auto(&inst)
            } else {
                match mm_online::Member::parse(member) {
                    Some(m) => m,
                    None => {
                        return Response::Error {
                            id,
                            message: format!(
                                "unknown portfolio member `{member}` \
                                 (expected loose, laminar, agreeable, cms, imps, or auto)"
                            ),
                        }
                    }
                }
            };
            let t_probe = phase_start(&sink);
            let (optimum, _) = mm_opt::optimal_machines_fast(&inst);
            phase_end(&mut sink, id, "probe", t_probe);
            let events = mm_online::stream_of_instance(&inst);
            let t_sim = phase_start(&sink);
            let run = mm_online::run_member(picked, "serve", &events, optimum, &mut sink);
            phase_end(&mut sink, id, "sim", t_sim);
            match run {
                Ok(row) => Response::Ok {
                    id,
                    fields: vec![
                        ("member".into(), Json::str(picked.label())),
                        (
                            "machines_opened".into(),
                            Json::Int(row.machines_opened as i64),
                        ),
                        ("optimum".into(), Json::Int(optimum as i64)),
                        ("ratio_millis".into(), Json::Int(row.ratio_millis as i64)),
                        ("misses".into(), Json::Int(row.misses as i64)),
                    ],
                },
                Err(e) => Response::Error {
                    id,
                    message: format!("online replay failed: {e}"),
                },
            }
        }
        RequestKind::Adversary {
            policy,
            k,
            machines,
        } => {
            if starved {
                return Response::Degraded {
                    id,
                    reason: "drain".into(),
                    fields: Vec::new(),
                };
            }
            let t_sweep = phase_start(&sink);
            let response = run_adversary(id, policy, *k, *machines, checkpoint, progress);
            phase_end(&mut sink, id, "sweep", t_sweep);
            response
        }
        RequestKind::Shutdown => Response::Ok {
            id,
            fields: vec![("draining".into(), Json::Bool(true))],
        },
        // Stats and the membership control verbs are answered inline by the
        // supervisor; reaching a worker is a routing bug, answered loudly
        // instead of silently.
        RequestKind::Stats { .. } => Response::Error {
            id,
            message: "stats requests are answered by the supervisor, not a worker".into(),
        },
        RequestKind::Join | RequestKind::Drain | RequestKind::Leave => Response::Error {
            id,
            message: "membership requests are answered by the supervisor, not a worker".into(),
        },
        RequestKind::Verdict { .. } => Response::Error {
            id,
            message: "verdict notices are answered by the supervisor, not a worker".into(),
        },
    }
}

/// The fields of an exact solve answer, with the proof read from the
/// decider that found the optimum when the request asks for one.
fn solve_fields(decider: &mut mm_opt::FastProber, m: u64, want_proof: bool) -> Vec<(String, Json)> {
    let mut fields = vec![("machines".into(), Json::Int(m as i64))];
    if want_proof {
        let proof = mm_opt::proof_for_solve_from(decider, m);
        fields.push(("proof".into(), proof.to_json()));
    }
    fields
}

/// A degraded answer carrying the certified bracket `lo ≤ m(J) ≤ hi`.
fn bracket(id: u64, reason: String, lo: u64, hi: u64) -> Response {
    Response::Degraded {
        id,
        reason,
        fields: vec![
            ("lo".into(), Json::Int(lo as i64)),
            ("hi".into(), Json::Int(hi as i64)),
        ],
    }
}

fn degrade_reason(exceeded: &Option<mm_fault::BudgetExceeded>, starved: bool) -> String {
    if starved {
        return "drain".into();
    }
    match exceeded {
        Some(e) => e.tag().to_owned(),
        None => "budget".into(),
    }
}

/// Runs (or resumes) an adversary sweep to depth `k`, emitting a checkpoint
/// after every completed depth so a crash resumes mid-sweep.
fn run_adversary(
    id: u64,
    policy: &str,
    k: usize,
    machines: usize,
    checkpoint: Option<SweepCheckpoint>,
    progress: &mut dyn SweepProgress,
) -> Response {
    if !(2..=8).contains(&k) {
        return Response::Error {
            id,
            message: format!("adversary depth k={k} out of range 2..=8"),
        };
    }
    let mut state = match checkpoint {
        Some(cp) if cp.policy == policy => {
            let mut cp = cp;
            cp.k_target = cp.k_target.max(k);
            cp
        }
        _ => SweepCheckpoint::new(policy, k),
    };
    while let Some(depth) = state.next_k() {
        let res = match policy {
            "edf-ff" => {
                MigrationGapAdversary::with_sink(EdfFirstFit::new(), machines, NoopSink).run(depth)
            }
            "medium-fit" => {
                MigrationGapAdversary::with_sink(MediumFit::new(), machines, NoopSink).run(depth)
            }
            other => {
                return Response::Error {
                    id,
                    message: format!("unknown adversary policy `{other}`"),
                }
            }
        };
        match res {
            Ok(r) => state.record(CompletedRun::from_result(&r)),
            Err(e) => {
                return Response::Error {
                    id,
                    message: format!("adversary run at k={depth} failed: {e}"),
                }
            }
        }
        progress.checkpoint(id, &state);
    }
    let forced = state
        .completed
        .iter()
        .map(|r| r.machines_forced)
        .max()
        .unwrap_or(0);
    let missed = state.completed.iter().any(|r| r.policy_missed);
    Response::Ok {
        id,
        fields: vec![
            ("machines_forced".into(), Json::Int(forced as i64)),
            ("jobs_released".into(), Json::Int(state.total_jobs() as i64)),
            ("policy_missed".into(), Json::Bool(missed)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, kind: RequestKind) -> Request {
        Request::new(id, kind)
    }

    #[test]
    fn solve_and_probe_agree_with_the_offline_optimum() {
        let jobs = vec![(0, 2, 2), (0, 2, 2), (0, 2, 2)];
        let solve = execute(
            &req(1, RequestKind::Solve { jobs: jobs.clone() }),
            None,
            false,
            &mut NoProgress,
        );
        assert_eq!(solve.to_line(), r#"{"id":1,"status":"ok","machines":3}"#);
        let yes = execute(
            &req(
                2,
                RequestKind::Probe {
                    jobs: jobs.clone(),
                    machines: 3,
                },
            ),
            None,
            false,
            &mut NoProgress,
        );
        assert_eq!(yes.to_line(), r#"{"id":2,"status":"ok","feasible":true}"#);
        let no = execute(
            &req(3, RequestKind::Probe { jobs, machines: 2 }),
            None,
            false,
            &mut NoProgress,
        );
        assert_eq!(no.to_line(), r#"{"id":3,"status":"ok","feasible":false}"#);
    }

    #[test]
    fn starved_solve_degrades_to_a_certified_bracket() {
        let jobs: Vec<_> = (0..12).map(|i| (i, i + 6, 3)).collect();
        let resp = execute(
            &req(4, RequestKind::Solve { jobs: jobs.clone() }),
            None,
            true,
            &mut NoProgress,
        );
        match resp {
            Response::Degraded { reason, fields, .. } => {
                assert_eq!(reason, "drain");
                let lo = fields.iter().find(|(k, _)| k == "lo").unwrap();
                let hi = fields.iter().find(|(k, _)| k == "hi").unwrap();
                let (lo, hi) = (lo.1.as_i64().unwrap(), hi.1.as_i64().unwrap());
                let exact = execute(
                    &req(5, RequestKind::Solve { jobs }),
                    None,
                    false,
                    &mut NoProgress,
                );
                let line = exact.to_line();
                let m: i64 = mm_json::parse(&line)
                    .unwrap()
                    .get("machines")
                    .unwrap()
                    .as_i64()
                    .unwrap();
                assert!(lo <= m && m <= hi, "bracket [{lo}, {hi}] misses m={m}");
            }
            other => panic!("expected degraded, got {other:?}"),
        }
    }

    #[test]
    fn schedule_reports_feasibility_and_machine_count() {
        let resp = execute(
            &req(
                6,
                RequestKind::Schedule {
                    jobs: vec![(0, 3, 2), (0, 3, 2), (5, 9, 3)],
                    policy: "edf-ff".into(),
                    machines: Some(4),
                },
            ),
            None,
            false,
            &mut NoProgress,
        );
        assert_eq!(
            resp.to_line(),
            r#"{"id":6,"status":"ok","feasible":true,"machines_used":2,"misses":0}"#
        );
    }

    #[test]
    fn online_reports_ratio_against_the_offline_optimum() {
        // Three simultaneous tight jobs: optimum 3; `auto` resolves to the
        // agreeable specialist on this agreeable instance.
        let jobs = vec![(0, 2, 2), (0, 2, 2), (0, 2, 2)];
        let resp = execute(
            &req(
                30,
                RequestKind::Online {
                    jobs: jobs.clone(),
                    member: "auto".into(),
                },
            ),
            None,
            false,
            &mut NoProgress,
        );
        match &resp {
            Response::Ok { fields, .. } => {
                let get = |key: &str| {
                    fields
                        .iter()
                        .find(|(k, _)| k == key)
                        .and_then(|(_, v)| v.as_i64())
                };
                assert_eq!(
                    fields.iter().find(|(k, _)| k == "member").unwrap().1,
                    Json::str("agreeable")
                );
                assert_eq!(get("optimum"), Some(3));
                assert_eq!(get("misses"), Some(0));
                let opened = get("machines_opened").unwrap();
                assert_eq!(get("ratio_millis"), Some(opened * 1000 / 3));
            }
            other => panic!("expected ok, got {other:?}"),
        }
        // Byte-identical across reruns, like every other kind.
        let again = execute(
            &req(
                30,
                RequestKind::Online {
                    jobs,
                    member: "auto".into(),
                },
            ),
            None,
            false,
            &mut NoProgress,
        );
        assert_eq!(resp.to_line(), again.to_line());
        let bad = execute(
            &req(
                31,
                RequestKind::Online {
                    jobs: vec![(0, 2, 1)],
                    member: "dance".into(),
                },
            ),
            None,
            false,
            &mut NoProgress,
        );
        assert!(matches!(bad, Response::Error { .. }), "{bad:?}");
    }

    #[test]
    fn adversary_resumes_from_a_checkpoint_without_redoing_depths() {
        // Run the full sweep once, capturing the k=2 checkpoint.
        let mut after_k2 = None;
        let mut grab = |_id: u64, cp: &SweepCheckpoint| {
            if after_k2.is_none() && cp.is_done(2) {
                after_k2 = Some(cp.clone());
            }
        };
        let full = run_adversary(7, "edf-ff", 3, 16, None, &mut grab);
        let cp = after_k2.expect("k=2 checkpoint observed");
        // Resuming from it must produce the identical final response while
        // only re-running the missing depth.
        let mut depths_rerun = Vec::new();
        let mut count = |_id: u64, cp: &SweepCheckpoint| {
            depths_rerun.push(cp.completed.len());
        };
        let resumed = run_adversary(7, "edf-ff", 3, 16, Some(cp), &mut count);
        assert_eq!(full.to_line(), resumed.to_line());
        assert_eq!(depths_rerun.len(), 1, "only k=3 should re-run");
    }

    #[test]
    fn a_large_agreeable_solve_proof_runs_no_flow() {
        use mm_instance::generators::{agreeable, AgreeableCfg};
        // Above PROOF_WITNESS_CAP jobs the feasible side is the seed form,
        // and the flow that refuted m − 1 during the search supplies the
        // certificate: building the proof runs no flow at all.
        let cfg = AgreeableCfg {
            n: mm_opt::PROOF_WITNESS_CAP + 404,
            release_gap: 2,
            min_window: 4,
            max_window: 40,
            unit_processing: None,
        };
        let inst = agreeable(&cfg, 3);
        let mut decider = mm_opt::FastProber::new(&inst);
        let m = decider.optimal_machines();
        assert!(
            decider.flow_witness(m - 1).is_some(),
            "a flow refuted m − 1"
        );
        let flows = decider.flow_stats();
        let fields = solve_fields(&mut decider, m, true);
        assert_eq!(decider.flow_stats(), flows, "building the proof ran a flow");
        let proof = &fields.iter().find(|(k, _)| k == "proof").unwrap().1;
        assert_eq!(
            proof.to_compact(),
            mm_opt::proof_for_solve(&inst, m).to_json().to_compact()
        );
        let proof = mm_opt::Proof::from_json(proof).unwrap();
        assert_eq!(
            mm_opt::verify(&inst, &mm_opt::Claim::Optimal(m), &proof),
            mm_opt::Verification::Verified
        );
    }

    #[test]
    fn execution_is_deterministic_per_request() {
        let r = req(
            8,
            RequestKind::Solve {
                jobs: vec![(0, 4, 2), (1, 5, 3), (2, 6, 2)],
            },
        );
        let a = execute(&r, None, false, &mut NoProgress).to_line();
        let b = execute(&r, None, false, &mut NoProgress).to_line();
        assert_eq!(a, b);
    }
}

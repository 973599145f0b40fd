//! Property tests for the service layer's three load-bearing guarantees:
//!
//! (a) a worker panic never loses *other* queued requests — the supervisor
//!     recycles the worker and everything still gets answered;
//! (b) journal replay after a simulated crash (including torn-tail
//!     truncation) yields byte-identical responses for acked requests;
//! (c) every admitted request gets **exactly one** terminal response, under
//!     arbitrary fault plans and queue pressure.

use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel;
use mm_fault::{FaultPlan, FaultRule, FaultSite, RetryPolicy};
use mm_serve::{DynSink, Replay, Request, RequestKind, Response, ServeConfig, Service};
use mm_trace::NoopSink;
use proptest::prelude::*;

fn sink() -> DynSink {
    DynSink::new(Box::new(NoopSink))
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small deterministic request (cheap solves/probes keyed by the seed).
fn request(id: u64, seed: u64) -> Request {
    let mut state = seed ^ id.rotate_left(13);
    let n = 2 + (splitmix(&mut state) % 5) as usize;
    let jobs: Vec<(i64, i64, i64)> = (0..n)
        .map(|_| {
            let r = (splitmix(&mut state) % 10) as i64;
            let w = 2 + (splitmix(&mut state) % 6) as i64;
            let p = 1 + (splitmix(&mut state) % w as u64) as i64;
            (r, r + w, p)
        })
        .collect();
    let kind = if id % 3 == 2 {
        RequestKind::Probe {
            jobs,
            machines: 1 + id % 3,
        }
    } else {
        RequestKind::Solve { jobs }
    };
    Request::new(id, kind)
}

fn run_batch(cfg: ServeConfig, ids: &[u64], seed: u64) -> (Vec<String>, mm_serve::ServeStats) {
    let service = Service::start(cfg, sink()).unwrap();
    let (tx, rx) = channel::unbounded();
    for &id in ids {
        service.submit_line(&request(id, seed).to_line(), &tx);
    }
    let mut lines = Vec::new();
    for _ in 0..ids.len() {
        lines.push(
            rx.recv_timeout(Duration::from_secs(60))
                .expect("every submitted request must get a response"),
        );
    }
    let stats = service.join();
    (lines, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (a) One poisoned request (panicking on every attempt) is quarantined;
    /// every *other* request still completes successfully, none lost.
    #[test]
    fn worker_panic_never_loses_other_requests(
        seed in any::<u64>(),
        n in 3u64..12,
        poison_hit in 1u64..3,
        workers in 1usize..4,
    ) {
        let plan = FaultPlan {
            seed,
            // Fire on one hit and then every attempt soon after: whichever
            // request draws the poisoned hits keeps panicking.
            rules: vec![FaultRule { site: FaultSite::WorkerPanic, nth: poison_hit, every: Some(1) }],
        };
        let cfg = ServeConfig {
            workers,
            queue_cap: n as usize,
            retry: RetryPolicy::new(1, 2, 2),
            plan,
            ..ServeConfig::default()
        };
        let ids: Vec<u64> = (0..n).collect();
        let (lines, stats) = run_batch(cfg, &ids, seed);
        prop_assert_eq!(lines.len(), n as usize);
        prop_assert!(stats.invariant_holds(), "{:?}", stats);
        // Exactly one response per id, and panics never became silence.
        let mut seen: Vec<u64> = lines
            .iter()
            .map(|l| Response::parse(l).unwrap().id())
            .collect();
        seen.sort();
        prop_assert_eq!(seen, ids);
        prop_assert!(stats.panics >= 1, "plan must fire at least once");
        prop_assert_eq!(stats.restarts, stats.panics);
    }

    /// (b) Crash-replay determinism: after a run with a journal, any
    /// truncation of that journal replays a prefix of the acked responses
    /// byte-identically (torn tails tolerated, interior corruption refused).
    #[test]
    fn journal_replay_is_byte_identical_after_simulated_crash(
        seed in any::<u64>(),
        n in 2u64..8,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "machmin-prop-replay-{}-{}",
            std::process::id(),
            seed
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        std::fs::remove_file(&path).ok();
        let cfg = ServeConfig {
            journal: Some(path.clone()),
            ..ServeConfig::default()
        };
        let ids: Vec<u64> = (0..n).collect();
        let (mut lines, stats) = run_batch(cfg, &ids, seed);
        prop_assert!(stats.invariant_holds());
        lines.sort();
        let journal = std::fs::read(&path).unwrap();
        // Simulated crash: truncate the journal at a spread of byte offsets.
        for cut in (0..=journal.len()).step_by(journal.len().max(8) / 8) {
            let text = String::from_utf8_lossy(&journal[..cut]).into_owned();
            match Replay::from_text(&text) {
                Ok(replay) => {
                    for (_, acked_line) in &replay.acked {
                        prop_assert!(
                            lines.binary_search(acked_line).is_ok(),
                            "replayed ack not byte-identical to a sent response: {}",
                            acked_line
                        );
                    }
                }
                Err(e) => prop_assert!(e.contains("line "), "unlocated error: {}", e),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// (c) Exactly one terminal response per admitted request under
    /// arbitrary fault plans and tight queues; sheds answer `overloaded`
    /// and everything received is accounted for.
    #[test]
    fn every_admitted_request_gets_exactly_one_terminal_response(
        seed in any::<u64>(),
        n in 4u64..16,
        queue_cap in 1usize..6,
        workers in 1usize..3,
        panic_nth in 1u64..8,
        slow_nth in 1u64..8,
    ) {
        let plan = FaultPlan {
            seed,
            rules: vec![
                FaultRule { site: FaultSite::WorkerPanic, nth: panic_nth, every: Some(7) },
                FaultRule { site: FaultSite::MachineSlowdown, nth: slow_nth, every: Some(3) },
            ],
        };
        let cfg = ServeConfig {
            workers,
            queue_cap,
            slowdown_ms: 2,
            retry: RetryPolicy::new(1, 3, 4),
            plan,
            ..ServeConfig::default()
        };
        let service = Service::start(cfg, sink()).unwrap();
        let (tx, rx) = channel::unbounded();
        for id in 0..n {
            service.submit_line(&request(id, seed).to_line(), &tx);
        }
        let mut by_id = std::collections::HashMap::new();
        for _ in 0..n {
            let line = rx
                .recv_timeout(Duration::from_secs(60))
                .expect("every request answered");
            let resp = Response::parse(&line).unwrap();
            *by_id.entry(resp.id()).or_insert(0usize) += 1;
        }
        // No extra (duplicate) responses may trickle in afterwards.
        let extra = rx.recv_timeout(Duration::from_millis(50));
        let stats = service.join();
        prop_assert!(extra.is_err(), "duplicate terminal response: {:?}", extra);
        prop_assert_eq!(by_id.len(), n as usize);
        prop_assert!(by_id.values().all(|&c| c == 1));
        prop_assert_eq!(stats.received, n);
        prop_assert_eq!(stats.admitted + stats.shed + stats.rejected, n);
        prop_assert!(stats.invariant_holds(), "{:?}", stats);
    }
}

/// Deterministic (non-proptest) end-to-end crash test: run half the batch,
/// kill the service mid-journal, restart on the same journal, and check the
/// union of acked-replays and re-runs covers everything exactly once.
#[test]
fn restart_resumes_pending_requests_without_duplicating_acks() {
    let dir = std::env::temp_dir().join(format!("machmin-prop-restart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.jsonl");
    std::fs::remove_file(&path).ok();
    let seed = 42u64;
    // Phase 1: complete requests 0..3 normally.
    let cfg = ServeConfig {
        journal: Some(path.clone()),
        ..ServeConfig::default()
    };
    let (lines, _) = {
        let service = Service::start(cfg.clone(), sink()).unwrap();
        let (tx, rx) = channel::unbounded();
        for id in 0..3u64 {
            service.submit_line(&request(id, seed).to_line(), &tx);
        }
        let lines: Vec<String> = (0..3)
            .map(|_| rx.recv_timeout(Duration::from_secs(60)).unwrap())
            .collect();
        (lines, service.join())
    };
    // Simulated crash mid-flight: append an admission record for request 7
    // that never got a response (as if the process died right after fsync).
    {
        let mut journal = mm_serve::Journal::open(&path).unwrap();
        journal
            .append(&mm_serve::Record::Admitted {
                id: 7,
                line: request(7, seed).to_line(),
            })
            .unwrap();
    }
    // Phase 2: restart. Acked responses replay byte-identically; request 7
    // re-runs to a fresh terminal response.
    let service = Service::start(cfg, sink()).unwrap();
    let replayed: Vec<String> = service
        .recovered_acks()
        .iter()
        .map(|(_, l)| l.clone())
        .collect();
    let rerun = service
        .recovery_responses()
        .recv_timeout(Duration::from_secs(60))
        .unwrap();
    let stats = service.join();
    let mut sent_sorted = lines.clone();
    sent_sorted.sort();
    let mut replayed_sorted = replayed.clone();
    replayed_sorted.sort();
    assert_eq!(sent_sorted, replayed_sorted);
    assert!(rerun.contains("\"id\":7"), "{rerun}");
    assert!(stats.invariant_holds(), "{stats:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite invariant for the observability layer: the `counters_only`
/// stats form is a pure function of the seeded workload. Two identical
/// chaos runs — same seed, same fault plan, one worker so fault-site hits
/// land in submission order — must answer the final stats scrape with
/// byte-identical lines. `counters_only` strips every wall-clock field and
/// zeroes the scrape-cadence counter. The polls themselves are received
/// lines, and how many it takes for the registry to catch up depends on
/// thread timing, so each run checks `received == n + polls` and the
/// compared line counts only the workload's `n`.
#[test]
fn stats_are_byte_identical_across_seeded_chaos_reruns() {
    fn chaos_run(seed: u64, n: u64) -> String {
        let plan = FaultPlan {
            seed,
            rules: vec![
                FaultRule {
                    site: FaultSite::WorkerPanic,
                    nth: 2,
                    every: Some(5),
                },
                FaultRule {
                    site: FaultSite::MachineSlowdown,
                    nth: 1,
                    every: Some(3),
                },
            ],
        };
        let cfg = ServeConfig {
            workers: 1,
            queue_cap: n as usize,
            slowdown_ms: 1,
            retry: RetryPolicy::new(1, 2, 3),
            plan,
            ..ServeConfig::default()
        };
        let service = Service::start(cfg, sink()).unwrap();
        let (tx, rx) = channel::unbounded();
        for id in 0..n {
            service.submit_line(&request(id, seed).to_line(), &tx);
        }
        for _ in 0..n {
            rx.recv_timeout(Duration::from_secs(60))
                .expect("every request answered");
        }
        // Per-kind response counters are flushed by the supervisor after the
        // reply is sent, so poll until the scrape accounts for all `n`
        // responses before freezing the line to compare.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut polls = 0u64;
        loop {
            polls += 1;
            let stats_req = Request::new(
                1_000_000,
                RequestKind::Stats {
                    prometheus: false,
                    counters_only: true,
                },
            );
            service.submit_line(&stats_req.to_line(), &tx);
            let line = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            let json = mm_json::parse(&line).unwrap();
            let accounted: i64 = json
                .get("registry")
                .and_then(|r| r.get("counters"))
                .and_then(|c| c.as_obj())
                .map(|members| {
                    members
                        .iter()
                        .filter(|(k, _)| k.starts_with("responses."))
                        .filter_map(|(_, v)| v.as_i64())
                        .sum()
                })
                .unwrap_or(0);
            if accounted == n as i64 || std::time::Instant::now() > deadline {
                service.join();
                // `received` shows twice: in `counters` and in the registry.
                let received = (
                    json.get("counters").and_then(|c| c.get("received")),
                    json.get("registry")
                        .and_then(|r| r.get("counters"))
                        .and_then(|c| c.get("serve.received")),
                );
                let expected = mm_json::Json::Int((n + polls) as i64);
                assert_eq!(received, (Some(&expected), Some(&expected)), "{line}");
                let mut line = line;
                for key in ["\"received\":", "\"serve.received\":"] {
                    let polled = format!("{key}{}", n + polls);
                    assert_eq!(line.matches(&polled).count(), 1, "{polled} in {line}");
                    line = line.replace(&polled, &format!("{key}{n}"));
                }
                return line;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    for seed in [3u64, 1977, 0xDEAD_BEEF] {
        let a = chaos_run(seed, 10);
        let b = chaos_run(seed, 10);
        assert_eq!(a, b, "stats diverged for seed {seed}");
        assert!(a.contains("\"serve.panics\""), "{a}");
    }
}

/// The arrival-driven replay source and the TCP front end compose: a paced
/// load run over a real socket loses nothing and drains cleanly.
#[test]
fn paced_load_over_tcp_drains_cleanly() {
    let service = Arc::new(Service::start(ServeConfig::default(), sink()).unwrap());
    let (listener, addr) = mm_serve::tcp::bind("127.0.0.1:0").unwrap();
    let acceptor = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || mm_serve::tcp::serve(listener, service))
    };
    let report = mm_serve::run_load(
        &addr,
        &mm_serve::LoadConfig {
            n: 16,
            seed: 5,
            paced: true,
            shutdown: true,
            ..mm_serve::LoadConfig::default()
        },
    )
    .unwrap();
    acceptor.join().unwrap().unwrap();
    service.wait_stopped();
    let stats = service.stats();
    assert_eq!(report.lost, 0);
    assert!(stats.invariant_holds(), "{stats:?}");
    assert_eq!(stats.admitted + stats.shed, report.sent as u64, "{stats:?}");
}

/// Proof-carrying answers obey the same crash contract as plain ones: the
/// journal replays them byte-identically — proof bytes included — and a
/// corrupted (Byzantine) answer replays as the same lie instead of being
/// silently healed or re-corrupted on restart.
#[test]
fn proof_carrying_responses_and_lies_replay_byte_identically() {
    let dir = std::env::temp_dir().join(format!("machmin-proof-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.jsonl");
    std::fs::remove_file(&path).ok();
    let seed = 77u64;
    let proof_request = |id: u64| Request {
        want_proof: true,
        idempotency_key: Some(1_000 + id),
        ..request(id, seed)
    };
    // Phase 1: one worker (deterministic encode order) with a plan that
    // corrupts exactly the first eligible answer.
    let cfg = ServeConfig {
        workers: 1,
        journal: Some(path.clone()),
        plan: FaultPlan::once(FaultSite::AnswerCorruption, 1),
        ..ServeConfig::default()
    };
    let (lines, stats) = {
        let service = Service::start(cfg, sink()).unwrap();
        let (tx, rx) = channel::unbounded();
        for id in 0..6u64 {
            service.submit_line(&proof_request(id).to_line(), &tx);
        }
        let lines: Vec<String> = (0..6)
            .map(|_| rx.recv_timeout(Duration::from_secs(60)).unwrap())
            .collect();
        (lines, service.join())
    };
    assert_eq!(stats.corrupted, 1, "the once-plan lies exactly once");
    assert!(
        stats.proofs_attached >= stats.corrupted,
        "corrupted answers still carry their (doctored) proof"
    );
    let attached = lines.iter().filter(|l| l.contains("\"proof\"")).count() as u64;
    assert_eq!(attached, stats.proofs_attached);
    // Phase 2: restart on the same journal, fault plan gone. Every acked
    // line replays byte-for-byte — the lie survives restarts, which is
    // exactly why the coordinator must catch it, not the journal.
    let service = Service::start(
        ServeConfig {
            workers: 1,
            journal: Some(path),
            ..ServeConfig::default()
        },
        sink(),
    )
    .unwrap();
    let mut replayed: Vec<String> = service
        .recovered_acks()
        .iter()
        .map(|(_, l)| l.clone())
        .collect();
    // Replayed acks also refill the idempotency cache: re-asking with the
    // original key re-serves the identical bytes without re-execution.
    let (tx, rx) = channel::unbounded();
    service.submit_line(&proof_request(3).to_line(), &tx);
    let cached = rx.recv_timeout(Duration::from_secs(60)).unwrap();
    let restats = service.join();
    let mut sent = lines.clone();
    sent.sort();
    replayed.sort();
    assert_eq!(sent, replayed, "proof bytes survive replay unchanged");
    assert!(lines.contains(&cached), "cache re-serves replayed bytes");
    assert_eq!(restats.deduped, 1);
    assert_eq!(restats.corrupted, 0, "replay re-serves, never re-corrupts");
    std::fs::remove_dir_all(&dir).ok();
}

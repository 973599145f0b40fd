//! Crash-point contract for the write-ahead journal.
//!
//! A seeded run pushes mixed requests through a journaled [`Service`] from
//! two threads. Every record-boundary prefix of its journal, and every
//! prefix followed by half of the next record (an append a crash cut
//! short), is a state a crash can leave behind. A fresh service started on
//! a copy of each must:
//!
//! (a) replay exactly the prefix's acked records, byte-equal to what the
//!     client got;
//! (b) answer each request admitted but not acked in the prefix exactly
//!     once on `recovery_responses()`, with the bytes the client got
//!     (responses are pure functions of the request);
//! (c) answer a request that reuses an acked idempotency key with the
//!     journaled bytes;
//! (d) leave a journal, once drained, that acks every admitted id once.

use std::collections::HashMap;
use std::path::Path;
use std::time::Duration;

use crossbeam::channel;
use mm_json::Json;
use mm_serve::{mixed_requests, DynSink, Replay, Request, Response, ServeConfig, Service};
use mm_trace::NoopSink;

const REQUESTS: usize = 40;
const WAIT: Duration = Duration::from_secs(60);

fn sink() -> DynSink {
    DynSink::new(Box::new(NoopSink))
}

fn config(path: &Path) -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_cap: REQUESTS,
        journal: Some(path.to_path_buf()),
        ..ServeConfig::default()
    }
}

fn response_id(line: &str) -> u64 {
    Response::parse(line).expect("response parses").id()
}

/// The seeded requests: every third carries an idempotency key, every
/// fourth asks for a proof.
fn requests() -> Vec<Request> {
    mixed_requests(29, REQUESTS, None)
        .into_iter()
        .map(|mut req| {
            if req.id % 3 == 0 {
                req.idempotency_key = Some(0xC0DE_0000 + req.id);
            }
            req.want_proof = req.id % 4 == 1;
            req
        })
        .collect()
}

/// One journal record, as the test reads it independently of `Replay`.
enum Rec {
    Admitted(u64),
    Acked(u64, String),
    Other,
}

fn parse_record(raw: &[u8]) -> Rec {
    let json = mm_json::parse(std::str::from_utf8(raw).unwrap()).expect("whole record parses");
    let id = || json.get("id").and_then(Json::as_i64).unwrap() as u64;
    match json.get("rec").and_then(Json::as_str) {
        Some("admitted") => Rec::Admitted(id()),
        Some("acked") => {
            let line = json.get("line").and_then(Json::as_str).unwrap();
            Rec::Acked(id(), line.to_string())
        }
        _ => Rec::Other,
    }
}

struct Run {
    /// Request lines by id, as submitted.
    lines: HashMap<u64, String>,
    /// Response lines by id, as the client got them.
    got: HashMap<u64, String>,
    /// Idempotency key by id, for the keyed requests.
    keys: HashMap<u64, u64>,
    journal: Vec<u8>,
}

fn seeded_run(dir: &Path) -> Run {
    let path = dir.join("journal.jsonl");
    let reqs = requests();
    let lines: HashMap<u64, String> = reqs.iter().map(|r| (r.id, r.to_line())).collect();
    let keys = reqs
        .iter()
        .filter_map(|r| r.idempotency_key.map(|k| (r.id, k)))
        .collect();
    let service = Service::start(config(&path), sink()).unwrap();
    let mut got = HashMap::new();
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..2u64)
            .map(|t| {
                let (service, reqs) = (&service, &reqs);
                scope.spawn(move || {
                    let (tx, rx) = channel::unbounded();
                    let mine: Vec<&Request> = reqs.iter().filter(|r| r.id % 2 == t).collect();
                    for req in &mine {
                        service.submit_line(&req.to_line(), &tx);
                    }
                    (0..mine.len())
                        .map(|_| {
                            let line = rx.recv_timeout(WAIT).expect("every request answered");
                            (response_id(&line), line)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for client in clients {
            got.extend(client.join().unwrap());
        }
    });
    let stats = service.join();
    assert_eq!(stats.admitted as usize, REQUESTS, "{stats:?}");
    assert_eq!(got.len(), REQUESTS);
    for line in got.values() {
        assert!(line.contains("\"status\":\"ok\""), "{line}");
    }
    Run {
        lines,
        got,
        keys,
        journal: std::fs::read(&path).unwrap(),
    }
}

/// Starts a fresh service on `records` followed by `torn` and checks
/// (a)–(d) against the complete records.
fn check_restart(run: &Run, path: &Path, records: &[&[u8]], torn: &[u8]) {
    let mut admitted = Vec::new();
    let mut acked = Vec::new();
    for raw in records {
        match parse_record(raw) {
            Rec::Admitted(id) => admitted.push(id),
            Rec::Acked(id, line) => acked.push((id, line)),
            Rec::Other => {}
        }
    }
    let mut bytes: Vec<u8> = records.concat();
    bytes.extend_from_slice(torn);
    std::fs::write(path, &bytes).unwrap();
    let case = format!("{} records + {} torn bytes", records.len(), torn.len());

    let service = Service::start(config(path), sink()).unwrap();
    // (a) the prefix's acks, byte-equal to what the client got.
    assert_eq!(service.recovered_acks(), acked.as_slice(), "{case}");
    for (id, line) in &acked {
        assert_eq!(line, &run.got[id], "{case}: ack of {id}");
    }
    // (b) every admitted-but-unacked request answered once, same bytes.
    let mut pending: Vec<u64> = admitted
        .iter()
        .copied()
        .filter(|id| !acked.iter().any(|(a, _)| a == id))
        .collect();
    let mut rerun = Vec::new();
    for _ in 0..pending.len() {
        let line = service
            .recovery_responses()
            .recv_timeout(WAIT)
            .unwrap_or_else(|e| panic!("{case}: recovery stalled: {e:?}"));
        let id = response_id(&line);
        assert_eq!(line, run.got[&id], "{case}: rerun of {id}");
        rerun.push(id);
    }
    pending.sort_unstable();
    rerun.sort_unstable();
    assert_eq!(rerun, pending, "{case}");
    // (c) a duplicate of an acked keyed request re-serves the journaled
    // bytes without running it again.
    let (tx, rx) = channel::unbounded();
    let mut duplicates = 0;
    for (id, line) in &acked {
        if run.keys.contains_key(id) {
            service.submit_line(&run.lines[id], &tx);
            assert_eq!(&rx.recv_timeout(WAIT).unwrap(), line, "{case}: dup of {id}");
            duplicates += 1;
        }
    }
    let stats = service.join();
    assert_eq!(stats.deduped, duplicates, "{case}");
    assert_eq!(stats.admitted as usize, pending.len(), "{case}");
    // Every rerun answered on the recovery channel, so `admitted ==
    // responses` means none was answered twice.
    assert!(stats.invariant_holds(), "{case}: {stats:?}");
    // (d) the drained journal acks every admitted id exactly once.
    let replay = Replay::load(path).unwrap_or_else(|e| panic!("{case}: {e}"));
    assert!(replay.pending.is_empty(), "{case}: {:?}", replay.pending);
    let mut acked_ids: Vec<u64> = replay.acked.iter().map(|(id, _)| *id).collect();
    acked_ids.sort_unstable();
    admitted.sort_unstable();
    assert_eq!(acked_ids, admitted, "{case}");
}

#[test]
fn every_journal_prefix_restarts_to_the_same_answers() {
    let dir = std::env::temp_dir().join(format!("machmin-crash-points-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = seeded_run(&dir);
    let records: Vec<&[u8]> = run.journal.split_inclusive(|&b| b == b'\n').collect();
    assert_eq!(records.len(), 2 * REQUESTS + 1, "admitted, acked, stats");
    let copy = dir.join("copy.jsonl");
    for k in 0..=records.len() {
        check_restart(&run, &copy, &records[..k], &[]);
        if let Some(next) = records.get(k) {
            check_restart(&run, &copy, &records[..k], &next[..next.len() / 2]);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

//! Load generation and replay clients for `machmin serve`.
//!
//! Two modes:
//!
//! * **closed-loop** — at most `window` requests outstanding; the next
//!   request is sent when a response arrives. With `window ≤ queue_cap`
//!   nothing is ever shed, so the response transcript is a pure function of
//!   the seed — the soak harness diffs two runs byte-for-byte. When the
//!   server *does* shed (`overloaded`), the client honors the response's
//!   `retry_after_ms`: it backs off (scaled by the attempt number), re-sends
//!   the identical request, and counts the retry in the report. Only after
//!   [`MAX_OVERLOAD_RETRIES`] consecutive sheds does the overload line
//!   become the terminal answer.
//! * **paced** — arrival-driven replay: a generated instance is fed through
//!   [`mm_sim::ArrivalSource`] and each release group becomes a request at
//!   its wall-clock offset, deadline pressure and sheds included.
//!
//! The report separates the deterministic transcript (response lines sorted
//! by request id) from the measured latencies (quantiles, for `machmin
//! bench`), so determinism checks and performance numbers don't pollute
//! each other.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use mm_instance::Instance;
use mm_sim::ArrivalSource;

use crate::protocol::{Request, RequestKind, Response};

/// Load-run configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Requests to send.
    pub n: usize,
    /// Seed for the request mix (and recorded in the transcript header).
    pub seed: u64,
    /// Paced (arrival-driven) instead of closed-loop.
    pub paced: bool,
    /// Max outstanding requests in closed-loop mode.
    pub window: usize,
    /// Per-request deadline to attach, if any.
    pub deadline_ms: Option<u64>,
    /// Send a `shutdown` request after the last response (drains the server).
    pub shutdown: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            n: 100,
            seed: 0,
            paced: false,
            window: 8,
            deadline_ms: None,
            shutdown: false,
        }
    }
}

/// How many times one request is re-sent after `overloaded` responses
/// before the overload line is accepted as its terminal answer.
pub const MAX_OVERLOAD_RETRIES: u32 = 8;

/// Outcome of a load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Response lines, sorted by request id — the determinism artifact.
    pub transcript: Vec<String>,
    /// Requests sent (excluding the shutdown request).
    pub sent: usize,
    /// Requests that never received a response (must be 0).
    pub lost: usize,
    /// Requests re-sent after an `overloaded` response (closed-loop mode
    /// honors the server's `retry_after_ms` backoff hint).
    pub retried: usize,
    /// Responses by status tag.
    pub by_status: Vec<(String, usize)>,
    /// Median response latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile response latency in milliseconds.
    pub p99_ms: f64,
    /// 99.9th-percentile response latency in milliseconds.
    pub p999_ms: f64,
    /// Latency histogram in microseconds — same bucket scheme as the
    /// server's `stats` endpoint, so client- and server-side observations
    /// merge. Exported by `machmin load --hist`.
    pub hist: mm_obs::Histogram,
    /// Server-side count of answered requests that carried a `migration`
    /// marker — nonzero only when a cluster coordinator moved work onto
    /// this backend. Migrated copies answer with byte-identical lines, so
    /// this end-of-run stats scrape is the only place migration shows up;
    /// soaks assert on it to prove migration actually happened.
    pub migrated_served: u64,
}

impl LoadReport {
    /// Count of responses with the given status.
    pub fn count(&self, status: &str) -> usize {
        self.by_status
            .iter()
            .find(|(s, _)| s == status)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn gen_jobs(state: &mut u64, count: usize) -> Vec<(i64, i64, i64)> {
    (0..count)
        .map(|_| {
            let r = (splitmix(state) % 40) as i64;
            let w = 2 + (splitmix(state) % 10) as i64;
            let p = 1 + (splitmix(state) % w as u64) as i64;
            (r, r + w, p)
        })
        .collect()
}

/// The deterministic mixed request stream: mostly solves and probes, some
/// schedules, a rare (cheap) adversary sweep. Pure function of `(seed, n)`.
pub fn mixed_requests(seed: u64, n: usize, deadline_ms: Option<u64>) -> Vec<Request> {
    let mut state = seed ^ 0xD6E8_FEB8_6659_FD93;
    (0..n as u64)
        .map(|id| {
            let kind = match id % 10 {
                9 if id % 100 == 99 => RequestKind::Adversary {
                    policy: "edf-ff".into(),
                    k: 2,
                    machines: 8,
                },
                0..=4 => RequestKind::Solve {
                    jobs: gen_jobs(&mut state, 6 + (id % 7) as usize),
                },
                5..=7 => {
                    let jobs = gen_jobs(&mut state, 6 + (id % 5) as usize);
                    let machines = 1 + splitmix(&mut state) % 4;
                    RequestKind::Probe { jobs, machines }
                }
                _ => RequestKind::Schedule {
                    jobs: gen_jobs(&mut state, 5 + (id % 4) as usize),
                    policy: "edf-ff".into(),
                    machines: None,
                },
            };
            Request {
                deadline_ms,
                ..Request::new(id, kind)
            }
        })
        .collect()
}

/// Runs a load session against a running server and collects the report.
pub fn run_load(addr: &str, cfg: &LoadConfig) -> std::io::Result<LoadReport> {
    let requests = mixed_requests(cfg.seed, cfg.n, cfg.deadline_ms);
    let stream = TcpStream::connect(addr)?;
    // Each request leaves as it is flushed instead of waiting behind an
    // unacknowledged one (Nagle's algorithm), like the coordinator's
    // backend connections.
    stream.set_nodelay(true)?;
    let mut writer = BufWriter::new(stream.try_clone()?);
    let mut reader = BufReader::new(stream);
    let mut responses: HashMap<u64, String> = HashMap::new();
    let mut latencies: Vec<f64> = Vec::new();
    let mut started: HashMap<u64, Instant> = HashMap::new();
    let mut retried = 0usize;

    let send = |writer: &mut BufWriter<TcpStream>,
                started: &mut HashMap<u64, Instant>,
                req: &Request|
     -> std::io::Result<()> {
        started.insert(req.id, Instant::now());
        writer.write_all(req.to_line().as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()
    };
    let recv = |reader: &mut BufReader<TcpStream>,
                responses: &mut HashMap<u64, String>,
                started: &mut HashMap<u64, Instant>,
                latencies: &mut Vec<f64>|
     -> std::io::Result<bool> {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Ok(false);
        }
        let line = line.trim().to_string();
        if let Ok(resp) = Response::parse(&line) {
            if let Some(t0) = started.remove(&resp.id()) {
                latencies.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            responses.insert(resp.id(), line);
        }
        Ok(true)
    };

    if cfg.paced {
        // Arrival-driven replay: derive the pacing from the very jobs the
        // requests carry, through the exact simulator's arrival source.
        let pool = mixed_requests(cfg.seed ^ 1, cfg.n.max(1), None);
        let pacing_jobs: Vec<(i64, i64, i64)> = pool
            .iter()
            .filter_map(|r| match &r.kind {
                RequestKind::Solve { jobs } => jobs.first().copied(),
                _ => None,
            })
            .collect();
        let inst = Instance::from_ints(pacing_jobs.iter().copied().take(cfg.n.max(1)));
        let source = ArrivalSource::new(&inst, Duration::from_millis(3));
        let offsets: Vec<Duration> = source.arrivals().iter().map(|a| a.offset).collect();
        let t0 = Instant::now();
        for (i, req) in requests.iter().enumerate() {
            let due = offsets
                .get(i % offsets.len().max(1))
                .copied()
                .unwrap_or_default();
            if let Some(wait) = due.checked_sub(t0.elapsed()) {
                std::thread::sleep(wait);
            }
            send(&mut writer, &mut started, req)?;
        }
        while responses.len() < requests.len()
            && recv(&mut reader, &mut responses, &mut started, &mut latencies)?
        {}
    } else {
        // Closed-loop with overload backoff: a shed request is re-sent after
        // the server's own `retry_after_ms` hint (scaled by the attempt
        // number, so consecutive sheds back off progressively) instead of
        // recording the overload as its final answer.
        let window = cfg.window.max(1);
        let mut next = 0usize;
        let mut outstanding = 0usize;
        let mut retry_at: Vec<(Instant, u64)> = Vec::new();
        let mut attempts: HashMap<u64, u32> = HashMap::new();
        while responses.len() < requests.len() {
            let now = Instant::now();
            let mut i = 0;
            while i < retry_at.len() {
                if retry_at[i].0 <= now && outstanding < window {
                    let (_, id) = retry_at.swap_remove(i);
                    send(&mut writer, &mut started, &requests[id as usize])?;
                    outstanding += 1;
                } else {
                    i += 1;
                }
            }
            while next < requests.len() && outstanding < window {
                send(&mut writer, &mut started, &requests[next])?;
                next += 1;
                outstanding += 1;
            }
            if outstanding == 0 {
                // Everything unanswered is waiting out a backoff; sleep to
                // the earliest due time instead of blocking on the socket.
                let Some(due) = retry_at.iter().map(|(t, _)| *t).min() else {
                    break;
                };
                let wait = due.saturating_duration_since(Instant::now());
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                continue;
            }
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                break;
            }
            let line = line.trim().to_string();
            let Ok(resp) = Response::parse(&line) else {
                // The garbage line still answered (and consumed) a window
                // slot; free it, or enough of them would stall the loop.
                outstanding = outstanding.saturating_sub(1);
                continue;
            };
            let id = resp.id();
            outstanding = outstanding.saturating_sub(1);
            if let Response::Overloaded { retry_after_ms, .. } = &resp {
                let tries = attempts.entry(id).or_insert(0);
                if *tries < MAX_OVERLOAD_RETRIES && (id as usize) < requests.len() {
                    *tries += 1;
                    retried += 1;
                    let backoff = (*retry_after_ms).max(1) * u64::from(*tries);
                    retry_at.push((Instant::now() + Duration::from_millis(backoff), id));
                    started.remove(&id);
                    continue;
                }
            }
            if let Some(t0) = started.remove(&id) {
                latencies.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            responses.insert(id, line);
        }
    }

    // One stats scrape before shutdown: migrated copies answer with
    // byte-identical lines, so the server's `migrated_served` counter is the
    // only footprint migration leaves. Scrape failures (e.g. a server that
    // already hung up) degrade to 0 rather than failing the run, and the
    // probe bypasses the latency bookkeeping so quantiles stay untouched.
    let mut scrape_migrated = || -> std::io::Result<u64> {
        let probe = Request::new(
            (u64::MAX >> 1) - 1,
            RequestKind::Stats {
                prometheus: false,
                counters_only: true,
            },
        );
        writer.write_all(probe.to_line().as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Ok(0);
        }
        Ok(mm_json::parse(line.trim())
            .ok()
            .and_then(|j| {
                j.get("counters")
                    .and_then(|c| c.get("migrated_served"))
                    .and_then(mm_json::Json::as_i64)
            })
            .unwrap_or(0)
            .max(0) as u64)
    };
    let migrated_served = scrape_migrated().unwrap_or(0);

    if cfg.shutdown {
        let bye = Request::new(u64::MAX >> 1, RequestKind::Shutdown);
        send(&mut writer, &mut started, &bye)?;
        let _ = recv(&mut reader, &mut responses, &mut started, &mut latencies);
        responses.remove(&bye.id);
    }

    let mut transcript: Vec<(u64, String)> = responses.into_iter().collect();
    transcript.sort_by_key(|(id, _)| *id);
    let lost = requests
        .iter()
        .filter(|r| !transcript.iter().any(|(id, _)| *id == r.id))
        .count();
    let mut by_status: HashMap<String, usize> = HashMap::new();
    for (_, line) in &transcript {
        if let Ok(resp) = Response::parse(line) {
            *by_status.entry(resp.status().to_string()).or_default() += 1;
        }
    }
    let mut by_status: Vec<(String, usize)> = by_status.into_iter().collect();
    by_status.sort();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    // Nearest-rank (ceil) quantiles, the same convention the histogram's
    // `quantile` uses — the exact and bucketed numbers stay comparable.
    let quantile = |q: f64| -> f64 {
        match mm_obs::quantile_index(latencies.len(), q) {
            Some(idx) => latencies[idx],
            None => 0.0,
        }
    };
    let mut hist = mm_obs::Histogram::new();
    for &ms in &latencies {
        hist.record((ms * 1e3).round() as u64);
    }
    Ok(LoadReport {
        transcript: transcript.into_iter().map(|(_, line)| line).collect(),
        sent: requests.len(),
        lost,
        retried,
        by_status,
        p50_ms: quantile(0.5),
        p99_ms: quantile(0.99),
        p999_ms: quantile(0.999),
        hist,
        migrated_served,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::{DynSink, ServeConfig, Service};
    use mm_fault::{FaultPlan, FaultRule, FaultSite, RetryPolicy};
    use mm_trace::NoopSink;
    use std::sync::Arc;

    #[test]
    fn mixed_requests_are_deterministic_and_valid() {
        let a = mixed_requests(7, 50, Some(1_000));
        let b = mixed_requests(7, 50, Some(1_000));
        assert_eq!(a, b);
        for req in &a {
            let line = req.to_line();
            assert_eq!(Request::parse(&line).unwrap(), *req);
        }
        assert!(a
            .iter()
            .any(|r| matches!(r.kind, RequestKind::Probe { .. })));
        assert!(a
            .iter()
            .any(|r| matches!(r.kind, RequestKind::Schedule { .. })));
    }

    #[test]
    fn closed_loop_transcripts_are_reproducible_under_panics() {
        // A server with injected worker panics: retries mask the faults, so
        // two same-seed runs produce byte-identical transcripts.
        let run = || {
            let plan = FaultPlan {
                seed: 0,
                rules: vec![FaultRule {
                    site: FaultSite::WorkerPanic,
                    nth: 3,
                    every: Some(5),
                }],
            };
            let cfg = ServeConfig {
                workers: 2,
                queue_cap: 8,
                retry: RetryPolicy::new(1, 4, 5),
                plan,
                ..ServeConfig::default()
            };
            let service = Arc::new(Service::start(cfg, DynSink::new(Box::new(NoopSink))).unwrap());
            let (listener, addr) = crate::tcp::bind("127.0.0.1:0").unwrap();
            let acceptor = {
                let service = Arc::clone(&service);
                std::thread::spawn(move || crate::tcp::serve(listener, service))
            };
            let report = run_load(
                &addr,
                &LoadConfig {
                    n: 24,
                    seed: 11,
                    window: 4,
                    shutdown: true,
                    ..LoadConfig::default()
                },
            )
            .unwrap();
            acceptor.join().unwrap().unwrap();
            service.wait_stopped();
            let stats = service.stats();
            assert_eq!(report.lost, 0, "no admitted request may vanish");
            assert!(stats.invariant_holds(), "{stats:?}");
            (report.transcript, stats.panics)
        };
        let (t1, panics1) = run();
        let (t2, _) = run();
        assert!(panics1 > 0, "the fault plan must actually fire");
        assert_eq!(t1, t2, "same-seed transcripts must be byte-identical");
    }

    #[test]
    fn overloaded_responses_are_retried_after_backoff() {
        // A tiny queue behind a wide window forces sheds; the client must
        // honor `retry_after_ms` and re-send until every request lands.
        let cfg = ServeConfig {
            workers: 1,
            queue_cap: 2,
            retry: RetryPolicy::new(1, 2, 4),
            ..ServeConfig::default()
        };
        let service = Arc::new(Service::start(cfg, DynSink::new(Box::new(NoopSink))).unwrap());
        let (listener, addr) = crate::tcp::bind("127.0.0.1:0").unwrap();
        let acceptor = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || crate::tcp::serve(listener, service))
        };
        let report = run_load(
            &addr,
            &LoadConfig {
                n: 16,
                seed: 3,
                window: 8,
                shutdown: true,
                ..LoadConfig::default()
            },
        )
        .unwrap();
        acceptor.join().unwrap().unwrap();
        service.wait_stopped();
        assert!(report.retried > 0, "the tiny queue must shed at least once");
        assert_eq!(report.lost, 0, "every shed request must be re-sent home");
        assert_eq!(
            report.count("overloaded"),
            0,
            "no overload line may survive as a terminal answer: {:?}",
            report.by_status
        );
    }
}

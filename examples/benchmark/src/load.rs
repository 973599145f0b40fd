//! Load generators: an open loop over two connections (seeded Poisson
//! arrivals, latency timed from each request's scheduled send), closed loops
//! with a fixed number of requests outstanding per connection, and the
//! verified pool. The
//! open and closed loops can also push the same requests straight into
//! `Service::submit_line`, with no socket, to split the TCP front end off.
//!
//! Request ids carry their template in the low 16 bits, so a response names
//! the template it must match.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_short, c_ulong};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, Sender};
use mm_cluster::{BalancePolicy, ClusterConfig, Coordinator, HedgeConfig, VerifyPolicy};
use mm_serve::protocol::Request;
use mm_serve::Service;
use mm_trace::{TraceEvent, TraceSink};

use crate::check::{split_id, Checker, Outcome, Template};
use crate::stack::connect;
use crate::stats::{ms, us, Rng};

const TEMPLATE_BITS: u32 = 16;

fn request_id(seq: u64, template: usize) -> u64 {
    (seq << TEMPLATE_BITS) | template as u64
}

fn template_of(id: u64) -> usize {
    (id & ((1 << TEMPLATE_BITS) - 1)) as usize
}

fn wire_line(id: u64, template: &Template) -> String {
    format!("{{\"id\":{id}{}\n", template.rest)
}

/// What one load phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub sent: u64,
    /// Latencies of the right-status answers, milliseconds.
    pub ok_ms: Vec<f64>,
    pub shed: u64,
    /// Degraded, error, and quarantined answers.
    pub failed: u64,
    /// Requests never answered.
    pub lost: u64,
    /// How late the generator sent each request, milliseconds.
    pub gen_lag_ms: Vec<f64>,
    /// `submit_line` call durations (in-process pushes only), microseconds.
    pub admit_us: Vec<f64>,
    /// Closed loops: right-status answers per second.
    pub goodput: f64,
}

impl Phase {
    fn tally(&mut self, outcome: Outcome, latency_ms: f64) {
        match outcome {
            Outcome::Ok => self.ok_ms.push(latency_ms),
            Outcome::Shed => self.shed += 1,
            Outcome::Failed => self.failed += 1,
        }
    }
}

/// Where requests go: the sockets of a TCP front end, or the service itself.
enum Outlet {
    Tcp(Vec<TcpStream>),
    Local(Arc<Service>, Sender<String>),
}

struct Inbox {
    answers: Mutex<Vec<(u64, Instant, Outcome)>>,
    count: AtomicU64,
    stop: AtomicBool,
}

/// The open-loop client: the calling thread sends on schedule, one receiver
/// thread takes every answer.
pub struct OpenLoop<'a> {
    templates: &'a [Template],
    outlet: Outlet,
    inbox: Arc<Inbox>,
    receiver: Option<JoinHandle<Checker>>,
    seq: u64,
    next_template: usize,
}

impl<'a> OpenLoop<'a> {
    /// Two TCP connections to `addr`; requests alternate between them.
    pub fn tcp(addr: &str, templates: &'a [Template]) -> Result<OpenLoop<'a>, String> {
        let mut writers = Vec::new();
        let mut readers = Vec::new();
        for _ in 0..2 {
            let stream = connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            stream
                .set_nonblocking(true)
                .map_err(|e| format!("nonblocking socket: {e}"))?;
            readers.push(stream.try_clone().map_err(|e| e.to_string())?);
            writers.push(stream);
        }
        let inbox = Arc::new(Inbox {
            answers: Mutex::new(Vec::new()),
            count: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let receiver = {
            let inbox = Arc::clone(&inbox);
            let n = templates.len();
            std::thread::spawn(move || receive_tcp(readers, n, &inbox))
        };
        Ok(OpenLoop {
            templates,
            outlet: Outlet::Tcp(writers),
            inbox,
            receiver: Some(receiver),
            seq: 0,
            next_template: 0,
        })
    }

    /// The same client, submitting straight into `service`.
    pub fn local(service: Arc<Service>, templates: &'a [Template]) -> OpenLoop<'a> {
        let (tx, rx) = channel::unbounded::<String>();
        let inbox = Arc::new(Inbox {
            answers: Mutex::new(Vec::new()),
            count: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let receiver = {
            let inbox = Arc::clone(&inbox);
            let n = templates.len();
            std::thread::spawn(move || receive_local(rx, n, &inbox))
        };
        OpenLoop {
            templates,
            outlet: Outlet::Local(service, tx),
            inbox,
            receiver: Some(receiver),
            seq: 0,
            next_template: 0,
        }
    }

    /// Sends Poisson arrivals at `rate` per second for `length`, then waits
    /// for the answers (up to ten seconds past the phase's end).
    pub fn phase(&mut self, rng: &mut Rng, rate: f64, length: Duration) -> Result<Phase, String> {
        let base = self.seq;
        let start = Instant::now();
        let end = start + length;
        let mut due = start + rng.exp_gap(rate);
        let mut dues = Vec::new();
        let mut phase = Phase::default();
        while due < end {
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let t = self.next_template;
            self.next_template = (t + 1) % self.templates.len();
            let id = request_id(self.seq, t);
            self.seq += 1;
            let line = wire_line(id, &self.templates[t]);
            phase
                .gen_lag_ms
                .push(ms(Instant::now().saturating_duration_since(due)));
            match &mut self.outlet {
                Outlet::Tcp(writers) => {
                    let conn = &mut writers[(id >> TEMPLATE_BITS) as usize % 2];
                    send_all(conn, line.as_bytes()).map_err(|e| format!("send: {e}"))?;
                }
                Outlet::Local(service, tx) => {
                    let t0 = Instant::now();
                    service.submit_line(line.trim_end(), tx);
                    phase.admit_us.push(us(t0.elapsed()));
                }
            }
            dues.push(due);
            due += rng.exp_gap(rate);
        }
        phase.sent = self.seq - base;
        let give_up = end + Duration::from_secs(10);
        while self.inbox.count.load(Ordering::Acquire) < self.seq && Instant::now() < give_up {
            std::thread::sleep(Duration::from_millis(1));
        }
        let answers = std::mem::take(&mut *self.inbox.answers.lock().expect("inbox lock"));
        let mut answered = 0;
        for (id, at, outcome) in answers {
            let Some(i) = (id >> TEMPLATE_BITS).checked_sub(base) else {
                continue; // a straggler of an earlier phase
            };
            answered += 1;
            phase.tally(outcome, ms(at.saturating_duration_since(dues[i as usize])));
        }
        phase.lost = phase.sent - answered;
        Ok(phase)
    }

    /// Stops the receiver and returns what it saw.
    pub fn finish(mut self) -> Checker {
        self.inbox.stop.store(true, Ordering::Release);
        self.outlet = Outlet::Tcp(Vec::new());
        self.receiver
            .take()
            .expect("receiver runs until finish")
            .join()
            .expect("receiver thread panicked")
    }
}

/// Writes all of `bytes` to a nonblocking socket.
fn send_all(stream: &mut TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(50));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn deliver(inbox: &Inbox, batch: &mut Vec<(u64, Instant, Outcome)>) {
    if batch.is_empty() {
        return;
    }
    let n = batch.len() as u64;
    inbox.answers.lock().expect("inbox lock").append(batch);
    inbox.count.fetch_add(n, Ordering::Release);
}

fn receive_tcp(readers: Vec<TcpStream>, templates: usize, inbox: &Inbox) -> Checker {
    let mut checker = Checker::new(templates);
    let mut bufs = vec![Vec::<u8>::new(); readers.len()];
    let mut chunk = vec![0u8; 1 << 16];
    let mut batch = Vec::new();
    let mut open = vec![true; readers.len()];
    loop {
        let ready = wait_readable(&readers, &open, 5);
        for (i, (mut reader, buf)) in readers.iter().zip(bufs.iter_mut()).enumerate() {
            if !ready[i] {
                continue;
            }
            let n = match reader.read(&mut chunk) {
                Ok(n) if n > 0 => n,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    continue
                }
                // The server hung up; unanswered requests count as lost.
                _ => {
                    open[i] = false;
                    continue;
                }
            };
            let now = Instant::now();
            buf.extend_from_slice(&chunk[..n]);
            let mut used = 0;
            while let Some(pos) = buf[used..].iter().position(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(&buf[used..used + pos]);
                if let Some((id, rest)) = split_id(&line) {
                    batch.push((id, now, checker.observe(template_of(id), rest)));
                }
                used += pos + 1;
            }
            buf.drain(..used);
        }
        deliver(inbox, &mut batch);
        let idle = !ready.contains(&true) && inbox.stop.load(Ordering::Acquire);
        if idle || !open.contains(&true) {
            return checker;
        }
    }
}

/// Blocks until one of the `open` streams is readable (or at end of file)
/// or `timeout_ms` passes, and reports which are. One thread can then wait
/// on both connections without polling, and stamps each answer when it
/// arrives.
fn wait_readable(streams: &[TcpStream], open: &[bool], timeout_ms: i32) -> Vec<bool> {
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }
    const POLLIN: c_short = 0x1;
    let mut fds: Vec<PollFd> = streams
        .iter()
        .zip(open)
        .map(|(s, &open)| PollFd {
            // poll(2) skips negative descriptors.
            fd: if open { s.as_raw_fd() } else { -1 },
            events: POLLIN,
            revents: 0,
        })
        .collect();
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // `struct pollfd`s (same layout: int, short, short) whose descriptors
    // stay open for the call, as `poll(2)` requires.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
    // An error (EINTR) reads as "nothing ready"; the caller polls again.
    fds.iter().map(|f| n > 0 && f.revents != 0).collect()
}

fn receive_local(rx: Receiver<String>, templates: usize, inbox: &Inbox) -> Checker {
    let mut checker = Checker::new(templates);
    let mut batch = Vec::new();
    loop {
        match rx.recv_timeout(Duration::from_millis(5)) {
            Ok(line) => {
                if let Some((id, rest)) = split_id(&line) {
                    let outcome = checker.observe(template_of(id), rest);
                    batch.push((id, Instant::now(), outcome));
                }
                deliver(inbox, &mut batch);
            }
            Err(_) if inbox.stop.load(Ordering::Acquire) => return checker,
            Err(_) => {}
        }
    }
}

/// One closed-loop connection.
enum Conn {
    Tcp(TcpStream, BufReader<TcpStream>),
    Local(Arc<Service>, Sender<String>, Receiver<String>),
}

impl Conn {
    /// Sends one line; in-process, returns how long `submit_line` took.
    fn send(&mut self, line: &str) -> Result<Option<Duration>, String> {
        match self {
            Conn::Tcp(writer, _) => {
                writer
                    .write_all(line.as_bytes())
                    .map_err(|e| format!("send: {e}"))?;
                Ok(None)
            }
            Conn::Local(service, tx, _) => {
                let t0 = Instant::now();
                service.submit_line(line.trim_end(), tx);
                Ok(Some(t0.elapsed()))
            }
        }
    }

    fn recv(&mut self) -> Result<String, String> {
        match self {
            Conn::Tcp(_, reader) => {
                let mut answer = String::new();
                if reader
                    .read_line(&mut answer)
                    .map_err(|e| format!("read: {e}"))?
                    == 0
                {
                    return Err("server closed the connection".into());
                }
                Ok(answer)
            }
            Conn::Local(_, _, rx) => rx.recv().map_err(|_| "service dropped the reply".into()),
        }
    }
}

/// Where a closed loop sends: a TCP address or an in-process service.
pub enum Target {
    Tcp(String),
    Local(Arc<Service>),
}

impl Target {
    fn open(&self) -> Result<Conn, String> {
        match self {
            Target::Tcp(addr) => {
                let stream = connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
                Ok(Conn::Tcp(stream, reader))
            }
            Target::Local(service) => {
                let (tx, rx) = channel::unbounded();
                Ok(Conn::Local(Arc::clone(service), tx, rx))
            }
        }
    }
}

/// One measured closed-loop request.
struct Sample {
    sent: Instant,
    done: Instant,
    outcome: Outcome,
    admit: Option<Duration>,
}

/// How a closed loop is shaped and scored.
pub struct Closed {
    pub conns: usize,
    /// Requests outstanding per connection.
    pub depth: usize,
    pub warmup: Duration,
    pub length: Duration,
    /// Score only whole passes over the templates on each connection, so
    /// every run measures the same mix of requests whatever its speed.
    pub whole_cycles: bool,
}

/// `conns` connections with `depth` requests outstanding each, cycling
/// through the templates from evenly spaced starting points. Answers to
/// requests sent during the warm-up are discarded; after `length`, no new
/// request is sent. Goodput counts the scored answers over the time from
/// the first of them being sent to the last coming back.
pub fn closed_loop(
    target: &Target,
    templates: &[Template],
    shape: &Closed,
) -> Result<(Phase, Checker), String> {
    let t0 = Instant::now();
    let warm_end = t0 + shape.warmup;
    let end = warm_end + shape.length;
    let conns = shape.conns;
    let results: Vec<Result<(Vec<Sample>, Checker), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut conn = target.open()?;
                    let mut checker = Checker::new(templates.len());
                    let mut samples = Vec::new();
                    let mut pending: HashMap<u64, (Instant, usize, Option<Duration>)> =
                        HashMap::new();
                    let mut t = c * templates.len() / conns;
                    let mut seq = c as u64;
                    let mut send = |conn: &mut Conn, pending: &mut HashMap<_, _>| {
                        let id = request_id(seq, t);
                        seq += conns as u64;
                        let sent = Instant::now();
                        let admit = conn.send(&wire_line(id, &templates[t]))?;
                        pending.insert(id, (sent, t, admit));
                        t = (t + 1) % templates.len();
                        Ok::<_, String>(())
                    };
                    for _ in 0..shape.depth {
                        send(&mut conn, &mut pending)?;
                    }
                    while !pending.is_empty() {
                        let answer = conn.recv()?;
                        let done = Instant::now();
                        let (id, rest) = split_id(answer.trim_end())
                            .ok_or_else(|| format!("answer without an id: {answer:?}"))?;
                        let (sent, tpl, admit) = pending
                            .remove(&id)
                            .ok_or_else(|| format!("answer to unknown id {id}"))?;
                        let outcome = checker.observe(tpl, rest);
                        if sent >= warm_end {
                            samples.push(Sample {
                                sent,
                                done,
                                outcome,
                                admit,
                            });
                        }
                        if done < end {
                            send(&mut conn, &mut pending)?;
                        }
                    }
                    Ok((samples, checker))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread panicked"))
            .collect()
    });
    let mut phase = Phase::default();
    let mut checker = Checker::new(templates.len());
    let mut first: Option<Instant> = None;
    let mut last = warm_end;
    for r in results {
        let (mut samples, c) = r?;
        checker.merge(c);
        if shape.whole_cycles {
            samples.sort_by_key(|s| s.sent);
            let whole = samples.len() / templates.len() * templates.len();
            if whole == 0 {
                return Err("the measured phase holds no whole pass over the templates".into());
            }
            samples.truncate(whole);
        }
        first = first
            .into_iter()
            .chain(samples.first().map(|s| s.sent))
            .min();
        for s in samples {
            phase.sent += 1;
            phase.tally(s.outcome, ms(s.done - s.sent));
            phase.admit_us.extend(s.admit.map(us));
            last = last.max(s.done);
        }
    }
    let span = last - first.unwrap_or(warm_end);
    phase.goodput = phase.ok_ms.len() as f64 / span.as_secs_f64().max(1e-9);
    Ok((phase, checker))
}

/// Remembers when the coordinator first dispatched each unit.
#[derive(Default)]
struct DispatchClock(HashMap<u64, Instant>);

impl TraceSink for DispatchClock {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: &TraceEvent) {
        if let TraceEvent::ClusterDispatch { unit, .. } = event {
            self.0.entry(*unit).or_insert_with(Instant::now);
        }
    }
}

/// What the pool run measured beyond the phase itself.
#[derive(Debug, Default)]
pub struct PoolCounts {
    /// Units lost in any batch, warm-up included.
    pub lost: u64,
    pub refuted: u64,
    pub verified: u64,
    pub unverifiable: u64,
    pub per_backend: Vec<u64>,
}

/// Batches of every template through `Coordinator::run` (verify all, window
/// 4, round robin) until `warmup` and then `length` have passed.
pub fn pool_loop(
    addrs: &[String],
    templates: &[Template],
    seed: u64,
    warmup: Duration,
    length: Duration,
) -> Result<(Phase, Checker, PoolCounts), String> {
    let mut checker = Checker::new(templates.len());
    let mut phase = Phase::default();
    let mut counts = PoolCounts {
        per_backend: vec![0; addrs.len()],
        ..PoolCounts::default()
    };
    let t0 = Instant::now();
    let warm_end = t0 + warmup;
    let mut measured_from = None;
    let mut batch = 0u64;
    loop {
        let started = Instant::now();
        if started >= warm_end + length {
            break;
        }
        let measured = started >= warm_end;
        if measured && measured_from.is_none() {
            measured_from = Some(started);
        }
        // Distinct ids per batch: the coordinator keys idempotency on the
        // unit id, so a repeated id would be answered from the cache.
        let units: Vec<Request> = templates
            .iter()
            .enumerate()
            .map(|(t, tpl)| Request {
                id: request_id(batch, t),
                ..tpl.req.clone()
            })
            .collect();
        batch += 1;
        let cfg = ClusterConfig {
            backends: addrs.to_vec(),
            balance: BalancePolicy::RoundRobin,
            seed,
            window: 4,
            hedge: HedgeConfig::Off,
            verify: VerifyPolicy::All,
            ..ClusterConfig::default()
        };
        let mut clock = DispatchClock::default();
        let mut done: Vec<(u64, Instant, Outcome)> = Vec::new();
        let report = Coordinator::connect(cfg, &mut clock)
            .map_err(|e| format!("coordinator connect: {e}"))?
            .run(units, &mut |id, line| {
                let outcome = match split_id(line) {
                    Some((_, rest)) => checker.observe(template_of(id), rest),
                    None => Outcome::Failed,
                };
                done.push((id, Instant::now(), outcome));
            })
            .map_err(|e| format!("coordinator run: {e}"))?;
        counts.lost += report.counters.lost;
        if let Some(v) = &report.counters.verify {
            counts.refuted += v.refuted;
            if measured {
                counts.verified += v.verified;
                counts.unverifiable += v.unverifiable;
            }
        }
        if !measured {
            continue;
        }
        for (b, n) in report.counters.per_backend.iter().enumerate() {
            counts.per_backend[b] += n;
        }
        phase.sent += templates.len() as u64;
        phase.lost += report.counters.lost;
        for (id, at, outcome) in done {
            let sent = clock.0.get(&id).copied().unwrap_or(at);
            phase.tally(outcome, ms(at - sent));
        }
    }
    let from = measured_from.ok_or("the pool measured no batch")?;
    phase.goodput = phase.ok_ms.len() as f64 / from.elapsed().as_secs_f64();
    Ok((phase, checker, counts))
}

//! The serving stack under test, started in-process with the same calls
//! `machmin serve` makes: `Service::start` with an fsync'd journal, then
//! `tcp::serve` on a loopback listener.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mm_obs::RegistrySnapshot;
use mm_serve::{DynSink, ServeConfig, ServeStats, Service};
use mm_trace::NoopSink;

/// Admission bound of every stack the benchmark starts.
pub const QUEUE_CAP: usize = 64;

/// The tiny request a fresh stack answers to count as ready.
const READY_LINE: &str = r#"{"id":1,"kind":"solve","jobs":[[0,2,2],[0,2,2]]}"#;

pub struct Stack {
    pub service: Arc<Service>,
    pub addr: String,
    acceptor: JoinHandle<std::io::Result<()>>,
}

impl Stack {
    /// Drains the service and joins the accept loop; clients must have
    /// closed their connections first.
    pub fn stop(self) -> Result<ServeStats, String> {
        self.service.shutdown();
        self.service.wait_stopped();
        self.acceptor
            .join()
            .map_err(|_| "accept loop panicked".to_string())?
            .map_err(|e| format!("accept loop failed: {e}"))?;
        Ok(self.service.stats())
    }
}

pub fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Sends one line on a fresh connection and returns the reply line.
fn ask(addr: &str, line: &str) -> Result<String, String> {
    let mut stream = connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("send to {addr}: {e}"))?;
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .map_err(|e| format!("read from {addr}: {e}"))?;
    Ok(reply)
}

/// One `stats` scrape: the server's metric registry.
pub fn scrape(addr: &str) -> Result<RegistrySnapshot, String> {
    let reply = ask(addr, r#"{"id":7,"kind":"stats"}"#)?;
    mm_json::parse(reply.trim())
        .ok()
        .and_then(|doc| RegistrySnapshot::from_json(doc.get("registry")?))
        .ok_or_else(|| format!("unreadable stats reply from {addr}"))
}

/// A started group of stacks (one for serve, two for the pool).
pub struct Started {
    pub stacks: Vec<Stack>,
    pub dirs: Vec<PathBuf>,
}

impl Started {
    pub fn addrs(&self) -> Vec<String> {
        self.stacks.iter().map(|s| s.addr.clone()).collect()
    }

    pub fn stop(self) -> Result<Vec<ServeStats>, String> {
        let stats = self
            .stacks
            .into_iter()
            .map(Stack::stop)
            .collect::<Result<Vec<_>, _>>()?;
        for dir in self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
        Ok(stats)
    }
}

/// One set-up: `count` stacks with `workers` each, from nothing to every
/// stack having answered a first request over TCP. Returns the stacks, the
/// set-up time, and the connect-to-first-answer part of it.
///
/// The client connects before the accept loop starts. `tcp::serve` polls
/// its listener every 10 ms, so a connection that arrives while it sleeps
/// waits a random share of that interval; connecting first keeps that
/// coin toss out of the set-up time.
pub fn set_up(
    scratch: &Path,
    tag: &str,
    count: usize,
    workers: usize,
) -> Result<(Started, Duration, Duration), String> {
    let t0 = Instant::now();
    let mut stacks = Vec::new();
    let mut dirs = Vec::new();
    let mut clients = Vec::new();
    for i in 0..count {
        let dir = scratch.join(format!("{tag}-{i}"));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let cfg = ServeConfig {
            workers,
            queue_cap: QUEUE_CAP,
            journal: Some(dir.join("journal.jsonl")),
            ..ServeConfig::default()
        };
        let service = Arc::new(Service::start(cfg, DynSink::new(Box::new(NoopSink)))?);
        let (listener, addr) =
            mm_serve::tcp::bind("127.0.0.1:0").map_err(|e| format!("cannot bind: {e}"))?;
        clients.push(connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?);
        let acceptor = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || mm_serve::tcp::serve(listener, service))
        };
        stacks.push(Stack {
            service,
            addr,
            acceptor,
        });
        dirs.push(dir);
    }
    let t_started = Instant::now();
    for (client, stack) in clients.iter_mut().zip(&stacks) {
        client
            .write_all(format!("{READY_LINE}\n").as_bytes())
            .map_err(|e| format!("send to {}: {e}", stack.addr))?;
    }
    for (client, stack) in clients.into_iter().zip(&stacks) {
        let mut reply = String::new();
        BufReader::new(client)
            .read_line(&mut reply)
            .map_err(|e| format!("read from {}: {e}", stack.addr))?;
        if !reply.contains("\"machines\":2") {
            return Err(format!("fresh stack answered {reply:?}"));
        }
    }
    let done = Instant::now();
    Ok((Started { stacks, dirs }, done - t0, done - t_started))
}

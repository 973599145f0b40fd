//! Crash-safe write-ahead journal for the service layer.
//!
//! Every *admitted* request is appended (and fsynced) to the journal
//! **before** it is enqueued for execution, and every terminal response is
//! appended before it is released to the client. After a crash, replaying
//! the journal therefore partitions requests exactly:
//!
//! * `acked` — requests whose response record made it to disk. Their
//!   responses are replayed **byte-identically**; the work is never redone.
//! * `pending` — requests admitted but never acknowledged. They are
//!   re-enqueued on restart; in-flight adversary sweeps resume from their
//!   last [`SweepCheckpoint`] record instead of restarting from depth 2.
//!
//! The journal is JSONL. A crash can leave at most one torn record — the
//! final line — so replay tolerates (and reports) a malformed *last* line
//! but treats a malformed interior line as corruption, located by line
//! number for the io exit-code taxonomy.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};

use mm_adversary::SweepCheckpoint;
use mm_json::Json;

/// One parsed journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A request was admitted; `line` is the exact request wire line.
    Admitted {
        /// Request id.
        id: u64,
        /// Raw request line as received.
        line: String,
    },
    /// An adversary sweep finished a depth; full checkpoint state.
    Sweep {
        /// Request id the sweep belongs to.
        id: u64,
        /// Checkpoint after the completed depth.
        checkpoint: SweepCheckpoint,
    },
    /// A terminal response was released; `line` is the exact response line.
    Acked {
        /// Request id.
        id: u64,
        /// Raw response line as sent.
        line: String,
    },
    /// An observability snapshot written on graceful drain. Replay restores
    /// the monotonic counters (lifetime uptime, restart count, cumulative
    /// request totals) from the **last** such record, so a restarted server
    /// reports honest lifetime numbers instead of starting from zero.
    Stats {
        /// The drained server's registry snapshot plus lifecycle counters.
        snapshot: Json,
    },
}

impl Record {
    fn to_json(&self) -> Json {
        match self {
            Record::Admitted { id, line } => Json::obj([
                ("rec", Json::str("admitted")),
                ("id", Json::Int(*id as i64)),
                ("line", Json::str(line)),
            ]),
            Record::Sweep { id, checkpoint } => Json::obj([
                ("rec", Json::str("sweep")),
                ("id", Json::Int(*id as i64)),
                ("checkpoint", checkpoint.to_json()),
            ]),
            Record::Acked { id, line } => Json::obj([
                ("rec", Json::str("acked")),
                ("id", Json::Int(*id as i64)),
                ("line", Json::str(line)),
            ]),
            Record::Stats { snapshot } => {
                Json::obj([("rec", Json::str("stats")), ("snapshot", snapshot.clone())])
            }
        }
    }

    fn from_json(json: &Json) -> Result<Record, String> {
        let rec = json
            .get("rec")
            .and_then(Json::as_str)
            .ok_or("journal record missing `rec`")?;
        if rec == "stats" {
            return Ok(Record::Stats {
                snapshot: json
                    .get("snapshot")
                    .cloned()
                    .ok_or("stats record missing `snapshot`")?,
            });
        }
        let id = json
            .get("id")
            .and_then(Json::as_i64)
            .filter(|&n| n >= 0)
            .ok_or("journal record missing non-negative `id`")? as u64;
        let line = |key: &str| -> Result<String, String> {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("journal record missing `{key}`"))
        };
        Ok(match rec {
            "admitted" => Record::Admitted {
                id,
                line: line("line")?,
            },
            "sweep" => Record::Sweep {
                id,
                checkpoint: SweepCheckpoint::from_json(
                    json.get("checkpoint")
                        .ok_or("sweep record missing `checkpoint`")?,
                )?,
            },
            "acked" => Record::Acked {
                id,
                line: line("line")?,
            },
            // "stats" was handled above (it carries no request id).
            other => return Err(format!("unknown journal record `{other}`")),
        })
    }
}

/// Append-only fsynced journal writer with group commit.
///
/// [`Journal::write`] appends one record under a short lock and returns its
/// sequence number; [`Journal::sync_to`] returns once an fsync that began
/// after that record was written has completed. There is no committer
/// thread: whichever caller finds no fsync in flight runs one, and it covers
/// every record written before it began, so callers that arrive while it
/// runs share the next one. An uncontended append is one write plus one
/// fsync on the caller's thread.
///
/// The first write or fsync error poisons the journal: every later
/// [`write`](Journal::write) and [`sync_to`](Journal::sync_to) returns it.
/// A failed write may leave a partial line, which stays replayable only as
/// the journal's last line; and after a failed fsync the kernel may have
/// dropped the dirty pages, so a retried fsync could report success for
/// lost records.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    state: Mutex<State>,
    /// Signalled whenever an fsync finishes (or fails).
    synced: Condvar,
    /// A second handle on the file, fsynced without holding `state`, so
    /// appends go on while an fsync runs.
    syncer: File,
}

const POISONED: &str = "no journal call panics while holding the state lock";

#[derive(Debug)]
struct State {
    file: File,
    /// Sequence number of the last record written (the first is 1).
    written: u64,
    /// Every record up to this sequence number is on disk.
    durable: u64,
    /// Whether some caller is running an fsync.
    syncing: bool,
    /// The first write or fsync error, returned by every later call.
    poisoned: Option<(std::io::ErrorKind, String)>,
    #[cfg(test)]
    fsyncs: u64,
}

impl State {
    fn check(&self) -> std::io::Result<()> {
        match &self.poisoned {
            Some((kind, message)) => Err(std::io::Error::new(*kind, message.clone())),
            None => Ok(()),
        }
    }

    fn poison(&mut self, e: std::io::Error) -> std::io::Error {
        self.poisoned = Some((e.kind(), e.to_string()));
        e
    }
}

impl Journal {
    /// Opens (creating or appending to) the journal at `path`. A torn final
    /// line (an append cut short by a crash) is cut off first, so the next
    /// record starts a line of its own instead of extending the torn one
    /// into interior corruption.
    pub fn open(path: &Path) -> std::io::Result<Journal> {
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        cut_torn_tail(&file)?;
        Ok(Journal {
            syncer: file.try_clone()?,
            state: Mutex::new(State {
                file,
                written: 0,
                durable: 0,
                syncing: false,
                poisoned: None,
                #[cfg(test)]
                fsyncs: 0,
            }),
            synced: Condvar::new(),
            path: path.to_path_buf(),
        })
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record without waiting for the disk, returning its
    /// sequence number and the bytes written (newline included). The record
    /// is durable once [`Journal::sync_to`] with that number returns.
    pub fn write(&self, record: &Record) -> std::io::Result<(u64, usize)> {
        let mut line = record.to_json().to_compact();
        line.push('\n');
        let mut state = self.state.lock().expect(POISONED);
        state.check()?;
        if let Err(e) = state.file.write_all(line.as_bytes()) {
            return Err(state.poison(e));
        }
        state.written += 1;
        Ok((state.written, line.len()))
    }

    /// Returns once record `seq` (and every record before it) is on disk:
    /// joins the fsync in flight if it began after `seq` was written, waits
    /// for it to end otherwise, and runs the next one itself if nobody else
    /// does.
    pub fn sync_to(&self, seq: u64) -> std::io::Result<()> {
        let mut state = self.state.lock().expect(POISONED);
        loop {
            state.check()?;
            if state.durable >= seq {
                return Ok(());
            }
            if state.syncing {
                state = self.synced.wait(state).expect(POISONED);
                continue;
            }
            // Everything written so far is covered by the fsync that starts
            // after this point.
            let target = state.written;
            state.syncing = true;
            drop(state);
            let result = self.syncer.sync_data();
            state = self.state.lock().expect(POISONED);
            state.syncing = false;
            #[cfg(test)]
            {
                state.fsyncs += 1;
            }
            match result {
                Ok(()) => state.durable = state.durable.max(target),
                Err(e) => {
                    state.poison(e);
                }
            }
            self.synced.notify_all();
        }
    }

    /// Appends one record and fsyncs before returning, reporting the number
    /// of bytes written (newline included). The fsync is the crash-safety
    /// contract: once this returns, a replay sees the record.
    pub fn append(&mut self, record: &Record) -> std::io::Result<usize> {
        let (seq, bytes) = self.write(record)?;
        self.sync_to(seq)?;
        Ok(bytes)
    }

    /// Sequence number of the last record known to be on disk.
    #[cfg(test)]
    fn durable(&self) -> u64 {
        self.state.lock().expect(POISONED).durable
    }

    /// Number of fsyncs run so far.
    #[cfg(test)]
    fn fsyncs(&self) -> u64 {
        self.state.lock().expect(POISONED).fsyncs
    }
}

/// Truncates `file` after its last newline. Appends are whole lines, so
/// anything past the last newline is a record a crash cut short.
fn cut_torn_tail(mut file: &File) -> std::io::Result<()> {
    const CHUNK: u64 = 4096;
    let len = file.metadata()?.len();
    let mut end = len;
    let mut buf = vec![0u8; CHUNK as usize];
    while end > 0 {
        let start = end.saturating_sub(CHUNK);
        let chunk = &mut buf[..(end - start) as usize];
        file.seek(SeekFrom::Start(start))?;
        file.read_exact(chunk)?;
        if let Some(i) = chunk.iter().rposition(|&b| b == b'\n') {
            end = start + i as u64 + 1;
            break;
        }
        end = start;
    }
    if end < len {
        file.set_len(end)?;
        file.sync_all()?;
    }
    Ok(())
}

/// The result of replaying a journal after a restart.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Replay {
    /// `(id, response line)` for every acknowledged request, in ack order.
    pub acked: Vec<(u64, String)>,
    /// `(idempotency key, response line)` for every acked request whose
    /// admitted line carried an idempotency key. Seeds the idempotency
    /// cache on restart so a duplicate submitted *after* the crash still
    /// re-serves the exact pre-crash bytes (fault plans do not survive a
    /// restart, so re-executing could answer differently).
    pub acked_keys: Vec<(u64, String)>,
    /// Admitted-but-unacknowledged requests, in admission order.
    pub pending: Vec<PendingRequest>,
    /// Whether a torn (truncated) final line was dropped.
    pub torn_tail: bool,
    /// The last stats snapshot recorded on a graceful drain, if any. Used
    /// to restore lifetime-monotonic observability counters on restart.
    pub stats: Option<Json>,
}

/// One request that must be re-run after a crash.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingRequest {
    /// Request id.
    pub id: u64,
    /// Raw request line as originally received.
    pub line: String,
    /// Last sweep checkpoint recorded for the request, if any.
    pub checkpoint: Option<SweepCheckpoint>,
}

/// Extracts the `idempotency_key` field from a journaled request line.
/// The line was validated at admission, so a parse failure just means
/// "no key" — the replay stays usable either way.
fn idempotency_key_of(line: &str) -> Option<u64> {
    let json = mm_json::parse(line).ok()?;
    match json.get("idempotency_key")? {
        Json::Int(k) => Some(*k as u64),
        _ => None,
    }
}

impl Replay {
    /// Replays the journal at `path`. Missing file ⇒ empty replay. A
    /// malformed **final** line is tolerated (a crash mid-append); any other
    /// malformed line is corruption, reported with its line number.
    pub fn load(path: &Path) -> Result<Replay, String> {
        if !path.exists() {
            return Ok(Replay::default());
        }
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
        Replay::from_text(&text).map_err(|e| format!("journal {}: {e}", path.display()))
    }

    /// Replays journal text (split out for truncation tests). A final line
    /// without its newline is torn even when it parses: every record is
    /// written together with its newline, so that record was never synced
    /// (and [`Journal::open`] cuts it off before appending).
    pub fn from_text(text: &str) -> Result<Replay, String> {
        let lines: Vec<&str> = text.lines().collect();
        let mut replay = Replay::default();
        let mut acked_ids = std::collections::HashSet::new();
        let mut admitted_keys = std::collections::HashMap::new();
        for (i, raw) in lines.iter().enumerate() {
            if raw.trim().is_empty() {
                continue;
            }
            let last = i + 1 == lines.len();
            if last && !text.ends_with('\n') {
                replay.torn_tail = true;
                continue;
            }
            let record = match mm_json::parse(raw)
                .map_err(|e| e.message.clone())
                .and_then(|json| Record::from_json(&json))
            {
                Ok(r) => r,
                Err(_) if last => {
                    // A torn final line is the expected crash artifact: the
                    // record never finished, so its request (if any) simply
                    // was never admitted / acked.
                    replay.torn_tail = true;
                    continue;
                }
                Err(e) => return Err(format!("corrupt record at line {}: {e}", i + 1)),
            };
            match record {
                Record::Admitted { id, line } => {
                    if let Some(key) = idempotency_key_of(&line) {
                        admitted_keys.insert(id, key);
                    }
                    replay.pending.push(PendingRequest {
                        id,
                        line,
                        checkpoint: None,
                    });
                }
                Record::Sweep { id, checkpoint } => {
                    if let Some(p) = replay.pending.iter_mut().find(|p| p.id == id) {
                        p.checkpoint = Some(checkpoint);
                    }
                }
                Record::Acked { id, line } => {
                    acked_ids.insert(id);
                    if let Some(key) = admitted_keys.get(&id) {
                        replay.acked_keys.push((*key, line.clone()));
                    }
                    replay.acked.push((id, line));
                }
                Record::Stats { snapshot } => replay.stats = Some(snapshot),
            }
        }
        replay.pending.retain(|p| !acked_ids.contains(&p.id));
        Ok(replay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "machmin-journal-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn replay_partitions_acked_and_pending() {
        let path = tmp("basic.jsonl");
        std::fs::remove_file(&path).ok();
        let mut j = Journal::open(&path).unwrap();
        j.append(&Record::Admitted {
            id: 1,
            line: "{\"id\":1}".into(),
        })
        .unwrap();
        j.append(&Record::Admitted {
            id: 2,
            line: "{\"id\":2}".into(),
        })
        .unwrap();
        let mut cp = SweepCheckpoint::new("edf-ff", 4);
        cp.record(mm_adversary::CompletedRun {
            k: 2,
            machines_forced: 2,
            jobs_released: 5,
            policy_missed: false,
            machines_used: 3,
            offline_optimum: 3,
            stopped: None,
        });
        j.append(&Record::Sweep {
            id: 2,
            checkpoint: cp.clone(),
        })
        .unwrap();
        j.append(&Record::Acked {
            id: 1,
            line: "{\"id\":1,\"status\":\"ok\"}".into(),
        })
        .unwrap();
        let replay = Replay::load(&path).unwrap();
        assert_eq!(
            replay.acked,
            vec![(1, "{\"id\":1,\"status\":\"ok\"}".into())]
        );
        assert_eq!(replay.pending.len(), 1);
        assert_eq!(replay.pending[0].id, 2);
        assert_eq!(replay.pending[0].checkpoint.as_ref(), Some(&cp));
        assert!(!replay.torn_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_final_line_is_tolerated_interior_corruption_is_not() {
        let good = concat!(
            "{\"rec\":\"admitted\",\"id\":1,\"line\":\"x\"}\n",
            "{\"rec\":\"acked\",\"id\":1,\"line\":\"y\"}\n",
        );
        // Truncate at every byte: replay must either succeed (possibly with
        // a torn tail) or fail with a line-numbered corruption error, and
        // acked prefixes must survive intact.
        for cut in 0..good.len() {
            match Replay::from_text(&good[..cut]) {
                Ok(replay) => {
                    for (id, line) in &replay.acked {
                        assert_eq!((*id, line.as_str()), (1, "y"));
                    }
                }
                Err(e) => assert!(e.contains("line "), "cut {cut}: {e}"),
            }
        }
        // Interior corruption (torn line is NOT last) is an error.
        let torn_middle = "{\"rec\":\"adm\n{\"rec\":\"acked\",\"id\":1,\"line\":\"y\"}\n";
        let err = Replay::from_text(torn_middle).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn stats_snapshot_round_trips_and_the_last_one_wins() {
        let path = tmp("stats.jsonl");
        std::fs::remove_file(&path).ok();
        let mut j = Journal::open(&path).unwrap();
        let snap = |n: i64| Json::obj([("lifetime_requests", Json::Int(n))]);
        j.append(&Record::Stats { snapshot: snap(10) }).unwrap();
        j.append(&Record::Admitted {
            id: 1,
            line: "{\"id\":1}".into(),
        })
        .unwrap();
        j.append(&Record::Stats { snapshot: snap(25) }).unwrap();
        let replay = Replay::load(&path).unwrap();
        assert_eq!(replay.stats, Some(snap(25)));
        assert_eq!(replay.pending.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_journal_is_an_empty_replay() {
        let replay = Replay::load(Path::new("/nonexistent/machmin/journal.jsonl")).unwrap();
        assert!(replay.acked.is_empty() && replay.pending.is_empty());
    }

    #[test]
    fn concurrent_syncs_share_fsyncs_and_return_only_once_durable() {
        const THREADS: u64 = 4;
        const RECORDS: u64 = 25;
        let path = tmp("group.jsonl");
        std::fs::remove_file(&path).ok();
        let journal = std::sync::Arc::new(Journal::open(&path).unwrap());
        // All threads start appending together, so their syncs overlap.
        let start = std::sync::Arc::new(std::sync::Barrier::new(THREADS as usize));
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let journal = std::sync::Arc::clone(&journal);
                let start = std::sync::Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for k in 0..RECORDS {
                        let id = t * RECORDS + k;
                        let (seq, _) = journal
                            .write(&Record::Admitted {
                                id,
                                line: format!("{{\"id\":{id}}}"),
                            })
                            .unwrap();
                        journal.sync_to(seq).unwrap();
                        assert!(journal.durable() >= seq, "sync_to({seq}) returned early");
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().unwrap();
        }
        let records = THREADS * RECORDS;
        assert_eq!(journal.durable(), records);
        assert!(journal.fsyncs() <= records, "{} fsyncs", journal.fsyncs());
        let replay = Replay::load(&path).unwrap();
        let mut ids: Vec<u64> = replay.pending.iter().map(|p| p.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..records).collect::<Vec<_>>());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn the_first_write_error_poisons_every_later_write_and_sync() {
        let dev_full = Path::new("/dev/full");
        if !dev_full.exists() {
            return;
        }
        let mut journal = Journal::open(dev_full).unwrap();
        let record = Record::Admitted {
            id: 1,
            line: "{\"id\":1}".into(),
        };
        let first = journal.write(&record).unwrap_err();
        assert_eq!(first.raw_os_error(), Some(28), "ENOSPC: {first}");
        for _ in 0..3 {
            let again = journal.write(&record).unwrap_err();
            assert_eq!(again.kind(), first.kind());
            assert!(journal.sync_to(0).is_err());
            assert!(journal.sync_to(1).is_err());
            assert!(journal.append(&record).is_err());
        }
    }

    #[test]
    fn reopening_cuts_a_torn_tail_so_later_records_stay_replayable() {
        let path = tmp("torn.jsonl");
        std::fs::remove_file(&path).ok();
        let mut j = Journal::open(&path).unwrap();
        j.append(&Record::Admitted {
            id: 1,
            line: "{\"id\":1}".into(),
        })
        .unwrap();
        drop(j);
        let whole = std::fs::read(&path).unwrap();
        // A crash half-way through the next record, which even parses
        // without its newline.
        let next = "{\"rec\":\"acked\",\"id\":1,\"line\":\"y\"}";
        for torn in [&next[..next.len() / 2], next] {
            let mut bytes = whole.clone();
            bytes.extend_from_slice(torn.as_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let replay = Replay::load(&path).unwrap();
            assert!(replay.torn_tail && replay.acked.is_empty(), "{torn}");
            let mut j = Journal::open(&path).unwrap();
            j.append(&Record::Acked {
                id: 1,
                line: "z".into(),
            })
            .unwrap();
            let replay = Replay::load(&path).unwrap();
            assert!(!replay.torn_tail);
            assert_eq!(replay.acked, vec![(1, "z".to_string())]);
            assert!(replay.pending.is_empty());
        }
        std::fs::remove_file(&path).ok();
    }
}

//! JSONL-over-TCP front end.
//!
//! One request per line in, one response per line out, per connection.
//! Each connection gets a reader thread (parsing + admission) and a writer
//! thread (draining the connection's reply channel); the worker pool is
//! shared across connections, so backpressure is global, not per-socket.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{self, Receiver};

use crate::protocol::MAX_LINE_BYTES;
use crate::supervisor::Service;

/// Binds `addr` (use port 0 for an ephemeral port) and returns the listener
/// plus the address actually bound.
pub fn bind(addr: &str) -> std::io::Result<(TcpListener, String)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?.to_string();
    Ok((listener, local))
}

/// Accept loop. Returns once the service has fully drained (a client sent a
/// `shutdown` request, or [`Service::shutdown`] was called) and every
/// admitted request has been answered.
pub fn serve(listener: TcpListener, service: Arc<Service>) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let service = Arc::clone(&service);
                std::thread::spawn(move || handle_connection(stream, service));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if service.is_stopped() {
                    return Ok(());
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(e),
        }
    }
}

fn handle_connection(stream: TcpStream, service: Arc<Service>) {
    // Replies leave as soon as they are written: without this, Nagle's
    // algorithm holds a reply's last segment until the client's delayed
    // ACK (tens of milliseconds) whenever an earlier one is unacknowledged.
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (reply_tx, reply_rx) = channel::unbounded::<String>();
    let writer = std::thread::spawn(move || write_replies(&reply_rx, write_half));
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        // Read at most one byte past the longest line the protocol accepts,
        // so a client that never sends a newline cannot grow the buffer
        // without bound.
        buf.clear();
        match (&mut reader)
            .take(MAX_LINE_BYTES as u64 + 1)
            .read_until(b'\n', &mut buf)
        {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        } else if buf.len() > MAX_LINE_BYTES {
            let message = format!("request line exceeds {MAX_LINE_BYTES} bytes");
            service.reject_line(&reply_tx, message);
            break;
        }
        // The newline still delimits a line that is not UTF-8, so it gets
        // its one error and the next line is read as usual.
        let Ok(line) = std::str::from_utf8(&buf) else {
            service.reject_line(&reply_tx, "request line is not valid UTF-8".into());
            continue;
        };
        if line.trim().is_empty() {
            continue;
        }
        service.submit_line(line, &reply_tx);
    }
    // EOF: drop our sender. The writer exits once every in-flight response
    // for this connection has been delivered (workers hold clones).
    drop(reply_tx);
    let _ = writer.join();
}

/// Writes each reply line and its newline, flushing only when the channel
/// has run empty: replies queued together leave in one write, and the
/// writer never waits for the next reply while holding unsent bytes.
/// Returns when every sender is gone or a write fails.
fn write_replies(replies: &Receiver<String>, out: impl Write) -> std::io::Result<()> {
    let mut out = BufWriter::new(out);
    while let Ok(mut line) = replies.recv() {
        loop {
            // One buffer per line: a reply longer than the buffer goes out
            // in one write with its newline instead of leaving it behind.
            line.push('\n');
            out.write_all(line.as_bytes())?;
            match replies.try_recv() {
                Ok(next) => line = next,
                Err(_) => break,
            }
        }
        out.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Request, RequestKind};
    use crate::supervisor::{DynSink, ServeConfig};
    use mm_trace::NoopSink;

    #[test]
    fn end_to_end_over_tcp_with_shutdown() {
        let service = Arc::new(
            Service::start(ServeConfig::default(), DynSink::new(Box::new(NoopSink))).unwrap(),
        );
        let (listener, addr) = bind("127.0.0.1:0").unwrap();
        let acceptor = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || serve(listener, service))
        };
        let stream = TcpStream::connect(&addr).unwrap();
        let mut writer = BufWriter::new(stream.try_clone().unwrap());
        let mut reader = BufReader::new(stream);
        let mut send = |req: &Request| {
            writer.write_all(req.to_line().as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            writer.flush().unwrap();
        };
        for id in 0..3 {
            send(&Request::new(
                id,
                RequestKind::Solve {
                    jobs: vec![(0, 2, 2), (0, 2, 2)],
                },
            ));
        }
        let mut lines = Vec::new();
        for _ in 0..3 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            lines.push(line.trim().to_string());
        }
        for line in &lines {
            assert!(line.contains("\"machines\":2"), "{line}");
        }
        send(&Request::new(99, RequestKind::Shutdown));
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"draining\":true"), "{line}");
        acceptor.join().unwrap().unwrap();
        service.wait_stopped();
        let stats = service.stats();
        assert_eq!(stats.admitted, 3);
        assert!(stats.invariant_holds());
    }

    #[test]
    fn an_endless_line_is_cut_off_with_one_error() {
        let service = Arc::new(
            Service::start(ServeConfig::default(), DynSink::new(Box::new(NoopSink))).unwrap(),
        );
        let (listener, addr) = bind("127.0.0.1:0").unwrap();
        let acceptor = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || serve(listener, service))
        };
        // One byte past the limit and no newline: the server must stop
        // reading there, answer once, and close the connection.
        let mut flood = TcpStream::connect(&addr).unwrap();
        flood.write_all(&vec![b'x'; MAX_LINE_BYTES + 1]).unwrap();
        let mut reader = BufReader::new(flood);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"status\":\"error\""), "{line}");
        assert!(line.contains("exceeds"), "{line}");
        line.clear();
        assert_eq!(
            reader.read_line(&mut line).unwrap(),
            0,
            "closed after the error"
        );

        // A second connection is still served.
        let stream = TcpStream::connect(&addr).unwrap();
        let mut writer = BufWriter::new(stream.try_clone().unwrap());
        let mut reader = BufReader::new(stream);
        for req in [
            Request::new(
                1,
                RequestKind::Solve {
                    jobs: vec![(0, 2, 2), (0, 2, 2)],
                },
            ),
            Request::new(2, RequestKind::Shutdown),
        ] {
            writer.write_all(req.to_line().as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            writer.flush().unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains("\"status\":\"ok\""), "{line}");
        }
        acceptor.join().unwrap().unwrap();
        service.wait_stopped();
        let stats = service.stats();
        assert_eq!((stats.received, stats.rejected, stats.admitted), (3, 1, 1));
        assert!(stats.invariant_holds());
    }

    #[test]
    fn a_line_that_is_not_utf8_gets_one_error_and_reading_goes_on() {
        let service = Arc::new(
            Service::start(ServeConfig::default(), DynSink::new(Box::new(NoopSink))).unwrap(),
        );
        let (listener, addr) = bind("127.0.0.1:0").unwrap();
        let acceptor = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || serve(listener, service))
        };
        let solve = |id| {
            Request::new(
                id,
                RequestKind::Solve {
                    jobs: vec![(0, 2, 2), (0, 2, 2)],
                },
            )
            .to_line()
        };
        let mut bad = b"{\"id\":2,\"op\":\"solve\xff\"}".to_vec();
        bad.push(b'\n');
        let mut stream = TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        // One line at a time: an error is answered by the reader at once,
        // a request by a worker later, so only the client can fix the order.
        let mut lines = Vec::new();
        for bytes in [
            format!("{}\n", solve(1)).into_bytes(),
            bad,
            format!("{}\n", solve(3)).into_bytes(),
        ] {
            stream.write_all(&bytes).unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            lines.push(line.trim().to_string());
        }
        assert!(
            lines[0].starts_with("{\"id\":1,\"status\":\"ok\""),
            "{lines:?}"
        );
        assert!(
            lines[1].starts_with("{\"id\":0,\"status\":\"error\""),
            "{lines:?}"
        );
        assert!(lines[1].contains("UTF-8"), "{lines:?}");
        assert!(
            lines[2].starts_with("{\"id\":3,\"status\":\"ok\""),
            "{lines:?}"
        );

        stream
            .write_all(format!("{}\n", Request::new(4, RequestKind::Shutdown).to_line()).as_bytes())
            .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"draining\":true"), "{line}");
        acceptor.join().unwrap().unwrap();
        service.wait_stopped();
        let stats = service.stats();
        assert_eq!((stats.received, stats.rejected, stats.admitted), (4, 1, 2));
        assert!(stats.invariant_holds());
    }

    /// What the reply writer did to its socket: each `write` call's bytes,
    /// and a marker per `flush`.
    #[derive(Clone, Default)]
    struct Recording(Arc<std::sync::Mutex<Vec<Option<Vec<u8>>>>>);

    impl Recording {
        fn writes(&self) -> Vec<Vec<u8>> {
            self.0.lock().unwrap().iter().flatten().cloned().collect()
        }

        fn flushes(&self) -> usize {
            self.0
                .lock()
                .unwrap()
                .iter()
                .filter(|e| e.is_none())
                .count()
        }

        fn bytes(&self) -> Vec<u8> {
            self.writes().concat()
        }
    }

    impl Write for Recording {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().push(Some(buf.to_vec()));
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.0.lock().unwrap().push(None);
            Ok(())
        }
    }

    #[test]
    fn replies_queued_before_the_writer_wakes_leave_in_one_flush() {
        let (tx, rx) = channel::unbounded::<String>();
        for id in 0..5 {
            tx.send(format!("{{\"id\":{id}}}")).unwrap();
        }
        drop(tx);
        let out = Recording::default();
        write_replies(&rx, out.clone()).unwrap();
        let expected: String = (0..5).map(|id| format!("{{\"id\":{id}}}\n")).collect();
        assert_eq!(out.writes(), vec![expected.into_bytes()]);
        assert_eq!(out.flushes(), 1);
    }

    #[test]
    fn a_reply_longer_than_the_buffer_arrives_whole_with_its_newline() {
        let (tx, rx) = channel::unbounded::<String>();
        let long = format!("{{\"id\":2,\"proof\":\"{}\"}}", "x".repeat(20_000));
        for line in ["{\"id\":1}", long.as_str(), "{\"id\":3}"] {
            tx.send(line.to_string()).unwrap();
        }
        drop(tx);
        let out = Recording::default();
        write_replies(&rx, out.clone()).unwrap();
        let expected = format!("{{\"id\":1}}\n{long}\n{{\"id\":3}}\n");
        assert_eq!(out.bytes(), expected.as_bytes());
        // The socket never sees a write that stops inside a line.
        for write in out.writes() {
            assert_eq!(write.last(), Some(&b'\n'));
        }
    }

    #[test]
    fn the_writer_flushes_before_it_waits_for_the_next_reply() {
        let (tx, rx) = channel::unbounded::<String>();
        let out = Recording::default();
        let writer = {
            let out = out.clone();
            std::thread::spawn(move || write_replies(&rx, out))
        };
        // The sender stays open, so a writer that waited with the reply
        // still buffered would never hand it to the socket.
        let mut expected = Vec::new();
        for id in 0..3 {
            let line = format!("{{\"id\":{id}}}");
            expected.extend_from_slice(line.as_bytes());
            expected.push(b'\n');
            tx.send(line).unwrap();
            let deadline = std::time::Instant::now() + Duration::from_secs(30);
            while out.bytes() != expected {
                assert!(std::time::Instant::now() < deadline, "reply {id} held back");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        drop(tx);
        writer.join().unwrap().unwrap();
    }
}

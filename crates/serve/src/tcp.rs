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

use crossbeam::channel;

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
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (reply_tx, reply_rx) = channel::unbounded::<String>();
    let writer = std::thread::spawn(move || {
        let mut out = BufWriter::new(write_half);
        while let Ok(line) = reply_rx.recv() {
            if out.write_all(line.as_bytes()).is_err() || out.write_all(b"\n").is_err() {
                return;
            }
            let _ = out.flush();
        }
    });
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
            service.reject_oversized_line(&reply_tx);
            break;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            break;
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
}

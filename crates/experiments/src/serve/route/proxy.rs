//! The router's HTTP client side: persistent keep-alive exchanges
//! against worker daemons, over a small per-address connection pool.
//! Hand-rolled to match the server half in `serve/http.rs` — the router
//! speaks to workers exactly the way `curl` and the integration tests
//! speak to the router, just without paying a TCP handshake per proxied
//! request (the route tier ran at 0.56× of direct before pooling).
//! Responses are read through the same capped head scan as requests
//! (`http::parse_head`), so a worker streaming an endless status line
//! trips the 8 KiB line cap instead of growing the router's memory.
//!
//! Pool discipline: a finished exchange returns its connection to the
//! pool only when the response was framed (`Content-Length`) and did not
//! say `Connection: close` — an unframed body is read to EOF, so the
//! connection is dead by construction. A pooled connection the worker
//! closed while it sat idle fails instantly on the next use (write
//! error, or clean EOF before any response bytes) and is retried once on
//! a fresh connection; a failure mid-response is reported, never
//! retried — the worker may have applied the request.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use super::super::http::{parse_head, MAX_BODY_BYTES};

/// Pooled connections kept per worker address. The router's worker
/// threads share the pool, so this bounds the router-side idle fd cost
/// per worker at a few descriptors.
const POOL_PER_ADDR: usize = 8;

/// How long a pooled connection may sit unused before checkout discards
/// it — kept under the worker's 10 s keep-alive idle window so the pool
/// rarely hands out a connection the worker is about to close.
const POOL_IDLE: Duration = Duration::from_secs(5);

/// One idle connection waiting for its next exchange.
struct PooledConn {
    stream: TcpStream,
    parked: Instant,
}

fn pool() -> &'static Mutex<HashMap<String, Vec<PooledConn>>> {
    static POOL: OnceLock<Mutex<HashMap<String, Vec<PooledConn>>>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Takes the freshest non-expired pooled connection for `addr`, dropping
/// expired ones along the way.
fn checkout(addr: &str) -> Option<TcpStream> {
    let mut pool = pool().lock().unwrap();
    let conns = pool.get_mut(addr)?;
    while let Some(conn) = conns.pop() {
        if conn.parked.elapsed() <= POOL_IDLE {
            return Some(conn.stream);
        }
    }
    None
}

/// Returns a healthy connection to `addr`'s pool (oldest evicted at the
/// cap).
fn check_in(addr: &str, stream: TcpStream) {
    let mut pool = pool().lock().unwrap();
    let conns = pool.entry(addr.to_string()).or_default();
    if conns.len() >= POOL_PER_ADDR {
        conns.remove(0);
    }
    conns.push(PooledConn {
        stream,
        parked: Instant::now(),
    });
}

/// How one exchange attempt failed: a stale pooled connection (retry on
/// a fresh one) or a real transport/protocol error.
enum CallError {
    /// The pooled connection was dead before the worker saw the request
    /// — safe to retry once on a fresh connection.
    Stale,
    Fail(String),
}

/// Performs one HTTP exchange against `addr` (`host:port`), reusing a
/// pooled connection when one is available: send `method path` with
/// `body`, read the response, return the connection to the pool when it
/// survived. Returns the status code and the response body. Every step
/// is bounded by `timeout`; any transport failure is an `Err` (the
/// router reports those as 502).
pub fn http_call(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> Result<(u16, String), String> {
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: keep-alive\r\n\
         Content-Length: {}\r\nContent-Type: application/json\r\n\r\n{body}",
        body.len()
    );
    if let Some(mut stream) = checkout(addr) {
        let _ = stream.set_read_timeout(Some(timeout));
        let _ = stream.set_write_timeout(Some(timeout));
        match exchange(&mut stream, request.as_bytes(), false) {
            Ok((status, body, reusable)) => {
                if reusable {
                    check_in(addr, stream);
                }
                return Ok((status, body));
            }
            Err(CallError::Stale) => {} // fall through to a fresh connection
            Err(CallError::Fail(e)) => return Err(format!("{addr}: {e}")),
        }
    }
    let sock = addr
        .to_socket_addrs()
        .map_err(|e| format!("{addr}: resolve: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr}: resolves to no address"))?;
    let mut stream =
        TcpStream::connect_timeout(&sock, timeout).map_err(|e| format!("{addr}: connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    match exchange(&mut stream, request.as_bytes(), true) {
        Ok((status, body, reusable)) => {
            if reusable {
                check_in(addr, stream);
            }
            Ok((status, body))
        }
        Err(CallError::Stale) => unreachable!("fresh exchanges report real errors"),
        Err(CallError::Fail(e)) => Err(format!("{addr}: {e}")),
    }
}

/// Writes `request` and reads the response off one connection. `fresh`
/// distinguishes a just-opened connection (failures are real errors)
/// from a pooled one (failures before any response byte are [`Stale`]).
fn exchange(
    stream: &mut TcpStream,
    request: &[u8],
    fresh: bool,
) -> Result<(u16, String, bool), CallError> {
    if let Err(e) = stream.write_all(request) {
        return Err(if fresh {
            CallError::Fail(format!("write: {e}"))
        } else {
            CallError::Stale
        });
    }
    read_response(stream, fresh)
}

/// Appends one read's worth of bytes to `buf`; returns how many (0 = EOF).
fn read_some<R: Read>(reader: &mut R, buf: &mut Vec<u8>) -> std::io::Result<usize> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match reader.read(&mut chunk) {
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                return Ok(n);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Reads one response: the head through the same capped scan as requests
/// ([`parse_head`]), then the body — exactly `Content-Length` bytes when
/// declared, to EOF otherwise (legal under `Connection: close`), at most
/// 16 MiB either way. Returns the status, the body, and whether the
/// connection may serve another exchange (framed body, nothing past it,
/// no `Connection: close`). EOF before any response byte on a pooled
/// connection is [`CallError::Stale`].
fn read_response<R: Read>(reader: &mut R, fresh: bool) -> Result<(u16, String, bool), CallError> {
    let fail = |e: String| CallError::Fail(e);
    let mut buf = Vec::new();
    let head = loop {
        if let Some(head) = parse_head(&buf).map_err(|e| fail(e.message()))? {
            break head;
        }
        let n = read_some(reader, &mut buf).map_err(|e| fail(format!("read head: {e}")))?;
        if n == 0 {
            return Err(if buf.is_empty() && !fresh {
                CallError::Stale
            } else {
                fail("connection closed before the response head".into())
            });
        }
    };
    // "HTTP/1.1 200 OK" — the middle token is the status.
    let status: u16 = head
        .first_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| fail(format!("bad status line {:?}", head.first_line)))?;
    if let Some(len) = head.content_length.filter(|&len| len > MAX_BODY_BYTES) {
        return Err(fail(format!(
            "response body of {len} bytes exceeds the 16 MiB cap"
        )));
    }
    let end = head.content_length.map(|len| head.len + len);
    while end.is_none_or(|end| buf.len() < end) {
        let n = read_some(reader, &mut buf).map_err(|e| fail(format!("read body: {e}")))?;
        if n == 0 {
            if end.is_some() {
                return Err(fail("connection closed mid-body".into()));
            }
            break;
        }
        if end.is_none() && buf.len() - head.len > MAX_BODY_BYTES {
            return Err(fail("unframed response body exceeds the 16 MiB cap".into()));
        }
    }
    let close = head
        .connection
        .as_deref()
        .is_some_and(|c| c.eq_ignore_ascii_case("close"));
    let reusable = end == Some(buf.len()) && !close;
    buf.truncate(end.unwrap_or(buf.len()));
    let body = String::from_utf8(buf.split_off(head.len))
        .map_err(|_| fail("response body is not UTF-8".to_string()))?;
    Ok((status, body, reusable))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::http::try_parse_request;
    use std::net::TcpListener;

    fn parse(raw: &str) -> Result<(u16, String), String> {
        match read_response(&mut raw.as_bytes(), true) {
            Ok((status, body, _)) => Ok((status, body)),
            Err(CallError::Fail(e)) => Err(e),
            Err(CallError::Stale) => unreachable!("fresh reads report real errors"),
        }
    }

    #[test]
    fn responses_parse_status_and_framed_body() {
        let (status, body) = parse(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
             Content-Length: 12\r\nConnection: close\r\n\r\n{\"ok\":true}\n",
        )
        .unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"ok\":true}\n");

        let (status, body) =
            parse("HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\n{}").unwrap();
        assert_eq!(status, 404);
        assert_eq!(body, "{}");
    }

    #[test]
    fn unframed_bodies_read_to_eof() {
        let (status, body) = parse("HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nhello").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "hello");
    }

    #[test]
    fn malformed_responses_are_errors() {
        assert!(parse("").is_err());
        assert!(parse("garbage\r\n\r\n").is_err());
        assert!(parse("HTTP/1.1 not-a-status\r\n\r\n").is_err());
        assert!(parse("HTTP/1.1 200 OK\r\nContent-Length: nope\r\n\r\n").is_err());
        // declared length longer than the stream
        assert!(parse("HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\nshort").is_err());
    }

    #[test]
    fn reuse_classification_needs_framing_and_no_close() {
        let meta = |raw: &str| match read_response(&mut raw.as_bytes(), true) {
            Ok((_, _, reusable)) => reusable,
            Err(_) => panic!("must parse"),
        };
        assert!(meta(
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{}"
        ));
        assert!(!meta(
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}"
        ));
        assert!(!meta("HTTP/1.1 200 OK\r\nConnection: keep-alive\r\n\r\nx"));
    }

    #[test]
    fn connect_failures_are_errors_not_panics() {
        // A port nothing listens on (reserved port 1 on loopback is a
        // safe bet in the test environment).
        let err = http_call(
            "127.0.0.1:1",
            "GET",
            "/sessions",
            "",
            Duration::from_millis(200),
        )
        .unwrap_err();
        assert!(err.contains("127.0.0.1:1"), "{err}");
    }

    /// Reads one request off `stream` through the server's own parser.
    fn read_one_request(mut stream: &TcpStream) -> bool {
        let (mut buf, mut chunk) = (Vec::new(), [0u8; 1024]);
        while !matches!(try_parse_request(&buf), Ok(Some(_))) {
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => return false,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            }
        }
        true
    }

    #[test]
    fn pooled_connections_are_reused_across_calls() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // Accept ONE connection and answer two framed keep-alive
            // exchanges on it; a client opening a second connection
            // would hang its second call instead.
            let (stream, _) = listener.accept().unwrap();
            let mut served = 0;
            for _ in 0..2 {
                if !read_one_request(&stream) {
                    break;
                }
                (&stream)
                    .write_all(
                        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\
                          Connection: keep-alive\r\n\r\n{}",
                    )
                    .unwrap();
                served += 1;
            }
            served
        });
        let timeout = Duration::from_secs(2);
        assert_eq!(
            http_call(&addr, "GET", "/sessions", "", timeout).unwrap(),
            (200, "{}".to_string())
        );
        assert_eq!(
            http_call(&addr, "GET", "/sessions", "", timeout).unwrap(),
            (200, "{}".to_string())
        );
        assert_eq!(server.join().unwrap(), 2, "both calls share one connection");
    }

    #[test]
    fn stale_pooled_connections_retry_on_a_fresh_one() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // First connection: one keep-alive answer, then close — the
            // pooled connection goes stale. Second connection: answer
            // again, proving the client retried on a fresh socket.
            for _ in 0..2 {
                let (stream, _) = listener.accept().unwrap();
                assert!(read_one_request(&stream));
                (&stream)
                    .write_all(
                        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\
                          Connection: keep-alive\r\n\r\n{}",
                    )
                    .unwrap();
            }
        });
        let timeout = Duration::from_secs(2);
        assert_eq!(
            http_call(&addr, "GET", "/sessions", "", timeout).unwrap().0,
            200
        );
        // The worker closes the pooled connection behind our back...
        std::thread::sleep(Duration::from_millis(50));
        // ...and the next call still succeeds, transparently.
        assert_eq!(
            http_call(&addr, "GET", "/sessions", "", timeout).unwrap().0,
            200
        );
        server.join().unwrap();
    }

    /// A worker that never ends its status line must cost the router a
    /// capped buffer and an error, not unbounded memory.
    #[test]
    fn endless_response_heads_hit_the_line_cap() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            assert!(read_one_request(&stream));
            let mut stream = &stream;
            let _ = stream.write_all(b"HTTP/1.1 200 ");
            let junk = [b'x'; 4096];
            // stream until the client hangs up (64 MiB at most)
            for _ in 0..16 * 1024 {
                if stream.write_all(&junk).is_err() {
                    return true;
                }
            }
            false
        });
        let err = http_call(&addr, "GET", "/sessions", "", Duration::from_secs(5)).unwrap_err();
        assert!(err.contains("header line exceeds"), "{err}");
        assert!(server.join().unwrap(), "the client must hang up");
    }
}

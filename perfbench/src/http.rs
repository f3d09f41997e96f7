//! A minimal HTTP/1.1 client: request rendering, incremental response
//! framing (shared with the load generator), and a keep-alive
//! closed-loop client for set-up, checks and layer probes.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Renders one keep-alive request.
pub fn request(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut out = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n");
    if !body.is_empty() || method == "POST" {
        out.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    out.push_str("\r\n");
    out.push_str(body);
    out.into_bytes()
}

/// One framed response at the front of a buffer.
pub struct Framed {
    /// Status code.
    pub status: u16,
    /// Byte range of the body within the buffer.
    pub body: std::ops::Range<usize>,
    /// Bytes the whole response occupies.
    pub consumed: usize,
}

/// Cuts one complete response off the front of `buf`: `Ok(None)` while
/// it is incomplete. Every response of the flexserve tiers carries a
/// `Content-Length`.
pub fn parse_response(buf: &[u8]) -> Result<Option<Framed>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 header")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut length = None;
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                length = v.trim().parse::<usize>().ok();
            }
        }
    }
    let length = length.ok_or("response without Content-Length")?;
    let start = head_end + 4;
    if buf.len() < start + length {
        return Ok(None);
    }
    Ok(Some(Framed {
        status,
        body: start..start + length,
        consumed: start + length,
    }))
}

/// A keep-alive connection driven one request at a time.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connects with the given per-call timeout.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> Result<Client, String> {
        let stream = TcpStream::connect_timeout(&addr, timeout)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| e.to_string())?;
        stream
            .set_write_timeout(Some(timeout))
            .map_err(|e| e.to_string())?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Sends one request and waits for its response.
    pub fn call(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        self.stream
            .write_all(&request(method, path, body))
            .map_err(|e| format!("{method} {path}: {e}"))?;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some(f) = parse_response(&self.buf)? {
                let body = String::from_utf8_lossy(&self.buf[f.body.clone()]).into_owned();
                self.buf.drain(..f.consumed);
                return Ok((f.status, body));
            }
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("{method} {path}: {e}"))?;
            if n == 0 {
                return Err(format!("{method} {path}: connection closed"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// [`call`](Self::call) that insists on a 200.
    pub fn ok(&mut self, method: &str, path: &str, body: &str) -> Result<String, String> {
        match self.call(method, path, body)? {
            (200, body) => Ok(body),
            (status, body) => Err(format!("{method} {path}: {status} {body}")),
        }
    }
}

/// Parses the `http://<addr>` a daemon announces on its first stdout line.
pub fn announced_addr(line: &str) -> Result<SocketAddr, String> {
    line.split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| format!("no address in announcement {line:?}"))
}

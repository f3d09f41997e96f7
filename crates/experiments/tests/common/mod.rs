//! Client helpers shared by the serving integration tests: one-shot and
//! keep-alive HTTP/1.1 exchanges against a daemon or router.
#![allow(dead_code)] // each test binary uses its own subset

use std::io::{BufRead, Read, Write};
use std::net::{SocketAddr, TcpStream};

use flexserve_workload::JsonValue;

/// One HTTP/1.1 exchange (`Connection: close`); returns (status, body).
pub fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Parses a response body as JSON.
pub fn json(body: &str) -> JsonValue {
    JsonValue::parse(body.trim()).unwrap_or_else(|e| panic!("bad JSON {body:?}: {e}"))
}

/// Reads one framed HTTP response off a persistent connection; returns
/// (status, Connection header value, body read to its `Content-Length`).
pub fn read_framed_response<R: BufRead>(reader: &mut R) -> (u16, String, String) {
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut connection = String::new();
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("header");
        if header.trim().is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("connection") {
                connection = value.trim().to_string();
            } else if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, connection, String::from_utf8(body).expect("utf8"))
}

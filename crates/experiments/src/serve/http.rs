//! Minimal hand-rolled HTTP/1.1 plumbing for both tiers: the one
//! incremental request parser, the head scan it shares with the router's
//! response reader, response rendering, and the serve daemon's route
//! table. No external HTTP crate — the daemons speak just enough HTTP
//! for `curl` and the integration tests, exactly like the rest of the
//! workspace hand-rolls its JSON.

use flexserve_workload::JsonValue;

use super::sessions::DEFAULT_SESSION;

/// One parsed HTTP request: the request line, the body, and whether the
/// client wants the connection kept open afterwards (only the
/// `Content-Length` and `Connection` headers matter).
#[derive(Debug)]
pub(crate) struct HttpRequest {
    pub method: String,
    pub path: String,
    pub body: String,
    /// `Connection: keep-alive` semantics: the HTTP/1.1 default unless
    /// the client sends `Connection: close` (HTTP/1.0 defaults to close
    /// unless it asks for `keep-alive`).
    pub keep_alive: bool,
}

/// Per-line cap on the request line and each header line.
const MAX_HEADER_LINE: usize = 8 * 1024;
/// Cap on the whole header block, request line included.
const MAX_HEADER_BYTES: usize = 32 * 1024;
/// Cap on a declared request body (and on a worker response the router
/// buffers): a daemon on loopback still shouldn't let one message
/// balloon the process.
pub(crate) const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Why reading a request off the wire failed; each variant maps onto the
/// HTTP status the front end answers with before closing the connection.
#[derive(Debug)]
pub(crate) enum HttpError {
    /// The connection stalled mid-request — bytes were received, then the
    /// read timeout fired (408).
    Timeout,
    /// A header line, the header block, or the declared body exceeds its
    /// cap (413).
    TooLarge(String),
    /// Any other framing error (400).
    Malformed(String),
}

impl HttpError {
    /// The HTTP status this error is reported as.
    pub(crate) fn status(&self) -> u16 {
        match self {
            HttpError::Timeout => 408,
            HttpError::TooLarge(_) => 413,
            HttpError::Malformed(_) => 400,
        }
    }

    /// The error body text.
    pub(crate) fn message(&self) -> String {
        match self {
            HttpError::Timeout => "request timed out mid-read".into(),
            HttpError::TooLarge(m) | HttpError::Malformed(m) => m.clone(),
        }
    }

    /// The full error response, which always closes the connection: a
    /// framing error leaves the byte stream unusable.
    pub(crate) fn response(&self) -> Vec<u8> {
        render_response(self.status(), &error_json(&self.message()), false)
    }
}

/// The `{"error": ...}` body every failure is answered with, on both
/// tiers.
pub(crate) fn error_json(message: &str) -> String {
    JsonValue::Obj(vec![("error".into(), JsonValue::from(message))]).render()
}

/// The framing fields of one HTTP message head — a request's or a
/// response's — as scanned by [`parse_head`].
#[derive(Debug)]
pub(crate) struct Head {
    /// The request or status line, without its line ending.
    pub(crate) first_line: String,
    /// The declared body length, if any.
    pub(crate) content_length: Option<usize>,
    /// The last `Connection` header's token, trimmed.
    pub(crate) connection: Option<String>,
    /// Bytes of the head, blank line included: the body starts here.
    pub(crate) len: usize,
}

/// Finds the next `\n` at or after `from`.
fn find_nl(buf: &[u8], from: usize) -> Option<usize> {
    buf[from..]
        .iter()
        .position(|&b| b == b'\n')
        .map(|i| from + i)
}

/// Scans the head at the start of `buf`. Returns `Ok(None)` while the
/// blank line ending it has not arrived, and `Err` as soon as a line
/// passes [`MAX_HEADER_LINE`] (even before its terminator), the block
/// passes [`MAX_HEADER_BYTES`], a `Content-Length` is not a number, or a
/// `Transfer-Encoding` header appears: chunked framing is not spoken, and
/// ignoring it would misread the chunks as the next message. The request
/// parser and the router's response reader share this scan, so both
/// sides of the proxy enforce the same caps.
pub(crate) fn parse_head(buf: &[u8]) -> Result<Option<Head>, HttpError> {
    let line_too_large = || {
        HttpError::TooLarge(format!(
            "header line exceeds the {MAX_HEADER_LINE}-byte cap"
        ))
    };
    let mut first_line: Option<String> = None;
    let mut content_length = None;
    let mut connection = None;
    let mut header_bytes = 0usize;
    let mut pos = 0usize;
    loop {
        let Some(nl) = find_nl(buf, pos) else {
            // more than a full line's worth of bytes with no terminator
            // can never become a valid line
            if buf.len() - pos > MAX_HEADER_LINE {
                return Err(line_too_large());
            }
            return Ok(None);
        };
        let line_len = nl + 1 - pos;
        if line_len > MAX_HEADER_LINE {
            return Err(line_too_large());
        }
        let line = std::str::from_utf8(&buf[pos..nl])
            .map_err(|_| HttpError::Malformed("header is not UTF-8".into()))?;
        pos = nl + 1;
        header_bytes += line_len;
        if first_line.is_none() {
            first_line = Some(line.trim_end_matches('\r').to_string());
            continue;
        }
        if line.trim().is_empty() {
            return Ok(Some(Head {
                first_line: first_line.unwrap_or_default(),
                content_length,
                connection,
                len: pos,
            }));
        }
        if header_bytes > MAX_HEADER_BYTES {
            return Err(HttpError::TooLarge(format!(
                "header block exceeds the {MAX_HEADER_BYTES}-byte cap"
            )));
        }
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            content_length = Some(
                value
                    .parse()
                    .map_err(|_| HttpError::Malformed(format!("bad Content-Length {value:?}")))?,
            );
        } else if name.eq_ignore_ascii_case("connection") {
            connection = Some(value.to_string());
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::Malformed(
                "Transfer-Encoding is not supported; send Content-Length".into(),
            ));
        }
    }
}

/// Parses one request out of a connection's accumulated bytes — the one
/// request parser, used by the epoll reactor and the blocking fallback
/// alike. Returns `Ok(None)` while the buffer holds only a request
/// prefix, `Ok(Some((request, consumed)))` once a whole request (head +
/// body) is present — `consumed` bytes belong to it and any remainder is
/// the next pipelined request — and `Err` on a cap or framing violation
/// (pinned by the proptests below).
pub(crate) fn try_parse_request(buf: &[u8]) -> Result<Option<(HttpRequest, usize)>, HttpError> {
    let Some(head) = parse_head(buf)? else {
        return Ok(None);
    };
    let mut parts = head.first_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("request line has no path".into()))?
        .to_string();
    // HTTP/1.1 (and anything newer) defaults to persistent connections;
    // a bare HTTP/1.0 client must opt in.
    let keep_alive = match head.connection.as_deref() {
        Some(c) if c.eq_ignore_ascii_case("close") => false,
        Some(c) if c.eq_ignore_ascii_case("keep-alive") => true,
        _ => parts.next() != Some("HTTP/1.0"),
    };
    let content_length = head.content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge(format!(
            "body of {content_length} bytes exceeds the 16 MiB cap"
        )));
    }
    let end = head.len + content_length;
    if buf.len() < end {
        return Ok(None); // body still arriving
    }
    let body = std::str::from_utf8(&buf[head.len..end])
        .map_err(|_| HttpError::Malformed("body is not UTF-8".into()))?
        .to_string();
    Ok(Some((
        HttpRequest {
            method,
            path,
            body,
            keep_alive,
        },
        end,
    )))
}

/// The reason phrase for the status codes the daemon emits.
pub(crate) fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        409 => "Conflict",
        410 => "Gone",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        502 => "Bad Gateway",
        _ => "Internal Server Error",
    }
}

/// Renders a full JSON response to bytes. With `keep_alive` the
/// connection stays open for the next request (`Connection:
/// keep-alive`); without it the exchange is closed (`Connection:
/// close`). Bodies always carry an exact `Content-Length`, so persistent
/// connections stay framed.
pub(crate) fn render_response(status: u16, body: &str, keep_alive: bool) -> Vec<u8> {
    let mut body = body.to_string();
    if !body.ends_with('\n') {
        body.push('\n');
    }
    format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{body}",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    )
    .into_bytes()
}

/// A resolved endpoint. The legacy single-session paths (`/step`,
/// `/placement`, `/metrics`, `/checkpoint`) are aliases for the same
/// operations on the session named [`DEFAULT_SESSION`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Route {
    /// `POST /sessions` — create a session from a JSON body.
    CreateSession,
    /// `GET /sessions` — list live sessions.
    ListSessions,
    /// `POST /sessions/<name>/step` (alias `POST /step`).
    Step(String),
    /// `GET /sessions/<name>/placement` (alias `GET /placement`).
    Placement(String),
    /// `GET /sessions/<name>/metrics` (alias `GET /metrics`).
    Metrics(String),
    /// `POST /sessions/<name>/checkpoint` (alias `POST /checkpoint`).
    Checkpoint(String),
    /// `POST /sessions/<name>/events` — append substrate events to the
    /// session's live schedule (no legacy alias; fault injection is a
    /// deliberate, session-scoped act).
    Events(String),
    /// `DELETE /sessions/<name>` — stop and evict a session.
    DeleteSession(String),
}

/// Maps `(method, path)` onto a [`Route`]; `None` is a 404. (`POST
/// /shutdown` never gets here: the front end answers it for both tiers.)
pub(crate) fn route(method: &str, path: &str) -> Option<Route> {
    let legacy = || DEFAULT_SESSION.to_string();
    match (method, path) {
        ("POST", "/sessions") => return Some(Route::CreateSession),
        ("GET", "/sessions") => return Some(Route::ListSessions),
        ("POST", "/step") => return Some(Route::Step(legacy())),
        ("GET", "/placement") => return Some(Route::Placement(legacy())),
        ("GET", "/metrics") => return Some(Route::Metrics(legacy())),
        ("POST", "/checkpoint") => return Some(Route::Checkpoint(legacy())),
        _ => {}
    }
    let rest = path.strip_prefix("/sessions/")?;
    match rest.split_once('/') {
        None => {
            (method == "DELETE" && !rest.is_empty()).then(|| Route::DeleteSession(rest.to_string()))
        }
        Some((name, action)) if !name.is_empty() => match (method, action) {
            ("POST", "step") => Some(Route::Step(name.to_string())),
            ("GET", "placement") => Some(Route::Placement(name.to_string())),
            ("GET", "metrics") => Some(Route::Metrics(name.to_string())),
            ("POST", "checkpoint") => Some(Route::Checkpoint(name.to_string())),
            ("POST", "events") => Some(Route::Events(name.to_string())),
            _ => None,
        },
        Some(_) => None,
    }
}

/// The 404 body's endpoint inventory (kept in sync with `docs/SERVING.md`
/// by `tests/docs_drift.rs`).
pub(crate) const ENDPOINT_LIST: &str = "POST /sessions, GET /sessions, \
     POST /sessions/<name>/step, GET /sessions/<name>/placement, \
     GET /sessions/<name>/metrics, POST /sessions/<name>/checkpoint, \
     POST /sessions/<name>/events, DELETE /sessions/<name>, POST /step, \
     GET /placement, GET /metrics, POST /checkpoint, POST /shutdown";

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn routes_resolve_sessions_and_legacy_aliases() {
        assert_eq!(route("POST", "/sessions"), Some(Route::CreateSession));
        assert_eq!(route("GET", "/sessions"), Some(Route::ListSessions));
        assert_eq!(
            route("POST", "/sessions/alpha/step"),
            Some(Route::Step("alpha".into()))
        );
        assert_eq!(
            route("GET", "/sessions/b2/placement"),
            Some(Route::Placement("b2".into()))
        );
        assert_eq!(
            route("GET", "/sessions/b2/metrics"),
            Some(Route::Metrics("b2".into()))
        );
        assert_eq!(
            route("POST", "/sessions/b2/checkpoint"),
            Some(Route::Checkpoint("b2".into()))
        );
        assert_eq!(
            route("POST", "/sessions/b2/events"),
            Some(Route::Events("b2".into()))
        );
        assert_eq!(
            route("DELETE", "/sessions/alpha"),
            Some(Route::DeleteSession("alpha".into()))
        );
        // legacy aliases hit the default session
        assert_eq!(route("POST", "/step"), Some(Route::Step("default".into())));
        assert_eq!(
            route("GET", "/placement"),
            Some(Route::Placement("default".into()))
        );
        assert_eq!(
            route("GET", "/metrics"),
            Some(Route::Metrics("default".into()))
        );
        assert_eq!(
            route("POST", "/checkpoint"),
            Some(Route::Checkpoint("default".into()))
        );
        // the front end answers shutdown before any tier's routes
        assert_eq!(route("POST", "/shutdown"), None);
    }

    fn parse(raw: &str) -> HttpRequest {
        let (request, consumed) = try_parse_request(raw.as_bytes()).unwrap().unwrap();
        assert_eq!(consumed, raw.len(), "{raw:?}");
        request
    }

    #[test]
    fn parse_honours_connection_semantics() {
        // HTTP/1.1 defaults to keep-alive
        let req = parse("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(req.keep_alive);
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        // explicit close wins
        let req = parse("GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!req.keep_alive);
        // HTTP/1.0 defaults to close, opts back in with keep-alive
        assert!(!parse("GET /metrics HTTP/1.0\r\n\r\n").keep_alive);
        assert!(parse("GET /m HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").keep_alive);
        // body framing
        let req = parse("POST /step HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd");
        assert_eq!(req.body, "abcd");
        // an empty buffer is "keep reading", not an error
        assert!(try_parse_request(b"").unwrap().is_none());
    }

    #[test]
    fn bad_routes_are_none() {
        assert_eq!(route("GET", "/step"), None); // wrong method
        assert_eq!(route("GET", "/sessions/a/events"), None); // wrong method
        assert_eq!(route("POST", "/sessions/"), None); // empty name
        assert_eq!(route("DELETE", "/sessions/a/step"), None);
        assert_eq!(route("POST", "/sessions//step"), None);
        assert_eq!(route("POST", "/sessions/a/evict"), None);
        assert_eq!(route("GET", "/nope"), None);
    }

    #[test]
    fn oversized_requests_are_413() {
        // a single runaway request line
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(9_000));
        let err = try_parse_request(raw.as_bytes()).unwrap_err();
        assert_eq!(err.status(), 413);
        assert!(err.message().contains("header line"), "{}", err.message());
        // a runaway header line
        let raw = format!("GET /m HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "y".repeat(9_000));
        assert_eq!(try_parse_request(raw.as_bytes()).unwrap_err().status(), 413);
        // many medium header lines trip the block cap
        let mut raw = String::from("GET /m HTTP/1.1\r\n");
        for i in 0..10 {
            raw.push_str(&format!("X-Pad-{i}: {}\r\n", "z".repeat(4_000)));
        }
        raw.push_str("\r\n");
        let err = try_parse_request(raw.as_bytes()).unwrap_err();
        assert_eq!(err.status(), 413);
        assert!(err.message().contains("header block"), "{}", err.message());
        // a declared body beyond the 16 MiB cap is refused before it arrives
        let raw = "POST /step HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n";
        let err = try_parse_request(raw.as_bytes()).unwrap_err();
        assert_eq!(err.status(), 413);
        assert!(err.message().contains("16 MiB"), "{}", err.message());
    }

    #[test]
    fn incremental_parse_enforces_the_same_caps() {
        // the line cap fires before the newline ever arrives, on the
        // first line and on a header line alike
        let err = try_parse_request("G".repeat(9_000).as_bytes()).unwrap_err();
        assert_eq!(err.status(), 413);
        let raw = format!("GET /m HTTP/1.1\r\nX-Pad: {}", "y".repeat(9_000));
        assert_eq!(try_parse_request(raw.as_bytes()).unwrap_err().status(), 413);
        // a response head goes through the same scan with the same caps
        let raw = format!("HTTP/1.1 200 OK\r\nX-Pad: {}\r\n\r\n", "y".repeat(9_000));
        let err = parse_head(raw.as_bytes()).unwrap_err();
        assert!(err.message().contains("header line"), "{}", err.message());
        let raw = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection:  close \r\n\r\n{}";
        let head = parse_head(raw.as_bytes()).unwrap().unwrap();
        assert_eq!(head.first_line, "HTTP/1.1 200 OK");
        assert_eq!(head.content_length, Some(2));
        assert_eq!(head.connection.as_deref(), Some("close"));
        assert_eq!(
            head.len,
            raw.len() - 2,
            "the body starts after the blank line"
        );
        // malformed framing is a 400
        let raw = "POST /step HTTP/1.1\r\nContent-Length: nope\r\n\r\n";
        assert_eq!(try_parse_request(raw.as_bytes()).unwrap_err().status(), 400);
        assert_eq!(try_parse_request(b"\r\n\r\n").unwrap_err().status(), 400);
        assert_eq!(try_parse_request(b"GET\r\n\r\n").unwrap_err().status(), 400);
    }

    /// Chunked framing is refused rather than ignored: a parser that
    /// skipped the header would play the round with an empty body and
    /// then read the chunk bytes as a second request.
    #[test]
    fn chunked_request_bodies_are_400() {
        let raw = "POST /step HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n\
                   13\r\n{\"origins\":[7,7,7]}\r\n0\r\n\r\n";
        let err = try_parse_request(raw.as_bytes()).unwrap_err();
        assert_eq!(err.status(), 400);
        assert!(
            err.message().contains("send Content-Length"),
            "{}",
            err.message()
        );
        let text = String::from_utf8(err.response()).unwrap();
        assert!(text.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        // any coding, any case, even next to a Content-Length
        let raw = "POST /step HTTP/1.1\r\nContent-Length: 2\r\ntransfer-encoding : gzip\r\n\r\n{}";
        assert_eq!(try_parse_request(raw.as_bytes()).unwrap_err().status(), 400);
    }

    #[test]
    fn render_response_wire_format() {
        let bytes = render_response(200, "{\"ok\":true}", true);
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(
            text,
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
             Content-Length: 12\r\nConnection: keep-alive\r\n\r\n{\"ok\":true}\n"
        );
        let bytes = render_response(404, "{}\n", false);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}\n"));
    }

    /// A valid request: one of a few methods and paths, an optional
    /// version and `Connection` header, padding headers, and a body whose
    /// bytes come from `fill`.
    fn valid_request((shape, fill): (u64, u64)) -> String {
        let methods = ["GET", "POST", "DELETE"];
        let paths = ["/step", "/sessions", "/sessions/a-b/metrics", "/x?q=1"];
        let versions = ["HTTP/1.1", "HTTP/1.0"];
        let connections = ["", "Connection: close\r\n", "Connection: keep-alive\r\n"];
        let pick = |n: usize, shift: u32| (shape >> shift) as usize % n;
        let body: String = (0..pick(40, 12))
            .map(|i| char::from(b' ' + ((fill >> (i % 8)) as u8).wrapping_add(i as u8) % 95))
            .collect();
        format!(
            "{} {} {}\r\nHost: h\r\n{}X-Pad: {}\r\nContent-Length: {}\r\n\r\n{body}",
            methods[pick(3, 0)],
            paths[pick(4, 2)],
            versions[pick(2, 4)],
            connections[pick(3, 6)],
            "p".repeat(pick(30, 8)),
            body.len()
        )
    }

    /// Parses every request off `buf` the way a connection does: parse,
    /// cut `consumed`, repeat until the parser wants more bytes.
    fn drain_requests(buf: &mut Vec<u8>, out: &mut Vec<(String, String, String, bool)>) {
        while let Some((r, consumed)) = try_parse_request(buf).unwrap() {
            assert!(consumed <= buf.len());
            buf.drain(..consumed);
            out.push((r.method, r.path, r.body, r.keep_alive));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes — raw noise, or noise behind a plausible
        /// request line — never panic the parser, and a parse never
        /// claims more bytes than the buffer holds.
        #[test]
        fn arbitrary_bytes_never_panic(
            noise in prop::collection::vec(0u32..256, 0..300),
            prefixed in 0u32..2,
        ) {
            let mut buf: Vec<u8> = if prefixed == 1 {
                b"POST /step HTTP/1.1\r\nContent-Length: 5\r\n".to_vec()
            } else {
                Vec::new()
            };
            buf.extend(noise.iter().map(|&b| b as u8));
            if let Ok(Some((_, consumed))) = try_parse_request(&buf) {
                prop_assert!(consumed <= buf.len());
            }
            let _ = parse_head(&buf);
        }

        /// Every strict prefix of a valid request is "keep reading", and
        /// a pipelined run of valid requests fed in random pieces parses
        /// to exactly what the whole buffer parses to.
        #[test]
        fn split_requests_parse_like_whole_ones(
            requests in prop::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 1..4),
            cuts in prop::collection::vec(0usize..2000, 0..6),
        ) {
            let wire: String = requests.into_iter().map(valid_request).collect();
            let bytes = wire.as_bytes();
            let (_, first_len) = try_parse_request(bytes).unwrap().unwrap();
            for cut in 0..first_len {
                prop_assert!(
                    try_parse_request(&bytes[..cut]).unwrap().is_none(),
                    "prefix {cut} of {wire:?}"
                );
            }

            let mut whole = Vec::new();
            let mut buf = bytes.to_vec();
            drain_requests(&mut buf, &mut whole);
            prop_assert!(buf.is_empty());

            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (bytes.len() + 1)).collect();
            cuts.push(bytes.len());
            cuts.sort_unstable();
            let (mut split, mut buf, mut from) = (Vec::new(), Vec::new(), 0);
            for cut in cuts {
                buf.extend_from_slice(&bytes[from..cut]);
                from = cut;
                drain_requests(&mut buf, &mut split);
            }
            prop_assert!(buf.is_empty());
            prop_assert_eq!(split, whole);
        }
    }
}

//! The open-loop load generator.
//!
//! One thread drives every connection (no more connections than cores).
//! The arrival schedule — Poisson arrivals, the kind of each request and
//! the session it addresses — is drawn from the seed before the phase
//! starts, so it does not depend on how fast the system answers. A due
//! request is written on a free connection, or waits in arrival order
//! until one frees up; its latency is timed from the moment it was due,
//! so a stall delays every later request and is charged to all of them.
//! How late the generator itself wrote a request that had a free
//! connection is kept as its lag.
//!
//! Requests are not pipelined: the serve daemon answers one request per
//! connection at a time anyway, and the router's accepted sockets leave
//! Nagle's algorithm on, so a pipelined response would wait for the
//! client's next packet to carry the acknowledgement.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::http::{parse_response, request};
use crate::stats::lower_quartile;
use crate::sys::{poll, POLLIN, POLLOUT};
use crate::trace::Tracer;

/// Share of a phase's length the backlog may take to drain after the last
/// arrival before the phase counts as falling behind its offered rate.
pub const DRAIN_SHARE: f64 = 0.1;

/// SplitMix64: a small seeded generator for schedules and inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// What a request does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `POST /sessions/<s>/step` with an empty body: one source round.
    Step,
    /// `POST /sessions/<s>/step` with `{"n": k}`: k source rounds.
    Batch,
    /// `GET /sessions/<s>/placement`.
    Read,
}

/// The request mix of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Share of batched steps.
    pub batch_share: f64,
    /// Share of placement reads.
    pub read_share: f64,
    /// Rounds per batched step.
    pub batch_rounds: u64,
}

impl Mix {
    /// Source rounds one request consumes on average.
    pub fn rounds_per_request(&self) -> f64 {
        (1.0 - self.batch_share - self.read_share) + self.batch_share * self.batch_rounds as f64
    }
}

/// One scheduled request and what became of it.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Request kind.
    pub kind: Kind,
    /// Index of the addressed session.
    pub session: usize,
    /// When it was due, seconds from the phase start.
    pub due: f64,
    /// When a connection was first free for it (its due time, or later
    /// when every connection was busy).
    pub ready: f64,
    /// When the generator wrote it.
    pub sent: f64,
    /// When its response was complete (`NaN` while outstanding).
    pub done: f64,
    /// 2xx and the body has the expected shape.
    pub ok: bool,
}

impl Sample {
    /// Latency from due time to response, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }
}

/// The outcome of one fixed-rate phase.
pub struct Phase {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Every scheduled request, in schedule order.
    pub samples: Vec<Sample>,
    /// Most requests outstanding at once.
    pub backlog_max: usize,
    /// Whether the backlog grew over the phase: draining it after the
    /// last arrival took more than `DRAIN_SHARE` of the phase.
    pub growing: bool,
}

impl Phase {
    /// Latencies (ms) of the successful requests of `kind`.
    pub fn latencies(&self, kind: Kind) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.kind == kind && s.ok)
            .map(Sample::latency_ms)
            .collect()
    }

    /// Requests that failed (error status, wrong body, timeout, refused).
    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    /// Splits the successful requests of `kind` into consecutive windows
    /// of `window_s` seconds (by due time), applies `stat` to each
    /// window's latencies and returns the lower quartile over the windows,
    /// the number of samples, and the lowest quantile `stat` reported.
    ///
    /// Other tenants of a shared machine only ever add latency, and they
    /// come and go within a run; the quieter windows show what the
    /// program itself costs.
    pub fn windowed(
        &self,
        kind: Kind,
        window_s: f64,
        stat: impl Fn(&[f64]) -> Option<(f64, f64)>,
    ) -> (f64, u64, f64) {
        let span = self.samples.last().map_or(0.0, |s| s.due);
        let windows = ((span / window_s).floor() as usize).max(1);
        let mut buckets = vec![Vec::new(); windows];
        for s in self.samples.iter().filter(|s| s.kind == kind && s.ok) {
            let w = ((s.due / window_s) as usize).min(windows - 1);
            buckets[w].push(s.latency_ms());
        }
        let stats: Vec<(f64, f64)> = buckets.iter().filter_map(|b| stat(b)).collect();
        let values: Vec<f64> = stats.iter().map(|&(v, _)| v).collect();
        let q = stats.iter().map(|&(_, q)| q).fold(1.0, f64::min);
        let n = buckets.iter().map(Vec::len).sum::<usize>() as u64;
        (lower_quartile(&values).unwrap_or(0.0), n, q)
    }

    /// Generator lag per request (ms).
    pub fn lags_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| (s.sent - s.ready).max(0.0) * 1e3)
            .collect()
    }
}

/// A schedule: `rate` requests per second for `seconds`.
pub fn schedule(rate: f64, seconds: f64, sessions: usize, mix: &Mix, rng: &mut Rng) -> Vec<Sample> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -rng.unit().ln() / rate;
        if t >= seconds {
            return out;
        }
        let u = rng.unit();
        let kind = if u <= mix.batch_share {
            Kind::Batch
        } else if u <= mix.batch_share + mix.read_share {
            Kind::Read
        } else {
            Kind::Step
        };
        out.push(Sample {
            kind,
            session: rng.below(sessions),
            due: t,
            ready: f64::NAN,
            sent: f64::NAN,
            done: f64::NAN,
            ok: false,
        });
    }
}

struct Conn {
    stream: Option<TcpStream>,
    out: Vec<u8>,
    written: usize,
    inbuf: Vec<u8>,
    /// The request in flight, if any.
    busy: Option<usize>,
    /// When the connection last became free (seconds from phase start).
    free_since: f64,
    /// The request answered by the last [`receive`], for the tracer.
    answered: Option<usize>,
}

/// Rendered requests per (session, kind).
struct Wire {
    step: Vec<Vec<u8>>,
    batch: Vec<Vec<u8>>,
    read: Vec<Vec<u8>>,
}

fn expected_body(kind: Kind, body: &[u8], batch_rounds: u64) -> bool {
    match kind {
        Kind::Step | Kind::Read => body.starts_with(b"{\"t\":"),
        Kind::Batch => {
            body.starts_with(b"[")
                && body.windows(5).filter(|w| w == b"{\"t\":").count() as u64 == batch_rounds
        }
    }
}

/// Where and how a phase sends its requests.
pub struct Target<'a> {
    /// The front end's address.
    pub addr: SocketAddr,
    /// Session names, indexed by [`Sample::session`].
    pub sessions: &'a [String],
    /// The request mix (for the batch body and its expected length).
    pub mix: &'a Mix,
    /// Connections to drive.
    pub conns: usize,
}

/// A request still unanswered this long after the last one was due fails.
const DRAIN: Duration = Duration::from_secs(5);

/// Runs one phase of `samples` at `rate` against `target`. With a tracer,
/// each answered request is recorded as a span.
pub fn run(
    target: &Target<'_>,
    rate: f64,
    mut samples: Vec<Sample>,
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let Target {
        addr,
        sessions,
        mix,
        conns,
    } = *target;
    let wire = Wire {
        step: sessions
            .iter()
            .map(|s| request("POST", &format!("/sessions/{s}/step"), ""))
            .collect(),
        batch: sessions
            .iter()
            .map(|s| {
                let body = format!("{{\"n\":{}}}", mix.batch_rounds);
                request("POST", &format!("/sessions/{s}/step"), &body)
            })
            .collect(),
        read: sessions
            .iter()
            .map(|s| request("GET", &format!("/sessions/{s}/placement"), ""))
            .collect(),
    };
    let connect = || {
        TcpStream::connect_timeout(&addr, Duration::from_secs(2))
            .and_then(|s| {
                s.set_nodelay(true)?;
                s.set_nonblocking(true)?;
                Ok(s)
            })
            .ok()
    };
    let mut pool: Vec<Conn> = (0..conns)
        .map(|_| Conn {
            stream: connect(),
            out: Vec::new(),
            written: 0,
            inbuf: Vec::with_capacity(64 * 1024),
            busy: None,
            free_since: 0.0,
            answered: None,
        })
        .collect();

    // Start a little in the future so the first arrivals are not late.
    let origin = Instant::now() + Duration::from_millis(20);
    let secs = |at: Instant| at.saturating_duration_since(origin).as_secs_f64();
    let last_due = samples.last().map_or(0.0, |s| s.due);
    let give_up = last_due + DRAIN.as_secs_f64();
    // Requests `next..arrived` are due and wait for a free connection.
    let (mut next, mut arrived) = (0usize, 0usize);
    let mut backlog_trace: Vec<usize> = Vec::with_capacity(samples.len());
    let mut chunk = vec![0u8; 64 * 1024];

    loop {
        let now = secs(Instant::now());
        while arrived < samples.len() && samples[arrived].due <= now {
            arrived += 1;
            let in_flight = pool.iter().filter(|c| c.busy.is_some()).count();
            backlog_trace.push(arrived - next + in_flight);
        }
        // Hand waiting requests to free connections, oldest first.
        while next < arrived {
            if pool.iter().all(|c| c.stream.is_none()) {
                // Every connection is gone: the rest can only fail.
                samples[next].ready = now;
                samples[next].sent = now;
                next += 1;
                continue;
            }
            let Some(c) = pool
                .iter_mut()
                .find(|c| c.stream.is_some() && c.busy.is_none())
            else {
                break;
            };
            let s = &mut samples[next];
            s.ready = s.due.max(c.free_since);
            s.sent = secs(Instant::now());
            c.out.extend_from_slice(match s.kind {
                Kind::Step => &wire.step[s.session],
                Kind::Batch => &wire.batch[s.session],
                Kind::Read => &wire.read[s.session],
            });
            c.busy = Some(next);
            next += 1;
            flush(c, &mut samples);
        }
        let in_flight = pool.iter().any(|c| c.busy.is_some());
        if next == samples.len() && !in_flight {
            break;
        }
        let now = secs(Instant::now());
        if now > give_up {
            break;
        }
        // Sleep until a response arrives or the next request is due.
        let wake = if arrived < samples.len() {
            samples[arrived].due
        } else {
            give_up
        };
        let fds: Vec<(i32, i16)> = pool
            .iter()
            .filter_map(|c| {
                let events = if c.written < c.out.len() {
                    POLLIN | POLLOUT
                } else {
                    POLLIN
                };
                c.stream.as_ref().map(|s| (s.as_raw_fd(), events))
            })
            .collect();
        if wake > now && !fds.is_empty() {
            poll(&fds, Duration::from_secs_f64(wake - now));
        }
        for c in pool.iter_mut() {
            flush(c, &mut samples);
            receive(c, &mut samples, &mut chunk, mix, &secs);
            if let (Some(t), Some(idx)) = (tracer.as_deref_mut(), c.answered.take()) {
                let s = &samples[idx];
                let base = t.offset_ns(origin);
                t.record(
                    "loadgen.request",
                    base + (s.due * 1e9) as u64,
                    base + (s.done * 1e9) as u64,
                    None,
                    idx as u64,
                );
            }
        }
    }
    // Whatever is still in flight or waiting timed out.
    let end = secs(Instant::now());
    for c in pool.iter_mut() {
        drop_conn(c, &mut samples, end);
    }
    for s in &mut samples[next..] {
        s.ready = end;
        s.sent = end;
    }

    // A system that keeps up drains within a few service times of the
    // last arrival; one that fell behind needs a share of the phase.
    let last_done = samples
        .iter()
        .map(|s| s.done)
        .filter(|d| d.is_finite())
        .fold(last_due, f64::max);
    let growing = last_done - last_due > DRAIN_SHARE * last_due.max(1.0);
    Phase {
        rate,
        samples,
        backlog_max: backlog_trace.iter().copied().max().unwrap_or(0),
        growing,
    }
}

/// Reads what arrived on a busy connection and completes its request
/// once the whole response is in.
fn receive(
    c: &mut Conn,
    samples: &mut [Sample],
    chunk: &mut [u8],
    mix: &Mix,
    secs: &dyn Fn(Instant) -> f64,
) {
    let Some(stream) = c.stream.as_mut() else {
        return;
    };
    let mut broken = false;
    loop {
        match stream.read(chunk) {
            Ok(0) => {
                broken = true;
                break;
            }
            Ok(n) => c.inbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                broken = true;
                break;
            }
        }
    }
    let now = secs(Instant::now());
    match parse_response(&c.inbuf) {
        Ok(Some(f)) => match c.busy.take() {
            Some(idx) if f.consumed == c.inbuf.len() => {
                let s = &mut samples[idx];
                s.done = now;
                s.ok = (200..300).contains(&f.status)
                    && expected_body(s.kind, &c.inbuf[f.body], mix.batch_rounds);
                c.inbuf.clear();
                c.free_since = now;
                c.answered = Some(idx);
            }
            // A response nobody asked for: the stream is out of step.
            other => {
                c.busy = other;
                broken = true;
            }
        },
        Ok(None) => {}
        Err(_) => broken = true,
    }
    if broken {
        drop_conn(c, samples, now);
    }
}

/// Writes as much of the connection's pending output as the socket takes.
fn flush(c: &mut Conn, samples: &mut [Sample]) {
    let Some(stream) = c.stream.as_mut() else {
        return;
    };
    while c.written < c.out.len() {
        match stream.write(&c.out[c.written..]) {
            Ok(0) => break,
            Ok(n) => c.written += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                drop_conn(c, samples, f64::NAN);
                return;
            }
        }
    }
    if c.written == c.out.len() {
        c.out.clear();
        c.written = 0;
    }
}

/// Closes a connection; its request in flight fails.
fn drop_conn(c: &mut Conn, samples: &mut [Sample], at: f64) {
    c.stream = None;
    c.out.clear();
    c.written = 0;
    if let Some(idx) = c.busy.take() {
        samples[idx].done = at;
        samples[idx].ok = false;
    }
}

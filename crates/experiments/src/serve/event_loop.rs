//! The one HTTP front end both tiers run on. `flexserve serve` and
//! `flexserve route` each supply a request [`Handler`]; this module owns
//! everything else: the listener, every connection, keep-alive and
//! deadlines, the thread pool, `POST /shutdown` and SIGTERM.
//!
//! One pool of threads (`workers=` for `serve`, `threads=` for `route`)
//! waits on one shared epoll set, in which every connection is registered
//! `EPOLLONESHOT`. The thread that receives a connection's readiness owns
//! the connection until it re-arms it: it reads, parses incrementally, runs
//! the tier's handler, writes the response and re-arms, so a request costs
//! one thread wakeup and never changes threads. Each `epoll_wait` takes a
//! single event, so any idle thread serves any ready connection and one
//! slow request stalls no other. An idle connection costs one file
//! descriptor and ~100 bytes of table state, so 10k idle keep-alive clients
//! cost fds, not threads, and cannot starve a request. Like the mmap shim
//! in `flexserve_workload::packed`, the epoll plumbing is a hand-rolled
//! `extern "C"` shim over raw syscalls (`epoll_create1` / `epoll_ctl` /
//! `epoll_wait`, `pipe2` for the shutdown wakeup, `setrlimit` to lift the
//! fd soft cap) — no new dependencies. The front end needs epoll: off
//! Linux, [`FrontEnd::new`] refuses, so a tier fails before it creates,
//! probes or announces anything. The `reactor-threads=` serve key is still
//! accepted but has no effect.
//!
//! ```text
//!  accept loop ──▶ connection table, EPOLL_CTL_ADD (one-shot EPOLLIN)
//!                          │ readiness: one event per epoll_wait
//!                          ▼
//!  any pool thread: take the connection out of the table ► read ►
//!  try_parse_request ► POST /shutdown, or the tier's handler ►
//!  render_response ► write ► put it back and re-arm it (EPOLLIN, or
//!  EPOLLOUT for the rest of a short write)
//! ```
//!
//! A connection in the table is reading (EPOLLIN armed) or writing
//! (EPOLLOUT armed, draining a response the socket would not take at
//! once). One a thread has taken out has nothing armed, so a flooding
//! client cannot make the front end buffer unboundedly, and the deadline
//! sweep (run by whichever thread finds it due) does not see it. A
//! connection that has never completed a request gets the request timeout,
//! an idle keep-alive connection gets [`KEEP_ALIVE_IDLE`]; expiry with a
//! half-read request answers 408 and closes, expiry with an empty buffer
//! closes quietly.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use super::http::{render_response, HttpRequest};

#[cfg(target_os = "linux")]
pub use linux::raise_nofile_limit;
#[cfg(target_os = "linux")]
use linux::run_pool;

/// How long a persistent connection may sit idle between requests before
/// the front end closes it. Short on purpose: an idle connection still
/// costs a file descriptor and a connection-table slot.
pub(crate) const KEEP_ALIVE_IDLE: Duration = Duration::from_secs(10);

/// A tier's request handler: one parsed request in, status and JSON body
/// out. It never sees `POST /shutdown`, which the front end answers.
pub(crate) type Handler<'a> = dyn Fn(&HttpRequest) -> (u16, String) + Sync + 'a;

/// What the front end shares with the tier it serves.
pub(crate) struct FrontEnd {
    /// `"serve"` or `"route"`: names threads and log lines.
    pub(crate) tier: &'static str,
    /// Set once shutdown begins (by `POST /shutdown`, SIGTERM, or the
    /// front end returning); the tier's background threads poll it.
    pub(crate) shutdown: AtomicBool,
    /// The bound listener address, target of the shutdown self-poke.
    pub(crate) addr: SocketAddr,
    /// Bound on a connection's first request and on draining a response.
    pub(crate) request_timeout: Duration,
    /// Off Linux no front end can exist: it is built on epoll.
    #[cfg(not(target_os = "linux"))]
    unsupported: std::convert::Infallible,
}

/// One answered request: the wire bytes, whether the connection stays
/// open, and whether shutdown begins once the bytes are written.
struct Reply {
    bytes: Vec<u8>,
    keep_alive: bool,
    shutdown: bool,
}

impl FrontEnd {
    /// The front end of `tier` on `addr`. Tiers make it before anything
    /// else, since it refuses off Linux.
    #[cfg(target_os = "linux")]
    pub(crate) fn new(
        tier: &'static str,
        addr: SocketAddr,
        request_timeout: Duration,
    ) -> Result<Self, String> {
        Ok(FrontEnd {
            tier,
            shutdown: AtomicBool::new(false),
            addr,
            request_timeout,
        })
    }

    /// Off Linux there is no front end: it is built on epoll.
    #[cfg(not(target_os = "linux"))]
    pub(crate) fn new(tier: &'static str, _: SocketAddr, _: Duration) -> Result<Self, String> {
        Err(format!(
            "{tier}: the HTTP front end needs epoll, which only Linux has"
        ))
    }

    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flags the front end down and pokes the accept loop awake with a
    /// dummy connection so it observes the flag without waiting for a
    /// real client.
    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let mut addr = self.addr;
        // A wildcard bind (0.0.0.0 / ::) is not a connectable address.
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
    }

    /// Answers one request: `POST /shutdown` here, for both tiers, and
    /// everything else through the tier's handler.
    fn answer(&self, request: &HttpRequest, handler: &Handler<'_>) -> Reply {
        if request.method == "POST" && request.path == "/shutdown" {
            return Reply {
                bytes: render_response(200, "{\"ok\":true}", false),
                keep_alive: false,
                shutdown: true,
            };
        }
        let (status, body) = handler(request);
        // A front end going down closes as it answers, so it drains
        // instead of waiting out every open keep-alive window.
        let keep_alive = request.keep_alive && !self.is_shutting_down();
        Reply {
            bytes: render_response(status, &body, keep_alive),
            keep_alive,
            shutdown: false,
        }
    }
}

/// The startup warning for listeners reachable from other hosts, or
/// `None` on loopback.
pub(crate) fn non_loopback_warning(tier: &str, addr: &SocketAddr) -> Option<String> {
    (!addr.ip().is_loopback()).then(|| {
        format!(
            "flexserve {tier}: WARNING: listening on non-loopback {addr} — it has no \
             authentication; only expose it on trusted networks"
        )
    })
}

/// Serves `listener` with `handler` until shutdown (`POST /shutdown` or
/// SIGTERM) on a pool of `threads` threads. Warns first when the listener
/// is reachable from other hosts. Returns with the shutdown flag set, once
/// every connection has drained and every thread has been joined.
#[cfg(target_os = "linux")]
pub(crate) fn run_front_end(
    listener: TcpListener,
    front: &FrontEnd,
    threads: usize,
    handler: &Handler<'_>,
) -> Result<(), String> {
    if let Some(warning) = non_loopback_warning(front.tier, &front.addr) {
        daemon_log!("{warning}");
    }
    let result = run_pool(listener, front, threads, handler);
    front.shutdown.store(true, Ordering::SeqCst);
    result
}

/// Off Linux no [`FrontEnd`] exists to run.
#[cfg(not(target_os = "linux"))]
pub(crate) fn run_front_end(
    _: TcpListener,
    front: &FrontEnd,
    _: usize,
    _: &Handler<'_>,
) -> Result<(), String> {
    match front.unsupported {}
}

/// No rlimit shim off Linux; reports 0 ("unknown").
#[cfg(not(target_os = "linux"))]
pub fn raise_nofile_limit() -> u64 {
    0
}

#[cfg(target_os = "linux")]
mod linux {
    use std::collections::HashMap;
    use std::io::{ErrorKind, Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::{AsRawFd, OwnedFd};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    use super::super::http::{try_parse_request, HttpError};
    use super::{FrontEnd, Handler, Reply, KEEP_ALIVE_IDLE};

    /// Raw syscall shims (same vendoring philosophy as the mmap shim in
    /// `flexserve_workload::packed`): just the epoll, pipe and rlimit
    /// surface the front end needs, against the platform libc the binary
    /// already links.
    mod sys {
        use std::ffi::c_void;
        use std::os::fd::{FromRawFd, OwnedFd};

        pub const EPOLLIN: u32 = 0x1;
        pub const EPOLLOUT: u32 = 0x4;
        pub const EPOLLERR: u32 = 0x8;
        pub const EPOLLHUP: u32 = 0x10;
        pub const EPOLLONESHOT: u32 = 1 << 30;
        pub const EPOLL_CTL_ADD: i32 = 1;
        pub const EPOLL_CTL_MOD: i32 = 3;
        const EPOLL_CLOEXEC: i32 = 0o2000000;
        const O_NONBLOCK: i32 = 0o4000;
        const O_CLOEXEC: i32 = 0o2000000;
        const RLIMIT_NOFILE: i32 = 7;

        /// The kernel's `struct epoll_event`; packed on x86 so the
        /// 64-bit data member sits at offset 4, matching the ABI.
        #[repr(C)]
        #[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(packed))]
        #[derive(Clone, Copy)]
        pub struct EpollEvent {
            pub events: u32,
            pub data: u64,
        }

        #[repr(C)]
        struct RLimit {
            cur: u64,
            max: u64,
        }

        extern "C" {
            fn epoll_create1(flags: i32) -> i32;
            fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
            fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
            fn pipe2(fds: *mut i32, flags: i32) -> i32;
            fn read(fd: i32, buf: *mut c_void, count: usize) -> isize;
            fn write(fd: i32, buf: *const c_void, count: usize) -> isize;
            fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
            fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
        }

        /// Takes ownership of a descriptor a syscall just returned (or
        /// reports the syscall's error), so it closes on drop.
        fn owned(fd: i32) -> std::io::Result<OwnedFd> {
            if fd < 0 {
                return Err(std::io::Error::last_os_error());
            }
            // SAFETY: a non-negative return is a fresh descriptor that
            // nothing else in the process owns yet.
            Ok(unsafe { OwnedFd::from_raw_fd(fd) })
        }

        pub fn create() -> std::io::Result<OwnedFd> {
            // SAFETY: takes only a flag word and touches no memory.
            owned(unsafe { epoll_create1(EPOLL_CLOEXEC) })
        }

        pub fn ctl(epfd: i32, op: i32, fd: i32, events: u32, data: u64) -> std::io::Result<()> {
            let mut ev = EpollEvent { events, data };
            // SAFETY: `ev` is a live, ABI-laid-out `epoll_event` the
            // kernel reads during the call only.
            let rc = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn wait(
            epfd: i32,
            events: &mut [EpollEvent],
            timeout_ms: i32,
        ) -> std::io::Result<usize> {
            // SAFETY: the kernel writes at most `events.len()` entries
            // into the exclusively borrowed slice.
            let n =
                unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms) };
            if n < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(n as usize)
        }

        /// A nonblocking self-pipe: `(read_end, write_end)`.
        pub fn wake_pipe() -> std::io::Result<(OwnedFd, OwnedFd)> {
            let mut fds = [-1i32; 2];
            // SAFETY: `pipe2` writes exactly two fds into the 2-slot array.
            if unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) } < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok((owned(fds[0])?, owned(fds[1])?))
        }

        /// One byte down the wake pipe; a full pipe means a wakeup is
        /// already pending, so failures are ignored. Async-signal-safe:
        /// one `write(2)` and nothing else.
        pub fn poke(fd: i32) {
            let byte = [1u8];
            // SAFETY: reads one byte from a live 1-byte array; a stale
            // fd only makes the call fail.
            let _ = unsafe { write(fd, byte.as_ptr() as *const c_void, 1) };
        }

        /// Drains pending wake bytes (a level-triggered wait reports any
        /// left beyond one read).
        pub fn drain(fd: i32) {
            let mut buf = [0u8; 256];
            // SAFETY: the kernel writes at most `buf.len()` bytes into the
            // exclusively borrowed array; the fd is nonblocking.
            let _ = unsafe { read(fd, buf.as_mut_ptr() as *mut c_void, buf.len()) };
        }

        /// Lifts the `RLIMIT_NOFILE` soft limit to the hard limit and
        /// returns the resulting soft limit (connections cost fds, so the
        /// default 1024 would cap the daemon long before memory does).
        pub fn raise_nofile() -> u64 {
            let mut lim = RLimit { cur: 0, max: 0 };
            // SAFETY: `lim` is a live `struct rlimit` the kernel fills.
            if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
                return 0;
            }
            if lim.cur < lim.max {
                let want = RLimit {
                    cur: lim.max,
                    max: lim.max,
                };
                // SAFETY: `want` is a live `struct rlimit` the kernel reads.
                if unsafe { setrlimit(RLIMIT_NOFILE, &want) } == 0 {
                    return want.cur;
                }
            }
            lim.cur
        }
    }

    /// SIGTERM: the handler flags the signal and writes one byte to the
    /// running pool's wake pipe, both async-signal-safe, so a pool thread
    /// wakes at once and turns it into the same graceful shutdown as
    /// `POST /shutdown`.
    mod sigterm {
        use std::sync::atomic::{AtomicBool, AtomicI32, AtomicUsize, Ordering::SeqCst};

        static TERM: AtomicBool = AtomicBool::new(false);
        /// The write end of the wake pipe of the pool SIGTERM stops, or -1.
        static WAKE_FD: AtomicI32 = AtomicI32::new(-1);
        /// Handlers that may still write to a `WAKE_FD` they loaded.
        static IN_HANDLER: AtomicUsize = AtomicUsize::new(0);

        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
            fn __errno_location() -> *mut i32;
        }

        extern "C" fn on_term(_signum: i32) {
            // SAFETY: `__errno_location` returns this thread's errno slot,
            // valid for the thread's life; saving and restoring it keeps a
            // failed `write` from clobbering the errno of the code this
            // handler interrupted.
            let errno = unsafe { *__errno_location() };
            TERM.store(true, SeqCst);
            IN_HANDLER.fetch_add(1, SeqCst);
            let fd = WAKE_FD.load(SeqCst);
            if fd >= 0 {
                super::sys::poke(fd);
            }
            IN_HANDLER.fetch_sub(1, SeqCst);
            // SAFETY: as above.
            unsafe { *__errno_location() = errno };
        }

        /// Installs the handler, pointed at the wake pipe `wake_w`, and
        /// clears any flag left by a previous front end in this process
        /// (tests run several lifecycles per binary).
        pub(super) fn install(wake_w: i32) {
            const SIGTERM: i32 = 15;
            TERM.store(false, SeqCst);
            WAKE_FD.store(wake_w, SeqCst);
            // SAFETY: `signal` is libc's, declared with its C signature;
            // `on_term` is an `extern "C" fn(i32)` that only touches
            // static atomics, errno and `write(2)`, all async-signal-safe.
            unsafe {
                signal(SIGTERM, on_term);
            }
        }

        /// Points the handler away from `wake_w` and waits out any handler
        /// that loaded it before, so the pipe can close without a late
        /// byte landing on a reused descriptor number.
        pub(super) fn release(wake_w: i32) {
            let _ = WAKE_FD.compare_exchange(wake_w, -1, SeqCst, SeqCst);
            while IN_HANDLER.load(SeqCst) != 0 {
                std::hint::spin_loop();
            }
        }

        /// True once per SIGTERM received since [`install`].
        pub(super) fn take() -> bool {
            TERM.swap(false, SeqCst)
        }
    }

    /// Lifts this process's fd soft limit (`RLIMIT_NOFILE`) to its hard
    /// limit and returns the new soft limit. Exposed for the soak tests
    /// and benches whose *clients* also hold 10k sockets.
    pub fn raise_nofile_limit() -> u64 {
        sys::raise_nofile()
    }

    /// The epoll token of the wake pipe (connection ids start at 0 and
    /// count up, so the maximum is free).
    const WAKE_TOKEN: u64 = u64::MAX;
    /// Connections are registered one-shot: each readiness event disarms
    /// the connection until its owner re-arms it, so exactly one thread
    /// receives it.
    const READABLE: u32 = sys::EPOLLIN | sys::EPOLLONESHOT;
    const WRITABLE: u32 = sys::EPOLLOUT | sys::EPOLLONESHOT;
    /// How long `epoll_wait` may sleep between deadline sweeps.
    const TICK_MS: i32 = 100;
    /// Stop pulling bytes off a connection once this much is buffered
    /// unparsed; the one-shot re-arm resumes the read once the buffer
    /// drains (the HTTP caps bound any *single* request much earlier —
    /// this bounds a pipelined flood).
    const READ_HIGH_WATER: usize = 1024 * 1024;
    /// How long a shutting-down pool waits for in-flight responses before
    /// force-closing what's left.
    const SHUTDOWN_GRACE: Duration = Duration::from_secs(30);

    /// Per-connection state: ~100 bytes plus whatever is buffered, which
    /// is the whole cost of an idle keep-alive client.
    struct Conn {
        /// Shared only while the connection is being armed, so the fd
        /// number cannot be reused under that `epoll_ctl`.
        stream: Arc<TcpStream>,
        /// Received-but-unparsed bytes.
        buf: Vec<u8>,
        /// A response, written from `out_pos` on; empty when not writing.
        out: Vec<u8>,
        out_pos: usize,
        /// Whether any response has been written in full — picks between
        /// the first-request timeout and the keep-alive window.
        served_any: bool,
        /// The peer half-closed; serve what is buffered, then close.
        peer_eof: bool,
        close_after_write: bool,
        /// Last byte received, or the last write progress; deadlines key
        /// off it.
        last: Instant,
    }

    /// What a connection waits for once its owner lets go of it.
    enum Next {
        Read,
        Write,
        Close,
    }

    impl Conn {
        fn new(stream: Arc<TcpStream>) -> Self {
            Conn {
                stream,
                buf: Vec::new(),
                out: Vec::new(),
                out_pos: 0,
                served_any: false,
                peer_eof: false,
                close_after_write: false,
                last: Instant::now(),
            }
        }

        fn writing(&self) -> bool {
            self.out_pos < self.out.len()
        }

        fn expired(&self, now: Instant, request_timeout: Duration) -> bool {
            let limit = if self.served_any && !self.writing() {
                KEEP_ALIVE_IDLE
            } else {
                request_timeout
            };
            now.duration_since(self.last) > limit
        }

        /// Reads what the socket holds through the thread's `chunk`, up
        /// to [`READ_HIGH_WATER`] buffered; false when the connection
        /// failed.
        fn read_in(&mut self, chunk: &mut [u8]) -> bool {
            loop {
                match (&*self.stream).read(chunk) {
                    Ok(0) => {
                        self.peer_eof = true;
                        return true;
                    }
                    Ok(n) => {
                        self.buf.extend_from_slice(&chunk[..n]);
                        self.last = Instant::now();
                        // A short read emptied the socket; whatever comes
                        // later is reported once the connection is re-armed.
                        if n < chunk.len() || self.buf.len() >= READ_HIGH_WATER {
                            return true;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => return false,
                }
            }
        }

        /// Writes as much of the pending response as the socket takes
        /// without blocking; `Some(next)` when the connection cannot go on
        /// to its next request yet.
        fn write_out(&mut self) -> Option<Next> {
            if !self.writing() {
                return None;
            }
            while self.writing() {
                match (&*self.stream).write(&self.out[self.out_pos..]) {
                    Ok(0) => return Some(Next::Close),
                    Ok(n) => self.out_pos += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        self.last = Instant::now();
                        return Some(Next::Write);
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => return Some(Next::Close),
                }
            }
            self.out = Vec::new();
            self.out_pos = 0;
            self.served_any = true;
            self.last = Instant::now();
            self.close_after_write.then_some(Next::Close)
        }
    }

    /// The open connections nobody owns right now, by epoll token.
    struct Table {
        conns: HashMap<u64, Conn>,
        next_id: u64,
    }

    /// The front end's one pool: the shared epoll set, the connection
    /// table, and the shutdown wake pipe.
    struct Pool<'a> {
        front: &'a FrontEnd,
        handler: &'a Handler<'a>,
        epfd: OwnedFd,
        wake_r: OwnedFd,
        wake_w: OwnedFd,
        table: Mutex<Table>,
        /// When the pool started; `last_sweep_ms` counts from it.
        started: Instant,
        last_sweep_ms: AtomicU64,
        /// Pool threads that have not exited; the last one drains the
        /// shutdown.
        running: AtomicUsize,
    }

    impl<'a> Pool<'a> {
        fn new(
            front: &'a FrontEnd,
            handler: &'a Handler<'a>,
            threads: usize,
        ) -> Result<Self, String> {
            let tier = front.tier;
            let epfd = sys::create().map_err(|e| format!("{tier}: epoll_create1: {e}"))?;
            let (wake_r, wake_w) = sys::wake_pipe().map_err(|e| format!("{tier}: pipe2: {e}"))?;
            // Level-triggered: a pending wake byte wakes every waiting
            // thread until the last one left drains it.
            sys::ctl(
                epfd.as_raw_fd(),
                sys::EPOLL_CTL_ADD,
                wake_r.as_raw_fd(),
                sys::EPOLLIN,
                WAKE_TOKEN,
            )
            .map_err(|e| format!("{tier}: epoll_ctl(wake): {e}"))?;
            Ok(Pool {
                front,
                handler,
                epfd,
                wake_r,
                wake_w,
                table: Mutex::new(Table {
                    conns: HashMap::new(),
                    next_id: 0,
                }),
                started: Instant::now(),
                last_sweep_ms: AtomicU64::new(0),
                running: AtomicUsize::new(threads),
            })
        }

        /// Puts a freshly accepted connection in the table and arms it.
        fn add(&self, stream: TcpStream) {
            // NODELAY because every exchange is a small request/response
            // pair; O_NONBLOCK before any pool thread sees the fd.
            let _ = stream.set_nodelay(true);
            let _ = stream.set_nonblocking(true);
            let stream = Arc::new(stream);
            let id = {
                let mut table = self.table.lock().unwrap();
                let id = table.next_id;
                table.next_id += 1;
                table.conns.insert(id, Conn::new(Arc::clone(&stream)));
                id
            };
            let (ep, fd) = (self.epfd.as_raw_fd(), stream.as_raw_fd());
            if sys::ctl(ep, sys::EPOLL_CTL_ADD, fd, READABLE, id).is_err() {
                self.table.lock().unwrap().conns.remove(&id);
            }
        }

        /// One pool thread: take one ready event at a time and carry it as
        /// far as it goes, sweep deadlines when due, and leave on shutdown.
        fn run(&self) {
            let mut events = [sys::EpollEvent { events: 0, data: 0 }];
            // One read buffer per thread, not one per event.
            let mut chunk = vec![0u8; 16 * 1024];
            let mut shutdown_seen: Option<Instant> = None;
            loop {
                match sys::wait(self.epfd.as_raw_fd(), &mut events, TICK_MS) {
                    Ok(0) => {}
                    Ok(_) if { events[0].data } == WAKE_TOKEN => {
                        if sigterm::take() {
                            // Flag first: the signal is consumed, so
                            // nothing after `take` may stand between it
                            // and the shutdown.
                            self.front.begin_shutdown();
                            daemon_log!("flexserve {}: SIGTERM — shutting down", self.front.tier);
                        } else if !self.front.is_shutting_down() {
                            sys::drain(self.wake_r.as_raw_fd()); // a stray byte
                        }
                    }
                    Ok(_) => {
                        let ev = events[0];
                        self.on_event(ev.data, ev.events, &mut chunk);
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => {
                        daemon_log!("{}: epoll_wait: {e}", self.front.tier);
                        self.running.fetch_sub(1, Ordering::SeqCst);
                        self.front.begin_shutdown();
                        return;
                    }
                }
                let now = Instant::now();
                self.sweep_if_due(now);
                if !self.front.is_shutting_down() {
                    continue;
                }
                // Every thread but the last leaves at once; the last closes
                // idle connections and waits for in-flight responses (sent
                // with `Connection: close`).
                let others = self
                    .running
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                        (n > 1).then(|| n - 1)
                    });
                if others.is_ok() {
                    return;
                }
                // Nobody is left to wake; drained, the pipe lets this
                // thread sleep between events.
                sys::drain(self.wake_r.as_raw_fd());
                let started = *shutdown_seen.get_or_insert(now);
                let mut table = self.table.lock().unwrap();
                table.conns.retain(|_, conn| conn.writing());
                if table.conns.is_empty() || now.duration_since(started) > SHUTDOWN_GRACE {
                    return;
                }
            }
        }

        /// Takes connection `id` out of the table for one readiness event
        /// and serves it until it must wait again.
        fn on_event(&self, id: u64, bits: u32, chunk: &mut [u8]) {
            let Some(mut conn) = self.table.lock().unwrap().conns.remove(&id) else {
                return; // closed by the sweep since the event fired
            };
            if bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
                return;
            }
            if bits & sys::EPOLLIN != 0 && !conn.writing() && !conn.peer_eof && !conn.read_in(chunk)
            {
                return;
            }
            let next = self.serve(&mut conn);
            self.settle(id, conn, next);
        }

        /// Runs an owned connection as far as it goes without blocking:
        /// finishes a pending write, then answers every complete request
        /// in the buffer, in order. A framing error answers the parser's
        /// status and closes.
        fn serve(&self, conn: &mut Conn) -> Next {
            let mut shutdown_after_write = false;
            loop {
                let blocked = conn.write_out();
                // After the response: the shutdown answer reaches the
                // client before the teardown.
                if std::mem::take(&mut shutdown_after_write) {
                    self.front.begin_shutdown();
                }
                if let Some(next) = blocked {
                    return next;
                }
                let reply = match try_parse_request(&conn.buf) {
                    Ok(Some((request, consumed))) => {
                        conn.buf.drain(..consumed);
                        self.front.answer(&request, self.handler)
                    }
                    Ok(None) if conn.peer_eof => return Next::Close,
                    Ok(None) => return Next::Read,
                    Err(e) => Reply {
                        bytes: e.response(),
                        keep_alive: false,
                        shutdown: false,
                    },
                };
                conn.out = reply.bytes;
                conn.close_after_write = !reply.keep_alive;
                shutdown_after_write = reply.shutdown;
            }
        }

        /// Hands a connection back: into the table and re-armed, or closed
        /// (dropping the last handle closes the fd, which also leaves the
        /// epoll set).
        fn settle(&self, id: u64, conn: Conn, next: Next) {
            let events = match next {
                Next::Read => READABLE,
                Next::Write => WRITABLE,
                Next::Close => return,
            };
            // Back in the table before it is re-armed, so whichever thread
            // takes its next event finds it; the held handle keeps the fd
            // number from being reused should the sweep close it between.
            let stream = Arc::clone(&conn.stream);
            self.table.lock().unwrap().conns.insert(id, conn);
            let (ep, fd) = (self.epfd.as_raw_fd(), stream.as_raw_fd());
            if sys::ctl(ep, sys::EPOLL_CTL_MOD, fd, events, id).is_err() {
                self.table.lock().unwrap().conns.remove(&id);
            }
        }

        /// Expires deadlines, at most once per tick across the pool (the
        /// sweep walks every connection, so a busy pool holding 10k idle
        /// ones would otherwise pay an O(connections) scan per request):
        /// stalled mid-request → 408 and close; idle with nothing buffered
        /// → quiet close; a response the peer won't drain → close.
        fn sweep_if_due(&self, now: Instant) {
            let now_ms = now.duration_since(self.started).as_millis() as u64;
            let last = self.last_sweep_ms.load(Ordering::Relaxed);
            if now_ms < last + TICK_MS as u64
                || self
                    .last_sweep_ms
                    .compare_exchange(last, now_ms, Ordering::Relaxed, Ordering::Relaxed)
                    .is_err()
            {
                return;
            }
            let timeout = self.front.request_timeout;
            let expired: Vec<(u64, Conn)> = (self.table.lock().unwrap().conns)
                .extract_if(|_, conn| conn.expired(now, timeout))
                .collect();
            for (id, mut conn) in expired {
                if !conn.writing() && !conn.buf.is_empty() {
                    conn.out = HttpError::Timeout.response();
                    conn.close_after_write = true;
                    let next = conn.write_out().unwrap_or(Next::Close);
                    self.settle(id, conn, next);
                }
            }
        }
    }

    /// The pool: `threads` threads serve the shared epoll set while the
    /// caller's thread accepts connections into it, until shutdown.
    pub(super) fn run_pool(
        listener: TcpListener,
        front: &FrontEnd,
        threads: usize,
        handler: &Handler<'_>,
    ) -> Result<(), String> {
        raise_nofile_limit();
        let pool = Pool::new(front, handler, threads)?;
        let wake_w = pool.wake_w.as_raw_fd();
        sigterm::install(wake_w);
        let tier = front.tier;
        let spawned = std::thread::scope(|s| {
            let pool = &pool;
            let mut spawn_error = None;
            for i in 0..threads {
                if let Err(e) = std::thread::Builder::new()
                    .name(format!("{tier}-worker-{i}"))
                    .spawn_scoped(s, move || pool.run())
                {
                    spawn_error.get_or_insert(e);
                    pool.running.fetch_sub(1, Ordering::SeqCst);
                }
            }
            if spawn_error.is_none() {
                for stream in listener.incoming() {
                    if front.is_shutting_down() {
                        break;
                    }
                    match stream {
                        Ok(conn) => pool.add(conn),
                        Err(e) => daemon_log!("{tier}: accept error: {e}"),
                    }
                }
            }
            // Whatever stopped the accept loop, the pool must see the flag
            // to wind down.
            front.shutdown.store(true, Ordering::SeqCst);
            sys::poke(wake_w);
            spawn_error
        });
        sigterm::release(wake_w);
        match spawned {
            Some(e) => Err(format!("{tier}: cannot spawn a front-end thread: {e}")),
            None => Ok(()),
        }
    }
}

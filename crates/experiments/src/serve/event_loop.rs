//! The one HTTP front end both tiers run on. `flexserve serve` and
//! `flexserve route` each supply a request [`Handler`]; this module owns
//! everything else: the listener, every connection, keep-alive and
//! deadlines, the worker pool, `POST /shutdown` and SIGTERM.
//!
//! On Linux a small fixed pool of epoll reactor threads (`reactor-threads=`
//! for `serve`, two for `route`) owns every connection, parses requests
//! incrementally off readiness events, and hands complete requests to the
//! worker pool (`workers=` for `serve`, `threads=` for `route`). An idle
//! connection costs one file descriptor and ~100 bytes of table state, so
//! 10k idle keep-alive clients cost fds, not threads, and cannot starve a
//! request. Like the mmap shim in `flexserve_workload::packed`, the epoll
//! plumbing is a hand-rolled `extern "C"` shim over raw syscalls
//! (`epoll_create1` / `epoll_ctl` / `epoll_wait`, `pipe2` for cross-thread
//! wakeups, `setrlimit` to lift the fd soft cap) — no new dependencies.
//! Other hosts run one blocking loop per connection over the same parser
//! (`serve_connection`) on the worker pool. The HTTP semantics
//! (keep-alive, 408 stalled-request timeouts, 400/413 framing errors,
//! graceful shutdown) are identical either way, pinned by
//! `tests/serve_http.rs` and by a unit test that drives the blocking loop.
//!
//! Division of labor per connection on Linux:
//!
//! ```text
//!  accept loop ──round robin──▶ reactor: epoll_wait ──▶ read, buffer,
//!                                        try_parse_request (incremental)
//!                                │ complete request
//!                                ▼
//!                        worker pool: the tier's handler → render_response,
//!                        write on the connection (nonblocking), re-arm EPOLLIN
//!                                │ Done (queued) / Flush{rest}
//!                                ▼
//!                        reactor: finish partial writes (EPOLLOUT), serve
//!                        pipelined bytes, sweep idle/stalled deadlines
//! ```
//!
//! A connection is in exactly one of three states: `Reading` (reactor
//! owns it, EPOLLIN armed), `Busy` (a worker owns it; its one-shot epoll
//! registration is disarmed, so a flooding client cannot make the
//! reactor buffer unboundedly), or `Writing` (reactor drains a response
//! the worker could not finish, EPOLLOUT armed). A connection that has
//! never completed a request gets the request timeout, an idle keep-alive
//! connection gets [`KEEP_ALIVE_IDLE`]; expiry with a half-read request
//! answers 408 and closes, expiry with an empty buffer closes quietly.

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
/// costs a file descriptor and a reactor-table slot (and, on the blocking
/// fallback, a whole worker thread).
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
}

/// One answered request: the wire bytes, whether the connection stays
/// open, and whether shutdown begins once the bytes are written.
struct Reply {
    bytes: Vec<u8>,
    keep_alive: bool,
    shutdown: bool,
}

impl FrontEnd {
    pub(crate) fn new(tier: &'static str, addr: SocketAddr, request_timeout: Duration) -> Self {
        FrontEnd {
            tier,
            shutdown: AtomicBool::new(false),
            addr,
            request_timeout,
        }
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

/// Serves `listener` with `handler` until shutdown: `workers` threads run
/// the handler, `reactor_threads` epoll reactors hold the connections
/// (Linux only), and a watcher turns SIGTERM into the same graceful
/// shutdown as `POST /shutdown`. Warns first when the listener is
/// reachable from other hosts. Returns with the shutdown flag set, once
/// every connection has drained and every thread has been joined.
pub(crate) fn run_front_end(
    listener: TcpListener,
    front: &FrontEnd,
    workers: usize,
    reactor_threads: usize,
    handler: &Handler<'_>,
) -> Result<(), String> {
    if let Some(warning) = non_loopback_warning(front.tier, &front.addr) {
        eprintln!("{warning}");
    }
    #[cfg(unix)]
    sigterm::install();
    std::thread::scope(|s| {
        #[cfg(unix)]
        std::thread::Builder::new()
            .name(format!("{}-sigterm", front.tier))
            .spawn_scoped(s, || {
                while !front.is_shutting_down() {
                    if sigterm::pending() {
                        eprintln!("flexserve {}: SIGTERM — shutting down", front.tier);
                        front.begin_shutdown();
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            })
            .map_err(|e| format!("{}: cannot spawn sigterm watcher: {e}", front.tier))?;
        let result = run_pool(listener, front, workers, reactor_threads, handler);
        front.shutdown.store(true, Ordering::SeqCst);
        result
    })
}

/// SIGTERM handling: the signal handler only flips a flag (the whole
/// async-signal-safe budget); the watcher thread in [`run_front_end`]
/// turns the flag into a graceful shutdown.
#[cfg(unix)]
mod sigterm {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    /// Installs the handler and clears any flag left by a previous front
    /// end in this process (tests run several lifecycles per binary).
    pub(super) fn install() {
        const SIGTERM: i32 = 15;
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        TERM.store(false, Ordering::SeqCst);
        // SAFETY: `signal` is libc's, declared with its C signature;
        // `on_term` is an `extern "C" fn(i32)` that only stores to a
        // static atomic, which is async-signal-safe.
        unsafe {
            signal(SIGTERM, on_term);
        }
    }

    /// True once SIGTERM has been received.
    pub(super) fn pending() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

#[cfg(target_os = "linux")]
mod linux {
    use std::collections::HashMap;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::{AsRawFd, OwnedFd};
    use std::sync::{mpsc, Arc, Mutex};
    use std::time::{Duration, Instant};

    use super::super::http::{try_parse_request, HttpError, HttpRequest};
    use super::{FrontEnd, Handler, KEEP_ALIVE_IDLE};

    /// Raw syscall shims (same vendoring philosophy as the mmap shim in
    /// `flexserve_workload::packed`): just the epoll, pipe and rlimit
    /// surface the reactor needs, against the platform libc the binary
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
        pub const EPOLL_CTL_DEL: i32 = 2;
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
            // kernel reads (and, for DEL, ignores) during the call only.
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
        /// already pending, so failures are ignored.
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
        /// returns the resulting soft limit (connections cost fds under
        /// the reactor, so the default 1024 would cap the daemon long
        /// before memory does).
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
    /// the connection until it is re-armed, so one a worker owns reports
    /// nothing and costs no `epoll_ctl` to park.
    const READABLE: u32 = sys::EPOLLIN | sys::EPOLLONESHOT;
    const WRITABLE: u32 = sys::EPOLLOUT | sys::EPOLLONESHOT;
    /// How long `epoll_wait` may sleep between deadline sweeps.
    const TICK_MS: i32 = 100;
    /// Stop pulling bytes off a connection once this much is buffered
    /// unparsed; level-triggered epoll resumes the read once the buffer
    /// drains (the HTTP caps bound any *single* request much earlier —
    /// this bounds a pipelined flood).
    const READ_HIGH_WATER: usize = 1024 * 1024;
    /// How long a shutting-down reactor waits for in-flight responses
    /// before force-closing what's left.
    const SHUTDOWN_GRACE: Duration = Duration::from_secs(30);

    /// A complete request handed from a reactor to the worker pool. The
    /// worker computes and writes the response on its share of the
    /// stream, then reports back to the owning reactor (see [`Msg`]).
    struct Job {
        reactor: usize,
        conn: u64,
        stream: Arc<TcpStream>,
        request: HttpRequest,
        /// The reactor holds bytes or an EOF past this request, so it
        /// must act on the completion at once.
        pending_input: bool,
    }

    /// Cross-thread mail for one reactor: new connections from the
    /// accept loop, completions from the workers.
    enum Msg {
        Conn(TcpStream),
        /// A worker wrote its whole response. With `rearmed` the worker
        /// also re-armed the connection for reading, so the message rides
        /// along with the reactor's next wakeup instead of causing one.
        Done {
            conn: u64,
            keep_alive: bool,
            rearmed: bool,
        },
        Flush {
            conn: u64,
            rest: Vec<u8>,
            keep_alive: bool,
        },
    }

    /// The half of a reactor other threads may touch: the mailbox, the
    /// write end of its wake pipe, and its epoll set (all closed when the
    /// last clone drops, i.e. after the workers are joined).
    struct ReactorHandle {
        inbox: Mutex<Vec<Msg>>,
        wake_w: OwnedFd,
        epfd: OwnedFd,
    }

    impl ReactorHandle {
        fn send(&self, msg: Msg) {
            self.post(msg);
            self.wake();
        }

        /// Queues `msg` for the reactor's next wakeup without causing one.
        fn post(&self, msg: Msg) {
            self.inbox.lock().unwrap().push(msg);
        }

        fn wake(&self) {
            sys::poke(self.wake_w.as_raw_fd());
        }

        /// Re-arms connection `conn` for reading; false when it is no
        /// longer in the epoll set.
        fn rearm(&self, stream: &TcpStream, conn: u64) -> bool {
            let (ep, fd) = (self.epfd.as_raw_fd(), stream.as_raw_fd());
            sys::ctl(ep, sys::EPOLL_CTL_MOD, fd, READABLE, conn).is_ok()
        }
    }

    #[derive(Clone, Copy, PartialEq, Eq)]
    enum State {
        /// The reactor is accumulating request bytes (EPOLLIN armed).
        Reading,
        /// A worker owns the connection; nothing is armed, so a flooding
        /// client cannot make the reactor buffer unboundedly.
        Busy,
        /// The reactor is draining response bytes (EPOLLOUT armed).
        Writing,
    }

    /// Per-connection state: ~100 bytes plus whatever is buffered, which
    /// is the whole cost of an idle keep-alive client.
    struct Conn {
        /// Shared with the worker holding a request of this connection,
        /// so handing one over costs no `dup`.
        stream: Arc<TcpStream>,
        /// Received-but-unparsed bytes.
        buf: Vec<u8>,
        /// Response bytes the worker could not write without blocking.
        out: Vec<u8>,
        out_pos: usize,
        state: State,
        /// Whether any request has completed on this connection — picks
        /// between the first-request timeout and the keep-alive window.
        served_any: bool,
        /// The peer half-closed; serve what is buffered, then close.
        peer_eof: bool,
        close_after_write: bool,
        /// Whether the fd is currently in the epoll set.
        registered: bool,
        /// Last byte received or response finished; deadlines key off it.
        last: Instant,
    }

    struct Reactor<'a> {
        index: usize,
        wake_r: OwnedFd,
        handle: Arc<ReactorHandle>,
        conns: HashMap<u64, Conn>,
        next_id: u64,
        job_tx: mpsc::Sender<Job>,
        front: &'a FrontEnd,
        /// Last deadline sweep; the sweep walks every connection, so it
        /// runs at most once per tick rather than on every wakeup (a busy
        /// reactor holding 10k idle connections would otherwise pay an
        /// O(connections) scan per request).
        last_sweep: Instant,
    }

    impl<'a> Reactor<'a> {
        fn new(
            index: usize,
            job_tx: mpsc::Sender<Job>,
            front: &'a FrontEnd,
        ) -> Result<Reactor<'a>, String> {
            let tier = front.tier;
            let epfd = sys::create().map_err(|e| format!("{tier}: epoll_create1: {e}"))?;
            let (wake_r, wake_w) = sys::wake_pipe().map_err(|e| format!("{tier}: pipe2: {e}"))?;
            let (ep, wake) = (epfd.as_raw_fd(), wake_r.as_raw_fd());
            sys::ctl(ep, sys::EPOLL_CTL_ADD, wake, sys::EPOLLIN, WAKE_TOKEN)
                .map_err(|e| format!("{tier}: epoll_ctl(wake): {e}"))?;
            Ok(Reactor {
                index,
                wake_r,
                handle: Arc::new(ReactorHandle {
                    inbox: Mutex::new(Vec::new()),
                    wake_w,
                    epfd,
                }),
                conns: HashMap::new(),
                next_id: 0,
                job_tx,
                front,
                last_sweep: Instant::now(),
            })
        }

        fn run(mut self) {
            let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; 1024];
            let mut shutdown_seen: Option<Instant> = None;
            loop {
                let epfd = self.handle.epfd.as_raw_fd();
                let n = match sys::wait(epfd, &mut events, TICK_MS) {
                    Ok(n) => n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => 0,
                    Err(e) => {
                        eprintln!("{}: epoll_wait: {e}", self.front.tier);
                        break;
                    }
                };
                // The wake pipe drains before the inbox is taken, so a
                // message sent after the take leaves a byte that wakes
                // the next wait. The inbox is taken on every pass: a
                // worker that re-armed a connection queued its completion
                // before the re-arm, so it is in hand before the
                // connection's next event is handled.
                if events[..n].iter().any(|ev| { ev.data } == WAKE_TOKEN) {
                    sys::drain(self.wake_r.as_raw_fd());
                }
                self.drain_inbox();
                for ev in events.iter().take(n) {
                    // Copy out of the (possibly packed) slot; skip the wake
                    // pipe and connections closed earlier in this batch.
                    let ev = *ev;
                    if ev.data != WAKE_TOKEN && self.conns.contains_key(&{ ev.data }) {
                        self.handle_event(ev.events, ev.data);
                    }
                }
                let now = Instant::now();
                if now.duration_since(self.last_sweep).as_millis() >= TICK_MS as u128 {
                    self.last_sweep = now;
                    self.sweep(now);
                }
                if self.front.is_shutting_down() {
                    let now = Instant::now();
                    let started = *shutdown_seen.get_or_insert(now);
                    // Close idle connections outright; in-flight requests
                    // finish (their responses carry `Connection: close`).
                    let idle: Vec<u64> = self
                        .conns
                        .iter()
                        .filter(|(_, c)| c.state == State::Reading)
                        .map(|(&id, _)| id)
                        .collect();
                    for id in idle {
                        self.close(id);
                    }
                    if self.conns.is_empty() || now.duration_since(started) > SHUTDOWN_GRACE {
                        break;
                    }
                }
            }
        }

        fn drain_inbox(&mut self) {
            let msgs: Vec<Msg> = std::mem::take(&mut *self.handle.inbox.lock().unwrap());
            for msg in msgs {
                match msg {
                    Msg::Conn(stream) => self.add_conn(stream),
                    Msg::Done {
                        conn,
                        keep_alive,
                        rearmed,
                    } => self.on_done(conn, keep_alive, rearmed),
                    Msg::Flush {
                        conn,
                        rest,
                        keep_alive,
                    } => self.start_write(conn, rest, keep_alive),
                }
            }
        }

        fn add_conn(&mut self, stream: TcpStream) {
            let id = self.next_id;
            self.next_id += 1;
            self.conns.insert(
                id,
                Conn {
                    stream: Arc::new(stream),
                    buf: Vec::new(),
                    out: Vec::new(),
                    out_pos: 0,
                    state: State::Reading,
                    served_any: false,
                    peer_eof: false,
                    close_after_write: false,
                    registered: false,
                    last: Instant::now(),
                },
            );
            if !self.set_interest(id, READABLE) {
                self.close(id);
            }
        }

        /// Arms the epoll entry for `id` for `events`. Returns false when
        /// the kernel refuses — the connection is unusable then.
        fn set_interest(&mut self, id: u64, events: u32) -> bool {
            let Some(conn) = self.conns.get_mut(&id) else {
                return false;
            };
            let fd = conn.stream.as_raw_fd();
            let op = if conn.registered {
                sys::EPOLL_CTL_MOD
            } else {
                sys::EPOLL_CTL_ADD
            };
            match sys::ctl(self.handle.epfd.as_raw_fd(), op, fd, events, id) {
                Ok(()) => {
                    conn.registered = true;
                    true
                }
                Err(_) => false,
            }
        }

        fn handle_event(&mut self, bits: u32, id: u64) {
            if bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
                self.close(id);
                return;
            }
            if bits & sys::EPOLLIN != 0 {
                self.on_readable(id);
            }
            if bits & sys::EPOLLOUT != 0 {
                self.on_writable(id);
            }
        }

        fn on_readable(&mut self, id: u64) {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            if conn.state != State::Reading || conn.peer_eof {
                return;
            }
            let mut chunk = [0u8; 16 * 1024];
            loop {
                match (&*conn.stream).read(&mut chunk) {
                    Ok(0) => {
                        conn.peer_eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.buf.extend_from_slice(&chunk[..n]);
                        conn.last = Instant::now();
                        // A short read emptied the socket; whatever comes
                        // later is reported once the connection is re-armed.
                        if n < chunk.len() || conn.buf.len() >= READ_HIGH_WATER {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.close(id);
                        return;
                    }
                }
            }
            self.try_dispatch(id);
        }

        /// Acts on a `Reading` connection's buffer: hands one complete
        /// request to the workers, answers a framing error (which always
        /// closes), closes a half-closed peer that can send no more, or
        /// re-arms the connection for more bytes.
        fn try_dispatch(&mut self, id: u64) {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            match try_parse_request(&conn.buf) {
                Ok(None) if conn.peer_eof => self.close(id),
                Ok(None) => {
                    if !self.set_interest(id, READABLE) {
                        self.close(id);
                    }
                }
                Ok(Some((request, consumed))) => {
                    conn.buf.drain(..consumed);
                    conn.state = State::Busy;
                    let job = Job {
                        reactor: self.index,
                        conn: id,
                        stream: Arc::clone(&conn.stream),
                        request,
                        pending_input: conn.peer_eof || !conn.buf.is_empty(),
                    };
                    if self.job_tx.send(job).is_err() {
                        // workers are gone: tearing down
                        self.close(id);
                    }
                }
                Err(e) => self.start_write(id, e.response(), false),
            }
        }

        /// A response went out in full; unless the worker re-armed the
        /// connection itself, serve any pipelined request or re-arm here.
        fn on_done(&mut self, id: u64, keep_alive: bool, rearmed: bool) {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            conn.served_any = true;
            if !keep_alive {
                self.close(id);
                return;
            }
            conn.state = State::Reading;
            conn.last = Instant::now();
            if !rearmed {
                self.try_dispatch(id);
            }
        }

        /// Takes over a response the worker could not finish (or an
        /// error/408 response originated by the reactor itself).
        fn start_write(&mut self, id: u64, bytes: Vec<u8>, keep_alive: bool) {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            conn.out = bytes;
            conn.out_pos = 0;
            conn.state = State::Writing;
            conn.close_after_write = !keep_alive;
            conn.last = Instant::now();
            self.on_writable(id); // the common case completes immediately
        }

        fn on_writable(&mut self, id: u64) {
            loop {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return;
                };
                if conn.state != State::Writing {
                    return;
                }
                if conn.out_pos >= conn.out.len() {
                    conn.out = Vec::new();
                    conn.out_pos = 0;
                    let keep_alive = !conn.close_after_write;
                    self.on_done(id, keep_alive, false);
                    return;
                }
                let pos = conn.out_pos;
                match (&*conn.stream).write(&conn.out[pos..]) {
                    Ok(0) => {
                        self.close(id);
                        return;
                    }
                    Ok(n) => conn.out_pos += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        conn.last = Instant::now();
                        if !self.set_interest(id, WRITABLE) {
                            self.close(id);
                        }
                        return;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        self.close(id);
                        return;
                    }
                }
            }
        }

        /// Expires deadlines: stalled mid-request → 408 and close; idle
        /// with nothing buffered → quiet close; a response the peer won't
        /// drain → close.
        fn sweep(&mut self, now: Instant) {
            let request_timeout = self.front.request_timeout;
            let mut expired: Vec<(u64, bool)> = Vec::new();
            for (&id, conn) in &self.conns {
                let (limit, stalled_request) = match conn.state {
                    State::Busy => continue, // the worker owns the clock
                    State::Writing => (request_timeout, false),
                    State::Reading => {
                        let limit = if conn.served_any {
                            KEEP_ALIVE_IDLE
                        } else {
                            request_timeout
                        };
                        (limit, !conn.buf.is_empty())
                    }
                };
                if now.duration_since(conn.last) > limit {
                    expired.push((id, stalled_request));
                }
            }
            for (id, stalled_request) in expired {
                if stalled_request {
                    self.start_write(id, HttpError::Timeout.response(), false);
                } else {
                    self.close(id);
                }
            }
        }

        fn close(&mut self, id: u64) {
            if let Some(conn) = self.conns.remove(&id) {
                if conn.registered {
                    let fd = conn.stream.as_raw_fd();
                    let ep = self.handle.epfd.as_raw_fd();
                    let _ = sys::ctl(ep, sys::EPOLL_CTL_DEL, fd, 0, 0);
                }
                // the fd closes once a worker holding it lets go too
            }
        }
    }

    /// The worker half: pull a complete request, answer it, write the
    /// response on the shared stream, and report back to the owning
    /// reactor. The response write happens *here* so a request's
    /// client-visible latency never pays a second reactor hop, and in the
    /// common case (keep-alive, whole response written, nothing buffered
    /// behind the request) the worker re-arms the connection itself, so
    /// the reactor is not woken at all.
    fn worker_loop(
        job_rx: &Mutex<mpsc::Receiver<Job>>,
        front: &FrontEnd,
        handler: &Handler<'_>,
        reactors: &[Arc<ReactorHandle>],
    ) {
        loop {
            let job = { job_rx.lock().unwrap().recv() };
            let Ok(job) = job else {
                break; // reactors are gone
            };
            let reply = front.answer(&job.request, handler);
            let (conn, keep_alive) = (job.conn, reply.keep_alive);
            let reactor = &reactors[job.reactor];
            let done = |keep_alive, rearmed| Msg::Done {
                conn,
                keep_alive,
                rearmed,
            };
            match write_nonblocking(&job.stream, &reply.bytes) {
                WriteOutcome::Complete if keep_alive && !job.pending_input => {
                    // Queue first, re-arm second: the completion is in
                    // the reactor's hands before the next request can be
                    // reported.
                    reactor.post(done(true, true));
                    if !reactor.rearm(&job.stream, conn) {
                        reactor.send(done(false, false));
                    }
                }
                WriteOutcome::Complete => reactor.send(done(keep_alive, false)),
                WriteOutcome::Partial(rest) => reactor.send(Msg::Flush {
                    conn,
                    rest,
                    keep_alive,
                }),
                WriteOutcome::Failed => reactor.send(done(false, false)),
            }
            // After the response: the shutdown answer reaches the client
            // before the teardown.
            if reply.shutdown {
                front.begin_shutdown();
            }
        }
    }

    enum WriteOutcome {
        Complete,
        Partial(Vec<u8>),
        Failed,
    }

    /// Writes as much of `bytes` as the socket accepts without blocking;
    /// the tail (if any) goes back to the reactor for EPOLLOUT draining.
    fn write_nonblocking(mut stream: &TcpStream, bytes: &[u8]) -> WriteOutcome {
        let mut pos = 0usize;
        while pos < bytes.len() {
            match stream.write(&bytes[pos..]) {
                Ok(0) => return WriteOutcome::Failed,
                Ok(n) => pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return WriteOutcome::Partial(bytes[pos..].to_vec())
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return WriteOutcome::Failed,
            }
        }
        WriteOutcome::Complete
    }

    /// The reactor pool and the worker pool: accepts connections on the
    /// caller's thread and hands each to a reactor round-robin.
    pub(super) fn run_pool(
        listener: TcpListener,
        front: &FrontEnd,
        workers: usize,
        reactor_threads: usize,
        handler: &Handler<'_>,
    ) -> Result<(), String> {
        raise_nofile_limit();
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Mutex::new(job_rx);
        let mut handles = Vec::with_capacity(reactor_threads);
        let mut reactors = Vec::with_capacity(reactor_threads);
        for i in 0..reactor_threads {
            let reactor = Reactor::new(i, job_tx.clone(), front)?;
            handles.push(Arc::clone(&reactor.handle));
            reactors.push(reactor);
        }
        // The reactors hold the only senders now, so the workers unblock
        // exactly when the last reactor exits.
        drop(job_tx);

        std::thread::scope(|s| {
            let tier = front.tier;
            let mut spawn_error = None;
            for reactor in reactors {
                let name = format!("{tier}-reactor-{}", reactor.index);
                if let Err(e) = std::thread::Builder::new()
                    .name(name)
                    .spawn_scoped(s, move || reactor.run())
                {
                    spawn_error.get_or_insert(e);
                }
            }
            for i in 0..workers {
                let (job_rx, handles) = (&job_rx, &handles);
                if let Err(e) = std::thread::Builder::new()
                    .name(format!("{tier}-worker-{i}"))
                    .spawn_scoped(s, move || worker_loop(job_rx, front, handler, handles))
                {
                    spawn_error.get_or_insert(e);
                }
            }
            if spawn_error.is_none() {
                let mut next = 0usize;
                super::accept_until_shutdown(&listener, front, |conn| {
                    // O_NONBLOCK before the reactor ever sees the fd.
                    let _ = conn.set_nonblocking(true);
                    handles[next % handles.len()].send(Msg::Conn(conn));
                    next += 1;
                    true
                });
            }
            // Whatever stopped the accept loop, the reactors must see the
            // flag to wind down (and the workers follow them).
            front
                .shutdown
                .store(true, std::sync::atomic::Ordering::SeqCst);
            for handle in &handles {
                handle.wake();
            }
            match spawn_error {
                Some(e) => Err(format!("{tier}: cannot spawn a front-end thread: {e}")),
                None => Ok(()),
            }
        })
    }
}

/// Accepts connections until shutdown begins, handing each to `dispatch`
/// (which returns false to stop). NODELAY because every exchange is a
/// small request/response pair.
fn accept_until_shutdown(
    listener: &TcpListener,
    front: &FrontEnd,
    mut dispatch: impl FnMut(TcpStream) -> bool,
) {
    for stream in listener.incoming() {
        if front.is_shutting_down() {
            break;
        }
        match stream {
            Ok(conn) => {
                let _ = conn.set_nodelay(true);
                if !dispatch(conn) {
                    break;
                }
            }
            Err(e) => eprintln!("{}: accept error: {e}", front.tier),
        }
    }
}

/// The blocking fallback pool: each worker owns whole connections, one
/// [`serve_connection`] loop at a time.
#[cfg(not(target_os = "linux"))]
fn run_pool(
    listener: TcpListener,
    front: &FrontEnd,
    workers: usize,
    _reactor_threads: usize,
    handler: &Handler<'_>,
) -> Result<(), String> {
    use std::sync::{mpsc, Mutex};

    let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
    let conn_rx = Mutex::new(conn_rx);
    std::thread::scope(|s| {
        // Moved in, so an early return closes the channel and the
        // workers already spawned exit.
        let conn_tx = conn_tx;
        for i in 0..workers {
            let conn_rx = &conn_rx;
            std::thread::Builder::new()
                .name(format!("{}-worker-{i}", front.tier))
                .spawn_scoped(s, move || loop {
                    let conn = { conn_rx.lock().unwrap().recv() };
                    match conn {
                        Ok(stream) => serve_connection(stream, front, handler),
                        Err(_) => break, // accept loop is gone
                    }
                })
                .map_err(|e| format!("{}: cannot spawn worker: {e}", front.tier))?;
        }
        accept_until_shutdown(&listener, front, |conn| conn_tx.send(conn).is_ok());
        Ok(())
    })
}

/// No rlimit shim off Linux; reports 0 ("unknown").
#[cfg(not(target_os = "linux"))]
pub fn raise_nofile_limit() -> u64 {
    0
}

/// One connection on the blocking fallback: a keep-alive request loop
/// over the same incremental parser as the reactor, until the client
/// closes, asks for `Connection: close`, or idles out. The first request
/// gets the request timeout, later gaps [`KEEP_ALIVE_IDLE`]; a timeout
/// with nothing buffered closes quietly, one with half a request in the
/// buffer answers 408.
#[cfg(any(test, not(target_os = "linux")))]
fn serve_connection(mut stream: TcpStream, front: &FrontEnd, handler: &Handler<'_>) {
    use std::io::{ErrorKind, Read, Write};

    use super::http::{try_parse_request, HttpError};

    let _ = stream.set_read_timeout(Some(front.request_timeout));
    let _ = stream.set_write_timeout(Some(front.request_timeout));
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match try_parse_request(&buf) {
            Ok(Some((request, consumed))) => {
                buf.drain(..consumed);
                let reply = front.answer(&request, handler);
                let written = stream.write_all(&reply.bytes).is_ok();
                if reply.shutdown {
                    front.begin_shutdown();
                }
                if !written || !reply.keep_alive {
                    return;
                }
                let _ = stream.set_read_timeout(Some(KEEP_ALIVE_IDLE));
                continue;
            }
            Ok(None) => {}
            Err(e) => {
                let _ = stream.write_all(&e.response());
                return;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if !buf.is_empty() {
                    let _ = stream.write_all(&HttpError::Timeout.response());
                }
                return;
            }
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    /// Drives the blocking loop over a real socket: each case writes its
    /// bytes, runs the loop on the accepted end, and returns everything
    /// the client received before the close.
    #[test]
    fn stalled_requests_are_408_but_idle_connections_close_quietly() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let front = FrontEnd::new("serve", addr, Duration::from_millis(200));
        let handler = |r: &HttpRequest| (200, format!("{{\"path\":\"{}\"}}", r.path));
        let run = |sent: &[u8]| {
            let mut client = TcpStream::connect(addr).unwrap();
            client.write_all(sent).unwrap();
            let (server, _) = listener.accept().unwrap();
            serve_connection(server, &front, &handler);
            let mut received = String::new();
            client.read_to_string(&mut received).unwrap();
            received
        };

        // nothing received: the timeout closes quietly
        assert_eq!(run(b""), "");
        // a stall mid-request-line, or mid-body, holds half a request: 408
        assert!(run(b"GET /metr").starts_with("HTTP/1.1 408 "));
        let stalled = run(b"POST /step HTTP/1.1\r\nContent-Length: 8\r\n\r\nab");
        assert!(stalled.starts_with("HTTP/1.1 408 "), "{stalled}");
        // framing errors answer the parser's status and close
        let chunked = run(b"POST /step HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        assert!(chunked.starts_with("HTTP/1.1 400 "), "{chunked}");
        assert!(chunked.contains("Connection: close\r\n"), "{chunked}");

        // pipelined keep-alive requests are all answered; the front end
        // answers /shutdown itself, closes, and serves nothing after it
        assert!(!front.is_shutting_down());
        let out = run(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n\
                        POST /shutdown HTTP/1.1\r\n\r\nGET /c HTTP/1.1\r\n\r\n");
        assert!(out.contains("{\"path\":\"/a\"}"), "{out}");
        assert!(out.contains("{\"path\":\"/b\"}"), "{out}");
        assert!(!out.contains("/c"), "{out}");
        assert!(
            out.ends_with("Connection: close\r\n\r\n{\"ok\":true}\n"),
            "{out}"
        );
        assert!(front.is_shutting_down());
    }
}

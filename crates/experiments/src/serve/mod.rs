//! The `flexserve serve` daemon: a concurrent, multi-session streaming
//! placement service.
//!
//! Where `flexserve run` replays a recorded trace in a closed loop,
//! `serve` keeps the loop open — and since this revision it keeps *many*
//! loops open: a [`SessionManager`] owns any number of named
//! [`EventedSession`](flexserve_sim::EventedSession)s (each on its own
//! actor thread, with its own strategy, its own mutable substrate world,
//! and its own [`RequestSource`](flexserve_workload::RequestSource),
//! sharing pristine substrates through the process-wide
//! [`DistCache`](crate::cache::DistCache)), behind an event-driven HTTP
//! front end (hand-rolled HTTP/1.1, as ever): a small pool of epoll
//! reactor threads owns every connection and parses requests
//! incrementally off readiness events, so 10k idle keep-alive clients
//! cost file descriptors, not threads, and only complete requests occupy
//! the `workers=` pool. That front end (`event_loop.rs`, with the one
//! request parser in `http.rs`) is shared with the [`route`] tier: each
//! tier supplies only its request handler (`handlers.rs` here), and
//! non-Linux hosts run one blocking keep-alive loop per connection over
//! the same parser instead:
//!
//! | endpoint                             | effect                                   |
//! |--------------------------------------|------------------------------------------|
//! | `POST /sessions`                     | create a session (`{"name", "args"}`)    |
//! | `GET /sessions`                      | list live sessions with their cell specs |
//! | `POST /sessions/<name>/step`         | play one round — or a batch of rounds    |
//! | `GET /sessions/<name>/placement`     | its servers and epoch                    |
//! | `GET /sessions/<name>/metrics`       | its counters (process + cumulative)      |
//! | `POST /sessions/<name>/checkpoint`   | snapshot it to its checkpoint file       |
//! | `POST /sessions/<name>/events`       | append substrate events to its schedule  |
//! | `DELETE /sessions/<name>`            | stop and evict it                        |
//! | `POST /shutdown`                     | stop the daemon                          |
//!
//! The pre-session-manager single-session routes (`POST /step`,
//! `GET /placement`, `GET /metrics`, `POST /checkpoint`) remain as
//! aliases for the *default* session — the one the command line
//! describes, created at startup — so existing clients and scripts keep
//! working unchanged (pinned by `tests/serve_http.rs`).
//!
//! Concurrency follows the problem's shape: each session is a sequential
//! online game, so its operations serialize through its actor's channel;
//! distinct sessions share no mutable state and step in parallel across
//! workers, bit-identical to each cell served alone (pinned by
//! `tests/serve_sessions.rs`). Checkpoints use the v2 engine format
//! carrying cumulative metrics and the substrate-event schedule; v1 files
//! still restore. Restarting with `resume=true` continues the default
//! session **bit-identically** to a daemon that was never stopped — event
//! history included (the snapshot's schedule is replayed onto a pristine
//! substrate and fingerprint-checked).
//!
//! Robustness is part of the contract: every request read is bounded
//! (`request-timeout=` plus header/body caps, answered with 408/413;
//! chunked framing is refused with 400), and shutdown is graceful —
//! `POST /shutdown` *and* SIGTERM both drain the front end, after which
//! [`serve_on`] checkpoints every live session to its checkpoint file
//! before exiting. Endpoint reference, JSONL replay schema and the
//! checkpoint format live in `docs/SERVING.md`; the substrate-event
//! plane (grammar, penalty costs, replay semantics) in `docs/FAULTS.md`.
//!
//! To scale past one machine, the [`route`] submodule ships
//! `flexserve route`: a consistent-hash front tier that shards sessions
//! over a fleet of these daemons and live-migrates them bit-identically
//! (checkpoint → resume → `migrated_to` tombstone); see `docs/CLUSTER.md`.

mod event_loop;
mod handlers;
mod http;
pub mod route;
pub mod sessions;

pub use event_loop::raise_nofile_limit;
pub use sessions::{
    ServeError, SessionConfig, SessionManager, SessionStats, SourceKind, DEFAULT_SESSION,
};

use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener};

use flexserve_workload::JsonValue;

use crate::output::results_dir;
use event_loop::{run_front_end, FrontEnd};

/// Parsed `flexserve serve` options: the default session plus the server
/// shape (listener address, worker pool, session budget).
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// The default session, served by the legacy single-session routes.
    pub session: SessionConfig,
    /// Listener address (`bind=` key; loopback unless asked otherwise).
    pub bind: IpAddr,
    /// Listener port (0 = ephemeral, the chosen port is announced on
    /// stdout).
    pub port: u16,
    /// HTTP worker threads executing complete requests concurrently.
    pub workers: usize,
    /// Reactor threads of the epoll front end, each multiplexing a share
    /// of all open connections (`reactor-threads=` key; ignored on the
    /// non-Linux fallback front end).
    pub reactor_threads: usize,
    /// Maximum concurrently live sessions.
    pub max_sessions: usize,
    /// `idle-evict=<secs>`: sessions no client has touched for this long
    /// are auto-checkpointed and evicted by a reaper thread (`None` =
    /// never, the default).
    pub idle_evict: Option<std::time::Duration>,
    /// `request-timeout=<secs>`: per-request read/write bound on every
    /// connection — a stalled client gets a 408 instead of pinning a
    /// worker (default 30s; the shorter keep-alive idle window still
    /// governs gaps *between* requests).
    pub request_timeout: std::time::Duration,
}

const SERVE_USAGE: &str = "\
usage: flexserve serve topo=<spec> wl=<spec> strat=<name> [key=value...]

cell keys:    t, lambda, rounds (scenario-source cap), seed, load, beta, c,
              ra, ri, k, flipped, events (substrate-event schedule;
              see docs/FAULTS.md)
session keys: checkpoint=<path> (default <results dir>/checkpoint.json),
              resume=true|false, source=scenario|stdin|<path.jsonl>
server keys:  port (default 7788, 0 = ephemeral),
              bind=<ip>[:<port>] (default 127.0.0.1; non-loopback logs a warning),
              workers=<n> (default 4), max-sessions=<n> (default 16),
              reactor-threads=<n> (epoll event-loop threads owning the
              connections; default 2, range 1-16),
              idle-evict=<secs> (auto-checkpoint + evict idle sessions;
              default off),
              request-timeout=<secs> (per-request read/write bound; default 30)
";

impl ServeOptions {
    /// Parses `serve` arguments (`key=value` pairs, single-valued axes):
    /// the server keys are peeled off here, everything else goes through
    /// [`SessionConfig::parse_with_default`] — one grammar for the CLI's
    /// default session and `POST /sessions` bodies.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut bind = IpAddr::V4(Ipv4Addr::LOCALHOST);
        let mut port = 7788u16;
        let mut workers = 4usize;
        let mut reactor_threads = 2usize;
        let mut max_sessions = 16usize;
        let mut idle_evict = None;
        let mut request_timeout = std::time::Duration::from_secs(30);
        let mut session_args: Vec<String> = Vec::new();

        for arg in args {
            let (key, v) = arg
                .split_once('=')
                .ok_or_else(|| format!("serve: expected key=value, got {arg:?}\n{SERVE_USAGE}"))?;
            match key {
                "port" => port = v.parse().map_err(|_| format!("port: bad value {v:?}"))?,
                "bind" => {
                    if let Ok(addr) = v.parse::<SocketAddr>() {
                        bind = addr.ip();
                        port = addr.port();
                    } else {
                        bind = v.parse().map_err(|_| {
                            format!("bind: bad value {v:?} (want <ip> or <ip>:<port>)")
                        })?;
                    }
                }
                "workers" => {
                    workers = v.parse().map_err(|_| format!("workers: bad value {v:?}"))?;
                    if workers == 0 || workers > 64 {
                        return Err(format!("workers: {workers} out of range (1-64)"));
                    }
                }
                "reactor-threads" => {
                    reactor_threads = v
                        .parse()
                        .map_err(|_| format!("reactor-threads: bad value {v:?}"))?;
                    if reactor_threads == 0 || reactor_threads > 16 {
                        return Err(format!(
                            "reactor-threads: {reactor_threads} out of range (1-16)"
                        ));
                    }
                }
                "max-sessions" => {
                    max_sessions = v
                        .parse()
                        .map_err(|_| format!("max-sessions: bad value {v:?}"))?;
                    if max_sessions == 0 {
                        return Err("max-sessions: must be >= 1".into());
                    }
                }
                "idle-evict" => {
                    let secs: f64 = v
                        .parse()
                        .map_err(|_| format!("idle-evict: bad value {v:?} (want seconds)"))?;
                    if !secs.is_finite() || secs <= 0.0 {
                        return Err(format!("idle-evict: {v} out of range (want > 0 seconds)"));
                    }
                    idle_evict = Some(std::time::Duration::from_secs_f64(secs));
                }
                "request-timeout" => {
                    let secs: f64 = v
                        .parse()
                        .map_err(|_| format!("request-timeout: bad value {v:?} (want seconds)"))?;
                    if !secs.is_finite() || secs <= 0.0 {
                        return Err(format!(
                            "request-timeout: {v} out of range (want > 0 seconds)"
                        ));
                    }
                    request_timeout = std::time::Duration::from_secs_f64(secs);
                }
                _ => session_args.push(arg.clone()),
            }
        }
        let session =
            SessionConfig::parse_with_default(&session_args, results_dir().join("checkpoint.json"))
                .map_err(|e| format!("serve: {e}\n{SERVE_USAGE}"))?;
        Ok(ServeOptions {
            session,
            bind,
            port,
            workers,
            reactor_threads,
            max_sessions,
            idle_evict,
            request_timeout,
        })
    }
}

/// What a finished daemon reports (mainly for tests and logs): the
/// default session's tallies.
#[derive(Clone, Copy, Debug)]
pub struct ServeSummary {
    /// Rounds the default session stepped in this process (excludes
    /// checkpointed history).
    pub rounds_served: u64,
    /// The default session's round counter at shutdown.
    pub final_t: u64,
}

/// Binds `bind:port` and serves until `POST /shutdown`. The bound address
/// is announced on stdout (`port=0` picks an ephemeral port, so scripts
/// must parse the announcement).
pub fn serve(opts: &ServeOptions) -> Result<ServeSummary, String> {
    let listener = TcpListener::bind((opts.bind, opts.port))
        .map_err(|e| format!("serve: cannot bind {}:{}: {e}", opts.bind, opts.port))?;
    serve_on(listener, opts)
}

/// [`serve`] over an already-bound listener (tests bind port 0 themselves
/// to learn the address before starting the daemon thread).
pub fn serve_on(listener: TcpListener, opts: &ServeOptions) -> Result<ServeSummary, String> {
    let addr = listener
        .local_addr()
        .map_err(|e| format!("serve: local_addr: {e}"))?;
    let front = FrontEnd::new("serve", addr, opts.request_timeout);
    let manager = SessionManager::new(opts.max_sessions);

    // The default session comes up before the listener answers, so a bad
    // spec or checkpoint aborts the start instead of a half-served
    // daemon.
    let info = manager
        .create(DEFAULT_SESSION, opts.session.clone())
        .map_err(|e| format!("serve: {e}"))?;
    let field = |name: &str| {
        info.get(name)
            .and_then(JsonValue::as_str)
            .unwrap_or_default()
            .to_string()
    };
    println!(
        "flexserve serve: listening on http://{addr} [{}] source={} checkpoint={} \
         workers={} reactor-threads={} max-sessions={}{}",
        field("spec"),
        field("source"),
        opts.session.checkpoint.display(),
        opts.workers,
        opts.reactor_threads,
        opts.max_sessions,
        if opts.session.resume {
            format!(
                " (resumed at t={})",
                info.get("resumed_at")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0)
            )
        } else {
            String::new()
        }
    );
    let _ = std::io::Write::flush(&mut std::io::stdout());

    std::thread::scope(|s| {
        // The idle-evict reaper: with `idle-evict=<secs>` set, a
        // background thread sweeps the session table and auto-checkpoints
        // + evicts sessions no client has touched for the window (the
        // `evicted: true` tombstones in `GET /sessions`). Polling
        // granularity is a quarter of the window, bounded to [50ms, 1s]
        // so shutdown never waits long.
        if let Some(window) = opts.idle_evict {
            let tick = (window / 4)
                .max(std::time::Duration::from_millis(50))
                .min(std::time::Duration::from_secs(1));
            let (front, manager) = (&front, &manager);
            std::thread::Builder::new()
                .name("serve-reaper".into())
                .spawn_scoped(s, move || {
                    while !front.is_shutting_down() {
                        std::thread::sleep(tick);
                        for name in manager.evict_idle(window) {
                            eprintln!(
                                "flexserve serve: idle-evicted session {name:?} \
                                 (untouched for {}s; checkpointed)",
                                window.as_secs_f64()
                            );
                        }
                    }
                })
                .map_err(|e| format!("serve: cannot spawn reaper: {e}"))?;
        }
        // Returns once shutdown is flagged and every connection drained;
        // the reaper observes the flag within a tick.
        run_front_end(
            listener,
            &front,
            opts.workers,
            opts.reactor_threads,
            &|request| handlers::handle(request, &manager),
        )
    })?;
    // Graceful shutdown: snapshot every live session to its checkpoint
    // file before stopping it, so a daemon going down (POST /shutdown or
    // SIGTERM) never loses state nobody checkpointed explicitly.
    let saved = manager.checkpoint_all();
    if !saved.is_empty() {
        eprintln!(
            "flexserve serve: checkpointed {} session(s) on shutdown: {}",
            saved.len(),
            saved.join(", ")
        );
    }
    manager.shutdown_all();
    let stats = manager.default_session_stats().unwrap_or_default();
    Ok(ServeSummary {
        rounds_served: stats.rounds_served,
        final_t: stats.final_t,
    })
}

/// CLI entry point for `flexserve serve <args>`.
pub fn serve_cmd(args: &[String]) -> Result<(), String> {
    let opts = ServeOptions::parse(args)?;
    let summary = serve(&opts)?;
    eprintln!(
        "flexserve serve: stopped after {} rounds (t={})",
        summary.rounds_served, summary.final_t
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::event_loop::non_loopback_warning;
    use super::*;
    use std::path::PathBuf;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_requires_the_three_axes() {
        let err = ServeOptions::parse(&args(&["topo=er:50"])).unwrap_err();
        assert!(err.contains("required"), "{err}");
        let err = ServeOptions::parse(&args(&["bogus"])).unwrap_err();
        assert!(err.contains("key=value"), "{err}");
        let err = ServeOptions::parse(&args(&["topo=er:50", "wl=uniform", "strat=onth", "zap=1"]))
            .unwrap_err();
        assert!(err.contains("unknown key"), "{err}");
    }

    #[test]
    fn parse_builds_a_cell_with_defaults_and_overrides() {
        let opts = ServeOptions::parse(&args(&[
            "topo=unit-line:8",
            "wl=uniform:req=3",
            "strat=onth",
            "rounds=50",
            "seed=7",
            "k=4",
            "port=0",
            "checkpoint=/tmp/ck.json",
            "source=stdin",
        ]))
        .unwrap();
        assert_eq!(opts.session.cell.rounds, 50);
        assert_eq!(opts.session.cell.seeds, vec![7]);
        assert_eq!(opts.session.cell.params.max_servers, 4);
        assert_eq!(opts.port, 0);
        assert_eq!(opts.session.checkpoint, PathBuf::from("/tmp/ck.json"));
        assert_eq!(opts.session.source, SourceKind::Stdin);
        assert!(!opts.session.resume);
        // server defaults
        assert_eq!(opts.bind, IpAddr::V4(Ipv4Addr::LOCALHOST));
        assert_eq!(opts.workers, 4);
        assert_eq!(opts.max_sessions, 16);

        let opts = ServeOptions::parse(&args(&[
            "topo=er:50",
            "wl=commuter-dynamic",
            "strat=onbr",
            "source=demand.jsonl",
            "resume=true",
            "flipped=true",
        ]))
        .unwrap();
        assert_eq!(opts.session.source, SourceKind::File("demand.jsonl".into()));
        assert!(opts.session.resume);
        assert_eq!(opts.session.cell.params.migration_beta, 400.0);
        assert_eq!(opts.session.cell.params.creation_c, 40.0);
    }

    #[test]
    fn parse_server_keys() {
        let base = ["topo=unit-line:8", "wl=uniform:req=3", "strat=onth"];
        let with = |extra: &[&str]| {
            let mut a = base.to_vec();
            a.extend_from_slice(extra);
            ServeOptions::parse(&args(&a))
        };

        // bind=<ip>:<port> sets both
        let opts = with(&["bind=0.0.0.0:9000"]).unwrap();
        assert_eq!(opts.bind, "0.0.0.0".parse::<IpAddr>().unwrap());
        assert_eq!(opts.port, 9000);
        // bind=<ip> keeps the port key
        let opts = with(&["bind=0.0.0.0", "port=8111"]).unwrap();
        assert_eq!(opts.bind, "0.0.0.0".parse::<IpAddr>().unwrap());
        assert_eq!(opts.port, 8111);
        assert!(with(&["bind=not-an-ip"]).unwrap_err().contains("bind"));

        let opts = with(&["workers=2", "max-sessions=3"]).unwrap();
        assert_eq!(opts.workers, 2);
        assert_eq!(opts.max_sessions, 3);
        assert!(opts.idle_evict.is_none(), "idle-evict defaults to off");
        assert!(with(&["workers=0"]).is_err());
        assert!(with(&["max-sessions=0"]).is_err());

        // reactor-threads: the epoll front end's event-loop pool
        let opts = with(&[]).unwrap();
        assert_eq!(opts.reactor_threads, 2, "reactor-threads defaults to 2");
        let opts = with(&["reactor-threads=4"]).unwrap();
        assert_eq!(opts.reactor_threads, 4);
        assert!(with(&["reactor-threads=0"]).is_err());
        assert!(with(&["reactor-threads=17"]).is_err());
        assert!(with(&["reactor-threads=many"]).is_err());

        // idle-evict takes seconds (fractions allowed), strictly positive
        let opts = with(&["idle-evict=30"]).unwrap();
        assert_eq!(opts.idle_evict, Some(std::time::Duration::from_secs(30)));
        let opts = with(&["idle-evict=0.5"]).unwrap();
        assert_eq!(opts.idle_evict, Some(std::time::Duration::from_millis(500)));
        assert!(with(&["idle-evict=0"]).is_err());
        assert!(with(&["idle-evict=-1"]).is_err());
        assert!(with(&["idle-evict=soon"]).is_err());

        // request-timeout: same shape, with a 30s default
        let opts = with(&[]).unwrap();
        assert_eq!(opts.request_timeout, std::time::Duration::from_secs(30));
        let opts = with(&["request-timeout=2.5"]).unwrap();
        assert_eq!(
            opts.request_timeout,
            std::time::Duration::from_millis(2_500)
        );
        assert!(with(&["request-timeout=0"]).is_err());
        assert!(with(&["request-timeout=never"]).is_err());
    }

    #[test]
    fn loopback_vs_non_loopback_warning() {
        let quiet: SocketAddr = "127.0.0.1:7788".parse().unwrap();
        assert!(non_loopback_warning("serve", &quiet).is_none());
        let loud: SocketAddr = "0.0.0.0:7788".parse().unwrap();
        let warning = non_loopback_warning("serve", &loud).unwrap();
        assert!(warning.starts_with("flexserve serve: WARNING"), "{warning}");
        assert!(warning.contains("0.0.0.0:7788"), "{warning}");
    }

    #[test]
    fn offstat_needs_a_scenario_source() {
        let opts = ServeOptions::parse(&args(&[
            "topo=unit-line:8",
            "wl=uniform:req=3",
            "strat=offstat",
            "source=stdin",
            "k=4",
        ]))
        .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let err = serve_on(listener, &opts).unwrap_err();
        assert!(err.contains("source=scenario"), "{err}");
    }
}

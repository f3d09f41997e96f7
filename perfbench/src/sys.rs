//! Child processes and the Linux calls `std` does not expose: `ppoll`
//! (sub-millisecond waits on sockets, for the load generator), `wait4`
//! (the peak resident set of a reaped child), and lowest-priority
//! scheduling for the idle spinners.
//!
//! Every child is started with `PR_SET_PDEATHSIG = SIGKILL`, so a
//! benchmark that dies abruptly still takes its daemons with it; the
//! normal paths stop and reap each one explicitly.

use std::io::{BufRead, BufReader};
use std::os::fd::RawFd;
use std::os::unix::process::CommandExt;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then fourteen longs of
/// which `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    fn sysconf(name: i32) -> i64;
}

const SC_CLK_TCK: i32 = 2;

/// Keeps every CPU the process may use busy at the lowest priority
/// (`SCHED_IDLE`) while alive. A virtual CPU with nothing to run halts,
/// and waking it costs the host a reschedule whose delay depends on the
/// machine's other tenants; during serving traffic that delay would land
/// on every request. The spinners run only when no other thread wants
/// the CPU.
pub struct Spinners {
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Spinners {
    /// One spinning thread per allowed CPU.
    pub fn start() -> Spinners {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = allowed_cpus()
            .into_iter()
            .map(|cpu| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    pin_current_thread(cpu);
                    let param = 0i32;
                    // SAFETY: `param` is a valid `sched_param` (one int)
                    // for the duration of the call; pid 0 is this thread.
                    unsafe {
                        sched_setscheduler(0, SCHED_IDLE, &param);
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        Spinners { stop, threads }
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Bytes of a `cpu_set_t` (1024 CPUs).
const CPU_SET_BYTES: usize = 128;
const SCHED_IDLE: i32 = 5;

/// The CPUs this process may run on.
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u8; CPU_SET_BYTES];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let r = unsafe { sched_getaffinity(0, CPU_SET_BYTES, mask.as_mut_ptr()) };
    if r != 0 {
        return vec![0];
    }
    (0..CPU_SET_BYTES * 8)
        .filter(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
        .collect()
}

/// Restricts the calling thread to `cpu`.
fn pin_current_thread(cpu: usize) {
    let mut mask = [0u8; CPU_SET_BYTES];
    mask[cpu / 8] |= 1 << (cpu % 8);
    // SAFETY: `mask` is a readable buffer of exactly the size passed;
    // pid 0 is the calling thread.
    unsafe {
        sched_setaffinity(0, CPU_SET_BYTES, mask.as_ptr());
    }
}

/// Readable.
pub const POLLIN: i16 = 0x1;
/// Writable.
pub const POLLOUT: i16 = 0x4;
const WNOHANG: i32 = 1;
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// Waits until one of `fds` (descriptor, interest) is ready or `timeout`
/// passes; returns the ready events per descriptor.
pub fn poll(fds: &[(RawFd, i16)], timeout: Duration) -> Vec<i16> {
    let mut raw: Vec<PollFd> = fds
        .iter()
        .map(|&(fd, events)| PollFd {
            fd,
            events,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `raw` is a live, exclusively borrowed array of `raw.len()`
    // pollfd structs with the C layout; `ts` outlives the call; a null
    // signal mask means "leave the mask unchanged".
    let n = unsafe { ppoll(raw.as_mut_ptr(), raw.len() as u64, &ts, std::ptr::null()) };
    if n <= 0 {
        return vec![0; fds.len()];
    }
    raw.iter().map(|p| p.revents).collect()
}

/// How a reaped child ended.
pub struct Exit {
    /// Exit code (`None` when killed by a signal).
    pub code: Option<i32>,
    /// Peak resident set of the child, in kilobytes.
    pub maxrss_kb: u64,
    /// User plus system CPU time of the child, in seconds.
    pub cpu_s: f64,
}

fn decode(status: i32, usage: &Rusage) -> Exit {
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Exit {
        code,
        maxrss_kb: usage.maxrss.max(0) as u64,
        cpu_s: [&usage.utime, &usage.stime]
            .iter()
            .map(|t| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6)
            .sum(),
    }
}

/// Reaps `child`: blocks until it exits when `block`, otherwise returns
/// `None` while it still runs.
fn reap(child: &Child, block: bool) -> Option<Exit> {
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        maxrss: 0,
        rest: [0; 13],
    };
    let options = if block { 0 } else { WNOHANG };
    loop {
        // SAFETY: `status` and `usage` are valid exclusive out-pointers
        // for the duration of the call; the pid is our own child, which
        // std never reaps behind our back (we never call `Child::wait`).
        let r = unsafe { wait4(child.id() as i32, &mut status, options, &mut usage) };
        if r == child.id() as i32 {
            return Some(decode(status, &usage));
        }
        if r == 0 {
            return None;
        }
        if std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
            // Already reaped or not ours: report an unknown exit.
            return Some(Exit {
                code: None,
                maxrss_kb: 0,
                cpu_s: 0.0,
            });
        }
    }
}

/// A command whose child dies with the benchmark.
pub fn command(program: &std::path::Path) -> Command {
    let mut cmd = Command::new(program);
    // SAFETY: the closure runs between fork and exec and makes only the
    // `prctl` system call, which is async-signal-safe.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
            Ok(())
        });
    }
    cmd
}

/// Runs `cmd` to completion with stdout discarded; returns its wall time
/// and exit.
pub fn run_quiet(mut cmd: Command) -> Result<(Duration, Exit), String> {
    let t0 = Instant::now();
    let child = cmd
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot spawn: {e}"))?;
    let exit = reap(&child, true).expect("blocking reap returns");
    Ok((t0.elapsed(), exit))
}

/// A running child that is always killed and reaped when dropped.
pub struct Proc {
    child: Child,
    /// Reader thread draining the child's stdout after the first line.
    drain: Option<std::thread::JoinHandle<()>>,
    exit: Option<Exit>,
    label: String,
}

impl Proc {
    /// Starts `cmd` and waits (up to `timeout`) for its first stdout line,
    /// which daemons use to announce their address.
    pub fn start(
        mut cmd: Command,
        label: &str,
        timeout: Duration,
    ) -> Result<(Proc, String), String> {
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("{label}: cannot spawn: {e}"))?;
        let stdout: ChildStdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout).lines();
            let first = lines.next().and_then(Result::ok);
            let _ = tx.send(first);
            for _ in lines.by_ref() {}
        });
        let mut proc = Proc {
            child,
            drain: Some(drain),
            exit: None,
            label: label.to_string(),
        };
        match rx.recv_timeout(timeout) {
            Ok(Some(line)) => Ok((proc, line)),
            _ => {
                proc.kill();
                Err(format!("{label}: no start-up announcement"))
            }
        }
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set so far (`VmHWM`), in kilobytes.
    pub fn vm_hwm_kb(&self) -> u64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .unwrap_or(0)
    }

    /// User plus system CPU time used so far by every thread, in seconds.
    pub fn cpu_s(&self) -> f64 {
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).unwrap_or_default();
        // Fields after the parenthesised command name: state is the
        // first, utime and stime the twelfth and thirteenth.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
        let ticks: f64 = [11, 12]
            .iter()
            .filter_map(|&i| fields.get(i).and_then(|v| v.parse::<f64>().ok()))
            .sum();
        // SAFETY: sysconf only reads a system constant.
        let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
        ticks / hz
    }

    /// Waits up to `grace` for the child to exit on its own, then kills
    /// it; either way it is reaped. Returns whether it exited cleanly.
    pub fn finish(&mut self, grace: Duration) -> bool {
        let deadline = Instant::now() + grace;
        while self.exit.is_none() && Instant::now() < deadline {
            self.exit = reap(&self.child, false);
            if self.exit.is_none() {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        let clean = self.exit.as_ref().is_some_and(|e| e.code == Some(0));
        if !clean {
            eprintln!("perfbench: {} did not exit cleanly", self.label);
        }
        self.kill();
        clean
    }

    fn kill(&mut self) {
        if self.exit.is_none() {
            let _ = self.child.kill();
            self.exit = reap(&self.child, true);
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A child, its stderr lines stamped with their arrival time, and the
/// thread reading them.
pub type Stamped = (
    Child,
    mpsc::Receiver<(Instant, String)>,
    std::thread::JoinHandle<()>,
);

/// Starts `cmd` with stderr piped and returns the child plus a channel of
/// stderr lines stamped with their arrival time.
pub fn spawn_stamped(mut cmd: Command) -> Result<Stamped, String> {
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn: {e}"))?;
    let stderr = child.stderr.take().expect("piped stderr");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines() {
            let Ok(line) = line else { break };
            if tx.send((Instant::now(), line)).is_err() {
                break;
            }
        }
    });
    Ok((child, rx, reader))
}

/// Blocks until `child` exits and reaps it.
pub fn wait(child: &Child) -> Exit {
    reap(child, true).expect("blocking reap returns")
}

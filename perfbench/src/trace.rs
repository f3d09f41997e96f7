//! In-memory spans for the traced run, and the timing wrapper the traced
//! replay puts around a session's strategy.
//!
//! A span is a name, a start and end (nanoseconds from the tracer's
//! origin), the span that caused it and a request id; spans stay in
//! memory until the run ends and are then written out as JSON lines.

use std::borrow::Cow;
use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use flexserve_graph::NodeId;
use flexserve_sim::{Fleet, OnlineStrategy, SimContext};
use flexserve_workload::{JsonValue, RoundRequests};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `sim.step`.
    pub name: Cow<'static, str>,
    /// Start, ns from the tracer origin.
    pub start_ns: u64,
    /// End, ns from the tracer origin.
    pub end_ns: u64,
    /// Index of the causing span.
    pub parent: Option<usize>,
    /// Request (or round) the span belongs to.
    pub req: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span store of one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer timing from `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the origin to now.
    pub fn now_ns(&self) -> u64 {
        self.offset_ns(Instant::now())
    }

    /// Nanoseconds from the origin to `at`.
    pub fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        (out, self.record(name, start, end, parent, req))
    }

    /// Appends another tracer's spans (same origin), re-basing parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e3)
            .collect()
    }

    /// Self time (µs) of every span called `name`: its duration minus
    /// the part its child spans cover.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let mut covered: Vec<(u64, u64)> = children[i]
                    .iter()
                    .map(|&c| (self.spans[c].start_ns, self.spans[c].end_ns))
                    .collect();
                covered.sort_unstable();
                let (mut busy, mut until) = (0u64, s.start_ns);
                for (a, b) in covered {
                    let a = a.max(until);
                    if b > a {
                        busy += b - a;
                        until = b;
                    }
                }
                s.ns().saturating_sub(busy) as f64 / 1e3
            })
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.req
            )?;
        }
        out.flush()
    }
}

/// Decide timings and counts a [`TimedStrategy`] accumulates.
#[derive(Default)]
pub struct DecideLog {
    /// (start, end) ns of decide calls not yet attributed to a step.
    pub pending: Vec<(u64, u64)>,
    /// Decide calls.
    pub decides: u64,
    /// Decisions that changed the active configuration.
    pub reconfigs: u64,
}

/// A timing wrapper around a boxed strategy: forwards every call
/// unchanged and logs each `decide`.
pub struct TimedStrategy {
    inner: Box<dyn OnlineStrategy>,
    origin: Instant,
    log: Rc<RefCell<DecideLog>>,
}

impl TimedStrategy {
    /// Wraps `inner`, logging into `log` with times from `origin`.
    pub fn new(
        inner: Box<dyn OnlineStrategy>,
        origin: Instant,
        log: Rc<RefCell<DecideLog>>,
    ) -> Self {
        TimedStrategy { inner, origin, log }
    }
}

impl OnlineStrategy for TimedStrategy {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn initialize(&mut self, ctx: &SimContext<'_>, fleet: &Fleet) {
        self.inner.initialize(ctx, fleet);
    }
    fn decide(
        &mut self,
        ctx: &SimContext<'_>,
        t: u64,
        requests: &RoundRequests,
        access_cost: f64,
        fleet: &Fleet,
    ) -> Option<Vec<NodeId>> {
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = self.inner.decide(ctx, t, requests, access_cost, fleet);
        let end = self.origin.elapsed().as_nanos() as u64;
        let mut log = self.log.borrow_mut();
        log.pending.push((start, end));
        log.decides += 1;
        if let Some(target) = &out {
            let mut target = target.clone();
            target.sort_unstable();
            if target != fleet.active() {
                log.reconfigs += 1;
            }
        }
        out
    }
    fn export_state(&self) -> Option<JsonValue> {
        self.inner.export_state()
    }
    fn import_state(&mut self, state: &JsonValue) -> Result<(), String> {
        self.inner.import_state(state)
    }
}

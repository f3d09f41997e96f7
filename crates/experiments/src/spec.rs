//! Declarative experiment specifications.
//!
//! The paper's evaluation is a grid of {topology × workload × strategy}
//! cells. This module turns each axis into *data*: a [`TopologySpec`],
//! [`WorkloadSpec`] and [`StrategySpec`] each parse from and print to a
//! canonical string (`er:200`, `time-zones:p=50,req=50`, `onth`, …), and a
//! [`CellSpec`] combines one value per axis with the run parameters
//! (`T`, `λ`, rounds, seeds, cost model). The `flexserve` CLI's `run` and
//! `sweep` subcommands are thin drivers over these types, and the topology
//! spec's canonical string doubles as the distance-matrix cache key
//! (see [`crate::cache`]).
//!
//! Adding a new scenario means adding an enum variant and its parser arm —
//! not another binary.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use flexserve_graph::gen::{
    self, erdos_renyi, grid, line, random_geometric, random_tree, ring, star, unit_line, waxman,
};
use flexserve_graph::{DistanceMatrix, Graph};
use flexserve_sim::{
    CostBreakdown, CostParams, EventedSession, LoadModel, SimContext, SubstrateEvents,
};
use flexserve_topology::{as7018_like, parse_rocketfuel_weights, As7018Config};
use flexserve_workload::{
    is_packed_file, replay_source, CommuterScenario, LoadVariant, OnOffScenario, Padded,
    ProximityScenario, RequestSource, RoundTrace, Scenario, ScenarioStream, TimeZonesScenario,
    Trace, UniformScenario,
};

use flexserve_core::{
    initial_center, offstat, optimal_plan, OffBr, OffTh, OnBr, OnConf, OnTh, SampledConf,
    StaticStrategy,
};
use flexserve_sim::{run_online, OnlineStrategy};

use crate::cache::{DistCache, Lease, SubstrateKey};
use crate::runner::{average, SeedSummary};
use crate::setup::ExperimentEnv;
use crate::traces::{Demand, RunKey, RunMemo, TraceCache, TraceKey};

/// A substrate topology, identified by a canonical string such as
/// `er:200`, `waxman:100`, `grid:8x12` or `as7018`.
///
/// Every variant builds deterministically from a seed, so
/// `(canonical string, seed)` fully identifies a substrate — which is
/// exactly the key of the process-wide distance-matrix cache.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologySpec {
    /// Erdős–Rényi with the paper's 1% connection probability (`er:<n>`).
    ErdosRenyi {
        /// Number of nodes.
        n: usize,
    },
    /// Connected Waxman graph, α=0.4, β=0.15, 10 ms/unit (`waxman:<n>`).
    Waxman {
        /// Number of nodes.
        n: usize,
    },
    /// 4-neighbor grid (`grid:<rows>x<cols>`).
    Grid {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// Connected random geometric graph, radius 0.2, 10 ms/unit
    /// (`geom:<n>`).
    Geometric {
        /// Number of nodes.
        n: usize,
    },
    /// Line with random 1–10 ms latencies, as in the OPT experiments
    /// (`line:<n>`).
    Line {
        /// Number of nodes.
        n: usize,
    },
    /// Unit-latency line, fully deterministic (`unit-line:<n>`).
    UnitLine {
        /// Number of nodes.
        n: usize,
    },
    /// Ring with random latencies (`ring:<n>`).
    Ring {
        /// Number of nodes.
        n: usize,
    },
    /// Star with random latencies (`star:<n>`).
    Star {
        /// Number of nodes.
        n: usize,
    },
    /// Uniform random tree (`tree:<n>`).
    Tree {
        /// Number of nodes.
        n: usize,
    },
    /// The deterministic synthetic AT&T AS-7018-like PoP topology
    /// (`as7018`; the seed is ignored).
    As7018,
    /// A Rocketfuel-style weighted ISP map file
    /// (`rocketfuel:<path>`; the seed is ignored).
    Rocketfuel {
        /// Path to the weights file.
        path: String,
    },
}

impl TopologySpec {
    /// Builds the substrate for `seed`. Deterministic: equal spec + seed
    /// always produce an identical graph (pinned by `Graph::fingerprint`).
    pub fn build(&self, seed: u64) -> Result<Graph, String> {
        let cfg = gen::GenConfig::default();
        let mut rng = SmallRng::seed_from_u64(seed);
        let built = match self {
            TopologySpec::ErdosRenyi { n } => erdos_renyi(*n, 0.01, &cfg, &mut rng),
            TopologySpec::Waxman { n } => waxman(*n, 0.4, 0.15, 10.0, &cfg, &mut rng),
            TopologySpec::Grid { rows, cols } => grid(*rows, *cols, &cfg, &mut rng),
            TopologySpec::Geometric { n } => random_geometric(*n, 0.2, 10.0, &cfg, &mut rng),
            TopologySpec::Line { n } => line(*n, &cfg, &mut rng),
            TopologySpec::UnitLine { n } => unit_line(*n),
            TopologySpec::Ring { n } => ring(*n, &cfg, &mut rng),
            TopologySpec::Star { n } => star(*n, &cfg, &mut rng),
            TopologySpec::Tree { n } => random_tree(*n, &cfg, &mut rng),
            TopologySpec::As7018 => {
                return as7018_like(&As7018Config::default())
                    .map(|(g, _backbone)| g)
                    .map_err(|e| format!("as7018: {e}"))
            }
            TopologySpec::Rocketfuel { path } => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("rocketfuel: cannot read {path}: {e}"))?;
                return parse_rocketfuel_weights(&text).map_err(|e| format!("rocketfuel: {e}"));
            }
        };
        built.map_err(|e| format!("{self}: {e}"))
    }

    /// Whether the seed changes the substrate (false for the deterministic
    /// AS-7018 and file-based topologies).
    pub fn is_seeded(&self) -> bool {
        !matches!(
            self,
            TopologySpec::As7018 | TopologySpec::Rocketfuel { .. } | TopologySpec::UnitLine { .. }
        )
    }

    /// The [`DistCache`] key of this substrate at
    /// `seed`. Seed-insensitive topologies (as7018, rocketfuel,
    /// unit-line) normalize to seed 0, so every seed shares one entry
    /// instead of an identical build per seed.
    pub fn key(&self, seed: u64) -> SubstrateKey {
        let seed = if self.is_seeded() { seed } else { 0 };
        (self.to_string(), seed)
    }
}

impl fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologySpec::ErdosRenyi { n } => write!(f, "er:{n}"),
            TopologySpec::Waxman { n } => write!(f, "waxman:{n}"),
            TopologySpec::Grid { rows, cols } => write!(f, "grid:{rows}x{cols}"),
            TopologySpec::Geometric { n } => write!(f, "geom:{n}"),
            TopologySpec::Line { n } => write!(f, "line:{n}"),
            TopologySpec::UnitLine { n } => write!(f, "unit-line:{n}"),
            TopologySpec::Ring { n } => write!(f, "ring:{n}"),
            TopologySpec::Star { n } => write!(f, "star:{n}"),
            TopologySpec::Tree { n } => write!(f, "tree:{n}"),
            TopologySpec::As7018 => write!(f, "as7018"),
            TopologySpec::Rocketfuel { path } => write!(f, "rocketfuel:{path}"),
        }
    }
}

fn parse_count(kind: &str, arg: Option<&str>) -> Result<usize, String> {
    let arg = arg.ok_or_else(|| format!("{kind}: missing node count (expected {kind}:<n>)"))?;
    arg.parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("{kind}: bad node count {arg:?}"))
}

impl FromStr for TopologySpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (kind, arg) = match s.split_once(':') {
            Some((k, a)) => (k, Some(a)),
            None => (s, None),
        };
        match kind {
            "er" => Ok(TopologySpec::ErdosRenyi {
                n: parse_count(kind, arg)?,
            }),
            "waxman" => Ok(TopologySpec::Waxman {
                n: parse_count(kind, arg)?,
            }),
            "grid" => {
                let arg = arg.ok_or("grid: expected grid:<rows>x<cols>")?;
                let (r, c) = arg
                    .split_once('x')
                    .ok_or("grid: expected grid:<rows>x<cols>")?;
                let rows = r.parse().ok().filter(|&v: &usize| v >= 1);
                let cols = c.parse().ok().filter(|&v: &usize| v >= 1);
                match (rows, cols) {
                    (Some(rows), Some(cols)) => Ok(TopologySpec::Grid { rows, cols }),
                    _ => Err(format!("grid: bad dimensions {arg:?}")),
                }
            }
            "geom" => Ok(TopologySpec::Geometric {
                n: parse_count(kind, arg)?,
            }),
            "line" => Ok(TopologySpec::Line {
                n: parse_count(kind, arg)?,
            }),
            "unit-line" => Ok(TopologySpec::UnitLine {
                n: parse_count(kind, arg)?,
            }),
            "ring" => Ok(TopologySpec::Ring {
                n: parse_count(kind, arg)?,
            }),
            "star" => Ok(TopologySpec::Star {
                n: parse_count(kind, arg)?,
            }),
            "tree" => Ok(TopologySpec::Tree {
                n: parse_count(kind, arg)?,
            }),
            "as7018" => Ok(TopologySpec::As7018),
            "rocketfuel" => {
                let path = arg.ok_or("rocketfuel: expected rocketfuel:<path>")?;
                Ok(TopologySpec::Rocketfuel {
                    path: path.to_string(),
                })
            }
            _ => Err(format!(
                "unknown topology {s:?} (expected er, waxman, grid, geom, line, unit-line, \
                 ring, star, tree, as7018 or rocketfuel)"
            )),
        }
    }
}

/// Splits `"key=1,flag=true"` into key/value pairs, validating keys
/// against `allowed`.
fn parse_kv<'a>(
    kind: &str,
    args: &'a str,
    allowed: &[&str],
) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut out = Vec::new();
    for part in args.split(',').filter(|p| !p.is_empty()) {
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| format!("{kind}: expected key=value, got {part:?}"))?;
        if !allowed.contains(&k) {
            return Err(format!(
                "{kind}: unknown key {k:?} (allowed: {})",
                allowed.join(", ")
            ));
        }
        out.push((k, v));
    }
    Ok(out)
}

/// A demand workload, identified by a canonical string such as
/// `commuter-dynamic` or `time-zones:p=50,req=50`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// Commuter scenario, dynamic load (`commuter-dynamic`).
    CommuterDynamic,
    /// Commuter scenario, static load (`commuter-static`).
    CommuterStatic,
    /// Time-zones scenario (`time-zones:p=<hot %>,req=<requests/round>`).
    TimeZones {
        /// Percentage of requests from the period's hot node.
        hot_percent: u32,
        /// Requests per round.
        requests: usize,
    },
    /// Stationary center-proximity demand
    /// (`proximity:req=<requests/round>,pool=<nearest %>`).
    Proximity {
        /// Requests per round.
        requests: usize,
        /// Percentage of the proximity ranking eligible as origins.
        pool_percent: u32,
    },
    /// Uniform background noise (`uniform:req=<requests/round>`).
    Uniform {
        /// Requests per round.
        requests: usize,
    },
    /// On/off user mobility (`onoff:users=<u>,dwell=<rounds>,correlated=<bool>`).
    OnOff {
        /// Concurrent users.
        users: usize,
        /// Rounds a user dwells at one access point.
        dwell: u64,
        /// Whether users move in a correlated wave.
        correlated: bool,
    },
    /// A recorded demand trace (`replay:<path>`; see `flexserve trace
    /// record` / `flexserve trace pack`). The format is auto-detected by
    /// magic: a packed `flexserve-trace-v1` file replays through its
    /// frame index, anything else parses as JSONL. A replay is a
    /// [`RequestSource`], never a [`Scenario`] (see
    /// [`WorkloadSpec::source`]). Rounds past the end of the file are
    /// empty; `T`, `λ` and the seed are ignored — the demand is whatever
    /// was recorded.
    Replay {
        /// Path to the trace file (packed or JSONL).
        path: String,
    },
}

impl WorkloadSpec {
    /// Instantiates a generator's scenario over a substrate.
    ///
    /// `t_periods` and `lambda` parameterize the daily rhythm where the
    /// scenario has one (commuter, time-zones); stationary workloads
    /// (proximity, uniform, on/off) ignore them.
    ///
    /// # Panics
    ///
    /// On a `replay:` workload, which is no scenario: it streams through
    /// [`WorkloadSpec::source`], where a round that does not read is an
    /// `Err`.
    pub fn instantiate(
        &self,
        graph: &Graph,
        matrix: &DistanceMatrix,
        t_periods: u32,
        lambda: u64,
        seed: u64,
    ) -> Box<dyn Scenario> {
        match self {
            WorkloadSpec::CommuterDynamic => Box::new(CommuterScenario::with_matrix(
                graph,
                matrix,
                t_periods,
                lambda,
                LoadVariant::Dynamic,
                seed,
            )),
            WorkloadSpec::CommuterStatic => Box::new(CommuterScenario::with_matrix(
                graph,
                matrix,
                t_periods,
                lambda,
                LoadVariant::Static,
                seed,
            )),
            WorkloadSpec::TimeZones {
                hot_percent,
                requests,
            } => Box::new(TimeZonesScenario::new(
                graph,
                t_periods,
                lambda,
                f64::from(*hot_percent) / 100.0,
                *requests,
                seed,
            )),
            WorkloadSpec::Proximity {
                requests,
                pool_percent,
            } => Box::new(ProximityScenario::with_matrix(
                graph,
                matrix,
                *requests,
                f64::from(*pool_percent) / 100.0,
                seed,
            )),
            WorkloadSpec::Uniform { requests } => {
                Box::new(UniformScenario::new(graph, *requests, seed))
            }
            WorkloadSpec::OnOff {
                users,
                dwell,
                correlated,
            } => Box::new(OnOffScenario::new(graph, *users, *dwell, *correlated, seed)),
            WorkloadSpec::Replay { path } => {
                panic!("wl=replay:{path} is not a scenario; stream it through WorkloadSpec::source")
            }
        }
    }

    /// The workload over `env` as a stream of exactly `rounds` rounds —
    /// the one place a workload becomes a [`RequestSource`]. A generator
    /// streams its scenario; a `replay:` file streams through
    /// [`replay_source`], padded with empty rounds past its end. Opening
    /// a replay checks its structure and its fit to the substrate; a
    /// round that does not decode fails the pull that reaches it.
    pub fn source(
        &self,
        env: &ExperimentEnv,
        t_periods: u32,
        lambda: u64,
        rounds: u64,
        seed: u64,
    ) -> Result<Box<dyn RequestSource + Send>, String> {
        Ok(match self {
            WorkloadSpec::Replay { path } => Box::new(Padded::new(
                replay_source(path, env.graph.node_count())?,
                rounds,
            )),
            _ => Box::new(ScenarioStream::new(
                self.instantiate(&env.graph, &env.matrix, t_periods, lambda, seed),
                Some(rounds),
            )),
        })
    }

    /// For `replay:<path>` workloads: checks the file exists, parses and
    /// fits a substrate of `node_count` nodes. Other workloads always
    /// validate. A packed trace validates structurally (magic, frame
    /// index, fingerprint, universe) *without* decoding any rounds, so
    /// million-round packs stay O(1) here; a JSONL file parses every
    /// line.
    pub fn validate_replay(&self, node_count: usize) -> Result<(), String> {
        match self {
            WorkloadSpec::Replay { path } => {
                let mut source = replay_source(path, node_count)?;
                if !is_packed_file(path)? {
                    while source.next_round()?.is_some() {}
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Records `rounds` rounds of this workload over `env` into the
    /// [`Demand`] one cell's strategies share. Nothing is retained: every
    /// call records afresh (counted by [`TraceCache`]), and the trace is
    /// freed with the last clone of the demand. Scenarios are
    /// deterministic, so two recordings of one key are bit-identical.
    ///
    /// # Panics
    ///
    /// When a `replay:` file does not read, decode or fit the substrate;
    /// cells read replays through [`CellSpec::record`] and
    /// [`CellSpec::run`], which return the error instead.
    pub fn record(
        &self,
        env: &ExperimentEnv,
        t_periods: u32,
        lambda: u64,
        rounds: u64,
        seed: u64,
    ) -> Demand {
        self.try_record(env, t_periods, lambda, rounds, seed)
            .unwrap_or_else(|e| panic!("wl=replay: {e}"))
    }

    /// [`WorkloadSpec::record`] that returns a replay's read error. A
    /// replay is read by draining [`WorkloadSpec::source`], so every
    /// decode error is returned here, not raised in a strategy.
    fn try_record(
        &self,
        env: &ExperimentEnv,
        t_periods: u32,
        lambda: u64,
        rounds: u64,
        seed: u64,
    ) -> Result<Demand, String> {
        TraceCache::global().count_recording();
        let replay = matches!(self, WorkloadSpec::Replay { .. });
        let trace = if replay {
            let mut source = self.source(env, t_periods, lambda, rounds, seed)?;
            RoundTrace::from_source(source.as_mut(), None)?
        } else {
            let mut scenario = self.instantiate(&env.graph, &env.matrix, t_periods, lambda, seed);
            Trace::record(scenario.as_mut(), rounds)
        };
        let key = TraceKey {
            substrate: env.graph.fingerprint(),
            workload: self.to_string(),
            t_periods,
            lambda,
            rounds,
            // A replay is the same demand under every seed.
            seed: if replay { 0 } else { seed },
        };
        Ok(Demand::new(env, key, trace))
    }
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadSpec::CommuterDynamic => write!(f, "commuter-dynamic"),
            WorkloadSpec::CommuterStatic => write!(f, "commuter-static"),
            WorkloadSpec::TimeZones {
                hot_percent,
                requests,
            } => write!(f, "time-zones:p={hot_percent},req={requests}"),
            WorkloadSpec::Proximity {
                requests,
                pool_percent,
            } => write!(f, "proximity:req={requests},pool={pool_percent}"),
            WorkloadSpec::Uniform { requests } => write!(f, "uniform:req={requests}"),
            WorkloadSpec::OnOff {
                users,
                dwell,
                correlated,
            } => write!(
                f,
                "onoff:users={users},dwell={dwell},correlated={correlated}"
            ),
            WorkloadSpec::Replay { path } => write!(f, "replay:{path}"),
        }
    }
}

fn parse_field<T: FromStr>(kind: &str, key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{kind}: bad value {value:?} for {key}"))
}

impl FromStr for WorkloadSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (kind, args) = match s.split_once(':') {
            Some((k, a)) => (k, a),
            None => (s, ""),
        };
        match kind {
            "commuter-dynamic" => Ok(WorkloadSpec::CommuterDynamic),
            "commuter-static" => Ok(WorkloadSpec::CommuterStatic),
            "time-zones" => {
                let (mut p, mut req) = (50u32, 50usize);
                for (k, v) in parse_kv(kind, args, &["p", "req"])? {
                    match k {
                        "p" => p = parse_field(kind, k, v)?,
                        _ => req = parse_field(kind, k, v)?,
                    }
                }
                if p > 100 {
                    return Err(format!("time-zones: p must be 0–100, got {p}"));
                }
                Ok(WorkloadSpec::TimeZones {
                    hot_percent: p,
                    requests: req,
                })
            }
            "proximity" => {
                let (mut req, mut pool) = (20usize, 20u32);
                for (k, v) in parse_kv(kind, args, &["req", "pool"])? {
                    match k {
                        "req" => req = parse_field(kind, k, v)?,
                        _ => pool = parse_field(kind, k, v)?,
                    }
                }
                if pool == 0 || pool > 100 {
                    return Err(format!("proximity: pool must be 1–100, got {pool}"));
                }
                Ok(WorkloadSpec::Proximity {
                    requests: req,
                    pool_percent: pool,
                })
            }
            "uniform" => {
                let mut req = 10usize;
                for (k, v) in parse_kv(kind, args, &["req"])? {
                    req = parse_field(kind, k, v)?;
                }
                Ok(WorkloadSpec::Uniform { requests: req })
            }
            "onoff" => {
                let (mut users, mut dwell, mut correlated) = (40usize, 5u64, false);
                for (k, v) in parse_kv(kind, args, &["users", "dwell", "correlated"])? {
                    match k {
                        "users" => users = parse_field(kind, k, v)?,
                        "dwell" => dwell = parse_field(kind, k, v)?,
                        _ => correlated = parse_field(kind, k, v)?,
                    }
                }
                Ok(WorkloadSpec::OnOff {
                    users,
                    dwell,
                    correlated,
                })
            }
            "replay" => {
                if args.is_empty() {
                    return Err("replay: expected replay:<path> (JSONL or packed trace)".into());
                }
                Ok(WorkloadSpec::Replay {
                    path: args.to_string(),
                })
            }
            _ => Err(format!(
                "unknown workload {s:?} (expected commuter-dynamic, commuter-static, \
                 time-zones, proximity, uniform, onoff or replay)"
            )),
        }
    }
}

/// An allocation strategy, identified by its paper name (lowercased).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StrategySpec {
    /// ONTH, the threshold algorithm (`onth`).
    OnTh,
    /// ONBR with fixed threshold `2c` (`onbr-fixed`, alias `onbr`).
    OnBrFixed,
    /// ONBR with dynamic threshold `2c/ℓ` (`onbr-dyn`).
    OnBrDyn,
    /// ONCONF, the configuration-counter algorithm (`onconf`;
    /// exponential state space — small substrates only).
    OnConf,
    /// SAMPLEDCONF, the §III-A sampling speed-up of ONCONF (`sampledconf`).
    SampledConf,
    /// OFFBR, lookahead best response (`offbr`).
    OffBr,
    /// OFFTH, lookahead threshold (`offth`).
    OffTh,
    /// OFFSTAT, the optimal *static* provisioning (`offstat`).
    OffStat,
    /// OPT, the optimal offline dynamic program (`opt`; small substrates
    /// only).
    Opt,
    /// Never reconfigures (`static`).
    Static,
}

/// Every strategy the registry exposes, in display order.
pub const ALL_STRATEGIES: [StrategySpec; 10] = [
    StrategySpec::OnTh,
    StrategySpec::OnBrFixed,
    StrategySpec::OnBrDyn,
    StrategySpec::OnConf,
    StrategySpec::SampledConf,
    StrategySpec::OffBr,
    StrategySpec::OffTh,
    StrategySpec::OffStat,
    StrategySpec::Opt,
    StrategySpec::Static,
];

impl StrategySpec {
    /// Runs the strategy on a recorded trace, starting from one server at
    /// the network center (the paper's canonical start). `seed` only
    /// matters for the randomized ONCONF.
    ///
    /// OFFSTAT and OPT return their total cost in the `access` component
    /// (they report a scalar optimum, not a breakdown) — the same
    /// convention the figure pipelines use.
    ///
    /// Results are memoized in the process-wide [`RunMemo`] under the
    /// run's complete input, so a run that another figure already made is
    /// answered without playing the game again — with bit-identical
    /// costs. The memo keeps every run, so this is for the figure
    /// pipelines, whose registry bounds their runs; cells call
    /// [`evaluate`](Self::evaluate). `ctx` must be over the substrate
    /// `demand` was recorded for.
    pub fn run(self, ctx: &SimContext<'_>, demand: &Demand, seed: u64) -> CostBreakdown {
        assert!(
            demand.is_recorded_on(ctx.graph),
            "{self}: the demand was recorded for another substrate than the context's"
        );
        let key = RunKey::new(self, ctx, demand, seed);
        RunMemo::global().get_or_run(key, || self.evaluate(ctx, demand, seed))
    }

    /// Plays the strategy on `trace` — [`StrategySpec::run`] without the
    /// memo, for runs that never repeat and traces that are not a
    /// recorded [`Demand`].
    pub fn evaluate(self, ctx: &SimContext<'_>, trace: &Trace, seed: u64) -> CostBreakdown {
        // Concrete `run_online::<S>` calls, not `instantiate_online`'s
        // `Box<dyn>`: the batch path keeps its statically dispatched loop.
        // Traces are `Arc`-shared, so the offline strategies'
        // `trace.clone()` costs a reference count.
        let initial = initial_center(ctx);
        let record = match self {
            StrategySpec::OnTh => run_online(ctx, trace, &mut OnTh::new(), initial),
            StrategySpec::OnBrFixed => run_online(ctx, trace, &mut OnBr::fixed(ctx), initial),
            StrategySpec::OnBrDyn => run_online(ctx, trace, &mut OnBr::dynamic(ctx), initial),
            StrategySpec::OffBr => {
                run_online(ctx, trace, &mut OffBr::fixed(ctx, trace.clone()), initial)
            }
            StrategySpec::OffTh => run_online(ctx, trace, &mut OffTh::new(trace.clone()), initial),
            StrategySpec::Static => run_online(ctx, trace, &mut StaticStrategy::new(), initial),
            StrategySpec::OnConf => {
                run_online(ctx, trace, &mut OnConf::new(ctx, &initial, seed), initial)
            }
            StrategySpec::SampledConf => {
                run_online(ctx, trace, &mut SampledConf::new(ctx), initial)
            }
            StrategySpec::OffStat => {
                return CostBreakdown::from_access(offstat(ctx, trace).best_cost)
            }
            StrategySpec::Opt => {
                return CostBreakdown::from_access(optimal_plan(ctx, trace, &initial).cost)
            }
        };
        record.total()
    }

    /// Whether the strategy enumerates configurations and therefore only
    /// works on small substrates (each variant is pre-checked against its
    /// own state cap by [`CellSpec::validate`]).
    pub fn enumerates_configurations(self) -> bool {
        matches!(self, StrategySpec::OnConf | StrategySpec::Opt)
    }

    /// Constructs the strategy in its streaming form — a boxed
    /// [`OnlineStrategy`] an [`EventedSession`] (and so the `flexserve
    /// serve` daemon) can drive one round at a time, without a recorded
    /// trace.
    ///
    /// Offline strategies need the full future request sequence and have
    /// no streaming form: `offbr`, `offth` and `opt` are refused here
    /// (`offstat` has one — `OffStatPlacement` — but it must be built
    /// from a recorded trace, which the serve layer does when the request
    /// source is a scenario).
    pub fn instantiate_online(
        self,
        ctx: &SimContext<'_>,
        seed: u64,
    ) -> Result<Box<dyn OnlineStrategy + Send>, String> {
        match self {
            StrategySpec::OnTh => Ok(Box::new(OnTh::new())),
            StrategySpec::OnBrFixed => Ok(Box::new(OnBr::fixed(ctx))),
            StrategySpec::OnBrDyn => Ok(Box::new(OnBr::dynamic(ctx))),
            StrategySpec::OnConf => Ok(Box::new(OnConf::new(ctx, &initial_center(ctx), seed))),
            StrategySpec::SampledConf => Ok(Box::new(SampledConf::new(ctx))),
            StrategySpec::Static => Ok(Box::new(StaticStrategy::new())),
            StrategySpec::OffStat
            | StrategySpec::OffBr
            | StrategySpec::OffTh
            | StrategySpec::Opt => Err(format!(
                "{self}: offline strategies need the whole request sequence up front \
                     and cannot be driven round-by-round"
            )),
        }
    }
}

impl fmt::Display for StrategySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            StrategySpec::OnTh => "onth",
            StrategySpec::OnBrFixed => "onbr-fixed",
            StrategySpec::OnBrDyn => "onbr-dyn",
            StrategySpec::OnConf => "onconf",
            StrategySpec::SampledConf => "sampledconf",
            StrategySpec::OffBr => "offbr",
            StrategySpec::OffTh => "offth",
            StrategySpec::OffStat => "offstat",
            StrategySpec::Opt => "opt",
            StrategySpec::Static => "static",
        };
        write!(f, "{name}")
    }
}

impl FromStr for StrategySpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "onth" => Ok(StrategySpec::OnTh),
            "onbr" | "onbr-fixed" => Ok(StrategySpec::OnBrFixed),
            "onbr-dyn" => Ok(StrategySpec::OnBrDyn),
            "onconf" => Ok(StrategySpec::OnConf),
            "sampledconf" => Ok(StrategySpec::SampledConf),
            "offbr" => Ok(StrategySpec::OffBr),
            "offth" => Ok(StrategySpec::OffTh),
            "offstat" => Ok(StrategySpec::OffStat),
            "opt" => Ok(StrategySpec::Opt),
            "static" => Ok(StrategySpec::Static),
            _ => Err(format!(
                "unknown strategy {s:?} (expected onth, onbr-fixed, onbr-dyn, onconf, \
                 sampledconf, offbr, offth, offstat, opt or static)"
            )),
        }
    }
}

/// One experimental cell: topology × workload × strategy plus run
/// parameters. [`CellSpec::run`] averages the cell over its seeds via the
/// seed-parallel runner, pulling substrates from the distance-matrix cache.
///
/// Every axis parses from its canonical string (see `flexserve list`), so
/// a cell is fully describable as data:
///
/// ```
/// use flexserve_experiments::spec::{CellSpec, StrategySpec};
///
/// let mut cell = CellSpec::new(
///     "unit-line:8".parse().unwrap(),
///     "uniform:req=3".parse().unwrap(),
///     StrategySpec::OnTh,
/// );
/// cell.rounds = 20;
/// cell.seeds = vec![1, 2];
/// cell.params = cell.params.with_max_servers(4);
///
/// let result = cell.run().unwrap();
/// assert_eq!(result.summary.per_seed.len(), 2);
/// assert!(result.summary.mean_total() > 0.0);
/// assert!(cell.describe().contains("unit-line:8"));
/// ```
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// Substrate topology.
    pub topology: TopologySpec,
    /// Demand workload.
    pub workload: WorkloadSpec,
    /// Allocation strategy.
    pub strategy: StrategySpec,
    /// Periods per day `T`.
    pub t_periods: u32,
    /// Rounds per period `λ`.
    pub lambda: u64,
    /// Total simulated rounds.
    pub rounds: u64,
    /// Seeds averaged over (substrate and workload derive from each seed).
    pub seeds: Vec<u64>,
    /// Cost-model parameters.
    pub params: CostParams,
    /// Server load model.
    pub load: LoadModel,
    /// Scheduled substrate events (failures, recoveries, degradations);
    /// empty for the static substrates of the paper reproductions. A
    /// non-empty schedule switches [`CellSpec::run`] onto the evented
    /// session and restricts the cell to streaming-capable strategies.
    pub events: SubstrateEvents,
}

impl CellSpec {
    /// A cell with the paper's default parameters: `T=8`, `λ=10`,
    /// 200 rounds, seeds 1000–1002, default cost model, linear load.
    pub fn new(topology: TopologySpec, workload: WorkloadSpec, strategy: StrategySpec) -> Self {
        CellSpec {
            topology,
            workload,
            strategy,
            t_periods: 8,
            lambda: 10,
            rounds: 200,
            seeds: vec![1000, 1001, 1002],
            params: CostParams::default(),
            load: LoadModel::Linear,
            events: SubstrateEvents::new(),
        }
    }

    /// Canonical one-line cell description (manifest + sweep CSV rows).
    /// Event-free cells keep the historical format; a schedule appends an
    /// `events=` field, so the manifest records exactly what was injected.
    pub fn describe(&self) -> String {
        let events = if self.events.is_empty() {
            String::new()
        } else {
            format!(", events={}", self.events.render())
        };
        format!(
            "{} x {} x {} (T={}, lambda={}, rounds={}, {} seeds, {}, load={}{events})",
            self.topology,
            self.workload,
            self.strategy,
            self.t_periods,
            self.lambda,
            self.rounds,
            self.seeds.len(),
            self.params.summary(),
            self.load
        )
    }

    /// Checks the cell is runnable before any expensive work: parameters
    /// validate, the first seed's substrate builds, and
    /// configuration-enumerating strategies (OPT, ONCONF) fit their state
    /// budgets (each checked with its own crate-of-origin count function,
    /// so the pre-check can never drift from the algorithms' panic caps).
    /// A replay workload must exist, parse and fit the substrate.
    pub fn validate(&self) -> Result<(), String> {
        let nodes = self.validate_except_replay()?;
        self.workload.validate_replay(nodes)
    }

    /// [`CellSpec::validate`] without opening a `replay:` file, for a
    /// caller that opens it right after anyway (a serve session, through
    /// [`WorkloadSpec::source`]; [`CellSpec::run_under`], through
    /// [`CellSpec::record`]). Returns the substrate's node
    /// count.
    pub fn validate_except_replay(&self) -> Result<usize, String> {
        self.params.validate()?;
        if self.seeds.is_empty() {
            return Err("cell: at least one seed is required".into());
        }
        if self.rounds == 0 {
            return Err("cell: rounds must be >= 1".into());
        }
        if self.t_periods == 0 || self.lambda == 0 {
            return Err("cell: T and lambda must be >= 1".into());
        }
        // Through the cache: under a lease on the cell's keys (a sweep's,
        // a session's or `run`'s own), the substrate this builds is the
        // one run() fetches, so validation costs no duplicate work.
        let env = ExperimentEnv::from_spec(&self.topology, self.seeds[0])?;
        let n = env.graph.node_count();
        if !self.events.is_empty() {
            // Offline strategies plan against the whole trace on a static
            // substrate; events fire between rounds, which only streaming
            // strategies can observe.
            if matches!(
                self.strategy,
                StrategySpec::OffBr
                    | StrategySpec::OffTh
                    | StrategySpec::OffStat
                    | StrategySpec::Opt
            ) {
                return Err(format!(
                    "events: {} is an offline strategy and cannot run on a dynamic substrate",
                    self.strategy
                ));
            }
            if let Some(last) = self.events.last_time() {
                if last >= self.rounds {
                    return Err(format!(
                        "events: event scheduled at round {last} but the cell runs only {} rounds",
                        self.rounds
                    ));
                }
            }
            // Dry-run the whole schedule against the first seed's
            // substrate so unknown links and double failures are refused
            // before any strategy runs.
            let mut world =
                flexserve_sim::DynamicWorld::new(Arc::clone(&env.graph), Arc::clone(&env.matrix));
            for (t, event) in self.events.entries() {
                world
                    .apply(event)
                    .map_err(|e| format!("events: round {t}: {e}"))?;
            }
        }
        let k = self.params.max_servers.min(n);
        match self.strategy {
            // The OPT DP mirrors configurations into 64-bit position masks
            // and enumerates position sets × active subsets.
            StrategySpec::Opt => {
                if n > 64 {
                    return Err(format!(
                        "opt: {n}-node substrate exceeds the DP's 64-bit configuration \
                         mask (use a substrate with <= 64 nodes)"
                    ));
                }
                let states = flexserve_core::opt::state_count(n, k);
                let max = flexserve_core::opt::MAX_STATES as u128;
                if states > max {
                    return Err(format!(
                        "opt: {states} configurations (n={n}, k={k}) exceed MAX_STATES={max}; \
                         shrink the substrate or the server budget k"
                    ));
                }
            }
            // ONCONF holds explicit node lists (no bitmask, no node-count
            // limit) but enumerates all position sets up to size k.
            StrategySpec::OnConf => {
                let configs = flexserve_core::onconf::config_count(n, k);
                let max = flexserve_core::onconf::MAX_CONFIGURATIONS;
                if configs > max {
                    return Err(format!(
                        "onconf: {configs} configurations (n={n}, k={k}) exceed the cap \
                         of {max}; shrink the substrate or the server budget k"
                    ));
                }
            }
            _ => {}
        }
        Ok(n)
    }

    /// The demand half of this cell for `seed`: its workload recorded
    /// over `env` at the cell's `T`, `λ` and rounds (see
    /// [`WorkloadSpec::record`]), or the replay file's read error.
    pub fn record(&self, env: &ExperimentEnv, seed: u64) -> Result<Demand, String> {
        self.workload
            .try_record(env, self.t_periods, self.lambda, self.rounds, seed)
    }

    /// The substrate key of each seed, in seed order (one key for all
    /// seeds of a seed-insensitive topology): the shares a lease taken
    /// before [`validate`](Self::validate) holds for
    /// [`run_under`](Self::run_under).
    pub fn substrates(&self) -> Vec<SubstrateKey> {
        self.seeds.iter().map(|&s| self.topology.key(s)).collect()
    }

    /// Runs the cell under a lease of its own on its
    /// [`substrates`](Self::substrates); see [`run_under`](Self::run_under).
    pub fn run(&self) -> Result<CellResult, String> {
        self.run_under(&DistCache::global().lease(self.substrates()))
    }

    /// Runs the cell: for each seed (in parallel), build or fetch the
    /// substrate, record the demand, play the strategy through
    /// [`StrategySpec::evaluate`] (a cell never repeats a run, so the
    /// result memo would only grow), and collect the cost breakdowns in
    /// seed order. A replay cell reads its file once, before any seed
    /// runs, and hands that one trace to every seed; a read or decode
    /// error is returned. That read is the cell's only pass over the
    /// file: validation here skips the replay
    /// ([`validate_except_replay`](Self::validate_except_replay)), so a
    /// line past the rounds the cell plays is never read — a caller that
    /// must refuse it runs [`validate`](Self::validate) first, as `flexserve
    /// run` and `sweep` do for every cell. `lease` holds a share of each of
    /// [`substrates`](Self::substrates), so validation and the seeds share
    /// one build per key, and each seed gives its share back as soon as it
    /// has run.
    ///
    /// Returns the per-seed summary plus the substrate fingerprint of the
    /// first seed (recorded in the manifest for provenance).
    pub fn run_under(&self, lease: &Lease<'_>) -> Result<CellResult, String> {
        self.validate_except_replay()?;
        let first = ExperimentEnv::from_spec(&self.topology, self.seeds[0])?;
        let fingerprint = first.graph.fingerprint();
        let replay = match &self.workload {
            WorkloadSpec::Replay { .. } => Some(self.record(&first, self.seeds[0])?),
            _ => None,
        };
        drop(first);
        let summary = average(&self.seeds, |seed| {
            let env =
                ExperimentEnv::from_spec(&self.topology, seed).expect("validated spec must build");
            let ctx = env.context(self.params, self.load);
            let demand = match &replay {
                Some(read) => read.clone(),
                None => {
                    (self.workload).record(&env, self.t_periods, self.lambda, self.rounds, seed)
                }
            };
            let cost = if self.events.is_empty() {
                self.strategy.evaluate(&ctx, &demand, seed)
            } else {
                // Dynamic substrate: drive the evented session over the
                // same recorded demand (validated: the strategy streams
                // and the schedule dry-ran on the first seed's substrate).
                let strategy = self
                    .strategy
                    .instantiate_online(&ctx, seed)
                    .expect("validated: strategy has a streaming form");
                let initial = initial_center(&ctx);
                let mut session = EventedSession::new(
                    Arc::clone(&env.graph),
                    Arc::clone(&env.matrix),
                    self.events.clone(),
                    self.params,
                    self.load,
                    strategy,
                    initial,
                );
                let mut total = CostBreakdown::zero();
                for round in demand.iter() {
                    let record = session
                        .step(round)
                        .unwrap_or_else(|e| panic!("events cell (seed {seed}): {e}"));
                    total += record.costs;
                }
                total
            };
            lease.release(&[self.topology.key(seed)]);
            cost
        });
        Ok(CellResult {
            summary,
            fingerprint,
        })
    }
}

/// The outcome of [`CellSpec::run`].
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Per-seed cost breakdowns, in seed order.
    pub summary: SeedSummary,
    /// `Graph::fingerprint` of the first seed's substrate.
    pub fingerprint: u64,
}

/// Incremental single-seed [`CellSpec`] builder over `key=value` pairs —
/// the cell grammar shared by the `flexserve serve` command line and the
/// serve daemon's `POST /sessions` body, so the CLI and HTTP surfaces
/// accept exactly the same cells and can never drift apart.
///
/// Cell keys: `topo`, `wl`, `strat` (required), `t`, `lambda`, `rounds`,
/// `seed` (a single seed, not a list), `load`, `beta`, `c`, `ra`, `ri`,
/// `k`, `flipped`, `events` (a substrate-event schedule, see
/// `docs/FAULTS.md`). [`apply`](CellBuilder::apply) returns `Ok(false)`
/// for any other key, so callers can layer their own keys (`checkpoint=`,
/// `bind=`, …) on top.
///
/// ```
/// use flexserve_experiments::spec::CellBuilder;
///
/// let mut b = CellBuilder::new();
/// for kv in ["topo=unit-line:8", "wl=uniform:req=3", "strat=onth", "seed=7", "k=4"] {
///     let (key, value) = kv.split_once('=').unwrap();
///     assert!(b.apply(key, value).unwrap());
/// }
/// assert!(!b.apply("port", "0").unwrap()); // not a cell key
/// let cell = b.build().unwrap();
/// assert_eq!(cell.seeds, vec![7]);
/// assert_eq!(cell.params.max_servers, 4);
/// ```
#[derive(Clone, Debug)]
pub struct CellBuilder {
    topology: Option<TopologySpec>,
    workload: Option<WorkloadSpec>,
    strategy: Option<StrategySpec>,
    t_periods: u32,
    lambda: u64,
    rounds: u64,
    seed: u64,
    load: LoadModel,
    params: CostParams,
    beta: Option<f64>,
    c: Option<f64>,
    flipped: bool,
    events: SubstrateEvents,
}

impl Default for CellBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CellBuilder {
    /// A builder with the serve defaults: `T=8`, `λ=10`, 200 rounds,
    /// seed 1000, linear load, default cost model.
    pub fn new() -> Self {
        CellBuilder {
            topology: None,
            workload: None,
            strategy: None,
            t_periods: 8,
            lambda: 10,
            rounds: 200,
            seed: 1000,
            load: LoadModel::Linear,
            params: CostParams::default(),
            beta: None,
            c: None,
            flipped: false,
            events: SubstrateEvents::new(),
        }
    }

    /// True when `key` belongs to the cell grammar (as opposed to a
    /// session- or server-level key) — lets callers that *rewrite*
    /// argument lists (the routing tier recreating a migrated session,
    /// `serve::route`) classify keys without duplicating the grammar. A
    /// cell key whose probe value fails to parse is still a cell key.
    pub fn is_cell_key(key: &str) -> bool {
        CellBuilder::new().apply(key, "0").unwrap_or(true)
    }

    /// Applies one `key=value` pair. Returns `Ok(true)` when the key was
    /// a cell key, `Ok(false)` when it is not (the caller's problem), and
    /// `Err` when the key is a cell key but the value does not parse.
    pub fn apply(&mut self, key: &str, v: &str) -> Result<bool, String> {
        match key {
            "topo" => self.topology = Some(v.parse().map_err(|e| format!("topo: {e}"))?),
            "wl" => self.workload = Some(v.parse().map_err(|e| format!("wl: {e}"))?),
            "strat" => {
                self.strategy = Some(
                    v.parse::<StrategySpec>()
                        .map_err(|e| format!("strat: {e}"))?,
                )
            }
            "t" => self.t_periods = v.parse().map_err(|_| format!("t: bad value {v:?}"))?,
            "lambda" => self.lambda = v.parse().map_err(|_| format!("lambda: bad value {v:?}"))?,
            "rounds" => self.rounds = v.parse().map_err(|_| format!("rounds: bad value {v:?}"))?,
            "seed" => self.seed = v.parse().map_err(|_| format!("seed: bad value {v:?}"))?,
            "load" => self.load = v.parse()?,
            "beta" => self.beta = Some(v.parse().map_err(|_| format!("beta: bad value {v:?}"))?),
            "c" => self.c = Some(v.parse().map_err(|_| format!("c: bad value {v:?}"))?),
            "ra" => {
                self.params.run_active = v.parse().map_err(|_| format!("ra: bad value {v:?}"))?
            }
            "ri" => {
                self.params.run_inactive = v.parse().map_err(|_| format!("ri: bad value {v:?}"))?
            }
            "k" => {
                self.params.max_servers = v.parse().map_err(|_| format!("k: bad value {v:?}"))?
            }
            "flipped" => {
                self.flipped = v.parse().map_err(|_| format!("flipped: bad value {v:?}"))?
            }
            "events" => self.events = SubstrateEvents::parse(v)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Finalizes the cell. `flipped=true` is a shorthand for the paper's
    /// β=400/c=40 regime; explicit `beta=`/`c=` always win, regardless of
    /// argument order.
    pub fn build(self) -> Result<CellSpec, String> {
        let (topology, workload, strategy) = match (self.topology, self.workload, self.strategy) {
            (Some(t), Some(w), Some(s)) => (t, w, s),
            _ => return Err("topo=, wl= and strat= are required".into()),
        };
        let mut params = self.params;
        if self.flipped {
            params = params.with_costs(
                CostParams::flipped().migration_beta,
                CostParams::flipped().creation_c,
            );
        }
        if let Some(beta) = self.beta {
            params.migration_beta = beta;
        }
        if let Some(c) = self.c {
            params.creation_c = c;
        }
        let mut cell = CellSpec::new(topology, workload, strategy);
        cell.t_periods = self.t_periods;
        cell.lambda = self.lambda;
        cell.rounds = self.rounds;
        cell.seeds = vec![self.seed];
        cell.params = params;
        cell.load = self.load;
        cell.events = self.events;
        Ok(cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_cell_key_classifies_the_grammar() {
        for key in [
            "topo", "wl", "strat", "t", "lambda", "rounds", "seed", "load", "beta", "c", "ra",
            "ri", "k", "flipped", "events",
        ] {
            assert!(CellBuilder::is_cell_key(key), "{key} is a cell key");
        }
        for key in [
            "checkpoint",
            "resume",
            "source",
            "port",
            "bind",
            "workers",
            "max-sessions",
            "",
        ] {
            assert!(!CellBuilder::is_cell_key(key), "{key} is not a cell key");
        }
    }

    #[test]
    fn topology_specs_round_trip() {
        for s in [
            "er:200",
            "waxman:100",
            "grid:8x12",
            "geom:150",
            "line:5",
            "unit-line:9",
            "ring:32",
            "star:16",
            "tree:64",
            "as7018",
            "rocketfuel:data/as7018.weights",
        ] {
            let spec: TopologySpec = s.parse().unwrap();
            assert_eq!(spec.to_string(), s, "canonical form must round-trip");
        }
        assert!("er".parse::<TopologySpec>().is_err());
        assert!("er:0".parse::<TopologySpec>().is_err());
        assert!("grid:5".parse::<TopologySpec>().is_err());
        assert!("mesh:5".parse::<TopologySpec>().is_err());
    }

    #[test]
    fn workload_specs_round_trip_and_default() {
        for s in [
            "commuter-dynamic",
            "commuter-static",
            "time-zones:p=50,req=50",
            "proximity:req=20,pool=20",
            "uniform:req=10",
            "onoff:users=40,dwell=5,correlated=false",
        ] {
            let spec: WorkloadSpec = s.parse().unwrap();
            assert_eq!(spec.to_string(), s);
        }
        // bare names parse to the defaults above
        assert_eq!(
            "time-zones".parse::<WorkloadSpec>().unwrap().to_string(),
            "time-zones:p=50,req=50"
        );
        assert_eq!(
            "uniform".parse::<WorkloadSpec>().unwrap().to_string(),
            "uniform:req=10"
        );
        assert!("time-zones:p=200".parse::<WorkloadSpec>().is_err());
        assert!("time-zones:bogus=1".parse::<WorkloadSpec>().is_err());
        assert!("rush-hour".parse::<WorkloadSpec>().is_err());
    }

    #[test]
    fn cell_builder_flipped_and_explicit_costs() {
        let mut b = CellBuilder::new();
        for kv in ["topo=er:50", "wl=commuter-dynamic", "strat=onbr"] {
            let (k, v) = kv.split_once('=').unwrap();
            assert!(b.apply(k, v).unwrap());
        }
        // flipped shorthand, then an explicit beta override (order-proof)
        assert!(b.apply("flipped", "true").unwrap());
        assert!(b.apply("beta", "7.5").unwrap());
        let cell = b.build().unwrap();
        assert_eq!(cell.params.migration_beta, 7.5);
        assert_eq!(cell.params.creation_c, CostParams::flipped().creation_c);

        // missing axes are refused
        assert!(CellBuilder::new().build().unwrap_err().contains("required"));
        // cell-key values must parse
        assert!(CellBuilder::new().apply("rounds", "many").is_err());
    }

    #[test]
    fn strategy_specs_round_trip() {
        for s in ALL_STRATEGIES {
            assert_eq!(s.to_string().parse::<StrategySpec>().unwrap(), s);
        }
        assert_eq!(
            "onbr".parse::<StrategySpec>().unwrap(),
            StrategySpec::OnBrFixed
        );
        assert!("greedy".parse::<StrategySpec>().is_err());
    }

    #[test]
    fn topologies_build_deterministically() {
        for s in [
            "er:40",
            "waxman:30",
            "grid:4x5",
            "geom:30",
            "ring:12",
            "tree:20",
        ] {
            let spec: TopologySpec = s.parse().unwrap();
            let a = spec.build(7).unwrap();
            let b = spec.build(7).unwrap();
            assert_eq!(
                a.fingerprint(),
                b.fingerprint(),
                "{s} must be deterministic"
            );
            if spec.is_seeded() {
                let c = spec.build(8).unwrap();
                assert_ne!(a.fingerprint(), c.fingerprint(), "{s} must vary with seed");
            }
        }
    }

    #[test]
    fn feasibility_bounds_come_from_core() {
        // 5-node line with k=4, the paper's OPT setting, is comfortably
        // inside MAX_STATES; a 200-node substrate is hopeless.
        assert!(flexserve_core::opt::state_count(5, 4) < flexserve_core::opt::MAX_STATES as u128);
        assert!(
            flexserve_core::opt::state_count(200, 16) > flexserve_core::opt::MAX_STATES as u128
        );
    }

    #[test]
    fn cell_validation_rejects_infeasible_opt() {
        let cell = CellSpec::new(
            "er:100".parse().unwrap(),
            "commuter-dynamic".parse().unwrap(),
            StrategySpec::Opt,
        );
        let err = cell.validate().unwrap_err();
        assert!(err.contains("64-bit configuration mask"), "{err}");
        // Within the mask but over the state cap: 40 nodes, k=16.
        let mut cell40 = CellSpec::new(
            "er:40".parse().unwrap(),
            "commuter-dynamic".parse().unwrap(),
            StrategySpec::Opt,
        );
        let err = cell40.validate().unwrap_err();
        assert!(err.contains("exceed MAX_STATES"), "{err}");
        cell40.seeds.clear();
        assert!(cell40.validate().is_err());
    }

    #[test]
    fn onconf_has_no_node_count_limit() {
        // ONCONF holds explicit node lists — no 64-bit mask. 100 nodes
        // with k=1 is only 100 configurations and must validate.
        let mut cell = CellSpec::new(
            "er:100".parse().unwrap(),
            "commuter-dynamic".parse().unwrap(),
            StrategySpec::OnConf,
        );
        cell.params = cell.params.with_max_servers(1);
        assert!(cell.validate().is_ok(), "{:?}", cell.validate());
        // But the default k=16 blows the 50 000-configuration cap.
        cell.params = cell.params.with_max_servers(16);
        let err = cell.validate().unwrap_err();
        assert!(
            err.contains("onconf") && err.contains("exceed the cap"),
            "{err}"
        );
    }

    #[test]
    fn online_strategies_instantiate_for_serving() {
        let env = ExperimentEnv::line(6);
        let ctx = env.context(CostParams::default().with_max_servers(3), LoadModel::Linear);
        for strat in [
            StrategySpec::OnTh,
            StrategySpec::OnBrFixed,
            StrategySpec::OnBrDyn,
            StrategySpec::SampledConf,
            StrategySpec::Static,
        ] {
            let boxed = strat.instantiate_online(&ctx, 1).unwrap();
            assert!(!boxed.name().is_empty(), "{strat}");
        }
        for strat in [
            StrategySpec::OffBr,
            StrategySpec::OffTh,
            StrategySpec::Opt,
            StrategySpec::OffStat,
        ] {
            let err = match strat.instantiate_online(&ctx, 1) {
                Err(e) => e,
                Ok(_) => panic!("{strat} must not instantiate online"),
            };
            assert!(err.contains("offline"), "{strat}: {err}");
        }
    }

    #[test]
    fn shared_trace_is_bit_identical_to_fresh_recording() {
        let env = ExperimentEnv::erdos_renyi(48, 5);
        for wl in [
            "commuter-dynamic",
            "commuter-static",
            "time-zones:p=50,req=20",
        ] {
            let wl: WorkloadSpec = wl.parse().unwrap();
            let shared = wl.record(&env, 8, 5, 25, 7);
            assert!(shared.total_requests() > 0, "{wl} generated nothing");
            let mut fresh = wl.instantiate(&env.graph, &env.matrix, 8, 5, 7);
            assert_eq!(*shared, Trace::record(fresh.as_mut(), 25), "{wl}");
            // the cell's strategies share one materialization…
            let clone = shared.clone();
            assert!(std::ptr::eq(shared.round(0), clone.round(0)), "{wl}");
            // …and a second recording is an equal one, named by an equal key
            let again = wl.record(&env, 8, 5, 25, 7);
            assert_eq!(*again, *shared, "{wl}");
            assert_eq!(again.key(), shared.key(), "{wl}");
        }
    }

    #[test]
    fn small_cell_runs_end_to_end() {
        let mut cell = CellSpec::new(
            "unit-line:8".parse().unwrap(),
            "uniform:req=3".parse().unwrap(),
            StrategySpec::OnTh,
        );
        cell.rounds = 25;
        cell.seeds = vec![1, 2];
        cell.params = cell.params.with_max_servers(4);
        let res = cell.run().unwrap();
        assert_eq!(res.summary.per_seed.len(), 2);
        assert!(res.summary.mean_total().is_finite());
        assert!(res.summary.mean_total() > 0.0);
        assert_ne!(res.fingerprint, 0);
        assert!(cell.describe().contains("unit-line:8"));
    }

    #[test]
    fn events_cell_validates_runs_and_describes() {
        let mut cell = CellSpec::new(
            "unit-line:8".parse().unwrap(),
            "uniform:req=3".parse().unwrap(),
            StrategySpec::OnTh,
        );
        cell.rounds = 30;
        cell.seeds = vec![1];
        cell.params = cell.params.with_max_servers(4);
        cell.events =
            SubstrateEvents::parse("5:fail-link:3-4,12:recover-link:3-4,20:degrade-link:0-1:2")
                .unwrap();
        assert!(
            cell.describe().contains("events=5:fail-link:3-4"),
            "{}",
            cell.describe()
        );
        let res = cell.run().unwrap();
        assert!(res.summary.mean_total().is_finite());
        assert!(res.summary.mean_total() > 0.0);

        // Offline strategies are refused on dynamic substrates.
        let mut off = cell.clone();
        off.strategy = StrategySpec::OffBr;
        let err = off.validate().unwrap_err();
        assert!(err.contains("offline"), "{err}");

        // Events past the end of the run are refused.
        let mut late = cell.clone();
        late.rounds = 10;
        let err = late.validate().unwrap_err();
        assert!(err.contains("round 20"), "{err}");

        // An event naming a link the substrate does not have is caught by
        // the dry run, before any strategy work.
        let mut bad = cell.clone();
        bad.events = SubstrateEvents::parse("5:fail-link:0-7").unwrap();
        let err = bad.validate().unwrap_err();
        assert!(err.contains("no link"), "{err}");
    }

    #[test]
    fn events_cell_without_events_matches_static_path() {
        // The evented runner over an empty schedule must agree with the
        // static path bit for bit (same shared code underneath).
        let mut cell = CellSpec::new(
            "unit-line:8".parse().unwrap(),
            "uniform:req=3".parse().unwrap(),
            StrategySpec::OnTh,
        );
        cell.rounds = 25;
        cell.seeds = vec![2];
        cell.params = cell.params.with_max_servers(4);
        let static_total = cell.run().unwrap().summary.mean_total();

        // A no-op schedule: fail and recover the same link in one round.
        cell.events = SubstrateEvents::parse("5:fail-link:3-4,5:recover-link:3-4").unwrap();
        let evented_total = cell.run().unwrap().summary.mean_total();
        assert_eq!(static_total.to_bits(), evented_total.to_bits());
    }

    /// Demand on both sides of a failed link with one server (`k=1`):
    /// every ONBR candidate costs ∞, and the run keeps the servers where
    /// they are instead of panicking.
    #[test]
    fn events_cell_survives_all_infinite_candidates() {
        let mut b = CellBuilder::new();
        for kv in [
            "topo=unit-line:4",
            "wl=uniform:req=3",
            "strat=onbr-fixed",
            "rounds=60",
            "seed=1",
            "k=1",
            "events=0:fail-link:1-2",
        ] {
            let (k, v) = kv.split_once('=').unwrap();
            assert!(b.apply(k, v).unwrap());
        }
        let res = b.build().unwrap().run().unwrap();
        assert!(res.summary.mean_total().is_finite());
    }

    /// Event-free sessions share the cached matrix; the first event copies
    /// it and leaves the cache's copy untouched.
    #[test]
    fn sessions_share_the_cached_matrix_until_an_event() {
        use flexserve_graph::NodeId;
        use flexserve_workload::RoundRequests;
        let env = ExperimentEnv::line(8);
        let pristine = (*env.matrix).clone();
        let params = CostParams::default().with_max_servers(2);
        let ctx = env.context(params, LoadModel::Linear);
        let session = |events: &str| {
            let strategy = StrategySpec::OnTh.instantiate_online(&ctx, 0).unwrap();
            EventedSession::new(
                Arc::clone(&env.graph),
                Arc::clone(&env.matrix),
                SubstrateEvents::parse(events).unwrap(),
                params,
                LoadModel::Linear,
                strategy,
                initial_center(&ctx),
            )
        };
        let batch = RoundRequests::new(vec![NodeId::new(7); 3]);
        let (mut plain, mut failing) = (session(""), session("1:fail-link:3-4"));
        for _ in 0..3 {
            plain.step(&batch).unwrap();
            failing.step(&batch).unwrap();
        }
        assert!(std::ptr::eq(plain.world().dist(), &*env.matrix));
        assert!(std::ptr::eq(plain.world().graph(), &*env.graph));
        assert!(!std::ptr::eq(failing.world().dist(), &*env.matrix));
        let (a, b) = (NodeId::new(3), NodeId::new(4));
        assert!(failing.world().dist().get(a, b).is_infinite());
        for u in env.graph.nodes() {
            for v in env.graph.nodes() {
                assert_eq!(env.matrix.get(u, v).to_bits(), pristine.get(u, v).to_bits());
            }
        }
    }

    #[test]
    fn cell_builder_accepts_events_key() {
        let mut b = CellBuilder::new();
        for kv in [
            "topo=unit-line:8",
            "wl=uniform:req=3",
            "strat=onth",
            "events=5:fail-link:3-4,9:recover-link:3-4",
        ] {
            let (k, v) = kv.split_once('=').unwrap();
            assert!(b.apply(k, v).unwrap());
        }
        let cell = b.build().unwrap();
        assert_eq!(cell.events.len(), 2);
        assert!(CellBuilder::new().apply("events", "5:explode:1").is_err());
    }

    #[test]
    fn offline_strategies_run_in_cells() {
        for strat in [
            StrategySpec::OffStat,
            StrategySpec::Opt,
            StrategySpec::SampledConf,
        ] {
            let mut cell = CellSpec::new(
                "line:5".parse().unwrap(),
                "commuter-dynamic".parse().unwrap(),
                strat,
            );
            cell.rounds = 16;
            cell.t_periods = 4;
            cell.seeds = vec![3];
            cell.params = cell.params.with_max_servers(4);
            let res = cell.run().unwrap();
            assert!(res.summary.mean_total() > 0.0, "{strat}");
        }
    }
}

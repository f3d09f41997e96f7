//! # flexserve-sim
//!
//! Discrete-time simulation engine for the flexible server allocation
//! problem: the cost model, request routing, the server-fleet state
//! machine (active / inactive / not-in-use with the paper's FIFO cache of
//! inactive servers), the transition planner that prices configuration
//! changes, and the synchronous round-based game loop of §II-E:
//!
//! 1. requests `σt` arrive at access points,
//! 2. the algorithm pays the access cost `Cost_acc(t)` to the current
//!    servers,
//! 3. the algorithm reconfigures (allocate / remove / migrate /
//!    (de)activate servers) and pays running and migration costs.
//!
//! The engine is deliberately synchronous and single-threaded per run — the
//! problem is a sequential online game; parallelism lives one level up
//! (the experiment harness fans independent seeds out over rayon workers;
//! `SimContext` is `Copy` over shared borrows precisely so many runs can
//! share one substrate and distance matrix across threads).
//!
//! The game loop has two forms over one round function: the batch
//! [`run_online`] over a recorded trace and a borrowed context, and the
//! one session type [`EventedSession`] (one round per
//! [`EventedSession::step`] call). A session plays over a [`DynamicWorld`]
//! that shares the caller's substrate until a scheduled substrate event
//! ([`events`]) first changes it; with an empty schedule it is the static
//! game. The `flexserve serve` daemon drives sessions, and they checkpoint
//! to hand-rolled JSON ([`checkpoint`]) for bit-identical restore.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checkpoint;
pub mod context;
pub mod cost;
pub mod engine;
pub mod events;
pub mod fleet;
pub mod load;
pub mod params;
pub mod routing;
pub mod session;
pub mod transition;

pub use checkpoint::{SessionMetrics, SessionSnapshot, CHECKPOINT_FORMAT, CHECKPOINT_FORMAT_V1};
pub use context::SimContext;
pub use cost::CostBreakdown;
pub use engine::{run_online, run_plan, OnlineStrategy, Plan, RoundRecord, RunRecord};
pub use events::{DynamicWorld, SubstrateEvent, SubstrateEvents};
pub use fleet::{Fleet, InactiveServer};
pub use load::LoadModel;
pub use params::CostParams;
pub use routing::{route, route_counts, RoutingOutcome, RoutingPolicy, UNREACHABLE_PENALTY};
pub use session::EventedSession;
pub use transition::{config_transition_cost, TransitionOutcome, TransitionPlanner};

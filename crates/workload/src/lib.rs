//! # flexserve-workload
//!
//! Request/demand generators for the flexible server allocation
//! experiments.
//!
//! The paper's request model (§II-D) and simulation set-up (§V-A) define
//! two families of synthetic demand — built here, plus the on/off mobility
//! model sketched in the model section:
//!
//! * [`time_zones::TimeZonesScenario`] — "p% of all requests originate from
//!   a node chosen uniformly at random … these locations are the same each
//!   day", the remaining requests are uniform background traffic;
//! * [`commuter::CommuterScenario`] — morning fan-out from the network
//!   center, evening fan-in, with *static* (fixed total `2^{T/2}` requests)
//!   or *dynamic* (one request per active access point) load;
//! * [`onoff::OnOffScenario`] — users appear at an access point, dwell for
//!   `Δt`, and jump to another uniformly random access point;
//! * [`proximity::ProximityScenario`] — stationary demand concentrated on
//!   the nodes nearest the network center (spatially skewed, temporally
//!   stable);
//! * [`uniform::UniformScenario`] — pure background noise (baseline/tests).
//!
//! All scenarios implement [`Scenario`] and are deterministic under a seed.
//! The simulation layers consume a recorded [`RoundTrace`] (alias
//! [`Trace`]) — an `Arc`-shared, sliceable sequence of per-round sorted
//! origin counts — so online and offline algorithms are always compared on
//! *identical* request sequences, and every strategy of a figure cell
//! reads one shared materialization instead of regenerating the demand.
//! The serving layer consumes the same generators as streaming
//! [`RequestSource`]s ([`stream`]): a scenario driven round by round, a
//! JSONL replay file, or stdin. The [`json`] module is the workspace's
//! one hand-rolled JSON value/parser, shared by the replay schema, the
//! simulation checkpoints and the `flexserve serve` HTTP endpoints.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod commuter;
pub mod json;
pub mod onoff;
pub mod packed;
pub mod proximity;
pub mod request;
pub mod round_trace;
pub mod scenario;
pub mod stream;
pub mod time_zones;
pub mod uniform;

pub use commuter::{CommuterScenario, LoadVariant};
pub use json::JsonValue;
pub use onoff::OnOffScenario;
pub use packed::{
    is_packed_bytes, is_packed_file, pack_jsonl_file, pack_trace, PackSummary, PackWriter,
    PackedReplay, PackedTrace, PACKED_FORMAT, PACKED_MAGIC,
};
pub use proximity::{ProximityOrder, ProximityScenario};
pub use request::RoundRequests;
pub use round_trace::RoundTrace;
pub use scenario::{record, Scenario, Trace};
pub use stream::{
    file_source, parse_round, replay_source, round_to_jsonl, stdin_source, JsonlReplay, Padded,
    RequestSource, ScenarioStream,
};
pub use time_zones::TimeZonesScenario;
pub use uniform::UniformScenario;

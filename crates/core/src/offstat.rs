//! OFFSTAT — the optimal static allocation (§V-B).
//!
//! "For a given request sequence σ, OFFSTAT determines the optimal number
//! of servers `k_opt` as follows. For each `i ∈ {1,…,k}`, we compute the
//! cost of the following greedy static configuration for σ: one active
//! server `j ∈ {1,…,i}` after the other is placed greedily at the location
//! which yields the lowest cost for σ, given the already placed servers
//! `{1,…,j−1}`. `k_opt` is defined as the `i` with minimal cost."
//!
//! OFFSTAT is the paper's reference point for "what does a system without
//! allocation/migration flexibility cost" — Figures 12–19 all build on it.
//!
//! Cost of the `i`-server configuration = access cost of the whole trace
//! plus running cost `Ra·i·|trace|` plus creation cost `c·(i−1)` (the
//! first server is the free initial configuration, matching how OPT and
//! the online algorithms start with one free server).

use flexserve_graph::NodeId;
use flexserve_sim::{Fleet, LoadModel, OnlineStrategy, SimContext};
use flexserve_workload::{JsonValue, RoundRequests, Trace};

use crate::candidates::{EpochWindow, WindowIndex};

/// Result of the OFFSTAT computation.
#[derive(Clone, Debug)]
pub struct OffStatResult {
    /// Greedy placement order (first `i` entries = the `i`-server config).
    pub placements: Vec<NodeId>,
    /// Total cost for each `i = 1..=k` (index `i-1`).
    pub cost_curve: Vec<f64>,
    /// The optimal number of servers.
    pub k_opt: usize,
    /// The cost at `k_opt`.
    pub best_cost: f64,
}

impl OffStatResult {
    /// The active set of the optimal static configuration.
    pub fn best_placement(&self) -> &[NodeId] {
        &self.placements[..self.k_opt]
    }
}

/// Runs OFFSTAT over `trace` with up to `ctx.params.max_servers` servers.
///
/// Greedy placement uses an incremental exact evaluation for the `None`
/// and `Linear` load models (per-request cost decomposes as
/// `d(o,s) + 1/ω(s)` under nearest routing); for non-additive load models
/// the greedy picks locations by the linear proxy and the reported cost
/// curve is then evaluated exactly.
pub fn offstat(ctx: &SimContext<'_>, trace: &Trace) -> OffStatResult {
    assert!(!trace.is_empty(), "OFFSTAT: empty trace");
    let k = ctx.params.max_servers.min(ctx.graph.node_count());
    let rounds = trace.len() as f64;

    // Flatten the trace to (origin, cnt) entries (per round; rounds do not
    // interact under additive evaluation, so one flat list suffices for the
    // greedy; exact non-additive evaluation re-walks the trace).
    #[derive(Clone, Copy)]
    struct Entry {
        origin: NodeId,
        cnt: f64,
        /// current best d(o,s) (+ 1/ω(s) for linear) over placed servers
        best: f64,
    }
    let mut entries: Vec<Entry> = Vec::new();
    for round in trace.iter() {
        for &(origin, cnt) in round.counts_slice() {
            entries.push(Entry {
                origin,
                cnt: cnt as f64,
                best: f64::INFINITY,
            });
        }
    }

    let linearish = matches!(ctx.load, LoadModel::None | LoadModel::Linear);
    let metric = |v: NodeId, origin: NodeId| -> f64 {
        let d = ctx.dist.get(origin, v);
        match ctx.load {
            LoadModel::None => d,
            // exact per-request cost under nearest-by-latency routing is
            // d + 1/ω(nearest); using d + 1/ω(v) as the greedy metric is
            // exact when strengths are uniform and a tight proxy otherwise.
            _ => d + 1.0 / ctx.graph.strength(v),
        }
    };

    let mut placements: Vec<NodeId> = Vec::with_capacity(k);
    let mut cost_curve: Vec<f64> = Vec::with_capacity(k);

    // For exact evaluation of non-additive loads: the newest server is
    // scored as a single addition against a window index over the
    // already-placed servers (bit-identical to `access_cost_window` on the
    // full placement, see `WindowIndex`).
    let mut full_window = EpochWindow::new();
    if !linearish {
        for round in trace.iter() {
            full_window.push(round);
        }
    }
    let mut index = WindowIndex::new();
    let mut counts_scratch: Vec<usize> = Vec::new();

    for i in 1..=k {
        // Greedy: pick v minimizing the flat additive cost.
        let mut best_v: Option<NodeId> = None;
        let mut best_total = f64::INFINITY;
        for v in ctx.graph.nodes() {
            if placements.contains(&v) {
                continue;
            }
            let mut total = 0.0;
            for e in &entries {
                total += e.cnt * e.best.min(metric(v, e.origin));
            }
            if total < best_total {
                best_total = total;
                best_v = Some(v);
            }
        }
        let v = best_v.expect("fewer nodes than servers is prevented by k clamp");
        placements.push(v);
        for e in &mut entries {
            e.best = e.best.min(metric(v, e.origin));
        }

        let access = if linearish {
            best_total
        } else {
            index.rebuild(ctx, &placements[..i - 1], &full_window);
            index.score_addition(ctx, v, &mut counts_scratch)
        };
        let running = ctx.params.run_active * i as f64 * rounds;
        let creation = ctx.params.creation_c * (i as f64 - 1.0);
        cost_curve.push(access + running + creation);
    }

    let (k_opt_idx, &best_cost) = cost_curve
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .expect("k >= 1");

    OffStatResult {
        placements,
        cost_curve,
        k_opt: k_opt_idx + 1,
        best_cost,
    }
}

/// OFFSTAT as a servable strategy: the precomputed optimal static
/// placement, applied once at round 0 and never changed.
///
/// This is the streaming/serving form of [`offstat`] — where the batch
/// form reports one scalar optimum, this wrapper actually *plays* the
/// static configuration through the engine (paying real creation and
/// access costs round by round), so OFFSTAT can be driven by an
/// [`EventedSession`](flexserve_sim::EventedSession) and checkpointed like any
/// online strategy.
#[derive(Clone, Debug)]
pub struct OffStatPlacement {
    target: Vec<NodeId>,
    applied: bool,
}

impl OffStatPlacement {
    /// Wraps an explicit placement (e.g. [`OffStatResult::best_placement`]).
    pub fn new(target: Vec<NodeId>) -> Self {
        OffStatPlacement {
            target,
            applied: false,
        }
    }

    /// Computes the optimal static placement for `trace` and wraps it.
    pub fn from_trace(ctx: &SimContext<'_>, trace: &Trace) -> Self {
        Self::new(offstat(ctx, trace).best_placement().to_vec())
    }

    /// The placement this strategy applies at round 0.
    pub fn target(&self) -> &[NodeId] {
        &self.target
    }
}

impl OnlineStrategy for OffStatPlacement {
    fn name(&self) -> String {
        "OFFSTAT".to_string()
    }

    fn decide(
        &mut self,
        _ctx: &SimContext<'_>,
        _t: u64,
        _requests: &RoundRequests,
        _access_cost: f64,
        _fleet: &Fleet,
    ) -> Option<Vec<NodeId>> {
        if self.applied {
            None
        } else {
            self.applied = true;
            Some(self.target.clone())
        }
    }

    fn export_state(&self) -> Option<JsonValue> {
        Some(JsonValue::Obj(vec![
            ("applied".into(), JsonValue::from(self.applied)),
            (
                "target".into(),
                JsonValue::Arr(
                    self.target
                        .iter()
                        .map(|n| JsonValue::from(n.index()))
                        .collect(),
                ),
            ),
        ]))
    }

    /// Restores both fields — the placement is part of the checkpoint, so
    /// resuming does not require recomputing [`offstat`] over the
    /// original trace.
    fn import_state(&mut self, state: &JsonValue) -> Result<(), String> {
        self.applied = state
            .get("applied")
            .and_then(JsonValue::as_bool)
            .ok_or("OFFSTAT: missing \"applied\"")?;
        self.target = state
            .get("target")
            .and_then(JsonValue::as_array)
            .ok_or("OFFSTAT: missing \"target\"")?
            .iter()
            .map(|n| {
                let raw = n.as_usize().ok_or("OFFSTAT: bad target node id")?;
                NodeId::try_new(raw)
                    .ok_or_else(|| format!("OFFSTAT: target node {raw} is out of range"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(())
    }

    fn node_outside(&self, node_count: usize) -> Option<NodeId> {
        self.target
            .iter()
            .copied()
            .find(|v| v.index() >= node_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexserve_graph::gen::unit_line;
    use flexserve_graph::DistanceMatrix;
    use flexserve_sim::CostParams;
    use flexserve_workload::RoundRequests;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    struct Fx {
        g: flexserve_graph::Graph,
        m: DistanceMatrix,
    }
    impl Fx {
        fn new(len: usize) -> Self {
            let g = unit_line(len).unwrap();
            let m = DistanceMatrix::build(&g);
            Fx { g, m }
        }
        fn ctx(&self, k: usize, load: LoadModel) -> SimContext<'_> {
            SimContext::new(
                &self.g,
                &self.m,
                CostParams::default().with_max_servers(k),
                load,
            )
        }
    }

    #[test]
    fn single_hotspot_needs_one_server_on_it() {
        let fx = Fx::new(9);
        let ctx = fx.ctx(4, LoadModel::None);
        let trace = Trace::new(vec![RoundRequests::new(vec![n(7); 10]); 20]);
        let res = offstat(&ctx, &trace);
        assert_eq!(res.k_opt, 1);
        assert_eq!(res.best_placement(), &[n(7)]);
        // cost = running only
        assert!((res.best_cost - 2.5 * 20.0).abs() < 1e-9);
    }

    #[test]
    fn split_demand_prefers_two_servers() {
        let fx = Fx::new(41);
        let ctx = fx.ctx(4, LoadModel::None);
        let mut batch = RoundRequests::empty();
        batch.push_many(n(0), 10);
        batch.push_many(n(40), 10);
        // long trace so 2nd server's creation (400) + running amortizes
        let trace = Trace::new(vec![batch; 100]);
        let res = offstat(&ctx, &trace);
        assert_eq!(res.k_opt, 2);
        let mut placed = res.best_placement().to_vec();
        placed.sort();
        assert_eq!(placed, vec![n(0), n(40)]);
    }

    #[test]
    fn cost_curve_matches_definition() {
        let fx = Fx::new(10);
        let ctx = fx.ctx(3, LoadModel::None);
        let trace = Trace::new(vec![RoundRequests::new(vec![n(0), n(9)]); 10]);
        let res = offstat(&ctx, &trace);
        assert_eq!(res.cost_curve.len(), 3);
        // curve at k_opt equals best_cost
        assert_eq!(res.cost_curve[res.k_opt - 1], res.best_cost);
        // all other points are >= best
        for &c in &res.cost_curve {
            assert!(c >= res.best_cost - 1e-12);
        }
    }

    #[test]
    fn k_clamped_by_node_count() {
        let fx = Fx::new(3);
        let ctx = fx.ctx(10, LoadModel::None);
        let trace = Trace::new(vec![RoundRequests::new(vec![n(1)]); 5]);
        let res = offstat(&ctx, &trace);
        assert!(res.placements.len() <= 3);
    }

    #[test]
    fn linear_curve_is_exact() {
        // verify the incremental evaluation against direct routing
        let fx = Fx::new(12);
        let ctx = fx.ctx(3, LoadModel::Linear);
        let mut batch = RoundRequests::empty();
        batch.push_many(n(1), 4);
        batch.push_many(n(10), 2);
        let trace = Trace::new(vec![batch.clone(); 7]);
        let res = offstat(&ctx, &trace);
        for i in 1..=3usize {
            let servers = &res.placements[..i];
            let direct: f64 = trace
                .iter()
                .map(|r| ctx.access_cost(servers, r))
                .sum::<f64>()
                + 2.5 * i as f64 * 7.0
                + 400.0 * (i as f64 - 1.0);
            assert!(
                (direct - res.cost_curve[i - 1]).abs() < 1e-6,
                "i={i}: {direct} vs {}",
                res.cost_curve[i - 1]
            );
        }
    }

    #[test]
    fn quadratic_load_spreads_servers() {
        let fx = Fx::new(5);
        let ctx = fx.ctx(4, LoadModel::Quadratic);
        // heavy single-origin demand: quadratic load can't be split by
        // nearest routing from one origin, but two origins can.
        let mut batch = RoundRequests::empty();
        batch.push_many(n(1), 12);
        batch.push_many(n(3), 12);
        let trace = Trace::new(vec![batch; 50]);
        let res = offstat(&ctx, &trace);
        assert!(res.k_opt >= 2, "quadratic load should favor >= 2 servers");
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn refuses_empty_trace() {
        let fx = Fx::new(3);
        let ctx = fx.ctx(2, LoadModel::None);
        offstat(&ctx, &Trace::default());
    }

    #[test]
    fn placement_wrapper_plays_the_static_config() {
        let fx = Fx::new(9);
        let ctx = fx.ctx(4, LoadModel::None);
        let trace = Trace::new(vec![RoundRequests::new(vec![n(7); 10]); 20]);
        let mut strat = OffStatPlacement::from_trace(&ctx, &trace);
        assert_eq!(strat.target(), &[n(7)]);
        assert_eq!(strat.name(), "OFFSTAT");
        let rec = flexserve_sim::run_online(&ctx, &trace, &mut strat, vec![n(0)]);
        // moved once at round 0, then static forever
        assert_eq!(rec.rounds[0].costs.migration, 40.0);
        let later: f64 = rec.rounds[1..]
            .iter()
            .map(|r| r.costs.migration + r.costs.creation)
            .sum();
        assert_eq!(later, 0.0);
    }

    #[test]
    fn placement_wrapper_state_round_trips() {
        let mut strat = OffStatPlacement::new(vec![n(2), n(5)]);
        strat.applied = true;
        let state = strat.export_state().unwrap();
        let mut fresh = OffStatPlacement::new(Vec::new());
        fresh.import_state(&state).unwrap();
        assert!(fresh.applied);
        assert_eq!(fresh.target(), &[n(2), n(5)]);
        assert!(fresh.import_state(&JsonValue::Null).is_err());
    }
}

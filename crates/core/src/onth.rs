//! ONTH — the two-level threshold online strategy (§III-A).
//!
//! "Time is divided into small and large epochs: a small epoch ends when we
//! have accumulated a cost of `y·β` in a given configuration (`y = 2` in
//! our simulations), and a large epoch ends when the accumulated access
//! cost is larger than the accumulated running cost; concretely, we will
//! use the following condition: `Cost_acc/(k_cur+1) − Cost_run > c`, where
//! `k_cur` denotes the current number of active servers.
//!
//! When a small epoch ends ONTH changes to the cheapest configuration
//! among: (1) γ (no change), (2) γ but where one server is migrated,
//! (3) γ but where one server becomes inactive. … When a large epoch ends,
//! a new server is activated at an optimal position with respect to the
//! access cost of the latest large epoch."
//!
//! Intuition: small epochs *track* the demand (move/trim servers cheaply);
//! the large-epoch condition notices that access costs dominate running
//! costs — i.e. servers are too few/too far — and *scales out*.

use flexserve_graph::NodeId;
use flexserve_sim::{Fleet, OnlineStrategy, SimContext};
use flexserve_workload::{JsonValue, RoundRequests};

use crate::candidates::{
    best_candidate_with, best_new_server_position_scored, CandidateOptions, CandidateScratch,
    EpochWindow,
};

/// The ONTH strategy.
#[derive(Clone, Debug)]
pub struct OnTh {
    /// Small-epoch threshold factor (`y`; paper default 2).
    y: f64,
    small_window: EpochWindow,
    small_cost: f64,
    large_window: EpochWindow,
    large_access: f64,
    large_running: f64,
    /// Reused window-index buffers; a cache, never checkpointed.
    scratch: CandidateScratch,
}

impl OnTh {
    /// ONTH with the paper's `y = 2`.
    pub fn new() -> Self {
        Self::with_y(2.0)
    }

    /// ONTH with an explicit small-epoch factor (ablations).
    pub fn with_y(y: f64) -> Self {
        assert!(y.is_finite() && y > 0.0, "ONTH: y must be positive");
        OnTh {
            y,
            small_window: EpochWindow::new(),
            small_cost: 0.0,
            large_window: EpochWindow::new(),
            large_access: 0.0,
            large_running: 0.0,
            scratch: CandidateScratch::new(),
        }
    }

    fn reset_small(&mut self) {
        self.small_window.clear();
        self.small_cost = 0.0;
    }

    fn reset_large(&mut self) {
        self.large_window.clear();
        self.large_access = 0.0;
        self.large_running = 0.0;
    }
}

impl Default for OnTh {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStrategy for OnTh {
    fn name(&self) -> String {
        "ONTH".to_string()
    }

    fn decide(
        &mut self,
        ctx: &SimContext<'_>,
        _t: u64,
        requests: &RoundRequests,
        access_cost: f64,
        fleet: &Fleet,
    ) -> Option<Vec<NodeId>> {
        let running = ctx.running_cost(fleet.active_count(), fleet.inactive_count());
        self.small_window.push(requests);
        self.small_cost += access_cost + running;
        self.large_window.push(requests);
        self.large_access += access_cost;
        self.large_running += running;

        // Large epoch: access costs dominate running costs -> scale out.
        let k_cur = fleet.active_count();
        let can_grow = k_cur < ctx.params.max_servers;
        if can_grow
            && self.large_access / (k_cur as f64 + 1.0) - self.large_running > ctx.params.creation_c
        {
            if let Some((v, _)) =
                best_new_server_position_scored(ctx, fleet, &self.large_window, &mut self.scratch)
            {
                let mut target = fleet.active().to_vec();
                target.push(v);
                self.reset_large();
                self.reset_small();
                return Some(target);
            }
        }

        // Small epoch: track the demand with cheap single-server moves.
        if self.small_cost >= self.y * ctx.params.migration_beta {
            let (target, _) = best_candidate_with(
                ctx,
                fleet,
                &self.small_window,
                CandidateOptions::no_add(),
                &mut self.scratch,
            );
            self.reset_small();
            return Some(target);
        }

        None
    }

    fn export_state(&self) -> Option<JsonValue> {
        Some(JsonValue::Obj(vec![
            ("y".into(), JsonValue::from(self.y)),
            ("small_window".into(), self.small_window.export_json()),
            ("small_cost".into(), JsonValue::from(self.small_cost)),
            ("large_window".into(), self.large_window.export_json()),
            ("large_access".into(), JsonValue::from(self.large_access)),
            ("large_running".into(), JsonValue::from(self.large_running)),
        ]))
    }

    fn import_state(&mut self, state: &JsonValue) -> Result<(), String> {
        let f = |key: &str| {
            state
                .get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("ONTH: missing {key:?}"))
        };
        let y = f("y")?;
        if y.to_bits() != self.y.to_bits() {
            return Err(format!(
                "ONTH: checkpoint was taken with y={y}, this instance has y={}",
                self.y
            ));
        }
        let window = |key: &str| {
            state
                .get(key)
                .ok_or_else(|| format!("ONTH: missing {key:?}"))
                .and_then(|v| EpochWindow::import_json(v).map_err(|e| format!("ONTH: {e}")))
        };
        self.small_window = window("small_window")?;
        self.small_cost = f("small_cost")?;
        self.large_window = window("large_window")?;
        self.large_access = f("large_access")?;
        self.large_running = f("large_running")?;
        Ok(())
    }

    fn node_outside(&self, node_count: usize) -> Option<NodeId> {
        self.small_window
            .origin_outside(node_count)
            .or_else(|| self.large_window.origin_outside(node_count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexserve_graph::gen::unit_line;
    use flexserve_graph::DistanceMatrix;
    use flexserve_sim::{run_online, CostParams, LoadModel};
    use flexserve_workload::Trace;

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
        fn ctx(&self) -> SimContext<'_> {
            SimContext::new(&self.g, &self.m, CostParams::default(), LoadModel::Linear)
        }
    }

    #[test]
    fn tracks_a_moving_hotspot() {
        let fx = Fx::new(30);
        let ctx = fx.ctx();
        // demand at node 29 persistently
        let trace = Trace::new(vec![RoundRequests::new(vec![n(29); 15]); 80]);
        let mut alg = OnTh::new();
        let rec = run_online(&ctx, &trace, &mut alg, vec![n(0)]);
        assert!(rec.total().migration > 0.0, "should migrate toward demand");
        let tail: f64 = rec.rounds[70..].iter().map(|r| r.costs.access).sum();
        // converged: only load remains (15/round)
        assert!(tail <= 15.0 * 10.0 + 1e-9, "tail access {tail}");
    }

    #[test]
    fn scales_out_under_heavy_split_demand() {
        let fx = Fx::new(60);
        let ctx = fx.ctx();
        // two far-apart heavy clusters: one server cannot serve both
        let mut batch = RoundRequests::empty();
        batch.push_many(n(0), 25);
        batch.push_many(n(59), 25);
        let trace = Trace::new(vec![batch; 150]);
        let mut alg = OnTh::new();
        let rec = run_online(&ctx, &trace, &mut alg, vec![n(30)]);
        let final_servers = rec.rounds.last().unwrap().active_servers;
        assert!(
            final_servers >= 2,
            "expected scale-out, got {final_servers}"
        );
        assert!(rec.total().creation > 0.0 || rec.total().migration > 0.0);
    }

    #[test]
    fn converges_under_constant_demand() {
        let fx = Fx::new(20);
        let ctx = fx.ctx();
        let trace = Trace::new(vec![RoundRequests::new(vec![n(10); 5]); 300]);
        let mut alg = OnTh::new();
        let rec = run_online(&ctx, &trace, &mut alg, vec![n(10)]);
        // "in case of constant demand, they will eventually converge to a
        // stable configuration": second half must be reconfiguration-free
        let late_reconf: f64 = rec.rounds[150..]
            .iter()
            .map(|r| r.costs.migration + r.costs.creation)
            .sum();
        assert_eq!(late_reconf, 0.0);
        assert_eq!(rec.rounds.last().unwrap().active_servers, 1);
    }

    #[test]
    fn respects_server_budget() {
        let fx = Fx::new(40);
        let params = CostParams::default().with_max_servers(2);
        let ctx = SimContext::new(&fx.g, &fx.m, params, LoadModel::Linear);
        let mut batch = RoundRequests::empty();
        for i in 0..4 {
            batch.push_many(n(i * 13), 25);
        }
        let trace = Trace::new(vec![batch; 120]);
        let mut alg = OnTh::new();
        let rec = run_online(&ctx, &trace, &mut alg, vec![n(20)]);
        for r in &rec.rounds {
            assert!(r.active_servers <= 2);
        }
    }

    #[test]
    fn higher_y_reconfigures_less() {
        let fx = Fx::new(30);
        let ctx = fx.ctx();
        // alternating demand
        let mut rounds = Vec::new();
        for t in 0..100u64 {
            let node = if (t / 10) % 2 == 0 { 0 } else { 29 };
            rounds.push(RoundRequests::new(vec![n(node); 8]));
        }
        let trace = Trace::new(rounds);
        let patient = run_online(&ctx, &trace, &mut OnTh::with_y(20.0), vec![n(15)]);
        let eager = run_online(&ctx, &trace, &mut OnTh::with_y(1.0), vec![n(15)]);
        let p_moves = patient.total().migration / ctx.params.migration_beta;
        let e_moves = eager.total().migration / ctx.params.migration_beta;
        assert!(
            e_moves >= p_moves,
            "eager {e_moves} vs patient {p_moves} migrations"
        );
    }

    #[test]
    #[should_panic(expected = "y must be positive")]
    fn bad_y_rejected() {
        OnTh::with_y(-1.0);
    }

    #[test]
    fn name() {
        assert_eq!(OnTh::new().name(), "ONTH");
    }
}

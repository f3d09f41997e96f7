//! ONBR — the sequential best-response online strategy (§III-A).
//!
//! "ONBR starts in an arbitrary configuration, e.g., hosting one server at
//! the network center. Time is divided into epochs, and an epoch ends when
//! the total cost accumulated during this epoch (including access cost and
//! running cost) reaches a threshold θ. Then, ONBR changes to the cheapest
//! (w.r.t. the passed epoch and including access, migration, running, and
//! creation cost) configuration among: (1) γ (no change), (2) γ but where
//! one server s is migrated to a different location, (3) γ but where one
//! server s becomes inactive, (4) γ but where one inactive server s becomes
//! active, or a new active server s is created."
//!
//! The experiments use `θ = 2c` ("fixed") and `θ = 2c/ℓ` ("dyn"), where `ℓ`
//! is the length of the preceding epoch — shorter epochs mean faster demand
//! changes, so the system adapts more quickly.

use flexserve_graph::NodeId;
use flexserve_sim::{Fleet, OnlineStrategy, SimContext};
use flexserve_workload::{JsonValue, RoundRequests};

use crate::candidates::{best_candidate_with, CandidateOptions, CandidateScratch, EpochWindow};

/// How ONBR's epoch threshold is derived.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ThresholdMode {
    /// Constant threshold `θ = base` (the paper uses `base = 2c`).
    Fixed,
    /// `θ = base / ℓ` where `ℓ` is the previous epoch's length in rounds.
    Dynamic,
}

/// The ONBR strategy.
#[derive(Clone, Debug)]
pub struct OnBr {
    mode: ThresholdMode,
    /// Base threshold (paper: `2c`).
    base_threshold: f64,
    window: EpochWindow,
    epoch_cost: f64,
    prev_epoch_len: u64,
    /// Reused window-index buffers; a cache, never checkpointed.
    scratch: CandidateScratch,
}

impl OnBr {
    /// ONBR with the paper's fixed threshold `θ = 2c`.
    pub fn fixed(ctx: &SimContext<'_>) -> Self {
        Self::with_mode(ctx, ThresholdMode::Fixed)
    }

    /// ONBR with the dynamic threshold `θ = 2c/ℓ`.
    pub fn dynamic(ctx: &SimContext<'_>) -> Self {
        Self::with_mode(ctx, ThresholdMode::Dynamic)
    }

    /// ONBR with an explicit mode and the default base `2c`.
    pub fn with_mode(ctx: &SimContext<'_>, mode: ThresholdMode) -> Self {
        Self::with_base(mode, 2.0 * ctx.params.creation_c)
    }

    /// Fully custom construction (ablation benches sweep the base).
    pub fn with_base(mode: ThresholdMode, base_threshold: f64) -> Self {
        assert!(
            base_threshold.is_finite() && base_threshold > 0.0,
            "ONBR: threshold must be positive"
        );
        OnBr {
            mode,
            base_threshold,
            window: EpochWindow::new(),
            epoch_cost: 0.0,
            prev_epoch_len: 1,
            scratch: CandidateScratch::new(),
        }
    }

    /// The currently effective threshold.
    fn threshold(&self) -> f64 {
        match self.mode {
            ThresholdMode::Fixed => self.base_threshold,
            ThresholdMode::Dynamic => self.base_threshold / self.prev_epoch_len.max(1) as f64,
        }
    }
}

impl OnlineStrategy for OnBr {
    fn name(&self) -> String {
        match self.mode {
            ThresholdMode::Fixed => "ONBR-fixed".to_string(),
            ThresholdMode::Dynamic => "ONBR-dyn".to_string(),
        }
    }

    fn decide(
        &mut self,
        ctx: &SimContext<'_>,
        _t: u64,
        requests: &RoundRequests,
        access_cost: f64,
        fleet: &Fleet,
    ) -> Option<Vec<NodeId>> {
        self.window.push(requests);
        self.epoch_cost +=
            access_cost + ctx.running_cost(fleet.active_count(), fleet.inactive_count());

        if self.epoch_cost < self.threshold() {
            return None;
        }

        let (target, _score) = best_candidate_with(
            ctx,
            fleet,
            &self.window,
            CandidateOptions::all(),
            &mut self.scratch,
        );
        self.prev_epoch_len = self.window.len() as u64;
        self.window.clear();
        self.epoch_cost = 0.0;
        Some(target)
    }

    fn export_state(&self) -> Option<JsonValue> {
        let mode = match self.mode {
            ThresholdMode::Fixed => "fixed",
            ThresholdMode::Dynamic => "dynamic",
        };
        Some(JsonValue::Obj(vec![
            ("mode".into(), JsonValue::from(mode)),
            (
                "base_threshold".into(),
                JsonValue::from(self.base_threshold),
            ),
            ("window".into(), self.window.export_json()),
            ("epoch_cost".into(), JsonValue::from(self.epoch_cost)),
            (
                "prev_epoch_len".into(),
                JsonValue::from(self.prev_epoch_len),
            ),
        ]))
    }

    fn import_state(&mut self, state: &JsonValue) -> Result<(), String> {
        let mode = state
            .get("mode")
            .and_then(JsonValue::as_str)
            .ok_or("ONBR: missing \"mode\"")?;
        let expected = match self.mode {
            ThresholdMode::Fixed => "fixed",
            ThresholdMode::Dynamic => "dynamic",
        };
        if mode != expected {
            return Err(format!(
                "ONBR: checkpoint is {mode} mode, this instance is {expected}"
            ));
        }
        let base = state
            .get("base_threshold")
            .and_then(JsonValue::as_f64)
            .ok_or("ONBR: missing \"base_threshold\"")?;
        if base.to_bits() != self.base_threshold.to_bits() {
            return Err(format!(
                "ONBR: checkpoint threshold {base} != this instance's {}",
                self.base_threshold
            ));
        }
        self.window = state
            .get("window")
            .ok_or_else(|| "ONBR: missing \"window\"".to_string())
            .and_then(|v| EpochWindow::import_json(v).map_err(|e| format!("ONBR: {e}")))?;
        self.epoch_cost = state
            .get("epoch_cost")
            .and_then(JsonValue::as_f64)
            .ok_or("ONBR: missing \"epoch_cost\"")?;
        self.prev_epoch_len = state
            .get("prev_epoch_len")
            .and_then(JsonValue::as_u64)
            .ok_or("ONBR: missing \"prev_epoch_len\"")?;
        Ok(())
    }

    fn node_outside(&self, node_count: usize) -> Option<NodeId> {
        self.window.origin_outside(node_count)
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
    fn converges_to_demand_hotspot() {
        let fx = Fx::new(30);
        let ctx = fx.ctx();
        // persistent heavy demand at node 29, server starts at 0
        let trace = Trace::new(vec![RoundRequests::new(vec![n(29); 20]); 100]);
        let mut alg = OnBr::fixed(&ctx);
        let rec = run_online(&ctx, &trace, &mut alg, vec![n(0)]);
        // after convergence the server sits on the demand: last rounds cost
        // only load (20) + running
        let last = &rec.rounds[99];
        assert_eq!(last.active_servers, 1);
        let tail_access: f64 = rec.rounds[90..].iter().map(|r| r.costs.access).sum();
        // load = 20 per round is unavoidable; delay must be gone
        assert!(
            tail_access <= 20.0 * 10.0 + 1e-9,
            "tail access {tail_access}"
        );
    }

    #[test]
    fn stable_demand_stops_reconfiguring() {
        let fx = Fx::new(10);
        let ctx = fx.ctx();
        let trace = Trace::new(vec![RoundRequests::new(vec![n(5); 5]); 200]);
        let mut alg = OnBr::fixed(&ctx);
        let rec = run_online(&ctx, &trace, &mut alg, vec![n(5)]);
        // server already optimal: no migration or creation ever
        assert_eq!(rec.total().migration, 0.0);
        assert_eq!(rec.total().creation, 0.0);
    }

    #[test]
    fn epoch_threshold_controls_reaction_speed() {
        let fx = Fx::new(20);
        let ctx = fx.ctx();
        let trace = Trace::new(vec![RoundRequests::new(vec![n(19); 10]); 60]);
        // lower threshold -> earlier reaction -> lower total cost here
        let mut fast = OnBr::with_base(ThresholdMode::Fixed, 100.0);
        let mut slow = OnBr::with_base(ThresholdMode::Fixed, 4000.0);
        let fast_rec = run_online(&ctx, &trace, &mut fast, vec![n(0)]);
        let slow_rec = run_online(&ctx, &trace, &mut slow, vec![n(0)]);
        assert!(fast_rec.total().total() < slow_rec.total().total());
    }

    #[test]
    fn dynamic_mode_uses_previous_epoch_length() {
        let fx = Fx::new(10);
        let ctx = fx.ctx();
        let mut alg = OnBr::dynamic(&ctx);
        assert_eq!(alg.threshold(), 800.0); // first epoch: l=1
        alg.prev_epoch_len = 4;
        assert_eq!(alg.threshold(), 200.0);
        assert_eq!(alg.name(), "ONBR-dyn");
        assert_eq!(OnBr::fixed(&ctx).name(), "ONBR-fixed");
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn zero_threshold_rejected() {
        OnBr::with_base(ThresholdMode::Fixed, 0.0);
    }
}

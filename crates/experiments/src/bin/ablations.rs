//! Ablation studies for the design choices docs/DESIGN.md calls out.
//!
//! Unlike the benchmark in `perfbench/` (which tracks *runtime*), these
//! report the *cost* impact of each design knob, averaged over seeds.
//! Every run is a `StrategySpec` over a `WorkloadSpec` trace, like the
//! figures:
//!
//! 1. inactive-cache capacity (paper: 3),
//! 2. inactive-cache expiry (paper: 20 epochs),
//! 3. ONTH's small-epoch factor `y` (paper: 2),
//! 4. ONBR fixed vs dynamic threshold,
//! 5. routing policy: nearest vs load-aware (under quadratic load),
//! 6. T1/T2 bandwidth mix (documents that the simplified cost model is
//!    bandwidth-insensitive, as in the paper).
//!
//! ```sh
//! cargo run -p flexserve-experiments --release --bin ablations
//! ```

use flexserve_experiments::{average, Demand, ExperimentEnv, StrategySpec, Table, WorkloadSpec};
use flexserve_graph::gen::{erdos_renyi, GenConfig};
use flexserve_sim::{run_online, CostBreakdown, CostParams, LoadModel, RoutingPolicy};

use flexserve_core::{initial_center, OnTh};

use rand::rngs::SmallRng;
use rand::SeedableRng;

const N: usize = 150;
const ROUNDS: u64 = 400;
const SEEDS: [u64; 3] = [11, 22, 33];

/// The commuter-dynamic demand every ablation replays (T=8, λ=10).
fn commuter_demand(env: &ExperimentEnv, seed: u64) -> Demand {
    WorkloadSpec::CommuterDynamic.record(env, 8, 10, ROUNDS, seed)
}

fn run_with(params: CostParams, seed: u64, strat: StrategySpec) -> CostBreakdown {
    let env = ExperimentEnv::erdos_renyi(N, seed);
    let ctx = env.context(params, LoadModel::Linear);
    let demand = commuter_demand(&env, seed);
    CostBreakdown::from_access(strat.run(&ctx, &demand, seed).total())
}

fn ablate_cache_capacity() {
    let mut t = Table::new(
        "Ablation 1: inactive-cache capacity (ONTH, commuter dynamic)",
        &["capacity", "mean total cost"],
    );
    for cap in [0usize, 1, 3, 8] {
        let params = CostParams {
            inactive_queue_len: cap,
            ..CostParams::default()
        };
        let s = average(&SEEDS, |seed| run_with(params, seed, StrategySpec::OnTh));
        t.row_f64(cap, &[s.mean_total()]);
    }
    t.print();
    t.save_csv("ablation_cache_capacity").unwrap();
}

fn ablate_cache_expiry() {
    let mut t = Table::new(
        "Ablation 2: inactive-cache expiry in epochs (ONTH)",
        &["expiry", "mean total cost"],
    );
    for expiry in [1u64, 5, 20, 100] {
        let params = CostParams {
            inactive_expiry_epochs: expiry,
            ..CostParams::default()
        };
        let s = average(&SEEDS, |seed| run_with(params, seed, StrategySpec::OnTh));
        t.row_f64(expiry, &[s.mean_total()]);
    }
    t.print();
    t.save_csv("ablation_cache_expiry").unwrap();
}

fn ablate_onth_y() {
    let mut t = Table::new(
        "Ablation 3: ONTH small-epoch factor y (paper: 2)",
        &["y", "mean total cost"],
    );
    for y in [0.5f64, 1.0, 2.0, 4.0, 8.0] {
        let s = average(&SEEDS, |seed| {
            // `y` is not a strategy-spec knob, so ONTH runs directly.
            let env = ExperimentEnv::erdos_renyi(N, seed);
            let ctx = env.context(CostParams::default(), LoadModel::Linear);
            let demand = commuter_demand(&env, seed);
            let cost = run_online(&ctx, &demand, &mut OnTh::with_y(y), initial_center(&ctx))
                .total()
                .total();
            CostBreakdown::from_access(cost)
        });
        t.row_f64(y, &[s.mean_total()]);
    }
    t.print();
    t.save_csv("ablation_onth_y").unwrap();
}

fn ablate_onbr_threshold() {
    let mut t = Table::new(
        "Ablation 4: ONBR threshold mode",
        &["mode", "mean total cost"],
    );
    for (label, strat) in [
        ("fixed 2c", StrategySpec::OnBrFixed),
        ("dyn 2c/l", StrategySpec::OnBrDyn),
    ] {
        let s = average(&SEEDS, |seed| run_with(CostParams::default(), seed, strat));
        t.row(vec![label.to_string(), format!("{:.2}", s.mean_total())]);
    }
    t.print();
    t.save_csv("ablation_onbr_threshold").unwrap();
}

fn ablate_routing_policy() {
    let mut t = Table::new(
        "Ablation 5: routing policy under quadratic load (ONTH)",
        &["policy", "mean total cost"],
    );
    for (label, policy) in [
        ("nearest", RoutingPolicy::Nearest),
        ("load-aware", RoutingPolicy::LoadAware),
    ] {
        let s = average(&SEEDS, |seed| {
            let env = ExperimentEnv::erdos_renyi(N, seed);
            let ctx = env
                .context(CostParams::default(), LoadModel::Quadratic)
                .with_routing(policy);
            let demand = commuter_demand(&env, seed);
            CostBreakdown::from_access(StrategySpec::OnTh.run(&ctx, &demand, seed).total())
        });
        t.row(vec![label.to_string(), format!("{:.2}", s.mean_total())]);
    }
    t.print();
    t.save_csv("ablation_routing").unwrap();
}

fn ablate_bandwidth_mix() {
    let mut t = Table::new(
        "Ablation 6: T1 share of links (cost model is bandwidth-insensitive)",
        &["t1 share", "mean total cost"],
    );
    for t1 in [0.0f64, 0.5, 1.0] {
        let s = average(&SEEDS, |seed| {
            let cfg = GenConfig {
                t1_probability: t1,
                ..GenConfig::default()
            };
            let mut rng = SmallRng::seed_from_u64(seed);
            let graph = erdos_renyi(N, 0.01, &cfg, &mut rng).unwrap();
            let env = ExperimentEnv::from_graph(graph);
            let ctx = env.context(CostParams::default(), LoadModel::Linear);
            let demand = commuter_demand(&env, seed);
            CostBreakdown::from_access(StrategySpec::OnTh.run(&ctx, &demand, seed).total())
        });
        t.row_f64(t1, &[s.mean_total()]);
    }
    t.print();
    t.save_csv("ablation_bandwidth").unwrap();
}

fn main() {
    ablate_cache_capacity();
    println!();
    ablate_cache_expiry();
    println!();
    ablate_onth_y();
    println!();
    ablate_onbr_threshold();
    println!();
    ablate_routing_policy();
    println!();
    ablate_bandwidth_mix();
}

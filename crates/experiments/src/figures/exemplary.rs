//! Figures 1, 2 and 12: exemplary single executions.
//!
//! * Fig 1 — ONTH in the commuter scenario with dynamic load
//!   (1000 rounds, T=14, n=1000, λ=20), linear vs quadratic load: the
//!   number of active servers over time tracks the demand fan-out, and the
//!   quadratic model allocates more servers.
//! * Fig 2 — the same with static load (T=12, n=500): the server count
//!   converges and is largely independent of how many access points the
//!   fixed volume originates from.
//! * Fig 12 — how OFFSTAT picks `k_opt`: total cost as a function of the
//!   number of static servers.

use flexserve_core::{initial_center, OnTh};
use flexserve_sim::{run_online, CostParams, LoadModel};
use flexserve_workload::CommuterScenario;

use crate::output::Table;
use crate::setup::ExperimentEnv;
use crate::spec::WorkloadSpec;

use super::{er, keys, publish, Plan, Profile};

fn exemplary(
    name: &'static str,
    title: &'static str,
    workload: WorkloadSpec,
    t_periods: u32,
    paper_n: usize,
    profile: Profile,
) -> Plan {
    let n = profile.exemplary_n(paper_n);
    let rounds = profile.exemplary_rounds();
    let lambda = 20u64;
    let seed = 42u64;

    Plan::new(keys(&[er(n)], &[seed]), move || {
        let env = ExperimentEnv::erdos_renyi(n, seed);
        let trace = workload.record(&env, t_periods, lambda, rounds, seed);
        // Both load models replay one trace; the per-round record is
        // needed, so ONTH runs directly rather than through
        // `StrategySpec::run`.
        let [linear, quadratic] = [LoadModel::Linear, LoadModel::Quadratic].map(|load| {
            let ctx = env.context(CostParams::default(), load);
            run_online(&ctx, &trace, &mut OnTh::new(), initial_center(&ctx))
        });
        let requests = linear.request_series();
        let (linear, quadratic) = (linear.active_series(), quadratic.active_series());

        let mut table = Table::new(
            format!("{title} (n={n}, T={t_periods}, lambda={lambda}, {rounds} rounds)"),
            &["t", "requests", "servers(linear)", "servers(quadratic)"],
        );
        let stride = (rounds / 50).max(1) as usize;
        for t in (0..rounds as usize).step_by(stride) {
            table.row(vec![
                t.to_string(),
                requests[t].to_string(),
                linear[t].to_string(),
                quadratic[t].to_string(),
            ]);
        }
        publish(name, table)
    })
}

/// Figure 1: exemplary ONTH execution, commuter dynamic load.
pub fn fig01(profile: Profile) -> Plan {
    exemplary(
        "fig01",
        "Fig 1: ONTH exemplary run, commuter dynamic load",
        WorkloadSpec::CommuterDynamic,
        14,
        1000,
        profile,
    )
}

/// Figure 2: exemplary ONTH execution, commuter static load.
pub fn fig02(profile: Profile) -> Plan {
    exemplary(
        "fig02",
        "Fig 2: ONTH exemplary run, commuter static load",
        WorkloadSpec::CommuterStatic,
        12,
        500,
        profile,
    )
}

/// Figure 12: OFFSTAT's server-count selection — cost vs number of static
/// servers on a representative commuter trace.
pub fn fig12(profile: Profile) -> Plan {
    let n = profile.exemplary_n(200);
    let rounds = profile.rounds(500);
    let lambda = 10u64;
    let seed = 7u64;
    let t = CommuterScenario::t_for_network_size(n);

    Plan::new(keys(&[er(n)], &[seed]), move || {
        let env = ExperimentEnv::erdos_renyi(n, seed);
        let params = CostParams::default().with_max_servers(10);
        let ctx = env.context(params, LoadModel::Linear);
        let trace = WorkloadSpec::CommuterDynamic.record(&env, t, lambda, rounds, seed);
        // The whole cost curve is plotted, so OFFSTAT runs directly rather
        // than through `StrategySpec::run` (which keeps only the best cost).
        let res = flexserve_core::offstat(&ctx, &trace);

        let mut table = Table::new(
            format!(
                "Fig 12: OFFSTAT cost vs server count (commuter dynamic, n={n}, {rounds} rounds; k_opt={})",
                res.k_opt
            ),
            &["servers", "total cost"],
        );
        for (i, &cost) in res.cost_curve.iter().enumerate() {
            table.row_f64(i + 1, &[cost]);
        }
        publish("fig12", table)
    })
}

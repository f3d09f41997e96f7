//! Table 1: the Rocketfuel AS-7018 experiment.
//!
//! "Finally, we briefly report on the results we obtained in the
//! Rocketfuel network AS-7018 of ATT under the time zone scenario
//! (c = 400, β = 40, Ra = 2.5, Ri = 0.5, runtime 600 rounds, λ = 20,
//! p = 50%): the total cost of OFFSTAT was 26063.81…; ONTH was a factor
//! less than two higher (cost 44176.28…) while ONBR had costs 111470.29…"
//!
//! We run on the synthetic AS-7018-like substrate (docs/DESIGN.md §5) and
//! compare the *relationships*: ONTH/OFFSTAT < 2 and ONBR several times
//! OFFSTAT.

use flexserve_sim::{CostParams, LoadModel};

use crate::output::Table;
use crate::setup::ExperimentEnv;
use crate::spec::{StrategySpec, TopologySpec, WorkloadSpec};

use super::{keys, publish, Plan, Profile};

/// Paper reference values for the three algorithms.
pub const PAPER_OFFSTAT: f64 = 26063.8129053;
/// Paper reference: ONTH total cost.
pub const PAPER_ONTH: f64 = 44176.288923;
/// Paper reference: ONBR total cost.
pub const PAPER_ONBR: f64 = 111470.296256;

/// Table 1: OFFSTAT vs ONTH vs ONBR on the AS-7018-like substrate.
pub fn table1(profile: Profile) -> Plan {
    let rounds = match profile {
        Profile::Quick => 60,
        _ => 600,
    };
    let lambda = 20u64;
    let t_periods = 12u32;
    let seed = 20110331u64; // fixed: the paper reports a single run

    Plan::new(keys(&[TopologySpec::As7018], &[0]), move || {
        let env = ExperimentEnv::from_spec(&TopologySpec::As7018, 0).expect("static topology");
        let params = CostParams::default(); // c=400, beta=40, Ra=2.5, Ri=0.5
        let ctx = env.context(params, LoadModel::Linear);
        let workload = WorkloadSpec::TimeZones {
            hot_percent: 50,
            requests: 50,
        };
        let demand = workload.record(&env, t_periods, lambda, rounds, seed);
        let [stat_cost, onth_cost, onbr_cost] = [
            StrategySpec::OffStat,
            StrategySpec::OnTh,
            StrategySpec::OnBrFixed,
        ]
        .map(|s| s.run(&ctx, &demand, seed).total());

        let mut table = Table::new(
            format!(
                "Table 1: AS-7018 time-zones (c=400, beta=40, Ra=2.5, Ri=0.5, {rounds} rounds, lambda={lambda}, p=50%)"
            ),
            &["algorithm", "measured cost", "x OFFSTAT", "paper cost", "paper x OFFSTAT"],
        );
        let rows: [(&str, f64, f64); 3] = [
            ("OFFSTAT", stat_cost, PAPER_OFFSTAT),
            ("ONTH", onth_cost, PAPER_ONTH),
            ("ONBR", onbr_cost, PAPER_ONBR),
        ];
        for (name, measured, paper) in rows {
            table.row(vec![
                name.to_string(),
                format!("{measured:.2}"),
                format!("{:.2}", measured / stat_cost),
                format!("{paper:.2}"),
                format!("{:.2}", paper / PAPER_OFFSTAT),
            ]);
        }
        publish("table1", table)
    })
}

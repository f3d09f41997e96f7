//! Figures 11 and 13–19: comparisons against the optimal offline
//! algorithm OPT on small line substrates ("To simulate OPT, we constrain
//! ourselves to line graphs"; network size five, T=4, 200 rounds, averaged
//! over 10 runs).
//!
//! * Fig 11 — the empirical competitive ratio ONTH/OPT vs λ per scenario.
//! * Fig 13/14 — absolute costs of OFFSTAT and OPT vs λ (β<c / β>c).
//! * Fig 15/16/17 — the ratio OFFSTAT/OPT vs λ for both β regimes:
//!   the benefit of dynamic allocation peaks at *moderate* dynamics.
//! * Fig 18/19 — the ratio OFFSTAT/OPT vs T (λ=10): a larger request
//!   horizon increases the benefit of flexibility.

use flexserve_sim::{CostBreakdown, CostParams, LoadModel};

use flexserve_core::competitive_ratio;

use crate::output::Table;
use crate::runner::grid;
use crate::setup::ExperimentEnv;
use crate::spec::{StrategySpec, TopologySpec, WorkloadSpec};

use super::{keys, publish, Plan, Profile};

/// Line-substrate size for all OPT experiments (paper: five nodes).
const OPT_N: usize = 5;
/// The OPT experiments' substrate, as
/// [`ExperimentEnv::random_line`] builds it.
const OPT_LINE: TopologySpec = TopologySpec::Line { n: OPT_N };
/// Server budget on the line (bounded by the substrate anyway).
const OPT_K: usize = 4;
/// Time-zones demand on the tiny substrate (paper Fig 17: "three
/// requests per round").
const TIME_ZONES: WorkloadSpec = WorkloadSpec::TimeZones {
    hot_percent: 50,
    requests: 3,
};

fn opt_params(flipped: bool) -> CostParams {
    let base = if flipped {
        CostParams::flipped()
    } else {
        CostParams::default()
    };
    base.with_max_servers(OPT_K)
}

/// Mean costs of (OFFSTAT, OPT) over seeds for each `(T, λ, flipped)`
/// row, all rows' (row, seed) cells in one [`grid`]. Both offline
/// algorithms read one shared trace per cell.
fn offstat_and_opt(
    workload: &WorkloadSpec,
    rows: &[(u32, u64, bool)],
    rounds: u64,
    seeds: &[u64],
) -> Vec<(f64, f64)> {
    let summaries = grid(rows, seeds, |&(t_periods, lambda, flipped), seed| {
        let env = ExperimentEnv::random_line(OPT_N, seed);
        let ctx = env.context(opt_params(flipped), LoadModel::Linear);
        let demand = workload.record(&env, t_periods, lambda, rounds, seed);
        [StrategySpec::OffStat, StrategySpec::Opt].map(|s| s.run(&ctx, &demand, seed))
    });
    summaries
        .iter()
        .map(|[stat, opt]| (stat.mean_total(), opt.mean_total()))
        .collect()
}

/// Figure 11: competitive ratio ONTH/OPT vs λ, all three scenarios.
pub fn fig11(profile: Profile) -> Plan {
    let rounds = profile.rounds(200);
    let seeds = profile.seeds(10);
    let t_periods = 4u32;
    let params = opt_params(false);
    let lambdas = profile.lambdas();

    Plan::new(keys(&[OPT_LINE], &seeds), move || {
        let mut table = Table::new(
            format!(
                "Fig 11: ONTH/OPT competitive ratio vs lambda (n={OPT_N} line, T={t_periods}, {rounds} rounds, {} seeds)",
                seeds.len()
            ),
            &["lambda", "commuter-dynamic", "commuter-static", "time-zones"],
        );
        let workloads = [
            WorkloadSpec::CommuterDynamic,
            WorkloadSpec::CommuterStatic,
            TIME_ZONES,
        ];
        let rows: Vec<(u64, &WorkloadSpec)> = lambdas
            .iter()
            .flat_map(|&lambda| workloads.iter().map(move |wl| (lambda, wl)))
            .collect();
        let ratios = grid(&rows, &seeds, |&(lambda, workload), seed| {
            let env = ExperimentEnv::random_line(OPT_N, seed);
            let ctx = env.context(params, LoadModel::Linear);
            let demand = workload.record(&env, t_periods, lambda, rounds, seed);
            let alg = StrategySpec::OnTh.run(&ctx, &demand, seed).total();
            let opt = StrategySpec::Opt.run(&ctx, &demand, seed).total();
            [CostBreakdown::from_access(competitive_ratio(alg, opt))]
        });
        for (lambda, row) in lambdas.iter().zip(ratios.chunks(workloads.len())) {
            let cells: Vec<f64> = row.iter().map(|[r]| r.mean_total()).collect();
            table.row_f64(lambda, &cells);
        }
        publish("fig11", table)
    })
}

fn absolute_costs_vs_lambda(
    name: &'static str,
    title: &'static str,
    flipped: bool,
    profile: Profile,
) -> Plan {
    let rounds = profile.rounds(200);
    let seeds = profile.seeds(10);
    let t_periods = 4u32;
    let lambdas = profile.lambdas();

    Plan::new(keys(&[OPT_LINE], &seeds), move || {
        let mut table = Table::new(
            format!(
                "{title} (n={OPT_N} line, T={t_periods}, {rounds} rounds, {} seeds)",
                seeds.len()
            ),
            &["lambda", "OFFSTAT", "OPT"],
        );
        let rows: Vec<(u32, u64, bool)> =
            lambdas.iter().map(|&l| (t_periods, l, flipped)).collect();
        let costs = offstat_and_opt(&WorkloadSpec::CommuterDynamic, &rows, rounds, &seeds);
        for (lambda, (stat, opt)) in lambdas.iter().zip(costs) {
            table.row_f64(lambda, &[stat, opt]);
        }
        publish(name, table)
    })
}

/// Figure 13: absolute OFFSTAT vs OPT costs, commuter dynamic, β<c.
pub fn fig13(profile: Profile) -> Plan {
    absolute_costs_vs_lambda(
        "fig13",
        "Fig 13: OFFSTAT and OPT cost vs lambda, commuter dynamic (beta=40 < c=400)",
        false,
        profile,
    )
}

/// Figure 14: the same in the flipped regime β=400 > c=40.
pub fn fig14(profile: Profile) -> Plan {
    absolute_costs_vs_lambda(
        "fig14",
        "Fig 14: OFFSTAT and OPT cost vs lambda, commuter dynamic (beta=400 > c=40)",
        true,
        profile,
    )
}

/// Figures 15–19: the OFFSTAT/OPT ratio in both β regimes, swept over
/// λ at `T = 4` or, with `over_t`, over `T` at `λ = 10`.
fn ratio_sweep(
    name: &'static str,
    title: &'static str,
    workload: WorkloadSpec,
    over_t: bool,
    profile: Profile,
) -> Plan {
    let rounds = profile.rounds(200);
    let seeds = profile.seeds(10);
    // (x, T, λ) per row.
    let (x_label, fixed, rows): (&str, &str, Vec<(u64, u32, u64)>) = if over_t {
        let rows = profile.t_values().into_iter();
        (
            "T",
            "lambda=10",
            rows.map(|t| (u64::from(t), t, 10)).collect(),
        )
    } else {
        let rows = profile.lambdas().into_iter();
        (
            "lambda",
            "T=4",
            rows.map(|lambda| (lambda, 4, lambda)).collect(),
        )
    };

    Plan::new(keys(&[OPT_LINE], &seeds), move || {
        let mut table = Table::new(
            format!(
                "{title} (n={OPT_N} line, {fixed}, {rounds} rounds, {} seeds)",
                seeds.len()
            ),
            &[x_label, "beta<c", "beta>c"],
        );
        // Two cells per row: the β<c and the β>c regime.
        let cells: Vec<(u32, u64, bool)> = rows
            .iter()
            .flat_map(|&(_, t, lambda)| [false, true].map(|flipped| (t, lambda, flipped)))
            .collect();
        let costs = offstat_and_opt(&workload, &cells, rounds, &seeds);
        for ((x, _, _), pair) in rows.iter().zip(costs.chunks(2)) {
            let ratios: Vec<f64> = pair
                .iter()
                .map(|&(stat, opt)| competitive_ratio(stat, opt))
                .collect();
            table.row_f64(x, &ratios);
        }
        publish(name, table)
    })
}

/// Figure 15: OFFSTAT/OPT ratio vs λ, commuter dynamic load.
pub fn fig15(profile: Profile) -> Plan {
    ratio_sweep(
        "fig15",
        "Fig 15: OFFSTAT/OPT ratio vs lambda, commuter dynamic load",
        WorkloadSpec::CommuterDynamic,
        false,
        profile,
    )
}

/// Figure 16: OFFSTAT/OPT ratio vs λ, commuter static load.
pub fn fig16(profile: Profile) -> Plan {
    ratio_sweep(
        "fig16",
        "Fig 16: OFFSTAT/OPT ratio vs lambda, commuter static load",
        WorkloadSpec::CommuterStatic,
        false,
        profile,
    )
}

/// Figure 17: OFFSTAT/OPT ratio vs λ, time-zones scenario (3 req/round).
pub fn fig17(profile: Profile) -> Plan {
    ratio_sweep(
        "fig17",
        "Fig 17: OFFSTAT/OPT ratio vs lambda, time-zones (p=50%)",
        TIME_ZONES,
        false,
        profile,
    )
}

/// Figure 18: OFFSTAT/OPT ratio vs T, commuter dynamic load.
pub fn fig18(profile: Profile) -> Plan {
    ratio_sweep(
        "fig18",
        "Fig 18: OFFSTAT/OPT ratio vs T, commuter dynamic load",
        WorkloadSpec::CommuterDynamic,
        true,
        profile,
    )
}

/// Figure 19: OFFSTAT/OPT ratio vs T, commuter static load.
pub fn fig19(profile: Profile) -> Plan {
    ratio_sweep(
        "fig19",
        "Fig 19: OFFSTAT/OPT ratio vs T, commuter static load",
        WorkloadSpec::CommuterStatic,
        true,
        profile,
    )
}

//! Figures 7–10: cost as a function of T and λ.
//!
//! * Fig 7 — cost vs `T` in the commuter scenario with static load
//!   (600 rounds, λ=20, n=1000, 10 runs). Cost grows with `T` because the
//!   request horizon (peak volume `2^{T/2}`) grows.
//! * Fig 8 — cost vs `λ` in the commuter scenario with dynamic load
//!   (900 rounds, T=10, n=200, 10 runs): roughly λ-independent, with ONTH
//!   about a factor two better.
//! * Fig 9 — the same with static load.
//! * Fig 10 — the same for the time-zones scenario (p=50%): cost slightly
//!   decreases with λ (fewer migrations needed).

use flexserve_workload::CommuterScenario;

use crate::spec::WorkloadSpec;

use super::size_sweeps::{ErSweep, TIME_ZONES};
use super::{Plan, Profile};

/// Figure 7: cost vs T (commuter static, λ=20, n=1000 in the paper).
pub fn fig07(profile: Profile) -> Plan {
    let rounds = profile.rounds(600);
    let lambda = 20u64;
    let n = profile.exemplary_n(1000);
    let seeds = profile.seeds(10);
    ErSweep {
        name: "fig07",
        title: format!(
            "Fig 7: cost vs T, commuter static load (n={n}, {rounds} rounds, lambda={lambda}, {} seeds)",
            seeds.len()
        ),
        x_label: "T",
        workload: WorkloadSpec::CommuterStatic,
        rounds,
        seeds,
        salt: 0xBEEF,
        rows: profile.t_values().into_iter().map(|t| (t, (n, t, lambda))).collect(),
    }
    .plan()
}

fn cost_vs_lambda(
    name: &'static str,
    title: &str,
    workload: WorkloadSpec,
    profile: Profile,
) -> Plan {
    let rounds = profile.rounds(900);
    let n = 200usize.min(profile.exemplary_n(200));
    let t = CommuterScenario::t_for_network_size(n); // = 10 at n=200, as in the paper
    let seeds = profile.seeds(10);
    ErSweep {
        name,
        title: format!(
            "{title} (n={n}, T={t}, {rounds} rounds, {} seeds)",
            seeds.len()
        ),
        x_label: "lambda",
        workload,
        rounds,
        seeds,
        salt: 0xF00D,
        rows: (profile.lambdas().into_iter())
            .map(|lambda| (lambda, (n, t, lambda)))
            .collect(),
    }
    .plan()
}

/// Figure 8: cost vs λ, commuter dynamic load.
pub fn fig08(profile: Profile) -> Plan {
    cost_vs_lambda(
        "fig08",
        "Fig 8: cost vs lambda, commuter dynamic load",
        WorkloadSpec::CommuterDynamic,
        profile,
    )
}

/// Figure 9: cost vs λ, commuter static load.
pub fn fig09(profile: Profile) -> Plan {
    cost_vs_lambda(
        "fig09",
        "Fig 9: cost vs lambda, commuter static load",
        WorkloadSpec::CommuterStatic,
        profile,
    )
}

/// Figure 10: cost vs λ, time-zones scenario (p = 50%).
pub fn fig10(profile: Profile) -> Plan {
    cost_vs_lambda(
        "fig10",
        "Fig 10: cost vs lambda, time-zones scenario (p=50%)",
        TIME_ZONES,
        profile,
    )
}

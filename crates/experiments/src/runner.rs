//! Seed-parallel experiment execution: run one cell per seed (or per
//! `(row, seed)` pair of a figure) and collect the cost breakdowns in
//! seed order.

use rayon::prelude::*;

use flexserve_sim::CostBreakdown;

/// Per-seed results of one experimental cell.
#[derive(Clone, Debug, Default)]
pub struct SeedSummary {
    /// One total-cost breakdown per seed.
    pub per_seed: Vec<CostBreakdown>,
}

impl SeedSummary {
    /// Mean breakdown over seeds.
    pub fn mean(&self) -> CostBreakdown {
        let n = self.per_seed.len().max(1) as f64;
        let sum: CostBreakdown = self.per_seed.iter().copied().sum();
        CostBreakdown {
            access: sum.access / n,
            running: sum.running / n,
            migration: sum.migration / n,
            creation: sum.creation / n,
        }
    }

    /// Mean total cost over seeds.
    pub fn mean_total(&self) -> f64 {
        self.mean().total()
    }

    /// Sample standard deviation of the total cost.
    pub fn std_total(&self) -> f64 {
        let n = self.per_seed.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean_total();
        let var: f64 = self
            .per_seed
            .iter()
            .map(|c| (c.total() - mean).powi(2))
            .sum::<f64>()
            / (n as f64 - 1.0);
        var.sqrt()
    }
}

/// Runs `f(seed)` for every seed in parallel (rayon — each seed is an
/// independent game over its own `SimContext` borrow and trace) and
/// collects the breakdowns in seed order.
///
/// Determinism: `f` must derive **all** randomness from its seed argument
/// (every scenario and strategy in this workspace does), so the collected
/// summary is bit-identical to a serial `seeds.iter().map(f)` regardless
/// of thread count or scheduling — rayon only changes *when* each seed
/// runs, never what it computes. The figure pipelines rely on this to
/// produce identical CSVs on any machine.
pub fn average<F>(seeds: &[u64], f: F) -> SeedSummary
where
    F: Fn(u64) -> CostBreakdown + Sync,
{
    SeedSummary {
        per_seed: seeds.par_iter().map(|&seed| f(seed)).collect(),
    }
}

/// Runs every `(row, seed)` cell of a figure in one parallel call, one
/// cell per task, and transposes the results into per-row summaries:
/// `f(row, seed)` evaluates one seed's whole **strategy group** on that
/// row (typically [`StrategySpec::run`](crate::spec::StrategySpec::run)
/// per strategy over one shared trace) and returns one breakdown per
/// strategy; row `r` of the result holds one [`SeedSummary`] per
/// strategy, with the per-seed costs in seed order.
///
/// A figure row holds only a few seeds, so fanning out row by row leaves
/// threads idle behind the slowest seed; the whole grid balances over
/// every cell at once. The same determinism contract as [`average`]
/// applies, so each summary is bit-identical to running that row and
/// strategy through its own `average`: the figure pipelines rely on this
/// to keep their CSVs byte-stable while recording each seed's demand only
/// once.
pub fn grid<R, F, const C: usize>(rows: &[R], seeds: &[u64], f: F) -> Vec<[SeedSummary; C]>
where
    R: Sync,
    F: Fn(&R, u64) -> [CostBreakdown; C] + Sync,
{
    let cells: Vec<[CostBreakdown; C]> = (0..rows.len() * seeds.len())
        .into_par_iter()
        .with_max_len(1)
        .map(|i| f(&rows[i / seeds.len()], seeds[i % seeds.len()]))
        .collect();
    let mut out: Vec<[SeedSummary; C]> = (0..rows.len())
        .map(|_| std::array::from_fn(|_| SeedSummary::default()))
        .collect();
    for (i, cell) in cells.into_iter().enumerate() {
        for (summary, cost) in out[i / seeds.len()].iter_mut().zip(cell) {
            summary.per_seed.push(cost);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::ExperimentEnv;
    use crate::spec::{StrategySpec, ALL_STRATEGIES};
    use flexserve_sim::{CostParams, LoadModel};
    use flexserve_workload::{record, UniformScenario};

    #[test]
    fn all_strategies_run() {
        let env = ExperimentEnv::line(8);
        let ctx = env.context(CostParams::default().with_max_servers(4), LoadModel::Linear);
        let mut s = UniformScenario::new(&env.graph, 3, 1);
        let trace = record(&mut s, 25);
        for strat in ALL_STRATEGIES {
            let cost = strat.evaluate(&ctx, &trace, 1).total();
            assert!(cost.is_finite() && cost > 0.0, "{strat}");
        }
    }

    #[test]
    fn average_is_parallel_and_ordered() {
        let seeds = [1u64, 2, 3, 4];
        let s = average(&seeds, |seed| CostBreakdown::from_access(seed as f64));
        assert_eq!(s.per_seed.len(), 4);
        assert_eq!(s.per_seed[2].access, 3.0);
        assert_eq!(s.mean_total(), 2.5);
        assert!(s.std_total() > 0.0);
    }

    #[test]
    fn parallel_average_bit_identical_to_serial() {
        // A real simulation cell: same seeds through the parallel and the
        // serial runner must agree to the last bit, not just approximately.
        let env = ExperimentEnv::erdos_renyi(60, 4);
        let ctx = env.context(CostParams::default().with_max_servers(3), LoadModel::Linear);
        let seeds: Vec<u64> = (0..6).collect();
        let cell = |seed: u64| {
            let mut s = UniformScenario::new(&env.graph, 4, seed);
            let trace = record(&mut s, 40);
            StrategySpec::OnTh.evaluate(&ctx, &trace, seed)
        };
        let par = average(&seeds, cell);
        let ser: Vec<CostBreakdown> = seeds.iter().map(|&seed| cell(seed)).collect();
        assert_eq!(par.per_seed.len(), ser.len());
        for (p, s) in par.per_seed.iter().zip(&ser) {
            assert_eq!(p.access.to_bits(), s.access.to_bits());
            assert_eq!(p.running.to_bits(), s.running.to_bits());
            assert_eq!(p.migration.to_bits(), s.migration.to_bits());
            assert_eq!(p.creation.to_bits(), s.creation.to_bits());
        }
    }

    #[test]
    fn grouped_evaluation_matches_independent_runs() {
        let env = ExperimentEnv::erdos_renyi(50, 9);
        let ctx = env.context(CostParams::default().with_max_servers(3), LoadModel::Linear);
        let seeds: Vec<u64> = (0..4).collect();
        let rows = [20u64, 30];
        let strats = [
            StrategySpec::OnTh,
            StrategySpec::OnBrFixed,
            StrategySpec::Static,
        ];

        // Grouped: one trace per (row, seed) cell, every algorithm reads it.
        let grouped = grid(&rows, &seeds, |&rounds, seed| {
            let mut s = UniformScenario::new(&env.graph, 4, seed);
            let trace = record(&mut s, rounds);
            strats.map(|strat| strat.evaluate(&ctx, &trace, seed))
        });
        assert_eq!(grouped.len(), rows.len());

        // Independent: each row and strategy records its own traces.
        for (row, &rounds) in grouped.iter().zip(&rows) {
            for (summary, &strat) in row.iter().zip(&strats) {
                let solo = average(&seeds, |seed| {
                    let mut s = UniformScenario::new(&env.graph, 4, seed);
                    let trace = record(&mut s, rounds);
                    strat.evaluate(&ctx, &trace, seed)
                });
                assert_eq!(summary.per_seed.len(), seeds.len());
                for (g, s) in summary.per_seed.iter().zip(&solo.per_seed) {
                    assert_eq!(g.access.to_bits(), s.access.to_bits(), "{strat}");
                    assert_eq!(g.running.to_bits(), s.running.to_bits(), "{strat}");
                    assert_eq!(g.migration.to_bits(), s.migration.to_bits(), "{strat}");
                    assert_eq!(g.creation.to_bits(), s.creation.to_bits(), "{strat}");
                }
            }
        }
    }

    #[test]
    fn grid_transposes_in_row_and_seed_order() {
        let seeds = [5u64, 6, 7];
        let rows = [10.0f64, 20.0];
        let out = grid(&rows, &seeds, |&x, seed| {
            [
                CostBreakdown::from_access(x + seed as f64),
                CostBreakdown::from_access(-x),
            ]
        });
        let access = |s: &SeedSummary| s.per_seed.iter().map(|c| c.access).collect::<Vec<_>>();
        assert_eq!(access(&out[0][0]), [15.0, 16.0, 17.0]);
        assert_eq!(access(&out[1][0]), [25.0, 26.0, 27.0]);
        assert_eq!(access(&out[1][1]), [-20.0; 3]);
        // No seeds: every row still gets its (empty) summaries.
        let empty = grid(&rows, &[], |_, _| [CostBreakdown::default()]);
        assert_eq!(empty.len(), 2);
        assert!(empty[0][0].per_seed.is_empty());
    }

    #[test]
    fn summary_stats_degenerate() {
        let s = SeedSummary {
            per_seed: vec![CostBreakdown::from_access(7.0)],
        };
        assert_eq!(s.mean_total(), 7.0);
        assert_eq!(s.std_total(), 0.0);
        let empty = SeedSummary::default();
        assert_eq!(empty.mean_total(), 0.0);
    }
}

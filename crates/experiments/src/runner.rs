//! Seed-parallel experiment execution: run one cell per seed and
//! collect (or average) the cost breakdowns in seed order.

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
/// summary is bit-identical to [`average_serial`] regardless of thread
/// count or scheduling — rayon only changes *when* each seed runs, never
/// what it computes. The figure pipelines rely on this to produce
/// identical CSVs on any machine.
pub fn average<F>(seeds: &[u64], f: F) -> SeedSummary
where
    F: Fn(u64) -> CostBreakdown + Sync,
{
    SeedSummary {
        per_seed: seeds.par_iter().map(|&seed| f(seed)).collect(),
    }
}

/// Serial reference implementation of [`average`], used by the perf
/// harness for before/after comparison and by tests asserting that the
/// parallel path is bit-identical.
pub fn average_serial<F>(seeds: &[u64], f: F) -> SeedSummary
where
    F: Fn(u64) -> CostBreakdown,
{
    SeedSummary {
        per_seed: seeds.iter().map(|&seed| f(seed)).collect(),
    }
}

/// The grouped form of [`average`]: `f(seed)` evaluates one seed's whole
/// **strategy group** (typically
/// [`StrategySpec::run`](crate::spec::StrategySpec::run) per strategy
/// over one shared trace) and returns one breakdown per strategy; the
/// per-seed rows are transposed into one [`SeedSummary`] per strategy.
///
/// Every `f(seed)` must return the same number of breakdowns. The same
/// determinism contract as [`average`] applies, so the summaries are
/// bit-identical to running each strategy through its own `average` —
/// the figure pipelines rely on this to keep their CSVs byte-stable
/// while recording each seed's demand only once.
pub fn average_multi<F>(seeds: &[u64], strategies: usize, f: F) -> Vec<SeedSummary>
where
    F: Fn(u64) -> Vec<CostBreakdown> + Sync,
{
    let rows: Vec<Vec<CostBreakdown>> = seeds.par_iter().map(|&seed| f(seed)).collect();
    let mut out = vec![SeedSummary::default(); strategies];
    for row in rows {
        assert_eq!(
            row.len(),
            strategies,
            "average_multi: every seed must evaluate the same strategy group"
        );
        for (summary, cost) in out.iter_mut().zip(row) {
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
            let cost = strat.run(&ctx, &trace, 1).total();
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
            StrategySpec::OnTh.run(&ctx, &trace, seed)
        };
        let par = average(&seeds, cell);
        let ser = average_serial(&seeds, cell);
        for (p, s) in par.per_seed.iter().zip(&ser.per_seed) {
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
        let strats = [
            StrategySpec::OnTh,
            StrategySpec::OnBrFixed,
            StrategySpec::Static,
        ];

        // Grouped: one trace per seed, every algorithm reads it.
        let grouped = average_multi(&seeds, strats.len(), |seed| {
            let mut s = UniformScenario::new(&env.graph, 4, seed);
            let trace = record(&mut s, 30);
            strats.map(|strat| strat.run(&ctx, &trace, seed)).to_vec()
        });

        // Independent: each strategy records its own trace.
        for (i, &strat) in strats.iter().enumerate() {
            let solo = average(&seeds, |seed| {
                let mut s = UniformScenario::new(&env.graph, 4, seed);
                let trace = record(&mut s, 30);
                strat.run(&ctx, &trace, seed)
            });
            assert_eq!(grouped[i].per_seed.len(), seeds.len());
            for (g, s) in grouped[i].per_seed.iter().zip(&solo.per_seed) {
                assert_eq!(g.access.to_bits(), s.access.to_bits(), "{strat}");
                assert_eq!(g.running.to_bits(), s.running.to_bits(), "{strat}");
                assert_eq!(g.migration.to_bits(), s.migration.to_bits(), "{strat}");
                assert_eq!(g.creation.to_bits(), s.creation.to_bits(), "{strat}");
            }
        }
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

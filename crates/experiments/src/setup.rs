//! The substrate half of an experiment: a graph plus its distance matrix,
//! built through the process-wide [`DistCache`] and matching the paper's
//! set-up (§V-A: Erdős–Rényi random graphs with 1% connection probability
//! and random T1/T2 bandwidths).

use std::sync::Arc;

use flexserve_graph::{DistanceMatrix, Graph};
use flexserve_sim::{CostParams, LoadModel, SimContext};

use crate::cache::DistCache;
use crate::spec::TopologySpec;

/// A substrate and its distance matrix, shared by `Arc` so a
/// [`SimContext`] can borrow both and many runs (and cache entries) can
/// share one APSP computation.
///
/// All seeded constructors go through the process-wide
/// [`DistCache`]: requesting the same
/// `(topology, seed)` twice returns the *same* graph and matrix instead of
/// recomputing the all-pairs shortest paths — the dominant redundant cost
/// when a figure evaluates several algorithms or workloads on one
/// substrate. Cached or fresh, the contents are bit-identical, so results
/// never depend on cache state.
#[derive(Clone)]
pub struct ExperimentEnv {
    /// The substrate graph.
    pub graph: Arc<Graph>,
    /// Its all-pairs shortest-path matrix.
    pub matrix: Arc<DistanceMatrix>,
}

impl ExperimentEnv {
    /// Builds (or fetches from the cache) the substrate a
    /// [`TopologySpec`] describes for `seed`.
    pub fn from_spec(spec: &TopologySpec, seed: u64) -> Result<Self, String> {
        // Seed-insensitive topologies (as7018, rocketfuel, unit-line)
        // normalize to one cache entry instead of an identical build per
        // seed.
        let seed = if spec.is_seeded() { seed } else { 0 };
        DistCache::global().get_or_build(&spec.to_string(), seed, || spec.build(seed))
    }

    /// Erdős–Rényi substrate with the paper's 1% connection probability.
    pub fn erdos_renyi(n: usize, seed: u64) -> Self {
        Self::from_spec(&TopologySpec::ErdosRenyi { n }, seed).expect("valid ER parameters")
    }

    /// Unit-latency line substrate (tests and deterministic examples).
    pub fn line(n: usize) -> Self {
        Self::from_spec(&TopologySpec::UnitLine { n }, 0).expect("n >= 1")
    }

    /// Line substrate with the same random latency (1–10 ms) and T1/T2
    /// bandwidth conventions as the Erdős–Rényi substrates — the topology
    /// the OPT experiments run on ("to simulate OPT, we constrain
    /// ourselves to line graphs"; link properties random as elsewhere).
    pub fn random_line(n: usize, seed: u64) -> Self {
        Self::from_spec(&TopologySpec::Line { n }, seed).expect("n >= 1")
    }

    /// Wraps a prebuilt graph. Not cached: the caller owns the graph's
    /// provenance.
    pub fn from_graph(graph: Graph) -> Self {
        let matrix = DistanceMatrix::build(&graph);
        ExperimentEnv {
            graph: Arc::new(graph),
            matrix: Arc::new(matrix),
        }
    }

    /// A [`SimContext`] over this environment.
    pub fn context(&self, params: CostParams, load: LoadModel) -> SimContext<'_> {
        SimContext::new(&self.graph, &self.matrix, params, load)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn er_env_is_connected_and_sized() {
        let env = ExperimentEnv::erdos_renyi(80, 3);
        assert_eq!(env.graph.node_count(), 80);
        assert!(env.matrix.is_connected());
    }

    #[test]
    fn line_env() {
        let env = ExperimentEnv::line(5);
        assert_eq!(env.graph.node_count(), 5);
        assert_eq!(
            env.matrix.get(
                flexserve_graph::NodeId::new(0),
                flexserve_graph::NodeId::new(4)
            ),
            4.0
        );
    }
}

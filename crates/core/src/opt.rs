//! OPT — the optimal offline algorithm (§IV-A).
//!
//! A dynamic program over `time × configurations`. A configuration
//! describes, for each server, whether it is not in use, inactive, or
//! active, and where it is hosted (Definition 3.1). The DP exploits the
//! optimal-substructure property: the cheapest way to be in configuration
//! `γ` at time `t` extends the cheapest way to be in some `γ′` at `t−1` by
//! the transition `γ′ → γ`:
//!
//! ```text
//! opt[t][γ] = min_γ′ ( opt[t−1][γ′] + Cost(γ′→γ) ) + Cost_run(γ) + Cost_acc(σt, γ)
//! ```
//!
//! The state space is `3^n` filtered to `1 ≤ |A|` and `|A| + |I| ≤ k` —
//! "the computational complexity of OPT is rather high". OPT manages its
//! inactive servers optimally (no FIFO-cache restriction): it is the
//! *reference optimum* the online algorithms are measured against.
//!
//! ## How the DP avoids the dense transition matrix
//!
//! A naive implementation materializes all `s × s` transition costs
//! (128 MB of `f64` at `s = 4000`) and scans every predecessor per state
//! per round. This implementation exploits that the transition cost
//! decomposes **per server position**: `Cost(γ′→γ)` depends only on the
//! *position sets* `P′ = A′ ∪ I′` and `P = A ∪ I` (activation flips at a
//! node are free; new positions are filled by migrations `β` matched
//! against vacated positions, the rest by creations `c`). Configurations
//! sharing a position set therefore share all their incoming and outgoing
//! transition costs, which yields a two-level sparse predecessor
//! structure:
//!
//! 1. configurations are grouped by position bitmask (`g ≪ s` groups:
//!    a set of `p` positions hosts `2^p − 1` activation patterns);
//! 2. each round first reduces every group to its cheapest member
//!    (`O(s)`), then minimizes per *target group* over source groups
//!    (`O(g²)`): a column's predecessor minimum depends only on its
//!    position set. The group-to-group costs come from a `g × g` table
//!    built once per run from two popcounts per pair (7.7 KB at the
//!    figures' `n = 5`, 8.4 MB at [`MAX_STATES`]), so a round reads one
//!    contiguous row per target group instead of recomputing them;
//! 3. each column then adds its own running and access cost to its
//!    group's minimum (`O(s)`).
//!
//! Because `min_i (prev[i]) + T = min_i (prev[i] + T)` exactly (adding a
//! constant is monotone in IEEE floats), the grouped minimum is
//! bit-identical to the naive full scan. Ties go to the first source
//! group in enumeration order of first appearance, then to its first
//! cheapest member. A golden regression test and a dense in-test
//! reference that scans predecessors in that order pin the cost bits and
//! the plans. The per-round loop over target groups is parallelized with
//! rayon (each group only reads the group minima), which keeps rounds
//! deterministic: every group's arithmetic is independent of thread
//! count.
//!
//! Access cost is memoized the same way: it depends only on a
//! configuration's *active set*, so each round evaluates it once per
//! distinct `active_mask` (e.g. 511 evaluations instead of 19 171 columns
//! at `n = 9, k = 9`) and the columns look the value up. The memo calls
//! the identical evaluation on the identical sorted active list, so it is
//! bit-identical by construction.

use flexserve_graph::NodeId;
use flexserve_sim::{Plan, SimContext};
use flexserve_workload::Trace;
use rayon::prelude::*;

/// Safety cap on the configuration count. The grouped DP is
/// `O(t · (s + g²))` time and `O(t · s + g²)` memory (`4 B` backtracking
/// parents per state and round, plus the `g × g` group transition table)
/// — no `s × s` materialization — so substrates well beyond the paper's
/// five-node line graphs are feasible (`s = 58 025` covers `n = 10` with
/// `k = 10`; its `g = 1 023` position groups table in 8.4 MB).
pub const MAX_STATES: usize = 60_000;

/// One DP configuration, with bitmask mirrors of the sorted node lists.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Config {
    active: Vec<NodeId>,
    inactive: Vec<NodeId>,
    /// Bitmask of `active` (bit `i` = node `i`).
    active_mask: u64,
    /// Bitmask of `active ∪ inactive` — the position set `P`.
    position_mask: u64,
}

/// Per-position transition cost between two position masks: migrations are
/// matched new↔vacated pairs at `β` (when useful), the rest creations at
/// `c`. Bit-for-bit the same arithmetic as
/// `flexserve_sim::config_transition_cost`, from two popcounts.
#[inline]
fn mask_transition_cost(from: u64, to: u64, params: &flexserve_sim::CostParams) -> f64 {
    let new_positions = (to & !from).count_ones() as usize;
    if params.migration_useful() {
        let vacated = (from & !to).count_ones() as usize;
        let migrations = new_positions.min(vacated);
        let creations = new_positions - migrations;
        migrations as f64 * params.migration_beta + creations as f64 * params.creation_c
    } else {
        new_positions as f64 * params.creation_c
    }
}

/// The result of the offline optimization.
#[derive(Clone, Debug)]
pub struct OptResult {
    /// Optimal per-round active sets (apply before serving the round).
    pub plan: Plan,
    /// Optimal per-round inactive sets (for inspection).
    pub inactive_plan: Vec<Vec<NodeId>>,
    /// The optimal total cost (transitions + running + access over the
    /// whole trace).
    pub cost: f64,
    /// Size of the explored configuration space.
    pub states: usize,
}

/// Runs the optimal offline DP over `trace`, starting from `initial`
/// active servers (no inactive servers cached initially; the starting
/// configuration is free, matching the engine convention).
///
/// # Panics
///
/// Panics if the configuration space exceeds [`MAX_STATES`], if the
/// substrate has more than 64 nodes (configuration bitmasks are `u64`;
/// any larger instance is far beyond [`MAX_STATES`] anyway), or if the
/// trace is empty.
pub fn optimal_plan(ctx: &SimContext<'_>, trace: &Trace, initial: &[NodeId]) -> OptResult {
    assert!(!trace.is_empty(), "OPT: empty trace");
    let n = ctx.graph.node_count();
    assert!(n <= 64, "OPT: {n}-node substrate exceeds the 64-bit mask");
    let k = ctx.params.max_servers.min(n);

    // --- Enumerate configurations and group them by position set -------
    let configs = enumerate_configs(n, k);
    let s = configs.len();
    assert!(
        s <= MAX_STATES,
        "OPT: {s} configurations (n={n}, k={k}) exceed MAX_STATES={MAX_STATES}; \
         use a smaller substrate or server budget"
    );

    // Group ids are dense in first-seen (enumeration) order, which keeps
    // the grouped predecessor scan's tie-breaking deterministic.
    let mut group_of = vec![0u32; s];
    let mut group_masks: Vec<u64> = Vec::new();
    {
        let mut seen: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        for (j, cfg) in configs.iter().enumerate() {
            let next = seen.len() as u32;
            let gid = *seen.entry(cfg.position_mask).or_insert(next);
            if gid == group_masks.len() as u32 {
                group_masks.push(cfg.position_mask);
            }
            group_of[j] = gid;
        }
    }
    let g = group_masks.len();

    // Access-cost groups: configurations sharing `active_mask` have the
    // identical sorted active list, hence the identical access cost every
    // round. `acc_reps[a]` is the first config of group `a` (dense
    // first-seen ids, like the position groups above).
    let mut acc_group_of = vec![0u32; s];
    let mut acc_reps: Vec<u32> = Vec::new();
    {
        let mut seen: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        for (j, cfg) in configs.iter().enumerate() {
            let next = seen.len() as u32;
            let aid = *seen.entry(cfg.active_mask).or_insert(next);
            if aid == acc_reps.len() as u32 {
                acc_reps.push(j as u32);
            }
            acc_group_of[j] = aid;
        }
    }
    let ga = acc_reps.len();

    // --- Per-config running cost ---------------------------------------
    let running: Vec<f64> = configs
        .iter()
        .map(|c| ctx.running_cost(c.active.len(), c.inactive.len()))
        .collect();

    // Initial configuration γ0.
    let mut init_sorted: Vec<NodeId> = initial.to_vec();
    init_sorted.sort();
    let gamma0_mask: u64 = init_sorted.iter().fold(0u64, |m, v| m | 1u64 << v.index());

    // --- DP -------------------------------------------------------------
    let t_max = trace.len();
    let mut cur = vec![0.0f64; s];
    let mut prev = vec![0.0f64; s];
    let mut parents: Vec<Vec<u32>> = Vec::with_capacity(t_max);

    // The folded-counts access evaluation below replicates nearest
    // routing; any other policy goes through the routing layer.
    let nearest = matches!(ctx.routing, flexserve_sim::RoutingPolicy::Nearest);

    // Per-round access memo: one evaluation per distinct active set.
    let mut access_of = vec![0.0f64; ga];
    let fill_access = |access_of: &mut Vec<f64>, t: usize| {
        let round = trace.round(t);
        let counts = round.counts_slice();
        par_columns(access_of, ga, |aj, col| {
            let active = &configs[acc_reps[aj] as usize].active;
            if nearest {
                access_cost_counts(ctx, active, counts, col.counts_scratch())
            } else {
                ctx.access_cost(active, round)
            }
        });
    };

    // Round 0: transition from γ0 (positions-only pricing, identical to
    // `config_transition_cost`).
    {
        fill_access(&mut access_of, 0);
        let access_of = &access_of;
        let acc_group_of = &acc_group_of;
        par_columns(&mut cur, s, |j, _col| {
            let cfg = &configs[j];
            let tcost = mask_transition_cost(gamma0_mask, cfg.position_mask, &ctx.params);
            let acc = access_of[acc_group_of[j] as usize];
            tcost + running[j] + acc
        });
        parents.push(vec![u32::MAX; s]);
    }

    // Group-to-group transition costs, built once: row `gj` holds the
    // cost of reaching group `gj` from every source group `gi`, so phase
    // 2's inner loop streams one contiguous row. The same `f64` values
    // the popcount formula gives, so the DP is bit-identical to it.
    let transition: Vec<f64> = group_masks
        .iter()
        .flat_map(|&to| {
            group_masks
                .iter()
                .map(move |&from| mask_transition_cost(from, to, &ctx.params))
        })
        .collect();

    // Per-round scratch, reused every round: group minima and each
    // target group's (cost, parent) predecessor choice.
    let mut group_min = vec![f64::INFINITY; g];
    let mut group_arg = vec![u32::MAX; g];
    let mut group_best: Vec<(f64, u32)> = vec![(f64::INFINITY, u32::MAX); g];

    for t in 1..t_max {
        std::mem::swap(&mut prev, &mut cur);

        // Phase 1 (serial, O(s)): cheapest member of every position group.
        group_min.fill(f64::INFINITY);
        group_arg.fill(u32::MAX);
        for (i, &v) in prev.iter().enumerate() {
            let gi = group_of[i] as usize;
            if v < group_min[gi] {
                group_min[gi] = v;
                group_arg[gi] = i as u32;
            }
        }

        // Phase 2 (parallel, O(g²)): a column's predecessor minimum
        // depends only on its position set, so it is taken once per
        // target group, over source groups with the tabled transition
        // cost.
        {
            let group_min = &group_min;
            let group_arg = &group_arg;
            let transition = &transition;
            par_columns(&mut group_best, g, |gj, _col| {
                let costs = &transition[gj * g..(gj + 1) * g];
                let mut best = f64::INFINITY;
                let mut best_p = u32::MAX;
                for (gi, (&m, &cost)) in group_min.iter().zip(costs).enumerate() {
                    if !m.is_finite() {
                        continue;
                    }
                    let v = m + cost;
                    if v < best {
                        best = v;
                        best_p = group_arg[gi];
                    }
                }
                (best, best_p)
            });
        }

        // Phase 3 (serial, O(s)): each column adds its own running and
        // access cost to its group's predecessor minimum.
        fill_access(&mut access_of, t);
        let mut parent = Vec::with_capacity(s);
        for (j, c) in cur.iter_mut().enumerate() {
            let (best, p) = group_best[group_of[j] as usize];
            *c = best + running[j] + access_of[acc_group_of[j] as usize];
            parent.push(p);
        }
        parents.push(parent);
    }

    // --- Backtrack -------------------------------------------------------
    let (mut best_j, mut best_cost) = (0usize, f64::INFINITY);
    for (j, &v) in cur.iter().enumerate() {
        if v < best_cost {
            best_cost = v;
            best_j = j;
        }
    }
    let mut order = vec![best_j; t_max];
    for t in (1..t_max).rev() {
        order[t - 1] = parents[t][order[t]] as usize;
    }
    let plan: Plan = order.iter().map(|&j| configs[j].active.clone()).collect();
    let inactive_plan: Vec<Vec<NodeId>> =
        order.iter().map(|&j| configs[j].inactive.clone()).collect();

    OptResult {
        plan,
        inactive_plan,
        cost: best_cost,
        states: s,
    }
}

/// Per-worker scratch handed to the column closures: a reusable
/// per-server request-count buffer for the access-cost evaluation.
struct ColumnScratch {
    counts: Vec<usize>,
}

impl ColumnScratch {
    fn counts_scratch(&mut self) -> &mut Vec<usize> {
        &mut self.counts
    }
}

/// Runs `f(j, scratch)` for every column `j`, writing the result into
/// `out[j]`, in parallel blocks with one scratch per worker.
fn par_columns<T: Send>(
    out: &mut [T],
    s: usize,
    f: impl Fn(usize, &mut ColumnScratch) -> T + Sync,
) {
    let block = columns_block(s);
    out.par_chunks_mut(block)
        .enumerate()
        .for_each(|(b, chunk)| {
            let mut scratch = ColumnScratch { counts: Vec::new() };
            for (i, slot) in chunk.iter_mut().enumerate() {
                *slot = f(b * block + i, &mut scratch);
            }
        });
}

/// Block size for the column loops: small state spaces stay on one thread
/// (their columns are too cheap to be worth a pool hand-off), larger ones
/// split evenly over the workers.
fn columns_block(s: usize) -> usize {
    if s < 512 {
        s.max(1)
    } else {
        s.div_ceil(rayon::current_num_threads()).max(1)
    }
}

/// Access cost of serving the folded `counts` of one round from `servers`,
/// replicating the engine's nearest routing bit-for-bit (same iteration
/// order, same accumulation order) without routing-layer allocations:
/// `counts_buf` is the caller's reusable per-server counter.
fn access_cost_counts(
    ctx: &SimContext<'_>,
    servers: &[NodeId],
    counts: &[(NodeId, usize)],
    counts_buf: &mut Vec<usize>,
) -> f64 {
    if counts.is_empty() {
        return 0.0;
    }
    counts_buf.clear();
    counts_buf.resize(servers.len(), 0);
    let mut total_delay = 0.0;
    for &(origin, cnt) in counts {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (i, &sv) in servers.iter().enumerate() {
            let d = ctx.dist.get(origin, sv);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        total_delay += best_d * cnt as f64;
        counts_buf[best] += cnt;
    }
    let mut total_load = 0.0;
    for (i, &sv) in servers.iter().enumerate() {
        total_load += ctx.load.load(ctx.graph.strength(sv), counts_buf[i]);
    }
    total_delay + total_load
}

/// Number of configurations [`optimal_plan`] enumerates for `n` positions
/// and server budget `k`: position sets of size `1..=min(n,k)` with a
/// non-empty active subset, `Σ_{j=1}^{min(n,k)} C(n,j)·(2^j − 1)`.
/// Public so callers (e.g. the experiment CLI) can check feasibility
/// against [`MAX_STATES`] *before* invoking the DP instead of hitting its
/// panic (pinned to `enumerate_configs().len()` by a test).
pub fn state_count(n: usize, k: usize) -> u128 {
    let mut total: u128 = 0;
    let mut choose: u128 = 1; // C(n, 0)
    for j in 1..=k.min(n) {
        choose = choose * (n - j + 1) as u128 / j as u128;
        let active = (1u128 << j) - 1;
        total = total.saturating_add(choose.saturating_mul(active));
        if total > u128::from(u64::MAX) {
            break; // far beyond any feasible DP anyway
        }
    }
    total
}

/// Enumerates all configurations: each node is empty, inactive, or active;
/// at least one active server; at most `k` servers total.
fn enumerate_configs(n: usize, k: usize) -> Vec<Config> {
    let mut out = Vec::new();
    let mut active = Vec::new();
    let mut inactive = Vec::new();
    fn rec(
        n: usize,
        k: usize,
        node: usize,
        active: &mut Vec<NodeId>,
        inactive: &mut Vec<NodeId>,
        out: &mut Vec<Config>,
    ) {
        if active.len() + inactive.len() > k {
            return;
        }
        if node == n {
            if !active.is_empty() {
                let active_mask = active.iter().fold(0u64, |m, v| m | 1u64 << v.index());
                let position_mask = inactive
                    .iter()
                    .fold(active_mask, |m, v| m | 1u64 << v.index());
                out.push(Config {
                    active: active.clone(),
                    inactive: inactive.clone(),
                    active_mask,
                    position_mask,
                });
            }
            return;
        }
        // empty
        rec(n, k, node + 1, active, inactive, out);
        // active
        active.push(NodeId::new(node));
        rec(n, k, node + 1, active, inactive, out);
        active.pop();
        // inactive
        inactive.push(NodeId::new(node));
        rec(n, k, node + 1, active, inactive, out);
        inactive.pop();
    }
    rec(n, k, 0, &mut active, &mut inactive, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexserve_graph::gen::unit_line;
    use flexserve_graph::DistanceMatrix;
    use flexserve_sim::{config_transition_cost, CostParams, LoadModel};
    use flexserve_workload::RoundRequests;
    use proptest::prelude::*;

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
        fn ctx(&self, k: usize) -> SimContext<'_> {
            SimContext::new(
                &self.g,
                &self.m,
                CostParams::default().with_max_servers(k),
                LoadModel::None,
            )
        }
    }

    /// The naive `O(t·s²)` DP with a dense transition matrix — the
    /// structure this module replaced — kept as an in-test reference for
    /// the equivalence tests below. It scans every predecessor, in the
    /// grouped DP's tie-breaking order (position groups by first
    /// appearance, members in enumeration order), and backtracks its plan
    /// the same way.
    fn optimal_dense(ctx: &SimContext<'_>, trace: &Trace, initial: &[NodeId]) -> OptResult {
        let n = ctx.graph.node_count();
        let k = ctx.params.max_servers.min(n);
        let configs = enumerate_configs(n, k);
        let s = configs.len();
        let running: Vec<f64> = configs
            .iter()
            .map(|c| ctx.running_cost(c.active.len(), c.inactive.len()))
            .collect();
        let mut trans = vec![0.0f64; s * s];
        for (i, from) in configs.iter().enumerate() {
            for (j, to) in configs.iter().enumerate() {
                trans[i * s + j] = config_transition_cost(
                    &from.active,
                    &from.inactive,
                    &to.active,
                    &to.inactive,
                    &ctx.params,
                );
            }
        }
        let first_seen = |mask: u64| configs.iter().position(|c| c.position_mask == mask);
        let mut order: Vec<usize> = (0..s).collect();
        order.sort_by_key(|&i| first_seen(configs[i].position_mask));
        let mut init_sorted: Vec<NodeId> = initial.to_vec();
        init_sorted.sort();
        let mut cur = vec![f64::INFINITY; s];
        for (j, cfg) in configs.iter().enumerate() {
            let tcost =
                config_transition_cost(&init_sorted, &[], &cfg.active, &cfg.inactive, &ctx.params);
            cur[j] = tcost + running[j] + ctx.access_cost(&cfg.active, trace.round(0));
        }
        let mut prev = vec![0.0f64; s];
        let mut parents = vec![vec![u32::MAX; s]];
        for t in 1..trace.len() {
            std::mem::swap(&mut prev, &mut cur);
            let mut parent = vec![u32::MAX; s];
            for (j, cfg) in configs.iter().enumerate() {
                let mut best = f64::INFINITY;
                for &i in &order {
                    let v = prev[i] + trans[i * s + j];
                    if v < best {
                        best = v;
                        parent[j] = i as u32;
                    }
                }
                cur[j] = best + running[j] + ctx.access_cost(&cfg.active, trace.round(t));
            }
            parents.push(parent);
        }
        let (mut best_j, mut cost) = (0usize, f64::INFINITY);
        for (j, &v) in cur.iter().enumerate() {
            if v < cost {
                cost = v;
                best_j = j;
            }
        }
        let mut order = vec![best_j; trace.len()];
        for t in (1..trace.len()).rev() {
            order[t - 1] = parents[t][order[t]] as usize;
        }
        OptResult {
            plan: order.iter().map(|&j| configs[j].active.clone()).collect(),
            inactive_plan: order.iter().map(|&j| configs[j].inactive.clone()).collect(),
            cost,
            states: s,
        }
    }

    #[test]
    fn enumeration_counts() {
        // n=2, k=2: states with >=1 active:
        // (A,_),( _,A),(A,A),(A,I),(I,A) = 5
        assert_eq!(enumerate_configs(2, 2).len(), 5);
        // n=1: single active config
        assert_eq!(enumerate_configs(1, 1).len(), 1);
        // n=3, k=1: one active, no inactive (budget 1): 3
        assert_eq!(enumerate_configs(3, 1).len(), 3);
    }

    #[test]
    fn state_count_matches_enumeration() {
        for (n, k) in [(1usize, 1usize), (2, 2), (3, 1), (4, 3), (5, 4), (6, 6)] {
            assert_eq!(
                state_count(n, k),
                enumerate_configs(n, k).len() as u128,
                "n={n} k={k}"
            );
        }
    }

    #[test]
    fn masks_match_lists() {
        for cfg in enumerate_configs(4, 3) {
            let am = cfg.active.iter().fold(0u64, |m, v| m | 1 << v.index());
            let pm = cfg.inactive.iter().fold(am, |m, v| m | 1 << v.index());
            assert_eq!(cfg.active_mask, am);
            assert_eq!(cfg.position_mask, pm);
        }
    }

    #[test]
    fn mask_cost_matches_list_cost() {
        let params = CostParams::default().with_max_servers(8);
        let flipped = CostParams::flipped().with_max_servers(8);
        let configs = enumerate_configs(4, 4);
        for p in [&params, &flipped] {
            for a in &configs {
                for b in &configs {
                    let dense =
                        config_transition_cost(&a.active, &a.inactive, &b.active, &b.inactive, p);
                    let masked = mask_transition_cost(a.position_mask, b.position_mask, p);
                    assert_eq!(dense.to_bits(), masked.to_bits());
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Lines of 2–6 nodes, any budget `k ≤ n`, both `β` regimes, no
        /// or linear load, random demand: the grouped DP's cost bits,
        /// plan and inactive plan are those of the dense reference. The
        /// cheap prices make ties common, so the plans pin the
        /// tie-breaking as well.
        #[test]
        fn grouped_dp_bit_identical_to_dense_reference(
            len in 2usize..7,
            k_pick in 0usize..6,
            regime in 0usize..4,
            linear in 0usize..2,
            start in 0usize..6,
            rounds in prop::collection::vec(
                prop::collection::vec((0usize..6, 1usize..5), 0..4), 1..12),
        ) {
            let fx = Fx::new(len);
            let k = 1 + k_pick % len;
            // β < c and β > c, at the paper's prices and at prices short
            // traces can pay off, where equal-cost plans (and ties) abound.
            let (beta, c) = [(40.0, 400.0), (400.0, 40.0), (2.0, 20.0), (20.0, 2.0)][regime];
            let params = CostParams::default().with_costs(beta, c);
            let load = if linear == 1 { LoadModel::Linear } else { LoadModel::None };
            let ctx = SimContext::new(&fx.g, &fx.m, params.with_max_servers(k), load);
            let trace = Trace::new(
                rounds
                    .iter()
                    .map(|round| {
                        let mut batch = RoundRequests::empty();
                        for &(node, cnt) in round {
                            batch.push_many(n(node % len), cnt);
                        }
                        batch
                    })
                    .collect(),
            );
            let initial = [n(start % len)];
            let fast = optimal_plan(&ctx, &trace, &initial);
            let dense = optimal_dense(&ctx, &trace, &initial);
            prop_assert_eq!(fast.cost.to_bits(), dense.cost.to_bits(),
                "len={} k={}: {} vs {}", len, k, fast.cost, dense.cost);
            prop_assert_eq!(&fast.plan, &dense.plan);
            prop_assert_eq!(&fast.inactive_plan, &dense.inactive_plan);
        }
    }

    /// Golden-cost regression pin: the exact OPT cost on a five-node line
    /// substrate with an oscillating two-cluster demand, frozen at the DP
    /// restructure (grouped sparse predecessors replacing the dense `s×s`
    /// transition matrix). The dense reference above proves old == new;
    /// this constant keeps *future* refactors honest.
    #[test]
    fn golden_cost_five_node_line() {
        let fx = Fx::new(5);
        let ctx = fx.ctx(3);
        let mut rounds = Vec::new();
        for t in 0..60u64 {
            let mut batch = RoundRequests::empty();
            // morning at one end, evening at the other, lunchtime split
            match (t / 10) % 3 {
                0 => batch.push_many(n(0), 6),
                1 => {
                    batch.push_many(n(0), 3);
                    batch.push_many(n(4), 3);
                }
                _ => batch.push_many(n(4), 6),
            }
            batch.push(n(2));
            rounds.push(batch);
        }
        let trace = Trace::new(rounds);
        let res = optimal_plan(&ctx, &trace, &[n(2)]);
        let golden = optimal_dense(&ctx, &trace, &[n(2)]).cost;
        assert_eq!(res.cost.to_bits(), golden.to_bits());
        const GOLDEN_COST: f64 = 670.0;
        assert!(
            (res.cost - GOLDEN_COST).abs() < 1e-9,
            "OPT cost drifted: {} (golden {GOLDEN_COST})",
            res.cost
        );
    }

    #[test]
    fn static_demand_no_moves() {
        let fx = Fx::new(5);
        let ctx = fx.ctx(2);
        let trace = flexserve_workload::Trace::new(vec![RoundRequests::new(vec![n(2)]); 10]);
        let res = optimal_plan(&ctx, &trace, &[n(2)]);
        // server already on the demand: cost = running only (Ra per round)
        assert!((res.cost - 10.0 * 2.5).abs() < 1e-9, "cost {}", res.cost);
        for round in &res.plan {
            assert_eq!(round, &vec![n(2)]);
        }
    }

    #[test]
    fn migrates_when_demand_justifies() {
        let fx = Fx::new(5);
        let ctx = fx.ctx(1);
        // demand far from the initial server for long: OPT moves immediately
        let trace = flexserve_workload::Trace::new(vec![RoundRequests::new(vec![n(4); 10]); 30]);
        let res = optimal_plan(&ctx, &trace, &[n(0)]);
        assert_eq!(res.plan[0], vec![n(4)], "OPT should move before round 0");
        // cost = migration 40 + running 2.5*30
        assert!((res.cost - (40.0 + 75.0)).abs() < 1e-9, "cost {}", res.cost);
    }

    #[test]
    fn stays_for_brief_demand() {
        let fx = Fx::new(5);
        let ctx = fx.ctx(1);
        // demand at node 4 for a single round only: paying 4 hops once is
        // cheaper than a 40-cost migration there and 40 back... OPT serves
        // remotely.
        let mut rounds = vec![RoundRequests::new(vec![n(0)]); 6];
        rounds[3] = RoundRequests::new(vec![n(4)]);
        let trace = flexserve_workload::Trace::new(rounds);
        let res = optimal_plan(&ctx, &trace, &[n(0)]);
        for round in &res.plan {
            assert_eq!(round, &vec![n(0)]);
        }
    }

    #[test]
    fn scales_out_for_persistent_split_demand() {
        let fx = Fx::new(5);
        let ctx = fx.ctx(2);
        let mut batch = RoundRequests::empty();
        batch.push_many(n(0), 20);
        batch.push_many(n(4), 20);
        let trace = flexserve_workload::Trace::new(vec![batch; 50]);
        let res = optimal_plan(&ctx, &trace, &[n(0)]);
        assert_eq!(
            res.plan.last().unwrap().len(),
            2,
            "OPT should use 2 servers"
        );
    }

    #[test]
    fn opt_is_lower_bound_for_any_plan() {
        use flexserve_sim::run_plan;
        let fx = Fx::new(4);
        let ctx = fx.ctx(2);
        let mut rounds = Vec::new();
        for t in 0..12u64 {
            let node = if (t / 3) % 2 == 0 { 0 } else { 3 };
            rounds.push(RoundRequests::new(vec![n(node); 3]));
        }
        let trace = flexserve_workload::Trace::new(rounds);
        let res = optimal_plan(&ctx, &trace, &[n(0)]);
        // compare against a handful of fixed plans
        for static_node in 0..4 {
            let plan: Plan = vec![vec![n(static_node)]; 12];
            let rec = run_plan(&ctx, &trace, &plan, vec![n(0)]);
            assert!(
                res.cost <= rec.total().total() + 1e-9,
                "OPT {} beat by static@{static_node} {}",
                res.cost,
                rec.total().total()
            );
        }
    }

    #[test]
    fn opt_plan_cost_matches_engine_replay() {
        use flexserve_sim::run_plan;
        // The DP's internal cost accounting must agree with the engine
        // replaying the produced plan (same routing, same pricing).
        let fx = Fx::new(5);
        let ctx = fx.ctx(3);
        let mut rounds = Vec::new();
        for t in 0..20u64 {
            let node = [0usize, 2, 4, 2][(t % 4) as usize];
            rounds.push(RoundRequests::new(vec![n(node); 2]));
        }
        let trace = flexserve_workload::Trace::new(rounds);
        let res = optimal_plan(&ctx, &trace, &[n(2)]);
        let replay = run_plan(&ctx, &trace, &res.plan, vec![n(2)]);
        // OPT lower-bounds every plan the engine can play — including its
        // own active-set plan replayed under the engine's FIFO-cache
        // semantics (which can only be costlier than the DP's free-form
        // inactive management).
        assert!(
            res.cost <= replay.total().total() + 1e-9,
            "DP cost {} exceeds engine replay {}",
            res.cost,
            replay.total().total()
        );
    }

    #[test]
    fn uses_inactive_cache_when_demand_oscillates() {
        let fx = Fx::new(5);
        // cheap creation would make caching pointless; use expensive c and
        // moderate beta so keeping an inactive server at the far end pays.
        let params = CostParams::default()
            .with_max_servers(2)
            .with_costs(40.0, 4000.0)
            .with_running(2.5, 0.1);
        let ctx = SimContext::new(&fx.g, &fx.m, params, LoadModel::None);
        let mut rounds = Vec::new();
        for t in 0..40u64 {
            let node = if (t / 10) % 2 == 0 { 0 } else { 4 };
            rounds.push(RoundRequests::new(vec![n(node); 8]));
        }
        let trace = flexserve_workload::Trace::new(rounds);
        let res = optimal_plan(&ctx, &trace, &[n(0)]);
        // the optimal solution either runs two servers or parks one
        // inactive; either way it never pays full cross-line latency for
        // long.
        let naive_static = 8.0 * 4.0 * 20.0 + 2.5 * 40.0; // stay at 0
        assert!(res.cost < naive_static);
    }

    #[test]
    fn handles_state_spaces_beyond_the_old_cap() {
        // n=9, k=9 enumerates 19_171 configurations — far past the old
        // MAX_STATES=4000 (whose dense matrix would need 2.9 GB). A short
        // trace must run and produce a sane cost.
        let fx = Fx::new(9);
        let ctx = fx.ctx(9);
        let trace = flexserve_workload::Trace::new(vec![RoundRequests::new(vec![n(0), n(8)]); 3]);
        let res = optimal_plan(&ctx, &trace, &[n(4)]);
        assert_eq!(res.states, 19_171);
        assert!(res.cost.is_finite() && res.cost > 0.0);
    }

    #[test]
    #[should_panic(expected = "MAX_STATES")]
    fn refuses_big_instances() {
        let g = unit_line(12).unwrap();
        let m = DistanceMatrix::build(&g);
        let ctx = SimContext::new(
            &g,
            &m,
            CostParams::default().with_max_servers(12),
            LoadModel::None,
        );
        let trace = flexserve_workload::Trace::new(vec![RoundRequests::new(vec![n(0)])]);
        optimal_plan(&ctx, &trace, &[n(0)]);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn refuses_empty_trace() {
        let fx = Fx::new(3);
        let ctx = fx.ctx(1);
        optimal_plan(&ctx, &flexserve_workload::Trace::default(), &[n(0)]);
    }
}

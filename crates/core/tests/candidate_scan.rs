//! Property tests pinning the transposed candidate scan **bitwise** to the
//! naive per-candidate rescan.
//!
//! Invariants checked, at whatever `RAYON_NUM_THREADS` the harness sets
//! (CI runs the suite at 1 and 4):
//! * `WindowIndex::score_addition(v)` == `access_cost_window(A ∪ {v})`
//!   `to_bits`-equal on arbitrary random graphs, windows, active sets and
//!   load models — including failed links (`set_edge_latency(∞)`), where
//!   both sides must report the same `∞`;
//! * the rayon-parallel `score_all_additions` == the serial reference ==
//!   the naive rescan, bitwise;
//! * `best_new_server_position_scored` returns the exact `(v, cost)` of
//!   the retired per-candidate loop;
//! * the window-scoring plane (∞ for unreachable demand) stays distinct
//!   from the serving plane's `UNREACHABLE_PENALTY` clamp, and the scan
//!   follows the former;
//! * the bound-pruned `best_candidate_with` returns the exact target and
//!   score bits of the unpruned loop that scores every move
//!   ([`reference_best_candidate`]), on small random instances and at
//!   every epoch of ONTH's and ONBR's neighbourhoods on time-zones demand
//!   over an `er:200` substrate, where only a few migration candidates
//!   survive their floor.

use proptest::prelude::*;

use flexserve_core::{
    access_cost_window, best_candidate_with, best_new_server_position_scored, initial_center,
    CandidateOptions, CandidateScratch, EpochWindow, WindowIndex,
};
use flexserve_graph::gen::{erdos_renyi, GenConfig};
use flexserve_graph::{DistanceMatrix, Graph, NodeId};
use flexserve_sim::{
    CostParams, Fleet, InactiveServer, LoadModel, SimContext, TransitionPlanner,
    UNREACHABLE_PENALTY,
};
use flexserve_workload::{RoundRequests, Scenario, TimeZonesScenario};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Builds a random graph from proptest-chosen edges; roughly one edge in
/// seven (`fail == 0`) is set to infinite latency afterwards (the
/// fault-injection convention), which can disconnect the graph.
fn graph_from_edges(n: usize, edges: &[(usize, usize, f64, usize)]) -> Graph {
    graph_with_strengths(n, &[], edges)
}

/// [`graph_from_edges`] with node `i` of strength `strengths[i]` (1.0
/// past the end of `strengths`).
fn graph_with_strengths(
    n: usize,
    strengths: &[f64],
    edges: &[(usize, usize, f64, usize)],
) -> Graph {
    let mut g = Graph::new();
    for i in 0..n {
        g.add_node(strengths.get(i).copied().unwrap_or(1.0));
    }
    for &(a, b, lat, fail) in edges {
        let (a, b) = (a % n, b % n);
        if a == b {
            continue;
        }
        let (a, b) = (NodeId::new(a), NodeId::new(b));
        let _ = g.add_edge(a, b, lat, flexserve_graph::Bandwidth::T1);
        if fail == 0 {
            let _ = g.set_edge_latency(a, b, f64::INFINITY);
        }
    }
    g
}

fn load_model(pick: usize) -> LoadModel {
    match pick {
        0 => LoadModel::None,
        1 => LoadModel::Linear,
        2 => LoadModel::Quadratic,
        _ => LoadModel::Power(1.5),
    }
}

fn window_from(n: usize, rounds: &[Vec<(usize, usize)>]) -> EpochWindow {
    let mut w = EpochWindow::new();
    for round in rounds {
        let mut batch = RoundRequests::empty();
        for &(origin, cnt) in round {
            batch.push_many(NodeId::new(origin % n), cnt);
        }
        w.push(&batch);
    }
    w
}

/// Deduped active set (at least one server), in first-mention order like
/// a real fleet's.
fn active_from(n: usize, picks: &[usize]) -> Vec<NodeId> {
    let mut active: Vec<NodeId> = Vec::new();
    for &p in picks {
        let v = NodeId::new(p % n);
        if !active.contains(&v) {
            active.push(v);
        }
    }
    if active.is_empty() {
        active.push(NodeId::new(0));
    }
    active
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scan_matches_naive_rescan_bitwise(
        n in 3usize..16,
        edges in prop::collection::vec(
            (0usize..16, 0usize..16, 0.5f64..50.0, 0usize..7), 2..40),
        rounds in prop::collection::vec(
            prop::collection::vec((0usize..16, 1usize..6), 0..5), 1..4),
        picks in prop::collection::vec(0usize..16, 1..4),
        lm in 0usize..4,
    ) {
        let g = graph_from_edges(n, &edges);
        let m = DistanceMatrix::build(&g);
        let ctx = SimContext::new(&g, &m, CostParams::default(), load_model(lm));
        let active = active_from(n, &picks);
        let w = window_from(n, &rounds);

        let mut index = WindowIndex::new();
        index.rebuild(&ctx, &active, &w);
        let candidates: Vec<NodeId> =
            g.nodes().filter(|v| !active.contains(v)).collect();
        let mut scores = Vec::new();
        let mut serial = Vec::new();
        let mut counts = Vec::new();
        index.score_all_additions(&ctx, &candidates, &mut scores, &mut counts);
        index.score_all_additions_serial(&ctx, &candidates, &mut serial, &mut counts);

        let mut with_v = active.clone();
        with_v.push(NodeId::new(0)); // placeholder, replaced per candidate
        for (j, &v) in candidates.iter().enumerate() {
            *with_v.last_mut().unwrap() = v;
            let naive = access_cost_window(&ctx, &with_v, &w);
            let single = index.score_addition(&ctx, v, &mut counts);
            prop_assert_eq!(naive.to_bits(), single.to_bits(),
                "score_addition: v={:?} naive={} scan={}", v, naive, single);
            prop_assert_eq!(naive.to_bits(), scores[j].to_bits(),
                "score_all_additions: v={:?}", v);
            prop_assert_eq!(naive.to_bits(), serial[j].to_bits(),
                "score_all_additions_serial: v={:?}", v);
        }
    }

}

proptest! {
    // More cases than the scans above: the position scan is pruned, and a
    // pruned-away winner shows only where the bound is close to the best.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn scored_position_matches_naive_loop(
        n in 3usize..14,
        edges in prop::collection::vec(
            (0usize..14, 0usize..14, 0.5f64..50.0, 0usize..9), 2..30),
        rounds in prop::collection::vec(
            prop::collection::vec((0usize..14, 1usize..6), 0..5), 1..3),
        picks in prop::collection::vec(0usize..14, 1..3),
        lm in 0usize..4,
    ) {
        let g = graph_from_edges(n, &edges);
        let m = DistanceMatrix::build(&g);
        let params = CostParams::default().with_max_servers(n);
        let ctx = SimContext::new(&g, &m, params, load_model(lm));
        let active = active_from(n, &picks);
        let fleet = Fleet::new(active.clone(), &ctx.params);
        let w = window_from(n, &rounds);

        // The retired implementation, verbatim.
        let mut naive: Option<(NodeId, f64)> = None;
        let mut with_v = fleet.active().to_vec();
        with_v.push(NodeId::new(0));
        for v in g.nodes() {
            if fleet.is_active_at(v) {
                continue;
            }
            *with_v.last_mut().unwrap() = v;
            let cost = access_cost_window(&ctx, &with_v, &w);
            if naive.is_none_or(|(_, c)| cost < c) {
                naive = Some((v, cost));
            }
        }

        let mut scratch = CandidateScratch::new();
        let scored = best_new_server_position_scored(&ctx, &fleet, &w, &mut scratch);
        match (naive, scored) {
            (Some((nv, nc)), Some((sv, sc))) => {
                prop_assert_eq!(nv, sv);
                prop_assert_eq!(nc.to_bits(), sc.to_bits());
            }
            (a, b) => prop_assert!(a.is_none() && b.is_none()),
        }
    }
}

/// The unpruned candidate loop `best_candidate_with` ran before its
/// migrations were bound-pruned, kept here as the reference: every
/// `A − u + v` is scored exactly, in the same order and arithmetic.
/// `None` where no candidate scores below `∞` (the production function
/// keeps the current servers there, with score `∞`).
fn reference_best_candidate(
    ctx: &SimContext<'_>,
    fleet: &Fleet,
    window: &EpochWindow,
    options: CandidateOptions,
) -> Option<(Vec<NodeId>, f64)> {
    let a = fleet.active();
    let k = a.len();
    let wlen = window.len() as f64;
    let ra = ctx.params.run_active;
    let p = &ctx.params;

    // (origin, cnt, d1, s1, d2, s2) per (round, origin): the index rebuild.
    type Entry = (NodeId, usize, f64, usize, f64, usize);
    let rounds: Vec<Vec<Entry>> = window
        .rounds()
        .map(|round| {
            round
                .iter()
                .map(|&(origin, cnt)| {
                    let (mut d1, mut s1, mut d2, mut s2) =
                        (f64::INFINITY, 0usize, f64::INFINITY, 0usize);
                    for (i, &s) in a.iter().enumerate() {
                        let d = ctx.dist.get(origin, s);
                        if d < d1 {
                            d2 = d1;
                            s2 = s1;
                            d1 = d;
                            s1 = i;
                        } else if d < d2 {
                            d2 = d;
                            s2 = i;
                        }
                    }
                    (origin, cnt, d1, s1, d2, s2)
                })
                .collect()
        })
        .collect();

    let mut counts = vec![0usize; k + 1];
    let mut eval = |remove: usize, add: Option<NodeId>| -> f64 {
        let mut total = 0.0;
        let add_strength = add.map(|v| ctx.graph.strength(v)).unwrap_or(1.0);
        for round in &rounds {
            counts.iter_mut().for_each(|c| *c = 0);
            for &(origin, cnt, d1, s1, d2, s2) in round {
                let (dcur, scur) = if s1 == remove { (d2, s2) } else { (d1, s1) };
                let (d, slot) = match add {
                    Some(v) => {
                        let dv = ctx.dist.get(origin, v);
                        if dv < dcur {
                            (dv, k)
                        } else {
                            (dcur, scur)
                        }
                    }
                    None => (dcur, scur),
                };
                total += d * cnt as f64;
                counts[slot] += cnt;
            }
            for (i, &c) in counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let strength = if i == k {
                    add_strength
                } else {
                    ctx.graph.strength(a[i])
                };
                total += ctx.load.load(strength, c);
            }
        }
        total
    };

    let mut best: Option<(Vec<NodeId>, f64)> = None;
    let mut best_score = f64::INFINITY;
    let mut consider = |score: f64, target: Vec<NodeId>, best_score: &mut f64| {
        if score < *best_score {
            *best_score = score;
            best = Some((target, score));
        }
    };

    consider(
        eval(usize::MAX, None) + ra * k as f64 * wlen,
        a.to_vec(),
        &mut best_score,
    );
    if options.migrate {
        let mig_cost = if p.migration_useful() {
            p.migration_beta
        } else {
            p.creation_c
        };
        for v in ctx.graph.nodes().filter(|&v| !fleet.is_active_at(v)) {
            for u_idx in 0..k {
                let score = eval(u_idx, Some(v)) + ra * k as f64 * wlen + mig_cost;
                let mut target = a.to_vec();
                target[u_idx] = v;
                consider(score, target, &mut best_score);
            }
        }
    }
    if options.deactivate && k >= 2 {
        for u_idx in 0..k {
            let score = eval(u_idx, None) + ra * (k - 1) as f64 * wlen;
            let mut target = a.to_vec();
            target.remove(u_idx);
            consider(score, target, &mut best_score);
        }
    }
    if options.add && k < p.max_servers {
        for v in ctx.graph.nodes().filter(|&v| !fleet.is_active_at(v)) {
            let mut with_v = a.to_vec();
            with_v.push(v);
            let trans = if fleet.is_inactive_at(v) {
                0.0
            } else if p.migration_useful() && fleet.inactive_count() > 0 {
                p.migration_beta
            } else {
                p.creation_c
            };
            let score =
                access_cost_window(ctx, &with_v, window) + ra * (k + 1) as f64 * wlen + trans;
            consider(score, with_v, &mut best_score);
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pruned_migrations_match_the_unpruned_loop_bitwise(
        n in 3usize..18,
        strengths in prop::collection::vec(0.5f64..4.0, 0..18),
        edges in prop::collection::vec(
            (0usize..18, 0usize..18, 0.5f64..50.0, 0usize..7), 2..45),
        load_dominated in 0usize..2,
        rounds in prop::collection::vec(
            prop::collection::vec((0usize..18, 1usize..6), 0..6), 1..5),
        picks in prop::collection::vec(0usize..18, 1..5),
        cached in prop::collection::vec(0usize..18, 0..3),
        lm in 0usize..4,
        regime in 0usize..3,
        full_budget in 0usize..2,
        no_add in 0usize..2,
    ) {
        // Short links let the load terms, and so the load bound, decide.
        let edges: Vec<_> = if load_dominated == 1 {
            edges.iter().map(|&(a, b, lat, fail)| (a, b, lat / 100.0, fail)).collect()
        } else {
            edges
        };
        let g = graph_with_strengths(n, &strengths, &edges);
        let m = DistanceMatrix::build(&g);
        let active = active_from(n, &picks);
        // Default and flipped params, and cheap transitions that let
        // migrations win short windows.
        let base = match regime {
            0 => CostParams::default(),
            1 => CostParams::flipped(),
            _ => CostParams::default().with_costs(0.5, 2.0).with_running(0.1, 0.05),
        };
        // A full budget (`max_servers == k`) leaves no additions to score.
        let budget = if full_budget == 1 { active.len() } else { n };
        let ctx = SimContext::new(&g, &m, base.with_max_servers(budget), load_model(lm));
        // Inactive cached servers change the addition pricing; fall back to
        // no cache when the picks break the fleet's invariants.
        let inactive: Vec<InactiveServer> = cached
            .iter()
            .map(|&c| InactiveServer { node: NodeId::new(c % n), expires_epoch: 5 })
            .collect();
        let fleet = Fleet::from_parts(active.clone(), inactive, 0, &ctx.params)
            .unwrap_or_else(|_| Fleet::new(active.clone(), &ctx.params));
        let w = window_from(n, &rounds);
        let options = if no_add == 1 { CandidateOptions::no_add() } else { CandidateOptions::all() };

        // No finite candidate: the servers stay, at score ∞.
        let (target, score) = reference_best_candidate(&ctx, &fleet, &w, options)
            .unwrap_or_else(|| (fleet.active().to_vec(), f64::INFINITY));
        let mut scratch = CandidateScratch::new();
        let (got, got_score) = best_candidate_with(&ctx, &fleet, &w, options, &mut scratch);
        prop_assert_eq!(&got, &target);
        prop_assert_eq!(got_score.to_bits(), score.to_bits(),
            "pruned {} vs reference {}", got_score, score);
        let (evals, pairs) = scratch.migration_evals();
        prop_assert!(evals <= pairs);
    }
}

/// Plays 300 rounds of `time-zones:p=50,req=50` demand (T = 4,
/// λ = 10) on the `er:200` substrate of seed 1000, from its center, in
/// epochs that end once their access plus running cost reaches
/// `threshold`, as ONTH's small epochs and ONBR's epochs do. At every
/// epoch end, `best_candidate_with` must return the target and score bits
/// of [`reference_best_candidate`]; the fleet then moves there. Returns
/// `(epochs, migrations scored exactly, migrations considered)`.
fn play_er200_epochs(
    options: CandidateOptions,
    threshold: fn(&CostParams) -> f64,
) -> (u64, u64, u64) {
    let g = erdos_renyi(
        200,
        0.01,
        &GenConfig::default(),
        &mut SmallRng::seed_from_u64(1000),
    )
    .unwrap();
    let m = DistanceMatrix::build(&g);
    let ctx = SimContext::new(&g, &m, CostParams::default(), LoadModel::Linear);
    let threshold = threshold(&ctx.params);
    let mut demand = TimeZonesScenario::new(&g, 4, 10, 0.5, 50, 1000);
    let mut fleet = Fleet::new(initial_center(&ctx), &ctx.params);
    let mut scratch = CandidateScratch::new();
    let (mut window, mut cost, mut epochs) = (EpochWindow::new(), 0.0, 0);
    for t in 0..300 {
        let round = demand.requests(t);
        cost += ctx.access_cost(fleet.active(), &round)
            + ctx.running_cost(fleet.active_count(), fleet.inactive_count());
        window.push(&round);
        if cost < threshold {
            continue;
        }
        let (target, score) = reference_best_candidate(&ctx, &fleet, &window, options)
            .unwrap_or_else(|| (fleet.active().to_vec(), f64::INFINITY));
        let (got, got_score) = best_candidate_with(&ctx, &fleet, &window, options, &mut scratch);
        assert_eq!(got, target, "epoch {epochs} ending at round {t}");
        assert_eq!(
            got_score.to_bits(),
            score.to_bits(),
            "epoch {epochs} ending at round {t}"
        );
        TransitionPlanner::apply(&mut fleet, &got, &ctx.params);
        window.clear();
        cost = 0.0;
        epochs += 1;
    }
    let (evals, pairs) = scratch.migration_evals();
    (epochs, evals, pairs)
}

#[test]
fn er200_epochs_match_the_unpruned_loop_bitwise() {
    // ONTH's small epochs end at y·β (y = 2) and scan without additions;
    // ONBR's end at 2c and scan the whole neighbourhood.
    let onth: fn(&CostParams) -> f64 = |p| 2.0 * p.migration_beta;
    let onbr: fn(&CostParams) -> f64 = |p| 2.0 * p.creation_c;
    for (name, options, threshold) in [
        ("ONTH", CandidateOptions::no_add(), onth),
        ("ONBR", CandidateOptions::all(), onbr),
    ] {
        let (epochs, evals, pairs) = play_er200_epochs(options, threshold);
        assert!(epochs >= 10, "{name}: only {epochs} epochs");
        // The survivor path runs, and the floor prunes most moves.
        assert!(
            evals > 0 && 4 * evals < pairs,
            "{name}: {evals} of {pairs} migrations scored exactly"
        );
    }
}

/// The two planes treat unreachable demand differently by design: window
/// scoring (placement plane) propagates `∞`, the serving plane clamps each
/// unreachable request at [`UNREACHABLE_PENALTY`]. The scan must follow
/// the former bitwise while the latter stays finite.
#[test]
fn unreachable_demand_is_infinite_here_but_clamped_when_serving() {
    let mut g = Graph::new();
    for _ in 0..4 {
        g.add_node(1.0);
    }
    g.add_edge(
        NodeId::new(0),
        NodeId::new(1),
        1.0,
        flexserve_graph::Bandwidth::T1,
    )
    .unwrap();
    g.add_edge(
        NodeId::new(2),
        NodeId::new(3),
        1.0,
        flexserve_graph::Bandwidth::T1,
    )
    .unwrap();
    // Nodes {2,3} are a separate component from {0,1}.
    let m = DistanceMatrix::build(&g);
    let ctx = SimContext::new(&g, &m, CostParams::default(), LoadModel::Linear);

    let mut batch = RoundRequests::empty();
    batch.push_many(NodeId::new(1), 2);
    batch.push_many(NodeId::new(3), 5);
    let mut w = EpochWindow::new();
    w.push(&batch);

    let active = [NodeId::new(0)];
    let mut index = WindowIndex::new();
    index.rebuild(&ctx, &active, &w);
    let mut counts = Vec::new();
    let naive = access_cost_window(&ctx, &[NodeId::new(0), NodeId::new(1)], &w);
    let scanned = index.score_addition(&ctx, NodeId::new(1), &mut counts);
    assert!(naive.is_infinite(), "placement plane propagates ∞");
    assert_eq!(naive.to_bits(), scanned.to_bits());

    // The serving plane charges the same round a finite clamped penalty.
    let served = ctx.access_cost(&[NodeId::new(0), NodeId::new(1)], &batch);
    assert!(served.is_finite());
    assert!(served >= 5.0 * UNREACHABLE_PENALTY);
}

//! Shared epoch bookkeeping and fast candidate evaluation.
//!
//! ONBR, ONTH and their offline variants all score the same family of
//! *neighbor configurations* of the current active set `A`:
//!
//! 1. `A` itself (no change),
//! 2. `A − u + v` — migrate one server (`O(n·k)` candidates),
//! 3. `A − u` — deactivate one server (`O(k)` candidates),
//! 4. `A + v` — activate/create one server (`O(n)` candidates),
//!
//! each evaluated against the requests of an epoch. A naive evaluation
//! re-routes every request for every candidate; this module instead
//! precomputes, per distinct origin, the two nearest current servers
//! (`d1/s1`, `d2/s2`), after which any single-server change is scored in
//! `O(1)` per origin — exactly (including non-additive load models),
//! because per-round per-server request counts are re-derived per
//! candidate.
//!
//! Scores include access cost (delay + load), active running cost
//! (`Ra·|A'|` per round) and the transition cost of reaching the candidate
//! (per the planner's pricing rules). The `Ri` cost of cached servers is
//! identical across candidates up to one server and is deliberately left
//! out of the *comparison* (the engine charges it exactly).

use flexserve_graph::NodeId;
use flexserve_sim::{Fleet, SimContext};
use flexserve_workload::{JsonValue, RoundRequests};
use rayon::prelude::*;

/// The requests of an epoch, folded to per-round distinct-origin counts.
///
/// Rows cleared by [`EpochWindow::clear`] are parked in a spare pool and
/// reused by later pushes, so a strategy's steady state allocates nothing
/// per round: every epoch recycles the buffers of the previous one.
#[derive(Clone, Debug, Default)]
pub struct EpochWindow {
    rounds: Vec<Vec<(NodeId, usize)>>,
    /// Retired row buffers, kept for their capacity.
    spare: Vec<Vec<(NodeId, usize)>>,
}

impl EpochWindow {
    /// An empty window.
    pub fn new() -> Self {
        EpochWindow::default()
    }

    /// Appends one round of requests.
    pub fn push(&mut self, batch: &RoundRequests) {
        let mut counts = self.spare.pop().unwrap_or_default();
        batch.counts_into(&mut counts);
        self.rounds.push(counts);
    }

    /// Clears the window (start of a new epoch), recycling the row buffers.
    pub fn clear(&mut self) {
        self.spare.append(&mut self.rounds);
    }

    /// Number of rounds currently in the window.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether the window holds no rounds.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Iterates over the folded rounds.
    pub fn rounds(&self) -> impl Iterator<Item = &[(NodeId, usize)]> {
        self.rounds.iter().map(|r| r.as_slice())
    }

    /// Serializes the window for strategy checkpoints: a JSON array of
    /// rounds, each round an array of `[origin, count]` pairs. The spare
    /// pool is a pure allocation optimization and is deliberately not
    /// part of the state.
    pub fn export_json(&self) -> JsonValue {
        JsonValue::Arr(
            self.rounds
                .iter()
                .map(|row| {
                    JsonValue::Arr(
                        row.iter()
                            .map(|&(origin, cnt)| {
                                JsonValue::Arr(vec![
                                    JsonValue::from(origin.index()),
                                    JsonValue::from(cnt),
                                ])
                            })
                            .collect(),
                    )
                })
                .collect(),
        )
    }

    /// Restores a window from [`EpochWindow::export_json`] output. Rows
    /// are re-sorted by origin, so a restored window is byte-for-byte the
    /// window `push` would have built from the same rounds.
    pub fn import_json(value: &JsonValue) -> Result<Self, String> {
        let rows = value.as_array().ok_or("epoch window: expected an array")?;
        let mut rounds = Vec::with_capacity(rows.len());
        for row in rows {
            let pairs = row
                .as_array()
                .ok_or("epoch window: round must be an array")?;
            let mut counts = Vec::with_capacity(pairs.len());
            for pair in pairs {
                match pair.as_array() {
                    Some([origin, cnt]) => counts.push((
                        NodeId::new(origin.as_usize().ok_or("epoch window: bad origin id")?),
                        cnt.as_usize().ok_or("epoch window: bad count")?,
                    )),
                    _ => return Err("epoch window: entry must be [origin, count]".into()),
                }
            }
            counts.sort_unstable_by_key(|&(o, _)| o);
            rounds.push(counts);
        }
        Ok(EpochWindow {
            rounds,
            spare: Vec::new(),
        })
    }
}

/// Which neighbor families to consider.
#[derive(Clone, Copy, Debug)]
pub struct CandidateOptions {
    /// Allow `A − u + v` moves.
    pub migrate: bool,
    /// Allow `A − u` moves (never drops the last server).
    pub deactivate: bool,
    /// Allow `A + v` moves (bounded by the `k` budget).
    pub add: bool,
}

impl CandidateOptions {
    /// ONBR's full neighborhood.
    pub fn all() -> Self {
        CandidateOptions {
            migrate: true,
            deactivate: true,
            add: true,
        }
    }

    /// ONTH's small-epoch neighborhood (no additions — those are the large
    /// epoch's job).
    pub fn no_add() -> Self {
        CandidateOptions {
            migrate: true,
            deactivate: true,
            add: false,
        }
    }
}

/// Exact access cost of serving every round of `window` from `servers`
/// under nearest routing: `Σ_rounds (Σ delay + Σ load)`.
pub fn access_cost_window(ctx: &SimContext<'_>, servers: &[NodeId], window: &EpochWindow) -> f64 {
    if servers.is_empty() {
        return if window.rounds.iter().all(|r| r.is_empty()) {
            0.0
        } else {
            f64::INFINITY
        };
    }
    let mut total = 0.0;
    let mut counts = vec![0usize; servers.len()];
    for round in &window.rounds {
        counts.iter_mut().for_each(|c| *c = 0);
        for &(origin, cnt) in round {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (i, &s) in servers.iter().enumerate() {
                let d = ctx.dist.get(origin, s);
                if d < best_d {
                    best_d = d;
                    best = i;
                }
            }
            total += best_d * cnt as f64;
            counts[best] += cnt;
        }
        for (i, &s) in servers.iter().enumerate() {
            total += ctx.load.load(ctx.graph.strength(s), counts[i]);
        }
    }
    total
}

/// One row of the window scoring index: a `(round, origin)` pair with its
/// folded request count and the nearest server of the indexed active set
/// (first minimum — exactly the tie-breaking of `access_cost_window`'s
/// strict-`<` scan).
#[derive(Clone, Copy, Debug)]
struct IndexEntry {
    /// `NodeId::index()` of the origin.
    origin: u32,
    /// Index in the active set of the nearest server.
    s1: u32,
    /// Folded request count.
    cnt: usize,
    /// Distance to the nearest server (`∞` when unreachable over `A`).
    d1: f64,
}

/// Per-epoch-window scoring index against a fixed active set `A`.
///
/// Built once per scoring pass ([`WindowIndex::rebuild`], reusing its
/// buffers), the index flattens the window to one `(origin, cnt, d1, s1)`
/// entry per `(round, origin)` pair, where `d1`/`s1` are the nearest
/// current server under the exact strict-`<` scan of
/// [`access_cost_window`]. Every `A ∪ {v}` candidate is then scored in a
/// single *transposed* pass ([`WindowIndex::score_all_additions`]): per
/// index entry, the origin's [`DistanceMatrix`] row is walked
/// sequentially across the whole candidate block (one cache-friendly
/// stream instead of per-candidate rescans of the active set),
/// accumulating `Σ cnt · min(d1, d(origin, v))` plus the per-server load
/// terms — per candidate in the exact `(round, origin)` order the naive
/// rescan uses, so each score is **bit-identical** to
/// `access_cost_window` on `A ∪ {v}` (proptest-pinned, including `∞`
/// distances from failed links). Distances are read as `d(origin, v)`,
/// the naive scan's direction — this matters bitwise, because APSP rows
/// are independent per-source float sums and `d(v, origin)` can differ
/// in the last ulp. The candidate axis is rayon-parallel with a serial
/// reference; each candidate's arithmetic is independent of thread
/// count.
///
/// The index also carries the second-nearest server per entry, which is
/// what [`best_candidate`]'s migrate/deactivate scoring needs as the
/// removal fallback — kept out of the hot entry table so the addition
/// scan stays lean.
///
/// [`DistanceMatrix`]: flexserve_graph::DistanceMatrix
#[derive(Debug, Default)]
pub struct WindowIndex {
    /// Hot table of the transposed scan: one entry per `(round, origin)`.
    entries: Vec<IndexEntry>,
    /// Second-nearest `(d2, s2)` per entry, aligned with `entries`.
    seconds: Vec<(f64, u32)>,
    /// Round `r` covers `entries[bounds[r]..bounds[r + 1]]`.
    bounds: Vec<usize>,
    /// `strength(a_i)` per server of the indexed set.
    strengths: Vec<f64>,
}

impl WindowIndex {
    /// An empty index (buffers grow on first [`WindowIndex::rebuild`]).
    pub fn new() -> Self {
        WindowIndex::default()
    }

    /// Number of servers in the indexed active set.
    pub fn servers(&self) -> usize {
        self.strengths.len()
    }

    /// Number of indexed rounds.
    pub fn rounds(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// Rebuilds the index for `servers` over `window`, recycling every
    /// buffer — a strategy's steady state allocates nothing per epoch.
    pub fn rebuild(&mut self, ctx: &SimContext<'_>, servers: &[NodeId], window: &EpochWindow) {
        self.entries.clear();
        self.seconds.clear();
        self.bounds.clear();
        self.bounds.push(0);
        self.strengths.clear();
        self.strengths
            .extend(servers.iter().map(|&s| ctx.graph.strength(s)));
        for round in window.rounds() {
            for &(origin, cnt) in round {
                let (mut d1, mut s1, mut d2, mut s2) =
                    (f64::INFINITY, 0usize, f64::INFINITY, 0usize);
                for (i, &s) in servers.iter().enumerate() {
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
                self.entries.push(IndexEntry {
                    origin: origin.index() as u32,
                    s1: s1 as u32,
                    cnt,
                    d1,
                });
                self.seconds.push((d2, s2 as u32));
            }
            self.bounds.push(self.entries.len());
        }
    }

    /// Exact `access_cost_window(ctx, A ∪ {v}, window)` in one pass over
    /// the index. `counts` is the caller's reusable per-server counter
    /// (resized to `k + 1`; slot `k` is the added server).
    pub fn score_addition(&self, ctx: &SimContext<'_>, v: NodeId, counts: &mut Vec<usize>) -> f64 {
        let k = self.strengths.len();
        let v_strength = ctx.graph.strength(v);
        counts.clear();
        counts.resize(k + 1, 0);
        let mut total = 0.0;
        for r in 0..self.bounds.len() - 1 {
            counts.iter_mut().for_each(|c| *c = 0);
            for e in &self.entries[self.bounds[r]..self.bounds[r + 1]] {
                // d(origin, v): the naive scan's direction (bitwise, the
                // reverse lookup can differ in the last ulp).
                let dv = ctx.dist.get(NodeId::new(e.origin as usize), v);
                // v sits at index k of A ∪ {v}: it wins only on a
                // strictly smaller distance, matching the naive scan.
                let (d, slot) = if dv < e.d1 {
                    (dv, k)
                } else {
                    (e.d1, e.s1 as usize)
                };
                total += d * e.cnt as f64;
                counts[slot] += e.cnt;
            }
            for (i, &c) in counts.iter().enumerate() {
                let strength = if i == k {
                    v_strength
                } else {
                    self.strengths[i]
                };
                total += ctx.load.load(strength, c);
            }
        }
        total
    }

    /// Entry-outer scan of one candidate block: per `(round, origin)`
    /// entry, the origin's distance row is walked sequentially across the
    /// block, accumulating every candidate's score in the exact
    /// per-candidate order of [`WindowIndex::score_addition`] — the two
    /// compute the same sums bitwise, this one with cache-friendly row
    /// streams. `counts` holds `k + 1` slots per candidate.
    fn scan_chunk(
        &self,
        ctx: &SimContext<'_>,
        candidates: &[NodeId],
        out: &mut [f64],
        counts: &mut Vec<usize>,
    ) {
        let k = self.strengths.len();
        let stride = k + 1;
        counts.clear();
        counts.resize(candidates.len() * stride, 0);
        out.fill(0.0);
        for r in 0..self.bounds.len() - 1 {
            counts.iter_mut().for_each(|c| *c = 0);
            for e in &self.entries[self.bounds[r]..self.bounds[r + 1]] {
                let row = ctx.dist.row(NodeId::new(e.origin as usize));
                let cnt = e.cnt as f64;
                for ((slot, &v), c) in out
                    .iter_mut()
                    .zip(candidates)
                    .zip(counts.chunks_mut(stride))
                {
                    let dv = row[v.index()];
                    let (d, s) = if dv < e.d1 {
                        (dv, k)
                    } else {
                        (e.d1, e.s1 as usize)
                    };
                    *slot += d * cnt;
                    c[s] += e.cnt;
                }
            }
            for ((slot, &v), c) in out.iter_mut().zip(candidates).zip(counts.chunks(stride)) {
                for (i, &cc) in c.iter().enumerate() {
                    let strength = if i == k {
                        ctx.graph.strength(v)
                    } else {
                        self.strengths[i]
                    };
                    *slot += ctx.load.load(strength, cc);
                }
            }
        }
    }

    /// Scores every candidate of `candidates` as an `A ∪ {v}` addition in
    /// one transposed pass, rayon-parallel over the candidate axis.
    ///
    /// `scores[j]` is bit-identical to
    /// `access_cost_window(ctx, A ∪ {candidates[j]}, window)` regardless
    /// of `RAYON_NUM_THREADS` (each slot's arithmetic is independent of
    /// the partitioning). On one worker — or for tiny candidate sets —
    /// the scan runs inline on the calling thread with the caller's
    /// `counts` scratch, so the per-round stepping path allocates
    /// nothing in steady state. Otherwise each block is one task on the
    /// shared rayon pool; the calling thread works blocks too, and a scan
    /// inside a seed task is helped by whichever workers are idle.
    pub fn score_all_additions(
        &self,
        ctx: &SimContext<'_>,
        candidates: &[NodeId],
        scores: &mut Vec<f64>,
        counts: &mut Vec<usize>,
    ) {
        scores.clear();
        scores.resize(candidates.len(), 0.0);
        let block = scan_block(candidates.len());
        if block >= candidates.len() {
            self.scan_chunk(ctx, candidates, scores, counts);
            return;
        }
        scores
            .par_chunks_mut(block)
            .enumerate()
            .for_each(|(b, chunk)| {
                let mut counts = Vec::new();
                let lo = b * block;
                self.scan_chunk(ctx, &candidates[lo..lo + chunk.len()], chunk, &mut counts);
            });
    }

    /// Serial reference for [`WindowIndex::score_all_additions`] — the
    /// parallel path must match it bitwise (proptest-pinned).
    pub fn score_all_additions_serial(
        &self,
        ctx: &SimContext<'_>,
        candidates: &[NodeId],
        scores: &mut Vec<f64>,
        counts: &mut Vec<usize>,
    ) {
        scores.clear();
        scores.resize(candidates.len(), 0.0);
        for (slot, &v) in scores.iter_mut().zip(candidates) {
            *slot = self.score_addition(ctx, v, counts);
        }
    }
}

/// Candidate-block size for the parallel scan: tiny sets (and one-worker
/// runs) stay inline on the calling thread, where a pool hand-off would
/// cost more than the scan and the caller's scratch avoids allocating;
/// larger ones split evenly over the workers.
fn scan_block(n: usize) -> usize {
    if n <= 4 {
        n.max(1)
    } else {
        n.div_ceil(rayon::current_num_threads()).max(1)
    }
}

/// Reusable buffers for the candidate scan. Strategies own one and thread
/// it through [`best_candidate_with`] /
/// [`best_new_server_position_scored`], so the per-round stepping path
/// ([`SimSession`](flexserve_sim::SimSession), serve sessions) allocates
/// nothing in steady state. The buffers are pure caches: they carry no
/// strategy state, are not checkpointed, and `clone()` starts empty.
#[derive(Debug, Default)]
pub struct CandidateScratch {
    /// The window scoring index of the current pass.
    pub(crate) index: WindowIndex,
    /// Candidate node list of the current pass.
    pub(crate) candidates: Vec<NodeId>,
    /// Per-candidate scores, aligned with `candidates`.
    pub(crate) scores: Vec<f64>,
    /// Per-server request counter (`k + 1` slots).
    pub(crate) counts: Vec<usize>,
}

impl CandidateScratch {
    /// Empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        CandidateScratch::default()
    }
}

impl Clone for CandidateScratch {
    /// Clones start empty: the buffers are allocation caches, not state.
    fn clone(&self) -> Self {
        CandidateScratch::default()
    }
}

/// Analytic transition cost of a single-server change, mirroring the
/// planner's rules (validated against the planner in tests).
fn single_change_cost(ctx: &SimContext<'_>, fleet: &Fleet, kind: ChangeKind) -> f64 {
    let p = &ctx.params;
    match kind {
        ChangeKind::Migrate => {
            if p.migration_useful() {
                p.migration_beta
            } else {
                p.creation_c
            }
        }
        ChangeKind::Add(v) => {
            if fleet.is_inactive_at(v) {
                0.0
            } else if p.migration_useful() && fleet.inactive_count() > 0 {
                p.migration_beta
            } else {
                p.creation_c
            }
        }
    }
}

/// Stays and deactivations are free and need no pricing case.
#[derive(Clone, Copy)]
enum ChangeKind {
    Migrate,
    Add(NodeId),
}

/// The best neighbor configuration of `fleet.active()` w.r.t. `window`.
///
/// Returns `(target_active_set, score)` where the score is
/// `access(window) + Ra·|A'|·window_len + transition_cost`. The current
/// configuration is always a candidate, so callers can compare the winner
/// against "stay" by identity of the returned set.
pub fn best_candidate(
    ctx: &SimContext<'_>,
    fleet: &Fleet,
    window: &EpochWindow,
    options: CandidateOptions,
) -> (Vec<NodeId>, f64) {
    best_candidate_with(ctx, fleet, window, options, &mut CandidateScratch::new())
}

/// [`best_candidate`] with caller-owned scratch: strategies thread their
/// [`CandidateScratch`] through so repeated epoch scoring reuses the
/// window index and every buffer.
pub fn best_candidate_with(
    ctx: &SimContext<'_>,
    fleet: &Fleet,
    window: &EpochWindow,
    options: CandidateOptions,
    scratch: &mut CandidateScratch,
) -> (Vec<NodeId>, f64) {
    let a = fleet.active();
    let k = a.len();
    assert!(k > 0, "best_candidate: no active servers");
    let wlen = window.len() as f64;
    let ra = ctx.params.run_active;

    let CandidateScratch {
        index,
        candidates,
        scores,
        counts,
    } = scratch;

    // Precompute two nearest current servers per (round, origin).
    index.rebuild(ctx, a, window);

    // Scores a candidate: remove server index `remove` (usize::MAX = none)
    // and/or add node `add` (None = none). Exact nearest routing + load.
    // `counts` is scratch of size k+1 (slot k = the added server).
    counts.clear();
    counts.resize(k + 1, 0);
    let mut eval = |remove: usize, add: Option<NodeId>| -> f64 {
        let mut total = 0.0;
        let add_strength = add.map(|v| ctx.graph.strength(v)).unwrap_or(1.0);
        for r in 0..index.bounds.len() - 1 {
            counts.iter_mut().for_each(|c| *c = 0);
            for j in index.bounds[r]..index.bounds[r + 1] {
                let e = &index.entries[j];
                // nearest surviving current server
                let (dcur, scur) = if e.s1 as usize == remove {
                    let (d2, s2) = index.seconds[j];
                    (d2, s2 as usize)
                } else {
                    (e.d1, e.s1 as usize)
                };
                let (d, slot) = match add {
                    Some(v) => {
                        let dv = ctx.dist.get(NodeId::new(e.origin as usize), v);
                        if dv < dcur {
                            (dv, k)
                        } else {
                            (dcur, scur)
                        }
                    }
                    None => (dcur, scur),
                };
                total += d * e.cnt as f64;
                counts[slot] += e.cnt;
            }
            for (i, &c) in counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let strength = if i == k {
                    add_strength
                } else {
                    index.strengths[i]
                };
                total += ctx.load.load(strength, c);
            }
        }
        total
    };

    const NONE: usize = usize::MAX;
    let mut best_target: Option<Vec<NodeId>> = None;
    let mut best_score = f64::INFINITY;

    let consider = |score: f64,
                    best_score: &mut f64,
                    best_target: &mut Option<Vec<NodeId>>,
                    target: Vec<NodeId>| {
        if score < *best_score {
            *best_score = score;
            *best_target = Some(target);
        }
    };

    // 1. Stay.
    let stay_score = eval(NONE, None) + ra * k as f64 * wlen;
    consider(stay_score, &mut best_score, &mut best_target, a.to_vec());

    // 2. Migrate u -> v.
    if options.migrate && k >= 1 {
        let mig_cost = single_change_cost(ctx, fleet, ChangeKind::Migrate);
        for v in ctx.graph.nodes() {
            if fleet.is_active_at(v) {
                continue;
            }
            for u_idx in 0..k {
                let score = eval(u_idx, Some(v)) + ra * k as f64 * wlen + mig_cost;
                if score < best_score {
                    let mut target = a.to_vec();
                    target[u_idx] = v;
                    consider(score, &mut best_score, &mut best_target, target);
                }
            }
        }
    }

    // 3. Deactivate u (keep at least one server).
    if options.deactivate && k >= 2 {
        for u_idx in 0..k {
            let score = eval(u_idx, None) + ra * (k - 1) as f64 * wlen;
            if score < best_score {
                let mut target = a.to_vec();
                target.remove(u_idx);
                consider(score, &mut best_score, &mut best_target, target);
            }
        }
    }

    // 4. Add v (respect the k budget) — all additions in one transposed pass.
    if options.add && k < ctx.params.max_servers {
        candidates.clear();
        candidates.extend(ctx.graph.nodes().filter(|&v| !fleet.is_active_at(v)));
        index.score_all_additions(ctx, candidates, scores, counts);
        for (j, &v) in candidates.iter().enumerate() {
            let trans = single_change_cost(ctx, fleet, ChangeKind::Add(v));
            let score = scores[j] + ra * (k + 1) as f64 * wlen + trans;
            if score < best_score {
                let mut target = a.to_vec();
                target.push(v);
                consider(score, &mut best_score, &mut best_target, target);
            }
        }
    }

    (
        best_target.expect("at least the stay candidate exists"),
        best_score,
    )
}

/// The node `v ∉ A` minimizing the pure access cost of `window` served by
/// `A ∪ {v}` — ONTH's "optimal position with respect to the access cost of
/// the latest large epoch". Returns `None` when every node already hosts a
/// server.
pub fn best_new_server_position(
    ctx: &SimContext<'_>,
    fleet: &Fleet,
    window: &EpochWindow,
) -> Option<NodeId> {
    best_new_server_position_scored(ctx, fleet, window, &mut CandidateScratch::new())
        .map(|(v, _)| v)
}

/// [`best_new_server_position`] with caller-owned scratch, also returning
/// the winning access cost. One [`WindowIndex`] rebuild plus a single
/// transposed scan replaces the per-candidate `access_cost_window`
/// rescans (and their per-candidate `A ∪ {v}` allocation), so the
/// steady-state large-epoch trigger allocates nothing.
pub fn best_new_server_position_scored(
    ctx: &SimContext<'_>,
    fleet: &Fleet,
    window: &EpochWindow,
    scratch: &mut CandidateScratch,
) -> Option<(NodeId, f64)> {
    let a = fleet.active();
    let CandidateScratch {
        index,
        candidates,
        scores,
        counts,
    } = scratch;
    index.rebuild(ctx, a, window);
    candidates.clear();
    candidates.extend(ctx.graph.nodes().filter(|&v| !fleet.is_active_at(v)));
    index.score_all_additions(ctx, candidates, scores, counts);
    let mut best: Option<(NodeId, f64)> = None;
    for (j, &v) in candidates.iter().enumerate() {
        let cost = scores[j];
        if best.is_none_or(|(_, c)| cost < c) {
            best = Some((v, cost));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexserve_graph::gen::unit_line;
    use flexserve_graph::DistanceMatrix;
    use flexserve_sim::{CostParams, LoadModel, TransitionPlanner};

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn window_at(origins: &[(usize, usize)], rounds: usize) -> EpochWindow {
        let mut w = EpochWindow::new();
        for _ in 0..rounds {
            let mut batch = RoundRequests::empty();
            for &(o, cnt) in origins {
                batch.push_many(n(o), cnt);
            }
            w.push(&batch);
        }
        w
    }

    struct Fixture {
        g: flexserve_graph::Graph,
        m: DistanceMatrix,
    }

    impl Fixture {
        fn line(len: usize) -> Self {
            let g = unit_line(len).unwrap();
            let m = DistanceMatrix::build(&g);
            Fixture { g, m }
        }
        fn ctx(&self, load: LoadModel) -> SimContext<'_> {
            SimContext::new(&self.g, &self.m, CostParams::default(), load)
        }
    }

    #[test]
    fn window_folds_duplicates() {
        let w = window_at(&[(3, 5)], 2);
        assert_eq!(w.len(), 2);
        let first: Vec<_> = w.rounds().next().unwrap().to_vec();
        assert_eq!(first, vec![(n(3), 5)]);
    }

    #[test]
    fn window_rows_sorted_by_origin() {
        let mut batch = RoundRequests::empty();
        batch.push_many(n(9), 2);
        batch.push_many(n(1), 3);
        let mut w = EpochWindow::new();
        w.push(&batch);
        let row: Vec<_> = w.rounds().next().unwrap().to_vec();
        assert_eq!(row, vec![(n(1), 3), (n(9), 2)]);
    }

    #[test]
    fn clear_recycles_row_buffers() {
        let mut w = EpochWindow::new();
        let batch = RoundRequests::new(vec![n(0); 8]);
        for _ in 0..4 {
            w.push(&batch);
        }
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.spare.len(), 4, "cleared rows must be pooled");
        for _ in 0..4 {
            w.push(&batch);
        }
        assert_eq!(w.spare.len(), 0, "pushes must drain the pool");
        assert_eq!(w.len(), 4);
    }

    #[test]
    fn window_json_round_trips() {
        let mut w = EpochWindow::new();
        let mut batch = RoundRequests::empty();
        batch.push_many(n(9), 2);
        batch.push_many(n(1), 3);
        w.push(&batch);
        w.push(&RoundRequests::empty());
        let json = w.export_json();
        let back = EpochWindow::import_json(&json).unwrap();
        assert_eq!(back.len(), 2);
        let rows: Vec<Vec<(NodeId, usize)>> = back.rounds().map(|r| r.to_vec()).collect();
        let orig: Vec<Vec<(NodeId, usize)>> = w.rounds().map(|r| r.to_vec()).collect();
        assert_eq!(rows, orig);
        // malformed inputs are rejected
        assert!(EpochWindow::import_json(&JsonValue::Null).is_err());
        assert!(
            EpochWindow::import_json(&JsonValue::parse("[[[1]]]").unwrap()).is_err(),
            "pair arity must be checked"
        );
    }

    #[test]
    fn access_cost_window_matches_route() {
        let f = Fixture::line(10);
        let ctx = f.ctx(LoadModel::Linear);
        let servers = [n(1), n(8)];
        let mut batch = RoundRequests::empty();
        batch.push_many(n(0), 3);
        batch.push_many(n(9), 2);
        batch.push(n(4));
        let mut w = EpochWindow::new();
        w.push(&batch);
        w.push(&batch);
        let direct = ctx.access_cost(&servers, &batch) * 2.0;
        let windowed = access_cost_window(&ctx, &servers, &w);
        assert!((direct - windowed).abs() < 1e-9);
    }

    #[test]
    fn empty_servers_infinite_unless_empty_window() {
        let f = Fixture::line(4);
        let ctx = f.ctx(LoadModel::None);
        let w = window_at(&[(0, 1)], 1);
        assert!(access_cost_window(&ctx, &[], &w).is_infinite());
        let empty = EpochWindow::new();
        assert_eq!(access_cost_window(&ctx, &[], &empty), 0.0);
    }

    #[test]
    fn best_candidate_migrates_toward_demand() {
        let f = Fixture::line(20);
        let ctx = f.ctx(LoadModel::None);
        let fleet = Fleet::new(vec![n(0)], &ctx.params);
        // heavy demand at node 19 for many rounds: migration (β=40) pays off
        let w = window_at(&[(19, 10)], 5);
        let (target, _) = best_candidate(&ctx, &fleet, &w, CandidateOptions::all());
        assert_eq!(target, vec![n(19)]);
    }

    #[test]
    fn best_candidate_stays_for_trivial_demand() {
        let f = Fixture::line(20);
        let ctx = f.ctx(LoadModel::None);
        let fleet = Fleet::new(vec![n(10)], &ctx.params);
        let w = window_at(&[(10, 1)], 1);
        let (target, score) = best_candidate(&ctx, &fleet, &w, CandidateOptions::all());
        assert_eq!(target, vec![n(10)]);
        // score = access 0 + running 2.5
        assert!((score - 2.5).abs() < 1e-9);
    }

    #[test]
    fn best_candidate_adds_server_for_split_demand() {
        let f = Fixture::line(40);
        let ctx = f.ctx(LoadModel::None);
        let fleet = Fleet::new(vec![n(0)], &ctx.params);
        // two heavy clusters at the ends over many rounds: creating a second
        // server at 39 (cost 400) beats hauling 10 requests 39 hops for 10
        // rounds (3900).
        let w = window_at(&[(0, 10), (39, 10)], 10);
        let (target, _) = best_candidate(&ctx, &fleet, &w, CandidateOptions::all());
        assert_eq!(target, vec![n(0), n(39)]);
    }

    #[test]
    fn no_add_options_respected() {
        let f = Fixture::line(40);
        let ctx = f.ctx(LoadModel::None);
        let fleet = Fleet::new(vec![n(0)], &ctx.params);
        let w = window_at(&[(0, 10), (39, 10)], 10);
        let (target, _) = best_candidate(&ctx, &fleet, &w, CandidateOptions::no_add());
        assert_eq!(target.len(), 1, "no_add must not grow the fleet");
    }

    #[test]
    fn deactivate_wins_when_demand_collapses() {
        let f = Fixture::line(10);
        let ctx = f.ctx(LoadModel::None);
        let fleet = Fleet::new(vec![n(0), n(9)], &ctx.params);
        // all demand at node 0: the second server only costs Ra
        let w = window_at(&[(0, 3)], 4);
        let (target, _) = best_candidate(&ctx, &fleet, &w, CandidateOptions::all());
        assert_eq!(target, vec![n(0)]);
    }

    #[test]
    fn never_drops_last_server() {
        let f = Fixture::line(5);
        let ctx = f.ctx(LoadModel::None);
        let fleet = Fleet::new(vec![n(2)], &ctx.params);
        let w = window_at(&[], 3); // empty demand
        let (target, _) = best_candidate(&ctx, &fleet, &w, CandidateOptions::all());
        assert_eq!(target.len(), 1);
    }

    #[test]
    fn respects_k_budget() {
        let f = Fixture::line(30);
        let params = CostParams {
            max_servers: 1,
            ..CostParams::default()
        };
        let ctx = SimContext::new(&f.g, &f.m, params, LoadModel::None);
        let fleet = Fleet::new(vec![n(0)], &ctx.params);
        let w = window_at(&[(0, 10), (29, 10)], 10);
        let (target, _) = best_candidate(&ctx, &fleet, &w, CandidateOptions::all());
        assert!(target.len() <= 1);
    }

    #[test]
    fn analytic_transition_cost_matches_planner() {
        let f = Fixture::line(12);
        for params in [CostParams::default(), CostParams::flipped()] {
            let ctx = SimContext::new(&f.g, &f.m, params, LoadModel::None);
            // fleet with one cached inactive server at node 5
            let mut fleet = Fleet::new(vec![n(0), n(5)], &ctx.params);
            TransitionPlanner::apply(&mut fleet, &[n(0)], &ctx.params);
            assert!(fleet.is_inactive_at(n(5)));

            // Add at the cached node: free
            let analytic = single_change_cost(&ctx, &fleet, ChangeKind::Add(n(5)));
            let planner = TransitionPlanner::price(&fleet, &[n(0), n(5)], &ctx.params);
            assert_eq!(analytic, planner);

            // Add elsewhere: migrate cache (β) or create (c)
            let analytic = single_change_cost(&ctx, &fleet, ChangeKind::Add(n(9)));
            let planner = TransitionPlanner::price(&fleet, &[n(0), n(9)], &ctx.params);
            assert_eq!(analytic, planner);

            // Migrate the active server
            let analytic = single_change_cost(&ctx, &fleet, ChangeKind::Migrate);
            // price from a fleet with no cache: build fresh
            let fresh = Fleet::new(vec![n(0)], &ctx.params);
            let planner = TransitionPlanner::price(&fresh, &[n(9)], &ctx.params);
            assert_eq!(analytic, planner);
        }
    }

    #[test]
    fn quadratic_load_prefers_spreading() {
        let f = Fixture::line(3);
        let ctx = f.ctx(LoadModel::Quadratic);
        let fleet = Fleet::new(vec![n(1)], &ctx.params);
        // 30 requests at the server node each round: quadratic load 900/round.
        // Adding a server at node 0 or 2 halves nothing under nearest
        // routing (all requests at node 1 stay there) — but demand at two
        // origins spreads.
        let w = window_at(&[(0, 15), (2, 15)], 4);
        let (target, _) = best_candidate(&ctx, &fleet, &w, CandidateOptions::all());
        assert_eq!(target.len(), 2, "quadratic load should add a server");
    }

    #[test]
    fn best_new_server_position_picks_demand_hotspot() {
        let f = Fixture::line(30);
        let ctx = f.ctx(LoadModel::None);
        let fleet = Fleet::new(vec![n(0)], &ctx.params);
        let w = window_at(&[(0, 5), (25, 9)], 3);
        let v = best_new_server_position(&ctx, &fleet, &w).unwrap();
        assert_eq!(v, n(25));
    }

    #[test]
    fn best_new_server_position_none_when_full() {
        let f = Fixture::line(2);
        let ctx = f.ctx(LoadModel::None);
        let fleet = Fleet::new(vec![n(0), n(1)], &ctx.params);
        let w = window_at(&[(0, 1)], 1);
        assert_eq!(best_new_server_position(&ctx, &fleet, &w), None);
    }

    #[test]
    fn transposed_scan_matches_naive_rescan_bitwise() {
        let f = Fixture::line(25);
        for load in [LoadModel::None, LoadModel::Linear, LoadModel::Quadratic] {
            let ctx = f.ctx(load);
            let a = [n(2), n(17)];
            let w = window_at(&[(0, 3), (5, 1), (17, 4), (24, 2)], 3);
            let mut index = WindowIndex::new();
            index.rebuild(&ctx, &a, &w);
            let mut counts = Vec::new();
            let candidates: Vec<NodeId> = ctx.graph.nodes().filter(|v| !a.contains(v)).collect();
            let mut scores = Vec::new();
            index.score_all_additions(&ctx, &candidates, &mut scores, &mut counts);
            let mut serial = Vec::new();
            index.score_all_additions_serial(&ctx, &candidates, &mut serial, &mut counts);
            for (j, &v) in candidates.iter().enumerate() {
                let naive = access_cost_window(&ctx, &[a[0], a[1], v], &w);
                let scanned = index.score_addition(&ctx, v, &mut counts);
                assert_eq!(naive.to_bits(), scanned.to_bits(), "v={v:?} load={load:?}");
                assert_eq!(naive.to_bits(), scores[j].to_bits());
                assert_eq!(naive.to_bits(), serial[j].to_bits());
            }
        }
    }

    #[test]
    fn scan_handles_unreachable_origins_bitwise() {
        // Node 2 is an isolated component: every distance to it is ∞, so the
        // naive rescan and the transposed scan must both report ∞ access cost
        // for windows that contain its demand.
        let mut g = flexserve_graph::Graph::new();
        for _ in 0..3 {
            g.add_node(1.0);
        }
        g.add_edge(n(0), n(1), 1.0, flexserve_graph::Bandwidth::T1)
            .unwrap();
        let m = DistanceMatrix::build(&g);
        let ctx = SimContext::new(&g, &m, CostParams::default(), LoadModel::Linear);
        let w = window_at(&[(1, 2), (2, 5)], 2);
        let mut index = WindowIndex::new();
        index.rebuild(&ctx, &[n(0)], &w);
        let mut counts = Vec::new();
        let naive = access_cost_window(&ctx, &[n(0), n(1)], &w);
        let scanned = index.score_addition(&ctx, n(1), &mut counts);
        assert!(naive.is_infinite());
        assert_eq!(naive.to_bits(), scanned.to_bits());
    }

    #[test]
    fn scored_position_matches_retired_per_candidate_rescan() {
        // Micro-assert for the allocation fix: the transposed
        // `best_new_server_position_scored` returns the exact `(v, cost)`
        // the retired per-candidate `access_cost_window(A ∪ {v})` loop did.
        let f = Fixture::line(30);
        for load in [LoadModel::None, LoadModel::Quadratic] {
            let ctx = f.ctx(load);
            let fleet = Fleet::new(vec![n(0), n(12)], &ctx.params);
            let w = window_at(&[(0, 5), (7, 2), (25, 9)], 3);
            let mut naive: Option<(NodeId, f64)> = None;
            let mut with_v: Vec<NodeId> = fleet.active().to_vec();
            with_v.push(n(0)); // placeholder, replaced per candidate
            for v in ctx.graph.nodes() {
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
            let (nv, nc) = naive.unwrap();
            let (sv, sc) = scored.unwrap();
            assert_eq!(nv, sv);
            assert_eq!(nc.to_bits(), sc.to_bits());
        }
    }

    #[test]
    fn best_candidate_with_reuses_scratch_across_epochs() {
        let f = Fixture::line(40);
        let ctx = f.ctx(LoadModel::Linear);
        let fleet = Fleet::new(vec![n(0)], &ctx.params);
        let mut scratch = CandidateScratch::new();
        for rounds in [1usize, 5, 10] {
            let w = window_at(&[(0, 10), (39, 10)], rounds);
            let fresh = best_candidate(&ctx, &fleet, &w, CandidateOptions::all());
            let reused =
                best_candidate_with(&ctx, &fleet, &w, CandidateOptions::all(), &mut scratch);
            assert_eq!(fresh.0, reused.0);
            assert_eq!(fresh.1.to_bits(), reused.1.to_bits());
        }
        // The scratch is a cache, not state: clones start empty.
        assert!(scratch.clone().index.rounds() == 0);
    }
}

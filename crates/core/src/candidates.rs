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
//! candidate. The additions and the migrations (the one family of size
//! `n·k`) are first ruled out by a lower bound from one row-streaming
//! pass where it can, and only the rest are scored exactly (see
//! [`best_candidate_with`] and [`best_new_server_position_scored`]).
//!
//! Scores include access cost (delay + load), active running cost
//! (`Ra·|A'|` per round) and the transition cost of reaching the candidate
//! (per the planner's pricing rules). The `Ri` cost of cached servers is
//! identical across candidates up to one server and is deliberately left
//! out of the *comparison* (the engine charges it exactly).

use flexserve_graph::NodeId;
use flexserve_sim::{Fleet, LoadModel, SimContext};
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

    /// The first origin, in window order, that is not a node of a
    /// `node_count`-node substrate — what a resume must refuse before the
    /// first epoch scan indexes the distance matrix with it.
    pub fn origin_outside(&self, node_count: usize) -> Option<NodeId> {
        self.rounds
            .iter()
            .flatten()
            .map(|&(origin, _)| origin)
            .find(|origin| origin.index() >= node_count)
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
    /// are re-sorted by origin and zero counts dropped, so a restored
    /// window is byte-for-byte the window `push` would have built from
    /// the same rounds.
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
                    Some([origin, cnt]) => {
                        let raw = origin.as_usize().ok_or("epoch window: bad origin id")?;
                        let origin = NodeId::try_new(raw)
                            .ok_or_else(|| format!("epoch window: origin {raw} is out of range"))?;
                        let cnt = cnt.as_usize().ok_or("epoch window: bad count")?;
                        if cnt > 0 {
                            counts.push((origin, cnt));
                        }
                    }
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

/// One bound row of the window scoring index: a distinct origin of the
/// window with its request count summed over every round. With `A` fixed,
/// `d1/s1/d2` depend on the origin alone, so the bound pass streams each
/// origin's distance row once, however many rounds it appears in.
#[derive(Clone, Copy, Debug)]
struct OriginRow {
    /// `NodeId::index()` of the origin.
    origin: u32,
    /// Index in the active set of the nearest server.
    s1: u32,
    /// Σ `cnt` over the origin's entries.
    cnt: usize,
    /// Distance to the nearest server.
    d1: f64,
    /// Distance to the second-nearest server (`∞` when `|A| = 1`).
    d2: f64,
    /// Index in the active set of the second-nearest server.
    s2: u32,
}

/// Per-epoch-window scoring index against a fixed active set `A`.
///
/// Built once per scoring pass ([`WindowIndex::rebuild`], reusing its
/// buffers), the index flattens the window to one `(origin, cnt, d1, s1)`
/// entry per `(round, origin)` pair, where `d1`/`s1` are the nearest
/// current server under the exact strict-`<` scan of
/// [`access_cost_window`], and to one `(origin, s1, Σcnt, d1, d2)` bound
/// row per distinct origin. Every `A ∪ {v}` candidate is then scored in a
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
    /// One bound row per distinct origin, in first-seen window order.
    origins: Vec<OriginRow>,
    /// `origins` row of each node (`u32::MAX` = not in the window).
    row_of: Vec<u32>,
    /// Round `r` covers `entries[bounds[r]..bounds[r + 1]]`.
    bounds: Vec<usize>,
    /// `strength(a_i)` per server of the indexed set.
    strengths: Vec<f64>,
    /// Σ `cnt` over every entry: the window's request count.
    requests: usize,
    /// `Σ_r R_r²` over the rounds' request counts `R_r`, saturating (a
    /// saturated sum is still a lower bound).
    squared_requests: usize,
    /// The largest of `strengths` (0 for an empty set).
    max_strength: f64,
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
    /// The nearest two servers are found once per distinct origin and
    /// copied into each of its entries.
    pub fn rebuild(&mut self, ctx: &SimContext<'_>, servers: &[NodeId], window: &EpochWindow) {
        self.entries.clear();
        self.seconds.clear();
        self.origins.clear();
        self.row_of.clear();
        self.row_of.resize(ctx.graph.node_count(), u32::MAX);
        self.bounds.clear();
        self.bounds.push(0);
        self.strengths.clear();
        self.strengths
            .extend(servers.iter().map(|&s| ctx.graph.strength(s)));
        self.squared_requests = 0;
        for round in window.rounds() {
            let mut round_requests = 0usize;
            for &(origin, cnt) in round {
                round_requests += cnt;
                let r = match self.row_of[origin.index()] {
                    u32::MAX => {
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
                        self.row_of[origin.index()] = self.origins.len() as u32;
                        self.origins.push(OriginRow {
                            origin: origin.index() as u32,
                            s1: s1 as u32,
                            cnt: 0,
                            d1,
                            d2,
                            s2: s2 as u32,
                        });
                        self.origins.len() - 1
                    }
                    r => r as usize,
                };
                let row = &mut self.origins[r];
                row.cnt += cnt;
                self.entries.push(IndexEntry {
                    origin: row.origin,
                    s1: row.s1,
                    cnt,
                    d1: row.d1,
                });
                self.seconds.push((row.d2, row.s2));
            }
            self.squared_requests = self
                .squared_requests
                .saturating_add(round_requests.saturating_mul(round_requests));
            self.bounds.push(self.entries.len());
        }
        self.requests = self.entries.iter().map(|e| e.cnt).sum();
        self.max_strength = self.strengths.iter().fold(0.0, |m, &s| m.max(s));
    }

    /// A lower bound on the load that every candidate set of `servers`
    /// servers, drawn from `A ∪ {v}`, pays over the window. Every strength
    /// is at most `ω_max = max(max strength of A, strength(v))`, and round
    /// `r`'s `R_r` requests split as `η_1 + … + η_k′ = R_r` over the
    /// `k′ = servers` servers:
    ///
    /// * linear: the round pays `Σ η_i/ω_i ≥ R_r/ω_max`, so the window
    ///   pays at least `requests / ω_max`;
    /// * quadratic: the round pays `Σ η_i²/ω_i ≥ Σ η_i²/ω_max ≥
    ///   R_r²/(k′·ω_max)` by Cauchy–Schwarz, so the window pays at least
    ///   `Σ_r R_r² / (k′·ω_max)`;
    /// * `Power(p)` gets 0: its bound `R_r^p / (k′^(p−1)·ω_max)` goes
    ///   through `powf`, whose rounding needs an argument of its own
    ///   before [`WindowIndex::prune_slack`] could cover it. `None` has
    ///   no load.
    ///
    /// `omega` is `ω_max`; [`LoadFloors`] picks it per candidate.
    fn load_floor(&self, ctx: &SimContext<'_>, omega: f64, servers: usize) -> f64 {
        match ctx.load {
            LoadModel::Linear => self.requests as f64 / omega,
            LoadModel::Quadratic => self.squared_requests as f64 / (servers as f64 * omega),
            _ => 0.0,
        }
    }

    /// The load floors of one scan's candidate sets of `servers` servers.
    fn load_floors(&self, ctx: &SimContext<'_>, servers: usize) -> LoadFloors<'_> {
        LoadFloors {
            index: self,
            servers,
            common: self.load_floor(ctx, self.max_strength, servers),
            stronger: ctx.graph.max_strength() > self.max_strength,
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

    /// Exact access cost of `A` with server index `remove` taken out
    /// (`usize::MAX` = none) and node `add` put in (`None` = none), under
    /// nearest routing plus load. An added server sits in slot `k` and
    /// wins only on a strictly smaller distance. `counts` is resized to
    /// `k + 1` slots.
    fn score_change(
        &self,
        ctx: &SimContext<'_>,
        remove: usize,
        add: Option<NodeId>,
        counts: &mut Vec<usize>,
    ) -> f64 {
        let k = self.strengths.len();
        counts.clear();
        counts.resize(k + 1, 0);
        let mut total = 0.0;
        let add_strength = add.map(|v| ctx.graph.strength(v)).unwrap_or(1.0);
        for r in 0..self.bounds.len() - 1 {
            counts.iter_mut().for_each(|c| *c = 0);
            for j in self.bounds[r]..self.bounds[r + 1] {
                let e = &self.entries[j];
                // nearest surviving current server
                let (dcur, scur) = if e.s1 as usize == remove {
                    let (d2, s2) = self.seconds[j];
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
                    self.strengths[i]
                };
                total += ctx.load.load(strength, c);
            }
        }
        total
    }

    /// `floor[v] = Σ_o C_o·min(d(o,v), d1_o)` for every node `v`, with
    /// `C_o` origin `o`'s request count over the whole window: the real
    /// value of `A + v`'s exact delay, and a floor under every
    /// `A − u + v`'s (`d2 ≥ d1`). Each distinct origin's distance row is
    /// streamed once, zipped whole against the one node-indexed row, so
    /// the loop is contiguous and compiles to packed `min`/`mul`/`add` at
    /// the baseline target.
    fn floor_row(&self, ctx: &SimContext<'_>, floor: &mut Vec<f64>) {
        floor.clear();
        floor.resize(ctx.graph.node_count(), 0.0);
        for o in &self.origins {
            let row = ctx.dist.row(NodeId::new(o.origin as usize));
            let (cnt, d1) = (o.cnt as f64, o.d1);
            for (floor, &dv) in floor.iter_mut().zip(row) {
                *floor += cnt * if dv < d1 { dv } else { d1 };
            }
        }
    }

    /// The delay parts of the `A − u + v` bounds of the migration
    /// candidates `survivors`, as `out[u·m + j]` for server slot `u` and
    /// `v = survivors[j]` (`m` survivors), computed in `sums`. Per slot
    /// `i`, two rows over the survivors sum what the origins nearest to
    /// `a_i` pay:
    ///
    /// * `keep[i] = Σ_{o: s1=i} C_o·min(d(o,v), d1_o)` while `a_i` stays;
    /// * `moved[i] = Σ_{o: s1=i} C_o·min(d(o,v), d2_o)` once `a_i` is
    ///   migrated to `v`,
    ///
    /// each origin's distance row streamed over the survivor list into its
    /// slot's rows, in origin order. The delay of `A − u + v` is then
    /// `Σ_{i≠u} keep[i] + moved[u]`, formed row by row as a running prefix
    /// plus a suffix sum: added, never subtracted, so no cancellation
    /// enters the bound.
    fn survivor_bounds<'s>(
        &self,
        ctx: &SimContext<'_>,
        survivors: &[NodeId],
        sums: &'s mut Vec<f64>,
    ) -> &'s [f64] {
        let (k, m) = (self.strengths.len(), survivors.len());
        sums.clear();
        sums.resize((3 * k + 1) * m, 0.0);
        let (keep, rest) = sums.split_at_mut(k * m);
        let (moved, rest) = rest.split_at_mut(k * m);
        let (suffix, prefix) = rest.split_at_mut(k * m);
        for o in &self.origins {
            let row = ctx.dist.row(NodeId::new(o.origin as usize));
            let (cnt, d1, d2) = (o.cnt as f64, o.d1, o.d2);
            let slot = o.s1 as usize * m..(o.s1 as usize + 1) * m;
            for ((kept, gone), &v) in keep[slot.clone()]
                .iter_mut()
                .zip(&mut moved[slot])
                .zip(survivors)
            {
                let dv = row[v.index()];
                *kept += cnt * if dv < d1 { dv } else { d1 };
                *gone += cnt * if dv < d2 { dv } else { d2 };
            }
        }
        // suffix[u] = Σ_{i>u} keep[i], right to left (suffix[k − 1] = 0).
        for u in (1..k).rev() {
            let (lo, hi) = suffix.split_at_mut(u * m);
            for ((s, &next), &kept) in lo[(u - 1) * m..]
                .iter_mut()
                .zip(&hi[..m])
                .zip(&keep[u * m..(u + 1) * m])
            {
                *s = kept + next;
            }
        }
        // moved[u] += Σ_{i<u} keep[i] + suffix[u].
        for u in 0..k {
            let slot = u * m..(u + 1) * m;
            for (((gone, &s), &kept), pre) in moved[slot.clone()]
                .iter_mut()
                .zip(&suffix[slot.clone()])
                .zip(&keep[slot])
                .zip(prefix.iter_mut())
            {
                *gone += *pre + s;
                *pre += kept;
            }
        }
        moved
    }

    /// Relative slack `ε` of the addition and migration prune tests, or
    /// `None` when the window has too many terms to prune safely.
    ///
    /// An exact migration or addition score `S` sums, in window order,
    /// one `cnt·d` per `(round, origin)` entry, the load terms,
    /// `Ra·k·|W|` or `Ra·(k+1)·|W|` and the transition cost. Its bound
    /// `LB` sums one `C_o·min(…)` per distinct origin (`C_o` an integer,
    /// so exact in `f64`), then a load floor and the same price terms.
    /// An addition's bound and the per-`v` migration floor sum the
    /// origins in origin order into `floor[v]`
    /// ([`WindowIndex::floor_row`]); a migration's bound sums them into
    /// their slots, then the `k` slots
    /// ([`WindowIndex::survivor_bounds`]). Every summand of `S` is
    /// non-negative and carries at most two roundings of its own; the
    /// sums add at most
    /// `m − 2` more along any summand's path, where
    /// `m = E + R·(k+1) + k + 8` over `E` entries, `R` rounds and `k`
    /// servers. `LB`'s summands carry at most two roundings of their own
    /// too, except the quadratic load floor `fl(Q) / fl(k′·ω_max)`
    /// ([`WindowIndex::load_floor`], `Q = Σ_r R_r²` summed exactly in
    /// integers), which carries four: one to convert `Q`, one for the
    /// product, and a division by a denominator rounded down by up to
    /// `(1−u)`, worth two since `1/(1−u) ≤ (1+u)²`. `LB`'s paths are
    /// short enough for that: at most `E` origin rows, at most `k` slot
    /// additions (none in `floor[v]`) and three price additions, so no
    /// summand of `LB` sees more than `E + k + 7 < m` roundings. With
    /// unit roundoff `u`, and no overflow or subnormal terms:
    ///
    /// * `fl(S) ≥ (1−u)^m · S`, `fl(LB) ≤ (1+u)^m · LB` and `LB ≤ S` as
    ///   real numbers (the per-origin products equal the per-entry sums
    ///   they replace, and the load terms `LB` leaves out only raise
    ///   `S`), so `fl(S) ≥ ((1−u)/(1+u))^m · fl(LB) ≥ (1 − 2mu) · fl(LB)`;
    /// * with `ε = 2m·2u`, the computed `fl(fl(LB)·fl(1−ε))` is at most
    ///   `fl(LB)·(1−ε)(1+u)² < (1 − 2mu) · fl(LB) ≤ fl(S)`.
    ///
    /// So `fl(LB)·(1−ε) > best` implies `fl(S) > best`. The same holds
    /// for the per-`v` migration floor `floor[v] + …`, whose real value
    /// is at most every `LB(u, v)`, and for an addition's bound, whose
    /// delay part `floor[v]` has the real value of its exact delay.
    /// Past `ε = 1e-6` (`m` in the billions) the test would prune little,
    /// and every candidate is scored exactly.
    fn prune_slack(&self) -> Option<f64> {
        let k = self.strengths.len();
        let terms = self.entries.len() + self.rounds() * (k + 1) + k + 8;
        let eps = 2.0 * terms as f64 * f64::EPSILON;
        (eps <= 1e-6).then_some(eps)
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

/// [`WindowIndex::load_floor`] of each candidate `v` for one scan's sets
/// of `servers` servers. For every `v` no stronger than A's strongest
/// server, `ω_max` is A's, so the floor is one constant, computed once;
/// only a stronger `v` pays its own division. Either way the bits are
/// those of `load_floor` at `max(ω_max(A), strength(v))`. When no node of
/// the substrate is stronger than A's strongest, no candidate's strength
/// is even read. The generated substrates have uniform strengths; the
/// AS-7018-like one of Table 1 does not (backbone 4, access 1), but its
/// runs start at the network centre, a backbone node, and in a standard
/// `run all` every scan's A held a backbone node: none of the 94,620
/// scans, Table 1's 738 included, found a stronger node.
struct LoadFloors<'a> {
    index: &'a WindowIndex,
    servers: usize,
    /// The floor at A's strongest server.
    common: f64,
    /// Whether some node is stronger than A's strongest server.
    stronger: bool,
}

impl LoadFloors<'_> {
    fn of(&self, ctx: &SimContext<'_>, v: NodeId) -> f64 {
        if self.stronger {
            self.of_node(ctx, v)
        } else {
            self.common
        }
    }

    /// [`LoadFloors::of`] where some node is stronger than A's strongest
    /// server. Kept out of line: inlined, it makes the bound loops about
    /// a third slower in the scans that never call it.
    #[cold]
    fn of_node(&self, ctx: &SimContext<'_>, v: NodeId) -> f64 {
        let strength = ctx.graph.strength(v);
        if strength > self.index.max_strength {
            self.index.load_floor(ctx, strength, self.servers)
        } else {
            self.common
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
/// ([`EventedSession`](flexserve_sim::EventedSession), serve sessions) allocates
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
    /// Deactivation scores, one per server.
    pub(crate) removals: Vec<f64>,
    /// The delay part of `A + v`'s bound and of the floor under every
    /// `A − u + v`, per node (see [`WindowIndex::floor_row`]).
    pub(crate) floor: Vec<f64>,
    /// The nodes of the fleet's cached (inactive) servers.
    pub(crate) cached: Vec<NodeId>,
    /// The migration candidates `v` that survive their floor.
    pub(crate) survivors: Vec<NodeId>,
    /// The survivors' slot sums and `A − u + v` delays (see
    /// [`WindowIndex::survivor_bounds`]).
    pub(crate) sums: Vec<f64>,
    /// `(scored exactly, considered)` per family: `A − u + v` migrations,
    /// `A + v` additions and the position scan's `A ∪ {v}` candidates (the
    /// rest were pruned by their lower bound).
    pub(crate) migrations: (u64, u64),
    pub(crate) additions: (u64, u64),
    pub(crate) positions: (u64, u64),
}

impl CandidateScratch {
    /// Empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        CandidateScratch::default()
    }

    /// `(scored exactly, considered)` over every `A − u + v` migration
    /// this scratch has seen: how much of the neighbourhood the lower
    /// bound left for the exact scan.
    pub fn migration_evals(&self) -> (u64, u64) {
        self.migrations
    }

    /// [`CandidateScratch::migration_evals`] for the `A + v` additions of
    /// [`best_candidate_with`].
    pub fn addition_evals(&self) -> (u64, u64) {
        self.additions
    }

    /// [`CandidateScratch::migration_evals`] for the candidates of
    /// [`best_new_server_position_scored`].
    pub fn position_evals(&self) -> (u64, u64) {
        self.positions
    }

    /// Indexes `window` against `fleet.active()`, lists the candidates
    /// `v ∉ A` and the cached servers' nodes and, when `bound` asks for it
    /// and the window is small enough to prune, fills the `floor` row.
    /// Returns the prune slack, `None` when no bound was computed.
    fn prepare(
        &mut self,
        ctx: &SimContext<'_>,
        fleet: &Fleet,
        window: &EpochWindow,
        bound: bool,
    ) -> Option<f64> {
        self.index.rebuild(ctx, fleet.active(), window);
        // The runs of nodes between the servers of the sorted
        // `fleet.active()`, in node order.
        self.candidates.clear();
        let mut lo = 0;
        for end in (fleet.active().iter().map(|s| s.index())).chain([ctx.graph.node_count()]) {
            self.candidates.extend((lo..end).map(NodeId::new));
            lo = end + 1;
        }
        self.cached.clear();
        self.cached
            .extend(fleet.inactive_entries().map(|server| server.node));
        let slack = self.index.prune_slack().filter(|_| bound);
        if slack.is_some() {
            self.index.floor_row(ctx, &mut self.floor);
        }
        slack
    }

    /// Scores the `A ∪ {v}` additions as `price(access, cached)` into
    /// `scores`, `cached` telling whether a cached server sits at `v`,
    /// lowering `known` to every exact score below it. Returns how many
    /// candidates were scored exactly.
    ///
    /// With a prune slack `ε` (the floor row was filled), each candidate
    /// first gets the lower bound `price(floor[v] + load floor, cached)`,
    /// the load floor taken over `k + 1` servers: `floor[v]` has the real
    /// value of `A + v`'s exact delay, summed per origin instead of per
    /// entry (see [`WindowIndex::prune_slack`]). The
    /// candidate with the smallest bound is scored first, to
    /// seed `known`, then the rest in order. One whose
    /// `bound·(1 − ε) > known` scores strictly above some other
    /// candidate, so it can never be the first minimum, and its slot
    /// gets `∞` instead. Survivors are scored by
    /// [`WindowIndex::score_change`], bit-identical to
    /// [`WindowIndex::score_addition`]: the two differ only in the zero
    /// load terms the former skips. Without a slack every candidate is
    /// scored, in order.
    fn score_additions(
        &mut self,
        ctx: &SimContext<'_>,
        slack: Option<f64>,
        price: impl Fn(f64, bool) -> f64,
        known: &mut f64,
    ) -> u64 {
        let CandidateScratch {
            index,
            candidates,
            scores,
            counts,
            floor,
            cached,
            ..
        } = self;
        let nc = candidates.len();
        let k = index.servers();
        scores.clear();
        scores.resize(nc, 0.0);
        let mut seed = None;
        if slack.is_some() {
            let load = index.load_floors(ctx, k + 1);
            for (bound, &v) in scores.iter_mut().zip(candidates.iter()) {
                *bound = price(floor[v.index()] + load.of(ctx, v), cached.contains(&v));
            }
            seed = (0..nc).min_by(|&x, &y| scores[x].total_cmp(&scores[y]));
        }
        let mut evals = 0;
        for c in seed.into_iter().chain((0..nc).filter(|&c| Some(c) != seed)) {
            if let Some(eps) = slack {
                // NaN never prunes; ∞ prunes only against a finite best.
                if scores[c] * (1.0 - eps) > *known {
                    scores[c] = f64::INFINITY;
                    continue;
                }
            }
            evals += 1;
            let v = candidates[c];
            let access = index.score_change(ctx, NONE, Some(v), counts);
            scores[c] = price(access, cached.contains(&v));
            if scores[c] < *known {
                *known = scores[c];
            }
        }
        evals
    }
}

impl Clone for CandidateScratch {
    /// Clones start empty: the buffers are allocation caches, not state.
    fn clone(&self) -> Self {
        CandidateScratch::default()
    }
}

/// Analytic transition costs of the single-server changes, mirroring the
/// planner's rules (validated against the planner in tests); stays and
/// deactivations are free. Migrating one server:
fn migration_cost(ctx: &SimContext<'_>) -> f64 {
    let p = &ctx.params;
    if p.migration_useful() {
        p.migration_beta
    } else {
        p.creation_c
    }
}

/// Adding a server at a node where one is `cached` or not: free there, one
/// price at every other node.
fn addition_cost(ctx: &SimContext<'_>, fleet: &Fleet, cached: bool) -> f64 {
    let p = &ctx.params;
    if cached {
        0.0
    } else if p.migration_useful() && fleet.inactive_count() > 0 {
        p.migration_beta
    } else {
        p.creation_c
    }
}

/// The best neighbor configuration of `fleet.active()` w.r.t. `window`.
///
/// Returns `(target_active_set, score)` where the score is
/// `access(window) + Ra·|A'|·window_len + transition_cost`. The current
/// configuration is always a candidate, so callers can compare the winner
/// against "stay" by identity of the returned set. When no candidate
/// scores below `∞` (demand cut off from every reachable placement) the
/// current set is returned with score `∞`: the servers stay put.
pub fn best_candidate(
    ctx: &SimContext<'_>,
    fleet: &Fleet,
    window: &EpochWindow,
    options: CandidateOptions,
) -> (Vec<NodeId>, f64) {
    best_candidate_with(ctx, fleet, window, options, &mut CandidateScratch::new())
}

/// "No server removed" in [`WindowIndex::score_change`].
const NONE: usize = usize::MAX;

/// [`best_candidate`] with caller-owned scratch: strategies thread their
/// [`CandidateScratch`] through so repeated epoch scoring reuses the
/// window index and every buffer.
///
/// The `O(n)` additions and `O(n·k)` migrations are bound-pruned. One
/// row-streaming pass (`WindowIndex::floor_row`) gives every `A + v`
/// a lower bound and every `v` a floor under all its `A − u + v`. Stay
/// and the deactivations are scored first. The additions follow, bound
/// then verify: only those whose bound cannot rule them out against the
/// best score known so far are scored exactly. The migrations come last:
/// every `v` is first tested against its floor, and only the survivors
/// get per-`u` bounds (`WindowIndex::survivor_bounds`), then the same
/// tests and exact scores in candidate order. A pruned candidate scores
/// strictly above some other candidate, so it is never the first minimum
/// of the original selection order: winner and score are bit-identical to
/// scoring every candidate (proptest-pinned against that loop).
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
    let add = options.add && k < ctx.params.max_servers;
    let slack = scratch.prepare(ctx, fleet, window, add || options.migrate);

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
    let stay_score = scratch
        .index
        .score_change(ctx, NONE, None, &mut scratch.counts)
        + ra * k as f64 * wlen;
    consider(stay_score, &mut best_score, &mut best_target, a.to_vec());

    // The cheap families are scored up front, so their minimum can prune
    // the rest; they are still *selected* after the migrations, in the
    // original order. `known` only ever holds a candidate's score (or ∞),
    // never NaN.
    let mut known = best_score;
    scratch.removals.clear();
    if options.deactivate && k >= 2 {
        for u_idx in 0..k {
            let score = scratch
                .index
                .score_change(ctx, u_idx, None, &mut scratch.counts)
                + ra * (k - 1) as f64 * wlen;
            scratch.removals.push(score);
            if score < known {
                known = score;
            }
        }
    }
    if add {
        let run = ra * (k + 1) as f64 * wlen;
        let price = |access, cached| access + run + addition_cost(ctx, fleet, cached);
        let evals = scratch.score_additions(ctx, slack, price, &mut known);
        scratch.additions.0 += evals;
        scratch.additions.1 += scratch.candidates.len() as u64;
    }

    let CandidateScratch {
        index,
        candidates,
        scores,
        counts,
        removals,
        floor,
        survivors,
        sums,
        migrations,
        ..
    } = scratch;

    // 2. Migrate u -> v, v outer and u inner.
    if options.migrate {
        let mig_cost = migration_cost(ctx);
        let run = ra * k as f64 * wlen;
        let load = index.load_floors(ctx, k);
        // `floor[v]` floors every u's bound (d2 ≥ d1): one test can rule
        // out the whole v.
        let floor_of = |v: NodeId| floor[v.index()] + load.of(ctx, v) + run + mig_cost;
        migrations.1 += (k * candidates.len()) as u64;
        survivors.clear();
        let delays = match slack {
            Some(eps) => {
                let cut = known.min(best_score);
                // Each v is written and kept only if it survives, with no
                // branch: about one in twelve does, at no fixed stride.
                survivors.resize(candidates.len(), NodeId::new(0));
                let mut m = 0;
                for &v in candidates.iter() {
                    survivors[m] = v;
                    // NaN never prunes; ∞ prunes only against a finite best.
                    let pruned = floor_of(v) * (1.0 - eps) > cut;
                    m += usize::from(!pruned);
                }
                survivors.truncate(m);
                index.survivor_bounds(ctx, survivors, sums)
            }
            None => {
                survivors.extend_from_slice(candidates);
                &[]
            }
        };
        let m = survivors.len();
        for (j, &v) in survivors.iter().enumerate() {
            let load_lb = load.of(ctx, v);
            if let Some(eps) = slack {
                // The best may have dropped since the survivors were cut.
                if floor_of(v) * (1.0 - eps) > known.min(best_score) {
                    continue;
                }
            }
            for u_idx in 0..k {
                if let Some(eps) = slack {
                    let lb = delays[u_idx * m + j] + load_lb + run + mig_cost;
                    // NaN never prunes; ∞ prunes only against a finite best.
                    if lb * (1.0 - eps) > known.min(best_score) {
                        continue;
                    }
                }
                migrations.0 += 1;
                let score = index.score_change(ctx, u_idx, Some(v), counts) + run + mig_cost;
                if score < best_score {
                    let mut target = a.to_vec();
                    target[u_idx] = v;
                    consider(score, &mut best_score, &mut best_target, target);
                }
            }
        }
    }

    // 3. Deactivate u (keep at least one server).
    for (u_idx, &score) in removals.iter().enumerate() {
        if score < best_score {
            let mut target = a.to_vec();
            target.remove(u_idx);
            consider(score, &mut best_score, &mut best_target, target);
        }
    }

    // 4. Add v (respect the k budget), scored above; pruned slots hold ∞.
    if add {
        for (&score, &v) in scores.iter().zip(candidates.iter()) {
            if score < best_score {
                let mut target = a.to_vec();
                target.push(v);
                consider(score, &mut best_score, &mut best_target, target);
            }
        }
    }

    (best_target.unwrap_or_else(|| a.to_vec()), best_score)
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
/// the winning access cost, so the steady-state large-epoch trigger
/// allocates nothing.
///
/// Bound then verify, like the additions of [`best_candidate_with`]: the
/// same bound pass gives every `A ∪ {v}` a lower bound, the
/// candidate with the smallest bound is scored exactly to seed the best
/// known cost, and only candidates whose bound is within it are scored
/// exactly after it. Selection keeps the first minimum in candidate order
/// under strict `<`, so `(v, cost)` is bit-identical to scoring every
/// candidate (proptest-pinned against the retired per-candidate loop).
pub fn best_new_server_position_scored(
    ctx: &SimContext<'_>,
    fleet: &Fleet,
    window: &EpochWindow,
    scratch: &mut CandidateScratch,
) -> Option<(NodeId, f64)> {
    let slack = scratch.prepare(ctx, fleet, window, true);
    let mut known = f64::INFINITY;
    let evals = scratch.score_additions(ctx, slack, |access, _| access, &mut known);
    scratch.positions.0 += evals;
    scratch.positions.1 += scratch.candidates.len() as u64;
    let mut best: Option<(NodeId, f64)> = None;
    for (&v, &cost) in scratch.candidates.iter().zip(&scratch.scores) {
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
    use proptest::prelude::*;

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
        // A zero count is no request, as `push` would have folded it.
        let zero = EpochWindow::import_json(&JsonValue::parse("[[[4, 0], [2, 1]]]").unwrap());
        let rows: Vec<Vec<(NodeId, usize)>> = zero.unwrap().rounds().map(|r| r.to_vec()).collect();
        assert_eq!(rows, vec![vec![(n(2), 1)]]);
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
            let analytic = addition_cost(&ctx, &fleet, fleet.is_inactive_at(n(5)));
            let planner = TransitionPlanner::price(&fleet, &[n(0), n(5)], &ctx.params);
            assert_eq!(analytic, planner);

            // Add elsewhere: migrate cache (β) or create (c)
            let analytic = addition_cost(&ctx, &fleet, fleet.is_inactive_at(n(9)));
            let planner = TransitionPlanner::price(&fleet, &[n(0), n(9)], &ctx.params);
            assert_eq!(analytic, planner);

            // Migrate the active server
            let analytic = migration_cost(&ctx);
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
        // The bound-pruned `best_new_server_position_scored` returns the
        // exact `(v, cost)` the retired per-candidate
        // `access_cost_window(A ∪ {v})` loop did.
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

    /// Eight epochs of 20 rounds on ER-100, demand drifting between two
    /// hot spots: `best_candidate_with` picks each epoch's move, and
    /// `position` sees the same window. Returns the scratch, for its
    /// pruning counters.
    fn er100_drift(
        mut position: impl FnMut(&SimContext<'_>, &Fleet, &EpochWindow),
    ) -> CandidateScratch {
        use flexserve_graph::gen::{erdos_renyi, GenConfig};
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let mut rng = SmallRng::seed_from_u64(7);
        let g = erdos_renyi(100, 0.05, &GenConfig::default(), &mut rng).unwrap();
        let m = DistanceMatrix::build(&g);
        let ctx = SimContext::new(&g, &m, CostParams::default(), LoadModel::Linear);
        let mut fleet = Fleet::new(vec![n(3), n(40), n(77)], &ctx.params);
        let mut scratch = CandidateScratch::new();
        for epoch in 0..8 {
            let mut w = EpochWindow::new();
            for _ in 0..20 {
                let mut batch = RoundRequests::empty();
                for _ in 0..30 {
                    let hot = if rng.gen_bool(0.7) {
                        10 * epoch
                    } else {
                        95 - 5 * epoch
                    };
                    batch.push(n((hot + rng.gen_range(0..5usize)) % 100));
                }
                w.push(&batch);
            }
            position(&ctx, &fleet, &w);
            let (target, _) =
                best_candidate_with(&ctx, &fleet, &w, CandidateOptions::all(), &mut scratch);
            TransitionPlanner::apply(&mut fleet, &target, &ctx.params);
        }
        scratch
    }

    #[test]
    fn bound_prunes_most_migrations_on_er100() {
        let (evals, pairs) = er100_drift(|_, _, _| {}).migration_evals();
        assert!(pairs > 0);
        assert!(
            4 * evals < pairs,
            "the lower bound must rule out most moves: {evals} of {pairs} scored exactly"
        );
    }

    #[test]
    fn bound_prunes_most_additions_and_positions_on_er100() {
        let mut positions = CandidateScratch::new();
        let scratch = er100_drift(|ctx, fleet, w| {
            best_new_server_position_scored(ctx, fleet, w, &mut positions);
        });
        for (family, (evals, pairs)) in [
            ("additions", scratch.addition_evals()),
            ("positions", positions.position_evals()),
        ] {
            assert!(pairs > 0, "{family}: nothing considered");
            assert!(
                4 * evals < pairs,
                "the lower bound must rule out most {family}: {evals} of {pairs} scored exactly"
            );
        }
    }

    /// Node `i` of strength `strengths[i]` (1.0 past its end); roughly one
    /// edge in seven (`fail == 0`) fails to `∞` latency afterwards — the
    /// generators of `tests/candidate_scan.rs`.
    fn random_graph(
        len: usize,
        strengths: &[f64],
        edges: &[(usize, usize, f64, usize)],
    ) -> flexserve_graph::Graph {
        let mut g = flexserve_graph::Graph::new();
        for i in 0..len {
            g.add_node(strengths.get(i).copied().unwrap_or(1.0));
        }
        for &(a, b, lat, fail) in edges {
            let (a, b) = (a % len, b % len);
            if a != b {
                let _ = g.add_edge(n(a), n(b), lat, flexserve_graph::Bandwidth::T1);
                if fail == 0 {
                    let _ = g.set_edge_latency(n(a), n(b), f64::INFINITY);
                }
            }
        }
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every lower bound the scans prune by is at most the exact score
        /// it stands for, after the `(1 − ε)` slack: each addition, each
        /// `A − u + v` migration, each whole-`v` migration floor and each
        /// position candidate, against `access_cost_window` plus the same
        /// price terms.
        #[test]
        fn bounds_never_exceed_exact_scores(
            len in 3usize..18,
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
        ) {
            // Short links let the load terms, and so the load floor, decide.
            let scale = if load_dominated == 1 { 0.01 } else { 1.0 };
            let edges: Vec<_> =
                edges.iter().map(|&(a, b, lat, fail)| (a, b, lat * scale, fail)).collect();
            let g = random_graph(len, &strengths, &edges);
            let m = DistanceMatrix::build(&g);
            let mut active: Vec<NodeId> = Vec::new();
            for &p in &picks {
                if !active.contains(&n(p % len)) {
                    active.push(n(p % len));
                }
            }
            let base = match regime {
                0 => CostParams::default(),
                1 => CostParams::flipped(),
                _ => CostParams::default().with_costs(0.5, 2.0).with_running(0.1, 0.05),
            };
            let budget = if full_budget == 1 { active.len() } else { len };
            let load = [LoadModel::None, LoadModel::Linear, LoadModel::Quadratic, LoadModel::Power(1.5)][lm];
            let ctx = SimContext::new(&g, &m, base.with_max_servers(budget), load);
            let inactive = cached
                .iter()
                .map(|&c| flexserve_sim::InactiveServer { node: n(c % len), expires_epoch: 5 })
                .collect();
            let fleet = Fleet::from_parts(active.clone(), inactive, 0, &ctx.params)
                .unwrap_or_else(|_| Fleet::new(active.clone(), &ctx.params));
            let mut w = EpochWindow::new();
            for round in &rounds {
                let mut batch = RoundRequests::empty();
                for &(origin, cnt) in round {
                    batch.push_many(n(origin % len), cnt);
                }
                w.push(&batch);
            }

            let mut scratch = CandidateScratch::new();
            let eps = scratch.prepare(&ctx, &fleet, &w, true).expect("a small window prunes");
            // Slot order is the fleet's, which may differ from the picks'.
            let active = fleet.active();
            let k = active.len();
            let wlen = w.len() as f64;
            let run_add = ctx.params.run_active * (k + 1) as f64 * wlen;
            let run_mig = ctx.params.run_active * k as f64 * wlen;
            let mig_cost = migration_cost(&ctx);
            let index = &scratch.index;
            let (add_load, load) = (index.load_floors(&ctx, k + 1), index.load_floors(&ctx, k));
            let mut sums = Vec::new();
            let delays = index.survivor_bounds(&ctx, &scratch.candidates, &mut sums);
            let m = scratch.candidates.len();
            for (j, &v) in scratch.candidates.iter().enumerate() {
                // The shared constant must have the bits of `load_floor`
                // at the candidate's own `ω_max`.
                let omega = index.max_strength.max(ctx.graph.strength(v));
                let add_load_lb = add_load.of(&ctx, v);
                let load_lb = load.of(&ctx, v);
                prop_assert_eq!(add_load_lb.to_bits(), index.load_floor(&ctx, omega, k + 1).to_bits());
                prop_assert_eq!(load_lb.to_bits(), index.load_floor(&ctx, omega, k).to_bits());
                let mut with_v = active.to_vec();
                with_v.push(v);
                let access = access_cost_window(&ctx, &with_v, &w);
                let position = scratch.floor[v.index()] + add_load_lb;
                prop_assert!(position * (1.0 - eps) <= access,
                    "position v={:?}: bound {} > exact {}", v, position, access);
                let trans = addition_cost(&ctx, &fleet, fleet.is_inactive_at(v));
                let (bound, exact) = (position + run_add + trans, access + run_add + trans);
                prop_assert!(bound * (1.0 - eps) <= exact,
                    "addition v={:?}: bound {} > exact {}", v, bound, exact);

                let floor = scratch.floor[v.index()] + load_lb + run_mig + mig_cost;
                for u in 0..k {
                    let mut target: Vec<NodeId> =
                        active.iter().copied().filter(|&s| s != active[u]).collect();
                    target.push(v);
                    let exact = access_cost_window(&ctx, &target, &w) + run_mig + mig_cost;
                    let bound = delays[u * m + j] + load_lb + run_mig + mig_cost;
                    prop_assert!(bound * (1.0 - eps) <= exact,
                        "migration {:?}->{:?}: bound {} > exact {}", active[u], v, bound, exact);
                    prop_assert!(floor * (1.0 - eps) <= exact,
                        "floor of v={:?}: {} > exact {} (u={:?})", v, floor, exact, active[u]);
                }
            }
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

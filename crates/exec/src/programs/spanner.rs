//! [`SpannerProgram`]: the `O(1)`-round `(6k−1)`-spanner (§4, Theorem 4.1
//! — clustering graphs + per-level Baswana–Sen) as a per-machine state
//! machine.
//!
//! Same algorithm as the legacy call-style
//! [`mpc_core::spanner::heterogeneous_spanner`], in the coordinator shape
//! of the [`combinators`](crate::combinators) layer. The phase structure is
//! *static* (no data-dependent iteration), so the whole program runs on a
//! fixed 17-round clock with no per-phase commands beyond the initial
//! `Levels` broadcast:
//!
//! | round | who    | does |
//! |------:|--------|------|
//! | 0–1   | smalls/owners | per-vertex degrees to the owners, up to the large machine |
//! | 2     | large  | levels `⌈log₂Δ⌉`; hitting-set masks drawn (Algorithm 5) and pushed to the owners |
//! | 3–4   | all    | mask lookups for edge endpoints |
//! | 5–6   | smalls/owners | coverage OR-aggregation, up to the large machine |
//! | 7–8   | large/owners | `B_i` masks finalized, pushed, looked up |
//! | 9–10  | smalls/owners | min-neighbor-in-`B` candidates aggregated; star centers `σ` assigned |
//! | 11–12 | smalls/owners | cluster edges `(level, σ_u, σ_v)` deduplicated at owners; per-level subsamples drawn and shipped |
//! | 13    | large  | per-level spanning ([`span_levels`]); history answers |
//! | 14–15 | owners | removal candidates aggregated; stars + removals shipped |
//! | 16    | large  | combine (Lemma A.2), halt |
//!
//! Every random draw — the large machine's hitting-set masks, the small
//! machines' per-cluster-edge subsampling coins — happens in exactly the
//! legacy per-machine order, so the spanner edge set, the statistics, and
//! the RNG stream positions are bit-identical to the legacy path (asserted
//! by the registry equivalence tests).

use crate::combinators::{fold_best, Outbox, Owners, RoleProgram};
use crate::machine::{MachineCtx, StepOutcome};
use mpc_core::spanner::clustering::{
    edge_level, finalize_b_masks, level_edge_key, levels_for_delta, min_neighbor_candidates,
    sample_hitting_masks, sigma_for, unpack_level_edge, LevelEdgeKey,
};
use mpc_core::spanner::{
    removal_candidates_for, sampling_probability, span_levels, SpannerResult, SpannerStats,
};
use mpc_graph::{Edge, Graph, VertexId};
use mpc_runtime::{Cluster, MachineId, Payload, ShardedVec};
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Messages of the spanner program.
#[derive(Clone, Debug)]
pub enum SpannerNetMsg {
    /// Large → smalls: the number of clustering levels.
    Levels(u32),
    /// Small → owner: partial degree count of a vertex.
    DegPartial(VertexId, u32),
    /// Owner → large: final degree of a vertex.
    DegUp(VertexId, u32),
    /// Large → owner: `(v, deg, hitting-set membership mask)`.
    MaskInfo(VertexId, u32, u64),
    /// Small → owner: this machine needs the mask of `v`.
    MaskAsk(VertexId),
    /// Owner → asker: the mask of `v`.
    MaskAns(VertexId, u64),
    /// Small → owner: OR of the masks of `v`'s neighbors (partial).
    CoverPartial(VertexId, u64),
    /// Owner → large: OR of the masks of `v`'s neighbors (final).
    CoverUp(VertexId, u64),
    /// Large → owner: `(v, deg, B-level mask)`.
    BInfo(VertexId, u32, u64),
    /// Small → owner: this machine needs the B-mask of `v`.
    BAsk(VertexId),
    /// Owner → asker: the B-mask of `v`.
    BAns(VertexId, u64),
    /// Small → owner: per-level smallest neighbor of `v` in `B_i`.
    CandPartial(VertexId, Vec<u32>),
    /// Small → owner: this machine needs `(σ_v, deg_v)`.
    SigmaAsk(VertexId),
    /// Owner → asker: `(v, σ_v, deg_v)`.
    SigmaAns(VertexId, VertexId, u32),
    /// Small → owner: a cluster edge `(key, witness)` dedup partial.
    LevelEdge(u64, u64, Edge),
    /// Owner → large: per-level cluster-edge counts.
    LevelCount(Vec<u64>),
    /// Owner → large: a (sub)sampled cluster edge `(tag, key, witness)`.
    Sample(u32, u64, u64, Edge),
    /// Owner → large: this machine needs the center history of a
    /// `(level << 32) | vertex` key.
    HistAsk(u64),
    /// Large → asker: the center history of a key.
    HistAns(u64, Vec<u32>),
    /// Owner → owner: a removal candidate `(key, y, witness)`.
    RCand(u64, u64, u32, Edge),
    /// Owner → large: a star edge.
    Star(Edge),
    /// Owner → large: a removal edge.
    Removal(Edge),
    /// Large → smalls: the run is over; halt.
    Finish,
}

impl Payload for SpannerNetMsg {
    fn words(&self) -> usize {
        match self {
            SpannerNetMsg::Levels(_) | SpannerNetMsg::Finish => 1,
            SpannerNetMsg::DegPartial(_, _)
            | SpannerNetMsg::DegUp(_, _)
            | SpannerNetMsg::MaskAns(_, _)
            | SpannerNetMsg::CoverPartial(_, _)
            | SpannerNetMsg::CoverUp(_, _)
            | SpannerNetMsg::BAns(_, _) => 2,
            SpannerNetMsg::MaskAsk(_)
            | SpannerNetMsg::BAsk(_)
            | SpannerNetMsg::SigmaAsk(_)
            | SpannerNetMsg::HistAsk(_) => 1,
            SpannerNetMsg::MaskInfo(_, _, _)
            | SpannerNetMsg::BInfo(_, _, _)
            | SpannerNetMsg::SigmaAns(_, _, _) => 3,
            SpannerNetMsg::CandPartial(_, v) => 1 + v.words(),
            SpannerNetMsg::LevelEdge(_, _, e) => 2 + e.words(),
            SpannerNetMsg::LevelCount(v) => v.words(),
            SpannerNetMsg::Sample(_, _, _, e) => 3 + e.words(),
            SpannerNetMsg::HistAns(_, h) => 1 + h.words(),
            SpannerNetMsg::RCand(_, _, _, e) => 3 + e.words(),
            SpannerNetMsg::Star(e) | SpannerNetMsg::Removal(e) => e.words(),
        }
    }
}

/// Per-machine state of the spanner program.
#[derive(Clone)]
pub struct SpannerProgram {
    n: usize,
    k: usize,
    owners: Owners,
    // ---- small-machine state ----
    /// The input shard (unweighted view; immutable throughout).
    input: Vec<Edge>,
    /// Sorted, deduplicated endpoints of `input` (computed once).
    endpoints: Vec<VertexId>,
    /// Number of clustering levels, from the `Levels` broadcast.
    levels: usize,
    /// Owner role: `(deg, sampled mask)` of owned vertices.
    mask_store: HashMap<VertexId, (u32, u64)>,
    /// Owner role: `(v, deg, B-mask)` of owned vertices, in arrival order.
    binfo: Vec<(VertexId, u32, u64)>,
    /// Owner role: B-mask lookup index over `binfo` (answers `BAsk` in
    /// O(1) instead of scanning the arrival list per ask).
    binfo_mask: HashMap<VertexId, u64>,
    /// Owner role: aggregated per-level neighbor candidates.
    cands: BTreeMap<VertexId, Vec<u32>>,
    /// Owner role: `σ` assignments of owned vertices.
    sigma: BTreeMap<VertexId, (VertexId, u32)>,
    /// Owner role: star edges of owned vertices (σ-assignment order).
    stars: Vec<Edge>,
    /// Owner role: deduplicated cluster edges, sorted by key.
    cluster_shard: BTreeMap<LevelEdgeKey, Edge>,
    /// Worker scratch: masks of this machine's edge endpoints.
    masks_local: HashMap<VertexId, u64>,
    // ---- large-machine state ----
    deg: Vec<u32>,
    sampled_masks: Vec<u64>,
    spanner_edges: Vec<Edge>,
    stats: SpannerStats,
    /// Set on the large machine when it halts.
    pub result: Option<SpannerResult>,
}

impl SpannerProgram {
    /// Builds one program per machine over the sharded (unweighted) input.
    pub fn for_cluster(
        cluster: &Cluster,
        n: usize,
        edges: &ShardedVec<Edge>,
        k: usize,
    ) -> Vec<Self> {
        assert!(k >= 2, "spanner parameter k must be at least 2");
        let owners = Owners::of_cluster(cluster);
        assert!(
            cluster.large().is_some() && !owners.ids().is_empty(),
            "spanner requires a large machine and small machines"
        );
        (0..cluster.machines())
            .map(|mid| {
                let input: Vec<Edge> = edges.shard(mid).to_vec();
                let mut endpoints: Vec<VertexId> = input.iter().flat_map(|e| [e.u, e.v]).collect();
                endpoints.sort_unstable();
                endpoints.dedup();
                SpannerProgram {
                    n,
                    k,
                    owners: owners.clone(),
                    input,
                    endpoints,
                    levels: 0,
                    mask_store: HashMap::new(),
                    binfo: Vec::new(),
                    binfo_mask: HashMap::new(),
                    cands: BTreeMap::new(),
                    sigma: BTreeMap::new(),
                    stars: Vec::new(),
                    cluster_shard: BTreeMap::new(),
                    masks_local: HashMap::new(),
                    deg: Vec::new(),
                    sampled_masks: Vec::new(),
                    spanner_edges: Vec::new(),
                    stats: SpannerStats::default(),
                    result: None,
                }
            })
            .collect()
    }
}

impl RoleProgram for SpannerProgram {
    type Message = SpannerNetMsg;

    fn snapshot(&self) -> Option<Self> {
        Some(self.clone())
    }

    fn large_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, SpannerNetMsg)>,
    ) -> StepOutcome<SpannerNetMsg> {
        let mut out = Outbox::new();
        match ctx.round {
            // Degrees arrive: fix the level count, draw the hitting sets.
            2 => {
                self.deg = vec![0; self.n];
                for (_src, msg) in inbox {
                    if let SpannerNetMsg::DegUp(v, d) = msg {
                        self.deg[v as usize] = d;
                    }
                }
                let delta = self.deg.iter().copied().max().unwrap_or(0);
                let levels = levels_for_delta(delta);
                assert!(
                    levels * mpc_core::spanner::clustering::HITTING_SET_TRIALS <= 60,
                    "mask packing supports log Δ · trials <= 60"
                );
                self.levels = levels;
                self.stats.levels = levels;
                self.stats.weight_classes = 1;
                for i in 0..levels {
                    let p = sampling_probability(self.k, i);
                    if p >= 1.0 {
                        self.stats.full_levels.push(i);
                    } else {
                        self.stats.sampled_levels.push((i, p));
                    }
                }
                self.sampled_masks = sample_hitting_masks(&mut ctx.rng(), self.n, levels);
                ctx.charge(self.n as u64);
                for v in 0..self.n {
                    if self.deg[v] > 0 {
                        out.send(
                            self.owners.of(&(v as VertexId)),
                            SpannerNetMsg::MaskInfo(
                                v as VertexId,
                                self.deg[v],
                                self.sampled_masks[v],
                            ),
                        );
                    }
                }
                out.broadcast(ctx.small_ids_iter(), SpannerNetMsg::Levels(levels as u32));
            }
            // Coverage arrives: finalize the B-masks.
            7 => {
                let mut covered: Vec<u64> = vec![0; self.n];
                for (_src, msg) in inbox {
                    if let SpannerNetMsg::CoverUp(v, c) = msg {
                        covered[v as usize] = c;
                    }
                }
                let b_mask =
                    finalize_b_masks(&self.deg, &self.sampled_masks, &covered, self.levels);
                ctx.charge(self.n as u64);
                for v in 0..self.n {
                    if self.deg[v] > 0 {
                        out.send(
                            self.owners.of(&(v as VertexId)),
                            SpannerNetMsg::BInfo(v as VertexId, self.deg[v], b_mask[v]),
                        );
                    }
                }
            }
            // Samples + history requests arrive: span every level locally.
            13 => {
                let mut received: Vec<(u32, LevelEdgeKey, Edge)> = Vec::new();
                let mut asks: Vec<(MachineId, u64)> = Vec::new();
                let mut level_counts = vec![0u64; self.levels.max(1)];
                for (src, msg) in inbox {
                    match msg {
                        SpannerNetMsg::Sample(tag, k0, k1, e) => received.push((tag, (k0, k1), e)),
                        SpannerNetMsg::HistAsk(key) => asks.push((src, key)),
                        SpannerNetMsg::LevelCount(counts) => {
                            for (acc, c) in level_counts.iter_mut().zip(counts) {
                                *acc += c;
                            }
                        }
                        _ => {}
                    }
                }
                self.stats.level_edge_counts = level_counts.iter().map(|&c| c as usize).collect();
                let spans = span_levels(self.n, self.k, &received);
                ctx.charge((received.len() + self.n) as u64);
                self.stats.phase1_edges += spans.phase1_edges;
                self.spanner_edges = spans.edges;
                for (src, key) in asks {
                    let level = (key >> 32) as usize;
                    let v = (key & 0xFFFF_FFFF) as VertexId;
                    if let Some(p1) = spans.phase1.get(&level) {
                        out.send(src, SpannerNetMsg::HistAns(key, p1.history(v)));
                    }
                }
            }
            // Stars and removals arrive: combine (Lemma A.2) and finish.
            16 => {
                let mut stars: Vec<Edge> = Vec::new();
                let mut removals: Vec<Edge> = Vec::new();
                for (_src, msg) in inbox {
                    match msg {
                        SpannerNetMsg::Star(e) => stars.push(e),
                        SpannerNetMsg::Removal(e) => removals.push(e),
                        _ => {}
                    }
                }
                self.stats.star_edges = stars.len();
                self.stats.removal_edges = removals.len();
                self.spanner_edges.extend(stars);
                self.spanner_edges.extend(removals);
                let edges = std::mem::take(&mut self.spanner_edges);
                let spanner = Graph::new(self.n, edges.into_iter().map(|e| e.normalized()));
                ctx.charge(spanner.m() as u64);
                self.result = Some(SpannerResult {
                    spanner,
                    stats: std::mem::take(&mut self.stats),
                });
                out.broadcast(ctx.small_ids_iter(), SpannerNetMsg::Finish);
            }
            17 => return StepOutcome::Halt,
            _ => {}
        }
        out.into_step()
    }

    fn small_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, SpannerNetMsg)>,
    ) -> StepOutcome<SpannerNetMsg> {
        let mut out = Outbox::new();
        let large = ctx.large.expect("checked in for_cluster");

        // Two-pass: stores/partials first, then lookups — owner answers
        // always reflect this round's pushed state.
        let mut deg_sum: BTreeMap<VertexId, u32> = BTreeMap::new();
        let mut mask_asks: Vec<(MachineId, VertexId)> = Vec::new();
        let mut cover_or: BTreeMap<VertexId, u64> = BTreeMap::new();
        let mut got_cover = false;
        let mut b_asks: Vec<(MachineId, VertexId)> = Vec::new();
        let mut bmask_local: HashMap<VertexId, u64> = HashMap::new();
        let mut got_bans = false;
        let mut sigma_asks: Vec<(MachineId, VertexId)> = Vec::new();
        let mut sigma_local: HashMap<VertexId, (VertexId, u32)> = HashMap::new();
        let mut got_sigma = false;
        let mut hist: HashMap<u64, Vec<u32>> = HashMap::new();
        let mut got_hist = false;
        let mut rcands: BTreeMap<(u64, u64), (u32, Edge)> = BTreeMap::new();
        let mut got_rcands = false;
        let mut got_level_edges = false;

        for (src, msg) in inbox {
            match msg {
                SpannerNetMsg::Levels(l) => self.levels = l as usize,
                SpannerNetMsg::DegPartial(v, c) => *deg_sum.entry(v).or_default() += c,
                SpannerNetMsg::MaskInfo(v, d, m) => {
                    self.mask_store.insert(v, (d, m));
                }
                SpannerNetMsg::MaskAsk(v) => mask_asks.push((src, v)),
                SpannerNetMsg::MaskAns(v, m) => {
                    self.masks_local.insert(v, m);
                }
                SpannerNetMsg::CoverPartial(v, m) => {
                    got_cover = true;
                    *cover_or.entry(v).or_default() |= m;
                }
                SpannerNetMsg::BInfo(v, d, bm) => {
                    self.binfo.push((v, d, bm));
                    self.binfo_mask.insert(v, bm);
                }
                SpannerNetMsg::BAsk(v) => b_asks.push((src, v)),
                SpannerNetMsg::BAns(v, bm) => {
                    got_bans = true;
                    bmask_local.insert(v, bm);
                }
                SpannerNetMsg::CandPartial(v, c) => match self.cands.get_mut(&v) {
                    Some(acc) => {
                        for (a, b) in acc.iter_mut().zip(c) {
                            *a = (*a).min(b);
                        }
                    }
                    None => {
                        self.cands.insert(v, c);
                    }
                },
                SpannerNetMsg::SigmaAsk(v) => sigma_asks.push((src, v)),
                SpannerNetMsg::SigmaAns(v, s, d) => {
                    got_sigma = true;
                    sigma_local.insert(v, (s, d));
                }
                SpannerNetMsg::LevelEdge(k0, k1, e) => {
                    got_level_edges = true;
                    fold_best(&mut self.cluster_shard, (k0, k1), e, |a, b| a < b);
                }
                SpannerNetMsg::HistAns(key, h) => {
                    got_hist = true;
                    hist.insert(key, h);
                }
                SpannerNetMsg::RCand(k0, k1, y, e) => {
                    got_rcands = true;
                    fold_best(&mut rcands, (k0, k1), (y, e), |a, b| a.0 < b.0);
                }
                SpannerNetMsg::Finish => return StepOutcome::Halt,
                _ => {}
            }
        }

        // ---- round-0 kick-off: degree partials ----
        if ctx.round == 0 {
            let mut partial: BTreeMap<VertexId, u32> = BTreeMap::new();
            for e in &self.input {
                *partial.entry(e.u).or_default() += 1;
                *partial.entry(e.v).or_default() += 1;
            }
            for (v, c) in partial {
                out.send(self.owners.of(&v), SpannerNetMsg::DegPartial(v, c));
            }
        }

        // ---- owner role ----
        if !deg_sum.is_empty() {
            for (&v, &d) in &deg_sum {
                out.send(large, SpannerNetMsg::DegUp(v, d));
            }
        }
        for (src, v) in mask_asks {
            let mask = self.mask_store.get(&v).map_or(0, |&(_, m)| m);
            out.send(src, SpannerNetMsg::MaskAns(v, mask));
        }
        if got_cover {
            for (v, m) in cover_or {
                out.send(large, SpannerNetMsg::CoverUp(v, m));
            }
        }
        for (src, v) in b_asks {
            // Every asked endpoint has deg > 0, so BInfo covers it.
            let bm = self.binfo_mask.get(&v).copied().unwrap_or(0);
            out.send(src, SpannerNetMsg::BAns(v, bm));
        }
        if !sigma_asks.is_empty() {
            // σ assignment happens exactly once, in BInfo arrival order
            // (ascending vertex id — the legacy owner loop order).
            if self.sigma.is_empty() {
                let binfo = std::mem::take(&mut self.binfo);
                for (v, d, bm) in binfo {
                    let (s, _iu) = sigma_for(v, bm, self.cands.get(&v), self.levels);
                    self.sigma.insert(v, (s, d));
                    if s != v {
                        self.stars.push(Edge::unweighted(v, s));
                    }
                }
            }
            for (src, v) in sigma_asks {
                let (s, d) = *self.sigma.get(&v).expect("sigma covers owned vertices");
                out.send(src, SpannerNetMsg::SigmaAns(v, s, d));
            }
        }
        if got_level_edges {
            // The shard is complete this round: report counts, draw the
            // per-level subsamples in key order (the legacy shard order and
            // the legacy per-machine RNG order), request histories.
            let mut counts = vec![0u64; self.levels.max(1)];
            for key in self.cluster_shard.keys() {
                counts[unpack_level_edge(key).0] += 1;
            }
            out.send(large, SpannerNetMsg::LevelCount(counts));
            let mut hist_keys: BTreeSet<u64> = BTreeSet::new();
            for (key, orig) in &self.cluster_shard {
                let (i, a, b) = unpack_level_edge(key);
                let p = sampling_probability(self.k, i);
                if p >= 1.0 {
                    out.send(
                        large,
                        SpannerNetMsg::Sample((i as u32) << 8, key.0, key.1, *orig),
                    );
                } else {
                    for j in 1..self.k as u32 {
                        if ctx.rng().random_bool(p) {
                            out.send(
                                large,
                                SpannerNetMsg::Sample(((i as u32) << 8) | j, key.0, key.1, *orig),
                            );
                        }
                    }
                    hist_keys.insert(((i as u64) << 32) | a as u64);
                    hist_keys.insert(((i as u64) << 32) | b as u64);
                }
            }
            ctx.charge(self.cluster_shard.len() as u64);
            for key in hist_keys {
                out.send(large, SpannerNetMsg::HistAsk(key));
            }
        }
        if got_hist {
            // Removal candidates over this machine's cluster edges.
            for (key, orig) in &self.cluster_shard {
                let (i, a, b) = unpack_level_edge(key);
                let (Some(ha), Some(hb)) = (
                    hist.get(&(((i as u64) << 32) | a as u64)),
                    hist.get(&(((i as u64) << 32) | b as u64)),
                ) else {
                    continue;
                };
                for (ck, cv) in removal_candidates_for(i, a, b, ha, hb, *orig) {
                    out.send(
                        self.owners.of(&ck),
                        SpannerNetMsg::RCand(ck.0, ck.1, cv.0, cv.1),
                    );
                }
            }
        }
        if got_rcands {
            for (_key, (_y, orig)) in rcands {
                out.send(large, SpannerNetMsg::Removal(orig));
            }
        }
        // Stars ship together with the removals (round 15).
        if ctx.round == 15 {
            for e in self.stars.drain(..) {
                out.send(large, SpannerNetMsg::Star(e));
            }
        }

        // ---- worker clock ----
        match ctx.round {
            // Levels received: look up endpoint masks.
            3 => {
                for &v in &self.endpoints {
                    out.send(self.owners.of(&v), SpannerNetMsg::MaskAsk(v));
                }
            }
            // B-masks are at the owners next round: ask.
            7 => {
                for &v in &self.endpoints {
                    out.send(self.owners.of(&v), SpannerNetMsg::BAsk(v));
                }
            }
            _ => {}
        }
        // Masks received: coverage partials (OR of neighbor masks).
        if ctx.round == 5 && !self.input.is_empty() {
            let mut acc: BTreeMap<VertexId, u64> = BTreeMap::new();
            for e in &self.input {
                let mu = self.masks_local.get(&e.u).copied().unwrap_or(0);
                let mv = self.masks_local.get(&e.v).copied().unwrap_or(0);
                *acc.entry(e.u).or_default() |= mv;
                *acc.entry(e.v).or_default() |= mu;
            }
            for (v, m) in acc {
                out.send(self.owners.of(&v), SpannerNetMsg::CoverPartial(v, m));
            }
        }
        // B-masks received: candidate partials + σ lookups.
        if got_bans {
            let per_vertex = min_neighbor_candidates(self.levels, &self.input, |y| {
                bmask_local.get(&y).copied().unwrap_or(0)
            });
            for (v, c) in per_vertex {
                out.send(self.owners.of(&v), SpannerNetMsg::CandPartial(v, c));
            }
            for &v in &self.endpoints {
                out.send(self.owners.of(&v), SpannerNetMsg::SigmaAsk(v));
            }
        }
        // σ received: emit the cluster edges.
        if got_sigma {
            for e in &self.input {
                let (su, du) = sigma_local[&e.u];
                let (sv, dv) = sigma_local[&e.v];
                if su == sv {
                    continue;
                }
                let level = edge_level(du, dv, self.levels);
                let key = level_edge_key(level, su, sv);
                out.send(
                    self.owners.of(&key),
                    SpannerNetMsg::LevelEdge(key.0, key.1, *e),
                );
            }
        }

        out.into_step()
    }
}

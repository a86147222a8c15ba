//! [`MstApproxProgram`]: the `O(1)`-round (1+ε)-approximate MST weight
//! (Theorem C.2 — the CRT/AGM estimator over geometric weight thresholds)
//! as a per-machine state machine.
//!
//! Same algorithm as the legacy call-style
//! [`mpc_core::ported::approximate_mst_weight`]: one sketch-connectivity
//! instance (Theorem C.1) per threshold `τ_j = (1+ε)^j`, each the exact
//! 3-round wave of [`ConnectivityProgram`](crate::programs::ConnectivityProgram)
//! re-keyed onto a per-wave clock — the large machine draws one sketch seed
//! per threshold (the legacy draw order; small machines draw nothing), the
//! smalls sketch their weight-filtered shards, hash-owners merge by
//! linearity, and the large machine runs sketch-Borůvka locally.
//!
//! Two execution shapes share that wave:
//!
//! * [`MstApproxWave`] — one threshold as a standalone lane of a
//!   [batched wave](crate::MixedWave::batched): the **default** path runs
//!   all waves interleaved in one engine run (`O(1)` combined rounds, the
//!   paper's parallel figure), with the per-wave seeds pre-drawn by the
//!   batched registry runner in the legacy threshold order so results *and* RNG
//!   stream positions stay bit-identical to the sequential composition;
//! * [`MstApproxProgram`] — the PR 4 sequential composition (one wave
//!   after another inside a single program), kept as the equivalence
//!   oracle the batched path is tested against.
//!
//! One wave (`Wave` broadcast at round `W`):
//!
//! | round | who | does |
//! |------:|-----|------|
//! | W+1   | smalls | sketch edges of weight `≤ τ`, partials → hash-owners |
//! | W+2   | owners | sum partials per `(phase, vertex)` key |
//! | W+3   | large  | sketch-Borůvka; record `c_τ`; next wave or estimate |

use crate::combinators::{Outbox, RoleProgram};
use crate::machine::{MachineCtx, StepOutcome};
use mpc_core::ported::mst_approx::{estimate_from_counts, geometric_thresholds, MstApprox};
use mpc_graph::Edge;
use mpc_runtime::{Cluster, MachineId, Payload, ShardedVec};
use mpc_sketch::{sketch_connectivity, SketchFamily, SparseSketch, VertexSketch};
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Messages of the MST-weight estimator program.
#[derive(Clone, Debug)]
pub enum MstApproxNetMsg {
    /// Small → large: maximum edge weight of this machine's shard.
    MaxW(u64),
    /// Large → smalls: run one connectivity wave at this threshold with
    /// this sketch-family seed.
    Wave(u64, u64),
    /// A (partial or merged) sparse sketch for key `(phase << 32) | vertex`.
    Partial(u64, SparseSketch),
    /// Large → smalls: the run is over; halt.
    Finish,
}

impl Payload for MstApproxNetMsg {
    fn words(&self) -> usize {
        match self {
            MstApproxNetMsg::MaxW(_) | MstApproxNetMsg::Finish => 1,
            MstApproxNetMsg::Wave(_, _) => 2,
            MstApproxNetMsg::Partial(_, s) => 1 + s.words(),
        }
    }
}

/// What the large machine is waiting for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LPhase {
    /// Shard weight maxima arrive at round 1.
    MaxW,
    /// `Wave` issued: merged sketches arrive at `issued + 3`.
    Wave { issued: u64 },
    /// Finish broadcast; halt on the next step.
    Done,
}

/// Per-machine state of the MST-weight estimator program.
#[derive(Clone)]
pub struct MstApproxProgram {
    n: usize,
    /// Sketch-Borůvka phases (`ConnectivityConfig::for_n`, both paths).
    phases: usize,
    /// The estimator's ε (the geometric grid's spacing).
    epsilon: f64,
    owners: Vec<MachineId>,
    // ---- small-machine state ----
    input: Vec<Edge>,
    // ---- large-machine state ----
    phase: LPhase,
    w_max: u64,
    thresholds: Vec<u64>,
    t_idx: usize,
    /// The seed drawn for the current wave (for the dense decode).
    seed: u64,
    component_counts: Vec<usize>,
    parallel_rounds: u64,
    /// Set on the large machine when it halts.
    pub result: Option<MstApprox>,
}

impl MstApproxProgram {
    /// Builds one program per machine over the sharded input edges.
    pub fn for_cluster(
        cluster: &Cluster,
        n: usize,
        edges: &ShardedVec<Edge>,
        epsilon: f64,
    ) -> Vec<Self> {
        assert!(epsilon > 0.0, "epsilon must be positive");
        let owners = cluster.small_ids();
        let large = cluster
            .large()
            .expect("MST estimation requires a large machine");
        assert!(!owners.is_empty(), "MST estimation requires small machines");
        assert!(
            edges.shard(large).is_empty(),
            "engine programs expect the input on the small machines only \
             (see common::distribute_edges); the large machine's shard would \
             be silently ignored"
        );
        let phases = mpc_core::ported::connectivity::ConnectivityConfig::for_n(n).phases;
        (0..cluster.machines())
            .map(|mid| MstApproxProgram {
                n,
                phases,
                epsilon,
                owners: owners.clone(),
                input: edges.shard(mid).to_vec(),
                phase: LPhase::MaxW,
                w_max: 1,
                thresholds: Vec::new(),
                t_idx: 0,
                seed: 0,
                component_counts: Vec::new(),
                parallel_rounds: 0,
                result: None,
            })
            .collect()
    }

    fn owner_of(&self, key: u64) -> MachineId {
        self.owners[(key % self.owners.len() as u64) as usize]
    }

    /// Issues the next threshold wave, drawing its sketch seed — the legacy
    /// per-instance seed draw, in threshold order.
    fn issue_wave(&mut self, ctx: &MachineCtx<'_>, out: &mut Outbox<MstApproxNetMsg>) {
        let t = self.thresholds[self.t_idx];
        self.seed = ctx.rng().random();
        out.broadcast(ctx.small_ids_iter(), MstApproxNetMsg::Wave(t, self.seed));
        self.phase = LPhase::Wave { issued: ctx.round };
    }
}

/// One threshold wave of the Theorem C.2 estimator as a standalone lane
/// of a [batched wave](crate::MixedWave::batched): sketch
/// the weight-filtered shard, merge at owners, count components on the
/// large machine — three combined rounds for *every* threshold at once.
///
/// The sketch seed is baked in at construction (pre-drawn by the batched
/// registry runner from the large machine's stream, one per threshold in ascending
/// threshold order — exactly the legacy draw order), so the instance draws
/// nothing at run time and the per-machine RNG positions after the batched
/// run equal the sequential composition's.
#[derive(Clone)]
pub struct MstApproxWave {
    n: usize,
    phases: usize,
    threshold: u64,
    seed: u64,
    owners: Arc<[MachineId]>,
    /// This machine's input shard, shared across the instances batched
    /// onto the machine.
    input: Arc<[Edge]>,
    /// Set on the large machine when the wave completes: `c_τ`.
    pub count: Option<usize>,
}

impl MstApproxWave {
    /// One machine's half of a single threshold wave.
    pub fn new(
        n: usize,
        phases: usize,
        threshold: u64,
        seed: u64,
        owners: Arc<[MachineId]>,
        input: Arc<[Edge]>,
    ) -> Self {
        MstApproxWave {
            n,
            phases,
            threshold,
            seed,
            owners,
            input,
            count: None,
        }
    }

    fn owner_of(&self, key: u64) -> MachineId {
        self.owners[(key % self.owners.len() as u64) as usize]
    }
}

impl RoleProgram for MstApproxWave {
    type Message = MstApproxNetMsg;

    fn snapshot(&self) -> Option<Self> {
        Some(self.clone())
    }

    fn large_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, MstApproxNetMsg)>,
    ) -> StepOutcome<MstApproxNetMsg> {
        // The wave runs a fixed clock (workers at round 0, owners at round
        // 1, this machine at round 2), so wait for the clock rather than
        // for mail — a threshold that filters out every edge still counts
        // its (all-singleton) components, like the sequential wave does.
        if ctx.round < 2 {
            return StepOutcome::idle();
        }
        if self.count.is_some() {
            return StepOutcome::Halt;
        }
        // Dense-ify the merged sketches and run sketch-Borůvka locally —
        // identical to the sequential program's wave-final step.
        let family = SketchFamily::new(self.n, self.phases, self.seed);
        let mut rows: Vec<Vec<VertexSketch>> = (0..self.phases)
            .map(|p| (0..self.n).map(|_| family.empty(p)).collect())
            .collect();
        for (_, msg) in inbox {
            if let MstApproxNetMsg::Partial(key, sparse) = msg {
                let phase = (key >> 32) as usize;
                let v = (key & 0xFFFF_FFFF) as usize;
                rows[phase][v] = family.to_dense(&sparse);
            }
        }
        ctx.charge((self.n * self.phases) as u64);
        self.count = Some(sketch_connectivity(&family, &rows, self.n).count);
        StepOutcome::Halt
    }

    fn small_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, MstApproxNetMsg)>,
    ) -> StepOutcome<MstApproxNetMsg> {
        let mut out = Outbox::new();
        let large = ctx
            .large
            .expect("batched estimator requires a large machine");

        if ctx.round == 0 {
            // Worker role: sketch the weight-filtered shard (no seed
            // broadcast — the seed is baked in).
            let family = SketchFamily::new(self.n, self.phases, self.seed);
            let mut partials: BTreeMap<u64, SparseSketch> = BTreeMap::new();
            let mut filtered = 0u64;
            for e in self.input.iter().filter(|e| e.w <= self.threshold) {
                filtered += 1;
                for phase in 0..self.phases {
                    let ku = ((phase as u64) << 32) | e.u as u64;
                    let kv = ((phase as u64) << 32) | e.v as u64;
                    family.add_edge_sparse(partials.entry(ku).or_default(), phase, e.u, e.v);
                    family.add_edge_sparse(partials.entry(kv).or_default(), phase, e.v, e.u);
                }
            }
            ctx.charge(filtered * self.phases as u64);
            for (key, s) in partials {
                out.send(self.owner_of(key), MstApproxNetMsg::Partial(key, s));
            }
            return out.into_step();
        }

        if inbox.is_empty() {
            return StepOutcome::Halt;
        }
        // Owner role: sum partials per key (linearity), forward.
        let mut merged: BTreeMap<u64, SparseSketch> = BTreeMap::new();
        for (_src, msg) in inbox {
            if let MstApproxNetMsg::Partial(key, s) = msg {
                merged.entry(key).or_default().merge(&s);
            }
        }
        for (key, s) in merged {
            out.send(large, MstApproxNetMsg::Partial(key, s));
        }
        out.into_step()
    }
}

impl RoleProgram for MstApproxProgram {
    type Message = MstApproxNetMsg;

    fn snapshot(&self) -> Option<Self> {
        Some(self.clone())
    }

    fn large_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, MstApproxNetMsg)>,
    ) -> StepOutcome<MstApproxNetMsg> {
        let mut out = Outbox::new();
        match self.phase {
            LPhase::MaxW => {
                if ctx.round == 1 {
                    self.w_max = inbox
                        .iter()
                        .filter_map(|(_, m)| match m {
                            MstApproxNetMsg::MaxW(w) => Some(*w),
                            _ => None,
                        })
                        .max()
                        .unwrap_or(1)
                        .max(1);
                    self.thresholds = geometric_thresholds(self.w_max, self.epsilon);
                    self.issue_wave(ctx, &mut out);
                }
            }
            LPhase::Wave { issued } => {
                if ctx.round == issued + 3 {
                    // Dense-ify the merged sketches and run sketch-Borůvka
                    // locally — the connectivity wave's final step.
                    let family = SketchFamily::new(self.n, self.phases, self.seed);
                    let mut rows: Vec<Vec<VertexSketch>> = (0..self.phases)
                        .map(|p| (0..self.n).map(|_| family.empty(p)).collect())
                        .collect();
                    for (_, msg) in inbox {
                        if let MstApproxNetMsg::Partial(key, sparse) = msg {
                            let phase = (key >> 32) as usize;
                            let v = (key & 0xFFFF_FFFF) as usize;
                            rows[phase][v] = family.to_dense(&sparse);
                        }
                    }
                    ctx.charge((self.n * self.phases) as u64);
                    let components = sketch_connectivity(&family, &rows, self.n);
                    self.component_counts.push(components.count);
                    self.parallel_rounds = self.parallel_rounds.max(ctx.round - issued);
                    self.t_idx += 1;
                    if self.t_idx < self.thresholds.len() {
                        self.issue_wave(ctx, &mut out);
                    } else {
                        let estimate = estimate_from_counts(
                            self.n,
                            self.w_max,
                            &self.thresholds,
                            &self.component_counts,
                        );
                        self.result = Some(MstApprox {
                            estimate,
                            thresholds: std::mem::take(&mut self.thresholds),
                            component_counts: std::mem::take(&mut self.component_counts),
                            parallel_rounds: self.parallel_rounds,
                        });
                        out.broadcast(ctx.small_ids_iter(), MstApproxNetMsg::Finish);
                        self.phase = LPhase::Done;
                    }
                }
            }
            LPhase::Done => return StepOutcome::Halt,
        }
        out.into_step()
    }

    fn small_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, MstApproxNetMsg)>,
    ) -> StepOutcome<MstApproxNetMsg> {
        let mut out = Outbox::new();
        let large = ctx.large.expect("checked in for_cluster");

        if ctx.round == 0 {
            let max_w = self.input.iter().map(|e| e.w).max().unwrap_or(0);
            out.send(large, MstApproxNetMsg::MaxW(max_w));
        }

        let mut wave: Option<(u64, u64)> = None;
        let mut merged: BTreeMap<u64, SparseSketch> = BTreeMap::new();
        let mut owner_stage = false;
        for (_src, msg) in inbox {
            match msg {
                MstApproxNetMsg::Finish => return StepOutcome::Halt,
                MstApproxNetMsg::Wave(t, seed) => wave = Some((t, seed)),
                MstApproxNetMsg::Partial(key, s) => {
                    owner_stage = true;
                    merged.entry(key).or_default().merge(&s);
                }
                MstApproxNetMsg::MaxW(_) => {}
            }
        }

        // ---- owner role: sum partials per key (linearity), forward. ----
        if owner_stage {
            for (key, s) in merged {
                out.send(large, MstApproxNetMsg::Partial(key, s));
            }
        }

        // ---- worker role: sketch the weight-filtered shard. ----
        if let Some((t, seed)) = wave {
            let family = SketchFamily::new(self.n, self.phases, seed);
            let mut partials: BTreeMap<u64, SparseSketch> = BTreeMap::new();
            let mut filtered = 0u64;
            for e in self.input.iter().filter(|e| e.w <= t) {
                filtered += 1;
                for phase in 0..self.phases {
                    let ku = ((phase as u64) << 32) | e.u as u64;
                    let kv = ((phase as u64) << 32) | e.v as u64;
                    family.add_edge_sparse(partials.entry(ku).or_default(), phase, e.u, e.v);
                    family.add_edge_sparse(partials.entry(kv).or_default(), phase, e.v, e.u);
                }
            }
            ctx.charge(filtered * self.phases as u64);
            for (key, s) in partials {
                out.send(self.owner_of(key), MstApproxNetMsg::Partial(key, s));
            }
        }

        out.into_step()
    }
}

//! [`MinCutApproxProgram`]: the `O(1)`-round (1±ε)-approximate weighted
//! minimum cut (Theorem C.4 — Karger-style skeleton sampling over geometric
//! `λ` guesses) as a per-machine state machine.
//!
//! Same algorithm as the legacy call-style
//! [`mpc_core::ported::approximate_min_cut`], in the coordinator shape of
//! the [`combinators`](crate::combinators) layer. All randomness lives on
//! the *small* machines (one `Binomial(w, p)` draw per local edge per
//! guess, in shard order — the legacy per-machine order, via the shared
//! [`sample_binomial`]); the large machine draws nothing.
//!
//! Two execution shapes share the per-guess wave:
//!
//! * [`MinCutGuessWave`] — one λ̂ guess as a standalone lane of a
//!   [batched wave](crate::MixedWave::batched): the **default** path
//!   runs every guess interleaved in one engine run (`O(1)` combined
//!   rounds, the paper's parallel figure). Small machines sample all
//!   guesses in guess order inside the first combined round — the legacy
//!   per-machine draw order, so each guess's skeleton is bit-identical to
//!   the sequential path's — and the coordinator keeps the legacy early
//!   exit by *retiring* every guess finer than the first one to overflow
//!   its skeleton budget (finer guesses only get denser), so retired
//!   guesses ship nothing. The winning verdict is chosen by the same
//!   largest-first scan the sequential loop performs;
//! * [`MinCutApproxProgram`] — the PR 4 sequential composition (guesses
//!   issued one at a time, with the same budget rule and whole-graph
//!   fallback), kept as the equivalence oracle. Its RNG consumption stops
//!   at the successful guess, whereas the batched path necessarily samples
//!   every guess up front — results agree per instance, RNG stream
//!   positions agree only when no early exit fires.
//!
//! One guess (`Guess` broadcast at round `R`):
//!
//! | round | who | does |
//! |------:|-----|------|
//! | R+1   | smalls | sample the skeleton shard, report its size |
//! | R+2   | large  | abort to the fallback (over budget) or request the shard |
//! | R+3   | smalls | ship `(edge, multiplicity)` pairs |
//! | R+4   | large  | connectivity + Stoer–Wagner verdict; estimate, next guess, or fallback |

use crate::combinators::{Outbox, RoleProgram};
use crate::machine::{MachineCtx, StepOutcome};
use mpc_core::ported::mincut_approx::{
    c_sample_for, evaluate_skeleton, lambda_guesses, sample_binomial, skeleton_budget,
    ApproxMinCut, SkeletonVerdict,
};
use mpc_graph::Edge;
use mpc_runtime::{Cluster, MachineId, Payload, ShardedVec};
use std::sync::Arc;

/// Phase commands broadcast by the large machine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum XCutCmd {
    /// Sample a skeleton under this `λ̂` guess, report its size.
    Guess {
        /// The current geometric guess for λ.
        guess: u64,
    },
    /// The skeleton fits: ship it to the large machine.
    Ship,
    /// Every guess failed (or oversampled): ship the whole shard.
    SendAll,
    /// The run is over; halt.
    Finish,
}

/// Messages of the approximate min-cut program.
#[derive(Clone, Copy, Debug)]
pub enum XCutNetMsg {
    /// Large → smalls: phase command.
    Cmd(XCutCmd),
    /// Small → large: total edge weight of this machine's shard.
    WeightSum(u64),
    /// Small → large: skeleton shard size under the current guess.
    Count(u64),
    /// Small → large: a skeleton edge with its sampled multiplicity.
    Skel(Edge, u32),
    /// Small → large: a raw input edge (fallback).
    AllEdge(Edge),
}

impl Payload for XCutNetMsg {
    fn words(&self) -> usize {
        match self {
            XCutNetMsg::Cmd(XCutCmd::Guess { .. }) => 2,
            XCutNetMsg::Cmd(_) => 1,
            XCutNetMsg::WeightSum(_) | XCutNetMsg::Count(_) => 1,
            XCutNetMsg::Skel(e, _) => 1 + e.words(),
            XCutNetMsg::AllEdge(e) => e.words(),
        }
    }
}

/// What the large machine is waiting for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LPhase {
    /// Shard weight sums arrive at round 1.
    Weights,
    /// `Guess` issued: skeleton sizes arrive at `issued + 2`.
    Count { issued: u64 },
    /// `Ship` issued: the skeleton arrives at `issued + 2`.
    Skeleton { issued: u64 },
    /// `SendAll` issued: the whole graph arrives at `issued + 2`.
    Fallback { issued: u64 },
    /// Finish broadcast; halt on the next step.
    Done,
}

/// Per-machine state of the approximate min-cut program.
#[derive(Clone)]
pub struct MinCutApproxProgram {
    n: usize,
    /// `c = 3·ln n / ε²`, identical on every machine (same formula, same
    /// inputs), so smalls derive the sampling probability from the
    /// broadcast guess alone.
    c_sample: f64,
    // ---- small-machine state ----
    input: Vec<Edge>,
    /// The sampled skeleton shard (built on `Guess`, shipped on `Ship`).
    skeleton: Vec<(Edge, u32)>,
    // ---- large-machine state ----
    phase: LPhase,
    guesses: Vec<u64>,
    guess_idx: usize,
    /// Round the current guess was issued (for the parallel-rounds figure).
    guess_issued: u64,
    parallel_rounds: u64,
    /// Set on the large machine when it halts.
    pub result: Option<ApproxMinCut>,
}

impl MinCutApproxProgram {
    /// Builds one program per machine over the sharded input edges.
    pub fn for_cluster(
        cluster: &Cluster,
        n: usize,
        edges: &ShardedVec<Edge>,
        epsilon: f64,
    ) -> Vec<Self> {
        assert!(
            (0.0..1.0).contains(&epsilon) && epsilon > 0.0,
            "epsilon in (0,1)"
        );
        let large = cluster.large().expect("min cut requires a large machine");
        assert!(
            cluster.machines() > 1,
            "min cut requires a large machine and small machines"
        );
        assert!(
            edges.shard(large).is_empty(),
            "engine programs expect the input on the small machines only \
             (see common::distribute_edges); the large machine's shard would \
             be silently ignored"
        );
        let c_sample = c_sample_for(n, epsilon);
        (0..cluster.machines())
            .map(|mid| MinCutApproxProgram {
                n,
                c_sample,
                input: edges.shard(mid).to_vec(),
                skeleton: Vec::new(),
                phase: LPhase::Weights,
                guesses: Vec::new(),
                guess_idx: 0,
                guess_issued: 0,
                parallel_rounds: 0,
                result: None,
            })
            .collect()
    }

    /// The sampling probability of guess `g`.
    fn p_of(&self, g: u64) -> f64 {
        (self.c_sample / g as f64).min(1.0)
    }

    /// Issues the next guess, or the fallback when the guesses ran out —
    /// the legacy loop head.
    fn advance(&mut self, ctx: &MachineCtx<'_>, out: &mut Outbox<XCutNetMsg>) {
        if self.guess_idx < self.guesses.len() {
            let guess = self.guesses[self.guess_idx];
            out.broadcast(
                ctx.small_ids_iter(),
                XCutNetMsg::Cmd(XCutCmd::Guess { guess }),
            );
            self.guess_issued = ctx.round;
            self.phase = LPhase::Count { issued: ctx.round };
        } else {
            out.broadcast(ctx.small_ids_iter(), XCutNetMsg::Cmd(XCutCmd::SendAll));
            self.phase = LPhase::Fallback { issued: ctx.round };
        }
    }

    fn finish(&mut self, ctx: &MachineCtx<'_>, out: &mut Outbox<XCutNetMsg>, result: ApproxMinCut) {
        self.result = Some(result);
        self.phase = LPhase::Done;
        out.broadcast(ctx.small_ids_iter(), XCutNetMsg::Cmd(XCutCmd::Finish));
    }
}

/// What one batched λ̂ guess concluded on the large machine.
#[derive(Clone, Debug, PartialEq)]
pub enum GuessOutcome {
    /// The sampled skeleton overflowed the (solo-capacity) budget before
    /// shipping — the legacy abort: every finer guess is pointless.
    OverBudget,
    /// The skeleton was shipped and judged.
    Judged {
        /// The Stoer–Wagner / connectivity verdict on the skeleton.
        verdict: SkeletonVerdict,
        /// Skeleton edge count (the figure the result reports).
        skeleton_edges: usize,
    },
}

/// One λ̂ guess of the Theorem C.4 estimator as a standalone lane of a
/// [batched wave](crate::MixedWave::batched).
///
/// Wave shape (combined-round clock): smalls sample + report counts at
/// round 0, the large machine budget-checks at round 1 (over budget →
/// [`GuessOutcome::OverBudget`], halt — the coordinator's controller then
/// retires every finer guess), smalls ship at round 2, the large machine
/// judges at round 3. Small machines halt whenever they have nothing in
/// flight, so a guess that is never shipped costs zero traffic after its
/// count report.
#[derive(Clone)]
pub struct MinCutGuessWave {
    n: usize,
    c_sample: f64,
    /// This instance's λ̂ guess.
    pub guess: u64,
    input: Arc<[Edge]>,
    skeleton: Vec<(Edge, u32)>,
    /// Rounds tracked by the large machine: the round `Ship` was issued.
    ship_issued: Option<u64>,
    /// Set on the large machine when the guess resolves.
    pub outcome: Option<GuessOutcome>,
}

impl MinCutGuessWave {
    /// One machine's half of a single guess wave.
    pub fn new(n: usize, c_sample: f64, guess: u64, input: Arc<[Edge]>) -> Self {
        MinCutGuessWave {
            n,
            c_sample,
            guess,
            input,
            skeleton: Vec::new(),
            ship_issued: None,
            outcome: None,
        }
    }

    /// The sampling probability of this guess.
    fn p(&self) -> f64 {
        (self.c_sample / self.guess as f64).min(1.0)
    }
}

impl RoleProgram for MinCutGuessWave {
    type Message = XCutNetMsg;

    fn snapshot(&self) -> Option<Self> {
        Some(self.clone())
    }

    fn large_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, XCutNetMsg)>,
    ) -> StepOutcome<XCutNetMsg> {
        if self.outcome.is_some() {
            return StepOutcome::Halt;
        }
        match self.ship_issued {
            None => {
                if ctx.round == 0 {
                    // Counts land next round.
                    return StepOutcome::idle();
                }
                let total: u64 = inbox
                    .iter()
                    .filter_map(|(_, m)| match m {
                        XCutNetMsg::Count(c) => Some(*c),
                        _ => None,
                    })
                    .sum();
                // `ctx.capacity` is the solo capacity (the wave
                // snapshots it before the combined-run factor is applied),
                // so the budget rule is bit-identical to a solo run.
                if total > skeleton_budget(ctx.capacity) {
                    self.outcome = Some(GuessOutcome::OverBudget);
                    return StepOutcome::Halt;
                }
                let mut out = Outbox::new();
                out.broadcast(ctx.small_ids_iter(), XCutNetMsg::Cmd(XCutCmd::Ship));
                self.ship_issued = Some(ctx.round);
                out.into_step()
            }
            Some(issued) => {
                if ctx.round < issued + 2 {
                    // The skeleton is still in flight (possibly empty, so
                    // stay on the clock rather than waiting for mail).
                    return StepOutcome::idle();
                }
                let sk: Vec<(Edge, u32)> = inbox
                    .into_iter()
                    .filter_map(|(_, m)| match m {
                        XCutNetMsg::Skel(e, c) => Some((e, c)),
                        _ => None,
                    })
                    .collect();
                ctx.charge(sk.len() as u64 * 3);
                let verdict = evaluate_skeleton(self.n, &sk, self.c_sample, self.p());
                self.outcome = Some(GuessOutcome::Judged {
                    verdict,
                    skeleton_edges: sk.len(),
                });
                StepOutcome::Halt
            }
        }
    }

    fn small_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, XCutNetMsg)>,
    ) -> StepOutcome<XCutNetMsg> {
        let large = ctx.large.expect("batched min cut requires a large machine");
        let mut out = Outbox::new();
        if ctx.round == 0 {
            // One Binomial(w, p) draw per edge in shard order; the
            // wave steps its lanes in guess order, so the machine's
            // stream is consumed guess-major — the legacy order.
            let p = self.p();
            for e in self.input.iter() {
                let copies = sample_binomial(&mut ctx.rng(), e.w, p);
                if copies > 0 {
                    self.skeleton.push((*e, copies));
                }
            }
            ctx.charge(self.input.len() as u64);
            out.send(large, XCutNetMsg::Count(self.skeleton.len() as u64));
            return out.into_step();
        }
        let ship = inbox
            .iter()
            .any(|(_, m)| matches!(m, XCutNetMsg::Cmd(XCutCmd::Ship)));
        if ship {
            for &(e, c) in &self.skeleton {
                out.send(large, XCutNetMsg::Skel(e, c));
            }
            return out.into_step();
        }
        // Nothing in flight for this guess on this machine: sleep (a later
        // `Ship` would reactivate, a retired guess never will).
        StepOutcome::Halt
    }
}

/// The whole-graph fallback of Theorem C.4 (every guess failed or the
/// budget was hit): gather the input to the large machine and solve
/// locally — the engine twin of the legacy `xcut.fallback` gather, run as
/// a short second engine pass only when the batched guesses demand it.
#[derive(Clone)]
pub struct XCutFallback {
    n: usize,
    input: Arc<[Edge]>,
    /// Set on the large machine: `(estimate, gathered edge count)`.
    pub result: Option<(f64, usize)>,
}

impl XCutFallback {
    /// One machine's half of the fallback gather.
    pub fn new(n: usize, input: Arc<[Edge]>) -> Self {
        XCutFallback {
            n,
            input,
            result: None,
        }
    }
}

impl RoleProgram for XCutFallback {
    type Message = XCutNetMsg;

    fn snapshot(&self) -> Option<Self> {
        Some(self.clone())
    }

    fn large_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, XCutNetMsg)>,
    ) -> StepOutcome<XCutNetMsg> {
        if ctx.round == 0 {
            return StepOutcome::idle();
        }
        let all: Vec<Edge> = inbox
            .into_iter()
            .filter_map(|(_, m)| match m {
                XCutNetMsg::AllEdge(e) => Some(e),
                _ => None,
            })
            .collect();
        ctx.charge(all.len() as u64 * 2);
        let g = mpc_graph::Graph::new(self.n, all);
        let est = mpc_graph::mincut::min_cut(&g).map_or(0.0, |m| m.weight as f64);
        self.result = Some((est, g.m()));
        StepOutcome::Halt
    }

    fn small_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        _inbox: Vec<(MachineId, XCutNetMsg)>,
    ) -> StepOutcome<XCutNetMsg> {
        if ctx.round > 0 {
            return StepOutcome::Halt;
        }
        let large = ctx.large.expect("batched min cut requires a large machine");
        let mut out = Outbox::new();
        for e in self.input.iter() {
            out.send(large, XCutNetMsg::AllEdge(*e));
        }
        out.into_step()
    }
}

impl RoleProgram for MinCutApproxProgram {
    type Message = XCutNetMsg;

    fn snapshot(&self) -> Option<Self> {
        Some(self.clone())
    }

    fn large_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, XCutNetMsg)>,
    ) -> StepOutcome<XCutNetMsg> {
        let mut out = Outbox::new();
        match self.phase {
            LPhase::Weights => {
                if ctx.round == 1 {
                    let total_weight: u64 = inbox
                        .iter()
                        .filter_map(|(_, m)| match m {
                            XCutNetMsg::WeightSum(w) => Some(*w),
                            _ => None,
                        })
                        .sum();
                    self.guesses = lambda_guesses(total_weight);
                    self.advance(ctx, &mut out);
                }
            }
            LPhase::Count { issued } => {
                if ctx.round == issued + 2 {
                    let total: u64 = inbox
                        .iter()
                        .filter_map(|(_, m)| match m {
                            XCutNetMsg::Count(c) => Some(*c),
                            _ => None,
                        })
                        .sum();
                    let budget = skeleton_budget(ctx.capacity);
                    if total > budget {
                        // Finer guesses only get denser: abort to the
                        // fallback (the legacy `break`).
                        self.parallel_rounds =
                            self.parallel_rounds.max(ctx.round - self.guess_issued);
                        self.guess_idx = self.guesses.len();
                        self.advance(ctx, &mut out);
                    } else {
                        out.broadcast(ctx.small_ids_iter(), XCutNetMsg::Cmd(XCutCmd::Ship));
                        self.phase = LPhase::Skeleton { issued: ctx.round };
                    }
                }
            }
            LPhase::Skeleton { issued } => {
                if ctx.round == issued + 2 {
                    let sk: Vec<(Edge, u32)> = inbox
                        .into_iter()
                        .filter_map(|(_, m)| match m {
                            XCutNetMsg::Skel(e, c) => Some((e, c)),
                            _ => None,
                        })
                        .collect();
                    ctx.charge(sk.len() as u64 * 3);
                    self.parallel_rounds = self.parallel_rounds.max(ctx.round - self.guess_issued);
                    let guess = self.guesses[self.guess_idx];
                    let p = self.p_of(guess);
                    match evaluate_skeleton(self.n, &sk, self.c_sample, p) {
                        SkeletonVerdict::Disconnected | SkeletonVerdict::NotConcentrated => {
                            self.guess_idx += 1;
                            self.advance(ctx, &mut out);
                        }
                        SkeletonVerdict::Estimate(estimate) => {
                            let result = ApproxMinCut {
                                estimate,
                                lambda_guess: guess,
                                skeleton_edges: sk.len(),
                                parallel_rounds: self.parallel_rounds,
                            };
                            self.finish(ctx, &mut out, result);
                        }
                    }
                }
            }
            LPhase::Fallback { issued } => {
                if ctx.round == issued + 2 {
                    let all: Vec<Edge> = inbox
                        .into_iter()
                        .filter_map(|(_, m)| match m {
                            XCutNetMsg::AllEdge(e) => Some(e),
                            _ => None,
                        })
                        .collect();
                    ctx.charge(all.len() as u64 * 2);
                    let g = mpc_graph::Graph::new(self.n, all);
                    let est = mpc_graph::mincut::min_cut(&g).map_or(0.0, |m| m.weight as f64);
                    let result = ApproxMinCut {
                        estimate: est,
                        lambda_guess: 1,
                        skeleton_edges: g.m(),
                        parallel_rounds: self.parallel_rounds,
                    };
                    self.finish(ctx, &mut out, result);
                }
            }
            LPhase::Done => return StepOutcome::Halt,
        }
        out.into_step()
    }

    fn small_step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, XCutNetMsg)>,
    ) -> StepOutcome<XCutNetMsg> {
        let mut out = Outbox::new();
        let large = ctx.large.expect("checked in for_cluster");

        if ctx.round == 0 {
            let sum: u64 = self.input.iter().map(|e| e.w).sum();
            out.send(large, XCutNetMsg::WeightSum(sum));
        }

        let cmd = inbox.into_iter().find_map(|(_, m)| match m {
            XCutNetMsg::Cmd(c) => Some(c),
            _ => None,
        });

        match cmd {
            Some(XCutCmd::Finish) => return StepOutcome::Halt,
            Some(XCutCmd::Guess { guess }) => {
                // One Binomial(w, p) draw per edge, in shard order — the
                // legacy per-machine draw order (shared sampler).
                let p = self.p_of(guess);
                self.skeleton.clear();
                for e in &self.input {
                    let copies = sample_binomial(&mut ctx.rng(), e.w, p);
                    if copies > 0 {
                        self.skeleton.push((*e, copies));
                    }
                }
                ctx.charge(self.input.len() as u64);
                out.send(large, XCutNetMsg::Count(self.skeleton.len() as u64));
            }
            Some(XCutCmd::Ship) => {
                for &(e, c) in &self.skeleton {
                    out.send(large, XCutNetMsg::Skel(e, c));
                }
            }
            Some(XCutCmd::SendAll) => {
                for e in &self.input {
                    out.send(large, XCutNetMsg::AllEdge(*e));
                }
            }
            None => {}
        }

        out.into_step()
    }
}

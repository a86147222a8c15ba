//! The wave scheduler: many independent [`MachineProgram`]s interleaved
//! into **one** bulk-synchronous engine run.
//!
//! The paper runs many independent MPC instances side by side — one
//! sketch wave per threshold (Theorem C.2), one skeleton per λ̂ guess
//! (Theorem C.4), one spanner per weight class (the \[22\] reduction) — and
//! its multi-tenant setting shares one cluster between different
//! programs. [`MixedWave`] is the one scheduler for both (DESIGN.md §2.5):
//!
//! * each machine holds one *lane* per instance. Outgoing messages are
//!   wrapped as [`MixedMsg`] `{tag, msg}` and the union of all lanes'
//!   outboxes moves through a single exchange, so the cost model is
//!   charged once per *combined* round. The tag is free (scheduler
//!   addressing metadata, like the `(src, dst)` routing words the model
//!   never charges), so a combined round's word count is exactly the sum
//!   of the live lanes' solo traffic;
//! * every lane observes the **solo** capacity, snapshotted before any
//!   combined-round scaling, so per-instance decisions (e.g. the C.4
//!   skeleton budget) are bit-identical to a solo run;
//! * a lane's RNG stream is fixed by the constructor that installed it.
//!   [`MixedWave::batched`] lanes (tag = instance index) *borrow the
//!   machine's one stream* in tag order, so randomness is consumed
//!   instance-major — the order of the sequential composition.
//!   [`MixedWave::admit`] lanes (service jobs) own a *private* stream and
//!   a round clock rebased to their admission round, so a job's run
//!   inside a wave is bit-identical to the same job run alone;
//! * a per-lane halt flag mirrors the engine's machine-level protocol: a
//!   halted lane is skipped (zero work, zero draws, zero traffic) until
//!   tagged mail reactivates it, and the machine halts only when every
//!   lane has;
//! * an optional [`LaneController`] runs after the lanes step and may
//!   [retire](MixedLane::retire) lanes before their staged outboxes leave
//!   the machine — the C.4 early exit. The service cancels a job through
//!   the same [`MixedWave::retire`].
//!
//! Homogeneous waves keep their messages unboxed (`MixedWave<P>`); the
//! service's wave holds type-erased programs (`MixedWave` =
//! `MixedWave<Box<dyn ErasedProgram>>`) whose messages are boxed
//! [`ErasedMsg`]s, so different algorithms — including a whole batched
//! wave, erased — share one run.
//!
//! Determinism: the combined inbox arrives in the engine's canonical order
//! (ascending source, then send order) and demultiplexing preserves it per
//! lane; lanes step in installation order, so serial and pooled runs are
//! bit-identical.

use crate::machine::{MachineCtx, MachineProgram, StepOutcome};
use mpc_runtime::telemetry::TraceEvent;
use mpc_runtime::{Cluster, MachineId, Payload};
use rand::rngs::SmallRng;
use std::any::Any;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Message erasure
// ---------------------------------------------------------------------------

/// Object-safe view of a [`Payload`] message: size, clone, and downcast.
trait AnyMsg: Send {
    fn words_dyn(&self) -> usize;
    fn clone_box(&self) -> Box<dyn AnyMsg>;
    fn into_any(self: Box<Self>) -> Box<dyn Any + Send>;
}

impl<M: Payload + Send + 'static> AnyMsg for M {
    fn words_dyn(&self) -> usize {
        self.words()
    }
    fn clone_box(&self) -> Box<dyn AnyMsg> {
        Box::new(self.clone())
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any + Send> {
        self
    }
}

/// A boxed message of some concrete [`Payload`] type. Words delegate to
/// the payload inside, so erasure is invisible to capacity accounting.
pub struct ErasedMsg(Box<dyn AnyMsg>);

impl ErasedMsg {
    /// Boxes a concrete message.
    pub fn new<M: Payload + Send + 'static>(msg: M) -> Self {
        ErasedMsg(Box::new(msg))
    }

    /// Recovers the concrete message, panicking on a type mismatch (a
    /// mismatch means two lanes shared a tag — a scheduler bug, not a
    /// recoverable condition).
    fn downcast<M: Payload + Send + 'static>(self) -> M {
        *self
            .0
            .into_any()
            .downcast::<M>()
            .expect("mixed-wave message arrived at a lane of a different program type")
    }
}

impl Clone for ErasedMsg {
    fn clone(&self) -> Self {
        ErasedMsg(self.0.clone_box())
    }
}

impl Payload for ErasedMsg {
    fn words(&self) -> usize {
        self.0.words_dyn()
    }
}

/// One wave message: the owning lane's tag around its payload. The tag
/// costs zero words — the combined round's accounted traffic is exactly
/// the sum of the lanes' solo traffic.
#[derive(Clone)]
pub struct MixedMsg<M = ErasedMsg> {
    /// The lane this message belongs to (an instance index in batched
    /// waves, a job id in the service's wave).
    pub tag: u64,
    msg: M,
}

impl<M: Payload> Payload for MixedMsg<M> {
    fn words(&self) -> usize {
        self.msg.words()
    }
}

// ---------------------------------------------------------------------------
// Program erasure
// ---------------------------------------------------------------------------

/// Object-safe view of a [`MachineProgram`]: step on erased messages,
/// snapshot behind a box, and downcast back out for result extraction.
///
/// Blanket-implemented for every `'static` program, so
/// [`erase`] is the only conversion a caller needs.
pub trait ErasedProgram: Send {
    /// [`MachineProgram::step`] with boxed messages on both sides.
    fn step_erased(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, ErasedMsg)>,
    ) -> StepOutcome<ErasedMsg>;

    /// [`MachineProgram::snapshot`] behind a box (`None` opts the lane —
    /// and with it the whole wave — out of checkpointing).
    fn snapshot_erased(&self) -> Option<Box<dyn ErasedProgram>>;

    /// [`MachineProgram::state_words`].
    fn state_words_erased(&self) -> usize;

    /// Downcast support for result extraction.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<P> ErasedProgram for P
where
    P: MachineProgram + 'static,
    P::Message: 'static,
{
    fn step_erased(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, ErasedMsg)>,
    ) -> StepOutcome<ErasedMsg> {
        let inbox = inbox
            .into_iter()
            .map(|(src, msg)| (src, msg.downcast::<P::Message>()))
            .collect();
        match self.step(ctx, inbox) {
            StepOutcome::Halt => StepOutcome::Halt,
            StepOutcome::Send(msgs) => StepOutcome::Send(
                msgs.into_iter()
                    .map(|(dst, msg)| (dst, ErasedMsg::new(msg)))
                    .collect(),
            ),
        }
    }

    fn snapshot_erased(&self) -> Option<Box<dyn ErasedProgram>> {
        self.snapshot()
            .map(|p| Box::new(p) as Box<dyn ErasedProgram>)
    }

    fn state_words_erased(&self) -> usize {
        self.state_words()
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// An erased program is itself a program over erased messages — the lane
/// type of the service's wave. Each method dispatches through the box
/// (`**self`): the box is also an [`ErasedProgram`] by the blanket impl,
/// whose methods would call straight back here.
impl MachineProgram for Box<dyn ErasedProgram> {
    type Message = ErasedMsg;

    fn step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, ErasedMsg)>,
    ) -> StepOutcome<ErasedMsg> {
        (**self).step_erased(ctx, inbox)
    }

    fn snapshot(&self) -> Option<Self> {
        (**self).snapshot_erased()
    }

    fn state_words(&self) -> usize {
        (**self).state_words_erased()
    }
}

/// Boxes a concrete program for admission into a [`MixedWave`].
pub fn erase<P>(program: P) -> Box<dyn ErasedProgram>
where
    P: MachineProgram + 'static,
    P::Message: 'static,
{
    Box::new(program)
}

/// Recovers the concrete program from an extracted lane, panicking on a
/// type mismatch (the extractor and builder are paired per job, so a
/// mismatch is a scheduler bug).
pub fn downcast_program<P: MachineProgram + 'static>(boxed: Box<dyn ErasedProgram>) -> P {
    *boxed
        .into_any()
        .downcast::<P>()
        .expect("mixed-wave lane held a different program type than its extractor expects")
}

// ---------------------------------------------------------------------------
// The wave
// ---------------------------------------------------------------------------

/// The RNG stream a lane draws from, fixed by the constructor that
/// installed it.
#[derive(Clone)]
enum Stream {
    /// The machine's own stream, borrowed in lane order, on the machine's
    /// round clock ([`MixedWave::batched`]).
    Shared,
    /// A private stream on a round clock rebased to `base_round`
    /// ([`MixedWave::admit`]).
    Private { rng: SmallRng, base_round: u64 },
}

/// One lane on one machine: the program plus its lifecycle flags and the
/// outbox staged this round (visible to the [`LaneController`] before it
/// is merged and exchanged).
pub struct MixedLane<P: MachineProgram> {
    tag: u64,
    /// The lane's program on this machine.
    pub program: P,
    stream: Stream,
    halted: bool,
    retired: bool,
    /// Demux scratch, drained every step.
    inbox: Vec<(MachineId, P::Message)>,
    outbox: Vec<(MachineId, P::Message)>,
}

impl<P: MachineProgram> MixedLane<P> {
    /// Retires the lane: force-halts it and discards its staged outbox and
    /// pending mail. A retired lane never steps again and mail addressed
    /// to it is dropped, so it adds zero work and zero traffic to later
    /// combined rounds. Its program stays resident (and readable) until
    /// the wave ends.
    pub fn retire(&mut self) {
        self.retired = true;
        self.halted = true;
        self.inbox.clear();
        self.outbox.clear();
    }
}

/// Cross-lane coordination, run on a machine after all of its live lanes
/// stepped in a round — the hook behind early exit across instances
/// (typically installed on the large machine only). Shared and stateless
/// (`Arc<dyn Fn>`) so a checkpoint snapshot carries it along: coordinator
/// failover (DESIGN.md §2.9) restores the large machine, controller
/// included.
pub type LaneController<P> = Arc<dyn Fn(&MachineCtx<'_>, &mut [MixedLane<P>]) + Send + Sync>;

/// The per-machine wave scheduler: any number of lanes, stepped in
/// installation order within one engine round. Itself a
/// [`MachineProgram`], so the ordinary [`Executor`](crate::Executor)
/// drives it (serial or pooled, bit-identical either way). An empty wave
/// halts immediately; the service hook wakes the machine when it admits
/// a lane.
pub struct MixedWave<P: MachineProgram = Box<dyn ErasedProgram>> {
    lanes: Vec<MixedLane<P>>,
    /// This machine's capacity with no combined-round scaling applied —
    /// what each lane's program sees, exactly as in a solo run.
    solo_capacity: usize,
    controller: Option<LaneController<P>>,
}

impl<P: MachineProgram> MixedWave<P> {
    /// One empty wave per machine, snapshotting solo capacities. Call with
    /// the capacity factor at 1 (asserted), before any combined-round
    /// scaling.
    pub fn for_cluster(cluster: &Cluster) -> Vec<Self> {
        assert_eq!(
            cluster.capacity_factor(),
            1,
            "mixed waves must snapshot solo capacities (reset the factor first)"
        );
        (0..cluster.machines())
            .map(|mid| MixedWave {
                lanes: Vec::new(),
                solo_capacity: cluster.capacity(mid),
                controller: None,
            })
            .collect()
    }

    /// One wave per machine holding the paper-parallel instances
    /// `per_instance[i][mid]` (the shape every `for_cluster` program
    /// constructor produces) as lanes tagged `i`. The lanes share each
    /// machine's RNG stream in instance order and the machine's round
    /// clock, so a batched run consumes randomness exactly as the
    /// sequential composition does.
    ///
    /// # Panics
    ///
    /// Panics if an instance does not supply one program per machine, or
    /// if the cluster's capacity factor is not 1.
    pub fn batched(cluster: &Cluster, per_instance: Vec<Vec<P>>) -> Vec<Self> {
        let mut waves = Self::for_cluster(cluster);
        for (i, programs) in per_instance.into_iter().enumerate() {
            assert_eq!(
                programs.len(),
                waves.len(),
                "instance {i}: one program per machine required"
            );
            for (wave, program) in waves.iter_mut().zip(programs) {
                wave.install(i as u64, program, Stream::Shared);
            }
        }
        waves
    }

    /// Installs a lane with a private RNG stream: `rng` is the lane's
    /// stream on this machine (for a service job,
    /// [`mpc_runtime::machine_rng`] of the job seed) and `base_round`
    /// becomes the lane's round-0 origin.
    pub fn admit(&mut self, tag: u64, program: P, rng: SmallRng, base_round: u64) {
        self.install(tag, program, Stream::Private { rng, base_round });
    }

    fn install(&mut self, tag: u64, program: P, stream: Stream) {
        debug_assert!(
            self.position(tag).is_none(),
            "lane {tag} installed twice on one machine"
        );
        self.lanes.push(MixedLane {
            tag,
            program,
            stream,
            halted: false,
            retired: false,
            inbox: Vec::new(),
            outbox: Vec::new(),
        });
    }

    /// Installs the cross-lane controller on this machine.
    pub fn set_controller(&mut self, controller: LaneController<P>) {
        self.controller = Some(controller);
    }

    /// The index of lane `tag`. Batched waves tag lane `i` with `i`, so
    /// the direct probe hits; service tags fall back to a scan.
    fn position(&self, tag: u64) -> Option<usize> {
        match self.lanes.get(tag as usize) {
            Some(lane) if lane.tag == tag => Some(tag as usize),
            _ => self.lanes.iter().position(|l| l.tag == tag),
        }
    }

    /// Whether this machine's lane `tag` has voted to halt (vacuously true
    /// if the lane was never installed or already removed). Completion
    /// additionally requires no in-flight mail tagged with the lane — the
    /// service checks the slot inbox for that.
    pub fn lane_idle(&self, tag: u64) -> bool {
        self.position(tag).is_none_or(|at| self.lanes[at].halted)
    }

    /// Removes lane `tag`, returning its program for extraction.
    pub fn remove(&mut self, tag: u64) -> Option<P> {
        let at = self.position(tag)?;
        Some(self.lanes.remove(at).program)
    }

    /// [Retires](MixedLane::retire) lane `tag` on this machine, if it is
    /// installed. Mail already delivered to the machine's pending inbox is
    /// not this wave's to drop: a caller retiring between rounds also
    /// purges the lane's tagged messages
    /// ([`WaveRound::with_mail`](crate::WaveRound::with_mail)), so the
    /// machine is not woken for mail nobody will read.
    pub fn retire(&mut self, tag: u64) {
        if let Some(at) = self.position(tag) {
            self.lanes[at].retire();
        }
    }

    /// Consumes the wave, yielding the lanes' programs in installation
    /// order (tag order for batched waves).
    pub fn into_programs(self) -> Vec<P> {
        self.lanes.into_iter().map(|l| l.program).collect()
    }
}

impl<P: MachineProgram> MachineProgram for MixedWave<P> {
    type Message = MixedMsg<P::Message>;

    fn step(
        &mut self,
        ctx: &MachineCtx<'_>,
        inbox: Vec<(MachineId, MixedMsg<P::Message>)>,
    ) -> StepOutcome<MixedMsg<P::Message>> {
        // Demux by tag; canonical order is preserved per lane. Mail for a
        // lane this machine does not hold means a lane was removed with
        // mail still in flight — a scheduler bug worth failing loudly on.
        for (src, MixedMsg { tag, msg }) in inbox {
            let at = self.position(tag).unwrap_or_else(|| {
                panic!("message for lane {tag} with no lane on machine {}", ctx.mid)
            });
            let lane = &mut self.lanes[at];
            if !lane.retired {
                lane.inbox.push((src, msg));
            }
        }

        let mut live = 0usize;
        for lane in &mut self.lanes {
            let mail = std::mem::take(&mut lane.inbox);
            if lane.retired || (lane.halted && mail.is_empty()) {
                continue; // idle-lane skip: zero work, zero RNG draws
            }
            live += 1;
            let mut shared;
            let (rng, round) = match &mut lane.stream {
                Stream::Shared => {
                    shared = ctx.rng();
                    (&mut **shared, ctx.round)
                }
                Stream::Private { rng, base_round } => (rng, ctx.round - *base_round),
            };
            let sub = MachineCtx::new(
                ctx.mid,
                ctx.machines,
                ctx.large,
                self.solo_capacity,
                round,
                rng,
                ctx.sink(),
            );
            let outcome = lane.program.step(&sub, mail);
            ctx.charge(sub.charged());
            match outcome {
                StepOutcome::Halt => lane.halted = true,
                StepOutcome::Send(msgs) => {
                    lane.halted = false;
                    lane.outbox = msgs;
                }
            }
        }

        if let Some(controller) = self.controller.clone() {
            // Snapshot retired flags (allocating only when a sink listens)
            // so controller-driven retirements become discrete events.
            let before: Vec<bool> = if ctx.tracing() {
                self.lanes.iter().map(|l| l.retired).collect()
            } else {
                Vec::new()
            };
            controller(ctx, &mut self.lanes);
            if ctx.tracing() {
                for (lane, was) in self.lanes.iter().zip(&before) {
                    if lane.retired && !was {
                        ctx.trace(|| TraceEvent::InstanceRetired {
                            round: ctx.round,
                            machine: ctx.mid,
                            instance: lane.tag as u32,
                        });
                    }
                }
            }
        }
        ctx.trace(|| TraceEvent::MuxRound {
            round: ctx.round,
            machine: ctx.mid,
            live,
            retired: self.lanes.iter().filter(|l| l.retired).count(),
        });

        let mut all_halted = true;
        let mut out = Vec::new();
        for lane in &mut self.lanes {
            all_halted &= lane.halted;
            let tag = lane.tag;
            out.extend(
                lane.outbox
                    .drain(..)
                    .map(|(dst, msg)| (dst, MixedMsg { tag, msg })),
            );
        }
        if all_halted && out.is_empty() {
            StepOutcome::Halt
        } else {
            StepOutcome::Send(out)
        }
    }

    /// A wave checkpoints iff every lane's program does. Controllers are
    /// shared, stateless closures, so the snapshot carries the same
    /// controller — a restored coordinator makes the same cross-lane
    /// decisions during replay.
    fn snapshot(&self) -> Option<Self> {
        let mut lanes = Vec::with_capacity(self.lanes.len());
        for lane in &self.lanes {
            lanes.push(MixedLane {
                tag: lane.tag,
                program: lane.program.snapshot()?,
                stream: lane.stream.clone(),
                halted: lane.halted,
                retired: lane.retired,
                inbox: lane.inbox.clone(),
                outbox: lane.outbox.clone(),
            });
        }
        Some(MixedWave {
            lanes,
            solo_capacity: self.solo_capacity,
            controller: self.controller.clone(),
        })
    }

    fn state_words(&self) -> usize {
        self.lanes
            .iter()
            .map(|l| l.program.state_words())
            .sum::<usize>()
            .max(1)
    }
}

/// The ping-pong fixture and the per-policy checks behind the
/// `multiplex` tests in the crate root.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::driver::Executor;
    use mpc_runtime::{machine_rng, ClusterConfig, Topology};
    use rand::RngCore;

    /// A two-machine ping-pong: machine 0 sends `budget` tokens to machine
    /// 1, one per round; machine 1 echoes each. Tracks everything received
    /// and folds one draw per step, so each lane's stream is observable.
    #[derive(Clone)]
    struct PingPong {
        budget: u64,
        received: u64,
        draws: u64,
    }

    impl MachineProgram for PingPong {
        type Message = u64;

        fn step(&mut self, ctx: &MachineCtx<'_>, inbox: Vec<(MachineId, u64)>) -> StepOutcome<u64> {
            self.draws = self.draws.rotate_left(7) ^ ctx.rng().next_u64();
            self.received += inbox.iter().map(|(_, m)| m).sum::<u64>();
            if ctx.mid == 0 {
                if ctx.round < self.budget {
                    return StepOutcome::Send(vec![(1, ctx.round + 1)]);
                }
                return StepOutcome::Halt;
            }
            if inbox.is_empty() {
                return StepOutcome::Halt;
            }
            StepOutcome::Send(inbox.into_iter().map(|(src, m)| (src, m * 10)).collect())
        }
    }

    fn pair(budget: u64) -> Vec<PingPong> {
        let p = PingPong {
            budget,
            received: 0,
            draws: 0,
        };
        vec![p.clone(), p]
    }

    fn two_machine_cluster(seed: u64) -> Cluster {
        Cluster::new(
            ClusterConfig::new(16, 16)
                .seed(seed)
                .topology(Topology::Custom {
                    capacities: vec![1000, 1000],
                    large: Some(0),
                }),
        )
    }

    /// The two lane RNG-stream policies: [`MixedWave::batched`] lanes
    /// share the machine stream, [`MixedWave::admit`] lanes own one.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub(crate) enum Policy {
        Shared,
        Private,
    }

    /// Lane `i` uses seed `SEED + i` under the private policy.
    const SEED: u64 = 40;

    /// The same ping-pong instances as waves under either stream policy.
    fn waves(policy: Policy, cluster: &Cluster, budgets: &[u64]) -> Vec<MixedWave<PingPong>> {
        let per_instance = budgets.iter().map(|&b| pair(b)).collect();
        match policy {
            Policy::Shared => MixedWave::batched(cluster, per_instance),
            Policy::Private => {
                let mut waves = MixedWave::for_cluster(cluster);
                for (i, programs) in per_instance.into_iter().enumerate() {
                    for (mid, program) in programs.into_iter().enumerate() {
                        let rng = machine_rng(SEED + i as u64, mid);
                        waves[mid].admit(i as u64, program, rng, 0);
                    }
                }
                waves
            }
        }
    }

    fn run_waves(
        cluster: &mut Cluster,
        waves: Vec<MixedWave<PingPong>>,
        factor: usize,
    ) -> crate::ExecOutcome<MixedWave<PingPong>> {
        cluster.set_capacity_factor(factor);
        let out = Executor::serial("wave").run(cluster, waves).unwrap();
        cluster.set_capacity_factor(1);
        out
    }

    fn lane(out: &crate::ExecOutcome<MixedWave<PingPong>>, mid: usize, tag: u64) -> &PingPong {
        let wave = &out.programs[mid];
        &wave.lanes[wave.position(tag).unwrap()].program
    }

    fn rng_positions(cluster: &mut Cluster) -> Vec<u64> {
        (0..cluster.machines())
            .map(|mid| cluster.rng(mid).next_u64())
            .collect()
    }

    /// Every lane ends where its solo run ends: same traffic, and — per
    /// the policy — the same draws (private) or the same machine stream
    /// position as the sequential composition (shared).
    pub(crate) fn lanes_match_solo_runs(policy: Policy) {
        let budgets = [1u64, 3, 2];
        // Solo references: the shared policy replays the sequential
        // composition on one cluster (one stream, instance-major); the
        // private policy runs each instance on a cluster seeded with
        // its lane seed.
        let mut sequential = two_machine_cluster(SEED);
        let solo: Vec<Vec<PingPong>> = budgets
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                let mut fresh = two_machine_cluster(SEED + i as u64);
                let cluster = match policy {
                    Policy::Shared => &mut sequential,
                    Policy::Private => &mut fresh,
                };
                Executor::serial("solo")
                    .run(cluster, pair(b))
                    .unwrap()
                    .programs
            })
            .collect();

        let mut cluster = two_machine_cluster(SEED);
        let built = waves(policy, &cluster, &budgets);
        let out = run_waves(&mut cluster, built, budgets.len());

        // The combined run takes max(solo rounds) — budget b finishes
        // in b + 1 rounds — not the sum.
        assert_eq!(out.rounds, 3 + 1, "{policy:?}: combined rounds");
        for (i, programs) in solo.iter().enumerate() {
            for mid in 0..2 {
                let got = lane(&out, mid, i as u64);
                assert_eq!(got.received, programs[mid].received, "{policy:?} {i}/{mid}");
                if policy == Policy::Private {
                    assert_eq!(got.draws, programs[mid].draws, "{policy:?} {i}/{mid}");
                }
            }
        }
        match policy {
            // Same number of draws from the one stream per machine.
            Policy::Shared => {
                assert_eq!(rng_positions(&mut cluster), rng_positions(&mut sequential))
            }
            // Private lanes never touch the machine stream.
            Policy::Private => assert_eq!(
                rng_positions(&mut cluster),
                rng_positions(&mut two_machine_cluster(SEED))
            ),
        }
    }

    pub(crate) fn retired_lanes_contribute_zero_traffic_to_later_rounds(policy: Policy) {
        // The controller on machine 0 retires lane 1 after round 1,
        // discarding its staged outbox — so rounds ≥ 2 carry only lane
        // 0's traffic and lane 1's peer is never reactivated.
        let mut cluster = two_machine_cluster(SEED);
        let mut built = waves(policy, &cluster, &[6, 6]);
        built[0].set_controller(Arc::new(
            |ctx: &MachineCtx<'_>, lanes: &mut [MixedLane<PingPong>]| {
                if ctx.round == 1 {
                    lanes[1].retire();
                }
            },
        ));
        let out = run_waves(&mut cluster, built, 2);

        assert!(out.programs[0].lanes[1].retired, "{policy:?}");
        let log = cluster.round_log();
        assert!(
            log[1].total_words >= 3,
            "{policy:?}: both lanes live at round 1"
        );
        for rec in &log[2..] {
            assert!(
                rec.total_words <= 2,
                "{policy:?}: retired lane leaked traffic into {}: {} words",
                rec.label,
                rec.total_words
            );
        }
        // Lane 1's machine-1 half stopped at the retirement point;
        // lane 0 ran to completion.
        assert!(lane(&out, 1, 1).received < lane(&out, 1, 0).received);
    }

    pub(crate) fn halted_lanes_reactivate_on_tagged_mail(policy: Policy) {
        // Lane 0 finishes long before lane 1; the machine as a whole
        // must stay live and lane 1's late mail must still be delivered
        // (per-lane halt mirrors machine-level halt).
        let mut cluster = two_machine_cluster(SEED);
        let built = waves(policy, &cluster, &[1, 5]);
        let out = run_waves(&mut cluster, built, 2);
        assert_eq!(
            lane(&out, 0, 1).received,
            10 + 20 + 30 + 40 + 50,
            "{policy:?}"
        );
        assert_eq!(lane(&out, 1, 1).received, 1 + 2 + 3 + 4 + 5, "{policy:?}");
    }
}

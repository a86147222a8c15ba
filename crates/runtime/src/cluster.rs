//! The [`Cluster`]: machines, rounds, and resource accounting.

use crate::config::{ClusterConfig, Enforcement};
use crate::cost::CostModel;
use crate::error::ModelViolation;
use crate::fault::{Fault, FaultPlan, FiredFault};
use crate::label::RoundLabel;
use crate::payload::{MachineId, Payload};
use crate::telemetry::{TraceEvent, TraceSink};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-round accounting record (one entry per [`Cluster::exchange`]).
#[derive(Clone, Debug, PartialEq)]
pub struct RoundRecord {
    /// Label supplied by the algorithm (e.g. `"mst.collect-lightest"`,
    /// or an interned prefix + round counter on the engine's hot path).
    pub label: RoundLabel,
    /// Maximum words sent by any single machine this round.
    pub max_sent: usize,
    /// Maximum words received by any single machine this round.
    pub max_recv: usize,
    /// Total words moved this round.
    pub total_words: usize,
    /// Total number of messages this round.
    pub messages: usize,
    /// Local-computation words charged via [`Cluster::charge_work`] since
    /// the previous round, summed over machines.
    pub total_work: u64,
    /// Simulated duration of the round under the cluster's
    /// [`CostModel`]: the barrier waits for the slowest machine.
    pub makespan: f64,
}

/// One row of [`Cluster::round_summary`]: rounds, traffic, and simulated
/// time attributed to one exchange-label group (the label's first
/// dot-separated component, e.g. every `mst.kkt.*` exchange under `mst`).
#[derive(Clone, Debug, PartialEq)]
pub struct RoundSummary {
    /// The label group (first dot-separated component of the round label).
    pub label: String,
    /// Number of exchange rounds attributed to this group.
    pub rounds: u64,
    /// Total words moved by this group's rounds.
    pub total_words: usize,
    /// Summed simulated makespan of this group's rounds (seconds).
    pub makespan: f64,
}

/// The cluster's trace-sink slot, newtype-wrapped so [`Cluster`] can keep
/// its `Debug` derive without requiring `Debug` of every sink.
struct SinkSlot(Option<Arc<dyn TraceSink>>);

impl std::fmt::Debug for SinkSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(_) => f.write_str("Some(<dyn TraceSink>)"),
            None => f.write_str("None"),
        }
    }
}

/// A simulated MPC cluster (paper §2).
///
/// The cluster holds no algorithm state; algorithms keep their data in
/// [`ShardedVec`](crate::ShardedVec)s aligned with machine ids and move it
/// with [`exchange`](Cluster::exchange) (or the [`primitives`](crate::primitives)).
/// The cluster's job is accounting: rounds, per-round communication, and
/// declared resident memory, all checked against capacities.
///
/// Machine `0` is the large machine in heterogeneous topologies.
#[derive(Debug)]
pub struct Cluster {
    caps: Vec<usize>,
    /// Combined-round capacity multiplier (see
    /// [`set_capacity_factor`](Cluster::set_capacity_factor)); 1 outside
    /// batched and service waves.
    cap_factor: usize,
    large: Option<MachineId>,
    rngs: Vec<SmallRng>,
    rounds: u64,
    enforcement: Enforcement,
    log: Vec<RoundRecord>,
    violations: Vec<ModelViolation>,
    /// slot name -> per-machine resident words.
    memory_slots: BTreeMap<String, Vec<usize>>,
    peak_resident: Vec<usize>,
    config: ClusterConfig,
    cost: CostModel,
    /// Local-computation words charged since the last exchange.
    pending_work: Vec<u64>,
    /// Per-round scratch (words sent per machine), reused across exchanges
    /// so the round hot path allocates nothing.
    sent_scratch: Vec<usize>,
    /// Per-round scratch: words addressed to each machine.
    recv_scratch: Vec<usize>,
    /// Per-round scratch: message count per destination, used to pre-size
    /// inboxes before delivery.
    inbox_counts: Vec<usize>,
    /// Telemetry sink; `None` keeps the exchange hot path allocation-free
    /// (one branch per round is the whole cost of the feature when off).
    sink: SinkSlot,
    /// Label of the most recent exchange — attributes between-round memory
    /// violations to the exchange that preceded them.
    last_label: RoundLabel,
    /// Scheduled fault injection; `None` keeps the exchange hot path on
    /// the zero-overhead fault-free branch (same contract as the sink).
    fault_plan: Option<FaultPlan>,
    /// Whether the *next* exchange is fault-eligible for crash/drop faults
    /// (set by the driver around algorithm exchanges; recovery
    /// infrastructure runs disarmed).
    armed: bool,
    /// Faults fired since the last [`take_fired_faults`]
    /// (Cluster::take_fired_faults) — the driver's recovery work queue.
    fired: Vec<FiredFault>,
    /// Simulated seconds (retry backoff) charged to the next exchange's
    /// makespan.
    pending_delay: f64,
}

/// The per-machine private RNG stream for machine `mid` under master seed
/// `seed` — the exact derivation [`Cluster::new`] uses, exposed so a
/// scheduler can mint a *detached* stream (e.g. one per admitted job) that
/// is bit-identical to the stream a fresh cluster seeded with `seed` would
/// hand that machine. Two jobs with different seeds get independent
/// streams; a job replayed solo on a cluster seeded with its job seed
/// draws the very same values.
pub fn machine_rng(seed: u64, mid: MachineId) -> SmallRng {
    SmallRng::seed_from_u64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((mid as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9)),
    )
}

impl Cluster {
    /// Builds a cluster from a configuration.
    pub fn new(config: ClusterConfig) -> Self {
        let (caps, large) = config.resolve();
        let k = caps.len();
        let rngs = (0..k).map(|i| machine_rng(config.seed, i)).collect();
        Cluster {
            peak_resident: vec![0; k],
            cost: CostModel::uniform(k, 1.0, 1.0, 0.0),
            pending_work: vec![0; k],
            sent_scratch: vec![0; k],
            recv_scratch: vec![0; k],
            inbox_counts: vec![0; k],
            caps,
            cap_factor: 1,
            large,
            rngs,
            rounds: 0,
            enforcement: config.enforcement,
            log: Vec::new(),
            violations: Vec::new(),
            memory_slots: BTreeMap::new(),
            config,
            sink: SinkSlot(None),
            last_label: RoundLabel::new("init"),
            fault_plan: None,
            armed: false,
            fired: Vec::new(),
            pending_delay: 0.0,
        }
    }

    /// Attaches (or, with `None`, detaches) a fault plan and returns the
    /// previous one. With a plan attached, every exchange checks the
    /// schedule and fires due faults; with no plan the hot path pays one
    /// branch per exchange (the zero-overhead guarantee DESIGN.md §2.7
    /// leans on).
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) -> Option<FaultPlan> {
        std::mem::replace(&mut self.fault_plan, plan)
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Marks the next exchange(s) fault-eligible (`true`) or protected
    /// (`false`) for crash/drop faults. Protected exchanges defer those
    /// faults instead of firing them — the driver protects setup and
    /// recovery-infrastructure exchanges so a crash always lands on a
    /// recoverable algorithm round. Delay/slowdown faults ignore arming.
    pub fn arm_faults(&mut self, armed: bool) {
        self.armed = armed;
    }

    /// Crash/drop faults that would fire on the next exchange *if it were
    /// armed* — the driver peeks this before an algorithm exchange to
    /// capture the mail it would lose.
    pub fn imminent_armed_faults(&self) -> Vec<Fault> {
        match &self.fault_plan {
            Some(plan) => plan
                .due(self.rounds + 1, true)
                .into_iter()
                .filter(Fault::needs_arming)
                .collect(),
            None => Vec::new(),
        }
    }

    /// Drains the faults fired since the last call (the driver's recovery
    /// work queue).
    pub fn take_fired_faults(&mut self) -> Vec<FiredFault> {
        std::mem::take(&mut self.fired)
    }

    /// Charges `seconds` of simulated stall (retry backoff) to the next
    /// exchange's makespan. Only takes effect while a fault plan is
    /// attached.
    pub fn add_pending_delay(&mut self, seconds: f64) {
        assert!(seconds >= 0.0, "delay cannot be negative");
        self.pending_delay += seconds;
    }

    /// Quarantines machine `mid` in the cost model (its seconds drop out
    /// of the barrier max until [`restore_machine`](Cluster::restore_machine)).
    pub fn quarantine_machine(&mut self, mid: MachineId) {
        self.cost.quarantine(mid);
    }

    /// Lifts a cost-model quarantine after recovery.
    pub fn restore_machine(&mut self, mid: MachineId) {
        self.cost.restore(mid);
    }

    /// Attaches (or, with `None`, detaches) a telemetry sink and returns
    /// the previous one, so a scoped consumer (e.g. a report builder) can
    /// restore whatever was installed before it.
    ///
    /// With a sink attached, every [`exchange`](Cluster::exchange) emits
    /// [`TraceEvent::RoundBegin`], one [`TraceEvent::MachineRound`] per
    /// machine, and [`TraceEvent::RoundEnd`]; violations emit
    /// [`TraceEvent::Violation`] in every [`Enforcement`] mode that
    /// reports them. With no sink the hot path pays exactly one branch
    /// per exchange and allocates nothing extra.
    pub fn set_trace_sink(
        &mut self,
        sink: Option<Arc<dyn TraceSink>>,
    ) -> Option<Arc<dyn TraceSink>> {
        std::mem::replace(&mut self.sink.0, sink)
    }

    /// The currently attached telemetry sink, if any (cloned handle).
    pub fn trace_sink(&self) -> Option<Arc<dyn TraceSink>> {
        self.sink.0.clone()
    }

    /// Whether a telemetry sink is attached (the branch the hot path takes).
    pub fn tracing(&self) -> bool {
        self.sink.0.is_some()
    }

    /// Number of machines (including the large machine, if any).
    pub fn machines(&self) -> usize {
        self.caps.len()
    }

    /// The large machine's id, if the topology has one.
    pub fn large(&self) -> Option<MachineId> {
        self.large
    }

    /// Ids of all non-large machines, in ascending order.
    ///
    /// Allocates a fresh `Vec` on every call; hot paths that only iterate
    /// should prefer [`small_ids_iter`](Cluster::small_ids_iter).
    pub fn small_ids(&self) -> Vec<MachineId> {
        self.small_ids_iter().collect()
    }

    /// Iterator over all non-large machine ids, ascending — the
    /// allocation-free counterpart of [`small_ids`](Cluster::small_ids).
    pub fn small_ids_iter(&self) -> impl Iterator<Item = MachineId> + '_ {
        let large = self.large;
        (0..self.machines()).filter(move |&i| Some(i) != large)
    }

    /// Capacity of machine `mid` in words, scaled by the current
    /// [capacity factor](Cluster::set_capacity_factor).
    pub fn capacity(&self, mid: MachineId) -> usize {
        self.caps[mid].saturating_mul(self.cap_factor)
    }

    /// Scales every capacity check by `factor` — the combined-round budget
    /// of a wave (`mpc_exec::MixedWave`). When `N` independent program
    /// instances are interleaved into one bulk-synchronous run, a physical
    /// round carries the union of the live instances' traffic, and each
    /// instance legitimately commands its *own* per-round word budget (the
    /// paper's parallel composition gives every parallel instance its own
    /// `Õ(·)` memory; the instance count itself is a polylog quantity for
    /// the Theorem C.2 / C.4 grids). Callers set the factor to the instance
    /// count for the duration of a batched run and reset it to 1 afterward;
    /// per-*instance* decisions must use the unscaled solo capacity,
    /// snapshotted before the factor is applied.
    ///
    /// # Panics
    ///
    /// Panics on a zero factor.
    pub fn set_capacity_factor(&mut self, factor: usize) {
        assert!(factor > 0, "capacity factor must be at least 1");
        self.cap_factor = factor;
    }

    /// The current combined-round capacity multiplier.
    pub fn capacity_factor(&self) -> usize {
        self.cap_factor
    }

    /// The smallest capacity among non-large machines.
    pub fn min_small_capacity(&self) -> usize {
        self.small_ids_iter()
            .map(|i| self.capacity(i))
            .min()
            .unwrap_or(0)
    }

    /// Rounds elapsed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The configuration this cluster was built from.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The per-machine private RNG (deterministic in the master seed).
    pub fn rng(&mut self, mid: MachineId) -> &mut SmallRng {
        &mut self.rngs[mid]
    }

    /// All per-machine RNGs at once, so an execution engine can step every
    /// machine concurrently while each machine still consumes exactly its
    /// own private stream (index `mid`).
    pub fn rngs_mut(&mut self) -> &mut [SmallRng] {
        &mut self.rngs
    }

    /// Replaces the cluster's [`CostModel`] (defaults to
    /// [`CostModel::uniform`] with unit rates and zero latency).
    ///
    /// # Panics
    ///
    /// Panics if the model covers a different number of machines.
    pub fn set_cost_model(&mut self, cost: CostModel) {
        assert_eq!(
            cost.machines(),
            self.machines(),
            "cost model machine count mismatch"
        );
        self.cost = cost;
    }

    /// The active cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Charges `words` of local computation to machine `mid`; the next
    /// [`exchange`](Cluster::exchange) folds it into that round's makespan.
    /// "Free local computation" in the paper's sense still takes wall-clock
    /// time on a real machine — this is how an execution engine reports it.
    pub fn charge_work(&mut self, mid: MachineId, words: u64) {
        assert!(
            mid < self.machines(),
            "charge_work: machine {mid} out of range"
        );
        self.pending_work[mid] = self.pending_work[mid].saturating_add(words);
    }

    /// Total simulated execution time so far: the sum of per-round
    /// makespans (the critical path of the synchronous schedule).
    pub fn critical_path_seconds(&self) -> f64 {
        self.log.iter().map(|r| r.makespan).sum()
    }

    /// The full per-round log.
    pub fn round_log(&self) -> &[RoundRecord] {
        &self.log
    }

    /// Violations recorded so far (only populated in `Record` mode).
    pub fn violations(&self) -> &[ModelViolation] {
        &self.violations
    }

    /// Peak declared resident words per machine.
    pub fn peak_resident(&self) -> &[usize] {
        &self.peak_resident
    }

    /// Pre-sized outbox vector for [`exchange`](Cluster::exchange):
    /// one empty message list per machine.
    pub fn empty_outboxes<M: Payload>(&self) -> Vec<Vec<(MachineId, M)>> {
        (0..self.machines()).map(|_| Vec::new()).collect()
    }

    /// Emits a [`TraceEvent::Violation`] for `v` if a sink is attached.
    fn emit_violation(&self, v: &ModelViolation) {
        if let Some(sink) = &self.sink.0 {
            sink.record(&TraceEvent::Violation {
                round: v.round(),
                label: v.label().to_string(),
                kind: v.kind(),
                message: v.to_string(),
            });
        }
    }

    fn report(&mut self, v: ModelViolation) -> Result<(), ModelViolation> {
        self.emit_violation(&v);
        match self.enforcement {
            Enforcement::Strict => Err(v),
            Enforcement::Record => {
                self.violations.push(v);
                Ok(())
            }
            Enforcement::Off => Ok(()),
        }
    }

    /// Executes one synchronous round.
    ///
    /// `outgoing[src]` holds the messages machine `src` sends this round as
    /// `(destination, payload)` pairs. Returns `inboxes`, where
    /// `inboxes[dst]` lists `(source, payload)` pairs in deterministic order
    /// (ascending source id, then send order).
    ///
    /// Allocates the returned inboxes; round-loop hot paths that can hold
    /// onto buffers across rounds should use
    /// [`exchange_into`](Cluster::exchange_into) instead.
    ///
    /// # Errors
    ///
    /// In `Strict` mode, returns a [`ModelViolation`] if any machine sends or
    /// is addressed with more words than its capacity, or if a destination id
    /// is out of range (the latter errors in every mode).
    pub fn exchange<M: Payload>(
        &mut self,
        label: &str,
        mut outgoing: Vec<Vec<(MachineId, M)>>,
    ) -> Result<Vec<Vec<(MachineId, M)>>, ModelViolation> {
        let mut inboxes = Vec::new();
        self.exchange_into(RoundLabel::new(label), &mut outgoing, &mut inboxes)?;
        Ok(inboxes)
    }

    /// [`exchange`](Cluster::exchange) with caller-owned buffers: the
    /// engine's zero-allocation round path.
    ///
    /// Drains `outgoing` into `inboxes` (cleared and pre-sized from the
    /// counting pass; spare capacity is retained). Holding both buffer sets
    /// across rounds makes the steady-state exchange allocation-free apart
    /// from inbox growth on the first rounds.
    ///
    /// # Errors
    ///
    /// See [`exchange`](Cluster::exchange). On error `outgoing` is left
    /// undrained and `inboxes` is left untouched — a buffer-reusing caller
    /// must treat its contents (stale messages from the previous round) as
    /// garbage and abort or clear.
    ///
    /// # Panics
    ///
    /// Panics if `outgoing` does not have one entry per machine.
    pub fn exchange_into<M: Payload>(
        &mut self,
        label: RoundLabel,
        outgoing: &mut [Vec<(MachineId, M)>],
        inboxes: &mut Vec<Vec<(MachineId, M)>>,
    ) -> Result<(), ModelViolation> {
        assert_eq!(
            outgoing.len(),
            self.machines(),
            "outgoing must have one entry per machine (use empty_outboxes)"
        );
        let k = self.machines();
        self.rounds += 1;
        let round = self.rounds;
        // A RoundLabel clone is an Arc refcount bump — cheap enough to pay
        // unconditionally so Record-mode memory violations can name the
        // exchange they follow even with no sink attached.
        self.last_label = label.clone();
        if let Some(sink) = &self.sink.0 {
            sink.record(&TraceEvent::RoundBegin {
                round,
                label: label.to_string(),
            });
        }
        self.sent_scratch.fill(0);
        self.recv_scratch.fill(0);
        self.inbox_counts.fill(0);
        let mut messages = 0usize;
        for (src, msgs) in outgoing.iter().enumerate() {
            for (dst, m) in msgs {
                if *dst >= k {
                    let v = ModelViolation::UnknownMachine {
                        machine: *dst,
                        round,
                        label: label.to_string(),
                    };
                    self.emit_violation(&v);
                    return Err(v);
                }
                let w = m.words();
                self.sent_scratch[src] += w;
                self.recv_scratch[*dst] += w;
                self.inbox_counts[*dst] += 1;
                messages += 1;
            }
        }
        for mid in 0..k {
            let (sent, recv, cap) = (
                self.sent_scratch[mid],
                self.recv_scratch[mid],
                self.capacity(mid),
            );
            if sent > cap {
                self.report(ModelViolation::SendOverflow {
                    machine: mid,
                    round,
                    label: label.to_string(),
                    words: sent,
                    capacity: cap,
                })?;
            }
            if recv > cap {
                self.report(ModelViolation::RecvOverflow {
                    machine: mid,
                    round,
                    label: label.to_string(),
                    words: recv,
                    capacity: cap,
                })?;
            }
        }
        // Fault injection (one branch per round when no plan is attached).
        // Faults fire *after* the capacity checks — a crashing machine's
        // attempted traffic still had to fit the model — and *before* the
        // makespan, so a quarantined machine's seconds drop out of the
        // barrier max for the very round it dies in.
        let mut crashed: Vec<MachineId> = Vec::new();
        let mut dropped: Vec<MachineId> = Vec::new();
        let mut extra_delay = 0.0f64;
        if let Some(plan) = &mut self.fault_plan {
            extra_delay = std::mem::take(&mut self.pending_delay);
            let fired = plan.fire_due(round, self.armed);
            for ff in &fired {
                match &ff.fault {
                    Fault::Crash { machine, .. } => {
                        self.cost.quarantine(*machine);
                        crashed.push(*machine);
                    }
                    Fault::DropExchange { machine, .. } => dropped.push(*machine),
                    Fault::DelayRound { seconds, .. } => extra_delay += seconds,
                    Fault::Slowdown {
                        machine, factor, ..
                    } => self.cost.slow_down(*machine, *factor),
                }
                if let Some(sink) = &self.sink.0 {
                    sink.record(&TraceEvent::FaultInjected {
                        round,
                        kind: ff.fault.kind(),
                        detail: ff.fault.detail(),
                    });
                }
            }
            self.fired.extend(fired);
        }
        let mut makespan =
            self.cost
                .round_makespan(&self.sent_scratch, &self.recv_scratch, &self.pending_work);
        if self.fault_plan.is_some() {
            makespan += extra_delay;
        }
        if let Some(sink) = &self.sink.0 {
            for mid in 0..k {
                let (sent, recv, work) = (
                    self.sent_scratch[mid],
                    self.recv_scratch[mid],
                    self.pending_work[mid],
                );
                sink.record(&TraceEvent::MachineRound {
                    round,
                    machine: mid,
                    sent_words: sent,
                    recv_words: recv,
                    work,
                    seconds: self.cost.machine_round_seconds(mid, sent, recv, work),
                    capacity: self.capacity(mid),
                });
            }
            sink.record(&TraceEvent::RoundEnd {
                round,
                label: label.to_string(),
                total_words: self.sent_scratch.iter().sum(),
                messages,
                makespan,
            });
        }
        self.log.push(RoundRecord {
            label,
            max_sent: self.sent_scratch.iter().copied().max().unwrap_or(0),
            max_recv: self.recv_scratch.iter().copied().max().unwrap_or(0),
            total_words: self.sent_scratch.iter().sum(),
            messages,
            total_work: self.pending_work.iter().sum(),
            makespan,
        });
        self.pending_work.fill(0);
        // Deliver deterministically: ascending source, preserving send order.
        // Each inbox is pre-sized exactly, so the push loop never reallocates.
        inboxes.resize_with(k, Vec::new);
        for (dst, inbox) in inboxes.iter_mut().enumerate() {
            inbox.clear();
            inbox.reserve(self.inbox_counts[dst]);
        }
        if crashed.is_empty() && dropped.is_empty() {
            for (src, msgs) in outgoing.iter_mut().enumerate() {
                for (dst, m) in msgs.drain(..) {
                    inboxes[dst].push((src, m));
                }
            }
        } else {
            // A crash loses the machine's messages in both directions (its
            // inbox stays empty); a drop loses only its outbound mail.
            for (src, msgs) in outgoing.iter_mut().enumerate() {
                let src_lost = crashed.contains(&src) || dropped.contains(&src);
                for (dst, m) in msgs.drain(..) {
                    if src_lost || crashed.contains(&dst) {
                        continue;
                    }
                    inboxes[dst].push((src, m));
                }
            }
        }
        Ok(())
    }

    /// Declares the resident memory of machine `mid` under accounting slot
    /// `slot` (replacing the slot's previous value). A machine's resident
    /// total is the sum over all slots; the update is checked against the
    /// machine's capacity.
    ///
    /// The slot value is recorded (and counted toward the peak) *before*
    /// the capacity check — a failed `Strict` account therefore leaves the
    /// slot set, and the caller releases it like any other slot.
    ///
    /// # Errors
    ///
    /// In `Strict` mode, returns [`ModelViolation::MemoryOverflow`] if the
    /// machine's total resident memory now exceeds its capacity.
    pub fn account(
        &mut self,
        slot: &str,
        mid: MachineId,
        words: usize,
    ) -> Result<(), ModelViolation> {
        let k = self.machines();
        assert!(mid < k, "account: machine {mid} out of range");
        // Look up with the borrowed key first: repeated accounting into an
        // existing slot must not allocate a fresh `String` per call.
        match self.memory_slots.get_mut(slot) {
            Some(per_machine) => per_machine[mid] = words,
            None => {
                let mut per_machine = vec![0; k];
                per_machine[mid] = words;
                self.memory_slots.insert(slot.to_string(), per_machine);
            }
        }
        let total: usize = self.memory_slots.values().map(|v| v[mid]).sum();
        self.peak_resident[mid] = self.peak_resident[mid].max(total);
        if total > self.capacity(mid) {
            let round = self.rounds;
            let cap = self.capacity(mid);
            self.report(ModelViolation::MemoryOverflow {
                machine: mid,
                round,
                label: self.last_label.to_string(),
                slot: slot.to_string(),
                words: total,
                capacity: cap,
            })?;
        }
        Ok(())
    }

    /// Declares per-machine resident memory for a whole slot at once.
    ///
    /// # Errors
    ///
    /// See [`account`](Cluster::account).
    pub fn account_all(
        &mut self,
        slot: &str,
        words_per_machine: &[usize],
    ) -> Result<(), ModelViolation> {
        assert_eq!(words_per_machine.len(), self.machines());
        for (mid, &w) in words_per_machine.iter().enumerate() {
            self.account(slot, mid, w)?;
        }
        Ok(())
    }

    /// Clears an accounting slot (the data was dropped).
    pub fn release(&mut self, slot: &str) {
        self.memory_slots.remove(slot);
    }

    /// Current declared resident words of machine `mid`.
    pub fn resident(&self, mid: MachineId) -> usize {
        self.memory_slots.values().map(|v| v[mid]).sum()
    }

    /// Maximum words sent or received by any machine in any round so far.
    pub fn max_round_traffic(&self) -> usize {
        self.log
            .iter()
            .map(|r| r.max_sent.max(r.max_recv))
            .max()
            .unwrap_or(0)
    }

    /// Attributes rounds, traffic, and simulated time to algorithm steps:
    /// groups the round log by the label's first dot-separated component
    /// (e.g. every `mst.kkt.*` exchange under `mst`), returning one
    /// [`RoundSummary`] per group, sorted by round count descending.
    ///
    /// Useful for answering "where did my rounds (and my wall-clock) go?"
    /// in experiments.
    pub fn round_summary(&self) -> Vec<RoundSummary> {
        let mut acc: std::collections::BTreeMap<String, (u64, usize, f64)> =
            std::collections::BTreeMap::new();
        for rec in &self.log {
            let e = acc.entry(rec.label.group().to_string()).or_default();
            e.0 += 1;
            e.1 += rec.total_words;
            e.2 += rec.makespan;
        }
        let mut v: Vec<RoundSummary> = acc
            .into_iter()
            .map(|(label, (rounds, total_words, makespan))| RoundSummary {
                label,
                rounds,
                total_words,
                makespan,
            })
            .collect();
        v.sort_by_key(|s| std::cmp::Reverse(s.rounds));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Topology;

    fn tiny() -> Cluster {
        Cluster::new(ClusterConfig::new(16, 64).topology(Topology::Custom {
            capacities: vec![100, 20, 20],
            large: Some(0),
        }))
    }

    #[test]
    fn exchange_counts_rounds_and_delivers_in_order() {
        let mut c = tiny();
        let mut out = c.empty_outboxes::<u64>();
        out[1].push((0, 11));
        out[2].push((0, 22));
        out[2].push((1, 33));
        let inboxes = c.exchange("t", out).unwrap();
        assert_eq!(c.rounds(), 1);
        assert_eq!(inboxes[0], vec![(1, 11), (2, 22)]);
        assert_eq!(inboxes[1], vec![(2, 33)]);
        assert!(inboxes[2].is_empty());
        let rec = &c.round_log()[0];
        assert_eq!(rec.total_words, 3);
        assert_eq!(rec.messages, 3);
        assert_eq!(rec.max_sent, 2);
    }

    #[test]
    fn send_overflow_is_strict_error() {
        let mut c = tiny();
        let mut out = c.empty_outboxes::<u64>();
        for _ in 0..25 {
            out[1].push((0, 7)); // 25 words > capacity 20 of machine 1
        }
        let err = c.exchange("overflow", out).unwrap_err();
        assert!(matches!(
            err,
            ModelViolation::SendOverflow { machine: 1, .. }
        ));
    }

    #[test]
    fn recv_overflow_detected() {
        let mut c = tiny();
        let mut out = c.empty_outboxes::<u64>();
        for _ in 0..25 {
            out[0].push((2, 7)); // large can send 25, but machine 2 can't hold it
        }
        let err = c.exchange("overflow", out).unwrap_err();
        assert!(matches!(
            err,
            ModelViolation::RecvOverflow { machine: 2, .. }
        ));
    }

    #[test]
    fn record_mode_logs_instead_of_failing() {
        let cfg = ClusterConfig::new(16, 64)
            .topology(Topology::Custom {
                capacities: vec![5, 5],
                large: None,
            })
            .enforcement(Enforcement::Record);
        let mut c = Cluster::new(cfg);
        let mut out = c.empty_outboxes::<u64>();
        for _ in 0..9 {
            out[0].push((1, 1));
        }
        c.exchange("spam", out).unwrap();
        assert_eq!(c.violations().len(), 2); // send + recv overflow
    }

    #[test]
    fn memory_slots_sum_and_release() {
        let mut c = tiny();
        c.account("edges", 1, 12).unwrap();
        c.account("labels", 1, 6).unwrap();
        assert_eq!(c.resident(1), 18);
        assert!(c.account("more", 1, 10).is_err()); // 28 > 20
                                                    // `account` records the slot value *before* the capacity check, so
                                                    // a failed Strict account leaves the slot set: the 10 words of
                                                    // "more" are resident (and count toward the peak) until released.
        assert_eq!(c.resident(1), 28);
        assert_eq!(c.peak_resident()[1], 28);
        c.release("labels");
        c.release("more");
        assert_eq!(c.resident(1), 12);
    }

    #[test]
    fn capacity_factor_scales_the_checks_and_resets() {
        let mut c = tiny();
        let mut out = c.empty_outboxes::<u64>();
        for _ in 0..25 {
            out[1].push((0, 7)); // 25 words > solo capacity 20 of machine 1
        }
        // Under a 2× combined-round budget the same volume is legal.
        c.set_capacity_factor(2);
        assert_eq!(c.capacity(1), 40);
        c.exchange("mux", out).unwrap();
        // Reset: the solo budget is enforced again.
        c.set_capacity_factor(1);
        let mut out = c.empty_outboxes::<u64>();
        for _ in 0..25 {
            out[1].push((0, 7));
        }
        assert!(matches!(
            c.exchange("solo", out),
            Err(ModelViolation::SendOverflow { machine: 1, .. })
        ));
    }

    #[test]
    fn unknown_machine_is_error_in_all_modes() {
        let cfg = ClusterConfig::new(16, 64)
            .topology(Topology::Custom {
                capacities: vec![5, 5],
                large: None,
            })
            .enforcement(Enforcement::Off);
        let mut c = Cluster::new(cfg);
        let mut out = c.empty_outboxes::<u64>();
        out[0].push((9, 1));
        assert!(matches!(
            c.exchange("bad", out),
            Err(ModelViolation::UnknownMachine { machine: 9, .. })
        ));
    }

    #[test]
    fn rngs_are_deterministic_and_distinct() {
        use rand::RngCore;
        let mut a = tiny();
        let mut b = tiny();
        assert_eq!(a.rng(1).next_u64(), b.rng(1).next_u64());
        let x = a.rng(1).next_u64();
        let y = a.rng(2).next_u64();
        assert_ne!(x, y);
    }

    #[test]
    fn round_summary_groups_by_label_prefix() {
        let mut c = tiny();
        for label in ["mst.sort", "mst.collect", "spanner.hist"] {
            let mut out = c.empty_outboxes::<u64>();
            out[1].push((0, 1));
            c.exchange(label, out).unwrap();
        }
        let summary = c.round_summary();
        assert_eq!(summary.len(), 2);
        let mst = summary.iter().find(|s| s.label == "mst").unwrap();
        assert_eq!(mst.rounds, 2);
        assert_eq!(mst.total_words, 2);
        // Unit-rate default cost model: each round's makespan equals its
        // bottleneck word count (1 word sent or received per round here).
        assert!((mst.makespan - 2.0).abs() < 1e-9);
    }

    #[test]
    fn trace_sink_sees_round_machine_and_violation_events() {
        use crate::telemetry::{RingSink, TraceEvent};

        let cfg = ClusterConfig::new(16, 64)
            .topology(Topology::Custom {
                capacities: vec![100, 20, 20],
                large: Some(0),
            })
            .enforcement(Enforcement::Record);
        let mut c = Cluster::new(cfg);
        let ring = std::sync::Arc::new(RingSink::unbounded());
        assert!(!c.tracing());
        assert!(c.set_trace_sink(Some(ring.clone())).is_none());
        assert!(c.tracing());

        c.charge_work(1, 8);
        let mut out = c.empty_outboxes::<u64>();
        for _ in 0..25 {
            out[1].push((0, 7)); // 25 > capacity 20: Record-mode violation
        }
        c.exchange("trace.r000", out).unwrap();

        let events = ring.events();
        // RoundBegin + one MachineRound per machine + Violation + RoundEnd.
        assert!(matches!(
            &events[0],
            TraceEvent::RoundBegin { round: 1, label } if label == "trace.r000"
        ));
        let machine_rounds: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::MachineRound {
                    machine,
                    sent_words,
                    work,
                    capacity,
                    ..
                } => Some((*machine, *sent_words, *work, *capacity)),
                _ => None,
            })
            .collect();
        assert_eq!(machine_rounds.len(), 3);
        assert_eq!(machine_rounds[1], (1, 25, 8, 20));
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::Violation {
                kind: "send_overflow",
                round: 1,
                ..
            }
        )));
        let rec = &c.round_log()[0];
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::RoundEnd { round: 1, total_words, makespan, .. }
                if *total_words == rec.total_words && *makespan == rec.makespan
        )));

        // Detaching returns the sink and stops emission.
        let prev = c.set_trace_sink(None);
        assert!(prev.is_some());
        let n = ring.len();
        let out = c.empty_outboxes::<u64>();
        c.exchange("silent", out).unwrap();
        assert_eq!(ring.len(), n);
    }

    #[test]
    fn memory_violation_names_the_preceding_exchange() {
        let cfg = ClusterConfig::new(16, 64)
            .topology(Topology::Custom {
                capacities: vec![100, 20, 20],
                large: Some(0),
            })
            .enforcement(Enforcement::Record);
        let mut c = Cluster::new(cfg);
        let out = c.empty_outboxes::<u64>();
        c.exchange("setup.shuffle", out).unwrap();
        c.account("edges", 1, 50).unwrap();
        let v = &c.violations()[0];
        assert_eq!(v.kind(), "memory_overflow");
        assert_eq!(v.round(), 1);
        assert_eq!(v.label(), "setup.shuffle");
    }

    #[test]
    fn charged_work_flows_into_makespan_and_resets() {
        let mut c = tiny();
        c.set_cost_model(crate::cost::CostModel::uniform(3, 2.0, 1.0, 0.0));
        c.charge_work(1, 10); // 10 words at speed 2 => 5 seconds
        let out = c.empty_outboxes::<u64>();
        c.exchange("work", out).unwrap();
        let rec = &c.round_log()[0];
        assert_eq!(rec.total_work, 10);
        assert!((rec.makespan - 5.0).abs() < 1e-9);
        // Pending work was consumed by the exchange.
        let out = c.empty_outboxes::<u64>();
        c.exchange("idle", out).unwrap();
        assert_eq!(c.round_log()[1].total_work, 0);
        assert!((c.critical_path_seconds() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn straggler_cost_model_stretches_rounds() {
        let mut c = tiny();
        let uniform_span = {
            let mut out = c.empty_outboxes::<u64>();
            out[1].push((0, 1));
            out[1].push((0, 2));
            c.exchange("t", out).unwrap();
            c.round_log()[0].makespan
        };
        let mut s = tiny();
        s.set_cost_model(crate::cost::CostModel::uniform(3, 1.0, 1.0, 0.0).with_straggler(1, 0.1));
        let mut out = s.empty_outboxes::<u64>();
        out[1].push((0, 1));
        out[1].push((0, 2));
        s.exchange("t", out).unwrap();
        assert!(s.round_log()[0].makespan > 9.0 * uniform_span);
    }

    #[test]
    fn small_ids_excludes_large() {
        let c = tiny();
        assert_eq!(c.small_ids(), vec![1, 2]);
        assert_eq!(c.small_ids_iter().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(c.large(), Some(0));
        assert_eq!(c.min_small_capacity(), 20);
    }

    #[test]
    fn exchange_into_reuses_buffers_and_matches_exchange() {
        use crate::label::RoundLabel;
        use std::sync::Arc;

        // Reference: the allocating API.
        let mut a = tiny();
        let mut out = a.empty_outboxes::<u64>();
        out[1].push((0, 11));
        out[2].push((0, 22));
        out[2].push((1, 33));
        let expect = a.exchange("x.r000", out).unwrap();

        // Same round through caller-owned buffers, twice, to exercise reuse.
        let mut b = tiny();
        let prefix: Arc<str> = Arc::from("x");
        let mut outgoing = b.empty_outboxes::<u64>();
        let mut inboxes: Vec<Vec<(MachineId, u64)>> = Vec::new();
        for round in 0..2u64 {
            outgoing[1].push((0, 11));
            outgoing[2].push((0, 22));
            outgoing[2].push((1, 33));
            b.exchange_into(
                RoundLabel::with_seq(&prefix, round),
                &mut outgoing,
                &mut inboxes,
            )
            .unwrap();
            assert_eq!(inboxes, expect, "round {round}");
            // Outboxes come back drained but usable for the next round.
            assert!(outgoing.iter().all(Vec::is_empty));
        }
        assert_eq!(b.rounds(), 2);
        assert_eq!(b.round_log()[0].label.to_string(), "x.r000");
        assert_eq!(
            b.round_log()[0].total_words,
            expect.iter().flatten().count()
        );
        // Accounting fields agree with the allocating path.
        assert_eq!(b.round_log()[0].max_sent, a.round_log()[0].max_sent);
        assert_eq!(b.round_log()[0].messages, a.round_log()[0].messages);
        assert!((b.round_log()[0].makespan - a.round_log()[0].makespan).abs() < 1e-12);
    }

    #[test]
    fn fault_free_runs_with_and_without_plan_slot_are_identical() {
        // No plan attached: behavior is byte-for-byte today's. A plan with
        // no due faults must also leave delivery and accounting untouched.
        let run = |plan: Option<crate::fault::FaultPlan>| {
            let mut c = tiny();
            c.set_fault_plan(plan);
            let mut out = c.empty_outboxes::<u64>();
            out[1].push((0, 11));
            out[2].push((1, 22));
            let inboxes = c.exchange("t", out).unwrap();
            (inboxes, c.round_log().to_vec())
        };
        let (base_in, base_log) = run(None);
        let plan = crate::fault::FaultPlan::new().with_fault(Fault::Crash {
            machine: 1,
            round: 99,
        });
        let (plan_in, plan_log) = run(Some(plan));
        assert_eq!(base_in, plan_in);
        assert_eq!(base_log, plan_log);
    }

    #[test]
    fn crash_fires_only_when_armed_and_empties_both_directions() {
        use crate::fault::{Fault, FaultPlan};
        let mut c = tiny();
        c.set_fault_plan(Some(FaultPlan::new().with_fault(Fault::Crash {
            machine: 1,
            round: 1,
        })));

        // Disarmed (setup) exchange: the crash defers, mail flows.
        let mut out = c.empty_outboxes::<u64>();
        out[1].push((0, 11));
        let inboxes = c.exchange("setup", out).unwrap();
        assert_eq!(inboxes[0], vec![(1, 11)]);
        assert!(c.take_fired_faults().is_empty());

        // The driver peeks the imminent crash before arming.
        let imminent = c.imminent_armed_faults();
        assert_eq!(imminent.len(), 1);
        assert!(matches!(imminent[0], Fault::Crash { machine: 1, .. }));

        // Armed exchange: machine 1's outbound and inbound mail vanish.
        c.arm_faults(true);
        let mut out = c.empty_outboxes::<u64>();
        out[1].push((0, 11)); // lost: src crashed
        out[2].push((1, 22)); // lost: dst crashed
        out[2].push((0, 33)); // survives
        let inboxes = c.exchange("main", out).unwrap();
        assert_eq!(inboxes[0], vec![(2, 33)]);
        assert!(inboxes[1].is_empty());
        let fired = c.take_fired_faults();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].round, 2);
        assert!(c.cost_model().is_quarantined(1));
        // Once fired, the fault never re-fires.
        c.restore_machine(1);
        let mut out = c.empty_outboxes::<u64>();
        out[1].push((0, 44));
        let inboxes = c.exchange("later", out).unwrap();
        assert_eq!(inboxes[0], vec![(1, 44)]);
    }

    #[test]
    fn crashed_straggler_stops_stretching_its_death_round() {
        use crate::fault::{Fault, FaultPlan};
        let mut c = tiny();
        c.set_cost_model(crate::cost::CostModel::uniform(3, 1.0, 1.0, 0.0).with_straggler(1, 0.1));
        c.set_fault_plan(Some(FaultPlan::new().with_fault(Fault::Crash {
            machine: 1,
            round: 1,
        })));
        c.arm_faults(true);
        let mut out = c.empty_outboxes::<u64>();
        out[1].push((0, 1));
        out[2].push((0, 2));
        c.exchange("t", out).unwrap();
        // Alive, machine 1's 1 word at bandwidth 0.1 would cost 10s; dead,
        // machine 2's 1-word send + large's 2-word recv set the barrier.
        let span = c.round_log()[0].makespan;
        assert!((span - 2.0).abs() < 1e-9, "span = {span}");
    }

    #[test]
    fn drop_slowdown_and_delay_faults_apply() {
        use crate::fault::{Fault, FaultPlan};
        let mut c = tiny();
        c.set_fault_plan(Some(
            FaultPlan::new()
                .with_fault(Fault::DropExchange {
                    machine: 2,
                    round: 1,
                })
                .with_fault(Fault::DelayRound {
                    round: 1,
                    seconds: 7.0,
                })
                .with_fault(Fault::Slowdown {
                    machine: 1,
                    round: 1,
                    factor: 0.5,
                }),
        ));
        c.arm_faults(true);
        let mut out = c.empty_outboxes::<u64>();
        out[2].push((0, 22)); // dropped in transit
        out[1].push((0, 11)); // delivered, at half bandwidth
        let inboxes = c.exchange("t", out).unwrap();
        assert_eq!(inboxes[0], vec![(1, 11)], "drop loses only src 2's mail");
        // Makespan: machine 1 sends 1 word at slowed bandwidth 0.5 => 2s,
        // large receives 2 attempted words => 2s; +7s delay.
        let span = c.round_log()[0].makespan;
        assert!((span - 9.0).abs() < 1e-9, "span = {span}");
        assert_eq!(c.take_fired_faults().len(), 3);
        assert!(!c.cost_model().is_quarantined(2), "drop is not a crash");
    }

    #[test]
    fn pending_delay_charges_the_next_exchange_once() {
        use crate::fault::FaultPlan;
        let mut c = tiny();
        c.set_fault_plan(Some(FaultPlan::new()));
        c.add_pending_delay(3.5);
        let out = c.empty_outboxes::<u64>();
        c.exchange("a", out).unwrap();
        assert!((c.round_log()[0].makespan - 3.5).abs() < 1e-9);
        let out = c.empty_outboxes::<u64>();
        c.exchange("b", out).unwrap();
        assert_eq!(c.round_log()[1].makespan, 0.0);
    }

    #[test]
    fn fault_events_reach_the_trace_sink() {
        use crate::fault::{Fault, FaultPlan};
        use crate::telemetry::RingSink;
        let mut c = tiny();
        let ring = std::sync::Arc::new(RingSink::unbounded());
        c.set_trace_sink(Some(ring.clone()));
        c.set_fault_plan(Some(FaultPlan::new().with_fault(Fault::Crash {
            machine: 2,
            round: 1,
        })));
        c.arm_faults(true);
        let out = c.empty_outboxes::<u64>();
        c.exchange("t", out).unwrap();
        assert!(ring.events().iter().any(|e| matches!(
            e,
            TraceEvent::FaultInjected {
                round: 1,
                kind: "crash",
                ..
            }
        )));
    }

    #[test]
    fn exchange_into_presizes_inboxes_exactly() {
        let mut c = tiny();
        let prefix: std::sync::Arc<str> = std::sync::Arc::from("size");
        let mut outgoing = c.empty_outboxes::<u64>();
        let mut inboxes: Vec<Vec<(MachineId, u64)>> = Vec::new();
        for _ in 0..7 {
            outgoing[0].push((1, 9));
        }
        c.exchange_into(
            crate::label::RoundLabel::with_seq(&prefix, 0),
            &mut outgoing,
            &mut inboxes,
        )
        .unwrap();
        assert_eq!(inboxes[1].len(), 7);
        assert!(inboxes[1].capacity() >= 7);
        assert!(inboxes[0].is_empty() && inboxes[2].is_empty());
    }
}

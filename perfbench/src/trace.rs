//! The benchmark's own trace sink, and the split of a traced unit's wall
//! time into the layers that spent it.
//!
//! The sink stamps a host `Instant` on each event the program already
//! emits. Consecutive boundary events (`StepSchedule`, `RoundBegin`,
//! `RoundEnd`) bound intervals, and each interval is charged to one layer
//! by the pair of events around it. Together with the stretch before the
//! first and after the last event (program build, wind-down, extraction),
//! the intervals tile the unit's wall time exactly.

use mpc_exec::pool::{PoolStats, WorkerStats};
use mpc_runtime::{TraceEvent, TraceSink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Which protocol an exchange round belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exchange {
    Algorithm,
    Checkpoint,
    Recovery,
}

impl Exchange {
    /// Classifies an exchange by its rendered label: the driver labels
    /// replica shipping `*.ckpt` and replayed mail `*.recover`.
    pub fn of(label: &str) -> Self {
        if label.contains(".ckpt") {
            Exchange::Checkpoint
        } else if label.contains(".recover") {
            Exchange::Recovery
        } else {
            Exchange::Algorithm
        }
    }
}

/// The part of an event the split needs.
#[derive(Clone, Copy, Debug)]
enum Mark {
    Step {
        round: u64,
        stepping: usize,
        machines: usize,
    },
    Begin(Exchange),
    End(Exchange),
    Load(f64),
    Worker {
        worker: usize,
        stats: WorkerStats,
    },
    Mux {
        live: usize,
    },
    Retired,
    Replayed(u64),
    Other,
}

/// A sink that keeps a timestamped mark per event in memory and measures
/// its own time.
#[derive(Default)]
pub struct StampSink {
    marks: Mutex<Vec<(Instant, Mark)>>,
    own_ns: AtomicU64,
}

impl TraceSink for StampSink {
    fn record(&self, event: &TraceEvent) {
        let at = Instant::now();
        let mark = match event {
            TraceEvent::StepSchedule {
                round,
                stepping,
                machines,
            } => Mark::Step {
                round: *round,
                stepping: *stepping,
                machines: *machines,
            },
            TraceEvent::RoundBegin { label, .. } => Mark::Begin(Exchange::of(label)),
            TraceEvent::RoundEnd { label, .. } => Mark::End(Exchange::of(label)),
            TraceEvent::MachineRound {
                sent_words,
                recv_words,
                capacity,
                ..
            } => Mark::Load(*sent_words.max(recv_words) as f64 / (*capacity).max(1) as f64),
            TraceEvent::WorkerRound {
                worker,
                claimed,
                stepped,
                idle_skips,
                wait_ns,
                busy_ns,
                ..
            } => Mark::Worker {
                worker: *worker,
                stats: WorkerStats {
                    claimed: *claimed as u64,
                    stepped: *stepped as u64,
                    idle_skips: *idle_skips as u64,
                    wait_ns: *wait_ns,
                    busy_ns: *busy_ns,
                },
            },
            TraceEvent::MuxRound { live, .. } => Mark::Mux { live: *live },
            TraceEvent::InstanceRetired { .. } => Mark::Retired,
            TraceEvent::RecoveryRound { replayed, .. } => Mark::Replayed(*replayed),
            _ => Mark::Other,
        };
        self.marks
            .lock()
            .expect("a thread panicked while recording a mark")
            .push((at, mark));
        // Statistic only: published by the lock above, read after the run.
        self.own_ns
            .fetch_add(at.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

impl StampSink {
    /// Takes the marks and the sink's own time recorded so far.
    fn take(&self) -> (Vec<(Instant, Mark)>, u64) {
        let marks = std::mem::take(
            &mut *self
                .marks
                .lock()
                .expect("a thread panicked while recording a mark"),
        );
        (marks, self.own_ns.swap(0, Ordering::Relaxed))
    }
}

/// Host time and counts summed over the traced units of a run.
#[derive(Default, Debug)]
pub struct Split {
    pub wall_ns: u128,
    /// `StepSchedule` → the next algorithm `RoundBegin`: machines stepping.
    pub step_ns: u128,
    /// Algorithm `RoundBegin` → `RoundEnd`: the exchange.
    pub exchange_ns: u128,
    /// `RoundEnd` → the next `StepSchedule`: hook, activation scan.
    pub between_ns: u128,
    /// Snapshots before a `*.ckpt` exchange, and the exchange itself.
    pub checkpoint_ns: u128,
    /// Replay before a `*.recover` exchange, and the exchange itself.
    pub recovery_ns: u128,
    /// Before the first and after the last boundary of each executor run:
    /// cluster and program build, wind-down step, extraction.
    pub unattributed_ns: u128,
    pub sink_ns: u128,
    pub events: u64,
    pub stepping: u64,
    pub machines: u64,
    pub pool: PoolStats,
    pub instance_steps: u64,
    pub retired: u64,
    pub replayed_rounds: u64,
    /// Sum over units of the unit's highest per-machine load ÷ capacity.
    pub max_load_sum: f64,
    pub units: u64,
}

/// The layer an interval belongs to, by the boundary marks around it.
#[derive(Clone, Copy)]
enum Layer {
    Step,
    Exchange,
    Between,
    Checkpoint,
    Recovery,
    Unattributed,
}

fn layer(prev: Option<Mark>, next: Mark) -> Layer {
    use Exchange::{Algorithm, Checkpoint, Recovery};
    match (prev, next) {
        (Some(Mark::Step { .. }), Mark::Begin(Algorithm)) => Layer::Step,
        (Some(Mark::Begin(a)), Mark::End(b)) if a == b => match a {
            Algorithm => Layer::Exchange,
            Checkpoint => Layer::Checkpoint,
            Recovery => Layer::Recovery,
        },
        (Some(Mark::End(_)), Mark::Begin(Checkpoint)) => Layer::Checkpoint,
        (Some(Mark::End(_)), Mark::Begin(Recovery)) => Layer::Recovery,
        // Round 0 opens a new executor run: what precedes it is program
        // build and the previous run's extraction.
        (Some(Mark::End(_)), Mark::Step { round, .. }) if round > 0 => Layer::Between,
        _ => Layer::Unattributed,
    }
}

impl Split {
    /// Charges one traced unit, `started..ended`, from the sink's marks.
    ///
    /// # Panics
    ///
    /// If the charged intervals do not sum to the unit's wall time — a
    /// bug in this split, never in the program.
    pub fn absorb(&mut self, sink: &StampSink, started: Instant, ended: Instant) {
        let (marks, own_ns) = sink.take();
        self.sink_ns += own_ns as u128;
        self.events += marks.len() as u64;
        self.units += 1;
        let wall = ended.saturating_duration_since(started).as_nanos();
        self.wall_ns += wall;
        let mut charged = 0u128;
        let mut at = started;
        let mut prev: Option<Mark> = None;
        let mut max_load = 0.0_f64;
        let mut charge = |split: &mut Split, layer: Layer, ns: u128| {
            charged += ns;
            *match layer {
                Layer::Step => &mut split.step_ns,
                Layer::Exchange => &mut split.exchange_ns,
                Layer::Between => &mut split.between_ns,
                Layer::Checkpoint => &mut split.checkpoint_ns,
                Layer::Recovery => &mut split.recovery_ns,
                Layer::Unattributed => &mut split.unattributed_ns,
            } += ns;
        };
        for (stamp, mark) in marks {
            match mark {
                Mark::Step {
                    stepping, machines, ..
                } => {
                    self.stepping += stepping as u64;
                    self.machines += machines as u64;
                }
                Mark::Load(ratio) => max_load = max_load.max(ratio),
                Mark::Worker { worker, stats } => {
                    let per = &mut self.pool.per_worker;
                    if per.len() <= worker {
                        per.resize(worker + 1, WorkerStats::default());
                    }
                    let total = &mut per[worker];
                    total.claimed += stats.claimed;
                    total.stepped += stats.stepped;
                    total.idle_skips += stats.idle_skips;
                    total.wait_ns += stats.wait_ns;
                    total.busy_ns += stats.busy_ns;
                    if worker == 0 {
                        self.pool.rounds += 1;
                    }
                }
                Mark::Mux { live } => self.instance_steps += live as u64,
                Mark::Retired => self.retired += 1,
                Mark::Replayed(rounds) => self.replayed_rounds += rounds,
                Mark::Begin(_) | Mark::End(_) | Mark::Other => {}
            }
            if matches!(mark, Mark::Step { .. } | Mark::Begin(_) | Mark::End(_)) {
                let stamp = stamp.clamp(at, ended);
                charge(self, layer(prev, mark), (stamp - at).as_nanos());
                at = stamp;
                prev = Some(mark);
            }
        }
        charge(self, Layer::Unattributed, (ended - at).as_nanos());
        assert_eq!(charged, wall, "layer intervals must tile the traced wall");
        self.max_load_sum += max_load;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn begin(label: &str) -> TraceEvent {
        TraceEvent::RoundBegin {
            round: 1,
            label: label.into(),
        }
    }

    fn end(label: &str) -> TraceEvent {
        TraceEvent::RoundEnd {
            round: 1,
            label: label.into(),
            total_words: 0,
            messages: 0,
            makespan: 0.0,
        }
    }

    fn step(round: u64) -> TraceEvent {
        TraceEvent::StepSchedule {
            round,
            stepping: 3,
            machines: 4,
        }
    }

    #[test]
    fn exchanges_are_classified_by_label() {
        assert_eq!(Exchange::of("svc.r003"), Exchange::Algorithm);
        assert_eq!(Exchange::of("mst.ckpt.r001"), Exchange::Checkpoint);
        assert_eq!(Exchange::of("mst.recover.r000"), Exchange::Recovery);
    }

    #[test]
    fn intervals_tile_the_wall_and_land_in_their_layers() {
        let sink = StampSink::default();
        let started = Instant::now();
        for event in [
            step(0),
            begin("x.r000"),
            end("x.r000"),
            begin("x.ckpt.r000"),
            end("x.ckpt.r000"),
            step(1),
            begin("x.r001"),
            end("x.r001"),
            step(0),
        ] {
            std::thread::sleep(std::time::Duration::from_micros(200));
            sink.record(&event);
        }
        let ended = Instant::now();
        let mut split = Split::default();
        split.absorb(&sink, started, ended);
        let parts = split.step_ns
            + split.exchange_ns
            + split.between_ns
            + split.checkpoint_ns
            + split.unattributed_ns
            + split.recovery_ns;
        assert_eq!(parts, split.wall_ns);
        assert!(split.step_ns > 0 && split.exchange_ns > 0);
        assert!(split.checkpoint_ns > 0 && split.between_ns > 0);
        assert_eq!(split.recovery_ns, 0);
        assert_eq!((split.stepping, split.machines), (9, 12));
        assert_eq!(split.events, 9);
    }
}

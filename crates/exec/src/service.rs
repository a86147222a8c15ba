//! The job-queue service: mixed-program multi-tenancy over one engine run.
//!
//! [`MixedWave`] (DESIGN.md §2.8) lets a spanner, a matching, and a min
//! cut share one bulk-synchronous run; this module adds the front end that
//! makes that a *serving* model. Callers [`submit`](Service::submit)
//! [`JobSpec`]s and get [`JobHandle`]s; [`run`](Service::run) drives a
//! single hooked engine run whose coordinator — a [`RoundHook`] executing
//! on the driving thread at the top of every round — retires finished
//! jobs, admits queued ones strictly FIFO while their capacity shares fit,
//! and keeps the cluster's capacity factor equal to the running total, so
//! strict enforcement always reflects the tenants actually on the wire.
//!
//! Determinism: admission decisions depend only on (round, queue order,
//! lane halt votes, inbox tags) — all bit-identical between serial and
//! pool execution — and each job's lanes draw from private
//! [`machine_rng`] streams minted from the job's
//! seed. The same submission sequence therefore yields the same admission
//! rounds, round log, and results in every mode, and each job's output is
//! bit-identical to a solo [`registry::run_job`] on a fresh cluster
//! seeded with the job's seed (for `spanner-weighted`/`apsp` the batched
//! solo path; for `mst-approx`/`mincut-approx` the
//! [`sequential_instances`](crate::registry::JobParams::sequential_instances)
//! solo path — their batched forms pre-draw host-side seeds, which has no
//! mid-wave equivalent). A lane is always the registry recipe's
//! single-wave form: [`batch_instances`](crate::registry::JobParams::batch_instances)
//! applies to solo runs only.
//!
//! [`RoundHook`]: crate::driver::RoundHook

use crate::driver::{ExecError, ExecMode, Executor, WaveRound};
use crate::mixed::{ErasedProgram, MixedWave};
use crate::registry::{self, AlgoOutput, Algorithm, JobSpec, Recipe};
use mpc_core::spanner::weight_class;
use mpc_runtime::telemetry::TraceEvent;
use mpc_runtime::{machine_rng, Cluster, ClusterConfig};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Job lifecycle
// ---------------------------------------------------------------------------

/// Where a submitted job is in its lifecycle.
///
/// Failure is a *per-job* event (DESIGN.md §2.9): an engine-level error
/// attributed to one tenant quarantines that job, possibly retries it
/// under its [`JobRetryPolicy`](crate::JobRetryPolicy), and at worst
/// completes it as [`Failed`](JobStatus::Failed) — the run itself, and
/// every other tenant, continues.
#[derive(Clone, Debug, PartialEq)]
pub enum JobStatus {
    /// Waiting in the FIFO queue for capacity shares.
    Queued,
    /// Admitted into the current mixed wave.
    Running,
    /// Finished; the result is waiting in the handle.
    Completed,
    /// Finished with an error — an algorithm-level failure, or an
    /// engine-level failure attributed to this job after its retry policy
    /// was exhausted. The run itself continued.
    Failed {
        /// The typed underlying error.
        error: ExecError,
    },
    /// Cancelled because it ran [`round_deadline`](crate::JobSpec::round_deadline)
    /// rounds past admission. Terminal: deadlines are not retried.
    DeadlineExceeded,
}

/// Shared job state behind a [`JobHandle`].
struct JobState {
    status: JobStatus,
    result: Option<Result<AlgoOutput, ExecError>>,
}

/// The caller's view of a submitted job: poll [`status`](JobHandle::status)
/// during/after a run, then [`take_result`](JobHandle::take_result).
pub struct JobHandle {
    id: u64,
    name: String,
    state: Arc<Mutex<JobState>>,
}

impl JobHandle {
    /// The service-assigned job id (dense, starting at 1 — also the tag on
    /// every wave message and telemetry event this job produces).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The registry name this job runs.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current lifecycle state.
    pub fn status(&self) -> JobStatus {
        self.state.lock().unwrap().status.clone()
    }

    /// Takes the job's result out of the handle (`None` if the job has not
    /// finished, or the result was already taken).
    pub fn take_result(&self) -> Option<Result<AlgoOutput, ExecError>> {
        self.state.lock().unwrap().result.take()
    }
}

/// One completed job's scheduling record, as reported by [`ServiceRun`].
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Service-assigned job id.
    pub job: u64,
    /// Registry name.
    pub name: String,
    /// Capacity shares the job held while running.
    pub shares: usize,
    /// Round the coordinator admitted the job.
    pub admitted_round: u64,
    /// Round the coordinator observed completion (for jobs still in the
    /// final wave, the run's total round count).
    pub completed_round: u64,
    /// `completed_round - admitted_round`.
    pub rounds: u64,
    /// Whether the job finished with an error (algorithm-level, retry
    /// exhaustion, or a missed deadline).
    pub failed: bool,
    /// Admissions the job consumed (1 for a job that never needed a
    /// retry; 0 for a job failed fast by a zero-attempt policy).
    pub attempts: u32,
}

/// What one [`Service::run`] drained: total engine rounds plus one record
/// per job, in job-id (= submission) order.
#[derive(Debug)]
pub struct ServiceRun {
    /// Engine rounds the whole mixed run consumed.
    pub rounds: u64,
    /// Per-job admission/completion records, sorted by job id.
    pub records: Vec<JobRecord>,
}

// ---------------------------------------------------------------------------
// Internals
// ---------------------------------------------------------------------------

/// A submitted job. It moves between the queue and the wave whole, so a
/// quarantined job can be resubmitted (its lanes are rebuilt from scratch
/// on re-admission).
struct Job {
    id: u64,
    algo: &'static Algorithm,
    spec: JobSpec,
    state: Arc<Mutex<JobState>>,
    /// Capacity shares the job holds while running ([`derived_shares`]).
    shares: usize,
    /// The admission attempt the job consumes next, or is running under
    /// (1-based).
    attempt: u32,
    /// Earliest service round the job may be admitted (linear backoff
    /// after a quarantine; 0 for first-time submissions).
    earliest: u64,
    /// Service round of the job's latest admission.
    admitted_round: u64,
}

const LANE: &str = "a running job has a lane on every machine";

/// An admitted job and the reader of its result.
struct RunningJob {
    job: Job,
    /// Reads the result off the large machine's finished lane.
    extract: Box<dyn FnOnce(Box<dyn ErasedProgram>) -> Result<AlgoOutput, ExecError>>,
}

/// The capacity shares a job occupies while running: its explicit
/// [`JobSpec::shares`] if set, otherwise derived from the program shape —
/// 1 for single-instance jobs, the non-empty weight-class count for the
/// batched weighted-spanner family (each class is a full spanner instance
/// on the wire).
fn derived_shares(spec: &JobSpec) -> usize {
    if spec.shares > 0 {
        return spec.shares;
    }
    match spec.name.as_str() {
        "spanner-weighted" | "apsp" => {
            if spec.name == "apsp" && spec.graph.edges().iter().all(|e| e.w == 1) {
                return 1; // unweighted apsp runs one plain spanner
            }
            let mut classes = std::collections::BTreeSet::new();
            for e in spec.graph.edges() {
                classes.insert(weight_class(e.w));
            }
            classes.len().max(1)
        }
        _ => 1,
    }
}

impl Job {
    /// Marks the job finished with `result`: flips its handle state,
    /// appends its record, and emits the [`TraceEvent::JobCompleted`]
    /// instant.
    fn finish(
        &self,
        cluster: &Cluster,
        records: &mut Vec<JobRecord>,
        round: u64,
        result: Result<AlgoOutput, ExecError>,
    ) {
        let status = match &result {
            Ok(_) => JobStatus::Completed,
            Err(e) => JobStatus::Failed { error: e.clone() },
        };
        let failed = result.is_err();
        self.close(records, round, status, result);
        if let Some(sink) = cluster.trace_sink() {
            sink.record(&TraceEvent::JobCompleted {
                round,
                job: self.id,
                rounds: round - self.admitted_round,
                failed,
            });
        }
    }

    /// Marks the job terminally failed *without* result extraction — the
    /// quarantine path's exit (retry exhaustion, a zero-attempt policy, or
    /// a missed deadline). Emits [`TraceEvent::JobFailed`] instead of
    /// `JobCompleted`: the job's lanes never finished, they were pulled.
    fn fail(
        &self,
        cluster: &Cluster,
        records: &mut Vec<JobRecord>,
        round: u64,
        status: JobStatus,
        error: ExecError,
    ) {
        if let Some(sink) = cluster.trace_sink() {
            sink.record(&TraceEvent::JobFailed {
                round,
                job: self.id,
                error: error.to_string(),
            });
        }
        self.close(records, round, status, Err(error));
    }

    fn close(
        &self,
        records: &mut Vec<JobRecord>,
        round: u64,
        status: JobStatus,
        result: Result<AlgoOutput, ExecError>,
    ) {
        let failed = result.is_err();
        {
            let mut s = self.state.lock().unwrap();
            s.status = status;
            s.result = Some(result);
        }
        records.push(JobRecord {
            job: self.id,
            name: self.spec.name.clone(),
            shares: self.shares,
            admitted_round: self.admitted_round,
            completed_round: round,
            rounds: round - self.admitted_round,
            failed,
            attempts: self.attempt,
        });
    }
}

impl RunningJob {
    /// Reads the result off the job's lanes (one per machine, in machine
    /// order) and marks the job finished.
    fn complete(
        self,
        cluster: &Cluster,
        records: &mut Vec<JobRecord>,
        large: usize,
        round: u64,
        mut lanes: Vec<Box<dyn ErasedProgram>>,
    ) {
        let result = (self.extract)(lanes.swap_remove(large));
        self.job.finish(cluster, records, round, result);
    }
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// A multi-tenant job queue over one heterogeneous cluster.
///
/// ```
/// use mpc_exec::{ExecMode, JobSpec, JobStatus, Service};
/// use mpc_graph::generators;
/// use std::sync::Arc;
///
/// let g = Arc::new(generators::gnm(96, 320, 7));
/// let mut svc = Service::new(
///     mpc_runtime::ClusterConfig::new(96, 320).seed(11).polylog_exponent(2.6),
/// );
/// let spanner = svc.submit(JobSpec::new("spanner", g.clone()).seed(1)).unwrap();
/// let matching = svc.submit(JobSpec::new("matching", g.clone()).seed(2)).unwrap();
/// let mis = svc.submit(JobSpec::new("mis", g).seed(3)).unwrap();
/// let run = svc.run(ExecMode::Serial).unwrap();
/// assert_eq!(run.records.len(), 3);
/// assert_eq!(spanner.status(), JobStatus::Completed);
/// assert!(matching.take_result().unwrap().is_ok());
/// assert!(mis.take_result().unwrap().is_ok());
/// ```
pub struct Service {
    config: ClusterConfig,
    capacity_shares: usize,
    max_rounds: u64,
    threads: usize,
    next_id: u64,
    queue: VecDeque<Job>,
}

impl Service {
    /// A service whose [`run`](Service::run) builds its cluster from
    /// `config`. No share limit: every queued job is admitted immediately.
    pub fn new(config: ClusterConfig) -> Self {
        Service {
            config,
            capacity_shares: 0,
            max_rounds: 0,
            threads: 0,
            next_id: 1,
            queue: VecDeque::new(),
        }
    }

    /// Caps the total capacity shares running at once (0 = unlimited).
    /// Admission is strictly FIFO: a job that does not fit blocks the jobs
    /// behind it until retirement frees shares. A single job wider than
    /// the whole limit is admitted alone rather than deadlocking.
    pub fn capacity_shares(mut self, shares: usize) -> Self {
        self.capacity_shares = shares;
        self
    }

    /// Round-limit override for the underlying executor (0 = its default).
    pub fn max_rounds(mut self, limit: u64) -> Self {
        self.max_rounds = limit;
        self
    }

    /// Worker-thread cap for [`ExecMode::Parallel`] runs (0 = default).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Jobs waiting for the next [`run`](Service::run).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues a job, validating its registry name and parameters up
    /// front.
    ///
    /// # Errors
    ///
    /// [`ExecError::Algorithm`] when `spec.name` is not a registered
    /// algorithm or its parameters are out of range — nothing is enqueued.
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobHandle, ExecError> {
        let algo = registry::lookup(&spec.name)?;
        algo.check(&spec.params)?;
        let id = self.next_id;
        self.next_id += 1;
        let state = Arc::new(Mutex::new(JobState {
            status: JobStatus::Queued,
            result: None,
        }));
        let handle = JobHandle {
            id,
            name: spec.name.clone(),
            state: Arc::clone(&state),
        };
        self.queue.push_back(Job {
            id,
            algo,
            shares: derived_shares(&spec),
            spec,
            state,
            attempt: 1,
            earliest: 0,
            admitted_round: 0,
        });
        Ok(handle)
    }

    /// Drains the queue in one engine run on a fresh cluster built from
    /// this service's config.
    ///
    /// # Errors
    ///
    /// Engine-level failures attributable to one tenant (capacity
    /// violations, unrecoverable crashes) quarantine that job and the run
    /// continues; per-job algorithm errors only fail that job. Run-global
    /// pathologies (the round limit, hook errors) abort the whole run.
    /// See [`run_on`](Service::run_on).
    pub fn run(&mut self, mode: ExecMode) -> Result<ServiceRun, ExecError> {
        let mut cluster = Cluster::new(self.config.clone());
        self.run_on(&mut cluster, mode)
    }

    /// Whether an engine-level error is attributable to one tenant and
    /// survivable by the rest (DESIGN.md §2.9): capacity violations and
    /// unrecoverable crashes are; the round limit and hook-level errors
    /// are run-global pathologies that still abort everything.
    fn quarantinable(e: &ExecError) -> bool {
        matches!(e, ExecError::Model(_) | ExecError::Unrecoverable { .. })
    }

    /// The driver round an engine error surfaced on, if it carries one.
    fn error_round(e: &ExecError) -> Option<u64> {
        match e {
            ExecError::Unrecoverable { round, .. } => Some(*round),
            ExecError::Model(
                mpc_runtime::ModelViolation::SendOverflow { round, .. }
                | mpc_runtime::ModelViolation::RecvOverflow { round, .. }
                | mpc_runtime::ModelViolation::MemoryOverflow { round, .. },
            ) => Some(*round),
            _ => None,
        }
    }

    /// [`run`](Service::run) against a caller-owned cluster — the entry
    /// point for attaching trace sinks or fault plans, and for reading the
    /// round log afterwards. The cluster's capacity factor must be 1 on
    /// entry; it is 1 again on return (success or failure).
    ///
    /// # Failure isolation (DESIGN.md §2.9)
    ///
    /// An engine error attributable to one tenant (a capacity violation or
    /// an unrecoverable crash) does not abort the run. The service
    /// attributes it to the *marginal tenant* — the most recently admitted
    /// running job (ties broken toward the higher id) — quarantines that
    /// job, refunds its capacity shares, restarts the wave, and requeues
    /// the survivors at the front of the queue in their original order.
    /// The quarantined job is resubmitted with linear backoff while its
    /// [`JobRetryPolicy`](crate::JobRetryPolicy) has attempts left, and
    /// otherwise completes as [`JobStatus::Failed`] with the typed error. Survivors' results are
    /// bit-identical to a run that never contained the culprit: every
    /// lane draws only from its job's private RNG streams, so a rebuilt
    /// lane replays exactly.
    ///
    /// # Errors
    ///
    /// [`ExecError::Algorithm`], before anything runs, on a cluster
    /// without a large machine or without small machines. Non-quarantinable
    /// engine failures (the round limit, hook errors) abort the whole run:
    /// jobs already admitted are marked [`JobStatus::Failed`] (their lanes
    /// died with the run); jobs still queued return to the service queue
    /// untouched.
    pub fn run_on(
        &mut self,
        cluster: &mut Cluster,
        mode: ExecMode,
    ) -> Result<ServiceRun, ExecError> {
        assert_eq!(
            cluster.capacity_factor(),
            1,
            "the service manages the capacity factor; start a run at 1"
        );
        let large = registry::large_machine(cluster)?;
        let machines = cluster.machines();
        let limit = if self.capacity_shares == 0 {
            usize::MAX
        } else {
            self.capacity_shares
        };
        let mut queue = std::mem::take(&mut self.queue);
        let mut running: Vec<RunningJob> = Vec::new();
        let mut records: Vec<JobRecord> = Vec::new();

        let mut exec = Executor::new("svc", mode);
        if self.threads > 0 {
            exec = exec.threads(self.threads);
        }
        if self.max_rounds > 0 {
            exec = exec.max_rounds(self.max_rounds);
        }

        // Service rounds stay monotone across wave restarts: `base` is
        // added to every driver round for records, events, deadlines, and
        // backoff gates.
        let mut base: u64 = 0;
        let outcome = loop {
            let waves = MixedWave::for_cluster(cluster);
            let last_hook = std::cell::Cell::new(0u64);
            let result = {
                let running = &mut running;
                let records = &mut records;
                let queue = &mut queue;
                let last_hook = &last_hook;
                let mut hook = |cluster: &mut Cluster,
                                view: &WaveRound<'_, MixedWave>|
                 -> Result<bool, ExecError> {
                    // The service-round clock (monotone across restarts).
                    let round = base + view.round();
                    last_hook.set(view.round());

                    // 1. Retirement: a job is done when every one of its
                    // lanes has voted to halt and no mail tagged with it
                    // is pending. The peek-only scan leaves the round
                    // clean; removal marks it dirty, forcing a checkpoint
                    // under fault plans.
                    let mut i = 0;
                    while i < running.len() {
                        let id = running[i].job.id;
                        let done = (0..machines).all(|mid| {
                            view.peek(mid, |wave, inbox| {
                                wave.lane_idle(id) && !inbox.iter().any(|(_, m)| m.tag == id)
                            })
                        });
                        if !done {
                            i += 1;
                            continue;
                        }
                        let lanes = (0..machines)
                            .map(|mid| view.with(mid, |wave| wave.remove(id)).expect(LANE))
                            .collect();
                        running
                            .remove(i)
                            .complete(cluster, records, large, round, lanes);
                    }

                    // 2. Deadlines: a job still running `round_deadline`
                    // rounds past admission is cancelled through the
                    // quarantine path — lanes retired, in-flight mail
                    // purged, shares refunded so the queue behind it can
                    // admit this same round. Terminal: no retry.
                    let mut i = 0;
                    while i < running.len() {
                        let job = &running[i].job;
                        let Some(deadline) = job
                            .spec
                            .round_deadline
                            .filter(|&d| round - job.admitted_round >= d)
                        else {
                            i += 1;
                            continue;
                        };
                        let job = running.remove(i).job;
                        for mid in 0..machines {
                            view.with_mail(mid, |wave, inbox| {
                                wave.retire(job.id);
                                inbox.retain(|(_, m)| m.tag != job.id);
                            });
                        }
                        if let Some(sink) = cluster.trace_sink() {
                            sink.record(&TraceEvent::JobQuarantined {
                                round,
                                job: job.id,
                                reason: "deadline".into(),
                            });
                        }
                        let error = ExecError::RoundLimit { limit: deadline };
                        job.fail(cluster, records, round, JobStatus::DeadlineExceeded, error);
                    }

                    // 3. Admission: strict FIFO while shares fit, with
                    // lanes built at solo (factor-1) capacity — exactly
                    // the snapshots a solo run's constructors would take.
                    // A re-queued job under backoff gates the queue (FIFO
                    // order is part of the determinism contract).
                    if !queue.is_empty() {
                        cluster.set_capacity_factor(1);
                    }
                    while let Some(front) = queue.front() {
                        if round < front.earliest {
                            break;
                        }
                        // A zero-attempt policy fails fast without ever
                        // touching the wave: zero wire impact, so the
                        // surviving tenants' round log is bit-identical
                        // to a queue that never contained this job.
                        if front.spec.retry.max_attempts == 0 {
                            let mut job = queue.pop_front().expect("front was just inspected");
                            (job.attempt, job.admitted_round) = (0, round);
                            let error = ExecError::Algorithm {
                                message: "retry policy allows zero admission attempts".into(),
                            };
                            let status = JobStatus::Failed {
                                error: error.clone(),
                            };
                            job.fail(cluster, records, round, status, error);
                            continue;
                        }
                        let held: usize = running.iter().map(|r| r.job.shares).sum();
                        let shares = front.shares;
                        if held + shares > limit && !(running.is_empty() && shares > limit) {
                            break;
                        }
                        let mut job = queue.pop_front().expect("front was just inspected");
                        job.admitted_round = round;
                        if let Some(sink) = cluster.trace_sink() {
                            sink.record(&TraceEvent::JobAdmitted {
                                round,
                                job: job.id,
                                name: job.spec.name.clone(),
                                shares,
                            });
                        }
                        match job.algo.lane(&job.spec, cluster) {
                            Recipe::Done(output) => {
                                job.finish(cluster, records, round, Ok(*output))
                            }
                            Recipe::Wave(lane) => {
                                job.state.lock().unwrap().status = JobStatus::Running;
                                for (mid, program) in lane.programs.into_iter().enumerate() {
                                    let rng = machine_rng(job.spec.seed, mid);
                                    view.with(mid, |wave| {
                                        wave.admit(job.id, program, rng, view.round());
                                    });
                                    view.wake(mid);
                                }
                                running.push(RunningJob {
                                    job,
                                    extract: lane.extract,
                                });
                            }
                        }
                    }

                    // 4. The live capacity factor tracks the running
                    // total, so strict enforcement scales with the
                    // tenants on the wire.
                    let held: usize = running.iter().map(|r| r.job.shares).sum();
                    cluster.set_capacity_factor(held.max(1));
                    Ok(!queue.is_empty())
                };
                exec.run_hooked(cluster, waves, &mut hook)
            };
            cluster.set_capacity_factor(1);

            let e = match result {
                Ok(outcome) => break outcome,
                Err(e) => e,
            };
            if !Self::quarantinable(&e) || running.is_empty() {
                // Not attributable to one tenant: admitted lanes died
                // with the run; queued jobs survive in the service queue.
                for rj in running.drain(..) {
                    rj.job.state.lock().unwrap().status = JobStatus::Failed { error: e.clone() };
                }
                self.queue = queue;
                return Err(e);
            }

            // Blast-radius isolation: attribute the failure to the
            // marginal tenant — the most recently admitted job (it pushed
            // the wave over) — quarantine it, and restart the wave with
            // the survivors requeued at the front in their original
            // admission order.
            let round = base + Self::error_round(&e).unwrap_or_else(|| last_hook.get());
            let mut jobs: Vec<Job> = running.drain(..).map(|r| r.job).collect();
            jobs.sort_by_key(|j| (j.admitted_round, j.id));
            let mut culprit = jobs.pop().expect("running is non-empty");
            if let Some(sink) = cluster.trace_sink() {
                sink.record(&TraceEvent::JobQuarantined {
                    round,
                    job: culprit.id,
                    reason: e.to_string(),
                });
            }
            let survivor_count = jobs.len();
            for job in jobs.into_iter().rev() {
                job.state.lock().unwrap().status = JobStatus::Queued;
                queue.push_front(job);
            }

            if culprit.attempt < culprit.spec.retry.max_attempts {
                // Linear backoff: failure k (1-based) delays re-admission
                // by k * backoff_rounds service rounds.
                culprit.earliest =
                    round + u64::from(culprit.attempt) * culprit.spec.retry.backoff_rounds;
                culprit.attempt += 1;
                if let Some(sink) = cluster.trace_sink() {
                    sink.record(&TraceEvent::JobRetried {
                        round,
                        job: culprit.id,
                        attempt: u64::from(culprit.attempt),
                    });
                }
                culprit.state.lock().unwrap().status = JobStatus::Queued;
                // Directly behind the requeued survivors, ahead of
                // never-admitted jobs: the formerly-running cohort drains
                // before the queue's tail, in its original order.
                queue.insert(survivor_count, culprit);
            } else {
                let status = JobStatus::Failed { error: e.clone() };
                culprit.fail(cluster, &mut records, round, status, e);
            }

            // The crashed wave may have left machines quarantined in the
            // cost model with no recovery to lift it; the restarted wave
            // starts from a full roster. (No-op for healthy machines and
            // fault-free models.)
            for mid in 0..machines {
                cluster.restore_machine(mid);
            }
            base = round + 1;
        };

        // Jobs that halted in the final round never saw another hook call;
        // their lanes sit in the returned wave states.
        let mut waves = outcome.programs;
        let round = base + outcome.rounds;
        for rj in running.drain(..) {
            let id = rj.job.id;
            let lanes = waves
                .iter_mut()
                .map(|w| w.remove(id).expect(LANE))
                .collect();
            rj.complete(cluster, &mut records, large, round, lanes);
        }

        records.sort_by_key(|r| r.job);
        Ok(ServiceRun {
            rounds: round,
            records,
        })
    }
}

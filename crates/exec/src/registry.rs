//! The [`Algorithm`] registry: every engine-ported algorithm behind one
//! named entry point.
//!
//! `registry::run("mst", &mut cluster, &input, ExecMode::Parallel)` is the
//! single way the facade crate, the examples, the benches, and the CI
//! smoke tests execute a workload: a registered algorithm is guaranteed to
//! run on the [`Executor`] under both [`ExecMode::Serial`]
//! and [`ExecMode::Parallel`] with bit-identical results, and anything
//! *not* registered here is by definition not fast-path-capable — the
//! `registry` bench experiment fails if a registered program stops
//! producing legacy-identical results.
//!
//! Each name has one *recipe*: a function that builds the per-machine
//! programs of its single-wave form and reads the result back off the
//! large machine's final program. Two generic drivers consume it — a typed
//! solo run on the [`Executor`] (messages stay unboxed),
//! and type-erased lanes for the [service](crate::service)'s mixed wave.
//! Three solo-only compositions, with no single-wave form, are the only
//! other runners; [`JobParams::batch_instances`] selects them.
//!
//! | name | paper result | single-wave recipe | solo-only composition |
//! |------|--------------|--------------------|-----------------------|
//! | `connectivity` | Thm C.1 | [`ConnectivityProgram`] | |
//! | `boruvka-msf`  | §3 building block | [`BoruvkaProgram`] | |
//! | `mst`          | Thm 3.1 | [`MstProgram`] | |
//! | `matching`     | Thm 5.1 | [`MatchingProgram`] | |
//! | `spanner`      | Thm 4.1 | [`SpannerProgram`] | |
//! | `spanner-weighted` | Thm 4.1 + \[22\] reduction | per-class [`SpannerProgram`], [batched](MixedWave::batched) | one pass per class (sequential) |
//! | `apsp`         | Cor 4.2 | `k = ⌈log₂ n⌉` spanner (weighted: as `spanner-weighted`), oracle indexed on the large machine | weighted: one pass per class (sequential) |
//! | `mst-approx`   | Thm C.2 | [`MstApproxProgram`] | per-wave [`MstApproxWave`], [batched](MixedWave::batched) |
//! | `mincut`       | Thm C.3 | [`MinCutProgram`] | |
//! | `mincut-approx` | Thm C.4 | [`MinCutApproxProgram`] | per-guess [`MinCutGuessWave`], [batched](MixedWave::batched) with a retire controller, plus fallback pass |
//! | `mis`          | Thm C.6 | [`MisProgram`] | |
//! | `coloring`     | Thm C.7 | [`ColoringProgram`] | |

use crate::combinators::Driven;
use crate::driver::{ExecError, ExecMode, Executor};
use crate::machine::MachineProgram;
use crate::mixed::{downcast_program, erase, ErasedProgram, MixedLane, MixedWave};
use crate::programs::{
    BoruvkaProgram, ColoringProgram, ConnectivityProgram, GuessOutcome, MatchingProgram,
    MinCutApproxProgram, MinCutGuessWave, MinCutProgram, MisProgram, MstApproxProgram,
    MstApproxWave, MstProgram, SpannerProgram, XCutFallback,
};
use mpc_core::matching::MatchingResult;
use mpc_core::mst::{MstConfig, MstResult};
use mpc_core::ported::coloring::ColoringResult;
use mpc_core::ported::connectivity::ConnectivityConfig;
use mpc_core::ported::mincut_approx::{ApproxMinCut, SkeletonVerdict};
use mpc_core::ported::mincut_exact::MinCutResult;
use mpc_core::ported::mis::MisResult;
use mpc_core::ported::mst_approx::MstApprox;
use mpc_core::spanner::apsp::ApspOracle;
use mpc_core::spanner::{merge_class_results, weight_class_shards, SpannerResult};
use mpc_graph::mst::Forest;
use mpc_graph::traversal::Components;
use mpc_graph::{Edge, Graph};
use mpc_runtime::{Cluster, MachineId, ShardedVec};
use rand::Rng;
use std::sync::Arc;

/// Every tuning knob a registered algorithm reads, gathered in one place
/// so the two consumer-facing entry points — [`run`] with an [`AlgoInput`]
/// and the [service](crate::service) with a [`JobSpec`] — share a single
/// parameter surface and cannot drift.
#[derive(Clone, Debug)]
pub struct JobParams {
    /// Spanner stretch parameter `k` (ignored by non-spanner algorithms).
    pub spanner_k: usize,
    /// MST tuning knobs.
    pub mst: MstConfig,
    /// Connectivity configuration (defaults to
    /// [`ConnectivityConfig::for_n`]).
    pub connectivity: Option<ConnectivityConfig>,
    /// Contraction trials for `mincut` (Theorem C.3 amplification).
    pub mincut_trials: usize,
    /// Approximation parameter ε for `mincut-approx` and `mst-approx`.
    pub epsilon: f64,
    /// Whether the sequentialized-parallel workloads (`spanner-weighted`,
    /// `mst-approx`, `mincut-approx`) interleave their instances as the
    /// lanes of one [batched wave](MixedWave::batched) (the default), or
    /// run them one after another (the composition kept as the
    /// equivalence oracle — see [`JobParams::sequential_instances`]).
    /// Affects solo runs only: a [service](crate::service) lane always
    /// runs the name's single-wave form.
    pub batch_instances: bool,
}

impl Default for JobParams {
    /// Default parameters: `k = 3` for spanners,
    /// [`DEFAULT_MINCUT_TRIALS`] min-cut trials, ε = 0.3, batched
    /// instances.
    fn default() -> Self {
        JobParams {
            spanner_k: 3,
            mst: MstConfig::default(),
            connectivity: None,
            mincut_trials: DEFAULT_MINCUT_TRIALS,
            epsilon: 0.3,
            batch_instances: true,
        }
    }
}

impl JobParams {
    /// Runs the sequentialized-parallel workloads one instance at a time
    /// (the equivalence oracle) instead of batching them into one wave.
    pub fn sequential_instances(mut self) -> Self {
        self.batch_instances = false;
        self
    }

    /// Overrides the spanner stretch parameter.
    pub fn spanner_k(mut self, k: usize) -> Self {
        self.spanner_k = k;
        self
    }

    /// Overrides the `mincut` trial count.
    pub fn mincut_trials(mut self, trials: usize) -> Self {
        self.mincut_trials = trials;
        self
    }

    /// Overrides the approximation parameter ε.
    pub fn epsilon(mut self, eps: f64) -> Self {
        self.epsilon = eps;
        self
    }

    /// Overrides the MST tuning knobs.
    pub fn mst(mut self, config: MstConfig) -> Self {
        self.mst = config;
        self
    }

    /// Overrides the connectivity configuration.
    pub fn connectivity(mut self, config: ConnectivityConfig) -> Self {
        self.connectivity = Some(config);
        self
    }
}

/// The input every registered algorithm consumes: a vertex universe and
/// the edge list sharded over the small machines (see
/// [`mpc_core::common::distribute_edges`]), plus tuning parameters.
pub struct AlgoInput<'a> {
    /// Number of vertices.
    pub n: usize,
    /// Sharded input edges.
    pub edges: &'a ShardedVec<Edge>,
    /// Tuning parameters (shared with [`JobSpec`]).
    pub params: JobParams,
}

/// Default `mincut` contraction trials — shared by [`JobParams::default`]
/// and the `mincut` round budget, which assumes the default input knobs (a
/// caller overriding `mincut_trials` changes the total round count by
/// `12` engine rounds per trial).
pub const DEFAULT_MINCUT_TRIALS: usize = 8;

impl<'a> AlgoInput<'a> {
    /// Input with [default parameters](JobParams::default).
    pub fn new(n: usize, edges: &'a ShardedVec<Edge>) -> Self {
        AlgoInput {
            n,
            edges,
            params: JobParams::default(),
        }
    }

    /// See [`JobParams::sequential_instances`].
    pub fn sequential_instances(mut self) -> Self {
        self.params = self.params.sequential_instances();
        self
    }

    /// Overrides the spanner stretch parameter.
    pub fn spanner_k(mut self, k: usize) -> Self {
        self.params = self.params.spanner_k(k);
        self
    }

    /// Overrides the `mincut` trial count.
    pub fn mincut_trials(mut self, trials: usize) -> Self {
        self.params = self.params.mincut_trials(trials);
        self
    }

    /// Overrides the approximation parameter ε.
    pub fn epsilon(mut self, eps: f64) -> Self {
        self.params = self.params.epsilon(eps);
        self
    }
}

/// How often the [service](crate::service) re-admits a job after an
/// engine-level failure took its wave down (DESIGN.md §2.9).
///
/// A quarantined job consumes one *attempt* per admission. After failure
/// `k` (1-based) the resubmitted job may not be re-admitted before
/// `failure_round + k * backoff_rounds` — linear backoff in engine
/// rounds, the service's only clock. `max_attempts: 0` is the kill
/// switch: the job fails fast at the front of the queue without ever
/// touching the wave (zero wire impact, so the surviving tenants' round
/// log is bit-identical to a queue that never contained it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobRetryPolicy {
    /// Total admissions the job may consume (default 1: quarantine is
    /// terminal, no resubmission; 0: never admit, fail fast).
    pub max_attempts: u32,
    /// Linear backoff step in engine rounds between re-admissions.
    pub backoff_rounds: u64,
}

impl Default for JobRetryPolicy {
    fn default() -> Self {
        JobRetryPolicy {
            max_attempts: 1,
            backoff_rounds: 1,
        }
    }
}

/// One job for the [service](crate::service): a registry name, the input
/// graph, tuning [`JobParams`], a private seed, and the combined-round
/// capacity shares the job holds while running.
///
/// The same description also runs solo: [`run_job`] distributes the graph
/// and delegates to [`run`], so a service job and its solo twin consume
/// byte-identical inputs — the bit-equality the service tests assert.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Registry name ([`CANONICAL_NAMES`]).
    pub name: String,
    /// The input graph (shared, so queued jobs don't duplicate edges).
    pub graph: Arc<Graph>,
    /// Tuning parameters.
    pub params: JobParams,
    /// The job's private seed: its per-machine RNG streams are
    /// [`mpc_runtime::machine_rng`]`(seed, mid)`, exactly the streams a
    /// fresh cluster seeded with `seed` would own — solo replays are
    /// bit-identical.
    pub seed: u64,
    /// Combined-round capacity shares (0 = derive from the program shape:
    /// 1 for single-instance jobs, the instance count for batched ones).
    pub shares: usize,
    /// Retry budget for engine-level failures attributed to this job.
    pub retry: JobRetryPolicy,
    /// Round budget measured from admission: a job still running
    /// `round_deadline` rounds after it was admitted is cancelled through
    /// the quarantine path and completes as
    /// [`JobStatus::DeadlineExceeded`](crate::JobStatus::DeadlineExceeded).
    /// `None` (the default) never expires.
    pub round_deadline: Option<u64>,
}

impl JobSpec {
    /// A job with [default parameters](JobParams::default), seed 0, and
    /// derived capacity shares.
    pub fn new(name: impl Into<String>, graph: impl Into<Arc<Graph>>) -> Self {
        JobSpec {
            name: name.into(),
            graph: graph.into(),
            params: JobParams::default(),
            seed: 0,
            shares: 0,
            retry: JobRetryPolicy::default(),
            round_deadline: None,
        }
    }

    /// Overrides the job's private seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the capacity-share count.
    pub fn shares(mut self, shares: usize) -> Self {
        self.shares = shares;
        self
    }

    /// Overrides the retry budget for engine-level failures.
    pub fn retry(mut self, retry: JobRetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the round budget measured from admission (see
    /// [`JobSpec::round_deadline`]).
    pub fn round_deadline(mut self, rounds: u64) -> Self {
        self.round_deadline = Some(rounds);
        self
    }

    /// Replaces the tuning parameters wholesale.
    pub fn params(mut self, params: JobParams) -> Self {
        self.params = params;
        self
    }

    /// Overrides the spanner stretch parameter.
    pub fn spanner_k(mut self, k: usize) -> Self {
        self.params = self.params.spanner_k(k);
        self
    }

    /// Overrides the `mincut` trial count.
    pub fn mincut_trials(mut self, trials: usize) -> Self {
        self.params = self.params.mincut_trials(trials);
        self
    }

    /// Overrides the approximation parameter ε.
    pub fn epsilon(mut self, eps: f64) -> Self {
        self.params = self.params.epsilon(eps);
        self
    }
}

/// What a registered algorithm returns.
#[derive(Debug)]
pub enum AlgoOutput {
    /// Connected components (`connectivity`).
    Components(Components),
    /// A minimum spanning forest without statistics (`boruvka-msf`).
    Forest(Forest),
    /// The full MST result (`mst`).
    Mst(MstResult),
    /// The maximal-matching result (`matching`).
    Matching(MatchingResult),
    /// The spanner result (`spanner`, `spanner-weighted`).
    Spanner(SpannerResult),
    /// The APSP distance oracle with the spanner run that built it
    /// (`apsp`) — the first multi-output entry: consumers query the
    /// oracle, diagnostics read the spanner statistics.
    Apsp {
        /// The large-machine-resident distance oracle.
        oracle: ApspOracle,
        /// The spanner run the oracle indexes.
        spanner: SpannerResult,
    },
    /// The (1+ε)-approximate MST weight (`mst-approx`).
    MstApprox(MstApprox),
    /// The exact unweighted min-cut result (`mincut`).
    MinCut(MinCutResult),
    /// The (1±ε)-approximate weighted min cut (`mincut-approx`).
    MinCutApprox(ApproxMinCut),
    /// The maximal-independent-set result (`mis`).
    Mis(MisResult),
    /// The (Δ+1)-coloring result (`coloring`).
    Coloring(ColoringResult),
}

impl AlgoOutput {
    /// The components, if this output carries them.
    pub fn into_components(self) -> Option<Components> {
        match self {
            AlgoOutput::Components(c) => Some(c),
            _ => None,
        }
    }

    /// The plain forest, if this output carries one.
    pub fn into_forest(self) -> Option<Forest> {
        match self {
            AlgoOutput::Forest(f) => Some(f),
            AlgoOutput::Mst(r) => Some(r.forest),
            _ => None,
        }
    }

    /// The full MST result, if this output carries one.
    pub fn into_mst(self) -> Option<MstResult> {
        match self {
            AlgoOutput::Mst(r) => Some(r),
            _ => None,
        }
    }

    /// The matching result, if this output carries one.
    pub fn into_matching(self) -> Option<MatchingResult> {
        match self {
            AlgoOutput::Matching(r) => Some(r),
            _ => None,
        }
    }

    /// The spanner result, if this output carries one (the `apsp` entry
    /// carries the spanner run behind its oracle).
    pub fn into_spanner(self) -> Option<SpannerResult> {
        match self {
            AlgoOutput::Spanner(r) => Some(r),
            AlgoOutput::Apsp { spanner, .. } => Some(spanner),
            _ => None,
        }
    }

    /// The APSP oracle and its spanner run, if this output carries them.
    pub fn into_apsp(self) -> Option<(ApspOracle, SpannerResult)> {
        match self {
            AlgoOutput::Apsp { oracle, spanner } => Some((oracle, spanner)),
            _ => None,
        }
    }

    /// The MST-weight estimate, if this output carries one.
    pub fn into_mst_approx(self) -> Option<MstApprox> {
        match self {
            AlgoOutput::MstApprox(r) => Some(r),
            _ => None,
        }
    }

    /// The exact min-cut result, if this output carries one.
    pub fn into_mincut(self) -> Option<MinCutResult> {
        match self {
            AlgoOutput::MinCut(r) => Some(r),
            _ => None,
        }
    }

    /// The approximate min-cut result, if this output carries one.
    pub fn into_mincut_approx(self) -> Option<ApproxMinCut> {
        match self {
            AlgoOutput::MinCutApprox(r) => Some(r),
            _ => None,
        }
    }

    /// The MIS result, if this output carries one.
    pub fn into_mis(self) -> Option<MisResult> {
        match self {
            AlgoOutput::Mis(r) => Some(r),
            _ => None,
        }
    }

    /// The coloring result, if this output carries one.
    pub fn into_coloring(self) -> Option<ColoringResult> {
        match self {
            AlgoOutput::Coloring(r) => Some(r),
            _ => None,
        }
    }

    /// A deterministic digest of the result — what the benches and smoke
    /// tests compare across execution modes. Covers the actual content
    /// (edge sets are order-normalized and hashed), not just cardinalities,
    /// so a drift that preserves result size still changes the digest.
    pub fn digest(&self) -> u128 {
        fn fold_edges<'a>(edges: impl Iterator<Item = &'a Edge>) -> u128 {
            let mut keys: Vec<_> = edges.map(Edge::weight_key).collect();
            keys.sort_unstable();
            let mut acc: u128 = 0xcbf2_9ce4_8422_2325;
            for key in keys {
                for word in [key.w, key.u as u64, key.v as u64] {
                    acc = (acc ^ word as u128).wrapping_mul(0x0100_0000_01b3);
                }
            }
            acc
        }
        fn fold_words(words: impl Iterator<Item = u64>) -> u128 {
            let mut acc: u128 = 0xcbf2_9ce4_8422_2325;
            for word in words {
                acc = (acc ^ word as u128).wrapping_mul(0x0100_0000_01b3);
            }
            acc
        }
        match self {
            AlgoOutput::Components(c) => c.count as u128,
            AlgoOutput::Forest(f) => f.total_weight ^ fold_edges(f.edges.iter()),
            AlgoOutput::Mst(r) => r.forest.total_weight ^ fold_edges(r.forest.edges.iter()),
            AlgoOutput::Matching(r) => {
                r.matching.len() as u128 ^ fold_edges(r.matching.edges.iter())
            }
            AlgoOutput::Spanner(r) => r.spanner.m() as u128 ^ fold_edges(r.spanner.edges().iter()),
            AlgoOutput::Apsp { oracle, spanner } => {
                (oracle.stretch_bound as u128)
                    ^ (spanner.spanner.m() as u128)
                    ^ fold_edges(spanner.spanner.edges().iter())
            }
            AlgoOutput::MstApprox(r) => {
                (r.estimate.to_bits() as u128)
                    ^ fold_words(r.component_counts.iter().map(|&c| c as u64))
            }
            AlgoOutput::MinCut(r) => {
                r.value
                    ^ fold_words(
                        r.trial_sizes
                            .iter()
                            .map(|&(v, e)| (v as u64) << 32 | e as u64),
                    )
            }
            AlgoOutput::MinCutApprox(r) => {
                (r.estimate.to_bits() as u128)
                    ^ fold_words([r.lambda_guess, r.skeleton_edges as u64].into_iter())
            }
            AlgoOutput::Mis(r) => r.mis.len() as u128 ^ fold_words(r.mis.iter().map(|&v| v as u64)),
            AlgoOutput::Coloring(r) => {
                r.colors.len() as u128 ^ fold_words(r.colors.iter().map(|&c| c as u64))
            }
        }
    }
}

/// A registered algorithm: a name, its paper anchor, and its recipe — the
/// one place that builds its per-machine programs and reads its result
/// back, for solo runs and service lanes alike.
pub struct Algorithm {
    /// Registry name (the `run` lookup key).
    pub name: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// Where in the paper this algorithm lives.
    pub paper: &'static str,
    /// The polylog capacity exponent this algorithm's traffic honestly
    /// needs under strict enforcement (its `Õ(·)` factor) — generic
    /// consumers (the registry smoke, `engine_demo`) build their clusters
    /// with `ClusterConfig::polylog_exponent(algo.polylog_exponent)` so a
    /// new registration picks a suitable cluster without per-name edits.
    pub polylog_exponent: f64,
    /// Round budget: the theorem's round class stated as a hard cap for a
    /// run on a cluster of `n` vertices — `O(1)` algorithms get a fixed
    /// constant, `O(log log n)`-class algorithms an explicit
    /// `a·⌈log₂log₂n⌉ + b` cap. The `budgets` bench experiment (a CI gate)
    /// fails the build when a run exceeds it.
    pub round_budget: fn(n: usize) -> u64,
    recipe: fn(&Cluster, &AlgoInput<'_>) -> Recipe,
}

impl Algorithm {
    /// Runs this algorithm on `cluster` in the given mode. `threads` caps
    /// the worker pool of [`ExecMode::Parallel`] runs (0 = the
    /// [`Executor`] default); results never depend on it.
    ///
    /// # Errors
    ///
    /// [`ExecError::Algorithm`] for parameters out of range, a cluster
    /// without a large machine or without small machines, or input edges
    /// not sharded over the small machines; otherwise see [`ExecError`].
    pub fn run(
        &self,
        cluster: &mut Cluster,
        input: &AlgoInput<'_>,
        mode: ExecMode,
        threads: usize,
    ) -> Result<AlgoOutput, ExecError> {
        self.check(&input.params)?;
        let large = large_machine(cluster)?;
        if input.edges.machines() != cluster.machines() || !input.edges.shard(large).is_empty() {
            return Err(algorithm_error(
                "the input must be sharded over the cluster's small machines",
            ));
        }
        match (self.name, input.params.batch_instances) {
            ("mst-approx", true) => batched_mst_approx(cluster, large, input, mode, threads),
            ("mincut-approx", true) => batched_mincut_approx(cluster, large, input, mode, threads),
            ("spanner-weighted", false) => {
                let k = input.params.spanner_k;
                sequential_weighted_spanner(cluster, large, input, k, mode, threads)
                    .map(AlgoOutput::Spanner)
            }
            ("apsp", false) if is_weighted(input.edges) => {
                let k = ApspOracle::stretch_parameter(input.n);
                sequential_weighted_spanner(cluster, large, input, k, mode, threads)
                    .map(|spanner| apsp(spanner, 12 * k - 1))
            }
            _ => match (self.recipe)(cluster, input) {
                Recipe::Wave(wave) => wave.solo(cluster, large, mode, threads),
                Recipe::Done(output) => Ok(*output),
            },
        }
    }

    /// The job's single-wave form as type-erased [`MixedWave`] lanes —
    /// what the [service](crate::service) admits. `batch_instances` does
    /// not apply: a lane is always the recipe's single wave. The caller
    /// has checked the parameters ([`Algorithm::check`]) and the cluster
    /// shape ([`large_machine`]).
    ///
    pub(crate) fn lane(&self, spec: &JobSpec, cluster: &Cluster) -> Recipe<Lane> {
        // The constructors snapshot solo capacities.
        debug_assert_eq!(cluster.capacity_factor(), 1, "build lanes at solo capacity");
        let edges = mpc_core::common::distribute_edges(cluster, &spec.graph);
        let input = AlgoInput {
            n: spec.graph.n(),
            edges: &edges,
            params: spec.params.clone(),
        };
        match (self.recipe)(cluster, &input) {
            Recipe::Wave(wave) => Recipe::Wave(wave.lane()),
            Recipe::Done(output) => Recipe::Done(output),
        }
    }

    /// Rejects parameters this algorithm's programs cannot run with.
    pub(crate) fn check(&self, params: &JobParams) -> Result<(), ExecError> {
        let eps = params.epsilon;
        let problem = match self.name {
            "spanner" | "spanner-weighted" if params.spanner_k < 2 => {
                format!("spanner_k must be at least 2, got {}", params.spanner_k)
            }
            "mincut-approx" if !(eps > 0.0 && eps < 1.0) => {
                format!("epsilon must lie in (0, 1), got {eps}")
            }
            "mst-approx" if !(eps.is_finite() && eps > 0.0) => {
                format!("epsilon must be positive and finite, got {eps}")
            }
            _ => return Ok(()),
        };
        Err(algorithm_error(format!("{}: {problem}", self.name)))
    }
}

/// The large machine every registered program coordinates through —
/// a typed error if the cluster has none, or has no small machines to
/// hold the input.
///
/// # Errors
///
/// [`ExecError::Algorithm`] for either missing role.
pub(crate) fn large_machine(cluster: &Cluster) -> Result<MachineId, ExecError> {
    match cluster.large() {
        Some(large) if cluster.machines() > 1 => Ok(large),
        Some(_) => Err(algorithm_error(
            "the registry algorithms need at least one small machine",
        )),
        None => Err(algorithm_error(
            "the registry algorithms need a large machine",
        )),
    }
}

/// `⌈log₂log₂ n⌉`, floored at 1 — the `O(log log n)` budget scale.
fn loglog(n: usize) -> u64 {
    let l = (n.max(4) as f64).log2().log2().ceil() as u64;
    l.max(1)
}

// The three sequentialized-parallel workloads (`spanner-weighted`,
// `mst-approx`, `mincut-approx`) run their paper-parallel instances
// interleaved as the lanes of one batched wave by default, so their
// round budgets are the theorems' *parallel* figures — flat constants,
// independent of the instance count (weight classes, thresholds, λ̂
// guesses). The sequential compositions survive behind
// [`AlgoInput::sequential_instances`] as equivalence oracles; the
// `budgets` experiment measures both and gates the ≥5× collapse.

/// `⌈log₂ n⌉`, floored at 1.
fn log2(n: usize) -> u64 {
    ((n.max(2) as f64).log2().ceil() as u64).max(1)
}

static ALGORITHMS: &[Algorithm] = &[
    Algorithm {
        name: "connectivity",
        summary: "O(1)-round connected components via linear sketches",
        paper: "Theorem C.1",
        polylog_exponent: 2.6,
        round_budget: |_n| 6,
        recipe: |cluster, input| {
            let config = input
                .params
                .connectivity
                .clone()
                .unwrap_or_else(|| ConnectivityConfig::for_n(input.n));
            let programs = ConnectivityProgram::for_cluster(cluster, input.n, input.edges, &config);
            Wave::new("conn", programs, |p| {
                halted(p.result).map(AlgoOutput::Components)
            })
            .into()
        },
    },
    Algorithm {
        name: "boruvka-msf",
        summary: "plain Borůvka minimum spanning forest in 4-round waves",
        paper: "§3 building block",
        polylog_exponent: 1.3,
        round_budget: |n| 4 * log2(n) + 8,
        recipe: |cluster, input| {
            let programs = BoruvkaProgram::for_cluster(cluster, input.edges);
            Wave::new("boruvka", programs, |p| {
                halted(p.forest).map(AlgoOutput::Forest)
            })
            .into()
        },
    },
    Algorithm {
        name: "mst",
        summary: "exact MST: doubly-exponential Borůvka + KKT sampling finish",
        paper: "Theorem 3.1",
        polylog_exponent: 1.3,
        round_budget: |n| 6 * loglog(n) + 16,
        recipe: |cluster, input| {
            let programs =
                MstProgram::for_cluster_with(cluster, input.n, input.edges, &input.params.mst);
            Wave::new("mst", driven(programs), |Driven(p)| {
                halted(p.result)?
                    .map(AlgoOutput::Mst)
                    .map_err(algorithm_error)
            })
            .into()
        },
    },
    Algorithm {
        name: "matching",
        summary: "maximal matching in rounds depending only on the average degree",
        paper: "Theorem 5.1",
        polylog_exponent: 1.3,
        round_budget: |n| 10 * loglog(n) + 36,
        recipe: |cluster, input| {
            let programs = MatchingProgram::for_cluster(cluster, input.n, input.edges);
            Wave::new("match", driven(programs), |Driven(p)| {
                halted(p.result)?
                    .map(AlgoOutput::Matching)
                    .map_err(algorithm_error)
            })
            .into()
        },
    },
    Algorithm {
        name: "spanner",
        summary: "(6k−1)-spanner of size O(n^(1+1/k)) in O(1) rounds (unweighted)",
        paper: "Theorem 4.1",
        polylog_exponent: 1.6,
        round_budget: |_n| 24,
        recipe: |cluster, input| {
            spanner_wave(cluster, input.n, input.edges, input.params.spanner_k)
                .map(AlgoOutput::Spanner)
                .into()
        },
    },
    Algorithm {
        name: "spanner-weighted",
        summary: "(12k−1)-spanner of a weighted graph via factor-2 weight classes",
        paper: "Theorem 4.1 + [22]",
        polylog_exponent: 1.6,
        // All weight classes interleaved in one engine run: the solo
        // spanner's O(1) clock, independent of the class count.
        round_budget: |_n| 24,
        recipe: |cluster, input| {
            let k = input.params.spanner_k;
            weighted_spanner(cluster, input.n, input.edges, k, AlgoOutput::Spanner)
        },
    },
    Algorithm {
        name: "apsp",
        summary: "O(log n)-approximate APSP oracle from a k=⌈log₂ n⌉ spanner",
        paper: "Corollary 4.2",
        polylog_exponent: 1.6,
        // One spanner run (the fixed 17-round clock, weight classes
        // interleaved when the input is weighted) — oracle indexing is
        // local to the large machine and costs no rounds.
        round_budget: |_n| 24,
        recipe: |cluster, input| {
            let k = ApspOracle::stretch_parameter(input.n);
            if is_weighted(input.edges) {
                weighted_spanner(cluster, input.n, input.edges, k, move |s| {
                    apsp(s, 12 * k - 1)
                })
            } else {
                spanner_wave(cluster, input.n, input.edges, k)
                    .map(move |s| apsp(s, 6 * k - 1))
                    .into()
            }
        },
    },
    Algorithm {
        name: "mst-approx",
        summary: "(1+ε)-approximate MST weight via thresholded connectivity",
        paper: "Theorem C.2",
        polylog_exponent: 2.6,
        // All threshold waves interleaved in one engine run: a single
        // 3-round connectivity wave plus slack, independent of the
        // O(log_{1+ε} W) grid size — the theorem's parallel figure.
        round_budget: |_n| 8,
        recipe: |cluster, input| {
            let programs =
                MstApproxProgram::for_cluster(cluster, input.n, input.edges, input.params.epsilon);
            Wave::new("xmst", driven(programs), |Driven(p)| {
                halted(p.result).map(AlgoOutput::MstApprox)
            })
            .into()
        },
    },
    Algorithm {
        name: "mincut",
        summary: "exact unweighted min cut via 2-out + sampling contraction",
        paper: "Theorem C.3",
        polylog_exponent: 1.3,
        // O(1) per trial (12 engine rounds), at the default trial count,
        // plus the degree kickoff.
        round_budget: |_n| 12 * DEFAULT_MINCUT_TRIALS as u64 + 8,
        recipe: |cluster, input| {
            let trials = input.params.mincut_trials;
            let programs = MinCutProgram::for_cluster(cluster, input.n, input.edges, trials);
            Wave::new("cut", driven(programs), |Driven(p)| {
                halted(p.result).map(AlgoOutput::MinCut)
            })
            .into()
        },
    },
    Algorithm {
        name: "mincut-approx",
        summary: "(1±ε)-approximate weighted min cut via skeleton sampling",
        paper: "Theorem C.4",
        polylog_exponent: 1.6,
        // All λ̂ guesses interleaved in one engine run: one 4-round wave
        // plus the conditional whole-graph fallback, independent of the
        // geometric guess count — the theorem's parallel figure.
        round_budget: |_n| 10,
        recipe: |cluster, input| {
            let eps = input.params.epsilon;
            let programs = MinCutApproxProgram::for_cluster(cluster, input.n, input.edges, eps);
            Wave::new("xcut", driven(programs), |Driven(p)| {
                halted(p.result).map(AlgoOutput::MinCutApprox)
            })
            .into()
        },
    },
    Algorithm {
        name: "mis",
        summary: "maximal independent set over geometric rank prefixes",
        paper: "Theorem C.6",
        polylog_exponent: 1.6,
        round_budget: |n| 10 * (loglog(n) + 1) + 10,
        recipe: |cluster, input| {
            let programs = MisProgram::for_cluster(cluster, input.n, input.edges);
            Wave::new("mis", driven(programs), |Driven(p)| {
                halted(p.result).map(AlgoOutput::Mis)
            })
            .into()
        },
    },
    Algorithm {
        name: "coloring",
        summary: "(Δ+1)-coloring via palette sampling + conflict list-coloring",
        paper: "Theorem C.7",
        polylog_exponent: 2.0,
        // O(1) plus at most MAX_RESTARTS + 1 attempt waves (2 rounds each).
        round_budget: |_n| 6 + 2 * (mpc_core::ported::coloring::MAX_RESTARTS as u64 + 1),
        recipe: |cluster, input| {
            let programs = ColoringProgram::for_cluster(cluster, input.n, input.edges);
            Wave::new("color", driven(programs), |Driven(p)| {
                halted(p.result).map(AlgoOutput::Coloring)
            })
            .into()
        },
    },
];

/// The registry names whose paper-parallel instances run interleaved
/// as the lanes of one [batched wave](MixedWave::batched) by default
/// (and sequentially under [`AlgoInput::sequential_instances`]) — the
/// single source of truth for the `budgets` collapse gate and the
/// `hotpath` batched bench rows.
pub const BATCHED_NAMES: [&str; 3] = ["spanner-weighted", "mst-approx", "mincut-approx"];

/// The canonical registry contents: every paper result, exactly once, in
/// presentation order. `names()` must equal this list (asserted by the
/// registry unit tests *and* the `registry` smoke experiment in CI), so a
/// dropped, duplicated, or misnamed registration fails the build.
pub const CANONICAL_NAMES: [&str; 12] = [
    "connectivity",
    "boruvka-msf",
    "mst",
    "matching",
    "spanner",
    "spanner-weighted",
    "apsp",
    "mst-approx",
    "mincut",
    "mincut-approx",
    "mis",
    "coloring",
];

/// All registered algorithms, in presentation order.
pub fn algorithms() -> &'static [Algorithm] {
    ALGORITHMS
}

/// All registry names, in presentation order.
pub fn names() -> Vec<&'static str> {
    ALGORITHMS.iter().map(|a| a.name).collect()
}

/// Looks up an algorithm by name.
pub fn get(name: &str) -> Option<&'static Algorithm> {
    ALGORITHMS.iter().find(|a| a.name == name)
}

/// [`get`], with a typed error for unknown names.
pub(crate) fn lookup(name: &str) -> Result<&'static Algorithm, ExecError> {
    get(name).ok_or_else(|| {
        let registered = names().join(", ");
        algorithm_error(format!(
            "unknown algorithm '{name}'; registered: {registered}"
        ))
    })
}

/// Runs the named algorithm on `cluster` in the given [`ExecMode`] — the
/// registry entry point everything routes through.
///
/// # Errors
///
/// [`ExecError::Algorithm`] for unknown names, out-of-range parameters,
/// and clusters without a large machine or small machines; otherwise
/// whatever the algorithm surfaces (see [`ExecError`]).
pub fn run(
    name: &str,
    cluster: &mut Cluster,
    input: &AlgoInput<'_>,
    mode: ExecMode,
) -> Result<AlgoOutput, ExecError> {
    lookup(name)?.run(cluster, input, mode, 0)
}

/// Runs one [`JobSpec`] solo on `cluster`: distributes the spec's graph
/// and delegates to [`run`] with the spec's parameters — the single
/// bridge between the job description the [service](crate::service)
/// consumes and the [`AlgoInput`] entry point, so the two cannot drift.
/// The caller seeds the cluster (typically with [`JobSpec::seed`]) to
/// reproduce a service job bit-for-bit.
///
/// # Errors
///
/// Same as [`run`].
pub fn run_job(
    spec: &JobSpec,
    cluster: &mut Cluster,
    mode: ExecMode,
) -> Result<AlgoOutput, ExecError> {
    large_machine(cluster)?;
    let edges = mpc_core::common::distribute_edges(cluster, &spec.graph);
    let input = AlgoInput {
        n: spec.graph.n(),
        edges: &edges,
        params: spec.params.clone(),
    };
    run(&spec.name, cluster, &input, mode)
}

/// Runs the named algorithm with telemetry recording attached and returns
/// its output together with a [`RunReport`](crate::report::RunReport) —
/// per-machine load, straggler ranking, critical-path breakdown, and (for
/// pool runs) host-side worker accounting.
///
/// An unbounded ring sink is installed for the duration of the run. If the
/// caller already attached a sink it keeps receiving every event (the two
/// are fanned out), and it is restored afterwards either way.
///
/// # Errors
///
/// Same as [`run`]; the caller's sink is restored on the error path too.
pub fn run_with_report(
    name: &str,
    cluster: &mut Cluster,
    input: &AlgoInput<'_>,
    mode: ExecMode,
) -> Result<(AlgoOutput, crate::report::RunReport), ExecError> {
    use mpc_runtime::{FanoutSink, RingSink, TraceSink};
    use std::sync::Arc;

    let ring = Arc::new(RingSink::unbounded());
    let previous = cluster.set_trace_sink(Some(match cluster.trace_sink() {
        Some(existing) => {
            Arc::new(FanoutSink::new(vec![existing, ring.clone()])) as Arc<dyn TraceSink>
        }
        None => ring.clone() as Arc<dyn TraceSink>,
    }));
    let result = run(name, cluster, input, mode);
    cluster.set_trace_sink(previous);
    let output = result?;
    let report = crate::report::RunReport::from_events(name, ring.take(), cluster.cost_model());
    Ok((output, report))
}

// ---------------------------------------------------------------------------
// Recipes: one single-wave form per registry name, two drivers
// ---------------------------------------------------------------------------

/// One engine run's worth of a registered algorithm: the per-machine
/// programs and how to read the result off the large machine's final
/// program.
pub(crate) struct Wave<P, T = AlgoOutput> {
    label: &'static str,
    /// Paper-parallel instances interleaved in this wave: the solo driver
    /// scales the cluster's capacity factor by it for the run.
    instances: usize,
    pub(crate) programs: Vec<P>,
    pub(crate) extract: Box<dyn FnOnce(P) -> Result<T, ExecError>>,
}

/// A wave admitted into the service's [`MixedWave`]:
/// erased lanes, and an extractor that downcasts the large machine's lane.
pub(crate) type Lane = Wave<Box<dyn ErasedProgram>>;

/// What a recipe builds for one input.
pub(crate) enum Recipe<W = Box<dyn Drive>> {
    /// A wave to drive to completion.
    Wave(W),
    /// Degenerate input (a weighted spanner over no edges): the result
    /// needs no engine run.
    Done(Box<AlgoOutput>),
}

impl<P: MachineProgram + 'static, T: 'static> Wave<P, T> {
    fn new(
        label: &'static str,
        programs: Vec<P>,
        extract: impl FnOnce(P) -> Result<T, ExecError> + 'static,
    ) -> Self {
        Wave {
            label,
            instances: 1,
            programs,
            extract: Box::new(extract),
        }
    }

    fn map<U>(self, f: impl FnOnce(T) -> U + 'static) -> Wave<P, U> {
        let extract = self.extract;
        Wave {
            label: self.label,
            instances: self.instances,
            programs: self.programs,
            extract: Box::new(move |p| extract(p).map(f)),
        }
    }

    /// The solo driver: one typed engine run (messages stay unboxed),
    /// returning the result and the rounds the run took.
    fn run(
        self,
        cluster: &mut Cluster,
        large: MachineId,
        mode: ExecMode,
        threads: usize,
    ) -> Result<(T, u64), ExecError> {
        let mut outcome = {
            let mut scaled = CapacityFactor::scale(cluster, self.instances);
            Executor::new(self.label, mode)
                .threads(threads)
                .run(scaled.cluster(), self.programs)?
        };
        let result = (self.extract)(outcome.programs.swap_remove(large))?;
        Ok((result, outcome.rounds))
    }
}

impl<P: MachineProgram + 'static, T: 'static> Wave<MixedWave<P>, T> {
    /// The paper-parallel instances `per_instance[i][mid]` as the lanes of
    /// one [batched](MixedWave::batched) wave; `extract` reads the large
    /// machine's lane programs in instance order.
    fn batched(
        label: &'static str,
        cluster: &Cluster,
        per_instance: Vec<Vec<P>>,
        extract: impl FnOnce(Vec<P>) -> Result<T, ExecError> + 'static,
    ) -> Self {
        let instances = per_instance.len();
        let programs = MixedWave::batched(cluster, per_instance);
        let wave = Wave::new(label, programs, |coordinator: MixedWave<P>| {
            extract(coordinator.into_programs())
        });
        Wave { instances, ..wave }
    }
}

impl<P> From<Wave<P>> for Recipe
where
    P: MachineProgram + 'static,
    P::Message: 'static,
{
    fn from(wave: Wave<P>) -> Self {
        Recipe::Wave(Box::new(wave))
    }
}

/// A [`Wave`] with its program type hidden, so the registry table holds
/// one plain function per name; each method is one of the two drivers.
pub(crate) trait Drive {
    /// The solo driver ([`Wave::run`]).
    fn solo(
        self: Box<Self>,
        cluster: &mut Cluster,
        large: MachineId,
        mode: ExecMode,
        threads: usize,
    ) -> Result<AlgoOutput, ExecError>;

    /// The lane driver: erase the programs for a [`MixedWave`].
    fn lane(self: Box<Self>) -> Lane;
}

impl<P> Drive for Wave<P>
where
    P: MachineProgram + 'static,
    P::Message: 'static,
{
    fn solo(
        self: Box<Self>,
        cluster: &mut Cluster,
        large: MachineId,
        mode: ExecMode,
        threads: usize,
    ) -> Result<AlgoOutput, ExecError> {
        self.run(cluster, large, mode, threads)
            .map(|(output, _)| output)
    }

    fn lane(self: Box<Self>) -> Lane {
        let extract = self.extract;
        Wave {
            label: self.label,
            instances: self.instances,
            programs: self.programs.into_iter().map(erase).collect(),
            extract: Box::new(move |p| extract(downcast_program::<P>(p))),
        }
    }
}

/// RAII wrapper for [`Cluster::set_capacity_factor`]: scales the cluster's
/// capacities for a combined (batched) run and restores the solo factor of
/// 1 on drop — including when the run panics, so a caller that catches the
/// panic never observes a cluster with silently-disabled strict
/// enforcement.
struct CapacityFactor<'a> {
    cluster: &'a mut Cluster,
}

impl<'a> CapacityFactor<'a> {
    /// Applies `factor` (clamped to ≥ 1) for the guard's lifetime.
    fn scale(cluster: &'a mut Cluster, factor: usize) -> Self {
        cluster.set_capacity_factor(factor.max(1));
        CapacityFactor { cluster }
    }

    /// The scaled cluster (borrow this for the combined run).
    fn cluster(&mut self) -> &mut Cluster {
        self.cluster
    }
}

impl Drop for CapacityFactor<'_> {
    fn drop(&mut self) {
        self.cluster.set_capacity_factor(1);
    }
}

/// The result slot of the large machine's final program.
fn halted<T>(slot: Option<T>) -> Result<T, ExecError> {
    slot.ok_or_else(|| algorithm_error("the large machine halted without a result"))
}

fn algorithm_error(e: impl std::fmt::Display) -> ExecError {
    ExecError::Algorithm {
        message: e.to_string(),
    }
}

fn driven<P>(programs: Vec<P>) -> Vec<Driven<P>> {
    programs.into_iter().map(Driven).collect()
}

fn is_weighted(edges: &ShardedVec<Edge>) -> bool {
    edges.iter().any(|(_, e)| e.w != 1)
}

fn apsp(spanner: SpannerResult, stretch_bound: usize) -> AlgoOutput {
    let oracle = ApspOracle::from_spanner(spanner.spanner.clone(), stretch_bound);
    AlgoOutput::Apsp { oracle, spanner }
}

fn spanner_wave(
    cluster: &Cluster,
    n: usize,
    edges: &ShardedVec<Edge>,
    k: usize,
) -> Wave<Driven<SpannerProgram>, SpannerResult> {
    let programs = driven(SpannerProgram::for_cluster(cluster, n, edges, k));
    Wave::new("spanner", programs, |Driven(p)| halted(p.result))
}

/// Every factor-2 weight class of `edges` (the \[22\] reduction) as one
/// [batched](MixedWave::batched) spanner wave — one spanner clock for all
/// classes. The lanes step in class order on each machine's one stream,
/// so the RNG is consumed class-major, exactly as
/// [`sequential_weighted_spanner`] does.
fn weighted_spanner(
    cluster: &Cluster,
    n: usize,
    edges: &ShardedVec<Edge>,
    k: usize,
    finish: impl FnOnce(SpannerResult) -> AlgoOutput + 'static,
) -> Recipe {
    let classes = weight_class_shards(edges);
    if classes.shards.is_empty() {
        let spanner = merge_class_results(n, &classes, Vec::new());
        return Recipe::Done(Box::new(finish(spanner)));
    }
    let per_instance = classes
        .shards
        .iter()
        .map(|(_c, class_edges)| driven(SpannerProgram::for_cluster(cluster, n, class_edges, k)))
        .collect();
    Wave::batched(
        "wspan",
        cluster,
        per_instance,
        move |results: Vec<Driven<SpannerProgram>>| {
            let results = results
                .into_iter()
                .map(|Driven(p)| halted(p.result))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(finish(merge_class_results(n, &classes, results)))
        },
    )
    .into()
}

// ---------------------------------------------------------------------------
// Solo-only compositions (selected by `batch_instances`)
// ---------------------------------------------------------------------------

/// The weighted spanner as one engine pass per weight class — the
/// equivalence oracle for the batched wave (identical results and RNG
/// stream positions, `O(classes)`× the rounds).
fn sequential_weighted_spanner(
    cluster: &mut Cluster,
    large: MachineId,
    input: &AlgoInput<'_>,
    k: usize,
    mode: ExecMode,
    threads: usize,
) -> Result<SpannerResult, ExecError> {
    mpc_core::spanner::weighted_by_classes(input.n, input.edges, |class_edges| {
        spanner_wave(cluster, input.n, class_edges, k)
            .run(cluster, large, mode, threads)
            .map(|(spanner, _)| spanner)
    })
}

/// `mst-approx` with every `(1+ε)^j` threshold wave interleaved in one
/// [batched](MixedWave::batched) run — one 3-round sketch-connectivity
/// wave for all thresholds (the paper's parallel figure). The per-wave
/// sketch seeds are pre-drawn host-side from the large machine's stream in
/// ascending threshold order — the sequential program's draw order — so
/// estimate, thresholds, component counts, *and* RNG stream positions are
/// bit-identical to the single-wave form.
fn batched_mst_approx(
    cluster: &mut Cluster,
    large: MachineId,
    input: &AlgoInput<'_>,
    mode: ExecMode,
    threads: usize,
) -> Result<AlgoOutput, ExecError> {
    let (n, edges, epsilon) = (input.n, input.edges, input.params.epsilon);
    let owners: Arc<[MachineId]> = cluster.small_ids().into();
    let w_max = edges.iter().map(|(_, e)| e.w).max().unwrap_or(1).max(1);
    let thresholds = mpc_core::ported::mst_approx::geometric_thresholds(w_max, epsilon);
    let phases = ConnectivityConfig::for_n(n).phases;
    let seeds: Vec<u64> = thresholds
        .iter()
        .map(|_| cluster.rng(large).random())
        .collect();
    let shards = shard_arcs(cluster, edges);
    let per_instance: Vec<Vec<Driven<MstApproxWave>>> = thresholds
        .iter()
        .zip(&seeds)
        .map(|(&t, &seed)| {
            shards
                .iter()
                .map(|shard| {
                    Driven(MstApproxWave::new(
                        n,
                        phases,
                        t,
                        seed,
                        owners.clone(),
                        shard.clone(),
                    ))
                })
                .collect()
        })
        .collect();
    let counts = |waves: Vec<Driven<MstApproxWave>>| {
        waves
            .into_iter()
            .map(|Driven(w)| halted(w.count))
            .collect::<Result<Vec<usize>, _>>()
    };
    let (component_counts, parallel_rounds) =
        Wave::batched("xmst", cluster, per_instance, counts).run(cluster, large, mode, threads)?;
    let estimate = mpc_core::ported::mst_approx::estimate_from_counts(
        n,
        w_max,
        &thresholds,
        &component_counts,
    );
    Ok(AlgoOutput::MstApprox(MstApprox {
        estimate,
        thresholds,
        component_counts,
        parallel_rounds,
    }))
}

/// `mincut-approx` with every geometric λ̂ guess interleaved in one
/// [batched](MixedWave::batched) run — one 4-round wave for all guesses
/// (the paper's parallel figure). Small machines sample the guesses in
/// guess order within the first combined round (the single-wave form's
/// per-machine draw order, so every guess's skeleton is bit-identical);
/// the coordinator retires all guesses finer than the first to overflow
/// its skeleton budget, and the winner is chosen by the same
/// largest-first scan. RNG stream positions advance further than the
/// single-wave form's whenever its early exit skipped later guesses (the
/// batched run samples them all up front, as the paper does).
fn batched_mincut_approx(
    cluster: &mut Cluster,
    large: MachineId,
    input: &AlgoInput<'_>,
    mode: ExecMode,
    threads: usize,
) -> Result<AlgoOutput, ExecError> {
    let (n, edges, epsilon) = (input.n, input.edges, input.params.epsilon);
    // Guess grid and sampling constant, host-side — the same derivation
    // the single-wave program performs before its first round.
    let total_weight: u64 = edges.iter().map(|(_, e)| e.w).sum();
    let c_sample = mpc_core::ported::mincut_approx::c_sample_for(n, epsilon);
    let guesses = mpc_core::ported::mincut_approx::lambda_guesses(total_weight);
    let shards = shard_arcs(cluster, edges);
    let per_instance: Vec<Vec<Driven<MinCutGuessWave>>> = guesses
        .iter()
        .map(|&guess| {
            shards
                .iter()
                .map(|shard| Driven(MinCutGuessWave::new(n, c_sample, guess, shard.clone())))
                .collect()
        })
        .collect();
    let mut wave = Wave::batched("xcut", cluster, per_instance, |lanes| {
        Ok(lanes
            .into_iter()
            .map(|Driven(g)| g.outcome)
            .collect::<Vec<_>>())
    });
    // Early-exit controller on the coordinator: the first guess to
    // overflow its skeleton budget retires every finer guess — their
    // staged `Ship` commands are discarded before they leave the machine,
    // so retired guesses contribute zero traffic to later combined rounds.
    wave.programs[large].set_controller(Arc::new(
        |_ctx, lanes: &mut [MixedLane<Driven<MinCutGuessWave>>]| {
            if let Some(j) = lanes
                .iter()
                .position(|l| matches!(l.program.0.outcome, Some(GuessOutcome::OverBudget)))
            {
                lanes[j + 1..].iter_mut().for_each(MixedLane::retire);
            }
        },
    ));
    let (outcomes, parallel_rounds) = wave.run(cluster, large, mode, threads)?;

    // The largest-first scan over the per-guess verdicts: the first
    // over-budget guess aborts to the fallback, the first concentrated
    // estimate wins, anything else keeps scanning.
    for (outcome, &guess) in outcomes.into_iter().zip(&guesses) {
        match outcome {
            // Over budget, or retired behind an over-budget guess.
            None | Some(GuessOutcome::OverBudget) => break,
            Some(GuessOutcome::Judged {
                verdict,
                skeleton_edges,
            }) => match verdict {
                SkeletonVerdict::Disconnected | SkeletonVerdict::NotConcentrated => continue,
                SkeletonVerdict::Estimate(estimate) => {
                    return Ok(AlgoOutput::MinCutApprox(ApproxMinCut {
                        estimate,
                        lambda_guess: guess,
                        skeleton_edges,
                        parallel_rounds,
                    }));
                }
            },
        }
    }

    // Every guess failed (or the budget was hit): gather the whole graph
    // in a short second engine pass.
    let programs = shards
        .iter()
        .map(|shard| Driven(XCutFallback::new(n, shard.clone())))
        .collect();
    let ((estimate, m), fb_rounds) = Wave::new("xcut-fb", programs, |Driven(p)| halted(p.result))
        .run(cluster, large, mode, threads)?;
    Ok(AlgoOutput::MinCutApprox(ApproxMinCut {
        estimate,
        lambda_guess: 1,
        skeleton_edges: m,
        parallel_rounds: parallel_rounds + fb_rounds,
    }))
}

/// Each machine's input shard, shared by every instance of a batched run.
fn shard_arcs(cluster: &Cluster, edges: &ShardedVec<Edge>) -> Vec<Arc<[Edge]>> {
    (0..cluster.machines())
        .map(|mid| Arc::from(edges.shard(mid)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_the_canonical_name_set() {
        assert_eq!(
            names(),
            CANONICAL_NAMES.to_vec(),
            "registry names drifted from the canonical set"
        );
        for name in CANONICAL_NAMES {
            assert!(get(name).is_some(), "'{name}' not registered");
        }
        assert_eq!(names().len(), ALGORITHMS.len());
        for name in BATCHED_NAMES {
            assert!(
                CANONICAL_NAMES.contains(&name),
                "batched name '{name}' missing from the canonical set"
            );
        }
    }

    #[test]
    fn unknown_names_error_with_the_catalog() {
        let g = mpc_graph::generators::gnm(16, 32, 1);
        let mut cluster = Cluster::new(mpc_runtime::ClusterConfig::new(g.n(), g.m()));
        let edges = mpc_core::common::distribute_edges(&cluster, &g);
        let input = AlgoInput::new(g.n(), &edges);
        let err = run("nope", &mut cluster, &input, ExecMode::Serial).unwrap_err();
        assert!(err.to_string().contains("unknown algorithm"));
        assert!(err.to_string().contains("mst"));
    }
}
